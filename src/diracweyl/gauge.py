"""Unitary gauge reduction to the normal form B22 = -B11, B21 = B12.

The diagonal gauge factors solve a linear ODE with skew-Hermitian generator,
propagated by the same fourth-order Magnus steps as the transfer matrices
(so they stay unitary), both as one stack whose ordered products come from
one log-depth prefix scan; their drift takes an SVD only where cheap norm
bounds leave it open, and B at the output nodes comes from the cut
samples.  The transformed off-diagonal datum
U11^{-1} [(B12 + B21) - i(B11 - B22)] U22, taken at all nodes at once,
splits into the Hermitian blocks of the reduced potential.  A constant
Hermitian twist omega acts on that datum from both sides and parametrizes
the residual gauge freedom; omega = (pi/2) I flips the sign of the reduced
potential.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotHermitianOmega
from .foundation import (
    MAX_POINTS,
    GridPiece,
    PotentialSpec,
    herm_defect,
    hermitize,
    mat_imag,
    matnorm,
    need,
)
from .propagator import _mul, _prefix, magnus_steps, segment_cuts

_REUNIT_TOL = 1e-10


def _generator(b, m, j):
    """(i/2) * [(-1)^j (B11 + B22) + i (B12 - B21)], skew-Hermitian; b may be
    a stack of matrices."""
    sgn = -1.0 if j == 1 else 1.0
    g = (sgn * (b[..., :m, :m] + b[..., m:, m:])
         + 1j * (b[..., :m, m:] - b[..., m:, :m]))
    return 0.5j * g


def _polar_unitary(u):
    """Unitary polar factor of a matrix or of each matrix of a stack."""
    w, v = np.linalg.eigh(u.conj().mT @ u)
    return u @ (v * (w ** -0.5)[..., None, :]) @ v.conj().mT


def _screen(h):
    """For h = U*U - I of both factors at a run of nodes, a (2, n, m, m)
    stack: the first node r where a factor's spectral norm exceeds
    _REUNIT_TOL (n if none), the mask of the factors that exceed it there
    (None if none), and the largest spectral norm over nodes [:r + 1].
    The norm lies between the largest column norm and the Frobenius norm;
    one SVD is taken where these bounds, widened against rounding, leave
    open whether a node passes the tol or holds the largest norm (a node
    over the tol puts the largest over [:r + 1] above it)."""
    c2 = (h.conj() * h).real.sum(axis=-2)       # squared column norms
    up = np.sqrt(c2.sum(axis=-1)) * (1 + 1e-9)
    low = np.sqrt(c2.max(axis=-1)) * (1 - 1e-9)
    undecided = ~(up <= _REUNIT_TOL) | (up >= low.max(initial=0.0))
    d = np.zeros(up.shape)
    d[undecided] = matnorm(h[undecided])
    over = d > _REUNIT_TOL
    hit = over.any(axis=0)
    r = int(np.argmax(hit)) if hit.any() else len(hit)
    return (r, over[:, r] if r < len(hit) else None,
            float(d[:, :r + 1].max(initial=0.0)))


@dataclass(frozen=True, eq=False)
class GaugeFactors:
    xs: np.ndarray
    u11: np.ndarray           # (n, m, m), unitary at every node
    u22: np.ndarray
    drift: float              # worst unitarity defect seen before projection
    b: np.ndarray             # (n, 2m, 2m), B at every node


def gauge_factors(spec, x0, x1):
    """Propagate the gauge ODE for U11, U22 with U(x0) = I to the output
    nodes: max(201, 50 (x1 - x0) + 1) equispaced points plus the piece
    edges, for finite x0 < x1.

    Both factors take Magnus steps as one stack (one magnus_steps call per
    segment) across the cells between consecutive cut points: output nodes
    and sample nodes.  The products of the cells up to each output node
    come from one work-efficient scan (propagator._prefix, 2 log2(cells)
    stacked products), which groups them otherwise than a cell-by-cell
    loop and so differs from it at roundoff.  At the first output node
    where a factor's drift exceeds 1e-10 (_screen) it is re-projected onto
    the unitary group, and the product resumes from there; the worst
    pre-projection drift is reported.  B at the output nodes comes along:
    cut samples inside a segment, one spec.eval call elsewhere.
    """
    need(-math.inf < x0 < x1 and 50 * (x1 - x0) < MAX_POINTS, "gauge",
         f"finite x0 < x1 and at most {MAX_POINTS} nodes", [x0, x1])
    m = spec.m
    segs = spec.segments(x0, x1)
    xs = np.array(sorted({
        *np.linspace(x0, x1, max(201, int(50 * (x1 - x0)) + 1)).tolist(),
        *(seg[0] for seg in segs)}))
    cuts = [segment_cuts(spec, *seg, extra=xs) for seg in segs]
    # the Magnus factors of both factors, a (2, cells, m, m) stack, and per
    # cell the output node it ends on (-1 for none)
    steps = np.concatenate([
        magnus_steps(ts, np.stack([_generator(v, m, j) for j in (1, 2)]))
        for ts, v in cuts], axis=1)
    ends = np.concatenate([ts[1:] for ts, _ in cuts])
    k = np.searchsorted(xs, ends)
    node = np.where(xs[np.minimum(k, len(xs) - 1)] == ends, k, -1)
    # at a node more than twice locate's snap inside its segment (once more
    # for rounding in the edges), locate finds the segment's piece and
    # offset, so the cut sample there is spec.eval's B bit for bit
    lo, hi = np.repeat([(ts[0], ts[-1]) for ts, _ in cuts],
                       [len(ts) - 1 for ts, _ in cuts], axis=0).T
    snap = 2e-12 * (1.0 + np.abs(ends))
    own = (node >= 0) & (ends - lo > snap) & (hi - ends > snap)
    b = np.empty((len(xs), 2 * m, 2 * m), dtype=complex)
    b[node[own]] = np.concatenate([v[1:] for _, v in cuts])[own]
    rest = np.bincount(node[own], minlength=len(xs)) == 0
    b[rest] = spec.eval(xs[rest])
    # the product of the cells up to each output node, both factors at once
    us = np.empty((2, len(xs), m, m), dtype=complex)
    us[:, 0] = np.eye(m)
    at = np.flatnonzero(node >= 0)
    us[:, node[at]] = _prefix(steps)[:, at]
    drift, first = 0.0, 0
    while True:
        tail = us[:, first + 1:]
        r, over, d = _screen(_mul(tail.conj().mT, tail) - np.eye(m))
        drift = max(drift, d)
        if over is None:
            return GaugeFactors(xs=xs, u11=us[0], u22=us[1], drift=drift,
                                b=b)
        # U_i U_r^{-1} is the product of the cells from node r to node i,
        # so U_i U_r^{-1} W resumes it from the projected factor W at r
        first += r + 1
        u = us[over, first]
        w = _polar_unitary(u)
        us[over, first + 1:] = _mul(us[over, first + 1:],
                                    np.linalg.solve(u, w)[:, None])
        us[over, first] = w


def _reduce(spec, x0, x1, twist, name):
    """The normal form on [x0, x1]: the datum U11^{-1} D U22 at every
    output node from the factors' B and one stacked solve, twisted from
    both sides when twist is given."""
    m = spec.m
    factors = gauge_factors(spec, x0, x1)
    b = factors.b
    datum = (b[:, :m, m:] + b[:, m:, :m]) - 1j * (b[:, :m, :m] - b[:, m:, m:])
    y = _mul(np.linalg.solve(factors.u11, datum), factors.u22)
    if twist is not None:
        y = twist @ y @ twist
    b11, b12 = -0.5 * mat_imag(y), 0.5 * hermitize(y)
    vals = np.block([[b11, b12], [b12, -b11]])
    period = None
    if (spec.is_periodic
            and math.isclose(factors.xs[-1] - factors.xs[0], spec.period,
                             rel_tol=0, abs_tol=1e-9)
            and matnorm(vals[0] - vals[-1]) < 1e-9):
        period = spec.period
    return PotentialSpec(m=m, pieces=(GridPiece(factors.xs, vals),),
                         period=period, name=name)


def normal_form(spec, x0, x1):
    """Gauge-reduce B to [[B11~, B12~], [B12~, -B11~]] on [x0, x1].

    The result is a sampled-grid potential (the transform has no closed form
    in general); it passes check_normal_form by construction and is a fixed
    point of this map.
    """
    name = f"normal({spec.name})" if spec.name else "normal-form"
    return _reduce(spec, x0, x1, None, name)


def gauge_with_omega(spec, omega, x0, x1):
    """Normal form twisted by a constant Hermitian omega (both-sided factor
    e^{i omega}); omega = (pi/2) I flips the sign of the reduced potential."""
    omega = np.atleast_2d(np.asarray(omega, complex))
    if herm_defect(omega) > 1e-10:
        raise NotHermitianOmega(
            f"omega has Hermiticity defect {herm_defect(omega):.3e}")
    w, v = np.linalg.eigh(omega)
    twist = (v * np.exp(1j * w)) @ v.conj().T
    name = f"normal({spec.name};twist)" if spec.name else "normal-form-twist"
    return _reduce(spec, x0, x1, twist, name)
