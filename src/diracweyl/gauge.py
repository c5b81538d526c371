"""Unitary gauge reduction to the normal form B22 = -B11, B21 = B12.

The diagonal gauge factors solve a linear ODE with skew-Hermitian generator,
propagated by the same fourth-order Magnus steps as the transfer matrices
(so they stay unitary); the transformed off-diagonal datum
U11^{-1} [(B12 + B21) - i(B11 - B22)] U22 splits into the Hermitian blocks
of the reduced potential.  A constant Hermitian twist omega acts on that
datum from both sides and parametrizes the residual gauge freedom; the
choice omega = (pi/2) I flips the sign of the reduced potential.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotHermitianOmega
from .foundation import (
    GridPiece,
    PotentialSpec,
    herm_defect,
    hermitize,
    mat_imag,
    matnorm,
)
from .propagator import magnus_steps, segment_cuts

_REUNIT_TOL = 1e-10


def _generator(b, m, j):
    """(i/2) * [(-1)^j (B11 + B22) + i (B12 - B21)], skew-Hermitian; b may be
    a stack of matrices."""
    sgn = -1.0 if j == 1 else 1.0
    g = (sgn * (b[..., :m, :m] + b[..., m:, m:])
         + 1j * (b[..., :m, m:] - b[..., m:, :m]))
    return 0.5j * g


def _polar_unitary(u):
    w, v = np.linalg.eigh(u.conj().T @ u)
    return u @ (v * (w ** -0.5)) @ v.conj().T


@dataclass(frozen=True, eq=False)
class GaugeFactors:
    xs: np.ndarray
    u11: np.ndarray           # (n, m, m), unitary at every node
    u22: np.ndarray
    drift: float              # worst unitarity defect seen before projection


def gauge_factors(spec, x0, x1, n_grid=None):
    """Propagate the gauge ODE for U11, U22 with U(x0) = I to the output
    nodes (n_grid equispaced points plus the piece edges).

    Every piece takes Magnus steps (magnus_steps) across the cells between
    consecutive cut points: output nodes and sample nodes.  At each output
    node the factor is re-projected onto the unitary group when its drift
    exceeds 1e-10; the worst pre-projection drift is reported.
    """
    if not x1 > x0:
        raise ValueError("gauge reduction needs x1 > x0")
    if n_grid is None:
        n_grid = max(201, int(50 * (x1 - x0)) + 1)
    m = spec.m
    segs = spec.segments(x0, x1)
    xs = np.array(sorted({*np.linspace(x0, x1, n_grid).tolist(),
                          *(seg[0] for seg in segs)}))
    out = {1: np.empty((len(xs), m, m), dtype=complex),
           2: np.empty((len(xs), m, m), dtype=complex)}
    drift = 0.0
    for j in (1, 2):
        u = np.eye(m, dtype=complex)
        out[j][0] = u
        i = 0
        for seg in segs:
            ts, vals = segment_cuts(spec, *seg, extra=xs)
            for t, f in zip(ts[1:], magnus_steps(ts, _generator(vals, m, j))):
                u = f @ u
                if t != xs[i + 1]:
                    continue
                d = matnorm(u.conj().T @ u - np.eye(m))
                drift = max(drift, d)
                if d > _REUNIT_TOL:
                    u = _polar_unitary(u)
                i += 1
                out[j][i] = u
    return GaugeFactors(xs=xs, u11=out[1], u22=out[2], drift=drift)


def _reduced_blocks(spec, factors, twist=None):
    m = spec.m
    n = len(factors.xs)
    b11 = np.empty((n, m, m), dtype=complex)
    b12 = np.empty((n, m, m), dtype=complex)
    for i, x in enumerate(factors.xs):
        b = spec.eval(x)
        datum = (b[:m, m:] + b[m:, :m]) - 1j * (b[:m, :m] - b[m:, m:])
        y = np.linalg.solve(factors.u11[i], datum) @ factors.u22[i]
        if twist is not None:
            y = twist @ y @ twist
        b11[i] = -0.5 * mat_imag(y)
        b12[i] = 0.5 * hermitize(y)
    return b11, b12


def _assemble(spec, factors, b11, b12, name, keep_period):
    n = len(factors.xs)
    m = spec.m
    vals = np.empty((n, 2 * m, 2 * m), dtype=complex)
    vals[:, :m, :m] = b11
    vals[:, :m, m:] = b12
    vals[:, m:, :m] = b12
    vals[:, m:, m:] = -b11
    period = None
    if keep_period and spec.is_periodic:
        span = factors.xs[-1] - factors.xs[0]
        if (math.isclose(span, spec.period, rel_tol=0, abs_tol=1e-9)
                and matnorm(vals[0] - vals[-1]) < 1e-9):
            period = spec.period
    return PotentialSpec(m=m, pieces=(GridPiece(factors.xs, vals),),
                         period=period, name=name)


def normal_form(spec, x0, x1, n_grid=None, keep_period=True):
    """Gauge-reduce B to [[B11~, B12~], [B12~, -B11~]] on [x0, x1].

    The result is a sampled-grid potential (the transform has no closed form
    in general); it passes check_normal_form by construction and is a fixed
    point of this map.
    """
    factors = gauge_factors(spec, x0, x1, n_grid=n_grid)
    b11, b12 = _reduced_blocks(spec, factors)
    name = f"normal({spec.name})" if spec.name else "normal-form"
    return _assemble(spec, factors, b11, b12, name, keep_period)


def gauge_with_omega(spec, omega, x0, x1, n_grid=None, keep_period=True):
    """Normal form twisted by a constant Hermitian omega (both-sided factor
    e^{i omega}); omega = (pi/2) I flips the sign of the reduced potential."""
    omega = np.atleast_2d(np.asarray(omega, complex))
    if herm_defect(omega) > 1e-10:
        raise NotHermitianOmega(
            f"omega has Hermiticity defect {herm_defect(omega):.3e}")
    w, v = np.linalg.eigh(omega)
    twist = (v * np.exp(1j * w)) @ v.conj().T
    factors = gauge_factors(spec, x0, x1, n_grid=n_grid)
    b11, b12 = _reduced_blocks(spec, factors, twist=twist)
    name = f"normal({spec.name};twist)" if spec.name else "normal-form-twist"
    return _assemble(spec, factors, b11, b12, name, keep_period)
