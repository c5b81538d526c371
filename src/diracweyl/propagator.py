"""Propagation of the first-order system J Psi' = (z I + B(x)) Psi.

The workhorse is the Propagator class, which produces transfer matrices
T(xb <- xa) with an optional exponential rescale e^{i s z (xb - xa)} that
keeps entries bounded when |Im z| * |xb - xa| is large (the rescale cancels
in every M-function ratio).  Constant pieces propagate by one matrix
exponential per span (exact up to roundoff for any span): in closed form
for m = 1 (_expm2), by a stacked scaling-and-squaring Pade approximant for
m >= 2 (_expm_pade); sampled pieces take fourth-order Magnus steps between
sample nodes, as many per cell as its leading error term asks for, all
steps of a cell sharing one commutator (magnus_steps, shared with the gauge
reduction); periodic potentials reduce long spans to binary powers of the
one-period transfer.  Every stacked product of the kernel goes through
_mul, which forms 2x2 products entry by entry over the whole stack (numpy's
stacked @ hands each small matrix to BLAS on its own).

The Volterra route (successive approximation of the integral equation for
the decaying Weyl solution of a compactly supported potential) lives here as
well; it is deliberately quadrature-based so it stays independent of the
transfer-matrix machinery and can serve as a cross-check oracle.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateArguments,
    IntegrationFailure,
    IterationDivergence,
    MismatchedEvaluation,
    NoCompactSupport,
)
from .foundation import alpha_dirichlet, jmat, matnorm

# per-step bound on the leading error term of the Magnus step (see
# magnus_steps); at 1e-10 the half-line M-function of a bump sampled at
# 21 to 401 nodes stays within 2e-11 of the Volterra route for |z| from 4
# to 3000
_MAGNUS_ETA = 1e-10

# (z, cell) pairs per magnus_steps batch of a grid piece: bounds the
# stacks' memory when many z share one Propagator
_CELL_BLOCK = 4096


def system_matrix(z, b):
    """Coefficient A(x) of Psi' = A Psi, i.e. J^{-1} (z I + B) = -J (z I + B);
    b may be a stack of matrices, and z an array that broadcasts against
    the stack."""
    b = np.asarray(b)
    d = b.shape[-1]
    x = z * np.eye(d) + b
    # -J x is the signed block swap [x_lower; -x_upper]
    return np.concatenate([x[..., d // 2:, :], -x[..., :d // 2, :]], axis=-2)


def auto_scale(z, xa, xb):
    """Rescale sign that damps the dominant exponential growth on [xa, xb]."""
    s = complex(z).imag * (xb - xa)
    if s == 0:
        return 0
    return 1 if s > 0 else -1


# 1 / (2k + 1)! for k = 0..8: the even Taylor series of sinh(mu) / mu up to
# mu^16, whose truncation error below |mu| = _SINHC_SERIES is under 1e-22
_SINHC_TAYLOR = tuple(1.0 / math.factorial(2 * k + 1) for k in range(9))
_SINHC_SERIES = 0.5


def _expm2(omega):
    """e^omega for a 2x2 matrix or a stack of them, in closed form
    (Cayley-Hamilton; Moler & Van Loan, SIAM Rev. 45, 2003).

    With t = tr(omega) / 2, n = omega - t I and mu^2 = n00^2 + n01 n10,
    e^omega = c I + s n for c = e^t cosh(mu) and s = e^t sinh(mu) / mu,
    both even in mu.  They are formed from e^{t + mu} and e^{t - mu}, never
    as e^t times cosh(mu): under the rescale e^t can underflow while
    cosh(mu) overflows.  Below |mu| = 0.5, s takes the Taylor series of
    sinh(mu) / mu, which stays exact through a Jordan block.  A single
    matrix runs as a stack of one, so it rounds exactly as a stack row."""
    if omega.ndim == 2:
        return _expm2(omega[None])[0]
    t = 0.5 * (omega[..., 0, 0] + omega[..., 1, 1])
    n00 = omega[..., 0, 0] - t
    # overflow to inf is an expected probe outcome on long spans; callers
    # detect it and bisect
    with np.errstate(over="ignore", invalid="ignore"):
        mu = np.sqrt(n00 * n00 + omega[..., 0, 1] * omega[..., 1, 0])
        ep, em = np.exp(t + mu), np.exp(t - mu)
        c = 0.5 * (ep + em)
        small = np.abs(mu) < _SINHC_SERIES
        mu2 = mu * mu
        sinhc = _SINHC_TAYLOR[-1]
        for coef in _SINHC_TAYLOR[-2::-1]:
            sinhc = sinhc * mu2 + coef
        s = np.where(small, np.exp(t) * sinhc,
                     (ep - em) / (2 * np.where(small, 1, mu)))
        out = np.empty(omega.shape, dtype=complex)
        out[..., 0, 0] = c + s * n00
        out[..., 1, 1] = c - s * n00
        out[..., 0, 1] = s * omega[..., 0, 1]
        out[..., 1, 0] = s * omega[..., 1, 0]
    return out


# Higham's [13/13] Pade coefficients b_0..b_13 and the 1-norm up to which
# the approximant is accurate to double precision (Higham, SIAM J. Matrix
# Anal. Appl. 26, 2005, Table 2.3)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _mul(a, b):
    """a @ b for d x d matrices or stacks of them that broadcast.  For d = 2
    the four entries are formed elementwise over the whole stack, and a
    single pair runs as a stack of one, so it rounds exactly as a stack row;
    larger d keeps @."""
    if a.shape[-1] != 2:
        with np.errstate(over="ignore", invalid="ignore"):
            return a @ b
    if a.ndim == 2 and b.ndim == 2:
        return _mul(a[None], b[None])[0]
    a00, a01, a10, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    b00, b01, b10, b11 = b[..., 0, 0], b[..., 0, 1], b[..., 1, 0], b[..., 1, 1]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape),
                   dtype=np.result_type(a, b))
    # overflow is an expected probe outcome on long spans, which callers
    # detect and bisect
    with np.errstate(over="ignore", invalid="ignore"):
        out[..., 0, 0] = a00 * b00 + a01 * b10
        out[..., 0, 1] = a00 * b01 + a01 * b11
        out[..., 1, 0] = a10 * b00 + a11 * b10
        out[..., 1, 1] = a10 * b01 + a11 * b11
    return out


def _expm_pade(a):
    """e^a for a stack of d x d matrices by the [13/13] Pade approximant
    with scaling and squaring, the number of squarings s chosen per entry
    (Higham, SIAM J. Matrix Anal. Appl. 26, 2005).

    The scalar part t = tr(a) / d commutes with the rest and is taken out
    first: n = a - t I is scaled by 2^-s for s = ceil(log2(||n||_1 /
    theta_13)), and e^{t / 2^s} is folded into the Pade value before the
    squarings, never as e^t times the result: under the rescale e^t can
    underflow while the squared part overflows."""
    d = a.shape[-1]
    eye = np.eye(d)
    b = _PADE13
    # overflow to inf is an expected probe outcome on long spans; callers
    # detect it and bisect
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.trace(a, axis1=-2, axis2=-1)[..., None, None] / d
        n = a - t * eye
        norm = np.linalg.norm(n, 1, axis=(-2, -1))
        s = np.ceil(np.log2(np.maximum(norm / _THETA13, 1))).astype(int)
        scale = np.exp2(-s)[..., None, None]
        n = n * scale
        n2 = n @ n
        n4 = n2 @ n2
        n6 = n4 @ n2
        u = n @ (n6 @ (b[13] * n6 + b[11] * n4 + b[9] * n2)
                 + b[7] * n6 + b[5] * n4 + b[3] * n2 + b[1] * eye)
        v = (n6 @ (b[12] * n6 + b[10] * n4 + b[8] * n2)
             + b[6] * n6 + b[4] * n4 + b[2] * n2 + b[0] * eye)
        r = np.linalg.solve(v - u, v + u) * np.exp(t * scale)
        for j in range(s.max(initial=0)):
            c = s > j      # entries still squaring
            r[c] = r[c] @ r[c]
    return r


def _expm(omega):
    """e^omega for a stack of d x d matrices: in closed form for d <= 2,
    by _expm_pade for larger d."""
    d = omega.shape[-1]
    if d == 2:
        return _expm2(omega)
    if d == 1:
        return np.exp(omega)
    return _expm_pade(omega)


def _diag(x, shape):
    """Complex diagonal matrices of the given (stack) shape, with diagonals
    x."""
    out = np.zeros(shape, dtype=complex)
    out.reshape(shape[:-2] + (shape[-1] ** 2,))[..., ::shape[-1] + 1] = x
    return out


def _matpow(t, k):
    """t**k for integer k (a matrix or a stack of them), by binary
    powering."""
    out = _diag(1, t.shape)
    base = t if k >= 0 else np.linalg.inv(t)
    n = abs(k)
    # overflow to inf is an expected probe outcome for large |k|; callers
    # detect it and bisect
    with np.errstate(over="ignore", invalid="ignore"):
        while n:
            if n & 1:
                out = out @ base
            base = base @ base
            n >>= 1
    return out


def segment_cuts(spec, a, b, piece, off, extra=()):
    """Cut points from a to b inside one segment of spec.segments: the ends,
    the piece's sample nodes strictly between them and any extra points,
    ordered from a to b, with B at each of them."""
    lo, hi = min(a, b), max(a, b)
    extra = np.asarray(extra, dtype=float)
    ts = np.concatenate([[a, b], extra[(extra > lo) & (extra < hi)]])
    if piece is None:
        d = 2 * spec.m
        vals = np.zeros((len(ts), d, d), dtype=complex)
    else:
        vals = piece.eval(ts - off)       # grid pieces clamp to their ends
    if piece is not None and piece.kind == "grid":
        inner = (piece.xs + off > lo) & (piece.xs + off < hi)
        ts = np.concatenate([ts, piece.xs[inner] + off])
        vals = np.concatenate([vals, piece.values[inner]])
    ts, idx = np.unique(ts, return_index=True)
    if b < a:
        return ts[::-1], vals[idx[::-1]]
    return ts, vals[idx]


def magnus_steps(ts, acoef):
    """Transfer of Y' = A(x) Y across each cell [ts[i], ts[i+1]] (either
    direction), for A linear on each cell and given at the cut points as the
    stack acoef, of shape (..., len(ts), d, d); leading axes (one per z, say)
    batch, and the result has shape (..., len(ts) - 1, d, d).

    Each fourth-order Magnus step takes Omega = h (A1 + A2) / 2
    + (sqrt(3) / 12) h^2 [A2, A1] at the two Gauss points, which for linear A
    equals h A(mid) + h^2 / 12 [A(t1), A(t0)] (Iserles & Norsett 1999;
    Blanes, Casas, Oteo & Ros 2009).  Its error is led by the h^5
    commutators [A, [A, [A, A']]] and [A', [A, A']], so a cell takes the
    fewest equal steps k with eta / k^5 <= _MAGNUS_ETA, where
    eta = a^3 b + a b^2 for a = h ||A(mid)|| and b = h ||A(t1) - A(t0)||,
    taken of the traceless parts.  Skew-Hermitian A gives unitary factors,
    Hamiltonian A symplectic ones.  The k steps of a cell share one
    commutator, [A(t1), A(t0)] / k for the cell's ends, taken once per cell.
    Each step's exponential is taken by _expm: in closed form for d <= 2
    (every m = 1 transfer and the m = 2 gauge factors), by the stacked Pade
    approximant for larger d; the products by _mul, elementwise for d = 2.
    """
    d = acoef.shape[-1]
    h = np.broadcast_to(np.diff(ts), acoef.shape[:-3] + (len(ts) - 1,))
    # the scalar part of A commutes with the rest and costs no accuracy
    scalar = np.trace(acoef, axis1=-2, axis2=-1)[..., None, None] / d
    free = acoef - scalar * np.eye(d)
    a = np.abs(h) * np.linalg.norm(
        0.5 * (free[..., :-1, :, :] + free[..., 1:, :, :]), axis=(-2, -1))
    b = np.abs(h) * np.linalg.norm(np.diff(free, axis=-3), axis=(-2, -1))
    k = np.ceil(((a ** 3 * b + a * b * b) / _MAGNUS_ETA) ** 0.2)
    k = np.maximum(k, 1).astype(int)
    a0, a1 = acoef[..., :-1, :, :], acoef[..., 1:, :, :]
    comm = (_mul(a1, a0) - _mul(a0, a1)) / k[..., None, None]
    out = np.empty(h.shape + (d, d), dtype=complex)
    for j in range(k.max(initial=0)):
        c = k > j          # cells still stepping
        kc = k[c][:, None, None]
        hs = h[c][:, None, None] / kc
        wm = (j + 0.5) / kc      # the step midpoint, interpolated exactly
        mid = (1 - wm) * a0[c] + wm * a1[c]
        omega = hs * mid + (hs * hs / 12.0) * comm[c]
        f = _expm(omega)
        out[c] = f if j == 0 else _mul(f, out[c])
    return out


class Propagator:
    """Transfer matrices for one spec at one z or at a 1-D array of z.  For
    an array of z every coefficient and transfer carries a leading z axis;
    a scalar z gives (2m, 2m) matrices.  A plain value of (z, spec): a
    transfer depends on its arguments only, and nothing is stored between
    calls.
    """

    def __init__(self, z, spec):
        self.z = complex(z) if np.ndim(z) == 0 else np.asarray(z, dtype=complex)
        self.spec = spec
        self.m = spec.m
        self._eye = _diag(1, np.shape(self.z) + (2 * self.m,) * 2)

    def _coefficient(self, b, scale):
        # the z axis, if any, leads the axes of b
        z = np.reshape(self.z, np.shape(self.z) + (1,) * np.ndim(b))
        acoef = system_matrix(z, b)
        if scale:
            acoef = acoef + 1j * scale * z * np.eye(2 * self.m)
        return acoef

    def _grid_transfer(self, piece, off, a, b, scale):
        """Ordered product of the Magnus factors of a grid piece on [a, b]."""
        ts, vals = segment_cuts(self.spec, a, b, piece, off)
        # cells go in aligned power-of-two chunks of at most
        # _CELL_BLOCK / (number of z) cells, each reduced to its subtree of
        # the one pairwise product over all cells
        cells = max(1, _CELL_BLOCK // np.size(self.z))
        chunk = 1 << (cells.bit_length() - 1)
        f = np.concatenate([self._pairwise(magnus_steps(
            ts[i:i + chunk + 1],
            self._coefficient(vals[i:i + chunk + 1], scale)))
            for i in range(0, len(ts) - 1, chunk)], axis=-3)
        return self._pairwise(f)[..., 0, :, :]

    def _pairwise(self, f):
        """Product of the factors along axis -3, later ones on the left,
        multiplied pairwise; the axis is kept, at length 1."""
        while f.shape[-3] > 1:
            if f.shape[-3] % 2:
                f = np.concatenate([f, self._eye[..., None, :, :]], axis=-3)
            f = _mul(f[..., 1::2, :, :], f[..., 0::2, :, :])
        return f

    def _walk(self, xa, xb, scale):
        """Product of piece transfers over [xa, xb] (no period powering);
        the exponentials of its constant pieces (zero B for piece None) are
        taken in one stacked call."""
        segs = self.spec.segments(min(xa, xb), max(xa, xb))
        if xb < xa:
            segs = [(b, a, p, off) for a, b, p, off in reversed(segs)]
        segs = [s for s in segs if abs(s[1] - s[0]) >= 1e-13]
        const = [p is None or p.kind == "constant" for _, _, p, _ in segs]
        zero = np.zeros((2 * self.m,) * 2)
        omegas = [self._coefficient(zero if p is None else p.value, scale)
                  * ((b - off) - (a - off))
                  for (a, b, p, off), c in zip(segs, const) if c]
        factors = iter(_expm(np.stack(omegas)) if omegas else ())
        t = self._eye.copy()
        for (a, b, piece, off), c in zip(segs, const):
            f = (next(factors) if c
                 else self._grid_transfer(piece, off, a, b, scale))
            t = _mul(f, t)
        return t

    def transfer(self, xa, xb, scale=0):
        """T(xb <- xa) with the rescale factor e^{i*scale*z*(xb - xa)} folded in."""
        if xa == xb:
            return self._eye.copy()
        spec = self.spec
        if spec.is_periodic and abs(xb - xa) > 2 * spec.period:
            w = spec.period
            span = xb - xa
            k = math.floor(span / w)
            r = span - k * w
            if abs(r) < 1e-12 * max(1.0, abs(span)):
                r = 0.0
            tk = _matpow(self._walk(xa, xa + w, scale), k)
            if not r:
                return tk
            # B(x + k*w) = B(x): the remainder T(xa+kw+r <- xa+kw) equals
            # T(xa+r <- xa)
            return _mul(self._walk(xa, xa + r, scale), tk)
        return self._walk(xa, xb, scale)


def fundamental_system(z, x, x0, alpha, spec):
    """Normalized fundamental system Psi(z, x, x0, alpha) = (Theta Phi).

    The initial value at x = x0 reproduces (alpha* Jalpha*) exactly.  Entries
    grow like e^{|Im z| |x - x0|}; callers probing that regime should work
    with M-function ratios instead (where rescaling applies).
    """
    psi0 = alpha.psi0()
    if x == x0:
        psi = psi0
    else:
        psi = Propagator(z, spec).transfer(x0, x) @ psi0
    m = alpha.m
    return FundamentalSystem(z=complex(z), x=float(x), x0=float(x0),
                             alpha=alpha, theta=psi[:, :m], phi=psi[:, m:])


@dataclass(frozen=True, eq=False)
class FundamentalSystem:
    """Value of the fundamental system at one (z, x)."""

    z: complex
    x: float
    x0: float
    alpha: object
    theta: np.ndarray
    phi: np.ndarray

    @property
    def psi(self):
        return np.hstack([self.theta, self.phi])


def symplectic_defect(fs_zbar, fs_z):
    """|| Psi(zbar, x)* J Psi(z, x) - J ||, an integration accuracy monitor.

    The two arguments must be evaluations at conjugate spectral parameters
    with identical x, x0 and boundary data.
    """
    if (fs_zbar.x != fs_z.x or fs_zbar.x0 != fs_z.x0
            or abs(np.conj(fs_zbar.z) - fs_z.z) > 0
            or not np.array_equal(fs_zbar.alpha.alpha, fs_z.alpha.alpha)):
        raise MismatchedEvaluation(
            "symplectic check needs conjugate z and identical (x, x0, alpha)")
    m = fs_z.alpha.m
    j = jmat(m)
    return matnorm(fs_zbar.psi.conj().T @ j @ fs_z.psi - j)


# ---------------------------------------------------------------------------
# Volterra route for compactly supported potentials
# ---------------------------------------------------------------------------

def _phase_weights(h, phi):
    """Integrals of e^{phi*s}*(1 - s/h) and e^{phi*s}*(s/h) over [0, h].

    Exact phase integration against a linear interpolant; series branch for
    small |phi*h| to dodge cancellation.
    """
    w = phi * h
    if abs(w) < 1e-5:
        c1 = h * (0.5 + w / 3.0 + w * w / 8.0)
        c0 = h * (0.5 + w / 6.0 + w * w / 24.0)
        return c0, c1
    e = np.exp(w)
    total = (e - 1.0) / phi
    c1 = e / phi - (e - 1.0) / (phi * phi * h)
    return total - c1, c1


def _p0_apply(x, m):
    """([[1, -i], [i, 1]] (x) I_m) applied to a stacked (…, 2m, m) array."""
    top, bot = x[..., :m, :], x[..., m:, :]
    return np.concatenate([top - 1j * bot, 1j * top + bot], axis=-2)


def _p1_apply(x, m):
    top, bot = x[..., :m, :], x[..., m:, :]
    return np.concatenate([top + 1j * bot, -1j * top + bot], axis=-2)


@dataclass(frozen=True, eq=False)
class WeylSolution:
    """Square-integrable (Weyl) solution at one x, tilde-normalized: equal to
    (seed) * e^{i z (x - x0)} beyond the support of B."""

    z: complex
    x: float
    x0: float
    u1: np.ndarray           # includes the exponential factor
    u2: np.ndarray
    v1: np.ndarray           # rescaled by e^{-i z (x - x0)}
    v2: np.ndarray
    iterations: int = 0
    last_diff: float = math.nan

    def weyl_m(self):
        """u2 u1^{-1}: the half-line M-function at base point x (alpha0)."""
        return self.v2 @ np.linalg.inv(self.v1)


def weyl_solution_volterra(z, x, x0, spec, alpha=None, tol=1e-12,
                           max_iter=200, points_per_unit=None):
    """Solve the rescaled Volterra equation for the decaying solution by
    successive approximation (product quadrature, exact in the oscillatory
    phase against a piecewise-linear integrand).

    Requires Im z > 0 and compactly supported B.  Geometric/factorial
    convergence in the iteration count; IterationDivergence when the budget
    is exhausted.
    """
    from scipy.signal import lfilter

    z = complex(z)
    if z.imag <= 0:
        raise DegenerateArguments("Volterra route needs Im z > 0")
    if spec.is_periodic or not spec.is_compactly_supported():
        raise NoCompactSupport("potential must have bounded support")
    m = spec.m
    if alpha is None:
        alpha = alpha_dirichlet(m)
    a1s = alpha.alpha1.conj().T
    a2s = alpha.alpha2.conj().T
    seed_top = a1s - 1j * a2s
    seed = np.vstack([seed_top, 1j * seed_top])      # value beyond the support

    lo_supp, y0 = spec.support()
    lo = min(x, x0, lo_supp)
    if x >= y0 - 1e-13:
        v = seed
        return _pack_weyl(z, x, x0, v, m, 0, 0.0)

    density = points_per_unit or max(4000.0, 800.0 * (1.0 + abs(z)))
    cuts = sorted({y0, x, x0, *(seg[0] for seg in spec.segments(lo, y0))})
    cuts = [c for c in cuts if lo <= c <= y0]
    segs = []
    for a, b in zip(cuts, cuts[1:]):
        if b - a < 1e-13:
            continue
        n = max(3, int(math.ceil((b - a) * density)) + 1)
        segs.append(np.linspace(a, b, n))

    j = jmat(m)
    jb = []   # J B at nodes, per segment; the last node takes the left limit
    for xs in segs:
        vals = spec.eval(xs, side=1)
        vals[-1] = spec.eval(xs[-1], side=-1)
        jb.append(j @ vals)

    phi = 2j * z
    seed_b = np.broadcast_to(seed, (1, 2 * m, m))
    vcur = [np.broadcast_to(seed, (len(xs), 2 * m, m)).copy() for xs in segs]
    norm0 = matnorm(seed)
    last_diff = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        vnew = []
        carry0 = np.zeros((2 * m, m), dtype=complex)
        carry1 = np.zeros((2 * m, m), dtype=complex)
        # walk segments right to left, accumulating the two suffix integrals
        for si in range(len(segs) - 1, -1, -1):
            xs = segs[si]
            h = xs[1] - xs[0]
            w = jb[si] @ vcur[si]                       # (n, 2m, m)
            n = len(xs)
            shape = w.shape[1:]
            flat = w.reshape(n, -1)
            # plain suffix integral (trapezoid)
            u0 = 0.5 * h * (flat[:-1] + flat[1:])
            i0 = np.concatenate([[carry0.ravel()], u0[::-1]]).cumsum(axis=0)[::-1]
            # phase-weighted suffix integral, AR(1) scan
            c0, c1 = _phase_weights(h, phi)
            r = np.exp(phi * h)
            u1 = c0 * flat[:-1] + c1 * flat[1:]
            seq = np.concatenate([[carry1.ravel()], u1[::-1]])
            y = lfilter([1.0], [1.0, -r], seq, axis=0)
            i1 = y[::-1]
            q = 0.5 * (_p0_apply(i0.reshape(n, *shape), m)
                       + _p1_apply(i1.reshape(n, *shape), m))
            vnew.insert(0, seed_b + q)
            carry0 = i0[0].reshape(shape)
            carry1 = i1[0].reshape(shape)
        diff = max(float(np.max(np.abs(a - b))) for a, b in zip(vnew, vcur))
        vcur = vnew
        if not math.isfinite(diff) or diff > 1e12 * (1.0 + norm0):
            raise IterationDivergence(
                f"successive approximations diverged at iteration {it}")
        last_diff = diff
        if diff < tol:
            break
    else:
        raise IterationDivergence(
            f"no convergence within {max_iter} iterations "
            f"(last difference {last_diff:.3e}); raise max_iter for large ||B||_1")

    # read off the value at x (x is a segment endpoint by construction)
    val = None
    for xs, vv in zip(segs, vcur):
        k = np.searchsorted(xs, x)
        if k < len(xs) and abs(xs[k] - x) < 1e-10:
            val = vv[k]
            break
        if k > 0 and abs(xs[k - 1] - x) < 1e-10:
            val = vv[k - 1]
            break
    if val is None:
        raise IntegrationFailure(f"evaluation point {x} missing from the grid")
    return _pack_weyl(z, x, x0, val, m, it, last_diff)


def _pack_weyl(z, x, x0, v, m, iterations, last_diff):
    ex = np.exp(1j * z * (x - x0))
    return WeylSolution(z=z, x=float(x), x0=float(x0),
                        u1=v[:m, :] * ex, u2=v[m:, :] * ex,
                        v1=v[:m, :].copy(), v2=v[m:, :].copy(),
                        iterations=iterations, last_diff=last_diff)
