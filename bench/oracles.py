"""Reference values for the benchmark's output checks.

Nothing here imports diracweyl: every oracle is written from the equations
in plain numpy, so none shares a code path (the Propagator, the Moebius
sweep, scipy's matrix functions) with the code it checks.

* bump_mplus: M_+ of a sampled-grid potential with a constant tail, by
  integrating the decaying solution backward with a fourth-order Magnus
  scheme (closed-form 2x2 exponentials) at two step sizes, Richardson
  extrapolated.
* upsilon_const_q: Upsilon of the constant off-diagonal coupling from the
  closed-form half-line M-functions.
* upsilon_floquet / floquet_multipliers: periodic piecewise-constant
  potentials through a monodromy built from scaling-and-squaring Taylor
  exponentials; half-line M from its decaying Floquet eigenvectors.
* gauge_reduction: the gauge factors by a fourth-order Magnus scheme with
  exact unitary steps, Richardson extrapolated.

Whole-line M-matrices go through an eigendecomposition logarithm.
"""

import math

import numpy as np

_SQRT3 = math.sqrt(3.0)
_GAUSS = (0.5 - _SQRT3 / 6.0, 0.5 + _SQRT3 / 6.0)


def jmat(m):
    j = np.zeros((2 * m, 2 * m), complex)
    j[:m, m:] = -np.eye(m)
    j[m:, :m] = np.eye(m)
    return j


def _coefficient(z, b):
    """A = -J (z I + B) of Psi' = A Psi, broadcast over leading axes."""
    d = b.shape[-1]
    z = np.asarray(z, complex)[..., None, None]
    return -jmat(d // 2) @ (z * np.eye(d) + b)


def _expm2(omega):
    """exp of stacked 2x2 matrices by Cayley-Hamilton."""
    t = 0.5 * (omega[..., 0, 0] + omega[..., 1, 1])
    n = omega - t[..., None, None] * np.eye(2)
    s = np.sqrt(-(n[..., 0, 0] * n[..., 1, 1] - n[..., 0, 1] * n[..., 1, 0]))
    small = np.abs(s) < 1e-8
    safe = np.where(small, 1.0, s)
    sinhc = np.where(small, 1.0 + s * s / 6.0, np.sinh(safe) / safe)
    out = np.cosh(s)[..., None, None] * np.eye(2) + sinhc[..., None, None] * n
    return np.exp(t)[..., None, None] * out


def _expm_taylor(a):
    """exp of stacked matrices by scaling and squaring of a degree-18
    Taylor polynomial (deliberately not the library's eigendecomposition,
    so agreement is not bit-identity)."""
    norm = np.max(np.sum(np.abs(a), axis=-2), axis=-1)
    squarings = int(max(0, math.ceil(math.log2(max(float(np.max(norm)), 1e-300) / 0.25))))
    x = a / 2.0 ** squarings
    out = np.broadcast_to(np.eye(a.shape[-1], dtype=complex), a.shape).copy()
    term = out.copy()
    for k in range(1, 19):
        term = term @ x / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def _magnus_omega(a1, a2, h):
    """Fourth-order Magnus exponent from the two Gauss-point values."""
    return 0.5 * h * (a1 + a2) + (_SQRT3 / 12.0) * h * h * (a2 @ a1 - a1 @ a2)


def _lerp(xs, vals, x):
    """Piecewise-linear interpolation of stacked samples at points x."""
    k = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(xs) - 2)
    t = ((x - xs[k]) / (xs[k + 1] - xs[k]))[:, None, None]
    return (1.0 - t) * vals[k] + t * vals[k + 1]


def _substeps(cuts, n):
    """Split each interval of ``cuts`` into n equal steps; returns
    (left ends, step lengths)."""
    frac = np.arange(n) / n
    h = np.diff(cuts)
    left = (cuts[:-1, None] + h[:, None] * frac).ravel()
    return left, np.repeat(h / n, n)


# ---------------------------------------------------------------------------
# halfline-bump
# ---------------------------------------------------------------------------

def _bump_weyl_x0(zs, xs, vals, tail, tail_lo, tail_hi, n):
    zs = np.asarray(zs, complex)
    # beyond the support B = 0: the decaying solution is (1, i) e^{izx};
    # the scalar factor cancels in M, so start from (1, i)
    u = np.broadcast_to(np.array([1.0, 1j]), (len(zs), 2)).copy()
    a_tail = _coefficient(zs, np.broadcast_to(tail, (len(zs), 2, 2)))
    u = np.einsum("zij,zj->zi", _expm2(-a_tail * (tail_hi - tail_lo)), u)
    left, h = _substeps(np.asarray(xs, float), n)
    steps = []
    for g in _GAUSS:
        bg = _lerp(xs, vals, left + g * h)                 # (s, 2, 2)
        steps.append(_coefficient(zs[:, None], bg[None]))  # (z, s, 2, 2)
    back = _expm2(-_magnus_omega(steps[0], steps[1], h[None, :, None, None]))
    for k in range(back.shape[1] - 1, -1, -1):
        u = np.einsum("zij,zj->zi", back[:, k], u)
        if k % 64 == 0:
            u /= np.max(np.abs(u), axis=1, keepdims=True)
    return u


def bump_mplus(zs, xs, vals, tail, tail_lo, tail_hi, n=4, with_error=False):
    """M_+(z, 0) with Dirichlet data for a grid piece on [xs[0], xs[-1]]
    followed by a constant piece on [tail_lo, tail_hi] and zero beyond.
    Requires Im z > 0 and xs[-1] == tail_lo."""
    est = []
    for k in (n, 2 * n):
        u = _bump_weyl_x0(zs, xs, vals, tail, tail_lo, tail_hi, k)
        est.append(u[:, 1] / u[:, 0])
    best = (16.0 * est[1] - est[0]) / 15.0
    if with_error:
        return best, np.abs(est[1] - est[0]) / 15.0
    return best


# ---------------------------------------------------------------------------
# Whole-line M and Upsilon
# ---------------------------------------------------------------------------

def whole_line(mp, mm):
    """Block M-matrix from stacked half-line values M_+ and M_-."""
    dinv = np.linalg.inv(mm - mp)
    ssum = 0.5 * (mm + mp)
    m22 = 0.5 * (mp @ dinv @ mm + mm @ dinv @ mp)
    return np.block([[dinv, dinv @ ssum], [ssum @ dinv, m22]])


def principal_log_eig(mat, cut_tol=1e-12):
    """Principal log of stacked diagonalizable matrices by eigendecomposition;
    eigenvalues on the negative axis within cut_tol take the upper side."""
    w, v = np.linalg.eig(mat)
    logw = np.log(w)
    on_cut = (w.real < 0) & (np.abs(w.imag) < cut_tol)
    logw = np.where(on_cut, np.log(np.abs(w)) + 1j * math.pi, logw)
    return (v * logw[..., None, :]) @ np.linalg.inv(v)


def _density(mat):
    lg = principal_log_eig(mat)
    y = (lg - np.conj(np.swapaxes(lg, -1, -2))) / (2j * math.pi)
    return 0.5 * (y + np.conj(np.swapaxes(y, -1, -2)))


def _richardson(fn, lams, eps):
    lams = np.asarray(lams, float)
    return 2.0 * fn(lams + 1j * eps) - fn(lams + 2j * eps)


def mpm_const_q(z, q):
    """Closed-form half-line M_+ and M_- for B = [[0, q], [q, 0]]."""
    s = np.sqrt(q * q - z * z)
    return -(q + s) / z, (s - q) / z


def upsilon_const_q(lams, eps, q):
    """Richardson-corrected Upsilon(lambda, 0) for constant coupling q."""
    def density(z):
        mp, mm = mpm_const_q(z, q)
        return _density(whole_line(mp[:, None, None], mm[:, None, None]))
    return _richardson(density, lams, eps)


def monodromy(zs, pieces):
    """One-period transfer T(x0 + period <- x0) for constant pieces
    [(x_lo, x_hi, B), ...] that tile one period, stacked over zs."""
    zs = np.asarray(zs, complex)
    d = pieces[0][2].shape[0]
    t = np.broadcast_to(np.eye(d, dtype=complex), (len(zs), d, d))
    for lo, hi, b in pieces:
        a = _coefficient(zs, np.broadcast_to(b, (len(zs), d, d)))
        t = _expm_taylor(a * (hi - lo)) @ t
    return t


def floquet_mpm(zs, pieces):
    """Half-line M_+ and M_- at x0 from the Floquet eigenvectors that decay
    toward +inf (|mu| < 1) and -inf (|mu| > 1); requires Im z != 0."""
    w, v = np.linalg.eig(monodromy(zs, pieces))
    m = w.shape[-1] // 2
    order = np.argsort(np.abs(w), axis=-1)
    out = []
    for cols in (order[:, :m], order[:, m:]):
        u = np.take_along_axis(v, cols[:, None, :], axis=-1)
        out.append(u[:, m:, :] @ np.linalg.inv(u[:, :m, :]))
    return out[0], out[1]


def upsilon_floquet(lams, eps, pieces):
    """Richardson-corrected Upsilon(lambda, x0) for a periodic potential."""
    def density(z):
        return _density(whole_line(*floquet_mpm(z, pieces)))
    return _richardson(density, lams, eps)


# ---------------------------------------------------------------------------
# bands
# ---------------------------------------------------------------------------

def floquet_multipliers(lams, pieces):
    return np.linalg.eigvals(monodromy(np.asarray(lams, complex), pieces))


def char_poly(roots):
    """Coefficients of prod_k (x - r_k) for stacked root sets (n, k)."""
    c = np.ones((roots.shape[0], 1), complex)
    for k in range(roots.shape[1]):
        r = roots[:, k:k + 1]
        c = np.concatenate([c, np.zeros_like(r)], axis=1) \
            - np.concatenate([np.zeros_like(r), c * r], axis=1)
    return c


def multiplier_rel_dev(got, want):
    """Worst row deviation of two stacked multiplier sets, compared through
    their characteristic polynomials: order-free, and well conditioned even
    where two multipliers meet at a band edge (the roots themselves move
    like sqrt(roundoff) there)."""
    cg, cw = char_poly(got), char_poly(want)
    return float(np.max(np.max(np.abs(cg - cw), axis=1)
                        / np.max(np.abs(cw), axis=1)))


def in_band_flags(mults, tol, period, margin=1e-7):
    """The library's in-band rule (every multiplier unimodular within
    tol * max(1, period)), and whether each flag is decided: a multiplier
    whose distance from the unit circle is within ``margin`` of the
    threshold could fall either way under roundoff."""
    eff = tol * max(1.0, period)
    dist = np.abs(np.abs(mults) - 1.0)
    flags = np.all(dist <= eff, axis=1)
    decided = np.all(np.abs(dist - eff) > margin, axis=1)
    return flags, decided


# ---------------------------------------------------------------------------
# gauge
# ---------------------------------------------------------------------------

def _gauge_generator(b, j):
    """(i/2) [(-1)^j (B11 + B22) + i (B12 - B21)] for stacked B (m=2)."""
    m = b.shape[-1] // 2
    sgn = -1.0 if j == 1 else 1.0
    g = (sgn * (b[..., :m, :m] + b[..., m:, m:])
         + 1j * (b[..., :m, m:] - b[..., m:, :m]))
    return 0.5j * g


def _unitary_step(omega):
    """exp(omega) for stacked skew-Hermitian omega via eigh of -i omega."""
    h = -1j * omega
    w, v = np.linalg.eigh(0.5 * (h + np.conj(np.swapaxes(h, -1, -2))))
    return (v * np.exp(1j * w)[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


def _gauge_factors(xs, vals, nodes, n):
    cuts = np.union1d(xs[(xs > nodes[0]) & (xs < nodes[-1])], nodes)
    left, h = _substeps(cuts, n)
    # step k ends where step k+1 starts; the last node ends the last step
    ends = np.searchsorted(left, nodes[1:]) - 1
    out = {}
    for j in (1, 2):
        gs = [_gauge_generator(_lerp(xs, vals, left + g * h), j) for g in _GAUSS]
        steps = _unitary_step(_magnus_omega(gs[0], gs[1], h[:, None, None]))
        u = np.eye(steps.shape[-1], dtype=complex)
        acc = np.empty((len(steps), *u.shape), complex)
        for k, s in enumerate(steps):
            u = s @ u
            acc[k] = u
        out[j] = np.concatenate([[np.eye(u.shape[0])], acc[ends]])
    return out[1], out[2]


def _reduced(xs, vals, nodes, n):
    u11, u22 = _gauge_factors(xs, vals, nodes, n)
    b = _lerp(xs, vals, nodes)
    m = b.shape[-1] // 2
    datum = ((b[:, :m, m:] + b[:, m:, :m])
             - 1j * (b[:, :m, :m] - b[:, m:, m:]))
    y = np.linalg.solve(u11, datum) @ u22
    yh = np.conj(np.swapaxes(y, -1, -2))
    return -0.5 * (y - yh) / 2j, 0.5 * (y + yh) / 2


def gauge_reduction(xs, vals, nodes, n=2):
    """Reduced normal-form blocks (B11~, B12~) at ``nodes`` for samples
    (xs, vals) with piecewise-linear interpolation, gauge factors started
    at U = I at nodes[0]."""
    xs = np.asarray(xs, float)
    nodes = np.asarray(nodes, float)
    coarse = _reduced(xs, vals, nodes, n)
    fine = _reduced(xs, vals, nodes, 2 * n)
    return tuple((16.0 * f - c) / 15.0 for c, f in zip(coarse, fine))
