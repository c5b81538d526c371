"""Propagation of the first-order system J Psi' = (z I + B(x)) Psi.

The workhorse is the Propagator class, which produces transfer matrices
T(xb <- xa) with an optional exponential rescale e^{i s z (xb - xa)} that
keeps entries bounded when |Im z| * |xb - xa| is large (the rescale cancels
in every M-function ratio).  Constant pieces propagate by one matrix
exponential per span (exact up to roundoff for any span): in closed form
for m = 1 (_expm2, a Taylor series with one exp below |mu| = 0.5) and
float64 m = 2 (_expm_ham), else by a stacked Pade approximant (_expm_pade);
sampled pieces take fourth-order Magnus steps between sample nodes, as many
per cell as its leading error term asks for (magnus_steps, shared with the
gauge reduction) in the affine form A(x) = L(x) + z K, L = -J B(x) from the
samples, K = -J + i s I: a cell's norms and commutators are formed once for
all z, entry-major, and each step's exponent in one pass per matrix entry
over contiguous per-(z, cell) scalars.  Periodic potentials reduce long
spans to binary powers of the one-period transfer.  Stacked 2x2 products go
entry by entry through _mul.  At a real-typed z on a potential with real
entries the coefficient -J (z I + B) is real, and the whole kernel runs in
float64; otherwise it runs in complex128.

The Volterra route (successive approximation of the integral equation for
the decaying Weyl solution of a compactly supported potential) lives here as
well; it is deliberately quadrature-based so it stays independent of the
transfer-matrix machinery and can serve as a cross-check oracle.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    IntegrationFailure,
    IterationDivergence,
    MismatchedEvaluation,
    NoCompactSupport,
)
from .foundation import alpha_dirichlet, jmat, matnorm, need

# per-step bound on the leading error term of the Magnus step (see
# magnus_steps); at 1e-10 the half-line M-function of a bump sampled at
# 21 to 401 nodes stays within 2e-11 of the Volterra route for |z| from 4
# to 3000
_MAGNUS_ETA = 1e-10

# (z, cell) pairs per magnus_steps batch of a grid piece: bounds the
# stacks' memory when many z share one Propagator.  magnus_steps traces
# about 210 B per pair at its peak (the first step's exponent and
# exponential), so a batch stays near 3.5 MB; at 16384 the 8 z x 1600
# cells of a densely sampled grid run as one batch and one product tree,
# where the per-call overhead, not the arithmetic, dominates
_CELL_BLOCK = 16384


def _minus_j(x):
    """-J x for a matrix or a stack of them: the signed block swap
    [x_lower; -x_upper]."""
    d = x.shape[-1]
    return np.concatenate([x[..., d // 2:, :], -x[..., :d // 2, :]], axis=-2)


def system_matrix(z, b):
    """Coefficient A(x) of Psi' = A Psi, i.e. J^{-1} (z I + B) = -J (z I + B);
    b may be a stack of matrices, and z an array that broadcasts against
    the stack."""
    b = np.asarray(b)
    return _minus_j(z * np.eye(b.shape[-1]) + b)


def auto_scale(z, xa, xb):
    """Rescale sign that damps the dominant exponential growth on [xa, xb]."""
    s = complex(z).imag * (xb - xa)
    if s == 0:
        return 0
    return 1 if s > 0 else -1


# 1 / (2k)! and 1 / (2k + 1)!, k = 0..8: cosh(mu) and sinh(mu) / mu to mu^16,
# truncated below 1e-21 and 1e-22 for |mu| < _SINHC_SERIES
_COSH_TAYLOR = tuple(1.0 / math.factorial(2 * k) for k in range(9))
_SINHC_TAYLOR = tuple(1.0 / math.factorial(2 * k + 1) for k in range(9))
_SINHC_SERIES = 0.5


def _horner(u, coefs):
    """sum_k coefs[k] u^k, each sum taken in place; each product is a new
    array (see _expm2)."""
    acc = coefs[-1]
    for coef in coefs[-2::-1]:
        acc = acc * u
        acc += coef
    return acc


def _taylor_or(x, limit, coefs, direct):
    """sum_k coefs[k] x^(2k) below |x| = limit, direct(mask) elsewhere."""
    out = np.empty_like(x)
    small = np.abs(x) < limit
    out[small] = _horner(x[small] * x[small], coefs)
    out[~small] = direct(~small)
    return out


def _expm2(omega, overwrite=False):
    """e^omega for a 2x2 matrix or a stack of them, in closed form
    (Cayley-Hamilton; Moler & Van Loan, SIAM Rev. 45, 2003).

    With t = tr(omega) / 2, n = omega - t I and u = mu^2 = n00^2 + n01 n10,
    e^omega = c I + s n for c = e^t cosh(mu) and s = e^t sinh(mu) / mu,
    both even in mu.  Below |mu| = 0.5 they are e^t times their Taylor
    series in u, with no square root and exact through a Jordan block;
    elsewhere of e^{t +- mu}, mu complex (_exp_sum), never e^t cosh(mu):
    under the rescale e^t can underflow while cosh(mu) overflows.  Each
    entry forms only its branch; a real omega gives a real result, a view
    of an entry-major array, or with overwrite omega itself, the result
    written over it.  A single matrix runs as a stack of one."""
    if omega.ndim == 2:
        return _expm2(omega[None], overwrite)[0]
    o00, o01, o10, o11 = (omega[..., i, j] for i, j in np.ndindex(2, 2))
    t = 0.5 * (o00 + o11)
    n00 = o00 - t
    c, s = np.empty_like(t), np.empty_like(t)
    # overflow to inf is an expected probe outcome on long spans; callers
    # detect it and bisect
    with np.errstate(over="ignore", invalid="ignore"):
        u = n00 * n00 + o01 * o10
        small = np.abs(u) < _SINHC_SERIES ** 2
        # a branch runs only if an entry takes it, on views if all do
        if small.any():
            # if all do, e^t goes over t and e^t times each series into c, s
            sel = ... if small.all() else small
            whole = sel is ...
            et = np.exp(t[sel], out=t if whole else None)
            for dst, coefs in ((c, _COSH_TAYLOR), (s, _SINHC_TAYLOR)):
                dst[sel] = np.multiply(et, _horner(u[sel], coefs),
                                       out=dst if whole else None)
            del et
        if not small.all():
            sel = ... if not small.any() else ~small
            mu = np.sqrt(u[sel].astype(complex, copy=False))
            ep, em = _exp_sum(t[sel], mu), _exp_sum(t[sel], -mu)
            c[sel], s[sel] = (x if np.iscomplexobj(u) else x.real for x in (
                0.5 * (ep + em), (ep - em) / (2 * mu)))
        out = omega if overwrite else np.moveaxis(
            np.empty((2, 2) + c.shape, dtype=c.dtype), (0, 1), (-2, -1))
        # no complex product is written over one of its operands: at length
        # 1 NumPy then takes a scalar loop, which rounds differently from
        # the vector loop of a longer stack
        sn = np.multiply(s, n00, out=t)
        np.add(c, sn, out=out[..., 0, 0])
        np.subtract(c, sn, out=out[..., 1, 1])
        out[..., 0, 1] = np.multiply(s, o01, out=c)
        out[..., 1, 0] = np.multiply(s, o10, out=n00)
    return out


def _exp_sum(a, b):
    """e^(a + b) as e^s (1 + r), s = fl(a + b) with rounding error r
    (TwoSum; Knuth, TAOCP 2): e^s alone errs by |a| eps, 400 at |a| = 700."""
    s = a + b
    bb = s - a
    return np.exp(s) * (1 + ((a - (s - bb)) + (b - bb)))


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


def _expm(omega, overwrite=False):
    """e^omega for a stack of d x d matrices: in closed form for d <= 2,
    by _expm_pade for larger d (see _expm_ham for real Hamiltonian 4x4).
    With overwrite a 2x2 stack takes its result over omega (_expm2)."""
    d = omega.shape[-1]
    if d == 2:
        return _expm2(omega, overwrite)
    if d == 1:
        return np.exp(omega)
    return _expm_pade(omega)


# x^2 series of (sinhc x - 1) / x^2 and (cosh x - sinhc x) / x^2, |x| < 1
_SINHC1_TAYLOR = tuple(1.0 / math.factorial(2 * k + 3) for k in range(10))
_COSHC_TAYLOR = tuple((2 * k + 2) * c for k, c in enumerate(_SINHC1_TAYLOR))


def _expm_ham(x, y, lam):
    """e^(X + lam Y) for stacks of real 4x4 Hamiltonian X and Y with Y^2 a
    multiple of I, at each real lam of a 1-D array: (len(x), len(lam), 4, 4).

    n^2 = tau I + N0 with N0 = P + lam Q (P, Q the traceless parts of X^2 and
    XY + YX) and N0^2 = D I, so e^n = c_e I + c_o N0 + s_e n + s_o N0 n
    (Cayley-Hamilton; Moler & Van Loan, SIAM Rev. 45, 2003): c_e, c_o are
    the mean and divided difference of cosh(sqrt(w)) at w = r1^2, r2^2,
    r1,2 = sqrt(tau +- sqrt(D)), and s_e, s_o those of sinhc(sqrt(w)).  All
    four are functions of sigma, delta = (r1 +- r2) / 2 (r2 negated to make
    |delta| <= |sigma|) that do not cancel; s_o divides by 1 - (delta /
    sigma)^2 or, near r2 = 0, by r1^2 - r2^2.

    The lam-free work (the products X^2, XY + YX, P, Q, PX, PY + QX and QY,
    and the traces giving tau and D as quadratics in lam) is done once per
    call, so a caller with many lam pays it once per stack it passes.  Per
    lam only scalars and an elementwise sum are formed, so a row rounds
    exactly as a stack of one.  The sum goes lam-major into the result,
    (pieces, lam, 16): odd = se (X + lam Y) + so (PX + lam (PY + QX + lam
    QY)) in place, then even = co (P + lam Q) + ce I in one reused
    temporary; each complex scalar intermediate is dropped once used."""
    sq = np.stack([x @ x, x @ y + y @ x, y @ y])
    t = np.trace(sq, axis1=-2, axis2=-1)[..., None] / 4
    p, q = sq[:2] - t[:2, ..., None] * np.eye(4)
    d = np.trace(np.stack([p @ p, 2 * (p @ q), q @ q]),
                 axis1=-2, axis2=-1)[..., None] / 4
    # the matrices go by entry, with lambda ahead: (pieces, 1, 16)
    p, q, x, y, px, pyqx, qy = (a.reshape(-1, 1, 16) for a in (
        p, q, x, y, p @ x, p @ y + q @ x, q @ y))
    # overflow to inf is an expected probe outcome that callers detect
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        tau = t[0] + lam * (t[1] + lam * t[2])
        root = np.sqrt((d[0] + lam * (d[1] + lam * d[2])).astype(complex))
        r1, r2 = np.sqrt(tau + root), np.sqrt(tau - root)
        r2 = np.where(r1.real * r2.real + r1.imag * r2.imag < 0, -r2, r2)
        sig, dlt = 0.5 * (r1 + r2), 0.5 * (r1 - r2)
        del tau, root, r1, r2
        r = np.stack([sig, dlt, sig + dlt, sig - dlt])       # and r1, r2
        e = np.exp(r[:2])
        ex = np.concatenate([e, [e[0] * e[1], e[0] / e[1]]])
        ch = 0.5 * (ex + (inv := 1 / ex))
        ex -= inv
        del e, inv
        ex /= 2 * r         # sinhc(r), used where |r| >= _SINHC_SERIES
        sh = _taylor_or(r, _SINHC_SERIES, _SINHC_TAYLOR, lambda c: ex[c])
        del ex
        ratio = dlt / np.where(sig == 0, 1, sig)
        near = np.abs(ratio) <= 0.5
        so = np.empty_like(sig)
        u, v, q2 = r[:2, near], ch[:2, near] - sh[:2, near], ratio[near] ** 2
        f = _taylor_or(u, 1, _COSHC_TAYLOR, lambda c: v[c] / u[c] ** 2)
        so[near] = (f[0] * sh[1, near] - q2 * f[1] * sh[0, near]) / (
            2 - 2 * q2)
        u, v = r[2:, ~near], sh[2:, ~near] - 1
        g = u * u * _taylor_or(u, 1, _SINHC1_TAYLOR,
                               lambda c: v[c] / u[c] ** 2)
        so[~near] = (g[0] - g[1]) / (4 * sig[~near] * dlt[~near])
        ce, co, se, so = (c.real[..., None] for c in (
            ch[0] * ch[1], 0.5 * sh[0] * sh[1], 0.5 * (sh[2] + sh[3]), so))
        del ch, sh, r, sig, dlt, ratio, u, v, f, g, q2
        lam = lam[:, None]
        out = lam * qy
        out += pyqx
        out *= lam
        out += px
        out *= so
        tmp = np.multiply(lam, y, out=np.empty_like(out))
        tmp += x
        tmp *= se
        out += tmp
        np.multiply(lam, q, out=tmp)
        tmp += p
        tmp *= co
        tmp[..., ::5] += ce
        out += tmp
    return out.reshape(out.shape[:2] + (4, 4))


def _diag(x, shape, dtype):
    """Diagonal matrices of the given (stack) shape and dtype, with
    diagonals x."""
    out = np.zeros(shape, dtype=dtype)
    out.reshape(shape[:-2] + (shape[-1] ** 2,))[..., ::shape[-1] + 1] = x
    return out


def _matpow(t, k):
    """t**k for integer k (a matrix or a stack of them), by binary
    powering."""
    out = _diag(1, t.shape, t.dtype)
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


def _frob2(x):
    """Squared Frobenius norms over the last two axes, summed as
    np.linalg.norm sums them, so that their square roots are its norms bit
    for bit."""
    return np.add.reduce((x.conj() * x).real, axis=(-2, -1))


def magnus_steps(ts, lcoef, z=None, kcoef=None):
    """Transfer of Y' = A(x) Y across each cell [ts[i], ts[i+1]] (either
    direction), for A = L(x) + z K: L linear on each cell and given at the
    cut points as the stack lcoef, of shape (..., len(ts), d, d), and K one
    constant d x d matrix kcoef.  Without z, A = L and the leading axes of
    lcoef batch: the result has shape (..., len(ts) - 1, d, d).  With z (a
    scalar or a 1-D array) the result has shape
    np.shape(z) + (len(ts) - 1, d, d).

    Each fourth-order Magnus step takes Omega = h (A1 + A2) / 2
    + (sqrt(3) / 12) h^2 [A2, A1] at the two Gauss points, which for linear A
    equals h A(mid) + h^2 / 12 [A(t1), A(t0)] (Iserles & Norsett 1999;
    Blanes, Casas, Oteo & Ros 2009).  Its error is led by the h^5
    commutators [A, [A, [A, A']]] and [A', [A, A']], so a cell takes the
    fewest equal steps k with eta / k^5 <= _MAGNUS_ETA, where
    eta = a^3 b + a b^2 for a = h ||A(mid)|| and b = h ||A(t1) - A(t0)||,
    taken of the traceless parts.  Skew-Hermitian A gives unitary factors,
    Hamiltonian A symplectic ones.  The k steps of a cell share one
    commutator, [A(t1), A(t0)] / k for the cell's ends.

    The affine form leaves little work per z.  Once per call, for all z:
    the traceless parts (subscript f); b, since K is constant and
    A(t1) - A(t0) = dL = L(t1) - L(t0); ||L_f(mid)||^2 and <K_f, L_f(mid)>,
    so a^2 = h^2 (||L_f||^2 + 2 Re(conj(z) <K_f, L_f>) + |z|^2 ||K_f||^2),
    clamped at 0 against rounding; and, entry-major (d, d, ..., cells), the
    terms L0 = L(t0), L1 = L(t1), C = [L1, L0], K and D = [K, dL], with
    [A(t1), A(t0)] = C - z D.  Step j of k, of length hs = h / k, forms
    Omega = hs ((1 - wm) L0 + wm L1 + z K) + (hs^2 / 12) (C - z D) / k,
    wm = (j + 1/2) / k, in one pass per matrix entry over contiguous hs,
    wm, k and z; _expm takes its exponential, _mul the product.  A step
    count not finite or beyond int64 raises IntegrationFailure first.
    """
    d = lcoef.shape[-1]
    eye = np.eye(d)
    h = np.diff(ts)
    # the scalar part of A commutes with the rest and costs no accuracy
    free = lcoef - (np.trace(lcoef, axis1=-2, axis2=-1)[..., None, None]
                    / d) * eye
    mid = 0.5 * (free[..., :-1, :, :] + free[..., 1:, :, :])
    a2 = _frob2(mid)
    dfree = np.diff(free, axis=-3)
    b = np.abs(h) * np.sqrt(_frob2(dfree))
    with np.errstate(over="ignore", invalid="ignore"):
        if z is not None:
            kfree = kcoef - (np.trace(kcoef) / d) * eye
            kfree = kfree if kfree.imag.any() else kfree.real  # no i s I
            cross = np.add.reduce(kfree.conj() * mid, axis=(-2, -1))
            z = np.reshape(z, np.shape(z) + (1,))      # the z axis, then cells
            a2 = np.maximum(
                a2 + 2 * (z.real * cross.real + z.imag * cross.imag)
                + (z.real * z.real + z.imag * z.imag) * _frob2(kfree), 0)
        a = np.abs(h) * np.sqrt(a2)
        k = np.ceil(((a ** 3 * b + a * b * b) / _MAGNUS_ETA) ** 0.2)
    del a, a2
    if not np.all(k < 2.0 ** 63):      # NaN (from an overflow) fails it too
        raise IntegrationFailure("Magnus step count not finite or beyond "
                                 "int64: |z| h is too large for the grid")
    k = np.maximum(k, 1).astype(int)
    lcoef = np.ascontiguousarray(np.moveaxis(lcoef, (-2, -1), (0, 1)))
    l0, l1 = lcoef[..., :-1], lcoef[..., 1:]
    terms = [l0, l1, _commutator(l1, l0)]
    if z is not None:       # then lcoef has no batch axes
        terms += [np.broadcast_to(kcoef[..., None], l0.shape), _commutator(
            kfree[..., None],
            np.ascontiguousarray(np.moveaxis(dfree, (-2, -1), (0, 1))))]
        z = np.broadcast_to(z, k.shape)

    def exponent(j, c):
        """Omega of step j, entry-major, at the cells c (() for all)."""
        kc, tc = k[c], c if z is None else c[-1:]    # terms lack the z axis
        hs = h[c[-1:]] / kc
        wm = (j + 0.5) / kc      # the step midpoint, interpolated exactly
        coefs = [hs * (1 - wm), hs * wm, hs * hs / (12.0 * kc)]
        if z is not None:
            coefs += [hs * z[c], -coefs[2] * z[c]]
        omega = np.empty((d, d) + kc.shape,
                         dtype=np.result_type(*coefs, *terms))
        for p, q in np.ndindex(d, d):
            acc = omega[p, q]
            np.multiply(coefs[0], terms[0][p, q][tc], out=acc)
            for coef, x in zip(coefs[1:], terms[1:]):
                acc += coef * x[p, q][tc]
        return np.moveaxis(omega, (0, 1), (-2, -1))

    # every cell takes its first step, so that one runs on the whole stack;
    # each exponential is taken over its exponent's buffer
    out = _expm(exponent(0, ()), overwrite=True)
    for j in range(1, k.max(initial=0)):
        c = np.nonzero(k > j)          # cells still stepping
        out[c] = _mul(_expm(exponent(j, c), overwrite=True), out[c])
    return out


def _commutator(a, b):
    """ab - ba for entry-major (d, d, ...) stacks that broadcast."""
    return (np.add.reduce(a[:, :, None] * b[None], axis=1)
            - np.add.reduce(b[:, :, None] * a[None], axis=1))


def _prefix(f):
    """Ordered products along axis -3, later factors on the left, in place:
    entry k becomes f[k] ... f[0].  Work-efficient scan (Blelloch,
    CMU-CS-90-190, 1990): 2 log2(n) stacked _mul calls."""
    if f.shape[-3] > 1:
        f[..., 1::2, :, :] = _mul(f[..., 1::2, :, :], f[..., :-1:2, :, :])
        _prefix(f[..., 1::2, :, :])
        f[..., 2::2, :, :] = _mul(f[..., 2::2, :, :], f[..., 1:-1:2, :, :])
    return f


class Propagator:
    """Transfer matrices for one spec at one z or at a 1-D array of z.  For
    an array of z every coefficient and transfer carries a leading z axis;
    a scalar z gives (2m, 2m) matrices.  A plain value of (z, spec): a
    transfer depends on its arguments only, and nothing is stored between
    calls.

    The arithmetic follows the dtype of z, not its value: a real-typed z
    (a Python float or a float array) on a spec whose pieces are all real
    (spec.is_real) computes in float64, and self.z and the transfers are
    real unless a rescale (scale != 0) makes the coefficient complex.
    Every other z, a complex-typed one with zero imaginary part included,
    computes in complex128, so a stack row equals its stack-of-one result
    bit for bit.
    """

    def __init__(self, z, spec):
        dtype = complex if np.iscomplexobj(z) or not spec.is_real else float
        self.z = dtype(z) if np.ndim(z) == 0 else np.asarray(z, dtype=dtype)
        self.spec = spec
        self.m = spec.m
        self._eye = _diag(1, np.shape(self.z) + (2 * self.m,) * 2, dtype)

    def _coefficient(self, b, scale):
        """The coefficient -J (z I + B) + i scale z I of Psi' = A Psi at the
        samples b, split as A = L + z K: L = -J B holds the samples (real on
        a real spec) and K = -J + i scale I is one constant matrix."""
        if self.spec.is_real:
            b = b.real
        eye = np.eye(2 * self.m)
        kcoef = _minus_j(eye)
        if scale:
            kcoef = kcoef + 1j * scale * eye
        return _minus_j(b), kcoef

    def _grid_transfer(self, piece, off, a, b, scale):
        """Ordered product of the Magnus factors of a grid piece on [a, b]."""
        ts, vals = segment_cuts(self.spec, a, b, piece, off)
        # cells go in aligned power-of-two chunks of at most
        # _CELL_BLOCK / (number of z) cells, each reduced to its subtree of
        # the one pairwise product over all cells
        cells = max(1, _CELL_BLOCK // np.size(self.z))
        chunk = 1 << (cells.bit_length() - 1)
        lcoef, kcoef = self._coefficient(vals, scale)
        f = np.concatenate([self._pairwise(magnus_steps(
            ts[i:i + chunk + 1], lcoef[i:i + chunk + 1], self.z, kcoef))
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
        """Product of piece transfers over [xa, xb] (no period powering),
        started from the first piece's factor itself (the identity if no
        piece is left); the exponentials of its constant pieces (zero B for
        piece None) are taken in one stacked call per kind, _expm_ham or
        _expm."""
        segs = self.spec.segments(min(xa, xb), max(xa, xb))
        if xb < xa:
            segs = [(b, a, p, off) for a, b, p, off in reversed(segs)]
        segs = [s for s in segs if abs(s[1] - s[0]) >= 1e-13]
        zero = np.zeros((2 * self.m,) * 2)
        # the z axis, if any, leads the matrix axes
        z = np.reshape(self.z, np.shape(self.z) + (1, 1))
        ham = self.m == 2 and not np.iscomplexobj(self.z) and not scale
        kinds, groups = [], ([], [])      # Pade exponents; (X, Y) pairs
        for a, b, p, off in segs:
            kinds.append(None)
            if p is None or p.kind == "constant":
                v = zero if p is None else p.value
                lcoef, kcoef = self._coefficient(v, scale)
                h = (b - off) - (a - off)
                kinds[-1] = int(ham and np.array_equal(v, v.T))
                groups[kinds[-1]].append((lcoef * h, kcoef * h) if kinds[-1]
                                         else (lcoef + z * kcoef) * h)
        pade, hams = groups
        # a scalar z runs through _expm_ham as a stack of one
        factors = (iter(_expm(np.stack(pade)) if pade else ()), iter(
            _expm_ham(*map(np.stack, zip(*hams)), np.reshape(self.z, -1))
            .reshape((len(hams),) + self._eye.shape) if hams else ()))
        t = None
        for (a, b, piece, off), kind in zip(segs, kinds):
            f = (self._grid_transfer(piece, off, a, b, scale) if kind is None
                 else next(factors[kind]))
            t = f if t is None else _mul(f, t)
        return self._eye.copy() if t is None else t

    def transfer(self, xa, xb, scale=0):
        """T(xb <- xa) with the rescale factor e^{i*scale*z*(xb - xa)} folded in."""
        if xa == xb:
            return self._eye.copy()
        spec = self.spec
        if spec.is_periodic and abs(xb - xa) > 2 * spec.period:
            w = spec.period
            span = xb - xa
            # k rounds toward zero: r keeps the span's sign, xb is not passed
            k = math.trunc(span / w)
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
    need(np.isfinite([z, x, x0]).all() and z.imag > 0, "Volterra route",
         "finite x, x0 and z with Im z > 0", f"z = {z}, x = {x}, x0 = {x0}")
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
