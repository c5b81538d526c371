"""Regular-interval M-functions, the Weyl disk functional, membership
classification, and the limit-point half-line M-function.

For Im z != 0 exactly m solutions decay toward each end (Hinton & Shaw,
J. Differential Equations 40, 1981), and the half-line M is read off the
subspace they span, with no truncation radius: for a periodic spec the
dominant invariant subspace of the period transfer toward the other side,
for a constant tail the stable subspace of its system matrix.  Its
orthonormal basis is the leading Schur vectors, built from LAPACK
eigenvectors by unitary deflation (Golub & Van Loan, 7.6).  From the
tail's inner edge the subspace is carried to x0 in the Cayley chart
theta = (u1 + i*sigma*u2)(u1 - i*sigma*u2)^{-1}, which stays in the closed
unit ball; segments are split until each Moebius factor is finite and well
conditioned, and the backward flow contracts earlier roundoff.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateArguments,
    EigenvalueHit,
    IntegrationFailure,
    NoConvergence,
    SingularDenominator,
)
from .foundation import (
    COND_LIMIT,
    hermitize,
    inv_cond,
    jmat,
    matnorm,
    sigma,
)
from .propagator import Propagator, auto_scale, system_matrix

_MOBIUS_COND = 3e6      # split segments above this factor condition
_MIN_SEG = 1e-9
_EPS = np.finfo(float).eps


def regular_m(z, c, x0, alpha, beta, spec):
    """M-function of the regular problem on [x0, c] with boundary data
    (alpha at x0, beta = (beta1, beta2) at c), the pair of m x m blocks of
    beta: -[beta Phi(z,c)]^{-1} [beta Theta(z,c)].

    Raises EigenvalueHit when beta Phi is singular within the condition
    budget, which happens exactly when z is an eigenvalue of the regular
    self-adjoint problem.
    """
    if c == x0:
        raise DegenerateArguments("regular M needs c != x0")
    z = complex(z)
    b1, b2 = (np.atleast_2d(np.asarray(b, complex)) for b in beta)
    t = Propagator(z, spec).transfer(x0, c, scale=auto_scale(z, x0, c))
    psi = t @ alpha.psi0()
    m = alpha.m
    theta, phi = psi[:, :m], psi[:, m:]
    bphi = b1 @ phi[:m] + b2 @ phi[m:]
    btheta = b1 @ theta[:m] + b2 @ theta[m:]
    cond = inv_cond(bphi, matnorm(np.hstack([b1, b2])) * matnorm(phi))
    if cond > COND_LIMIT:
        raise EigenvalueHit(
            f"beta Phi(z, c={c}) is singular (cond {cond:.2e}): "
            "z is an eigenvalue of the regular boundary value problem",
            cond=cond)
    return -np.linalg.solve(bphi, btheta)


def e_c(mat, z, c, x0, alpha, spec):
    """Disk functional E_c(M) = sigma(x0,c,z) U(z,c)* (iJ) U(z,c), Hermitian.

    Nonpositive exactly on the Weyl disk at c; zero on the circle.  It grows
    like e^{2 |Im z| |c - x0|}, and IntegrationFailure is raised where it
    leaves the float range.
    """
    z = complex(z)
    sig = sigma(x0, c, z)
    m = alpha.m
    col = np.vstack([np.eye(m), np.asarray(mat, complex)])
    with np.errstate(over="ignore", invalid="ignore"):
        u = (Propagator(z, spec).transfer(x0, c) @ alpha.psi0()) @ col
        e = hermitize(sig * (u.conj().T @ (1j * jmat(m)) @ u))
    if not np.isfinite(e).all():
        raise IntegrationFailure(
            f"E_c at z = {z}, c = {c} is not finite: the solutions grow "
            f"like e^(|Im z| |c - x0|) = e^{abs(z.imag * (c - x0)):.4g}")
    return e


@dataclass(frozen=True, eq=False)
class WeylPoint:
    """A candidate M with its classification against the disk at c."""

    M: np.ndarray
    z: complex
    c: float
    x0: float
    classification: str      # "interior" | "boundary" | "exterior"
    e_c_value: np.ndarray


def disk_membership(mat, z, c, x0, alpha, spec, tol=1e-8):
    """Classify M against the Weyl disk at c by the sign of lambda_max(E_c).

    The tolerance is scale-aware: tol * (1 + ||E_c||).
    """
    e = e_c(mat, z, c, x0, alpha, spec)
    lam_max = float(np.linalg.eigvalsh(e)[-1])
    eff = tol * (1.0 + matnorm(e))
    if lam_max > eff:
        cls = "exterior"
    elif lam_max < -eff:
        cls = "interior"
    else:
        cls = "boundary"
    return WeylPoint(M=np.asarray(mat, complex), z=complex(z), c=float(c),
                     x0=float(x0), classification=cls, e_c_value=e)


# ---------------------------------------------------------------------------
# Half-line M from the decaying subspace of the tail
# ---------------------------------------------------------------------------

def _cayley_frame(sig, m):
    eye = np.eye(m)
    c = np.block([[eye, 1j * sig * eye], [eye, -1j * sig * eye]])
    cinv = 0.5 * np.block([[eye, eye], [-1j * sig * eye, 1j * sig * eye]])
    return c, cinv


def _right_solve(num, den):
    """num den^{-1} for matrices or stacks of them."""
    return np.linalg.solve(den.mT, num.mT).mT


def _mobius_across(prop, a, b, theta, frame, scale, depth=0):
    """Carry the stack theta from a to b through the Moebius factors
    S = C T(b <- a) C^{-1} of the stacked Propagator prop, bisecting the
    interval for the entries whose factor is not finite or not well
    conditioned (only they recurse, on a Propagator of their z); returns
    theta at b and each entry's worst accepted kappa."""
    t = prop.transfer(a, b, scale=scale)
    m = theta.shape[-1]
    kappa = np.full(len(t), math.inf)
    out = np.empty_like(theta)
    fin = np.flatnonzero(np.all(np.isfinite(t), axis=(-2, -1)))
    if len(fin):
        c, cinv = frame
        s = c @ t[fin] @ cinv
        num = s[:, :m, :m] @ theta[fin] + s[:, :m, m:]
        den = s[:, m:, :m] @ theta[fin] + s[:, m:, m:]
        kappa[fin] = inv_cond(den, matnorm(s))
        good = kappa[fin] <= _MOBIUS_COND
        if good.any():
            out[fin[good]] = _right_solve(num[good], den[good])
    bad = kappa > _MOBIUS_COND
    if bad.any():
        if abs(b - a) < _MIN_SEG or depth > 80:
            raise IntegrationFailure(
                f"Moebius factor on [{a}, {b}] stayed ill-conditioned")
        sub = prop if bad.all() else Propagator(prop.z[bad], prop.spec)
        mid = 0.5 * (a + b)
        th, k1 = _mobius_across(sub, a, mid, theta[bad], frame, scale,
                                depth + 1)
        out[bad], k2 = _mobius_across(sub, mid, b, th, frame, scale,
                                      depth + 1)
        kappa[bad] = np.maximum(k1, k2)
    return out, kappa


def _invariant_subspace(mat, m, sort=None):
    """Orthonormal basis of the m-dimensional invariant subspace of mat
    whose eigenvalues ``sort`` selects ("lhp" or "rhp" for the open half
    planes; None keeps the m of largest modulus), with ||mat|| / gap, its
    first-order sensitivity (Stewart & Sun, ch. V); gap is the smallest
    distance between a kept and a rejected eigenvalue.  mat may be a stack
    (one basis and sensitivity per entry); a single matrix runs as a stack
    of one.

    The basis is the leading m Schur vectors, built by unitary deflation
    (Golub & Van Loan, 7.6): an eigenvector x of a kept eigenvalue of the
    trailing block is mapped to e1 by a Householder reflector h, and the
    block deflates to (h t h)[1:, 1:].  zgeev takes x from its own Schur
    form, so x stays accurate to eps ||mat|| / gap even inside a nearly
    defective kept pair; null vectors of t - mu I or a QR of the kept
    eigenvectors would not."""
    if mat.ndim == 2:
        q, sens = _invariant_subspace(mat[None], m, sort)
        return q[0], sens[0]
    if not np.all(np.isfinite(mat)):
        raise NoConvergence("tail generator is not finite")
    ev, vec = np.linalg.eig(mat)
    if sort is None:
        score = np.abs
        mods = np.sort(score(ev), axis=-1)
        edge = np.sqrt(mods[:, -m]) * np.sqrt(mods[:, -m - 1])
    else:
        sgn = -1.0 if sort == "lhp" else 1.0
        score = lambda mu: sgn * mu.real      # noqa: E731
        edge = np.zeros(len(ev))
    keep = score(ev) > edge[:, None]
    dim = np.count_nonzero(keep, axis=-1)
    if np.any(dim != m):
        raise NoConvergence(f"decaying subspace has dim {dim[dim != m][0]}, "
                            f"not {m}")
    pairs = keep[:, :, None] & ~keep[:, None, :]      # (kept, rejected)
    gap = np.min(np.abs(ev[:, :, None] - ev[:, None, :]), axis=(-2, -1),
                 where=pairs, initial=math.inf)
    n, d = ev.shape
    rows = np.arange(n)
    q = np.broadcast_to(np.eye(d, dtype=complex), (n, d, d)).copy()
    t = mat
    for k in range(m):
        if k:
            ev, vec = np.linalg.eig(t)
        x = vec[rows, :, np.argmax(score(ev), axis=-1)]
        x = x / np.linalg.norm(x, axis=-1, keepdims=True)
        if k == m - 1:           # the last vector needs no reflector
            q[:, :, k] = (q[:, :, k:] @ x[:, :, None])[:, :, 0]
            break
        # v = x + phase(x0) e1, so h x = -phase(x0) e1 without cancellation
        v = x.copy()
        v[:, 0] += np.exp(1j * np.angle(x[:, 0]))
        vv = np.sum(v.real ** 2 + v.imag ** 2, axis=-1)
        h = np.eye(d - k) - (v[:, :, None] * v[:, None, :].conj()) * (
            2.0 / vv)[:, None, None]
        t = (h @ t @ h)[:, 1:, 1:]
        q[:, :, k:] = q[:, :, k:] @ h
    return q[:, :, :m], matnorm(mat) / gap


def _theta_from_subspace(w1, w2, sig):
    p = w1 + 1j * sig * w2
    q = w1 - 1j * sig * w2
    if np.any(inv_cond(q, matnorm(w1) + matnorm(w2)) > COND_LIMIT):
        raise SingularDenominator("subspace not representable in the Cayley chart")
    return _right_solve(p, q)


def _m_from_theta(theta, sig, alpha):
    eye = np.eye(theta.shape[-1])
    w = np.concatenate([0.5 * (theta + eye), -0.5j * sig * (theta - eye)],
                       axis=-2)
    aw = alpha.alpha @ w
    ajw = alpha.alpha_j() @ w
    if np.any(inv_cond(aw, matnorm(w)) > COND_LIMIT):
        raise SingularDenominator("alpha-chart readoff singular")
    return -_right_solve(ajw, aw)


@dataclass(frozen=True, eq=False)
class HalfLineM:
    """Limit-point half-line Weyl-Titchmarsh matrix with its error estimate;
    for an array of z, M is an (n, m, m) stack and z and tail_bound are
    arrays.  The subspace was taken at c_final, and sweeps is always 1."""

    M: np.ndarray
    z: complex
    x0: float
    alpha: object
    sign: int                # +1: half line [x0, +inf), -1: (-inf, x0]
    tail_bound: float
    c_final: float
    sweeps: int


def _halfline_rows(zs, x0, c, alpha, spec, sign):
    """M and the sensitivity sum ||T|| / gap + kappa for z in one half
    plane, where the rescale sign and sigma are the same for every entry."""
    m = alpha.m
    sig = sigma(x0 + sign, x0, zs[0])
    prop = Propagator(zs, spec)
    if spec.is_periodic:
        back = x0 - sign * spec.period
        u, sens = _invariant_subspace(
            prop.transfer(x0, back, scale=auto_scale(zs[0], x0, back)), m)
    else:
        piece, _ = spec.locate(c + sign)
        b = np.zeros((2 * m, 2 * m)) if piece is None else piece.eval(0.0)
        u, sens = _invariant_subspace(system_matrix(zs[:, None, None], b), m,
                                      "lhp" if sign > 0 else "rhp")
    theta = _theta_from_subspace(u[:, :m], u[:, m:], sig)
    if c != x0:
        scale = 1 if zs[0].imag * sign < 0 else -1   # damps the carry c -> x0
        theta, kappa = _mobius_across(prop, c, x0, theta,
                                      _cayley_frame(sig, m), scale)
        sens = sens + kappa
    return _m_from_theta(theta, sig, alpha), sens


def halfline_m(z, x0, alpha, spec, sign=1, tol=1e-10):
    """Half-line M-function M_plus (sign=+1) or M_minus (sign=-1), from the
    m solutions that decay toward ``sign``: the dominant invariant subspace
    of the period transfer T(x0 - sign*w <- x0), or the stable subspace of
    the constant tail beyond its inner edge c, carried from c to x0.
    tail_bound, eps * (||T|| / gap + worst carry kappa) * (1 + ||M||), is
    gated by tol * (1 + ||M||): above it NoConvergence carries M as best.

    z may be a scalar or a 1-D array, evaluated as one stack (entries with
    Im z < 0 in a stack of their own); a scalar runs as a stack of one, and
    each row of a stacked result equals the result for that z alone, bit
    for bit.  Any failing entry fails the whole call.
    """
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    if np.any(zs.imag == 0):
        raise DegenerateArguments("half-line M needs Im z != 0")
    m = alpha.m
    c = x0
    if not spec.is_periodic:      # the tail's inner edge
        ends = [e for p in spec.pieces for e in (p.x_lo, p.x_hi)
                if math.isfinite(e)]
        c = sign * max(sign * e for e in ends + [x0])
    mval = np.empty((len(zs), m, m), dtype=complex)
    sens = np.empty(len(zs))
    for rows in (np.flatnonzero(zs.imag > 0), np.flatnonzero(zs.imag < 0)):
        if len(rows):
            mval[rows], sens[rows] = _halfline_rows(zs[rows], x0, c, alpha,
                                                    spec, sign)
    size = 1.0 + matnorm(mval)
    tail = _EPS * sens * size
    bad = np.flatnonzero(tail > tol * size)
    if len(bad):
        i = bad[0]
        raise NoConvergence(f"decaying subspace at z = {complex(zs[i])} ill "
                            f"conditioned (estimate {tail[i]:.1e})",
                            best=mval[i], tail=tail[i])
    if np.ndim(z) == 0:
        return HalfLineM(M=mval[0], z=complex(z), x0=float(x0), alpha=alpha,
                         sign=sign, tail_bound=tail[0], c_final=c, sweeps=1)
    return HalfLineM(M=mval, z=zs, x0=float(x0), alpha=alpha, sign=sign,
                     tail_bound=tail, c_final=c, sweeps=1)


def lft_boundary_change(m_gamma, alpha, gamma):
    """Rewrite an M-function from boundary data gamma to alpha:
    M_alpha = [-alpha J gamma* + alpha gamma* M] [alpha gamma* + alpha J gamma* M]^{-1}.
    """
    m_gamma = np.asarray(m_gamma, complex)
    ag = alpha.alpha @ gamma.alpha.conj().T
    ajg = alpha.alpha_j() @ gamma.alpha.conj().T
    num = -ajg + ag @ m_gamma
    den = ag + ajg @ m_gamma
    if inv_cond(den, 1.0 + matnorm(m_gamma)) > COND_LIMIT:
        raise SingularDenominator(
            "alpha gamma* + alpha J gamma* M is singular")
    return _right_solve(num, den)
