"""Regular-interval M-functions, the Weyl disk functional, membership
classification, and the limit-point half-line M-function.

The half-line value is obtained by truncating at c, imposing a self-adjoint
boundary condition there (which pins the truncated M on the Weyl circle),
and doubling c until the values settle; disk nesting makes the truncation
error at most the disk diameter.  Numerically the truncated value is carried
in the Cayley chart theta = (u1 + i*sigma*u2)(u1 - i*sigma*u2)^{-1}, which
compactifies the Riccati flow: theta stays in the closed unit ball along
disk trajectories, segments are split until each Moebius factor is
well-conditioned, and earlier roundoff is contracted away by the flow
itself.
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
    herm_defect,
    hermitize,
    inv_cond,
    jmat,
    matnorm,
    sigma,
)
from .propagator import Propagator, auto_scale

_MOBIUS_COND = 3e6      # split segments above this factor condition
_MIN_SEG = 1e-9


def _beta_blocks(beta):
    if hasattr(beta, "alpha1"):
        return beta.alpha1, beta.alpha2
    b1, b2 = beta
    return np.atleast_2d(np.asarray(b1, complex)), np.atleast_2d(np.asarray(b2, complex))


def regular_m(z, c, x0, alpha, beta, spec, cond_limit=COND_LIMIT,
              propagator=None):
    """M-function of the regular problem on [x0, c] with boundary data
    (alpha at x0, beta at c): -[beta Phi(z,c)]^{-1} [beta Theta(z,c)].

    Raises EigenvalueHit when beta Phi is singular within the condition
    budget, which happens exactly when z is an eigenvalue of the regular
    self-adjoint problem.
    """
    if c == x0:
        raise DegenerateArguments("regular M needs c != x0")
    z = complex(z)
    b1, b2 = _beta_blocks(beta)
    prop = propagator or Propagator(z, spec)
    psi = prop.transfer(x0, c, scale=auto_scale(z, x0, c)) @ alpha.psi0()
    m = alpha.m
    theta, phi = psi[:, :m], psi[:, m:]
    bphi = b1 @ phi[:m] + b2 @ phi[m:]
    btheta = b1 @ theta[:m] + b2 @ theta[m:]
    cond = inv_cond(bphi, matnorm(np.hstack([b1, b2])) * matnorm(phi))
    if cond > cond_limit:
        raise EigenvalueHit(
            f"beta Phi(z, c={c}) is singular (cond {cond:.2e}): "
            "z is an eigenvalue of the regular boundary value problem",
            cond=cond)
    return -np.linalg.solve(bphi, btheta)


def e_c(mat, z, c, x0, alpha, spec, return_defect=False, propagator=None):
    """Disk functional E_c(M) = sigma(x0,c,z) U(z,c)* (iJ) U(z,c), Hermitian.

    Nonpositive exactly on the Weyl disk at c; zero on the circle.
    """
    z = complex(z)
    sig = sigma(x0, c, z)
    prop = propagator or Propagator(z, spec)
    m = alpha.m
    col = np.vstack([np.eye(m), np.asarray(mat, complex)])
    u = (prop.transfer(x0, c, scale=0) @ alpha.psi0()) @ col
    e = sig * (u.conj().T @ (1j * jmat(m)) @ u)
    defect = herm_defect(e)
    e = hermitize(e)
    if return_defect:
        return e, defect
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
# Half-line M via the compactified truncation sweep
# ---------------------------------------------------------------------------

def _cayley_frame(sig, m):
    eye = np.eye(m)
    c = np.block([[eye, 1j * sig * eye], [eye, -1j * sig * eye]])
    cinv = 0.5 * np.block([[eye, eye], [-1j * sig * eye, 1j * sig * eye]])
    return c, cinv


def _span_factor(prop, a, b, frame, scale, memo):
    """Moebius factor S = C T(b <- a) C^{-1} with ||S||_2, or None when the
    transfer is not finite.  memo, one per halfline_m call, keeps each
    span's result, since every doubling of c re-bisects the spans of the
    one before."""
    if (a, b) not in memo:
        t = prop.transfer(a, b, scale=scale)
        if np.all(np.isfinite(t)):
            c, cinv = frame
            s = c @ t @ cinv
            memo[a, b] = (s, matnorm(s))
        else:
            memo[a, b] = None
    return memo[a, b]


def _mobius_across(prop, a, b, theta, frame, scale, memo, depth=0):
    """Carry theta from a to b through the transfer matrix, bisecting the
    interval until each factor is well conditioned."""
    factor = _span_factor(prop, a, b, frame, scale, memo)
    kappa = math.inf
    if factor is not None:
        s, s_norm = factor
        m = theta.shape[0]
        num = s[:m, :m] @ theta + s[:m, m:]
        den = s[m:, :m] @ theta + s[m:, m:]
        kappa = inv_cond(den, s_norm)
    if kappa > _MOBIUS_COND:
        if abs(b - a) < _MIN_SEG or depth > 80:
            raise IntegrationFailure(
                f"Moebius factor on [{a}, {b}] stayed ill-conditioned")
        mid = 0.5 * (a + b)
        theta = _mobius_across(prop, a, mid, theta, frame, scale, memo,
                               depth + 1)
        return _mobius_across(prop, mid, b, theta, frame, scale, memo,
                              depth + 1)
    return np.linalg.solve(den.T, num.T).T


def _theta_from_subspace(w1, w2, sig):
    p = w1 + 1j * sig * w2
    q = w1 - 1j * sig * w2
    if inv_cond(q, matnorm(w1) + matnorm(w2)) > COND_LIMIT:
        raise SingularDenominator("subspace not representable in the Cayley chart")
    return np.linalg.solve(q.T, p.T).T


def _m_from_theta(theta, sig, alpha):
    m = theta.shape[0]
    eye = np.eye(m)
    w = np.vstack([0.5 * (theta + eye), -0.5j * sig * (theta - eye)])
    aw = alpha.alpha @ w
    ajw = alpha.alpha_j() @ w
    if inv_cond(aw, matnorm(w)) > COND_LIMIT:
        raise SingularDenominator("alpha-chart readoff singular")
    return -np.linalg.solve(aw.T, ajw.T).T


@dataclass(frozen=True, eq=False)
class HalfLineM:
    """Limit-point half-line Weyl-Titchmarsh matrix with its truncation tail."""

    M: np.ndarray
    z: complex
    x0: float
    alpha: object
    sign: int                # +1: half line [x0, +inf), -1: (-inf, x0]
    tail_bound: float
    c_final: float
    sweeps: int


def halfline_m(z, x0, alpha, spec, sign=1, tol=1e-10, max_range=1e8,
               beta=None):
    """Half-line M-function M_plus (sign=+1) or M_minus (sign=-1).

    Truncates at c = x0 +/- 2^k with the self-adjoint boundary condition
    beta = (I_m, 0) at c and doubles until successive values agree within
    tol (relative to 1 + ||M||); the last difference is recorded as
    tail_bound.  Raises NoConvergence when c would exceed max_range, which
    for z very close to the real axis is the expected failure mode.
    """
    z = complex(z)
    if z.imag == 0:
        raise DegenerateArguments("half-line M needs Im z != 0")
    m = alpha.m
    sig = sigma(x0 + sign, x0, z)
    frame = _cayley_frame(sig, m)
    prop = Propagator(z, spec)

    if beta is None:
        b1, b2 = np.eye(m), np.zeros((m, m))
    else:
        b1, b2 = _beta_blocks(beta)
    # boundary subspace J beta* at c: w1 = -beta2*, w2 = beta1*
    theta_c = _theta_from_subspace(-b2.conj().T, b1.conj().T, sig)

    scale = 1 if z.imag * sign < 0 else -1   # damps the backward sweep c -> x0
    memo = {}
    prev = None
    tail = math.inf
    k = 0
    sweeps = 0
    while True:
        span = 2.0 ** k
        if span > max_range:
            raise NoConvergence(
                f"no Cauchy convergence by c = x0 + {sign * span:g} "
                f"(z too close to the real axis for tol {tol:.1e})",
                best=prev, tail=tail)
        c = x0 + sign * span
        theta = _mobius_across(prop, c, x0, theta_c, frame, scale, memo)
        mval = _m_from_theta(theta, sig, alpha)
        sweeps += 1
        if prev is not None:
            tail = matnorm(mval - prev)
            if tail < tol * (1.0 + matnorm(mval)):
                return HalfLineM(M=mval, z=z, x0=float(x0), alpha=alpha,
                                 sign=sign, tail_bound=tail,
                                 c_final=c, sweeps=sweeps)
        prev = mval
        k += 1


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
    return np.linalg.solve(den.T, num.T).T
