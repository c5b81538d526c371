"""Regular-interval M-functions, the Weyl disk functional, membership
classification, and the limit-point half-line M-function.

For Im z != 0 exactly m solutions decay toward each end (Hinton & Shaw,
J. Differential Equations 40, 1981), and the half-line M is read off the
subspace they span, with no truncation radius: for a periodic spec the
dominant invariant subspace of the forward period transfer T (toward -inf)
or of its symplectic inverse J^{-1} T(zbar)^H J (toward +inf), for a
constant tail the stable subspace of its system matrix.  Its
orthonormal basis is the leading Schur vectors, built from LAPACK
eigenvectors by unitary deflation (Golub & Van Loan, 7.6).  From the
tail's inner edge the basis is carried to x0 by transfers, each followed
by a QR (orthonormalisation for stiff linear BVPs; Conte, SIAM Rev. 8,
1966; Davey, J. Comput. Phys. 51, 1983), and M is read off at x0.  Steps
are split until each product is finite and its R factor well conditioned,
and the backward flow contracts earlier roundoff.  The Riccati and Cayley
flows run the same carry.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DiracWeylError,
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
    need,
    sigma,
)
from .propagator import Propagator, _minus_j, auto_scale, system_matrix

_STEP_COND = 3e6        # bisect carry steps above this R condition
_MIN_SEG = 1e-9
_MAX_DEPTH = 80         # bisection levels of one carry step
_CELL_REACH = 0.25      # bound on h (|z| + sup ||B||) per carry cell
_EPS = np.finfo(float).eps


def regular_m(z, c, x0, alpha, beta, spec):
    """M-function of the regular problem on [x0, c] with boundary data
    (alpha at x0, beta = (beta1, beta2) at c), the pair of m x m blocks of
    beta: -[beta Phi(z,c)]^{-1} [beta Theta(z,c)].

    Raises EigenvalueHit when beta Phi is singular within the condition
    budget, which happens exactly when z is an eigenvalue of the regular
    self-adjoint problem.
    """
    z = complex(z)
    need(np.isfinite([z, x0, c]).all() and c != x0, "regular M",
         "finite z, x0 and c with c != x0", f"z = {z}, [{x0}, {c}]")
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
            "z is an eigenvalue of the regular boundary value problem")
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
    need(tol >= 0, "disk membership", "tol >= 0", tol)
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

def _right_solve(num, den):
    """num den^{-1} for matrices or stacks of them."""
    return np.linalg.solve(den.mT, num.mT).mT


def _carry(prop, q, xs, depth=0):
    """Orthonormal bases of span T(x <- xs[0]) q at every x of xs, for the
    stacked Propagator prop and a stack q of orthonormal bases, one per z,
    with each entry's worst step condition ||T|| / sigma_min(R).  A step
    forms T q under auto_scale's factor, a scalar the QR cancels, and takes
    one QR; the entries whose product is not finite or whose R is worse
    conditioned than _STEP_COND bisect that step (only they recurse, on a
    Propagator of their z), at most _MAX_DEPTH levels deep, unless
    _hopeless shows at once that the bisection fails."""
    qs = [q]
    kappa = np.zeros(len(q))
    for a, b in zip(xs[:-1], xs[1:]):
        t = prop.transfer(a, b, scale=auto_scale(prop.z[0], a, b))
        with np.errstate(over="ignore", invalid="ignore"):
            u = t @ qs[-1]
        k = np.full(len(u), math.inf)
        out = np.empty_like(u)
        fin = np.flatnonzero(np.all(np.isfinite(u), axis=(-2, -1)))
        if len(fin):
            out[fin], r = np.linalg.qr(u[fin])
            k[fin] = inv_cond(r, matnorm(t[fin]))
        bad = k > _STEP_COND
        if bad.any():
            sub = prop if bad.all() else Propagator(prop.z[bad], prop.spec)
            if (abs(b - a) < _MIN_SEG or depth > _MAX_DEPTH
                    or _hopeless(sub, qs[-1][bad], a, b, depth)):
                raise IntegrationFailure(
                    f"carry step on [{a}, {b}] stayed ill-conditioned")
            sq, k[bad] = _carry(sub, qs[-1][bad], [a, 0.5 * (a + b), b],
                                depth + 1)
            out[bad] = sq[-1]
        qs.append(out)
        kappa = np.maximum(kappa, k)
    return np.array(qs), kappa


def _hopeless(prop, q, a, b, depth):
    """Whether the bisection of the failing carry step [a, b] at depth
    must fail.  Its first branch halves the step from a down to length
    h = (b - a) / 2^(_MAX_DEPTH + 1 - depth), the first past the depth
    cap.  Where h (|z| + sup ||B||) > _CELL_REACH, the step of length h
    from a is formed: if its product is not finite, neither is that of any
    longer step of the branch (an overflow only grows with the span), so
    each of them fails and the bisection ends at the cap.  Within that
    reach a step's growth is bounded, the bisection may succeed, and
    nothing is formed."""
    h = (b - a) / 2.0 ** (_MAX_DEPTH + 1 - depth)
    rate = np.abs(prop.z).max() + prop.spec.bound()
    if not abs(h) * rate > _CELL_REACH:
        return False
    t = prop.transfer(a, a + h, scale=auto_scale(prop.z[0], a, a + h))
    with np.errstate(over="ignore", invalid="ignore"):
        return not np.all(np.isfinite(t @ q))


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


@dataclass(frozen=True, eq=False)
class HalfLineM:
    """Limit-point half-line Weyl-Titchmarsh matrix with its error estimate;
    for an array of z, M is an (n, m, m) stack and z and tail_bound are
    arrays.  tail_bound is eps (||T|| / gap + kappa) (1 + ||M||), kappa the
    worst R-factor condition of the QR carry (0 without a carry).  The
    subspace was taken at c_final, and sweeps is always 1."""

    M: np.ndarray
    z: complex
    x0: float
    alpha: object
    sign: int                # +1: half line [x0, +inf), -1: (-inf, x0]
    tail_bound: float
    c_final: float
    sweeps: int


def _period_generators(zs, x0, spec, sides):
    """For each side of sides, the stack of matrices whose dominant
    invariant subspace holds the solutions decaying toward it, stacked
    side after side: for -1 the period transfer T = T(x0 + w <- x0), for +1
    its symplectic inverse T^{-1} = J^{-1} T(zbar)^H J (Psi(zbar)* J Psi(z)
    = J), which is J^{-1} T^T J on a real spec.  Each transfer carries its
    own auto_scale factor, a scalar that moves neither subspace."""
    end = x0 + spec.period

    def forward(z):
        return Propagator(z, spec).transfer(x0, end,
                                            scale=auto_scale(z[0], x0, end))

    t = forward(zs) if spec.is_real or -1 in sides else None
    # -J (-J X)^T = J^{-1} X^T J, a signed permutation of X = conj T(zbar),
    # which is T on a real spec
    return np.concatenate([t if s < 0 else _minus_j(_minus_j(
        t if spec.is_real else forward(zs.conj()).conj()).mT)
        for s in sides])


def _halfline_rows(zs, x0, c, alpha, spec, sides):
    """M and the sensitivity sum ||T|| / gap + kappa for z in one half
    plane, where the rescale sign is the same for every entry, one stack
    per side of sides (more than one on a periodic spec only), read off in
    one pass."""
    m = alpha.m
    if spec.is_periodic:
        u, sens = _invariant_subspace(
            _period_generators(zs, x0, spec, sides), m)
    else:
        [sign] = sides
        prop = Propagator(zs, spec)
        piece, _ = spec.locate(c + sign)
        b = np.zeros((2 * m, 2 * m)) if piece is None else piece.eval(0.0)
        u, sens = _invariant_subspace(system_matrix(zs[:, None, None], b), m,
                                      "lhp" if sign > 0 else "rhp")
        if c != x0:
            qs, kappa = _carry(prop, u, [c, x0])
            u, sens = qs[-1], sens + kappa
    au = alpha.alpha @ u         # u is orthonormal: the scale is 1
    if np.any(inv_cond(au) > COND_LIMIT):
        raise SingularDenominator("alpha-chart readoff singular")
    shape = (len(sides), len(zs))
    return (-_right_solve(alpha.alpha_j() @ u, au).reshape(shape + (m, m)),
            sens.reshape(shape))


def _halfline_sides(zs, x0, c, alpha, spec, sides):
    """_halfline_rows over both half planes of zs: M as (sides, n, m, m)
    and the sensitivity as (sides, n)."""
    m = alpha.m
    mval = np.empty((len(sides), len(zs), m, m), dtype=complex)
    sens = np.empty((len(sides), len(zs)))
    for rows in (np.flatnonzero(zs.imag > 0), np.flatnonzero(zs.imag < 0)):
        if len(rows):
            mval[:, rows], sens[:, rows] = _halfline_rows(
                zs[rows], x0, c, alpha, spec, sides)
    return mval, sens


def halfline_m(z, x0, alpha, spec, sign=1, tol=1e-10, _share=None):
    """Half-line M-function M_plus (sign=+1) or M_minus (sign=-1), from the
    m solutions that decay toward ``sign``: the dominant invariant subspace
    of the period transfer T = T(x0 + w <- x0) for M_minus or of its
    symplectic inverse J^{-1} T(zbar)^H J for M_plus, or the stable
    subspace of the constant tail beyond its inner edge c, carried from c
    to x0.
    tail_bound, eps * (||T|| / gap + kappa) * (1 + ||M||) with kappa the
    worst R-factor condition of the carry, is gated by tol * (1 + ||M||):
    above it NoConvergence carries M as best.

    z may be a scalar or a 1-D array, evaluated as one stack (entries with
    Im z < 0 in a stack of their own); a scalar runs as a stack of one, and
    each row of a stacked result equals the result for that z alone, bit
    for bit.  Any failing entry fails the whole call.

    _share is a dict private to one fullline_m call.  On a periodic spec
    the first of its two calls reads off both sides in one pass and leaves
    the other side's M and sensitivity in it; the second takes them and
    runs only its own gate.  If the joint pass fails, the first call
    evaluates its own side alone, so each side raises from its own call.
    """
    need(math.isfinite(x0), "half-line M", "a finite x0", x0)
    need(tol >= 0, "half-line M", "tol >= 0", tol)
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    # a NaN Im z is in neither half-plane stack, and its row would be left
    # unwritten
    need(np.isfinite(zs), "half-line M", "finite z", zs)
    need(zs.imag != 0, "half-line M", "Im z != 0", zs)
    c = x0
    if not spec.is_periodic:      # the tail's inner edge
        c = sign * max(sign * e for e in spec._edges + [x0])
    shared = None if _share is None else _share.pop(sign, None)
    if shared is not None:
        mval, sens = shared
    elif _share is not None and spec.is_periodic:
        try:
            (mval, other), (sens, other_sens) = _halfline_sides(
                zs, x0, c, alpha, spec, (sign, -sign))
        except (DiracWeylError, np.linalg.LinAlgError):
            # this side alone, so that each side raises from its own call
            [mval], [sens] = _halfline_sides(zs, x0, c, alpha, spec, (sign,))
        else:
            _share[-sign] = other, other_sens
    else:
        [mval], [sens] = _halfline_sides(zs, x0, c, alpha, spec, (sign,))
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
