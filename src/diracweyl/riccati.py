"""Matrix Riccati flow of V = M(z, .) and its Cayley-compactified form.

V solves V' + z V^2 + V B22 V + B12 V + V B21 + B11 + z I = 0 and blows up
at eigenvalue crossings of the truncated problem; the Cayley image
theta = (I + i*sigma*V)(I - i*sigma*V)^{-1} stays in the closed unit ball
along Weyl-disk trajectories.  Both are Moebius images of the transfer
matrices, V(x) = u2 u1^{-1} for u = T(x <- x0) [I; V0]: one orthonormal
basis of u is carried on fixed cells by weyldisk's QR carry, the one the
half-line M runs; a chart is chosen only at the output nodes.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractivityLost,
    NotContractive,
    PoleEncountered,
    SingularCayley,
    SingularDenominator,
)
from .foundation import COND_LIMIT, MAX_POINTS, inv_cond, matnorm, need
from .propagator import Propagator, auto_scale
from .weyldisk import _CELL_REACH, _carry, _right_solve

_POLE_LIMIT = 1e8
_CONTRACT_TOL = 1e-9
_GOLD = (math.sqrt(5.0) - 1.0) / 2.0


def cayley(mat, sign):
    """theta = (I + i*sigma*M)(I - i*sigma*M)^{-1}."""
    mat = np.asarray(mat, complex)
    eye = np.eye(mat.shape[0])
    den = eye - 1j * sign * mat
    if inv_cond(den, 1.0 + matnorm(mat)) > COND_LIMIT:
        raise SingularCayley("I - i*sigma*M is singular")
    return np.linalg.solve(den.T, (eye + 1j * sign * mat).T).T


def cayley_inverse(theta, sign):
    """Recover M from theta: M = -i*sigma*(I + theta)^{-1}(theta - I)."""
    theta = np.asarray(theta, complex)
    eye = np.eye(theta.shape[0])
    den = eye + theta
    if inv_cond(den, 1.0 + matnorm(theta)) > COND_LIMIT:
        raise SingularCayley("I + theta is singular")
    return -1j * sign * np.linalg.solve(den, theta - eye)


def riccati_rhs(z, v, b):
    """Right-hand side of V' = -(z V^2 + V B22 V + B12 V + V B21 + B11 + z I)."""
    m = v.shape[0]
    b11, b12 = b[:m, :m], b[:m, m:]
    b21, b22 = b[m:, :m], b[m:, m:]
    return -(z * (v @ v) + v @ b22 @ v + b12 @ v + v @ b21 + b11
             + z * np.eye(m))


def _flow(z, w0, x0, x1, spec, n_out):
    """Orthonormal bases of span T(x <- x0) w0 on linspace(x0, x1, n_out)
    refined by the least integer factor r with h (|z| + sup ||B||) <=
    _CELL_REACH, carried by weyldisk._carry; returns the Propagator (a
    stack of one), the grid, the bases, r and that reach."""
    need(n_out >= 2, "flow", "n_out >= 2", n_out)
    prop, rate = Propagator(np.array([z]), spec), abs(z) + spec.bound()
    # np.maximum keeps a NaN, so a non-finite z, x0 or x1 fails too
    need(np.maximum(abs(x1 - x0) * rate / _CELL_REACH, n_out) <= MAX_POINTS,
         "flow", f"finite z, x0, x1, at most {MAX_POINTS} cells", (z, x0, x1))
    r = max(1, math.ceil(abs(x1 - x0) * rate / ((n_out - 1) * _CELL_REACH)))
    xs = np.linspace(x0, x1, (n_out - 1) * r + 1)
    qs, _ = _carry(prop, np.linalg.qr(w0)[0][None], xs.tolist())
    return prop, xs, qs[:, 0], r, rate * abs(x1 - x0) / (len(xs) - 1)


def _theta_from_subspace(w1, w2, sig):
    p = w1 + 1j * sig * w2
    q = w1 - 1j * sig * w2
    if np.any(inv_cond(q, matnorm(w1) + matnorm(w2)) > COND_LIMIT):
        raise SingularDenominator(
            "subspace not representable in the Cayley chart")
    return _right_solve(p, q)


def _least_smin(prop, xa, xb, q, m):
    """(x, sigma_min(Q1)) where the basis carried from q at xa is nearest
    singular, by golden-section search of [xa, xb]."""
    def smin(x):
        u = prop.transfer(xa, x, scale=auto_scale(prop.z[0], xa, x))[0] @ q
        return np.linalg.svd(np.linalg.qr(u)[0][:m], compute_uv=False)[-1]
    a, b = xa, xb
    while abs(b - a) > 1e-12 * (1.0 + abs(a)):
        c, d = b - _GOLD * (b - a), a + _GOLD * (b - a)
        a, b = (a, d) if smin(c) < smin(d) else (c, b)
    x = 0.5 * (a + b)
    return x, smin(x)


@dataclass(frozen=True, eq=False)
class RiccatiTrajectory:
    z: complex
    xs: np.ndarray
    vs: np.ndarray            # (n, m, m)

    @property
    def final(self):
        return self.vs[-1]

    def herglotz_floor(self):
        """min over samples of lambda_min(Im V), the disk-sign monitor."""
        im = (self.vs - self.vs.conj().mT) / 2j
        return float(np.linalg.eigvalsh(im)[:, 0].min())


def integrate_riccati(z, v0, x0, x1, spec, n_out=33):
    """V = u2 u1^{-1} at n_out nodes from x0 to x1, u = T(x <- x0) [I; v0].

    Aborts with PoleEncountered where ||V|| passes _POLE_LIMIT, i.e. where
    sigma_min(Q1) of the carried basis Q drops below 1/_POLE_LIMIT; last_x
    is where it is least.  It moves at most ||A|| <= |z| + ||B|| per unit
    x, so only cells with an end at or below their reach are searched.
    Poles mark eigenvalues of the truncated problem: a diagnostic.
    """
    z = complex(z)
    v0 = np.atleast_2d(np.asarray(v0, complex))
    m = v0.shape[0]
    prop, xs, qs, r, reach = _flow(z, np.vstack([np.eye(m), v0]), x0, x1,
                                   spec, n_out)
    smin = np.linalg.svd(qs[:, :m], compute_uv=False)[:, -1]
    for i in np.flatnonzero(np.minimum(smin[:-1], smin[1:]) <= reach):
        x, s = _least_smin(prop, float(xs[i]), float(xs[i + 1]), qs[i], m)
        if s < 1.0 / _POLE_LIMIT:
            raise PoleEncountered(f"Riccati trajectory blew up near x = "
                                  f"{x:.6g} (u1 near-singular)", last_x=x)
    vs = _right_solve(qs[::r, m:], qs[::r, :m])
    return RiccatiTrajectory(z=z, xs=xs[::r], vs=vs)


@dataclass(frozen=True, eq=False)
class CayleyTrajectory:
    z: complex
    sign: int
    xs: np.ndarray
    thetas: np.ndarray        # (n, m, m)
    contractivity: np.ndarray  # lambda_min(I - theta* theta) per sample

    @property
    def final(self):
        return self.thetas[-1]


def integrate_cayley(z, theta0, x0, x1, spec, sign, n_out=65):
    """theta at n_out nodes from x0 to x1, carried as the subspace
    [(theta0 + I)/2; -i*sigma*(theta0 - I)/2], with a contractivity monitor.

    theta0 must satisfy ||theta0|| <= 1 + _CONTRACT_TOL (NotContractive
    otherwise); if lambda_min(I - theta* theta) drops below -_CONTRACT_TOL at
    a node the initial matrix was outside the Weyl disk and
    ContractivityLost is raised.
    """
    z = complex(z)
    theta0 = np.atleast_2d(np.asarray(theta0, complex))
    m = theta0.shape[0]
    if matnorm(theta0) > 1.0 + _CONTRACT_TOL:
        raise NotContractive(
            f"||theta0|| = {matnorm(theta0):.6f} exceeds "
            f"1 + {_CONTRACT_TOL:.1e}")
    eye = np.eye(m)
    w0 = np.vstack([0.5 * (theta0 + eye), -0.5j * sign * (theta0 - eye)])
    _, xs, qs, r, _ = _flow(z, w0, x0, x1, spec, n_out)
    thetas, monitor = [], []
    for x, q in zip(xs[::r].tolist(), qs[::r]):
        th = _theta_from_subspace(q[:m], q[m:], sign)
        mon = float(np.linalg.eigvalsh(eye - th.conj().T @ th)[0])
        if mon < -_CONTRACT_TOL:
            raise ContractivityLost(
                f"contractivity lost at x = {x:.6g} (monitor {mon:.3e}): "
                "initial M was exterior", x=x, monitor=mon)
        thetas.append(th)
        monitor.append(mon)
    return CayleyTrajectory(z=z, sign=sign, xs=xs[::r],
                            thetas=np.array(thetas),
                            contractivity=np.array(monitor))
