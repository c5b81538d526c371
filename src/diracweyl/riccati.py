"""Matrix Riccati flow of V = M(z, .) and its Cayley-compactified form.

V solves V' + z V^2 + V B22 V + B12 V + V B21 + B11 + z I = 0 and blows up
at eigenvalue crossings of the truncated problem; the Cayley image
theta = (I + i*sigma*V)(I - i*sigma*V)^{-1} stays in the closed unit ball
along Weyl-disk trajectories, which doubles as a numerical stabilization for
large |z|.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractivityLost,
    IntegrationFailure,
    NotContractive,
    PoleEncountered,
    SingularCayley,
)
from .foundation import COND_LIMIT, inv_cond, matnorm

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
_POLE_LIMIT = 1e8
_CONTRACT_TOL = 1e-9


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


def cayley_rhs(z, theta, b, sign):
    """Compactified flow: the quadratic form of the block coefficient matrix
    applied to (I + theta, I - theta)."""
    m = theta.shape[0]
    eye = np.eye(m)
    plus, minus = eye + theta, eye - theta
    b11, b12 = b[:m, :m], b[:m, m:]
    b21, b22 = b[m:, :m], b[m:, m:]
    out = (-1j * sign * (plus @ ((z * eye + b11) @ plus))
           + plus @ (b12 @ minus)
           + minus @ (b21 @ plus)
           + 1j * sign * (minus @ ((z * eye + b22) @ minus)))
    return 0.5 * out


@dataclass(frozen=True, eq=False)
class RiccatiTrajectory:
    z: complex
    xs: np.ndarray
    vs: np.ndarray            # (n, m, m)
    nfev: int = 0

    @property
    def final(self):
        return self.vs[-1]

    def herglotz_floor(self):
        """min over samples of lambda_min(Im V), the disk-sign monitor."""
        return min(float(np.linalg.eigvalsh((v - v.conj().T) / 2j)[0])
                   for v in self.vs)


def integrate_riccati(z, v0, x0, x1, spec, n_out=33, rtol=DEFAULT_RTOL,
                      atol=DEFAULT_ATOL, pole_limit=_POLE_LIMIT):
    """Integrate the Riccati equation from V(x0) = v0 to x1.

    Aborts with PoleEncountered (carrying the last good x) when ||V||
    crosses pole_limit; poles mark eigenvalues of the truncated problem and
    are a diagnostic, not a numerical accident.
    """
    from scipy.integrate import solve_ivp

    z = complex(z)
    v0 = np.atleast_2d(np.asarray(v0, complex))
    m = v0.shape[0]

    def rhs(x, y):
        return riccati_rhs(z, y.reshape(m, m), spec.eval(x)).ravel()

    def pole(x, y):
        return float(np.max(np.abs(y))) - pole_limit
    pole.terminal = True

    xs = np.linspace(x0, x1, n_out)
    sol = solve_ivp(rhs, (x0, x1), v0.ravel(), t_eval=xs, events=pole,
                    method="DOP853", rtol=rtol, atol=atol)
    if sol.status == 1:
        last = float(sol.t_events[0][0]) if len(sol.t_events[0]) else x0
        raise PoleEncountered(
            f"Riccati trajectory blew up near x = {last:.6g} "
            "(u1 near-singular)", last_x=last)
    if not sol.success:
        raise IntegrationFailure(f"Riccati integration failed: {sol.message}")
    vs = sol.y.T.reshape(-1, m, m)
    return RiccatiTrajectory(z=z, xs=sol.t.copy(), vs=vs, nfev=sol.nfev)


@dataclass(frozen=True, eq=False)
class CayleyTrajectory:
    z: complex
    sign: int
    xs: np.ndarray
    thetas: np.ndarray        # (n, m, m)
    contractivity: np.ndarray  # lambda_min(I - theta* theta) per sample
    nfev: int = 0

    @property
    def final(self):
        return self.thetas[-1]


def integrate_cayley(z, theta0, x0, x1, spec, sign, n_out=65,
                     rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL,
                     tol=_CONTRACT_TOL):
    """Integrate the compactified equation with a contractivity monitor.

    theta0 must satisfy ||theta0|| <= 1 + tol (NotContractive otherwise);
    if lambda_min(I - theta* theta) drops below -tol along the way the
    initial matrix was outside the Weyl disk and ContractivityLost is
    raised.
    """
    from scipy.integrate import solve_ivp

    z = complex(z)
    theta0 = np.atleast_2d(np.asarray(theta0, complex))
    m = theta0.shape[0]
    if matnorm(theta0) > 1.0 + tol:
        raise NotContractive(
            f"||theta0|| = {matnorm(theta0):.6f} exceeds 1 + {tol:.1e}")

    def rhs(x, y):
        return cayley_rhs(z, y.reshape(m, m), spec.eval(x), sign).ravel()

    xs = np.linspace(x0, x1, n_out)
    sol = solve_ivp(rhs, (x0, x1), theta0.ravel(), t_eval=xs,
                    method="DOP853", rtol=rtol, atol=atol)
    if not sol.success:
        raise IntegrationFailure(f"Cayley integration failed: {sol.message}")
    thetas = sol.y.T.reshape(-1, m, m)
    monitor = np.empty(len(thetas))
    for i, th in enumerate(thetas):
        monitor[i] = float(np.linalg.eigvalsh(np.eye(m) - th.conj().T @ th)[0])
        if monitor[i] < -tol:
            raise ContractivityLost(
                f"contractivity lost at x = {sol.t[i]:.6g} "
                f"(monitor {monitor[i]:.3e}): initial M was exterior",
                x=float(sol.t[i]), monitor=float(monitor[i]))
    return CayleyTrajectory(z=z, sign=sign, xs=sol.t.copy(), thetas=thetas,
                            contractivity=monitor, nfev=sol.nfev)
