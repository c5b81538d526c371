"""Whole-line Weyl-Titchmarsh matrix, Green's matrix, and the boundary-value
density Upsilon = pi^{-1} Im log M.

M(z, x0) is assembled from the two half-line M-functions; it is a Herglotz
matrix of full rank 2m, so the principal matrix logarithm is well defined
off the real axis and Upsilon has spectrum in [0, 1].
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationFailure, LogBranchFailure, SingularDifference
from .foundation import (
    COND_LIMIT,
    alpha_dirichlet,
    hermitize,
    inv_cond,
    matnorm,
    need,
)
from .propagator import Propagator
from .weyldisk import halfline_m

# eigenbasis condition cap of principal_logm: the log's error scales like
# eps * cond(v), so beyond ~1e6 it falls back to scipy's logm
_EIG_COND_MAX = 1e6


@dataclass(frozen=True, eq=False)
class FullLineM:
    """Block 2m x 2m Weyl-Titchmarsh matrix of the whole-line operator; for
    an array of z the blocks are stacks and z and m22_defect arrays."""

    z: complex
    x0: float
    alpha: object
    m11: np.ndarray
    m12: np.ndarray
    m21: np.ndarray
    m22: np.ndarray
    m22_defect: float
    plus: object           # HalfLineM toward +inf
    minus: object          # HalfLineM toward -inf

    @property
    def matrix(self):
        return np.block([[self.m11, self.m12], [self.m21, self.m22]])


def fullline_m(z, x0, alpha, spec, tol=1e-10):
    """Assemble M(z, x0, alpha) from M_minus and M_plus.

    M11 = (M_- - M_+)^{-1}, M12 = M11 (M_- + M_+)/2,
    M21 = (M_- + M_+)/2 M11, M22 = M_+- M11 M_-+ (both orderings averaged,
    their distance reported as m22_defect).  z may be a scalar or a 1-D
    array, as for halfline_m, with one half-line call per side; on a
    periodic spec the two calls share one period transfer and one subspace
    pass (halfline_m's _share), and each side runs its own gate.
    """
    share = {}
    mp = halfline_m(z, x0, alpha, spec, sign=+1, tol=tol, _share=share)
    mm = halfline_m(z, x0, alpha, spec, sign=-1, tol=tol, _share=share)
    diff = mm.M - mp.M
    scale = 1.0 + np.maximum(matnorm(mp.M), matnorm(mm.M))
    bad = np.flatnonzero(np.atleast_1d(inv_cond(diff, scale)) > COND_LIMIT)
    if len(bad):
        raise SingularDifference(
            f"M_- - M_+ numerically singular at z = "
            f"{complex(np.atleast_1d(z)[bad[0]])} "
            "(z at the spectrum within resolution)")
    dinv = np.linalg.inv(diff)
    ssum = 0.5 * (mm.M + mp.M)
    m22a = mp.M @ dinv @ mm.M
    m22b = mm.M @ dinv @ mp.M
    return FullLineM(z=complex(z) if np.ndim(z) == 0 else np.asarray(z),
                     x0=float(x0), alpha=alpha,
                     m11=dinv, m12=dinv @ ssum, m21=ssum @ dinv,
                     m22=0.5 * (m22a + m22b),
                     m22_defect=matnorm(m22a - m22b),
                     plus=mp, minus=mm)


def principal_logm(mat):
    """Principal matrix logarithm v diag(log w) v^{-1}, by scipy's logm where
    cond(v) exceeds the eigenbasis cap.  Eigenvalues on the cut take the
    upper side log|w| + i*pi: a Herglotz matrix reaches the cut only as a
    real boundary value, approached from above.  Zero or non-finite
    eigenvalues raise LogBranchFailure.  mat may be a stack, taken with one
    eig and a condition guard per entry; a single matrix runs as a stack of
    one."""
    mat = np.asarray(mat, complex)
    if mat.ndim == 2:
        return principal_logm(mat[None])[0]
    w, v = np.linalg.eig(mat)
    if not np.all(np.isfinite(w)) or np.any(np.abs(w) < 1e-300):
        raise LogBranchFailure("matrix logarithm undefined: zero or "
                               "non-finite eigenvalue")
    basis = np.linalg.cond(v) <= _EIG_COND_MAX
    w, v = w[basis], v[basis]
    logw = np.log(w)
    cut = (w.real < 0) & (np.abs(w.imag) < 1e-12)
    logw[cut] = np.log(np.abs(w[cut])) + 1j * math.pi
    out = np.empty_like(mat)
    out[basis] = (v * logw[:, None, :]) @ np.linalg.inv(v)
    if not basis.all():
        import scipy.linalg
        out[~basis] = [scipy.linalg.logm(a) for a in mat[~basis]]
    if not np.all(np.isfinite(out)):
        raise LogBranchFailure("matrix logarithm did not converge")
    return out


@dataclass(frozen=True, eq=False)
class UpsilonSample:
    lam: float              # or an array of lambda, leading the axes below
    eps: float
    value: np.ndarray       # Hermitian, spectrum in [0, 1] up to tolerance
    raw: np.ndarray         # value at eps without Richardson correction


def upsilon(lam, x0, alpha, spec, eps, tol=1e-8):
    """Boundary-value sample pi^{-1} Im log M(lam + i*eps, x0, alpha), its
    eps -> 0 limit accelerated by the two-point rule 2 Y(eps) - Y(2 eps).

    lam may be a scalar or a 1-D array; lam + i*eps and lam + 2i*eps are
    evaluated as one stack of whole-line M and logs.  eps must be positive
    (at eps < 0 the formula gives -Upsilon; halfline_m refuses eps = 0).
    """
    need(eps >= 0, "upsilon", "eps >= 0", eps)
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    need(np.isfinite(lams), "upsilon", "finite lambda", lams)
    n = len(lams)
    mat = fullline_m(np.concatenate([lams + 1j * eps, lams + 2j * eps]), x0,
                     alpha, spec, tol=tol).matrix
    logm = principal_logm(mat)
    y = hermitize((logm - logm.conj().mT) / 2j) / math.pi
    raw, val = y[:n], 2.0 * y[:n] - y[n:]
    if np.ndim(lam) == 0:
        return UpsilonSample(lam=float(lam), eps=float(eps), value=val[0],
                             raw=raw[0])
    return UpsilonSample(lam=lams, eps=float(eps), value=val, raw=raw)


# ---------------------------------------------------------------------------
# Green's matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GreensMatrix:
    z: complex
    x: float
    xp: float
    value: np.ndarray


class GreensEvaluator:
    """Green's matrix G(z, x, x') of the whole-line operator for fixed z.

    Holds the whole-line M of the last x asked for (x0 for full), formed
    on first use; G does not depend on x0.  The half-line M-functions at x
    give the Weyl solutions U_+-(z, x) = (I; M_+-(x)) with no transfer, so
    the decaying solution is never carried away from where it is read.
    value() takes one x and a scalar or a 1-D array of x': on each side of
    x it reaches the x' in order of distance from x, each from its
    neighbour, so every cell between x and the x' is propagated once.  Only
    the canonical boundary data (I_m 0) is supported.
    """

    def __init__(self, z, x0, spec, tol=1e-10):
        need(math.isfinite(x0), "G(x, x')", "a finite x0", x0)
        self.z = complex(z)
        self.x0 = float(x0)
        self.spec = spec
        self.tol = tol
        self.alpha = alpha_dirichlet(spec.m)
        self._last = None
        self._prop_bar = Propagator(np.conj(self.z), spec)

    @property
    def full(self):
        """The whole-line M at x0."""
        return self._fullline_at(self.x0)

    def _fullline_at(self, x):
        """The whole-line M at x, formed anew when x changes."""
        if getattr(self._last, "x0", None) != x:
            self._last = fullline_m(self.z, x, self.alpha, self.spec,
                                    tol=self.tol)
        return self._last

    def _transfers_bar(self, x, xps):
        """T(x' <- x) at conj(z) for each x', chained outward from x:
        T(x'_k <- x) = T(x'_k <- x'_{k-1}) T(x'_{k-1} <- x)."""
        d = 2 * self.spec.m
        out = np.empty((len(xps), d, d), dtype=complex)
        for side in (xps >= x, xps < x):
            idx = np.flatnonzero(side)
            prev, t = x, np.eye(d)
            order = np.argsort(np.abs(xps[idx] - x), kind="stable")
            for i in idx[order]:
                xp = float(xps[i])
                t = self._prop_bar.transfer(prev, xp) @ t
                out[i], prev = t, xp
        return out

    def value(self, x, xp, side=None):
        """G(z, x, x') for a scalar or a 1-D array of x'; on the diagonal
        x' = x pass side=+1 (x' = x + 0) or -1 (x' = x - 0)."""
        x = float(x)
        xps = np.atleast_1d(np.asarray(xp, dtype=float))
        need(np.isfinite([x, *xps]), "G(x, x')", "finite x and x'", [x, *xps])
        diag = xps == x
        need(side in (1, -1) or not diag.any(), "G(x, x)", "side +-1", side)
        # x < x' pairs U_-(x) with U_+(x'), x > x' U_+(x) with U_-(x')
        upper = (x < xps) | (diag & (side == 1))
        full = self._fullline_at(x)
        plus, minus = full.plus.M, full.minus.M
        eye = np.eye(self.spec.m)
        left = np.where(upper[:, None, None], np.vstack([eye, minus]),
                        np.vstack([eye, plus]))
        mbar = np.where(upper[:, None, None], plus.conj().T, minus.conj().T)
        right = self._transfers_bar(x, xps) @ np.concatenate(
            [np.broadcast_to(eye, mbar.shape), mbar], axis=-2)
        val = left @ full.m11 @ right.conj().mT
        if not np.isfinite(val).all():       # |Im z| |x - x'| too large
            raise IntegrationFailure(f"G(z, x, x') not finite at x = {x}")
        if np.ndim(xp) == 0:
            return GreensMatrix(z=self.z, x=x, xp=float(xp), value=val[0])
        return GreensMatrix(z=self.z, x=x, xp=xps, value=val)

    def diagonal_m(self, x):
        """[G(z, x, x+0) + G(z, x, x-0)] / 2, the block M matrix at x."""
        gp = self.value(x, x, side=+1).value
        gm = self.value(x, x, side=-1).value
        return 0.5 * (gp + gm)


def greens_matrix(z, x, xp, x0, spec, side=None, tol=1e-10):
    """One-shot Green's matrix value; see GreensEvaluator for sweeps."""
    return GreensEvaluator(z, x0, spec, tol=tol).value(x, xp, side=side)
