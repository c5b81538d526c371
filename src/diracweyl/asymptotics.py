"""High-energy expansion machinery: the coefficient recursion, least-squares
extraction of coefficients from M samples along a ray, and the leading
whole-line coefficient.

The expansion M_plus(z, x) ~ i I + sum_k m_k(x) z^{-k} holds uniformly in
upper half-plane sectors; its coefficients are differential polynomials in
the potential blocks (the AKNS invariants) generated by a quadratic
recursion with one x-derivative per order.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedFit, InsufficientDerivatives, SectorViolation
from .foundation import MAX_POINTS, matnorm, need

_SECTOR_ANGLE, _MIN_RATIO = 0.1, 4.0    # fit_expansion's sector, |z| spread


@dataclass(frozen=True, eq=False)
class DerivativeSamples:
    """Potential samples and finite-difference derivatives on a grid."""

    xs: np.ndarray
    b: np.ndarray          # (n, 2m, 2m)
    derivs: tuple          # derivs[k-1] = B^(k) on the grid

    @property
    def order(self):
        return len(self.derivs)

    @property
    def m(self):
        return self.b.shape[1] // 2


def derivative_samples(spec, xs, order):
    """Sample B and its first ``order`` derivatives (order-2 central
    differences, one-sided at the ends) on a strictly increasing grid."""
    xs = np.asarray(xs, float)
    need(np.isfinite(xs), "derivative samples", "a finite grid", xs)
    need(np.diff(xs) > 0, "derivative samples", "an increasing grid", xs[1:])
    need(order < 1 or len(xs) > 2, "derivatives", "3 grid nodes", len(xs))
    need(order * len(xs) <= MAX_POINTS, "derivative samples",
         f"order * (grid nodes) <= {MAX_POINTS}", order)
    b = spec.eval(xs)
    derivs = []
    cur = b
    # an overflow is caught below, as a derivative that is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, order + 1):
            cur = np.gradient(cur, xs, axis=0, edge_order=2)
            if not np.all(np.isfinite(cur)):
                raise InsufficientDerivatives(
                    f"B^({k}) is not finite on this grid: repeated "
                    "differences overflow")
            derivs.append(cur)
    return DerivativeSamples(xs=xs, b=b, derivs=tuple(derivs))


@dataclass(frozen=True, eq=False)
class ExpansionCoefficients:
    sign: int
    x: float
    coeffs: tuple          # m x m matrices, orders 0..N
    order: int


def check_order(order, n):
    """DegenerateArguments unless order >= 0 and the recursion's work, about
    order^2 stacked m x m products over n grid nodes, fits MAX_POINTS."""
    need(order >= 0, "expansion", "order >= 0", order)
    need(order * order * n <= MAX_POINTS, "expansion",
         f"order^2 * (grid nodes) <= {MAX_POINTS}", f"order {order} on "
         f"{n} nodes")


def expansion_coefficients(derivs, x, order, sign=1):
    """Coefficients m_{+-,0..order}(x) from the quadratic recursion.

    m_0 = +-i I;  m_1 = -(B12 + B21)/2 +- (i/2)(B11 - B22);
    m_{k+1} = +-(i/2) [ m_k' + sum_{l=1}^{k} m_l m_{k+1-l}
                        + sum_{l=0}^{k} m_l B22 m_{k-l}
                        + B12 m_k + m_k B21 ].
    The derivative term is taken by differentiating the lower coefficient on
    the sample grid, so order N needs derivative data through order N - 1.
    The order is bounded by check_order, and a coefficient that is not
    finite at x (the recursion overflowed) raises InsufficientDerivatives.
    """
    check_order(order, len(derivs.xs))
    if order >= 1 and derivs.order < order - 1:
        raise InsufficientDerivatives(
            f"order {order} needs B derivatives through order {order - 1}, "
            f"got {derivs.order}")
    xs = derivs.xs
    idx = np.where(np.isclose(xs, x, rtol=0, atol=1e-12))[0]
    need(len(idx) > 0, "expansion", "x at a grid node", x)
    idx = int(idx[0])

    m = derivs.m
    n = len(xs)
    b11 = derivs.b[:, :m, :m]
    b12 = derivs.b[:, :m, m:]
    b21 = derivs.b[:, m:, :m]
    b22 = derivs.b[:, m:, m:]
    eye = np.broadcast_to(np.eye(m), (n, m, m))

    mk = [sign * 1j * eye.copy()]
    if order >= 1:
        mk.append(-0.5 * (b12 + b21) + sign * 0.5j * (b11 - b22))
    # an overflow is caught below, as a coefficient that is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, order):
            dmk = np.gradient(mk[k], xs, axis=0, edge_order=2)
            quad = np.zeros_like(mk[0])
            for ell in range(1, k + 1):
                quad = quad + mk[ell] @ mk[k + 1 - ell]
            for ell in range(0, k + 1):
                quad = quad + mk[ell] @ b22 @ mk[k - ell]
            nxt = sign * 0.5j * (dmk + quad + b12 @ mk[k] + mk[k] @ b21)
            mk.append(nxt)

    coeffs = tuple(c[idx] for c in mk)
    bad = [k for k, c in enumerate(coeffs) if not np.all(np.isfinite(c))]
    if bad:
        raise InsufficientDerivatives(
            f"coefficient m_{bad[0]} at x = {xs[idx]} is not finite: the "
            f"recursion overflows before order {order}")
    return ExpansionCoefficients(sign=sign, x=float(xs[idx]), coeffs=coeffs,
                                 order=order)


def inverse_power_fit(zs, values, order):
    """Least-squares coefficients c_0..c_order, stacked, of the model
    sum_k c_k z^{-k} through values[i] at zs[i] (a 1-D array).  Rows are
    weighted by |z|^order to equalize the conditioning of the Vandermonde
    system in 1/z, with |z| scaled by the power of two near max |z| (exact)
    so that the weights stay finite.  lstsq drops a column below its
    cutoff: the data cannot resolve that c_k, which reads about 0."""
    mags = np.abs(zs)
    w = np.ldexp(mags, -np.frexp(mags.max())[1]) ** order
    design = np.vander(1.0 / zs, order + 1, increasing=True) * w[:, None]
    sol, *_ = np.linalg.lstsq(design, values.reshape(len(zs), -1) * w[:, None],
                              rcond=None)
    return sol.reshape((order + 1,) + values.shape[1:])


def fit_expansion(samples, order):
    """Weighted least squares (inverse_power_fit) for the model
    sum_k c_k z^{-k} on M samples.

    samples: iterable of (z, M).  All z must lie in the sector
    _SECTOR_ANGLE < arg z < pi - _SECTOR_ANGLE, with a magnitude spread of
    at least _MIN_RATIO.

    Returns (coeffs, residuals): coefficient matrices c_0..c_order and the
    per-sample model residual norms.
    """
    samples = list(samples)
    if len(samples) < order + 2:
        raise IllConditionedFit(
            f"need at least {order + 2} samples for order {order}")
    zs = np.array([complex(z) for z, _ in samples])
    mats = np.array([np.atleast_2d(np.asarray(v, complex)) for _, v in samples])
    args = np.angle(zs)
    if np.any((args <= _SECTOR_ANGLE) | (args >= math.pi - _SECTOR_ANGLE)):
        raise SectorViolation(f"samples must satisfy {_SECTOR_ANGLE} < arg z "
                              f"< pi - {_SECTOR_ANGLE}")
    mags = np.abs(zs)
    if mags.max() / mags.min() < _MIN_RATIO:
        raise IllConditionedFit(
            f"|z| spread {mags.max() / mags.min():.2f} below {_MIN_RATIO}")

    coeffs = inverse_power_fit(zs, mats, order)
    model = np.einsum("nk,kij->nij",
                      np.vander(1.0 / zs, order + 1, increasing=True), coeffs)
    return tuple(coeffs), matnorm(mats - model).tolist()


def averaged_combination(spec, x):
    """[comb(B(x+0)) + comb(B(x-0))] / 2, the one-sided combination matrices
    comb(B) = [[B11 - B22, B12 + B21], [B12 + B21, B22 - B11]] averaged."""
    m = spec.m
    total = 0
    for side in (+1, -1):
        b = spec.eval(x, side=side)
        d, s = b[:m, :m] - b[m:, m:], b[:m, m:] + b[m:, :m]
        total = total + np.block([[d, s], [s, -d]])
    return 0.5 * total


def fullline_first_coeff(spec, x):
    """Leading 1/z coefficient of the whole-line M: the averaged one-sided
    combination matrix times -i/4."""
    return -0.25j * averaged_combination(spec, x)
