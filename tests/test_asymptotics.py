import warnings

import numpy as np
import pytest

from diracweyl import (
    PotentialSpec,
    alpha_dirichlet,
    derivative_samples,
    expansion_coefficients,
    fit_expansion,
    fullline_first_coeff,
    halfline_m,
    matnorm,
    normal_form_matrix,
)
from diracweyl.asymptotics import inverse_power_fit
from diracweyl.errors import (
    IllConditionedFit,
    InsufficientDerivatives,
    SectorViolation,
)
from conftest import mplus_const_q, smooth_bump_spec

XGRID = np.linspace(-0.5, 0.5, 11)


class TestRecursion:
    def test_constant_coupling(self, const_q1):
        derivs = derivative_samples(const_q1, XGRID, 2)
        ec = expansion_coefficients(derivs, 0.0, 3, sign=1)
        assert abs(ec.coeffs[0][0, 0] - 1j) == 0.0
        assert abs(ec.coeffs[1][0, 0] + 1.0) < 1e-12
        assert abs(ec.coeffs[2][0, 0] + 0.5j) < 1e-12
        assert abs(ec.coeffs[3][0, 0]) < 1e-12

    def test_zero_potential(self, zero1):
        derivs = derivative_samples(zero1, XGRID, 3)
        ec = expansion_coefficients(derivs, 0.0, 4, sign=1)
        for k in (1, 2, 3, 4):
            assert matnorm(ec.coeffs[k]) < 1e-14

    def test_diagonal_pair(self):
        spec = PotentialSpec.constant(normal_form_matrix([[0.5]], [[0.0]]))
        derivs = derivative_samples(spec, XGRID, 0)
        ec = expansion_coefficients(derivs, 0.0, 1, sign=1)
        assert abs(ec.coeffs[1][0, 0] - 0.5j) < 1e-12

    def test_leading_term_exact(self, rng, const_q1):
        derivs = derivative_samples(const_q1, XGRID, 0)
        for sign in (1, -1):
            ec = expansion_coefficients(derivs, 0.0, 1, sign=sign)
            assert np.array_equal(ec.coeffs[0], sign * 1j * np.eye(1))

    def test_sign_symmetry_normal_form(self, rng):
        # for B11 = -B22 the first coefficients of both half lines share the
        # real part and have opposite imaginary parts
        from conftest import random_hermitian
        b = normal_form_matrix(random_hermitian(rng, 2, 0.5),
                               random_hermitian(rng, 2, 0.5))
        spec = PotentialSpec.constant(b)
        derivs = derivative_samples(spec, XGRID, 0)
        mp = expansion_coefficients(derivs, 0.0, 1, sign=1).coeffs[1]
        mm = expansion_coefficients(derivs, 0.0, 1, sign=-1).coeffs[1]
        assert matnorm((mp + mp.conj().T) / 2 - (mm + mm.conj().T) / 2) < 1e-12
        assert matnorm((mp - mp.conj().T) / 2 + (mm - mm.conj().T) / 2) < 1e-12

    def test_insufficient_derivatives(self, const_q1):
        derivs = derivative_samples(const_q1, XGRID, 0)
        with pytest.raises(InsufficientDerivatives):
            expansion_coefficients(derivs, 0.0, 3, sign=1)

    def test_requires_grid_node(self, const_q1):
        derivs = derivative_samples(const_q1, XGRID, 1)
        with pytest.raises(ValueError):
            expansion_coefficients(derivs, 0.123, 2, sign=1)


class TestFit:
    def test_constant_coupling_closed_form(self):
        samples = [(1j * y, np.array([[mplus_const_q(1j * y, 1.0)]]))
                   for y in (10.0, 20.0, 40.0, 80.0)]
        coeffs, resid = fit_expansion(samples, 2)
        assert abs(coeffs[1][0, 0] + 1.0) < 0.01
        assert abs(coeffs[2][0, 0] + 0.5j) < 0.005
        assert max(resid) < 1e-4

    def test_zero_samples(self):
        samples = [(1j * y, 1j * np.eye(1)) for y in (10.0, 20.0, 40.0, 80.0)]
        coeffs, _ = fit_expansion(samples, 2)
        assert matnorm(coeffs[1]) < 1e-9
        assert matnorm(coeffs[2]) < 1e-9

    def test_numeric_bump_matches_recursion(self):
        spec = smooth_bump_spec(n=801)
        xs = spec.pieces[0].xs
        x0 = xs[len(xs) // 4]
        derivs = derivative_samples(spec, xs, 1)
        ec = expansion_coefficients(derivs, x0, 2, sign=1)
        a0 = alpha_dirichlet(1)
        samples = [(1j * y, halfline_m(1j * y, x0, a0, spec, tol=1e-11).M)
                   for y in (40.0, 70.0, 120.0, 210.0, 360.0)]
        coeffs, _ = fit_expansion(samples, 3)
        assert abs(coeffs[1][0, 0] - ec.coeffs[1][0, 0]) \
            < 0.02 * abs(ec.coeffs[1][0, 0])
        assert abs(coeffs[2][0, 0] - ec.coeffs[2][0, 0]) \
            < 0.02 * abs(ec.coeffs[2][0, 0])

    def test_sector_policy(self):
        samples = [(y + 0.001j, np.eye(1)) for y in (10.0, 20.0, 40.0, 80.0)]
        with pytest.raises(SectorViolation):
            fit_expansion(samples, 2)

    def test_spread_policy(self):
        samples = [(1j * y, np.eye(1)) for y in (10.0, 10.5, 11.0, 11.5)]
        with pytest.raises(IllConditionedFit):
            fit_expansion(samples, 2)

    def test_weights_stay_finite(self):
        # the row weights |z|^4 overflow at |z| = 1e80: unscaled, they gave
        # NaN rows and LinAlgError from lstsq
        c0, c1 = np.array([[1j]]), np.array([[0.5 - 2j]])
        zs = 1e80j * np.array([10.0, 20.0, 40.0, 80.0, 160.0, 320.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coeffs, resid = fit_expansion([(z, c0 + c1 / z) for z in zs], 4)
        assert np.isfinite(coeffs).all() and np.isfinite(resid).all()
        assert matnorm(coeffs[0] - c0) < 1e-15

    @pytest.mark.parametrize("lo", [1e2, 1e4, 1e8, 1e12])
    def test_first_coefficient_at_large_z(self, lo):
        # the columns 1/z^k span 1 to |z|^-4; where lstsq's cutoff drops
        # the smallest, c_1 still comes out to about eps |z|
        c = [np.array([[1j]]), np.array([[0.5 - 2j]]),
             np.array([[3.0 + 1j]]), np.array([[-7.0 + 2j]])]
        zs = 1j * np.geomspace(lo, 14.5 * lo, 6) * np.exp(0.1j)
        coeffs, _ = fit_expansion(
            [(z, sum(ck / z ** k for k, ck in enumerate(c))) for z in zs], 4)
        assert matnorm(coeffs[1] - c[1]) <= 1e-12 * lo * matnorm(c[1])

    @pytest.mark.parametrize("lo, c1_gate", [
        (1e2, None), (1e4, 1e-9), (1e8, 1e-6), (1e12, None)])
    def test_inverse_power_fit_at_large_z(self, lo, c1_gate):
        # six geometric |z| from lo to 14.5 lo on arg pi/2, K = 4: c_0 stays
        # at rounding; the relative error of c_1 measured 6.2e-12, 1.4e-10,
        # 6.8e-8 and 7.7e-4 at lo = 1e2, 1e4, 1e8 and 1e12
        c = np.array([1j, 1 + 2j, -3.0, 0.5j])
        zs = 1j * np.geomspace(lo, 14.5 * lo, 6)
        got = inverse_power_fit(zs, sum(ck * zs ** -k
                                        for k, ck in enumerate(c)), 4)
        assert abs(got[0] - c[0]) <= 1e-14 * abs(c[0])
        if c1_gate is not None:
            assert abs(got[1] - c[1]) <= c1_gate * abs(c[1])

    def test_sample_count_policy(self):
        samples = [(1j * y, np.eye(1)) for y in (10.0, 40.0)]
        with pytest.raises(IllConditionedFit):
            fit_expansion(samples, 2)


class TestFullLineCoefficient:
    def test_constant_normal_form(self):
        b = normal_form_matrix([[0.3]], [[0.7]])
        spec = PotentialSpec.constant(b)
        assert matnorm(fullline_first_coeff(spec, 0.0) + 0.5j * b) < 1e-14

    def test_zero(self, zero2):
        assert matnorm(fullline_first_coeff(zero2, 1.0)) == 0.0

    def test_step_averages_sides(self):
        from diracweyl import ConstantPiece
        left = normal_form_matrix([[0.2]], [[0.4]])
        right = normal_form_matrix([[-0.6]], [[1.0]])
        spec = PotentialSpec(m=1, pieces=(ConstantPiece(0.0, 1.0, left),
                                          ConstantPiece(1.0, 2.0, right)))
        got = fullline_first_coeff(spec, 1.0)
        want = 0.5 * (-0.5j * left + -0.5j * right)
        assert matnorm(got - want) < 1e-14
