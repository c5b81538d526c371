import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracweyl import (
    ConstantPiece,
    GridPiece,
    PotentialSpec,
    Propagator,
    alpha_dirichlet,
    band_spectrum,
    fundamental_system,
    halfline_m,
    jmat,
    load_potential,
    matnorm,
    normal_form,
    normal_form_matrix,
    save_potential,
    symplectic_defect,
    system_matrix,
    truncate_potential,
    weyl_solution_volterra,
)
from diracweyl import propagator
from diracweyl.errors import (
    DegenerateArguments,
    IntegrationFailure,
    IterationDivergence,
    MismatchedEvaluation,
    NoCompactSupport,
)
from diracweyl.propagator import (
    _COSH_TAYLOR,
    _SINHC_SERIES,
    _SINHC_TAYLOR,
    _expm,
    _expm2,
    _expm_ham,
    _expm_pade,
    _matpow,
    _minus_j,
    _mul,
    magnus_steps,
)
from conftest import (
    KP2_PIECES,
    const_transfer_eig,
    count_calls,
    count_eig,
    free_psi,
    kp2_spec,
    random_boundary,
    random_hermitian,
    random_hermitian_spec,
    smooth_bump_spec,
)

CONST_B = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def shoulder_bump_spec():
    """A 21-node bump on the middle half of [0, 1] between flat zero
    shoulders, and a constant tail on [1, 2].  A flat cell takes one Magnus
    step, whose |mu| = h |z| = |z| / 20 passes 0.5 from |z| = 10 on; the
    bump's cells take many steps of |mu| < 0.2."""
    xs = np.linspace(0.0, 1.0, 21)
    f = np.where(np.abs(xs - 0.5) < 0.25,
                 0.8 * np.sin(2 * np.pi * (xs - 0.25)) ** 2, 0.0)
    return PotentialSpec(m=1, pieces=(
        GridPiece(xs, np.array([normal_form_matrix([[0.0]], [[fj]])
                                for fj in f])),
        ConstantPiece(1.0, 2.0, normal_form_matrix([[0.0]], [[1.0]]))))


def shoulder_bump_zs():
    """|z| = 1, 2, ..., 512 alternating between the rays arg pi/2 and pi/4."""
    r = math.sqrt(0.5)
    return np.array([complex(0.0, 2.0 ** k) if k % 2 == 0
                     else complex(r * 2.0 ** k, r * 2.0 ** k)
                     for k in range(10)])


class TestFundamentalSystem:
    def test_free_closed_form(self, rng, zero1):
        z, x, x0 = 0.8 - 0.4j, 1.7, 0.2
        for m, spec in ((1, zero1), (2, PotentialSpec.zero(2))):
            alpha = random_boundary(rng, m)
            fs = fundamental_system(z, x, x0, alpha, spec)
            theta, phi = free_psi(z, x, x0, alpha)
            assert matnorm(fs.theta - theta) < 1e-12
            assert matnorm(fs.phi - phi) < 1e-12

    def test_initial_condition_exact(self, rng, zero2):
        alpha = random_boundary(rng, 2)
        fs = fundamental_system(1j, 0.5, 0.5, alpha, zero2)
        assert np.array_equal(fs.psi, alpha.psi0())

    def test_constant_matches_eig_oracle(self):
        spec = PotentialSpec.constant(CONST_B)
        alpha = alpha_dirichlet(1)
        fs = fundamental_system(2j, 1.0, 0.0, alpha, spec)
        oracle = const_transfer_eig(2j, CONST_B, 1.0)
        assert matnorm(fs.psi - oracle) < 1e-8

    def test_ode_path_matches_eig_oracle(self, rng):
        # same constant coefficient forced through the sampled-grid solver
        b = normal_form_matrix([[0.3]], [[0.8]])
        xs = np.array([0.0, 1.0])
        spec = PotentialSpec(m=1, pieces=(GridPiece(xs, np.array([b, b])),))
        alpha = random_boundary(rng, 1)
        z = 1.3 + 0.9j
        fs = fundamental_system(z, 1.0, 0.0, alpha, spec)
        oracle = const_transfer_eig(z, b, 1.0) @ alpha.psi0()
        assert matnorm(fs.psi - oracle) < 1e-9

    def test_constant_m2_matches_eig_oracle(self, rng):
        from conftest import random_hermitian
        b = np.zeros((4, 4), complex)
        b[:2, :2] = random_hermitian(rng, 2, 0.5)
        b[2:, 2:] = random_hermitian(rng, 2, 0.5)
        off = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b[:2, 2:] = off
        b[2:, :2] = off.conj().T
        spec = PotentialSpec.constant(b)
        alpha = alpha_dirichlet(2)
        z = 0.4 + 1.1j
        fs = fundamental_system(z, 0.8, -0.2, alpha, spec)
        oracle = const_transfer_eig(z, b, 1.0) @ alpha.psi0()
        assert matnorm(fs.psi - oracle) < 1e-9

    def test_periodic_power_path(self):
        # long span across many periods vs the unrolled truncation
        pieces = (ConstantPiece(0.0, 0.4, normal_form_matrix([[0.2]], [[0.5]])),
                  ConstantPiece(0.4, 1.0, normal_form_matrix([[-0.1]], [[0.0]])))
        per = PotentialSpec(m=1, pieces=pieces, period=1.0)
        z = 0.7 + 0.05j
        x0, x1 = 0.15, 9.45
        unrolled = truncate_potential(per, -1.0, 11.0)
        t_per = Propagator(z, per).transfer(x0, x1)
        t_unr = Propagator(z, unrolled).transfer(x0, x1)
        assert matnorm(t_per - t_unr) < 1e-9 * matnorm(t_unr)
        # and backwards
        t_per_b = Propagator(z, per).transfer(x1, x0)
        t_unr_b = Propagator(z, unrolled).transfer(x1, x0)
        assert matnorm(t_per_b - t_unr_b) < 1e-9 * matnorm(t_unr_b)

    @pytest.mark.parametrize("z", [2 + 1j, 2 - 1j, 0.3 + 2j])
    def test_period_power_carries_decaying_solution(self, z):
        # on a constant periodic q = 1 an eigenvector v of A = -J (zI + B)
        # is carried exactly, T(xa + d <- xa) v = e^{lam d} v; with lam the
        # eigenvalue that decays along the span, the error may grow like
        # eps e^{2 |Re lam d|} but no faster, in either direction.  A
        # backward span that overshot xb by a period and came back lost
        # up to 20 times that
        spec = PotentialSpec.constant(normal_form_matrix([[0.0]], [[1.0]]),
                                      period=1.0)
        lam, vec = np.linalg.eig(system_matrix(z, spec.pieces[0].value))
        prop = Propagator(z, spec)
        for d in np.concatenate([np.linspace(2.05, 6.0, 30),
                                 -np.linspace(2.05, 6.0, 30)]):
            i = np.argmin((lam * d).real)
            want = np.exp(lam[i] * d) * vec[:, i]
            for xa in (0.0, 0.3, 0.5):
                got = prop.transfer(xa, xa + d) @ vec[:, i]
                err = np.linalg.norm(got - want) / np.linalg.norm(want)
                assert err <= 5e-16 * np.exp(2 * abs((lam[i] * d).real))

    def test_periodic_sampled_potential(self):
        # sampled (grid-piece) period cell through the powering path
        xs = np.linspace(0.0, 1.0, 41)
        vals = np.array([normal_form_matrix(
            [[0.1 * np.cos(2 * np.pi * x)]],
            [[0.5 + 0.4 * np.sin(2 * np.pi * x)]]) for x in xs])
        vals[-1] = vals[0]
        spec = PotentialSpec.from_samples(xs, vals, period=1.0)
        z = 0.8 + 0.6j
        unrolled = truncate_potential(spec, -1.0, 14.0)
        t1 = Propagator(z, spec).transfer(0.25, 12.55)
        t2 = Propagator(z, unrolled).transfer(0.25, 12.55)
        assert matnorm(t1 - t2) < 1e-7 * matnorm(t2)
        h = halfline_m(1.5j, 0.25, alpha_dirichlet(1), spec)
        im = (h.M - h.M.conj().T) / 2j
        assert np.linalg.eigvalsh(im)[0] > 0


class TestMatpow:
    @pytest.mark.parametrize("k", [1, -1, 50, -50, 1000, -1000])
    def test_defective_matrix_by_binary_powering(self, k):
        # binary powering of a Jordan block's integer entries is exact
        t = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        assert np.array_equal(_matpow(t, k), [[1, k], [0, 1]])

    @pytest.mark.parametrize("k", [7, -7])
    def test_binary_powering_matches_repeated_products(self, rng, k):
        t = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        t /= max(abs(np.linalg.eigvals(t)))
        base = t if k > 0 else np.linalg.inv(t)
        want = np.eye(4, dtype=complex)
        for _ in range(abs(k)):
            want = base @ want
        assert matnorm(_matpow(t, k) - want) < 1e-12 * matnorm(want)


class TestExpm2:
    """The closed-form 2x2 exponential against scipy's Pade expm and
    exact values."""

    def test_matches_scipy_expm(self, rng):
        from scipy.linalg import expm
        a = rng.normal(size=(400, 2, 2)) + 1j * rng.normal(size=(400, 2, 2))
        a *= rng.uniform(0.0, 3.0, size=(400, 1, 1)) / np.linalg.norm(
            a, 2, axis=(-2, -1))[:, None, None]
        got = _expm2(a)
        for g, x in zip(got, a):
            want = expm(x)
            assert matnorm(g - want) <= 1e-14 * matnorm(want)

    @pytest.mark.parametrize("h", [1e-8, 0.3, -2.0, 1.5j])
    def test_jordan_block(self, h):
        got = _expm2(h * np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))
        want = np.exp(h) * np.array([[1.0, h], [0.0, 1.0]])
        assert matnorm(got - want) <= 1e-15 * matnorm(want)

    @pytest.mark.parametrize("kind", ["hyperbolic", "oscillatory"])
    def test_continuous_across_series_switch(self, kind):
        # |mu| just below 0.5 takes the Taylor series of sinh(mu) / mu, at
        # 0.5 the exponential difference; mu^2 = x^2 or -x^2 exactly
        def omega(x):
            if kind == "hyperbolic":
                return np.array([[x, 1.0], [0.0, -x]], dtype=complex)
            return np.array([[0.0, x], [-x, 0.0]], dtype=complex)

        lo, hi = np.nextafter(0.5, 0.0), 0.5
        assert matnorm(_expm2(omega(lo)) - _expm2(omega(hi))) <= 1e-15
        for x in (lo, hi):
            if kind == "hyperbolic":
                want = [[np.exp(x), np.sinh(x) / x], [0.0, np.exp(-x)]]
            else:
                want = [[np.cos(x), np.sin(x)], [-np.sin(x), np.cos(x)]]
            assert matnorm(_expm2(omega(x)) - np.array(want)) <= 1e-15

    @pytest.mark.parametrize("theta", [0.3, 2.0, -7.5])
    def test_real_rotation_generator(self, theta):
        # mu^2 = -theta^2 < 0: a real square root would be NaN
        got = _expm2(np.array([[0.0, theta], [-theta, 0.0]]))
        c, s = math.cos(theta), math.sin(theta)
        assert got.dtype == np.float64 and np.isfinite(got).all()
        assert matnorm(got - np.array([[c, s], [-s, c]])) <= 1e-15

    def test_skew_hermitian_gives_unitary(self, rng):
        a = rng.normal(size=(200, 2, 2)) + 1j * rng.normal(size=(200, 2, 2))
        a = a - np.swapaxes(a.conj(), -1, -2)
        u = _expm2(a)
        for x in u:
            assert matnorm(x.conj().T @ x - np.eye(2)) <= 1e-14

    def test_overflow_is_nonfinite_without_warning(self):
        # a long span at z = 5i: e^{2000} overflows, which the QR carry
        # detects and bisects
        omega = system_matrix(5j, np.zeros((2, 2))) * 400.0
        with np.errstate(all="raise", under="ignore"):
            got = _expm2(omega)
        assert not np.all(np.isfinite(got))

    @staticmethod
    def _unmasked(omega):
        """The closed form with both branches formed over the whole stack
        and one picked by np.where: below |mu| = 0.5 the Taylor series of
        cosh(mu) and sinh(mu) / mu in u = mu^2 times e^t, elsewhere
        e^{t + mu} and e^{t - mu}."""
        t = 0.5 * (omega[..., 0, 0] + omega[..., 1, 1])
        n00 = omega[..., 0, 0] - t
        u = n00 * n00 + omega[..., 0, 1] * omega[..., 1, 0]
        mu = np.sqrt(u.astype(complex))
        # e^(t +- mu) with the rounding error r of t +- mu as 1 + r
        sp, sm = t + mu, t - mu
        ep = np.exp(sp) * (1 + ((t - (sp - (sp - t))) + (mu - (sp - t))))
        em = np.exp(sm) * (1 + ((t - (sm - (sm - t))) + (-mu - (sm - t))))
        small = np.abs(u) < _SINHC_SERIES ** 2
        cosh, sinhc = _COSH_TAYLOR[-1], _SINHC_TAYLOR[-1]
        for ccoef, scoef in zip(_COSH_TAYLOR[-2::-1], _SINHC_TAYLOR[-2::-1]):
            cosh, sinhc = cosh * u + ccoef, sinhc * u + scoef
        c, s = 0.5 * (ep + em), (ep - em) / (2 * np.where(small, 1, mu))
        if not np.iscomplexobj(omega):
            c, s = c.real, s.real
        c = np.where(small, np.exp(t) * cosh, c)
        s = np.where(small, np.exp(t) * sinhc, s)
        out = np.empty(omega.shape, dtype=np.result_type(omega, float))
        out[..., 0, 0] = c + s * n00
        out[..., 1, 1] = c - s * n00
        out[..., 0, 1] = s * omega[..., 0, 1]
        out[..., 1, 0] = s * omega[..., 1, 0]
        return out

    @staticmethod
    def _exact_scalar_part(rng, kind, mu_abs, t_abs):
        """t I + n with |mu| = mu_abs and |t| = t_abs, where t and n00 lie
        on the grid of ulp(|t| + 1), so that tr / 2 and omega00 - t are
        exact; the rounding of a general diagonal moves t by up to |t| eps,
        the exponential's own condition number, which no formula avoids."""
        n = rng.normal(size=3) + (1j * rng.normal(size=3) if kind is complex
                                  else 0)
        n *= mu_abs / abs(np.sqrt(n[0] ** 2 + n[1] * n[2] + 0j))
        t = t_abs * (np.exp(2j * np.pi * rng.uniform()) if kind is complex
                     else rng.choice([-1.0, 1.0]))
        q = 2.0 ** (math.frexp(t_abs + 1.0)[1] - 52)
        t, n00 = (np.round(x.real / q) * q + (
            1j * np.round(x.imag / q) * q if kind is complex else 0)
                  for x in (np.complex128(t), np.complex128(n[0])))
        omega = np.array([[t + n00, n[1]], [n[2], t - n00]])
        assert 0.5 * (omega[0, 0] + omega[1, 1]) == t
        assert omega[0, 0] - t == n00
        return omega

    @pytest.mark.parametrize("kind", [float, complex])
    def test_matches_mpmath(self, rng, kind):
        # |mu| from 1e-9 to 0.7, on both sides of the series switch, with
        # scalar parts up to |t| = 700: within 4 eps of a 40-digit
        # exponential on each side
        mpmath = pytest.importorskip("mpmath")
        worst = {True: [], False: []}       # by |mu| < 0.5
        mus = np.concatenate([np.logspace(-9, math.log10(0.49), 12),
                              np.linspace(0.5, 0.7, 6)])
        for t_abs in (0.0, 1.0, 30.0, 700.0):
            for mu_abs in mus:
                omega = self._exact_scalar_part(rng, kind, mu_abs, t_abs)
                with mpmath.workdps(40):
                    want = np.array(mpmath.expm(mpmath.matrix(
                        omega.tolist())).tolist(), dtype=complex)
                got = _expm2(omega)
                assert got.dtype == omega.dtype
                n00 = omega[0, 0] - 0.5 * (omega[0, 0] + omega[1, 1])
                small = abs(n00 * n00 + omega[0, 1] * omega[1, 0]) < 0.25
                worst[small].append(matnorm(got - want) / matnorm(want))
        assert len(worst[True]) >= 40 and len(worst[False]) >= 20
        eps = np.finfo(float).eps
        assert max(worst[True]) <= 4 * eps and max(worst[False]) <= 4 * eps

    @pytest.mark.parametrize("kind", [complex, float])
    def test_masked_branches_bit_for_bit(self, rng, kind):
        # |mu| spread over both sides of the series switch at 0.5, with
        # scalar parts, in one stack, and the (z, cell) shape of the Magnus
        # kernel; every entry forms only the branch it takes
        a = rng.normal(size=(3, 200, 2, 2))
        if kind is complex:
            a = a + 1j * rng.normal(size=(3, 200, 2, 2))
        a *= np.logspace(-3, 0.8, 200)[:, None, None]
        small = np.abs(np.sqrt(
            (a[..., 0, 0] - a[..., 1, 1]) ** 2 / 4
            + a[..., 0, 1] * a[..., 1, 0] + 0j)) < _SINHC_SERIES
        assert 0.2 < small.mean() < 0.8
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _expm2(a)
        assert got.dtype == a.dtype
        assert np.array_equal(got, self._unmasked(a))
        # written over the input, and for a stack of one, where NumPy rounds
        # a complex product written over one of its operands differently
        work = a.copy()
        assert _expm2(work, overwrite=True) is work
        assert np.array_equal(work, got)
        for row, want in zip(a[0], got[0]):
            one = row[None].copy()
            for res in (_expm2(row[None]), _expm2(one, overwrite=True)):
                assert np.array_equal(res[0], want)


class TestMul:
    @staticmethod
    def _stack(rng, shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("sa,sb", [
        ((7,), (7,)),              # step accumulation
        ((), (7,)),                # one factor against a stack
        ((5, 3), (5, 3)),          # (z, cell) stacks of the pairwise product
        ((5, 1), (5, 3)),
    ])
    def test_matches_matmul(self, rng, d, sa, sb):
        a = self._stack(rng, sa + (d, d))
        b = self._stack(rng, sb + (d, d))
        want = a @ b
        got = _mul(a, b)
        assert got.shape == want.shape
        err = np.linalg.norm(got - want, axis=(-2, -1))
        size = (np.linalg.norm(a, axis=(-2, -1))
                * np.linalg.norm(b, axis=(-2, -1)))
        assert np.all(err <= 1e-15 * size)

    def test_single_pair_is_its_stack_row(self, rng):
        a = self._stack(rng, (200, 2, 2))
        b = self._stack(rng, (200, 2, 2))
        rows = np.array([_mul(x, y) for x, y in zip(a, b)])
        assert np.array_equal(_mul(a, b), rows)

    def test_overflow_is_nonfinite_without_warning(self):
        big = np.full((3, 2, 2), 1e200 + 1e200j)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert not np.isfinite(_mul(big, big)).any()


class TestExpmPade:
    """The stacked [13/13] Pade exponential against scipy's expm, closed
    forms and the structure it must preserve."""

    @staticmethod
    def _random(rng, n, d, max_norm):
        a = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
        return a * rng.uniform(0.0, max_norm, size=(n, 1, 1)) / np.linalg.norm(
            a, 1, axis=(-2, -1))[:, None, None]

    @pytest.mark.parametrize("d", [4, 6])
    @pytest.mark.parametrize("max_norm,tol", [(3.0, 1e-14), (80.0, 1e-13)])
    def test_matches_scipy_expm(self, rng, d, max_norm, tol):
        # norms up to 80 need up to four squarings
        from scipy.linalg import expm
        a = self._random(rng, 200, d, max_norm)
        for g, x in zip(_expm_pade(a), a):
            want = expm(x)
            assert matnorm(g - want) <= tol * matnorm(want)

    @pytest.mark.parametrize("h", [1e-8, 0.3, -2.0, 1.5j, 12.0])
    def test_jordan_block(self, h):
        n = np.eye(4, k=1)
        got = _expm_pade(h * (np.eye(4) + n).astype(complex))
        want = np.exp(h) * (np.eye(4) + h * n + h ** 2 / 2 * n @ n
                            + h ** 3 / 6 * n @ n @ n)
        assert matnorm(got - want) <= 1e-15 * matnorm(want)

    def test_hamiltonian_gives_symplectic(self, rng):
        # J^{-1} times a complex symmetric matrix is Hamiltonian: J H = S
        # with S^T = S, and e^H satisfies F^T J F = J
        j = jmat(2)
        s = rng.normal(size=(100, 4, 4)) + 1j * rng.normal(size=(100, 4, 4))
        f = _expm_pade(-j @ (s + np.swapaxes(s, -1, -2)))
        for x in f:
            assert matnorm(x.T @ j @ x - j) <= 1e-13 * matnorm(x) ** 2

    def test_skew_hermitian_gives_unitary(self, rng):
        a = self._random(rng, 100, 4, 20.0)
        u = _expm_pade(a - np.swapaxes(a.conj(), -1, -2))
        for x in u:
            assert matnorm(x.conj().T @ x - np.eye(4)) <= 1e-13

    def test_large_span_rescaled_stays_finite(self):
        # the m = 2 analogue of test_large_z_rescaled: z = 500i over span 2
        # with the rescale folded in
        z = 500j
        a = system_matrix(z, np.zeros((4, 4))) + 1j * z * np.eye(4)
        got = _expm_pade(2.0 * a)
        assert np.all(np.isfinite(got))
        assert 0.5 <= matnorm(got) <= 1.0 + 1e-12

    def test_overflow_is_nonfinite_without_warning(self):
        # e^800 overflows, which the QR carry detects and bisects
        a = np.diag([800.0, -800.0, 1.0, 1.0]).astype(complex)
        with warnings.catch_warnings(), \
                np.errstate(all="raise", under="ignore"):
            warnings.simplefilter("error")
            got = _expm_pade(a)
        assert not np.all(np.isfinite(got))

    def test_mixed_norm_stack_bit_for_bit(self, rng):
        # entries with different numbers of squarings and scalar parts,
        # stacked and alone
        a = self._random(rng, 24, 4, 1.0) * np.logspace(
            -4, 2.5, 24)[:, None, None]
        a += (10.0 * rng.normal(size=24) + 10j * rng.normal(size=24))[
            :, None, None] * np.eye(4)
        stacked = _expm_pade(a)
        assert np.all(np.isfinite(stacked))
        for g, x in zip(stacked, a):
            assert np.array_equal(g, _expm_pade(x))


class TestExpmHam:
    """The closed-form exponential of real 4x4 Hamiltonian X + lam Y (the
    float64 m = 2 path for constant pieces) against a 40-digit reference,
    and the structure it must preserve."""

    J = jmat(2).real
    Y = _minus_j(np.eye(4))       # -J, squares to -I

    @staticmethod
    def _reference(x, y, lam):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            n = (mpmath.matrix(x.tolist())
                 + float(lam) * mpmath.matrix(y.tolist()))
            return np.array(mpmath.expm(n).tolist(), dtype=float)

    @classmethod
    def _cases(cls, rng, count, max_norm):
        """(X, Y, lam) with X = -J S for an exactly symmetric S, Y = h (-J)
        and ||X + lam Y||_1 uniform up to max_norm."""
        for _ in range(count):
            s = rng.normal(size=(4, 4))
            lam, h = rng.uniform(-1.0, 1.0), rng.uniform(0.2, 2.0)
            n = _minus_j(s + s.T) + lam * cls.Y
            c = rng.uniform(0.0, max_norm) / np.linalg.norm(n, 1)
            yield _minus_j(c * (s + s.T)), h * cls.Y, c * lam / h

    # dyadic entries, so n^2 and its invariants tau = tr(n^2) / 4 and
    # D = tr(N0^2) / 4 are exact; the kind of the eigenvalues +-r1, +-r2 of
    # n at lam = 0: n^2 = 0, D = 0 (two equal decoupled channels), tau = 0,
    # r1, r2 real, imaginary, one of each, or a complex quadruple (D < 0)
    SPECIAL = {
        "nilpotent": np.kron([[1.0, 1.0], [1.0, 1.0]], np.eye(2)),
        "equal hyperbolic": np.kron([[0.25, 1.0], [1.0, -0.5]], np.eye(2)),
        "equal oscillatory": np.kron([[1.5, 0.5], [0.5, 2.5]], np.eye(2)),
        "tau = 0": np.diag([0.0, 2.0, 0.0, 2.0])
        + np.kron([[0.0, 2.0], [2.0, 0.0]], np.diag([1.0, 0.0])),
        "hyperbolic": np.kron([[0.0, 1.0], [1.0, 0.0]],
                              [[1.25, 0.5], [0.5, 0.75]]),
        "oscillatory": np.array([[2.0, 0.25, 0.5, 0.125],
                                 [0.25, 1.0, 0.25, 0.5],
                                 [0.5, 0.25, 1.5, 0.0],
                                 [0.125, 0.5, 0.0, 3.0]]),
        "mixed": np.diag([0.0, 1.0, 0.0, 1.0]) + np.array(
            [[0.0, 0.25, 1.0, 0.125], [0.25, 0.0, 0.125, 0.0],
             [1.0, 0.125, 0.0, 0.25], [0.125, 0.0, 0.25, 0.0]]),
        "quadruple": np.array([[0.25, 1.0, 0.5, 0.25],
                               [1.0, -0.5, 0.25, 0.75],
                               [0.5, 0.25, 1.0, -0.25],
                               [0.25, 0.75, -0.25, 0.125]]),
    }

    @staticmethod
    def _kind(n):
        n2 = n @ n
        tau = np.trace(n2) / 4
        n0 = n2 - tau * np.eye(4)
        d = np.trace(n0 @ n0) / 4
        if not n2.any():
            return "nilpotent"
        if d < 0:
            return "quadruple"
        if d == 0:
            return "equal " + ("hyperbolic" if tau > 0 else "oscillatory")
        if tau == 0:
            return "tau = 0"
        w = sorted((tau - math.sqrt(d), tau + math.sqrt(d)))
        return ("hyperbolic" if w[0] > 0 else "oscillatory" if w[1] < 0
                else "mixed")

    @pytest.mark.parametrize("max_norm,tol", [(3.0, 1e-14), (80.0, 1e-13)])
    def test_matches_mpmath(self, rng, max_norm, tol):
        for x, y, lam in self._cases(rng, 40, max_norm):
            got = _expm_ham(x[None], y[None], np.array([lam]))[0, 0]
            want = self._reference(x, y, lam)
            assert matnorm(got - want) <= tol * matnorm(want)
            assert (matnorm(got.T @ self.J @ got - self.J)
                    <= 1e-13 * matnorm(got) ** 2)

    @pytest.mark.parametrize("name", list(SPECIAL))
    @pytest.mark.parametrize("scale", [1 / 16, 1.0, 4.0])
    def test_special_exponents(self, name, scale):
        # at lam = 0 and at lam = 0.75 with Y = -J, which shifts both
        # channels alike
        x = _minus_j(scale * self.SPECIAL[name])
        assert self._kind(x) == name
        for lam in (0.0, 0.75):
            got = _expm_ham(x[None], self.Y[None], np.array([lam]))[0, 0]
            want = self._reference(x, self.Y, lam)
            assert matnorm(got - want) <= 1e-14 * matnorm(want)
            assert (matnorm(got.T @ self.J @ got - self.J)
                    <= 1e-13 * matnorm(got) ** 2)

    def test_overflow_is_nonfinite_without_warning(self):
        # rates 800 and 1 on two hyperbolic channels: e^800 overflows,
        # which the monodromy check reports
        x = _minus_j(np.kron([[0.0, 1.0], [1.0, 0.0]], np.diag([800.0, 1.0])))
        with warnings.catch_warnings(), \
                np.errstate(all="raise", under="ignore"):
            warnings.simplefilter("error")
            got = _expm_ham(x[None], self.Y[None], np.array([0.0, 0.5]))
        assert not np.isfinite(got).all()

    def test_stack_rows_bit_for_bit(self, rng):
        # lambda on both sides of every branch switch (|delta / sigma| at
        # 1/2, the series below |x| = 0.5 and 1), three pieces including a
        # D = 0 one, and more lambda than a band_spectrum block (1226); each
        # row equals its stack of one and each piece its stack of one piece
        x = np.stack([x for x, _, _ in self._cases(rng, 2, 6.0)]
                     + [_minus_j(self.SPECIAL["equal hyperbolic"])])
        y = np.stack([0.5 * self.Y, self.Y, 1.5 * self.Y])
        lams = np.concatenate([np.linspace(-8.0, 8.0, 161),
                               rng.uniform(-200.0, 200.0, 40), [0.0],
                               rng.uniform(-20.0, 20.0, 1024)])
        stacked = _expm_ham(x, y, lams)
        assert stacked.shape == (3, len(lams), 4, 4)
        assert np.isfinite(stacked).all()
        for k in range(3):
            assert np.array_equal(
                stacked[k], _expm_ham(x[k:k + 1], y[k:k + 1], lams)[0])
        for i, lam in enumerate(lams):
            assert np.array_equal(stacked[:, i],
                                  _expm_ham(x, y, lams[i:i + 1])[:, 0])

    def test_kp2_block_memory(self):
        # kp2's two pieces at 1024 lambda, a 256 KB result: the kernel
        # traced 2240 KB (8.75 times it) when it summed (pieces, 16, lambda)
        # temporaries and copied them transposed, 858 KB assembling
        # lambda-major in place
        x, y = (np.stack(a) for a in zip(*[
            (_minus_j(b.real) * (hi - lo), _minus_j(np.eye(4)) * (hi - lo))
            for lo, hi, b in KP2_PIECES]))
        lams = np.linspace(-8.0, 8.0, 1024)
        _expm_ham(x, y, lams[:8])
        tracemalloc.start()
        try:
            out = _expm_ham(x, y, lams)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.nbytes == 256 * 2 ** 10
        assert peak < 6 * out.nbytes


class TestWorkCounts:
    """Deterministic LAPACK call counts: loading a 1601-node m = 1 grid
    checks all samples in one stacked SVD, the half-line M takes its 2x2
    exponentials in closed form and one eig of the 2x2 tail generator, and
    the 4x4 exponentials and period powers of kp2 take no
    eigendecomposition."""

    @staticmethod
    def _counting(monkeypatch, name):
        calls = []
        orig = getattr(np.linalg, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return orig(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
        return calls

    def test_load_and_halfline(self, tmp_path, monkeypatch):
        xs = np.linspace(0.0, 1.0, 1601)
        vals = np.array([normal_form_matrix([[0.2 * np.sin(3 * x)]],
                                            [[np.exp(-20 * (x - 0.5) ** 2)]])
                         for x in xs])
        path = tmp_path / "grid.json"
        save_potential(PotentialSpec.from_samples(xs, vals), path)
        svd = self._counting(monkeypatch, "svd")
        under, outside = count_eig(monkeypatch)
        spec = load_potential(path)
        assert len(svd) <= 2
        assert np.array_equal(spec.pieces[0].values, vals)
        h = halfline_m(64j, 0.0, alpha_dirichlet(1), spec)
        # no eig under the propagator; the decaying subspace takes one (a
        # scalar z runs as a stack of one)
        assert under == [] and [s[-2:] for s in outside] == [(2, 2)]
        assert np.isfinite(h.M).all()

    def test_kp2_bands(self, monkeypatch):
        # real lambda on kp2's exactly symmetric pieces: the closed form
        # _expm_ham, no linear solve
        eig = self._counting(monkeypatch, "eig")
        cond = self._counting(monkeypatch, "cond")
        solve = self._counting(monkeypatch, "solve")
        bands = band_spectrum(kp2_spec(), np.linspace(-8.0, 8.0, 4001))
        assert eig == [] and cond == [] and solve == []
        assert bands.bands and bands.gaps

    @pytest.mark.parametrize("z,scale", [(np.array([0.3 + 0j, -1.0]), 0),
                                         (np.array([0.3, -1.0]), 1),
                                         (-1.0 + 0j, 0)])
    def test_kp2_complex_coefficient_takes_pade(self, monkeypatch, z, scale):
        # a complex-typed z, or a rescale, makes the coefficient complex:
        # one stacked Pade call with its one solve per period walk
        solve = self._counting(monkeypatch, "solve")
        t = Propagator(z, kp2_spec()).transfer(0.0, 1.0, scale)
        assert solve == ["solve"]
        assert np.iscomplexobj(t) and np.isfinite(t).all()

    def test_kp2_period_power(self, monkeypatch):
        eig = self._counting(monkeypatch, "eig")
        t = Propagator(np.array([0.3 + 0.2j, -1.0]), kp2_spec()).transfer(
            0.1, 7.45)
        assert eig == []
        assert np.isfinite(t).all()


class TestStackedZ:
    """A Propagator built on an array of z gives, row by row, the transfers
    of Propagators built on each z alone."""

    ZS = np.array([-3.1, -0.4, 0.0, 0.7 + 0.05j, 2.2 + 1.5j, 5.0])
    # inside one period, backwards, and over more than two periods (the
    # period power)
    SPANS = [(0.1, 0.85), (0.9, 0.2), (0.3, 7.45), (5.2, 0.1)]

    @staticmethod
    def _rows(spec, zs, a, b, scale=0):
        stacked = Propagator(zs, spec).transfer(a, b, scale)
        single = np.array([Propagator(z, spec).transfer(a, b, scale)
                           for z in zs])
        assert stacked.shape == single.shape == (len(zs),) + (2 * spec.m,) * 2
        return stacked, single

    @pytest.mark.parametrize("a,b", SPANS)
    @pytest.mark.parametrize("scale", [0, 1])
    def test_constant_pieces_bit_for_bit(self, a, b, scale):
        stacked, single = self._rows(kp2_spec(), self.ZS, a, b, scale)
        assert np.array_equal(stacked, single)

    @pytest.mark.parametrize("a,b", SPANS)
    def test_grid_pieces(self, a, b, monkeypatch):
        # m = 2 with a zero-mean scalar part, so the gauge factors return to
        # I after one period and the normal form stays periodic
        xs = np.linspace(0.0, 1.0, 41)
        c, s = np.cos(2 * np.pi * xs), np.sin(2 * np.pi * xs)
        vals = np.array([
            normal_form_matrix([[0.3 * ci, 0.1], [0.1, -0.2]],
                               [[0.5 + 0.2 * si, 0.05], [0.05, 0.7]])
            + 0.3 * si * np.eye(4) for ci, si in zip(c, s)])
        vals[-1] = vals[0]
        spec = normal_form(PotentialSpec.from_samples(xs, vals, period=1.0),
                           0.0, 1.0)
        assert spec.is_periodic and spec.pieces[0].kind == "grid"
        # at 4096 (z, cell) pairs per batch, 40 z split the 200 cells into
        # Magnus batches of 64
        monkeypatch.setattr(propagator, "_CELL_BLOCK", 4096)
        zs = np.concatenate([self.ZS, np.linspace(-4.0, 4.0, 34) + 0.05j])
        assert propagator._CELL_BLOCK // len(zs) < len(spec.pieces[0].xs) - 1
        stacked, single = self._rows(spec, zs, a, b)
        err = np.max(np.abs(stacked - single), axis=(-2, -1))
        assert np.all(err <= 1e-13 * np.max(np.abs(single), axis=(-2, -1)))

    @pytest.mark.parametrize("a,b", SPANS)
    def test_jordan_block_rows(self, a, b):
        # at lambda = +-1 the q = 1 coefficient is a Jordan block (two of
        # them for m = 2); those rows, their exponentials and the period
        # power come out of the stack exactly as they do alone
        zs = np.array([-2.0, -1.0, 0.0, 0.5, 1.0, 2.5 + 0.1j])
        for m in (1, 2):
            q = normal_form_matrix(np.zeros((m, m)), np.eye(m))
            for lam in (-1.0, 1.0):
                a_lam = system_matrix(lam, q)
                assert np.array_equal(a_lam @ a_lam, np.zeros((2 * m,) * 2))
            spec = PotentialSpec.constant(q, period=1.0)
            stacked, single = self._rows(spec, zs, a, b)
            assert np.array_equal(stacked, single)

    @pytest.mark.parametrize("a,b", [(0.1, 0.85), (0.3, 7.45), (0.25, 1.7)])
    def test_closed_form_rows_bit_for_bit(self, a, b):
        # m = 1 rows away from the Jordan block: a single 2x2 takes the
        # closed-form exponential as a stack of one, rounding as a row does
        spec = PotentialSpec.constant(normal_form_matrix([[0.0]], [[1.0]]),
                                      period=1.0)
        zs = np.linspace(-4.0, 4.0, 81) + 1e-3j
        stacked, single = self._rows(spec, zs, a, b, scale=1)
        assert np.array_equal(stacked, single)

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (0.13, 1.7), (1.9, 0.2)])
    def test_grid_rows_bit_for_bit(self, a, b):
        # the bump and z of the halfline-bump benchmark: |z| = 1, 2, ...,
        # 128 alternating between the rays arg pi/2 and pi/4, so the rows
        # split their cells into different numbers of Magnus steps
        r = np.sqrt(0.5)
        zs = np.array([complex(0.0, 2.0 ** k) if k % 2 == 0
                       else complex(r * 2.0 ** k, r * 2.0 ** k)
                       for k in range(8)])
        stacked, single = self._rows(smooth_bump_spec(tail_q=1.0), zs, a, b,
                                     scale=1)
        assert np.array_equal(stacked, single)

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.9, 0.2)])
    @pytest.mark.parametrize("scale", [0, 1, -1])
    def test_grid_batch_size_bit_for_bit(self, scale, a, b, monkeypatch):
        # the 1600 cells of an m = 1 grid for 8 z go as 200, 4 or 1 Magnus
        # batches; aligned power-of-two chunks keep the pairwise product
        # tree, and so every bit, the same
        zs = np.array([0.5j, 1.0 + 1.0j, -2.0 + 0.25j, 4.0j, 8.0 + 8.0j,
                       -16.0 + 1.0j, 32.0j, 90.5 + 90.5j])
        spec = smooth_bump_spec(tail_q=1.0)
        rows = []
        for block in (64, 4096, 16384):
            monkeypatch.setattr(propagator, "_CELL_BLOCK", block)
            rows.append(Propagator(zs, spec).transfer(a, b, scale))
        assert np.isfinite(rows[0]).all()
        assert all(np.array_equal(r, rows[0]) for r in rows[1:])

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (0.93, 0.11)])
    @pytest.mark.parametrize("scale", [0, 1])
    def test_mixed_branch_rows_bit_for_bit(self, scale, a, b, monkeypatch):
        # one Magnus stack holds cells on both sides of |mu| = 0.5 with
        # different step counts, and each row still rounds as it does alone
        spec, zs = shoulder_bump_spec(), shoulder_bump_zs()
        stacks = []
        expm2 = propagator._expm2

        def recorded(omega, *args):
            # read before the call, which may write the result over omega
            n00 = 0.5 * (omega[..., 0, 0] - omega[..., 1, 1])
            stacks.append(np.abs(n00 * n00 + omega[..., 0, 1]
                                 * omega[..., 1, 0]) < 0.25)
            return expm2(omega, *args)

        monkeypatch.setattr(propagator, "_expm2", recorded)
        Propagator(zs, spec).transfer(a, b, scale)
        monkeypatch.undo()
        # the first step of every (z, cell), then the later steps of some
        assert stacks[0].shape[0] == len(zs) and len(stacks) > 10
        assert (stacks[0].any(axis=1) & ~stacks[0].all(axis=1)).sum() >= 5
        stacked, single = self._rows(spec, zs, a, b, scale)
        assert np.isfinite(stacked).all()
        assert np.array_equal(stacked, single)

    def test_scalar_z_keeps_matrix_shape(self):
        t = Propagator(0.3 + 0.2j, kp2_spec()).transfer(0.0, 3.5)
        assert t.shape == (4, 4)
        assert Propagator(np.array([0.3]), kp2_spec()).transfer(
            0.0, 0.0).shape == (1, 4, 4)


class TestRealPath:
    """A real-typed z on a real spec computes in float64, within 1e-13 of
    the complex128 computation at the same z; anything complex keeps
    complex128."""

    ZS = np.array([-3.1, -0.4, 0.0, 0.7, 5.0])
    # inside one period, backwards, and over more than two periods (the
    # period power)
    SPANS = [(0.1, 0.85), (0.9, 0.2), (0.3, 7.45), (5.2, 0.1)]

    @staticmethod
    def _grid_spec(m):
        xs = np.linspace(0.0, 1.0, 41)
        c, s = np.cos(2 * np.pi * xs), np.sin(2 * np.pi * xs)
        vals = np.array([normal_form_matrix(
            0.3 * ci * np.eye(m) + 0.1 * (1 - np.eye(m)),
            (0.5 + 0.2 * si) * np.eye(m)) for ci, si in zip(c, s)])
        return PotentialSpec.from_samples(xs, vals, period=1.0)

    @staticmethod
    def _const_spec(m):
        if m == 2:
            return kp2_spec()
        return PotentialSpec(m=1, period=1.0, pieces=(
            ConstantPiece(0.0, 0.4, normal_form_matrix([[0.2]], [[0.5]])),
            ConstantPiece(0.4, 1.0, normal_form_matrix([[-0.1]], [[0.0]]))))

    @pytest.mark.parametrize("a,b", SPANS)
    @pytest.mark.parametrize("kind", ["constant", "grid"])
    @pytest.mark.parametrize("m", [1, 2])
    def test_float64_matches_complex(self, m, kind, a, b):
        spec = self._const_spec(m) if kind == "constant" else self._grid_spec(m)
        assert spec.is_real
        got = Propagator(self.ZS, spec).transfer(a, b)
        want = Propagator(self.ZS.astype(complex), spec).transfer(a, b)
        assert got.dtype == np.float64 and want.dtype == np.complex128
        assert np.all(matnorm(got - want) <= 1e-13 * matnorm(want))
        one = Propagator(float(self.ZS[3]), spec)
        assert isinstance(one.z, float)
        assert one.transfer(a, b).dtype == np.float64

    def test_mixed_branch_grid(self):
        # the grid of TestStackedZ's mixed-branch stack at real z
        zs = np.array([-512.0, -60.0, -7.5, -1.0, 0.0, 2.0, 30.0, 256.0])
        spec = shoulder_bump_spec()
        assert spec.is_real
        for a, b in [(0.0, 1.0), (0.93, 0.11), (0.2, 1.6)]:
            got = Propagator(zs, spec).transfer(a, b)
            want = Propagator(zs.astype(complex), spec).transfer(a, b)
            assert got.dtype == np.float64
            assert np.all(matnorm(got - want) <= 1e-13 * matnorm(want))

    def test_complex_cases_stay_complex(self):
        spec = kp2_spec()
        herm = PotentialSpec.constant(
            np.array([[0.3, 0.2j], [-0.2j, -0.1]]), period=1.0)
        assert not herm.is_real
        assert PotentialSpec.zero(1).is_real
        cases = [(herm, 0.7, 0), (herm, self.ZS, 0),
                 (spec, 0.7 + 0j, 0), (spec, self.ZS.astype(complex), 0),
                 (spec, 0.7, 1), (spec, self.ZS, -1)]
        for sp, z, scale in cases:
            t = Propagator(z, sp).transfer(0.3, 7.45, scale)
            assert t.dtype == np.complex128
            assert np.isfinite(t).all()


class TestSymplecticDefect:
    def test_free_exact(self, rng, zero2):
        alpha = random_boundary(rng, 2)
        z = 0.9 + 0.7j
        fs = fundamental_system(z, 1.4, 0.0, alpha, zero2)
        fsbar = fundamental_system(np.conj(z), 1.4, 0.0, alpha, zero2)
        assert symplectic_defect(fsbar, fs) < 1e-12

    def test_initial_point_zero(self, rng, zero1):
        # exact-entry boundary data gives a bitwise-zero defect at x = x0
        alpha = alpha_dirichlet(1)
        fs = fundamental_system(1j, 0.0, 0.0, alpha, zero1)
        fsbar = fundamental_system(-1j, 0.0, 0.0, alpha, zero1)
        assert symplectic_defect(fsbar, fs) == 0.0
        # random boundary data only rounds in the products
        alpha = random_boundary(rng, 1)
        fs = fundamental_system(1j, 0.0, 0.0, alpha, zero1)
        fsbar = fundamental_system(-1j, 0.0, 0.0, alpha, zero1)
        assert symplectic_defect(fsbar, fs) < 1e-14

    def test_bump_below_tolerance(self):
        spec = smooth_bump_spec(n=401)
        alpha = alpha_dirichlet(1)
        z = 1.0 + 1.0j
        fs = fundamental_system(z, 2.0, 0.0, alpha, spec)
        fsbar = fundamental_system(np.conj(z), 2.0, 0.0, alpha, spec)
        assert symplectic_defect(fsbar, fs) < 1e-8

    def test_mismatch_detected(self, rng, zero1):
        alpha = random_boundary(rng, 1)
        fs = fundamental_system(1j, 1.0, 0.0, alpha, zero1)
        with pytest.raises(MismatchedEvaluation):
            symplectic_defect(fs, fs)


class TestGrowthSplit:
    def test_free_growth_and_decay(self, zero1):
        # Phi grows like e^{Im z (x - x0)}, the Weyl seed decays
        alpha = alpha_dirichlet(1)
        z = 2j
        f1 = fundamental_system(z, 1.0, 0.0, alpha, zero1)
        f3 = fundamental_system(z, 3.0, 0.0, alpha, zero1)
        growth = matnorm(f3.phi) / matnorm(f1.phi)
        assert abs(np.log(growth) - 2.0 * 2.0) < 0.1
        w1 = weyl_solution_volterra(z, 1.0, 0.0, zero1)
        w3 = weyl_solution_volterra(z, 3.0, 0.0, zero1)
        decay = matnorm(np.vstack([w3.u1, w3.u2])) / matnorm(
            np.vstack([w1.u1, w1.u2]))
        assert abs(np.log(decay) + 2.0 * 2.0) < 0.1


class TestVolterra:
    def test_free_solution(self, zero1):
        z, x = 2j, 0.7
        w = weyl_solution_volterra(z, x, 0.0, zero1)
        ex = np.exp(1j * z * x)
        assert abs(w.u1[0, 0] - ex) < 1e-12
        assert abs(w.u2[0, 0] - 1j * ex) < 1e-12

    def test_matches_halfline(self, const_q1_window):
        z = 3j
        w = weyl_solution_volterra(z, 0.0, 0.0, const_q1_window)
        h = halfline_m(z, 0.0, alpha_dirichlet(1), const_q1_window, tol=1e-12)
        assert matnorm(w.weyl_m() - h.M) < 1e-8

    def test_beyond_support_free(self, const_q1_window):
        # past the support the rescaled solution is the constant seed
        w = weyl_solution_volterra(3j, 1.5, 0.0, const_q1_window)
        assert abs(w.v1[0, 0] - 1.0) < 1e-12
        assert abs(w.v2[0, 0] - 1j) < 1e-12

    def test_general_alpha_seed(self, rng, const_q1_window):
        # the alpha-seeded solution spans the same decaying subspace, so the
        # canonical ratio at the far end matches the default-seed one
        alpha = random_boundary(rng, 1)
        z = 2.5j
        w = weyl_solution_volterra(z, 0.2, 0.0, const_q1_window, alpha=alpha)
        w0 = weyl_solution_volterra(z, 0.2, 0.0, const_q1_window)
        assert matnorm(w.weyl_m() - w0.weyl_m()) < 1e-8

    def test_solution_residual(self, const_q1_window):
        # finite differences of the iterated solution satisfy the system
        from diracweyl import jmat
        z, x, h = 2j, 0.4, 1e-4
        vals = [weyl_solution_volterra(z, xx, 0.0, const_q1_window)
                for xx in (x - h, x, x + h)]
        stack = [np.vstack([w.u1, w.u2]) for w in vals]
        du = (stack[2] - stack[0]) / (2 * h)
        resid = jmat(1) @ du - (z * np.eye(2)
                                + const_q1_window.eval(x)) @ stack[1]
        assert matnorm(resid) < 1e-5

    def test_left_of_reference_point(self, const_q1_window):
        w = weyl_solution_volterra(2j, -0.5, 0.0, const_q1_window)
        h = halfline_m(2j, -0.5, alpha_dirichlet(1), const_q1_window,
                       tol=1e-12)
        assert matnorm(w.weyl_m() - h.M) < 1e-8

    def test_requires_compact_support(self, const_q1, const_q1_periodic):
        for spec in (const_q1, const_q1_periodic):
            with pytest.raises(NoCompactSupport):
                weyl_solution_volterra(1j, 0.0, 0.0, spec)

    def test_requires_upper_half_plane(self, const_q1_window):
        with pytest.raises(DegenerateArguments):
            weyl_solution_volterra(-1j, 0.0, 0.0, const_q1_window)

    def test_iteration_budget(self, const_q1_window):
        with pytest.raises(IterationDivergence):
            weyl_solution_volterra(3j, 0.0, 0.0, const_q1_window, max_iter=3)

    def test_leading_asymptotics_monotone(self):
        # rescaled solution approaches (I, iI) as |z| grows for normal-form B
        spec = PotentialSpec(m=1, pieces=(
            ConstantPiece(0.0, 0.5, normal_form_matrix([[0.2]], [[0.6]])),
            ConstantPiece(0.5, 1.0, normal_form_matrix([[-0.3]], [[0.4]])),))
        seed = np.array([[1.0], [1j]])
        devs = []
        for y in (10.0, 100.0, 1000.0):
            w = weyl_solution_volterra(1j * y, 0.0, 0.0, spec,
                                       points_per_unit=20000)
            devs.append(matnorm(np.vstack([w.v1, w.v2]) - seed))
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 1e-2


class TestMagnusKernel:
    """Sampled pieces against oracles that share no code with the kernel."""

    @staticmethod
    def _scalar_spec():
        # B = f(x) I_2 with f piecewise linear between 1601 samples
        xs = np.linspace(0.0, 1.0, 1601)
        f = 0.8 * np.sin(np.pi * xs) ** 2 + 0.3 * xs
        vals = f[:, None, None] * np.eye(2)
        return xs, f, PotentialSpec(m=1, pieces=(GridPiece(xs, vals),))

    @pytest.mark.parametrize("z", [2j, 8 + 8j, 64 + 64j])
    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (0.10003, 0.87651)])
    def test_commuting_coefficients_closed_form(self, z, a, b):
        # A = -(z + f) J commutes with itself, so T = expm(-c J) with
        # c = (b - a) z + int f, i.e. cos(c) I - sin(c) J; the trapezoid
        # rule over the cut points is exact for the interpolant f
        xs, f, spec = self._scalar_spec()
        inner = (xs > a) & (xs < b)
        ts = np.concatenate([[a], xs[inner], [b]])
        ft = np.interp(ts, xs, f)
        c = (b - a) * z + np.sum(0.5 * (ft[1:] + ft[:-1]) * np.diff(ts))
        j = np.array([[0.0, -1.0], [1.0, 0.0]])
        want = np.cos(c) * np.eye(2) - np.sin(c) * j
        got = Propagator(z, spec).transfer(a, b)
        assert matnorm(got - want) <= 1e-12 * matnorm(want)

    @pytest.mark.parametrize("n,z,density,bound", [
        (1601, 4j, 4000, 1e-8),
        # 21 samples: B changes by up to 0.13 across one cell
        (21, 4 + 4j, 8000, 1e-10),
    ])
    def test_bump_matches_richardson_volterra(self, n, z, density, bound):
        spec = smooth_bump_spec(n=n)
        coarse, fine = (weyl_solution_volterra(z, 0.0, 0.0, spec, tol=1e-14,
                                               points_per_unit=ppu).weyl_m()
                        for ppu in (density, 2 * density))
        want = (4.0 * fine - coarse) / 3.0
        got = halfline_m(z, 0.0, alpha_dirichlet(1), spec).M
        assert matnorm(got - want) <= bound * matnorm(want)

    @staticmethod
    def _steps_per_step_commutator(ts, acoef):
        # magnus_steps with each step's commutator [A(hi), A(lo)] formed
        # from its own ends, by two products per step; also returns k
        d = acoef.shape[-1]
        h = np.broadcast_to(np.diff(ts), acoef.shape[:-3] + (len(ts) - 1,))
        free = acoef - (np.trace(acoef, axis1=-2, axis2=-1)[..., None, None]
                        / d) * np.eye(d)
        a = np.abs(h) * np.linalg.norm(
            0.5 * (free[..., :-1, :, :] + free[..., 1:, :, :]), axis=(-2, -1))
        b = np.abs(h) * np.linalg.norm(np.diff(free, axis=-3), axis=(-2, -1))
        k = np.maximum(np.ceil(((a ** 3 * b + a * b * b) / 1e-10) ** 0.2),
                       1).astype(int)
        a0, a1 = acoef[..., :-1, :, :], acoef[..., 1:, :, :]
        out = np.empty(h.shape + (d, d), dtype=complex)
        for j in range(k.max()):
            c = k > j
            kc = k[c][:, None, None]
            hs = h[c][:, None, None] / kc
            lo = (1 - j / kc) * a0[c] + (j / kc) * a1[c]
            hi = (1 - (j + 1) / kc) * a0[c] + ((j + 1) / kc) * a1[c]
            f = _expm(0.5 * hs * (lo + hi)
                      + (hs * hs / 12.0) * (hi @ lo - lo @ hi))
            out[c] = f if j == 0 else f @ out[c]
        return out, k

    @pytest.mark.parametrize("m", [1, 2])
    def test_cell_commutator_matches_per_step_form(self, rng, m):
        # two z on 40 cells of a potential that changes by O(1) per cell,
        # A given whole and in the affine form L + z K: K = -J, the
        # rescaled K = -J + i I (complex), and K = -J on the float64 path
        # (real symmetric samples, real z)
        ts = np.linspace(0.0, 1.0, 41)
        d = 2 * m
        herm = np.array([random_hermitian(rng, d) for _ in ts])
        cases = [(herm, np.array([60j, 20.0 + 20.0j]), 0, complex),
                 (herm, np.array([60j, 20.0 + 20.0j]), 1, complex),
                 (herm.real, np.array([60.0, -25.0]), 0, float)]
        for vals, zs, scale, dtype in cases:
            z4 = zs[:, None, None, None]
            acoef = system_matrix(z4, vals)
            lcoef = system_matrix(0.0, vals)
            kcoef = system_matrix(1.0, np.zeros((d, d)))
            if scale:
                acoef = acoef + 1j * scale * z4 * np.eye(d)
                kcoef = kcoef + 1j * scale * np.eye(d)
            want, k = self._steps_per_step_commutator(ts, acoef)
            assert k.min() >= 2
            for got in (magnus_steps(ts, acoef),
                        magnus_steps(ts, lcoef, zs, kcoef)):
                assert got.dtype == dtype
                err = np.linalg.norm(got - want, axis=(-2, -1))
                assert np.all(err <= 1e-14 * np.linalg.norm(want,
                                                            axis=(-2, -1)))

    @pytest.mark.parametrize("z", [1e60 + 1e60j, 1e110 + 1e110j,
                                   1e160 + 1e160j])
    def test_step_count_overflow_is_typed_and_silent(self, z, monkeypatch):
        # on the 1601-node bump the step count leaves int64 from about
        # |z| = 1e33, a^3 overflows from about 1e106 and |z|^2 from 1e154:
        # IntegrationFailure from the first transfer, with no warning and
        # no bisection of the carry; |z| as a real z takes the float64 path
        spec = smooth_bump_spec(tail_q=1.0)
        grid = spec.pieces[0]
        transfers = count_calls(monkeypatch, Propagator, "transfer")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationFailure, match="step count"):
                halfline_m(z, 0.0, alpha_dirichlet(1), spec)
            assert len(transfers) == 1
            prop = Propagator(np.array([2.0, abs(z)]), spec)
            lcoef, kcoef = prop._coefficient(grid.values, 0)
            with pytest.raises(IntegrationFailure, match="step count"):
                magnus_steps(grid.xs, lcoef, prop.z, kcoef)

    def test_bump_large_z_matches_volterra(self):
        # |z| h = 2.5 per sample cell: the kernel must refine the cells.  The
        # Volterra value is settled by 20000 points per unit (it agrees with
        # 800000 to roundoff), since its phase integration is exact
        spec = smooth_bump_spec(n=401)
        z = 1000j
        want = weyl_solution_volterra(z, 0.0, 0.0, spec, tol=1e-14,
                                      points_per_unit=20000).weyl_m()
        got = halfline_m(z, 0.0, alpha_dirichlet(1), spec).M
        assert matnorm(got - want) <= 1e-10 * matnorm(want)


class TestConjugateSymplectic:
    """Psi(zbar)* J Psi(z) = J: the transfer at zbar is the J-adjoint
    inverse of the one at z, the identity behind M_+ from the forward
    period transfer.  Spans reach past two periods (the period power) and
    outside the support of a compact spec."""

    EPS = np.finfo(float).eps

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=32)
    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.sampled_from([1, 2]),
           grid=st.booleans(), periodic=st.booleans(), real=st.booleans(),
           a=st.floats(-1.5, 1.5), span=st.floats(-3.5, 3.5),
           re=st.floats(-4.0, 4.0), im=st.floats(1e-6, 3.0),
           lower=st.booleans(), scale=st.sampled_from([0, 1, -1]))
    def test_transfer_pair(self, seed, m, grid, periodic, real, a, span, re,
                           im, lower, scale):
        rng = np.random.default_rng(seed)
        spec = random_hermitian_spec(rng, m, grid, periodic, real)
        z = complex(re, -im if lower else im)
        b = a + span
        # the same rescale s at both z cancels: conj(e^{i s zbar w}) is
        # e^{-i s z w}
        t = Propagator(z, spec).transfer(a, b, scale=scale)
        tbar = Propagator(z.conjugate(), spec).transfer(a, b, scale=scale)
        j = jmat(m)
        # measured 85 eps on 500 draws (grid pieces under a rescale), 45
        # on these
        assert matnorm(tbar.conj().T @ j @ t - j) \
            <= 256 * self.EPS * matnorm(t) * matnorm(tbar)
        if real:
            # B real: T(zbar) = conj T(z), the rescale flipped with the
            # conjugate
            flip = Propagator(z.conjugate(), spec).transfer(a, b,
                                                            scale=-scale)
            assert matnorm(flip - t.conj()) <= 4 * self.EPS * matnorm(t)
