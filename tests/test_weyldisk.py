import math
import warnings

import numpy as np
import pytest

from diracweyl import (
    PotentialSpec,
    Propagator,
    alpha_dirichlet,
    alpha_neumann,
    disk_membership,
    e_c,
    halfline_m,
    lft_boundary_change,
    matnorm,
    normal_form_matrix,
    regular_m,
    system_matrix,
)
from diracweyl.errors import (
    DegenerateArguments,
    EigenvalueHit,
    IntegrationFailure,
    NoConvergence,
    SingularDenominator,
)
from diracweyl.weyldisk import _invariant_subspace
from conftest import (
    KP2_PIECES,
    count_eig,
    floquet_mplus,
    kp2_spec,
    mminus_const_q,
    mplus_const_q,
    random_boundary,
    random_normal_form_spec,
    smooth_bump_spec,
)


class TestRegularM:
    def test_free_closed_forms(self, zero1):
        a0 = alpha_dirichlet(1)
        m = regular_m(1j, 1.0, 0.0, a0, (np.zeros((1, 1)), np.eye(1)), zero1)
        assert abs(m[0, 0] - 1j * math.tanh(1.0)) < 1e-12
        m = regular_m(1j, 1.0, 0.0, a0, (np.eye(1), np.zeros((1, 1))), zero1)
        assert abs(m[0, 0] - 1j / math.tanh(1.0)) < 1e-12

    def test_eigenvalue_hit(self, zero1):
        # z real with sin(z c) = 0 is an eigenvalue of the regular problem
        a0 = alpha_dirichlet(1)
        with pytest.raises(EigenvalueHit):
            regular_m(math.pi, 1.0, 0.0, a0,
                      (np.eye(1), np.zeros((1, 1))), zero1)

    def test_degenerate_interval(self, zero1):
        with pytest.raises(DegenerateArguments):
            regular_m(1j, 0.0, 0.0, alpha_dirichlet(1),
                      (np.eye(1), np.zeros((1, 1))), zero1)

    def test_large_z_rescaled(self, zero1):
        # entries of the fundamental system would overflow without rescaling
        a0 = alpha_dirichlet(1)
        z = 500j
        m = regular_m(z, 2.0, 0.0, a0, (np.zeros((1, 1)), np.eye(1)), zero1)
        assert abs(m[0, 0] - 1j) < 1e-10


# Frozen disk-functional values for B = 0, z = i, x0 = 0, c = 1 (independent
# evaluation: U = (cosh - t sinh, i(t cosh - sinh)) e-free form, so
# E_c = -2 (cosh c - t sinh c)(t cosh c - sinh c) at M = i t and
# E_c(+-i) = -+2 e^{-+2c}).
E_AT_I = -2.0 * math.exp(-2.0)          # M = i
E_AT_MINUS_I = 2.0 * math.exp(2.0)      # M = -i


class TestDiskFunctional:
    def test_frozen_values(self, zero1):
        a0 = alpha_dirichlet(1)
        e = e_c(np.array([[1j]]), 1j, 1.0, 0.0, a0, zero1)
        assert abs(e[0, 0] - E_AT_I) < 1e-12
        e = e_c(np.array([[-1j]]), 1j, 1.0, 0.0, a0, zero1)
        assert abs(e[0, 0] - E_AT_MINUS_I) < 1e-11
        e = e_c(np.array([[1j * math.tanh(1.0)]]), 1j, 1.0, 0.0, a0, zero1)
        assert abs(e[0, 0]) < 1e-10

    def test_membership(self, zero1):
        a0 = alpha_dirichlet(1)
        args = (1j, 1.0, 0.0, a0, zero1)
        assert disk_membership(np.array([[1j]]), *args).classification == "interior"
        assert disk_membership(np.array([[1j * math.tanh(1.0)]]),
                               *args).classification == "boundary"
        assert disk_membership(np.array([[-1j]]), *args).classification == "exterior"

    def test_nesting(self, zero1):
        # boundary point of the disk at c = 2 lies inside the disk at c = 1
        a0 = alpha_dirichlet(1)
        point = np.array([[1j * math.tanh(2.0)]])
        assert disk_membership(point, 1j, 2.0, 0.0, a0,
                               zero1).classification == "boundary"
        assert disk_membership(point, 1j, 1.0, 0.0, a0,
                               zero1).classification == "interior"

    def test_monotone_in_c(self, rng, zero1):
        a0 = alpha_dirichlet(1)
        for mval in (0.3 + 0.8j, 1j, -0.2 + 0.5j):
            e1 = e_c(np.array([[mval]]), 1j, 1.0, 0.0, a0, zero1)
            e2 = e_c(np.array([[mval]]), 1j, 2.0, 0.0, a0, zero1)
            assert np.linalg.eigvalsh(e2 - e1)[0] > -1e-12

    def test_disk_points_have_sign_property(self, zero1, const_q1):
        # interior/boundary points satisfy sigma(c, x0, z) Im(M) > 0
        from diracweyl import sigma as sgn
        a0 = alpha_dirichlet(1)
        for spec in (zero1, const_q1):
            for z, c in ((1j, 1.0), (-0.8j, 2.0), (0.5 + 1j, 1.5)):
                mval = regular_m(z, c, 0.0, a0,
                                 (np.eye(1), 0.4 * np.eye(1)), spec)
                point = disk_membership(mval, z, c, 0.0, a0, spec)
                assert point.classification in ("interior", "boundary")
                im = (mval - mval.conj().T) / 2j
                assert sgn(c, 0.0, z) * np.linalg.eigvalsh(im)[0] > 0

    def test_selfadjoint_beta_on_circle(self, rng, const_q1):
        # Im(beta2 beta1*) = 0 puts the regular M on the circle;
        # a positive imaginary part puts it strictly inside
        a0 = alpha_dirichlet(1)
        z, c = 0.5 + 1.2j, 1.5
        m_circ = regular_m(z, c, 0.0, a0, (np.eye(1), 0.7 * np.eye(1)),
                           const_q1)
        assert disk_membership(m_circ, z, c, 0.0, a0,
                               const_q1).classification == "boundary"
        m_int = regular_m(z, c, 0.0, a0, (np.eye(1), 0.5j * np.eye(1)),
                          const_q1)
        assert disk_membership(m_int, z, c, 0.0, a0,
                               const_q1).classification == "interior"

    @pytest.mark.parametrize("z", [500j, 2000j])
    def test_overflow_is_typed_and_silent(self, z):
        # on the bump the solutions grow like e^{|Im z|}: at 500i the
        # transfer is finite but E_c overflows, at 2000i the transfer does
        spec = smooth_bump_spec(tail_q=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(IntegrationFailure, match="not finite"):
                disk_membership(np.array([[1j]]), z, 1.0, 0.0,
                                alpha_dirichlet(1), spec)


class TestHalfLineM:
    def test_free_identity(self, zero1, zero2):
        for m, spec in ((1, zero1), (2, zero2)):
            h = halfline_m(1j, 0.0, alpha_dirichlet(m), spec)
            assert matnorm(h.M - 1j * np.eye(m)) < 1e-10
            h = halfline_m(1j, 0.0, alpha_dirichlet(m), spec, sign=-1)
            assert matnorm(h.M + 1j * np.eye(m)) < 1e-10

    def test_constant_coupling_oracle(self, const_q1):
        z = 2j
        h = halfline_m(z, 0.0, alpha_dirichlet(1), const_q1)
        assert abs(h.M[0, 0] - mplus_const_q(z, 1.0)) < 1e-9
        assert abs(h.M[0, 0] - 1j * (1 + math.sqrt(5)) / 2) < 1e-9
        h = halfline_m(z, 0.0, alpha_dirichlet(1), const_q1, sign=-1)
        assert abs(h.M[0, 0] - mminus_const_q(z, 1.0)) < 1e-9

    def test_conjugation_symmetry(self, const_q1):
        hp = halfline_m(2j, 0.0, alpha_dirichlet(1), const_q1)
        hc = halfline_m(-2j, 0.0, alpha_dirichlet(1), const_q1)
        assert matnorm(hc.M - hp.M.conj().T) < 1e-9

    def test_alpha_independence_free(self, rng, zero2):
        # for B = 0 the half-line M is i I for every boundary condition
        for _ in range(3):
            alpha = random_boundary(rng, 2)
            h = halfline_m(1.5j, 0.0, alpha, zero2)
            assert matnorm(h.M - 1j * np.eye(2)) < 1e-9

    def test_lft_consistency(self, rng, const_q1):
        # recompute directly at alpha and compare against the fractional
        # transform of the gamma-based value
        z = 0.7 + 1.1j
        for _ in range(3):
            alpha = random_boundary(rng, 1)
            gamma = random_boundary(rng, 1)
            m_alpha = halfline_m(z, 0.0, alpha, const_q1).M
            m_gamma = halfline_m(z, 0.0, gamma, const_q1).M
            assert matnorm(lft_boundary_change(m_gamma, alpha, gamma)
                           - m_alpha) < 1e-8

    def test_herglotz_positivity(self, rng):
        for m in (1, 2):
            spec = random_normal_form_spec(rng, m)
            alpha = alpha_dirichlet(m)
            for z in (0.8j, 1.5j, 1.0 + 0.7j, -0.6 + 1.2j):
                h = halfline_m(z, 0.0, alpha, spec)
                im = (h.M - h.M.conj().T) / 2j
                assert np.linalg.eigvalsh(im)[0] > 0

    def test_leading_asymptotics_monotone(self, rng):
        spec = random_normal_form_spec(rng, 1)
        alpha = random_boundary(rng, 1)
        devs = [matnorm(halfline_m(1j * y, 0.0, alpha, spec).M - 1j * np.eye(1))
                for y in (10.0, 100.0, 1000.0)]
        assert devs[0] > devs[1] > devs[2]

    def test_free_near_axis_closed_form(self, zero1):
        # no truncation radius: the free M_(+/-) is +/- i right up to the axis
        z = 2.0 + 1e-9j
        a0 = alpha_dirichlet(1)
        assert abs(halfline_m(z, 0.0, a0, zero1).M[0, 0] - 1j) < 1e-14
        assert abs(halfline_m(z, 0.0, a0, zero1, sign=-1).M[0, 0] + 1j) < 1e-14

    def test_half_infinite_constant_tail(self):
        # q = 1 on [0, inf), zero to the left: the tail toward +inf starts at
        # the piece's inner edge 0, or at x0 inside the piece; the free
        # stretch to x0 < 0 is the closed-form rotation cos(z dx) - sin(z dx) J
        spec = PotentialSpec.constant(normal_form_matrix([[0.0]], [[1.0]]),
                                      x_lo=0.0)
        z, a0 = 0.7 + 0.9j, alpha_dirichlet(1)
        mq = mplus_const_q(z, 1.0)
        assert abs(halfline_m(z, 3.0, a0, spec).M[0, 0] - mq) < 1e-14
        assert abs(halfline_m(z, -2.0, a0, spec, sign=-1).M[0, 0] + 1j) < 1e-14
        j = np.array([[0.0, -1.0], [1.0, 0.0]])
        u = (np.cos(-2.0 * z) * np.eye(2) - np.sin(-2.0 * z) * j) @ [1.0, mq]
        assert abs(halfline_m(z, -2.0, a0, spec).M[0, 0] - u[1] / u[0]) < 1e-14

    def test_subspace_dimension_checked(self):
        with pytest.raises(NoConvergence):
            _invariant_subspace(-np.eye(2), 1, "lhp")     # both decay
        with pytest.raises(NoConvergence):
            _invariant_subspace(np.full((2, 2), np.inf), 1, "lhp")

    def test_tol_gates_the_error_estimate(self, const_q1):
        a0 = alpha_dirichlet(1)
        h = halfline_m(2j, 0.0, a0, const_q1)
        assert 0 < h.tail_bound < 1e-14 and h.sweeps == 1
        tol = 0.5 * h.tail_bound / (1.0 + matnorm(h.M))
        with pytest.raises(NoConvergence) as err:
            halfline_m(2j, 0.0, a0, const_q1, tol=tol)
        assert np.array_equal(err.value.best, h.M)
        assert err.value.tail == h.tail_bound

    def test_real_z_rejected(self, zero1):
        with pytest.raises(DegenerateArguments):
            halfline_m(2.0, 0.0, alpha_dirichlet(1), zero1)

    def test_exact_tail_inside_nested_disks(self, const_q1_periodic):
        # the paper's nested Weyl disks as an independent check: the
        # limit-point M lies inside or on every disk D(c), and the disk
        # functional resolves it as interior at c = x0 + 1
        for spec, z in ((const_q1_periodic, 2.0 + 0.05j),
                        (kp2_spec(), -1.0 + 0.05j)):
            alpha = alpha_dirichlet(spec.m)
            mval = halfline_m(z, 0.0, alpha, spec).M
            classes = [disk_membership(mval, z, 2.0 ** k, 0.0, alpha,
                                       spec).classification
                       for k in range(6)]
            assert classes[0] == "interior"
            assert set(classes) <= {"interior", "boundary"}

    def test_sweep_agrees_with_direct_truncation(self, rng):
        # the Cayley-chart sweep equals -(beta Phi)^{-1}(beta Theta) at a
        # truncation radius where the direct formula is still well posed
        spec = random_normal_form_spec(rng, 2)
        alpha = alpha_dirichlet(2)
        z, c = 1.0 + 1.5j, 16.0
        direct = regular_m(z, c, 0.0, alpha,
                           (np.eye(2), np.zeros((2, 2))), spec)
        h = halfline_m(z, 0.0, alpha, spec, tol=1e-11)
        assert matnorm(direct - h.M) < 1e-6

    def test_mixed_gap_band_modes(self):
        # decoupled pair of couplings: one mode in a deep gap, one in-band
        # with small Im z; growth-rate spread is what the chart sweep is for
        b12 = np.diag([3.0, 0.3]).astype(complex)
        spec = PotentialSpec.constant(normal_form_matrix(np.zeros((2, 2)), b12))
        a2 = alpha_dirichlet(2)

        def mq(z, q):
            return -(q + np.sqrt(q * q - z * z)) / z

        for z, tol in [(0.5 + 1e-2j, 1e-8), (2.9 + 1e-3j, 1e-7)]:
            h = halfline_m(z, 0.0, a2, spec, tol=tol)
            oracle = np.diag([mq(z, 3.0), mq(z, 0.3)])
            assert matnorm(h.M - oracle) < 1e-10

    @pytest.mark.parametrize("lam", [1.0, -1.0])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_periodic_band_edge_matches_constant_tail(
            self, lam, sign, const_q1, const_q1_periodic):
        # at lambda = +-1 the q = 1 coefficient is nearly a Jordan block
        # (eigenvalues +-ik with |k| ~ 1.4e-3), so the one-period transfer
        # of the periodic path must stay exact there to match the constant
        # tail's stable subspace
        z = lam + 1e-6j
        alpha = alpha_dirichlet(1)
        want = halfline_m(z, 0.0, alpha, const_q1, sign=sign).M
        got = halfline_m(z, 0.0, alpha, const_q1_periodic, sign=sign).M
        assert matnorm(got - want) <= 1e-12

    def test_riccati_fixed_point_consistency(self, const_q1):
        # d/dx M_+(z, x) vanishes for a constant potential, so M_+ solves
        # the stationary Riccati equation: z M^2 + 2 q M + z = 0
        z, q = 1.4j, 1.0
        mv = halfline_m(z, 0.0, alpha_dirichlet(1), const_q1).M[0, 0]
        assert abs(z * mv * mv + 2 * q * mv + z) < 1e-8


class TestInvariantSubspace:
    """The decaying-subspace kernel: Schur vectors by unitary deflation."""

    EPS = np.finfo(float).eps

    @pytest.mark.parametrize("sort", ["lhp", None])
    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_matches_ordered_schur(self, d, sort):
        # largest principal angle to scipy's ordered Schur basis within
        # 10 eps ||T|| / gap, the kernel's own first-order sensitivity
        import scipy.linalg
        rng = np.random.default_rng(1000 + d)
        m = d // 2
        for _ in range(20):
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            ev = np.linalg.eigvals(a)
            if sort == "lhp":
                re = np.sort(ev.real)
                a -= 0.5 * (re[m - 1] + re[m]) * np.eye(d)
                select = "lhp"
            else:
                mods = np.sort(np.abs(ev))
                cut = math.sqrt(mods[-m] * mods[-m - 1])
                select = lambda mu: abs(mu) > cut      # noqa: E731
            _, qs, sdim = scipy.linalg.schur(a, output="complex", sort=select)
            assert sdim == m
            q, sens = _invariant_subspace(a, m, sort)
            assert matnorm(q.conj().T @ q - np.eye(m)) <= 1e-14
            sin_max = matnorm(qs[:, :m] - q @ (q.conj().T @ qs[:, :m]))
            assert sin_max <= 10 * self.EPS * sens

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_zero_tail(self, m):
        # -z J (x) I_m: the eigenvalues -+iz, each m-fold; the stable
        # subspace is span [I; iI] for Im z > 0, the unstable one [I; -iI]
        z = 0.7 + 0.9j
        mat = system_matrix(z, np.zeros((2 * m, 2 * m)))
        for sort, s in (("lhp", 1j), ("rhp", -1j)):
            q, _ = _invariant_subspace(mat, m, sort)
            p = np.vstack([np.eye(m), s * np.eye(m)]) / math.sqrt(2.0)
            assert matnorm(q @ q.conj().T - p @ p.conj().T) <= 2e-15
            assert matnorm(q.conj().T @ q - np.eye(m)) <= 2e-15

    def test_kept_jordan_block(self):
        # a defective kept pair: eig returns two nearly parallel vectors,
        # and the deflated basis still spans an invariant subspace
        rng = np.random.default_rng(7)
        tri = np.array([[-1.0, 1.0, 0.3, -0.2],
                        [0.0, -1.0, 0.5, 0.1],
                        [0.0, 0.0, 2.0, 0.4],
                        [0.0, 0.0, 0.0, 3.0]], dtype=complex)
        u, _ = np.linalg.qr(rng.normal(size=(4, 4))
                            + 1j * rng.normal(size=(4, 4)))
        a = u @ tri @ u.conj().T
        q, _ = _invariant_subspace(a, 2, "lhp")
        assert matnorm(q.conj().T @ q - np.eye(2)) <= 1e-14
        resid = a @ q - q @ (q.conj().T @ a @ q)
        assert matnorm(resid) <= 1e-14 * matnorm(a)


class TestPeriodicMixedPoint:
    """m = 2 periodic potential at points where one channel is in a band
    and the other in a gap (and one pure band point): the decaying
    subspace comes from one period transfer, with no period power and no
    overflow."""

    @pytest.mark.parametrize("z", [-1 + 1e-3j, -1 + 2e-3j, 0.5 + 1e-2j])
    def test_matches_floquet_oracle(self, z, monkeypatch):
        oracle = floquet_mplus(z, KP2_PIECES)
        under, outside = count_eig(monkeypatch)
        spans = []
        transfer = Propagator.transfer

        def recorded_transfer(prop, xa, xb, scale=0):
            t = transfer(prop, xa, xb, scale)
            spans.append((xa, xb, bool(np.all(np.isfinite(t)))))
            return t

        monkeypatch.setattr(Propagator, "transfer", recorded_transfer)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            h = halfline_m(z, 0.0, alpha_dirichlet(2), kp2_spec())
        assert matnorm(h.M - oracle) <= 1e-10 * matnorm(oracle)
        # constant pieces take Pade exponentials: no eigendecomposition
        # under the propagator; the deflation takes one eig of the period
        # transfer and one of its 3x3 trailing block (a scalar z runs as a
        # stack of one)
        assert under == [] and [s[-2:] for s in outside] == [(4, 4), (3, 3)]
        assert spans and all(abs(b - a) <= 1.0 for a, b, _ in spans)
        assert all(ok for _, _, ok in spans)

    def test_near_axis_matches_floquet_oracle(self, monkeypatch):
        # a truncation radius would have to reach ~1e10 here; the call
        # budget makes any method that walks out that far fail fast
        z = -1 + 1e-10j
        transfer = Propagator.transfer
        calls = []

        def budgeted_transfer(prop, xa, xb, scale=0):
            calls.append(xb)
            if len(calls) > 50:
                raise RuntimeError("more than 50 transfers")
            return transfer(prop, xa, xb, scale)

        monkeypatch.setattr(Propagator, "transfer", budgeted_transfer)
        h = halfline_m(z, 0.0, alpha_dirichlet(2), kp2_spec())
        oracle = floquet_mplus(z, KP2_PIECES)
        assert matnorm(h.M - oracle) <= 1e-10 * matnorm(oracle)


class TestConstantOverflow:
    def test_bisects_past_overflowing_piece_transfers(self, monkeypatch):
        # constant coupling diag(q) on the window [0, L] with zero tails, at
        # lambda = 0.5: for m = 2 one channel in a gap, one in a band.  The
        # exponential of long spans overflows (Pade for m = 2, closed form
        # for m = 1), and the carry from L to 0 must bisect past it.
        # The band channel's reflection at L is e^{-2 L Im k} ~ 1e-19 down,
        # so the whole-line closed form is the oracle
        z = 0.5 + 1e-3j
        finite = []
        transfer = Propagator.transfer

        def recorded_transfer(prop, xa, xb, scale=0):
            t = transfer(prop, xa, xb, scale)
            finite.append(bool(np.all(np.isfinite(t))))
            return t

        monkeypatch.setattr(Propagator, "transfer", recorded_transfer)
        for q in ((1.0, 0.2), (1.0,)):
            m = len(q)
            spec = PotentialSpec.constant(
                normal_form_matrix(np.zeros((m, m)), np.diag(q)),
                x_lo=0.0, x_hi=2e4)
            finite.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                h = halfline_m(z, 0.0, alpha_dirichlet(m), spec)
            assert not all(finite)
            want = np.diag([mplus_const_q(z, qj) for qj in q])
            assert matnorm(h.M - want) <= 1e-12 * matnorm(want)


    @pytest.mark.parametrize("z", [3j, -3j])
    def test_walk_products_silent(self, z):
        # at +-3i an overflowing Pade factor of the m = 2 window meets zero
        # entries of the walk's running product; the carry bisects past it
        # without a warning
        q = (1.0, 0.2)
        spec = PotentialSpec.constant(
            normal_form_matrix(np.zeros((2, 2)), np.diag(q)),
            x_lo=0.0, x_hi=2e4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            h = halfline_m(z, 0.0, alpha_dirichlet(2), spec)
        want = np.diag([mplus_const_q(z, qj) for qj in q])
        assert matnorm(h.M - want) <= 1e-12 * matnorm(want)


class TestLft:
    def test_identity_transform(self, rng, const_q1):
        alpha = random_boundary(rng, 1)
        mval = np.array([[0.3 + 0.9j]])
        assert matnorm(lft_boundary_change(mval, alpha, alpha) - mval) < 1e-12

    def test_swap_inverts(self):
        # alpha0 = (1, 0) against gamma0 = (0, 1): M -> -M^{-1}
        a0, g0 = alpha_dirichlet(1), alpha_neumann(1)
        out = lft_boundary_change(np.array([[1j]]), a0, g0)
        assert abs(out[0, 0] - 1j) < 1e-14
        out = lft_boundary_change(np.array([[2j]]), a0, g0)
        assert abs(out[0, 0] - (-1.0 / 2j)) < 1e-14

    def test_singular_denominator(self):
        a0, g0 = alpha_dirichlet(1), alpha_neumann(1)
        with pytest.raises(SingularDenominator):
            lft_boundary_change(np.zeros((1, 1)), a0, g0)
