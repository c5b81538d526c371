import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import simpson

from diracweyl import (
    GreensEvaluator,
    PotentialSpec,
    Propagator,
    alpha_dirichlet,
    fullline_m,
    greens_matrix,
    halfline_m,
    jmat,
    matnorm,
    normal_form_matrix,
    principal_logm,
    upsilon,
)
from diracweyl import fullline, weyldisk
from diracweyl.errors import (
    DegenerateArguments,
    LogBranchFailure,
    NoConvergence,
    SingularDifference,
)
from diracweyl.propagator import _minus_j, auto_scale
from conftest import (
    count_calls,
    count_eig,
    kp2_spec,
    mminus_const_q,
    mplus_const_q,
    random_hermitian_spec,
    random_normal_form_spec,
    smooth_bump_spec,
)


def fullline_oracle_const_q(z, q):
    """Closed-form whole-line M for constant off-diagonal coupling."""
    mp = mplus_const_q(z, q)
    mm = mminus_const_q(z, q)
    d = mm - mp
    return np.array([[1.0 / d, 0.5 * (mm + mp) / d],
                     [0.5 * (mm + mp) / d, mp * mm / d]])


class TestFullLineM:
    def test_free_blocks(self, zero1, zero2):
        for m, spec in ((1, zero1), (2, zero2)):
            f = fullline_m(1j, 0.0, alpha_dirichlet(m), spec)
            assert matnorm(f.matrix - 0.5j * np.eye(2 * m)) < 1e-10
            assert f.m22_defect < 1e-12

    def test_constant_coupling_oracle(self, const_q1):
        for z in (2j, 0.7 + 1.3j):
            f = fullline_m(z, 0.0, alpha_dirichlet(1), const_q1)
            assert matnorm(f.matrix - fullline_oracle_const_q(z, 1.0)) < 1e-8

    def test_gap_reality(self, const_q1):
        # inside the gap the boundary value is real; Im M decreases with eps
        lam = 0.5
        a0 = alpha_dirichlet(1)
        ims = []
        for eps in (1e-3, 1e-4, 1e-5):
            f = fullline_m(lam + 1j * eps, 0.0, a0, const_q1, tol=1e-9)
            ims.append(matnorm((f.matrix - f.matrix.conj().T) / 2j))
        assert ims[0] > ims[1] > ims[2]
        f = fullline_m(lam + 1e-5j, 0.0, a0, const_q1, tol=1e-9)
        assert abs(f.m11[0, 0].real - lam / (2 * math.sqrt(1 - lam ** 2))) < 1e-4
        assert abs(f.m11[0, 0].real - 0.288675) < 1e-4

    def test_conjugation_symmetry(self, const_q1):
        a0 = alpha_dirichlet(1)
        f = fullline_m(2j, 0.0, a0, const_q1)
        fc = fullline_m(-2j, 0.0, a0, const_q1)
        assert matnorm(fc.matrix - f.matrix.conj().T) < 1e-8
        # shifted reference point, off-axis, lower half plane
        f = fullline_m(1.0 - 2j, 0.7, a0, const_q1)
        fc = fullline_m(1.0 + 2j, 0.7, a0, const_q1)
        assert matnorm(fc.matrix - f.matrix.conj().T) < 1e-8

    def test_herglotz_rank_2m(self, rng):
        for m in (1, 2):
            spec = random_normal_form_spec(rng, m)
            alpha = alpha_dirichlet(m)
            for z in (0.9j, 1.0 + 0.8j, -0.5 + 1.1j):
                f = fullline_m(z, 0.0, alpha, spec)
                im = (f.matrix - f.matrix.conj().T) / 2j
                assert np.linalg.eigvalsh(im)[0] > 0

    def test_leading_order(self, rng):
        # || M(iy) - (i/2) I || decreasing toward zero along the imaginary axis
        spec = random_normal_form_spec(rng, 1)
        a0 = alpha_dirichlet(1)
        devs = [matnorm(fullline_m(1j * y, 0.0, a0, spec).matrix
                        - 0.5j * np.eye(2))
                for y in (10.0, 100.0, 1000.0)]
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 1e-3

    def test_singular_difference_guard(self, monkeypatch, zero1):
        import diracweyl.fullline as fl

        class Fake:
            def __init__(self, mat):
                self.M = mat

        def fake_halfline(z, x0, alpha, spec, sign=1, **kw):
            return Fake(1j * np.eye(1))

        monkeypatch.setattr(fl, "halfline_m", fake_halfline)
        with pytest.raises(SingularDifference):
            fl.fullline_m(1j, 0.0, alpha_dirichlet(1), zero1)


class TestGreens:
    def test_free_closed_form(self, zero1):
        g = greens_matrix(1j, 0.0, 1.0, 0.0, zero1)
        want = 0.5j * math.exp(-1.0) * np.array([[1.0, 1j], [-1j, 1.0]])
        assert matnorm(g.value - want) < 1e-10

    def test_read_off_at_x_far_from_x0(self):
        # M_+- are read off at x, not transferred there from x0: with
        # Im z |x - x0| = 100 the transfer used to give G11 = 9.3e70
        z, spec = 2 + 5j, smooth_bump_spec(n=401, tail_q=1.0)
        ev = GreensEvaluator(z, 0.0, spec)
        g = ev.value(20.0, 20.0, side=1).value
        assert abs(g[0, 0] - 0.5j) <= 1e-12
        for x in np.arange(1.0, 21.0):
            want = GreensEvaluator(z, x, spec).value(x, x, side=1).value
            got = ev.value(x, x, side=1).value
            assert matnorm(got - want) <= 1e-12 * matnorm(want)

    @pytest.mark.parametrize("xp, side", [(20.0, 1), (20.0, -1),
                                          (20.5, None), (21.0, None)])
    def test_free_closed_form_far_from_x0(self, zero1, xp, side):
        # G(z, x, x') = (i/2) e^{iz|x - x'|} (1, +-i; -+i, 1), the upper
        # signs for x < x'; the error grows like eps e^{2 Im z |x - x'|}
        # (measured 1.6e-16 on the diagonal, 2.3e-14 at 20.5, 2.5e-12 at 21)
        z = 2 + 5j
        g = GreensEvaluator(z, 0.0, zero1).value(20.0, xp, side=side).value
        sign = 1 if side == 1 or xp > 20.0 else -1
        want = (0.5j * np.exp(1j * z * abs(xp - 20.0))
                * np.array([[1, sign * 1j], [-sign * 1j, 1]]))
        assert matnorm(g - want) <= 1e-11 * matnorm(want)

    def test_whole_line_m_formed_when_asked(self, const_q1, monkeypatch):
        # one slot, the last x asked for (x0 for full), filled on first use
        fulls = count_calls(monkeypatch, fullline, "fullline_m")
        ev = GreensEvaluator(1j, 0.0, const_q1)
        assert fulls == []
        ev.value(0.5, [0.2, 0.9])
        ev.value(0.5, 0.7)
        assert len(fulls) == 1
        assert ev.full.x0 == 0.0 and ev.full is ev.full
        ev.value(0.0, 0.7)
        assert len(fulls) == 2

    def test_diagonal_average_matches_fullline(self, const_q1):
        z = 0.8 + 1.1j
        ev = GreensEvaluator(z, 0.0, const_q1)
        assert matnorm(ev.diagonal_m(0.0) - ev.full.matrix) < 1e-9

    def test_jump_identity(self, const_q1):
        # J (G(x'+d, x') - G(x'-d, x')) approaches the identity
        z = 1.3j
        ev = GreensEvaluator(z, 0.0, const_q1)
        j = jmat(1)
        devs = []
        for d in (1e-2, 1e-3, 1e-4):
            gp = ev.value(0.3 + d, 0.3).value
            gm = ev.value(0.3 - d, 0.3).value
            devs.append(matnorm(j @ (gp - gm) - np.eye(2)))
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 1e-3

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_points_rejected(self, const_q1, bad, monkeypatch):
        # refused before any transfer; a NaN x' used to give a NaN row, an
        # infinite one an overflowing walk
        ev = GreensEvaluator(1.3j, 0.0, const_q1)
        calls = count_calls(monkeypatch, Propagator, "transfer")
        for x, xp in ((bad, 0.3), (0.3, bad), (0.3, np.array([0.1, bad]))):
            with pytest.raises(DegenerateArguments, match="finite x and x'"):
                ev.value(x, xp)
        assert calls == []

    def test_resolvent_residual(self, const_q1_window):
        # psi = integral of G(z, x, x') phi(x') solves J psi' = (z+B) psi + phi
        z = 0.6 + 0.9j
        ev = GreensEvaluator(z, 0.0, const_q1_window)
        lo, hi = -0.5, 1.5

        def phi(x):
            # smooth compactly supported source
            if not lo < x < hi:
                return np.zeros(2)
            w = math.sin(math.pi * (x - lo) / (hi - lo)) ** 2
            return np.array([w, 0.5 * w])

        nodes = np.linspace(lo, hi, 801)
        vals = np.array([phi(t) for t in nodes])

        def psi(x):
            # split the quadrature at the integrand jump x' = x (the shared
            # endpoint takes the one-sided limit matching its segment) and at
            # the potential's piece edges, where G kinks
            cuts = sorted({lo, hi, x, 0.0, 1.0})
            out = np.zeros(2, dtype=complex)
            for a, b in zip(cuts, cuts[1:]):
                if b - a < 1e-12:
                    continue
                split_side = -1 if b == x else +1
                sub = np.linspace(a, b, 201)
                g = np.array([ev.value(x, t,
                                       side=split_side if t == x else None).value
                              @ phi(t) for t in sub])
                out = out + simpson(g, x=sub, axis=0)
            return out

        h = 1e-4
        j = jmat(1)
        for x in (0.2, 0.85):
            dpsi = (psi(x + h) - psi(x - h)) / (2 * h)
            resid = j @ dpsi - (z * np.eye(2)
                                + const_q1_window.eval(x)) @ psi(x) - phi(x)
            assert np.linalg.norm(resid) < 1e-6


class TestUpsilon:
    def test_free_half_identity(self, zero1):
        u = upsilon(0.3, 0.0, alpha_dirichlet(1), zero1, 1e-4)
        assert matnorm(u.value - 0.5 * np.eye(2)) < 1e-6

    @pytest.mark.parametrize("eps", [-1e-3, 0.0])
    def test_eps_must_be_positive(self, const_q1, eps, monkeypatch):
        # at eps < 0 the formula gives -Upsilon (eigenvalues -1/2 on q = 1
        # at lambda = 2); it raises before any whole-line M is formed
        import diracweyl.fullline as fl
        calls = count_calls(monkeypatch, fl, "halfline_m")
        with pytest.raises(DegenerateArguments):
            upsilon(2.0, 0.0, alpha_dirichlet(1), const_q1, eps)
        assert len(calls) == (0 if eps < 0 else 1)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf,
                                     np.array([0.0, math.inf, 1.0])])
    def test_lambda_must_be_finite(self, const_q1, lam, monkeypatch):
        import diracweyl.fullline as fl
        calls = count_calls(monkeypatch, fl, "halfline_m")
        with pytest.raises(DegenerateArguments):
            upsilon(lam, 0.0, alpha_dirichlet(1), const_q1, 1e-3)
        assert calls == []

    @pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
    def test_x0_must_be_finite(self, x0):
        # through halfline_m, before any work; on kp2 a NaN x0 used to
        # raise an untyped ValueError from the period reduction
        spec, a0 = kp2_spec(), alpha_dirichlet(2)
        for call in (lambda: upsilon(np.array([0.5, 2.0]), x0, a0, spec, 1e-3),
                     lambda: fullline_m(1j, x0, a0, spec),
                     lambda: GreensEvaluator(1j, x0, spec)):
            with pytest.raises(DegenerateArguments, match="finite x0"):
                call()

    def test_band_point(self, const_q1):
        u = upsilon(2.0, 0.0, alpha_dirichlet(1), const_q1, 1e-6, tol=1e-7)
        assert matnorm(u.value - 0.5 * np.eye(2)) < 1e-3

    def test_gap_projection(self, const_q1):
        # in the gap M(lam) is real symmetric with one negative eigenvalue
        # along (1, 1); the boundary density is that spectral projection.
        # Oracle: diagonalize the closed-form M by hand and take scalar logs.
        lam, eps = 0.5, 1e-6
        z = lam + 1j * eps
        mat = fullline_oracle_const_q(z, 1.0)
        v = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        mu = np.diag(v @ mat @ v)         # eigenvalues on (1,1) and (1,-1)
        lognu = np.diag(np.log(mu))
        oracle = v @ ((lognu - lognu.conj().T) / 2j) @ v / math.pi
        u = upsilon(lam, 0.0, alpha_dirichlet(1), const_q1, eps, tol=1e-7)
        assert matnorm(u.value - oracle) < 1e-4
        proj = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
        assert matnorm(u.value - proj) < 1e-3

    def test_eigenvalue_range(self, rng):
        spec = random_normal_form_spec(rng, 1)
        a0 = alpha_dirichlet(1)
        for lam in (-1.0, 0.2, 1.7):
            u = upsilon(lam, 0.0, a0, spec, 0.3)
            ev = np.linalg.eigvalsh(u.value)
            assert ev[0] > -1e-6 and ev[-1] < 1.0 + 1e-6

    def test_log_branch_failure(self):
        with pytest.raises(LogBranchFailure):
            principal_logm(np.zeros((2, 2)))

    def test_log_negative_axis_shifted(self):
        out = principal_logm(np.diag([-1.0, 2.0]).astype(complex))
        assert abs(out[0, 0].imag - math.pi) < 1e-10

    def test_log_matches_scipy_on_herglotz_matrices(self, rng):
        for m in (1, 2):
            spec = random_normal_form_spec(rng, m)
            for z in (0.8j, 1.0 + 0.7j, -0.6 + 1.2j, 0.3 + 1e-3j, 5.0 + 0.1j):
                mat = fullline_m(z, 0.2, alpha_dirichlet(m), spec).matrix
                assert matnorm(principal_logm(mat)
                               - scipy.linalg.logm(mat)) < 1e-12

    def test_log_defective_basis_falls_back_to_scipy(self, monkeypatch):
        # eigenvectors of a nearly defective matrix are nearly parallel
        # (cond(v) ~ 2e9), so the eigenbasis log is not trusted
        d = 1e-9
        mat = np.array([[1.0, 1.0], [0.0, 1.0 + d]], dtype=complex)
        calls = []
        logm = scipy.linalg.logm

        def counted_logm(a):
            calls.append(a)
            return logm(a)

        monkeypatch.setattr(scipy.linalg, "logm", counted_logm)
        out = principal_logm(mat)
        assert len(calls) == 1
        want = np.array([[0.0, np.log1p(d) / d], [0.0, np.log1p(d)]])
        assert matnorm(out - want) < 1e-12


class TestWorkCount:
    def test_upsilon_mixed_point(self, monkeypatch):
        # two whole-line M per sample (Richardson), each from two half-line
        # M that take one period transfer; the log needs no scipy.logm
        transfers, logms = [], []
        transfer = Propagator.transfer

        def counted_transfer(prop, xa, xb, scale=0):
            transfers.append((xa, xb))
            return transfer(prop, xa, xb, scale)

        monkeypatch.setattr(Propagator, "transfer", counted_transfer)
        monkeypatch.setattr(scipy.linalg, "logm",
                            lambda a: logms.append(a) or a)
        upsilon(-1.0, 0.0, alpha_dirichlet(2), kp2_spec(), 1e-3)
        assert len(transfers) <= 4
        assert not logms


def _q1_periodic():
    return PotentialSpec.constant(normal_form_matrix([[0.0]], [[1.0]]),
                                  period=1.0)


class TestStackedM:
    """halfline_m, fullline_m, principal_logm and upsilon on an array give,
    row by row and bit for bit, what each point gives as a stack of one and
    as a scalar; a scalar keeps the unstacked shapes and types."""

    # the q = 1 band edges, the kp2 mixed-channel point, a gap point, far
    # from the axis, and the lower half plane
    ZS = np.array([-1 + 1e-6j, 1 + 1e-6j, -1 + 1e-3j, 0.5 + 1e-2j, 2j,
                   -2.5 - 0.3j, 0.3 - 1e-4j])
    SPECS = {"q1": _q1_periodic, "kp2": kp2_spec,
             "bump": lambda: smooth_bump_spec(n=401, tail_q=0.5)}

    @staticmethod
    def _rows(f, points, *fields):
        stacked = f(points)
        for i, p in enumerate(points):
            alone, scalar = f(points[i:i + 1]), f(p)
            for name in fields:
                row = getattr(stacked, name)[i]
                assert np.array_equal(row, getattr(alone, name)[0])
                assert np.array_equal(row, getattr(scalar, name))
        return stacked

    @pytest.mark.parametrize("name", sorted(SPECS))
    @pytest.mark.parametrize("sign", [1, -1])
    def test_halfline_rows(self, name, sign):
        spec = self.SPECS[name]()
        alpha = alpha_dirichlet(spec.m)
        self._rows(lambda z: halfline_m(z, 0.0, alpha, spec, sign=sign),
                   self.ZS, "M", "tail_bound")

    @pytest.mark.parametrize("q", [(1.0, 0.2), (1.0,)])
    def test_carry_bisects_only_failing_entries(self, q, monkeypatch):
        # TestConstantOverflow's window: the carry at 0.5 +- 1e-3i bisects
        # past overflowing transfers, the one at 2 + 1e-3i takes a single
        # transfer, and stacked with the others it keeps that factor
        m = len(q)
        spec = PotentialSpec.constant(
            normal_form_matrix(np.zeros((m, m)), np.diag(q)),
            x_lo=0.0, x_hi=2e4)
        alpha = alpha_dirichlet(m)
        depths = []
        transfer = Propagator.transfer

        def recorded_transfer(prop, xa, xb, scale=0):
            depths.append(np.size(prop.z))
            return transfer(prop, xa, xb, scale)

        monkeypatch.setattr(Propagator, "transfer", recorded_transfer)
        halfline_m(2 + 1e-3j, 0.0, alpha, spec)
        assert depths == [1]
        zs = np.array([0.5 + 1e-3j, 2 + 1e-3j])
        depths.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            h = halfline_m(zs, 0.0, alpha, spec)
        # one transfer of the pair, then the bisection on the failing entry
        assert depths[0] == 2 and set(depths[1:]) == {1}
        for i in range(len(zs)):
            alone = halfline_m(zs[i:i + 1], 0.0, alpha, spec)
            assert np.array_equal(h.M[i], alone.M[0])
            assert h.tail_bound[i] == alone.tail_bound[0]

    @pytest.mark.parametrize("name", ["q1", "kp2"])
    def test_fullline_rows(self, name):
        spec = self.SPECS[name]()
        alpha = alpha_dirichlet(spec.m)
        self._rows(lambda z: fullline_m(z, 0.2, alpha, spec), self.ZS,
                   "matrix", "m22_defect")

    @pytest.mark.parametrize("name,eps", [("q1", 1e-6), ("kp2", 1e-3)])
    def test_upsilon_rows(self, name, eps):
        spec = self.SPECS[name]()
        alpha = alpha_dirichlet(spec.m)
        self._rows(lambda lam: upsilon(lam, 0.0, alpha, spec, eps),
                   np.linspace(-4.0, 4.0, 9), "value", "raw")

    def test_principal_logm_rows(self, monkeypatch):
        # an eigenvalue on the cut, a nearly defective basis (the scipy
        # fallback) and a whole-line M in one stack
        mats = np.array([
            np.diag([-1.0, 2.0]),
            [[1.0, 1.0], [0.0, 1.0 + 1e-9]],
            fullline_m(0.3 + 1e-3j, 0.0, alpha_dirichlet(1),
                       _q1_periodic()).matrix], dtype=complex)
        calls = []
        logm = scipy.linalg.logm
        monkeypatch.setattr(scipy.linalg, "logm",
                            lambda a: calls.append(a) or logm(a))
        stacked = principal_logm(mats)
        assert len(calls) == 1 and np.array_equal(calls[0], mats[1])
        assert stacked[0, 0, 0] == 1j * math.pi
        for i, mat in enumerate(mats):
            assert np.array_equal(stacked[i], principal_logm(mats[i:i + 1])[0])
            assert np.array_equal(stacked[i], principal_logm(mat))

    def test_scalar_shapes_and_types(self):
        spec, alpha = kp2_spec(), alpha_dirichlet(2)
        h = halfline_m(1 + 1j, 0.0, alpha, spec)
        assert h.M.shape == (2, 2) and type(h.z) is complex
        assert isinstance(h.tail_bound, float)
        h = halfline_m([1 + 1j, 2j], 0.0, alpha, spec)
        assert h.M.shape == (2, 2, 2) and h.tail_bound.shape == (2,)
        f = fullline_m(1 + 1j, 0.0, alpha, spec)
        assert f.matrix.shape == (4, 4) and type(f.z) is complex
        assert isinstance(f.m22_defect, float)
        assert principal_logm(f.matrix).shape == (4, 4)
        u = upsilon(0.5, 0.0, alpha, spec, 1e-3)
        assert u.value.shape == u.raw.shape == (4, 4)
        assert type(u.lam) is float
        u = upsilon([0.5], 0.0, alpha, spec, 1e-3)
        assert u.value.shape == (1, 4, 4) and u.lam.shape == (1,)


def _nonreal_periodic(m):
    """Complex Hermitian constant and grid pieces, period 1."""
    return random_hermitian_spec(np.random.default_rng(40 + m), m, grid=True,
                                 periodic=True, real=False)


class TestSharedPeriodicPass:
    """On a periodic spec M_- comes from the forward period transfer T and
    M_+ from its symplectic inverse J^{-1} T(zbar)^H J, and fullline_m's two
    half-line calls share the transfer and one subspace pass."""

    SPECS = {"q1": _q1_periodic, "kp2": kp2_spec,
             "nonreal1": lambda: _nonreal_periodic(1),
             "nonreal2": lambda: _nonreal_periodic(2)}
    # both half planes, Im z from 1e-8 to 400, in and out of the bands
    ZS = np.array([re + 1j * s * im for re in (-2.0, -0.5, 1.0, 3.0)
                   for im in (1e-8, 1e-6, 1e-3, 0.1, 1.0, 30.0, 400.0)
                   for s in (1, -1)])

    @staticmethod
    def _backward_mplus(zs, x0, alpha, spec):
        """M_+ as the dominant subspace of the backward period transfer
        T(x0 - w <- x0), the route before the symplectic inverse, for a
        stack of z in one half plane."""
        back = x0 - spec.period
        t = Propagator(zs, spec).transfer(x0, back,
                                          scale=auto_scale(zs[0], x0, back))
        u, _ = weyldisk._invariant_subspace(t, alpha.m)
        au = alpha.alpha @ u
        return -np.linalg.solve(au.mT, (alpha.alpha_j() @ u).mT).mT

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_adjoint_matches_backward_transfer(self, name):
        # both routes are accurate to about eps ||T|| / gap, which grows
        # near the bands as Im z -> 0; measured worst relative distance
        # 2.0e-15 at |Im z| >= 1 and 3.0e-12 below (q1 in band at 1e-8;
        # 1.8e-14 on the non-real specs)
        spec = self.SPECS[name]()
        assert spec.is_real == (name in ("q1", "kp2"))
        alpha = alpha_dirichlet(spec.m)
        for zs in (self.ZS[self.ZS.imag > 0], self.ZS[self.ZS.imag < 0]):
            got = halfline_m(zs, 0.3, alpha, spec, sign=1, tol=1.0).M
            want = self._backward_mplus(zs, 0.3, alpha, spec)
            gate = np.where(abs(zs.imag) >= 1, 2e-14, 1e-11)
            assert np.all(matnorm(got - want) <= gate * matnorm(want))

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_sides_equal_separate_calls(self, name):
        # a mixed half-plane stack, and each row as a stack of one
        spec = self.SPECS[name]()
        alpha = alpha_dirichlet(spec.m)
        zs = np.array([1 + 1e-6j, -0.5 - 1e-3j, 3 + 0.1j, -2 - 1j, 1 + 30j])
        f = fullline_m(zs, 0.3, alpha, spec, tol=1.0)
        for h, sign in ((f.plus, 1), (f.minus, -1)):
            alone = halfline_m(zs, 0.3, alpha, spec, sign=sign, tol=1.0)
            assert np.array_equal(h.M, alone.M)
            assert np.array_equal(h.tail_bound, alone.tail_bound)
        for i in range(len(zs)):
            one = fullline_m(zs[i:i + 1], 0.3, alpha, spec, tol=1.0)
            assert np.array_equal(one.plus.M[0], f.plus.M[i])
            assert np.array_equal(one.minus.M[0], f.minus.M[i])
            assert np.array_equal(one.matrix[0], f.matrix[i])

    @pytest.mark.parametrize("name,transfers", [
        ("q1", 2), ("kp2", 2), ("nonreal2", 4)])
    def test_work_counts(self, name, transfers, monkeypatch):
        # per half-plane group: one forward transfer (and one at zbar on a
        # non-real spec), one stacked subspace pass over both sides and m
        # eig in its deflation; the backward route took two transfers, two
        # passes and 2m eig
        spec = self.SPECS[name]()
        m = spec.m
        zs = np.array([1 + 1j, -0.5 + 1e-3j, 2j, 0.3 - 0.2j, -1 - 1j])
        under, outside = count_eig(monkeypatch)
        spans = []
        transfer = Propagator.transfer

        def recorded_transfer(prop, xa, xb, scale=0):
            spans.append((np.size(prop.z), xb - xa))
            return transfer(prop, xa, xb, scale)

        monkeypatch.setattr(Propagator, "transfer", recorded_transfer)
        passes = count_calls(monkeypatch, weyldisk, "_invariant_subspace")
        fullline_m(zs, 0.0, alpha_dirichlet(m), spec)
        assert len(spans) == transfers
        assert all(w == 1.0 for _, w in spans)
        assert passes == [(6, 2 * m, 2 * m), (4, 2 * m, 2 * m)]
        assert under == [] and len(outside) == 2 * m
        # a single side costs what it cost on the backward route
        for sign in (1, -1):
            spans.clear(), passes.clear(), outside.clear()
            halfline_m(zs, 0.0, alpha_dirichlet(m), spec, sign=sign)
            assert len(spans) == 2 and len(outside) == 2 * m
            assert passes == [(3, 2 * m, 2 * m), (2, 2 * m, 2 * m)]

    @staticmethod
    def _poison(monkeypatch, spec, zs, side, how):
        """Make side's subspace pass fail (how="raise") or its sensitivity
        exceed every gate (how="gate"); side's rows are recognised bit for
        bit as the forward period transfer (-1) or its inverse (+1).  Every
        halfline_m call of fullline_m is logged as (sign, its HalfLineM or
        None if it raised)."""
        t = Propagator(zs, spec).transfer(
            0.0, 1.0, scale=auto_scale(zs[0], 0.0, 1.0))
        target = t if side < 0 else _minus_j(_minus_j(t).mT)
        subspace, halfline = weyldisk._invariant_subspace, fullline.halfline_m
        calls = []

        def poisoned(mat, m, sort=None):
            hit = np.array([any(np.array_equal(a, b) for b in target)
                            for a in mat])
            if how == "raise" and hit.any():
                raise NoConvergence("poisoned side")
            q, sens = subspace(mat, m, sort)
            return q, np.where(hit, 1e30, sens)

        def logged(*args, sign, **kwargs):
            try:
                out = halfline(*args, sign=sign, **kwargs)
            except NoConvergence:
                calls.append((sign, None))
                raise
            calls.append((sign, out))
            return out

        monkeypatch.setattr(weyldisk, "_invariant_subspace", poisoned)
        monkeypatch.setattr(fullline, "halfline_m", logged)
        return calls

    @pytest.mark.parametrize("how", ["raise", "gate"])
    @pytest.mark.parametrize("side", [1, -1])
    @pytest.mark.parametrize("name", ["q1", "kp2"])
    def test_failing_side_raises_from_its_own_call(self, name, side, how,
                                                   monkeypatch):
        spec = self.SPECS[name]()
        alpha = alpha_dirichlet(spec.m)
        zs = np.array([1 + 1j, -0.5 + 1e-3j])
        plus = halfline_m(zs, 0.0, alpha, spec, sign=1).M
        calls = self._poison(monkeypatch, spec, zs, side, how)
        with pytest.raises(NoConvergence) as err:
            fullline_m(zs, 0.0, alpha, spec)
        msg = "poisoned side" if how == "raise" else "ill conditioned"
        assert msg in str(err.value)
        if how == "gate":
            assert err.value.best is not None
        if side > 0:     # + before -: the - side is never asked
            assert calls == [(1, None)]
        else:
            # the + side passes with its own bits (alone, after a joint
            # pass that raised, when the subspace pass is poisoned)
            assert [s for s, _ in calls] == [1, -1] and calls[1][1] is None
            assert np.array_equal(calls[0][1].M, plus)


class TestGreensSweep:
    """GreensEvaluator.value over an array of x' chains the transfers
    outward from x; its rows agree with scalar calls, each of which takes
    its own transfer from x."""

    SPECS = {"q1": _q1_periodic, "kp2": kp2_spec, "bump": smooth_bump_spec,
             "bump401": lambda: smooth_bump_spec(n=401)}
    # name: (number of x', gate); 200 x' cut the 400 cells of the 401-node
    # bump often enough that its rows differ from scalar calls by the
    # split's Magnus step error, 1.6e-10
    SWEEPS = {"bump401": (200, 2e-10)}
    Z, X = 2 + 1j, 0.5

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_rows_match_scalar_calls(self, name):
        # chaining cuts the cells of a grid piece at every earlier x', so
        # the rows agree to the Magnus steps' error, not bit for bit
        n, gate = self.SWEEPS.get(name, (41, 1e-12))
        ev = GreensEvaluator(self.Z, 0.0, self.SPECS[name]())
        xps = np.linspace(-3.0, 3.0, n)
        g = ev.value(self.X, xps)
        assert g.value.shape == (len(xps),) + (2 * ev.spec.m,) * 2
        assert np.array_equal(g.xp, xps)
        for xp, row in zip(xps, g.value):
            one = ev.value(self.X, float(xp)).value
            assert matnorm(row - one) <= gate * matnorm(one)

    def test_diagonal_honours_side(self, const_q1_window):
        ev = GreensEvaluator(self.Z, 0.0, const_q1_window)
        xps = [-0.4, self.X, 1.2]
        for side in (1, -1):
            g = ev.value(self.X, xps, side=side).value
            want = ev.value(self.X, self.X, side=side).value
            assert matnorm(g[1] - want) <= 1e-13 * matnorm(want)
        # the jump across the diagonal is J^{-1} = -J
        jump = (ev.value(self.X, xps, side=1).value[1]
                - ev.value(self.X, xps, side=-1).value[1])
        assert matnorm(jmat(1) @ jump + np.eye(2)) < 1e-10
        for xp in (self.X, xps):
            with pytest.raises(ValueError):
                ev.value(self.X, xp)

    def test_scalar_shapes_and_types(self, const_q1):
        g = GreensEvaluator(self.Z, 0.0, const_q1).value(self.X, 1)
        assert g.value.shape == (2, 2) and type(g.xp) is float

    @pytest.mark.parametrize("n", [1, 5, 12])
    def test_one_transfer_per_point(self, n, monkeypatch):
        # with the whole-line M at x formed, each x' from its neighbour
        # nearer x and no transfer to x
        ev = GreensEvaluator(self.Z, 0.0, kp2_spec())
        ev.value(self.X, self.X, side=1)
        fulls = count_calls(monkeypatch, fullline, "fullline_m")
        spans = []
        transfer = Propagator.transfer

        def counted_transfer(prop, xa, xb, scale=0):
            spans.append((xa, xb))
            return transfer(prop, xa, xb, scale)

        monkeypatch.setattr(Propagator, "transfer", counted_transfer)
        xps = np.linspace(1.7, -2.3, n)
        ev.value(self.X, xps)
        assert len(spans) == n and fulls == []
        # every cell between x and the farthest x' on each side once
        walked = sum(abs(xb - xa) for xa, xb in spans)
        assert walked == pytest.approx(max(xps.max(), self.X)
                                       - min(xps.min(), self.X))
