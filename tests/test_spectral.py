import itertools
import math
import tracemalloc

import numpy as np
import pytest

from diracweyl import (
    ConstantPiece,
    PotentialSpec,
    band_spectrum,
    borg_diagnostic,
    matnorm,
    monodromy,
    normal_form_matrix,
    reflectionless_check,
    save_potential,
    trace_check,
    uniqueness_decay,
)
from diracweyl import cli, spectral
from diracweyl.errors import (
    DegenerateArguments,
    DifferenceBelowNoise,
    IntegrationFailure,
    NotPeriodic,
)
from diracweyl.propagator import Propagator
from conftest import count_calls, kp2_spec, smooth_bump_spec


@pytest.fixture
def step_bump():
    """Decaying piecewise-constant normal-form bump on [0, 1]."""
    return PotentialSpec(m=1, pieces=(
        ConstantPiece(0.0, 0.5, normal_form_matrix([[0.0]], [[0.6]])),
        ConstantPiece(0.5, 1.0, normal_form_matrix([[0.0]], [[0.3]])),
    ), name="steps")


class TestTraceFormula:
    def test_constant_coupling(self, const_q1):
        tc = trace_check(0.5, const_q1, zmags=(1e2, 3e2, 1e3))
        assert matnorm(tc.lhs - np.array([[0, 2], [2, 0]])) < 1e-14
        assert tc.residuals[0] < 1e-2
        assert tc.residuals[0] > tc.residuals[1] > tc.residuals[2]

    def test_free(self, zero1):
        tc = trace_check(0.5, zero1, zmags=(10.0, 30.0))
        assert matnorm(tc.lhs) == 0.0
        assert all(r < 1e-10 for r in tc.residuals)

    def test_step_bump_limit(self, step_bump):
        # at a continuity point of B the residual shrinks along the ray
        tc = trace_check(0.25, step_bump, zmags=(50.0, 150.0, 450.0),
                         tol=1e-12)
        want = np.array([[0.0, 1.2], [1.2, 0.0]])
        assert matnorm(tc.lhs - want) < 1e-14
        assert tc.residuals[-1] < 0.01 * matnorm(want)

    @pytest.mark.parametrize("ray_angle, zmags", [
        (math.pi / 2, (100.0,)), (math.pi / 2, (100.0, 100.0)),
        (0.0, (100.0, 300.0))], ids=["one", "repeated", "real-ray"])
    def test_unfittable_ray_is_refused(self, const_q1, monkeypatch,
                                       ray_angle, zmags):
        # a fit in 1/z needs two distinct |z|, and M needs Im z != 0; both
        # are refused before any transfer
        calls = count_calls(monkeypatch, Propagator, "transfer")
        with pytest.raises(DegenerateArguments):
            trace_check(0.5, const_q1, ray_angle=ray_angle, zmags=zmags)
        assert calls == []

    def test_one_stacked_call(self, const_q1, monkeypatch):
        # the len(zmags) ray points take one whole-line M and one log
        import diracweyl.spectral as sp
        fulls = count_calls(monkeypatch, sp, "fullline_m")
        logs = count_calls(monkeypatch, sp, "principal_logm")
        tc = trace_check(0.5, const_q1, zmags=(1e2, 3e2, 1e3))
        assert fulls == [(3,)] and logs == [(3, 2, 2)]
        assert len(tc.rhs) == len(tc.residuals) == 3

    @pytest.mark.parametrize("name, x", [
        ("kp2", 0.5), ("kp2", 0.0), ("bump tail", 1.0)])
    def test_jump_of_b_is_refused(self, monkeypatch, name, x):
        # at a jump the fitted limit is not the average of the one-sided
        # combs (kp2 at x = 0.5 answered with a limit 0.447 off), so the x
        # is refused before any transfer; kp2 at x = 0.3, where B is
        # continuous, answers (test_fitted_limit)
        spec = (kp2_spec() if name == "kp2"
                else smooth_bump_spec(n=21, tail_q=1.0))
        calls = count_calls(monkeypatch, Propagator, "transfer")
        with pytest.raises(DegenerateArguments, match="B does not jump"):
            trace_check(x, spec)
        assert calls == []

    @pytest.mark.parametrize("name, x, gate", [
        ("q1", 0.5, 1e-8), ("kp2", 0.3, 1e-8),
        ("bump", 0.25, 1e-7), ("bump", 0.2503, 1e-7)])
    def test_fitted_limit(self, const_q1, name, x, gate):
        # the -2 c_1 of the fit in 1/z through the six default |z| (100 to
        # 1450 on arg pi/2) against the comb of B at a continuity point;
        # measured 2.2e-10 (q1), 3.0e-10 (kp2), 1.4e-8 and 2.8e-8 (bump)
        spec = (const_q1 if name == "q1" else
                {"kp2": kp2_spec, "bump": smooth_bump_spec}[name]())
        tc = trace_check(x, spec)
        assert np.allclose(np.abs(tc.zs), np.geomspace(100.0, 1450.0, 6))
        assert matnorm(tc.limit - tc.lhs) <= gate
        assert all(a > b for a, b in zip(tc.residuals, tc.residuals[1:]))


class TestFloquet:
    def test_free_rotation(self):
        spec = PotentialSpec.constant(np.zeros((2, 2), complex),
                                      period=math.pi)
        mono = monodromy(1.0, spec)
        assert matnorm(mono.matrix + np.eye(2)) < 1e-12
        assert np.allclose(mono.multipliers, [-1.0, -1.0], atol=1e-10)

    def test_determinant_one(self, rng, const_q1_periodic):
        for lam in (0.3, 1.7, -2.4):
            mono = monodromy(lam, const_q1_periodic)
            assert abs(np.linalg.det(mono.matrix) - 1.0) < 1e-10

    def test_gap_growth_rate(self, const_q1_periodic):
        mono = monodromy(0.5, const_q1_periodic)
        want = math.exp(math.sqrt(1.0 - 0.25))
        assert abs(np.abs(mono.multipliers[-1]) - want) < 1e-10

    def test_multiplier_pairing(self, rng):
        # at real z the multiplier multiset is invariant under mu -> 1/conj(mu)
        pieces = (ConstantPiece(0.0, 0.6, normal_form_matrix([[0.3]], [[0.7]])),
                  ConstantPiece(0.6, 1.0, normal_form_matrix([[-0.2]], [[0.1]])))
        spec = PotentialSpec(m=1, pieces=pieces, period=1.0)
        for lam in (0.4, 1.9):
            mults = list(monodromy(lam, spec).multipliers)
            images = [1.0 / np.conj(w) for w in mults]
            # in a band (lambda = 1.9) both multipliers are unimodular, so
            # sorting by modulus breaks the tie on roundoff: compare the
            # multisets under the best pairing instead
            assert min(max(abs(a - b) for a, b in zip(mults, perm))
                       for perm in itertools.permutations(images)) < 1e-9

    def test_band_edges(self, const_q1_periodic):
        lams = np.linspace(-3.0, 3.0, 601)
        bs = band_spectrum(const_q1_periodic, lams)
        assert np.isfinite(bs.multipliers).all()
        assert bs.bands == ((-3.0, -1.0), (1.0, 3.0))
        (gap,) = bs.gaps
        assert abs(gap[0] + 1.0) <= 0.011 and abs(gap[1] - 1.0) <= 0.011

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_real_multipliers_stay_complex(self, lam):
        # in the gap of q = I_2 all four multipliers are real, and eigvals
        # of the real monodromy returns them as float64; readers such as
        # the CLI's .view(float) need complex128
        spec = PotentialSpec.constant(
            normal_form_matrix(np.zeros((2, 2)), np.eye(2)), period=1.0)
        for z in (lam, np.array([lam])):
            mono = monodromy(z, spec)
            assert mono.matrix.dtype == np.float64
            assert mono.multipliers.dtype == np.complex128
            assert np.all(mono.multipliers.imag == 0)
            assert mono.multipliers.view(float).shape[-1] == 8
        r = math.sqrt(1.0 - lam * lam)
        want = [math.exp(-r)] * 2 + [math.exp(r)] * 2
        assert np.allclose(mono.multipliers[0].real, want, rtol=1e-13)

    def test_free_fully_in_band(self):
        spec = PotentialSpec.constant(np.zeros((2, 2), complex), period=1.0)
        bs = band_spectrum(spec, np.linspace(-2, 2, 81))
        assert bool(np.all(bs.in_band))

    def test_descending_grid(self):
        # runs go by index, so a descending grid keeps its interior gaps;
        # 601 lambda in three blocks, each row bit for bit
        spec = kp2_spec()
        lams = np.linspace(-8.0, 8.0, 601)
        up, down = band_spectrum(spec, lams), band_spectrum(spec, lams[::-1])
        assert len(up.gaps) == 3
        assert (down.bands, down.gaps) == (up.bands, up.gaps)
        assert np.array_equal(down.in_band, up.in_band[::-1])
        assert np.array_equal(down.multipliers, up.multipliers[::-1])

    @pytest.mark.parametrize("tol", [-1e-6, math.nan, math.inf])
    def test_tol_must_be_finite_nonnegative(self, const_q1_periodic, tol):
        with pytest.raises(DegenerateArguments, match="tol"):
            band_spectrum(const_q1_periodic, np.linspace(-3.0, 3.0, 7), tol)

    def test_blocked_stack_matches_per_point(self, monkeypatch):
        # 601 lambda span three blocks of 256, and both block boundaries
        # fall inside a band
        monkeypatch.setattr(spectral, "_LAMBDA_BLOCK", 256)
        spec = kp2_spec()
        lams = np.linspace(-8.0, 8.0, 601)
        bs = band_spectrum(spec, lams)
        eff = 1e-6
        mults = np.array([monodromy(lam, spec).multipliers for lam in lams])
        flags = [bool(np.all(np.abs(np.abs(mu) - 1.0) <= eff)) for mu in mults]
        assert np.array_equal(bs.multipliers, mults)
        assert list(bs.in_band) == flags
        assert all(flags[i - 1] and flags[i]
                   for i in range(256, len(lams), 256))
        runs = {True: [], False: []}
        for i, f in enumerate(flags):
            if i == 0 or f != flags[i - 1]:
                runs[f].append([lams[i], lams[i]])
            runs[f][-1][1] = lams[i]
        assert bs.bands == tuple(map(tuple, runs[True]))
        assert bs.gaps == tuple(tuple(g) for g in runs[False]
                                if g[0] > lams[0] and g[1] < lams[-1])
        assert len(bs.gaps) == 3

    def test_stacked_monodromy_rows(self):
        spec = kp2_spec()
        zs = np.array([-2.5, 0.3 + 0.1j, 4.0])
        mono = monodromy(zs, spec)
        assert mono.matrix.shape == (3, 4, 4)
        for i, z in enumerate(zs):
            one = monodromy(z, spec)
            assert np.array_equal(mono.matrix[i], one.matrix)
            assert np.array_equal(mono.multipliers[i], one.multipliers)

    def test_block_bounds_memory(self):
        # blocks of 1024 lambda trace 1.23 MB here, of 512 0.77 MB and one
        # stack over all 4001 lambda 3.98 MB
        spec = kp2_spec()
        lams = np.linspace(-8.0, 8.0, 4001)
        band_spectrum(spec, lams[:8])
        tracemalloc.start()
        try:
            band_spectrum(spec, lams)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    def test_bands_csv_bounds_memory(self, tmp_path, monkeypatch):
        # the bands command on 4001 lambda less the band structure traced
        # 1.8 MB here with a per-row loop over rows.tolist() as its CSV
        # writer, 1.0 MB with the array writer
        spec = kp2_spec()
        path = tmp_path / "kp2.json"
        save_potential(spec, path)
        bs = band_spectrum(spec, np.linspace(-8.0, 8.0, 4001))
        monkeypatch.setattr(cli, "band_spectrum", lambda *args, **kw: bs)
        argv = ["bands", "--potential", str(path), "--lambda=-8:8:4001",
                "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 0      # builds the writer's layout tables
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    def test_grid_stack_bounds_memory(self):
        # 64 lambda on a 400-cell period: one (z, cell) stack traced ~18 MB
        # here; batches of _CELL_BLOCK (z, cell) pairs trace ~1.8 MB
        xs = np.linspace(0.0, 1.0, 401)
        vals = np.array([normal_form_matrix([[0.3 * math.cos(2 * math.pi * x)]],
                                            [[0.5]]) for x in xs])
        spec = PotentialSpec.from_samples(xs, vals, period=1.0)
        lams = np.linspace(-4.0, 4.0, 64)
        tracemalloc.start()
        try:
            band_spectrum(spec, lams)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_not_periodic(self, const_q1):
        with pytest.raises(NotPeriodic):
            monodromy(1.0, const_q1)
        with pytest.raises(NotPeriodic):
            band_spectrum(const_q1, [0.0, 1.0])

    def test_eigvals_route(self, monkeypatch):
        # eigvals runs for a complex monodromy and for m >= 3 only
        calls = count_calls(monkeypatch, np.linalg, "eigvals")
        spec = kp2_spec()
        monodromy(np.linspace(-2.0, 2.0, 5), spec)
        monodromy(0.3, spec)
        assert calls == []
        monodromy(np.array([0.3 + 0.1j, 1.0 + 0j]), spec)
        monodromy(0.3, _equal_channels_spec(3))
        assert calls == [(2, 4, 4), (6, 6)]

    @pytest.mark.parametrize("lam", [0.0, 0.5, 2.0])
    def test_m3_multipliers(self, lam):
        # m = 3 goes through eigvals; in the gap of q = I_3 (lambda = 0,
        # 0.5) all six multipliers are real and eigvals returns float64
        spec = _equal_channels_spec(3)
        for z in (lam, np.array([lam])):
            mono = monodromy(z, spec)
            assert mono.matrix.dtype == np.float64
            assert mono.multipliers.dtype == np.complex128
            assert mono.multipliers.view(float).shape[-1] == 12
        mults = mono.multipliers[0]
        # reciprocal pairs: the characteristic polynomial is palindromic
        poly = np.poly(mults)
        assert np.allclose(poly, poly[::-1], rtol=0, atol=1e-12)
        if lam < 1.0:
            r = math.sqrt(1.0 - lam * lam)
            want = [math.exp(-r)] * 3 + [math.exp(r)] * 3
            assert np.allclose(mults.real, want, rtol=1e-13)
        else:
            assert np.allclose(np.abs(mults), 1.0, rtol=0, atol=1e-13)

    def test_monodromy_not_finite(self):
        spec = kp2_spec()
        for z in (math.nan, np.array([0.5, math.nan]), 800j):
            with pytest.raises(IntegrationFailure):
                monodromy(z, spec)

    @pytest.mark.parametrize("lams", [[0.0, 1.0 + 1e-3j], [0.0, math.nan],
                                      [-math.inf, 1.0], [1.0, math.inf]])
    def test_band_spectrum_rejects_lambda(self, const_q1_periodic, lams):
        with pytest.raises(DegenerateArguments):
            band_spectrum(const_q1_periodic, lams)

    def test_band_spectrum_complex_dtype_real_values(self, const_q1_periodic):
        lams = np.linspace(-3.0, 3.0, 61)
        want = band_spectrum(const_q1_periodic, lams)
        got = band_spectrum(const_q1_periodic, lams.astype(complex))
        assert got.lams.dtype == np.float64
        assert np.array_equal(got.multipliers, want.multipliers)
        assert got.bands == want.bands


def _equal_channels_spec(m):
    """Constant B = [[0, I_m], [I_m, 0]] on period 1: m identical channels
    with coupling q = 1."""
    return PotentialSpec.constant(np.kron([[0.0, 1.0], [1.0, 0.0]], np.eye(m)),
                                  period=1.0)


def _random_real_spec(seed, m, kind):
    rng = np.random.default_rng(seed)

    def sym(n, scale):
        a = rng.normal(scale=scale, size=(n, n))
        return a + a.T

    if kind == "equal":
        return PotentialSpec(m=m, period=1.0, pieces=(
            ConstantPiece(0.0, 0.3, np.kron(sym(2, 1.0), np.eye(m))),
            ConstantPiece(0.3, 1.0, np.kron(sym(2, 1.0), np.eye(m)))))
    if kind == "constant":
        return PotentialSpec(m=m, period=1.0, pieces=(
            ConstantPiece(0.0, 0.4, sym(2 * m, 1.0)),
            ConstantPiece(0.4, 1.0, sym(2 * m, 1.0))))
    xs = np.linspace(0.0, 1.0, 6)
    return PotentialSpec.from_samples(
        xs, np.array([sym(2 * m, 0.7) for _ in xs]), period=1.0)


def _near_edges(spec, grid, steps):
    """Both ends of each bracket of grid that holds a band edge, narrowed
    by steps bisections."""
    def in_band(lams):
        mults = monodromy(lams, spec).multipliers
        return np.all(np.abs(np.abs(mults) - 1.0) <= 1e-6, axis=1)

    flags = in_band(grid)
    edges = np.flatnonzero(flags[1:] != flags[:-1])
    lo, hi = grid[edges], grid[edges + 1]
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        same = in_band(mid) == flags[edges]
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    return np.concatenate([lo, hi])


def _sorted_eigvals(t):
    mult = np.linalg.eigvals(t).astype(complex)
    return np.take_along_axis(mult, np.argsort(np.abs(mult), axis=-1), axis=-1)


def _charpoly_dev(a, b):
    """Largest coefficient difference of the monic polynomials with roots
    a and b, per row, relative to 1 + the largest coefficient of b."""
    pa = np.array([np.poly(r) for r in a])
    pb = np.array([np.poly(r) for r in b])
    return np.abs(pa - pb).max(axis=1) / (1.0 + np.abs(pb).max(axis=1))


class TestClosedFormMultipliers:
    """The symplectic closed form of the real path against eigvals of the
    same monodromies, and against a 40-digit eigen-solver."""

    @pytest.mark.parametrize("seed", [11, 12])
    @pytest.mark.parametrize("m, kind", [(1, "constant"), (1, "grid"),
                                         (2, "constant"), (2, "grid"),
                                         (2, "equal")])
    def test_matches_eigvals(self, seed, m, kind):
        spec = _random_real_spec(seed, m, kind)
        grid = np.linspace(-4.0, 4.0, 161)
        near = _near_edges(spec, grid, 12)
        assert len(near) >= 4
        mono = monodromy(np.concatenate([grid, near]), spec)
        ref = _sorted_eigvals(mono.matrix)
        assert _charpoly_dev(mono.multipliers, ref).max() < 1e-13
        eff = 1e-6
        dev = np.abs(np.abs(mono.multipliers) - 1.0).max(axis=1)
        dev_ref = np.abs(np.abs(ref) - 1.0).max(axis=1)
        decided = (np.abs(dev - eff) > 1e-8) & (np.abs(dev_ref - eff) > 1e-8)
        assert decided.mean() > 0.9
        assert np.array_equal((dev <= eff)[decided], (dev_ref <= eff)[decided])

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("q_omega", [30.0, 400.0])
    def test_deep_gap_relative_accuracy(self, m, q_omega):
        # B = [[0, Q], [Q, 0]], Q = diag(q, 0.99 q), on a period omega has
        # the multipliers e^{+-q omega} and e^{+-0.99 q omega} at
        # lambda = 0.  eigvals would give the small ones only to eps |T|,
        # and at q omega = 400, where |T| is about 1e173, products of
        # unscaled entries of T overflow
        q, omega = q_omega / 10.0, 10.0
        rates = np.array([1.0, 0.99][:m])
        spec = PotentialSpec.constant(
            np.kron([[0.0, 1.0], [1.0, 0.0]], q * np.diag(rates)),
            x_lo=0.0, x_hi=omega, period=omega)
        mults = monodromy(0.0, spec).multipliers
        assert np.all(mults.imag == 0)
        want = np.exp(np.sort(np.concatenate([-rates, rates])) * q_omega)
        assert np.allclose(mults.real, want, rtol=1e-12, atol=0)

    def test_kp2_against_mpmath(self):
        # 40-digit eigenvalues of the same float64 monodromies: within 1e-14
        # on a grid, and near the band edges within the amplification
        # 1/|mu - 1/mu| of the rounding of w
        mpmath = pytest.importorskip("mpmath")
        spec = kp2_spec()
        grid = np.linspace(-8.0, 8.0, 41)
        lams = np.concatenate([grid, _near_edges(spec, grid, 30)])
        mono = monodromy(lams, spec)
        errs = []
        with mpmath.workdps(40):
            for t, mults in zip(mono.matrix, mono.multipliers):
                ref = mpmath.eig(mpmath.matrix(t.tolist()), left=False,
                                 right=False)
                ref = np.array([complex(v) for v in ref])
                # pair each multiplier with its reference under the best
                # permutation: unimodular ones tie in modulus
                errs.append(min(np.abs(mults - ref[list(perm)]).max()
                                for perm in itertools.permutations(range(4))))
        errs = np.array(errs)
        assert errs[:len(grid)].max() < 1e-14
        sep = np.abs(mono.multipliers - 1.0 / mono.multipliers).min(axis=1)
        eps = np.finfo(float).eps
        assert np.all(errs[len(grid):] < 1e-14 + 8 * eps / sep[len(grid):])


class TestReflectionless:
    def test_free(self, zero1):
        rep = reflectionless_check(zero1, xs=[0.0, 1.0], lams=[0.3, 2.0],
                                   eps=1e-4, tol=1e-3)
        assert rep.ok

    def test_constant_coupling_in_band(self, const_q1_periodic):
        rep = reflectionless_check(const_q1_periodic, xs=[0.0],
                                   lams=[1.5, 2.0, 3.0], eps=1e-6, tol=1e-3)
        assert rep.ok and rep.worst < 1e-6

    def test_decaying_bump_reflects(self, step_bump):
        rep = reflectionless_check(step_bump, xs=[0.0], lams=[0.2, 0.4],
                                   eps=1e-4, tol=1e-3)
        assert not rep.ok
        assert rep.worst > 1e-2


class TestBorg:
    def test_free(self):
        spec = PotentialSpec.constant(np.zeros((2, 2), complex), period=1.0)
        rep = borg_diagnostic(spec, lam_max=4.0, grid_step=0.05)
        assert rep.full_spectrum and rep.consistent
        assert rep.comb_diag_max == 0.0 and rep.comb_off_max == 0.0

    def test_constant_coupling_contrapositive(self, const_q1_periodic):
        rep = borg_diagnostic(const_q1_periodic, lam_max=4.0, grid_step=0.05)
        assert not rep.full_spectrum
        assert rep.gaps and abs(rep.gaps[0][0] + 1.0) < 0.06
        assert abs(rep.comb_off_max - 2.0) < 1e-12
        assert rep.consistent

    def test_equal_diagonal_gauge_trivial(self):
        spec = PotentialSpec.constant(np.diag([0.5, 0.5]).astype(complex),
                                      period=1.0)
        rep = borg_diagnostic(spec, lam_max=4.0, grid_step=0.05)
        assert rep.full_spectrum
        assert rep.comb_diag_max == 0.0 and rep.comb_off_max == 0.0
        assert rep.consistent

    def test_not_periodic(self, const_q1):
        with pytest.raises(NotPeriodic):
            borg_diagnostic(const_q1)

    @pytest.mark.parametrize("kw", [{"grid_step": 0.0},
                                    {"grid_step": -0.5},
                                    {"lam_max": -5.0},
                                    {"lam_max": math.inf},
                                    {"lam_max": math.nan}])
    def test_grid_must_be_positive(self, const_q1_periodic, kw):
        with pytest.raises(DegenerateArguments, match="grid_step > 0"):
            borg_diagnostic(const_q1_periodic, **{"lam_max": 3.0, **kw})


class TestUniquenessDecay:
    def test_step_pair_slope(self):
        # agree on (0, 1), differ on (1, 2): rate 2a with a = 1
        head = ConstantPiece(0.0, 1.0, normal_form_matrix([[0.0]], [[0.5]]))
        spec1 = PotentialSpec(m=1, pieces=(
            head, ConstantPiece(1.0, 2.0, normal_form_matrix([[0.0]], [[1.0]]))))
        spec2 = PotentialSpec(m=1, pieces=(head,))
        fit = uniqueness_decay(spec1, spec2, 0.0, 1.0,
                               zmags=(3.0, 4.0, 5.0, 6.0, 7.0, 8.0))
        assert 1.9 < fit.slope < 2.1
        assert fit.r2 > 0.999

    def test_identical_below_noise(self, step_bump):
        with pytest.raises(DifferenceBelowNoise):
            uniqueness_decay(step_bump, step_bump, 0.0, 1.0,
                             zmags=(3.0, 4.0, 5.0, 6.0))

    def test_differing_from_start(self):
        spec1 = PotentialSpec.constant(normal_form_matrix([[0.0]], [[0.8]]),
                                       x_lo=0.0, x_hi=1.0)
        spec2 = PotentialSpec.constant(normal_form_matrix([[0.0]], [[0.5]]),
                                       x_lo=0.0, x_hi=1.0)
        fit = uniqueness_decay(spec1, spec2, 0.0, 1.0,
                               zmags=(3.0, 4.0, 5.0, 6.0, 7.0, 8.0))
        assert abs(fit.slope) < 0.3
