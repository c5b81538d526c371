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
    trace_check,
    uniqueness_decay,
)
from diracweyl.errors import DifferenceBelowNoise, NotPeriodic
from diracweyl.spectral import _LAMBDA_BLOCK
from conftest import count_calls, kp2_spec


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

    def test_differentiation_failure(self, const_q1):
        from diracweyl.errors import DifferentiationFailure
        # a ray on the real axis cannot support the z-derivative of log M
        with pytest.raises(DifferentiationFailure):
            trace_check(0.5, const_q1, ray_angle=0.0, zmags=(100.0,))

    def test_one_stacked_call(self, const_q1, monkeypatch):
        # the 2 len(zmags) points z (1 +- rel_step) take one whole-line M
        # and one log between them
        import diracweyl.spectral as sp
        fulls = count_calls(monkeypatch, sp, "fullline_m")
        logs = count_calls(monkeypatch, sp, "principal_logm")
        tc = trace_check(0.5, const_q1, zmags=(1e2, 3e2, 1e3))
        assert fulls == [(6,)] and logs == [(6, 2, 2)]
        assert len(tc.rhs) == len(tc.residuals) == 3


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

    def test_blocked_stack_matches_per_point(self):
        # 601 lambda span three blocks, and both block boundaries fall
        # inside a band
        spec = kp2_spec()
        lams = np.linspace(-8.0, 8.0, 601)
        bs = band_spectrum(spec, lams)
        eff = 1e-6
        mults = np.array([monodromy(lam, spec).multipliers for lam in lams])
        flags = [bool(np.all(np.abs(np.abs(mu) - 1.0) <= eff)) for mu in mults]
        assert np.array_equal(bs.multipliers, mults)
        assert list(bs.in_band) == flags
        assert all(flags[i - 1] and flags[i]
                   for i in range(_LAMBDA_BLOCK, len(lams), _LAMBDA_BLOCK))
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
        # one stack over all 4001 lambda traced ~9 MB here, one block of
        # _LAMBDA_BLOCK under 1 MB, the per-point loop it replaced ~1.1 MB
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

    def test_grid_stack_bounds_memory(self):
        # 64 lambda on a 400-cell period: one (z, cell) stack traced ~18 MB
        # here, batches of _CELL_BLOCK (z, cell) pairs ~3 MB
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
                                    {"lam_max": -5.0}])
    def test_grid_must_be_positive(self, const_q1_periodic, kw):
        with pytest.raises(ValueError, match="grid_step > 0"):
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
