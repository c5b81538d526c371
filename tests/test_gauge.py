import math
import tracemalloc

import numpy as np
import pytest

from diracweyl import (
    ConstantPiece,
    GridPiece,
    PotentialSpec,
    band_spectrum,
    check_normal_form,
    gauge_factors,
    gauge_with_omega,
    matnorm,
    normal_form,
    normal_form_matrix,
)
from diracweyl import gauge, propagator
from diracweyl.cli import main
from diracweyl.errors import DegenerateArguments, NotHermitianOmega
from diracweyl.foundation import save_potential
from diracweyl.propagator import segment_cuts
from conftest import count_calls, random_hermitian


def random_hermitian_spec(rng, m, x1=1.0, n=201, scale=0.4):
    xs = np.linspace(0.0, x1, n)
    vals = np.empty((n, 2 * m, 2 * m), dtype=complex)
    for i in range(n):
        vals[i] = random_hermitian(rng, 2 * m, scale)
    # smooth it a little so the ODE is not noise-driven
    for _ in range(8):
        vals[1:-1] = 0.5 * vals[1:-1] + 0.25 * (vals[:-2] + vals[2:])
    return PotentialSpec(m=m, pieces=(GridPiece(xs, vals),))


def reference_factors(spec, x0, x1):
    """Both gauge factors one at a time, cell by cell and node by node, from
    gauge.magnus_steps (so that a patch of it reaches both): the reference
    for the log-depth product and its re-projection rule."""
    m = spec.m
    segs = spec.segments(x0, x1)
    xs = np.array(sorted({
        *np.linspace(x0, x1, max(201, int(50 * (x1 - x0)) + 1)).tolist(),
        *(seg[0] for seg in segs)}))
    out = {1: np.empty((len(xs), m, m), dtype=complex),
           2: np.empty((len(xs), m, m), dtype=complex)}
    drift, projections = 0.0, 0
    for j in (1, 2):
        u = np.eye(m, dtype=complex)
        out[j][0] = u
        i = 0
        for seg in segs:
            ts, vals = segment_cuts(spec, *seg, extra=xs)
            for t, f in zip(ts[1:], gauge.magnus_steps(ts, np.stack([
                    gauge._generator(vals, m, k) for k in (1, 2)]))[j - 1]):
                u = f @ u
                if t != xs[i + 1]:
                    continue
                d = matnorm(u.conj().T @ u - np.eye(m))
                drift = max(drift, d)
                if d > gauge._REUNIT_TOL:
                    u = gauge._polar_unitary(u)
                    projections += 1
                i += 1
                out[j][i] = u
    return xs, out[1], out[2], drift, projections


# the log-depth product against the loop's node-by-node one: measured at
# most 4.4e-15 in the factors and 7.4e-15 in the drift over six generator
# seeds of test_stacked_matches_per_node_loop's cases (about 45 eps here)
_PRODUCT_GATE = 1e-14


def unprojected_defects(spec, x0, x1):
    """Spectral and Frobenius norms of U*U - I for both factors at every
    output node, with the re-projection off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gauge, "_REUNIT_TOL", math.inf)
        _, u11, u22, _, _ = reference_factors(spec, x0, x1)
    us = np.stack([u11, u22], axis=1)
    h = us.conj().mT @ us - np.eye(spec.m)
    return matnorm(h), np.linalg.norm(h, axis=(-2, -1))


def eval_points(monkeypatch):
    """Record the number of points of every PotentialSpec.eval call."""
    points, ev = [], PotentialSpec.eval
    monkeypatch.setattr(PotentialSpec, "eval", lambda self, x, side=0: (
        points.append(np.size(x)), ev(self, x, side))[1])
    return points


def split_tol(s, f):
    """A tolerance strictly between the spectral defect s and the Frobenius
    defect f of a factor at the earliest node where they differ by 5%,
    above the spectral defects of all nodes before it, so that the product
    reaches that node unprojected and only an SVD can decide it."""
    before = np.maximum.accumulate(s.max(axis=1))
    for j, k in zip(*np.nonzero(f > 1.05 * s)):
        lower = max(before[j - 1], s[j, k])
        if f[j, k] > 1.05 * lower:
            return math.sqrt(lower * f[j, k])
    raise AssertionError("no node with a spectral-Frobenius gap")


class TestGaugeFactors:
    def test_normal_form_input_identity(self, const_q1):
        # vanishing generator: the factors stay exactly at the identity
        gf = gauge_factors(const_q1, 0.0, 2.0)
        assert all(np.array_equal(u, np.eye(1)) for u in gf.u11)
        assert all(np.array_equal(u, np.eye(1)) for u in gf.u22)

    def test_equal_diagonal_scalar_phases(self):
        b = 0.4
        spec = PotentialSpec.constant(np.diag([b, b]).astype(complex),
                                      x_lo=0.0, x_hi=2.0)
        gf = gauge_factors(spec, 0.0, 2.0)
        for x, u11, u22 in zip(gf.xs, gf.u11, gf.u22):
            assert abs(u11[0, 0] - np.exp(-1j * b * x)) < 1e-12
            assert abs(u22[0, 0] - np.exp(1j * b * x)) < 1e-12

    def test_unitarity_drift_random(self, rng):
        spec = random_hermitian_spec(rng, 1, x1=10.0, n=401)
        gf = gauge_factors(spec, 0.0, 10.0)
        assert gf.drift < 1e-8
        for u in (gf.u11[-1], gf.u22[-1]):
            assert matnorm(u.conj().T @ u - np.eye(1)) < 1e-8

    def test_scalar_factors_closed_form(self, rng):
        # for m = 1 the generators g_j are scalars and U_j(x) = exp(int g_j);
        # the trapezoid rule over samples and output nodes is exact for the
        # piecewise-linear interpolant
        spec = random_hermitian_spec(rng, 1, x1=10.0, n=401)
        piece = spec.pieces[0]
        gf = gauge_factors(spec, 0.0, 10.0)
        assert len(gf.xs) == 501
        b = piece.values
        for j, us in ((1, gf.u11), (2, gf.u22)):
            sgn = -1.0 if j == 1 else 1.0
            g = 0.5j * (sgn * (b[:, 0, 0] + b[:, 1, 1])
                        + 1j * (b[:, 0, 1] - b[:, 1, 0]))
            ts = np.union1d(piece.xs, gf.xs)
            gt = (np.interp(ts, piece.xs, g.real)
                  + 1j * np.interp(ts, piece.xs, g.imag))
            cum = np.concatenate([[0.0], np.cumsum(0.5 * (gt[1:] + gt[:-1])
                                                    * np.diff(ts))])
            want = np.exp(np.interp(gf.xs, ts, cum.real)
                          + 1j * np.interp(gf.xs, ts, cum.imag))
            assert np.max(np.abs(us[:, 0, 0] - want)) <= 1e-12


    @pytest.mark.parametrize("tol, m", [
        *((tol, m) for tol in (None, 2e-16) for m in (1, 2, 3)),
        *((case, m) for case in ("split", "argmax") for m in (2, 3))])
    def test_stacked_matches_per_node_loop(self, rng, monkeypatch, m, tol):
        # a grid piece, a constant piece and a gap, so that several
        # segments carry the product; at tol 2e-16 the re-projection fires
        # at many nodes, in one factor or both.  At "split" the tol lies
        # between a node's spectral and Frobenius defect, and at "argmax"
        # no node is projected and the largest Frobenius defect is not at
        # the node of the largest spectral one (both as the loop rounds;
        # test_screen_* checks those decisions on exact stacks).  The
        # log-depth product rounds otherwise than the loop, so the factors
        # and the drift agree to _PRODUCT_GATE, the nodes exactly
        grid = random_hermitian_spec(rng, m, x1=2.0, n=81).pieces[0]
        spec = PotentialSpec(m=m, pieces=(
            grid, ConstantPiece(2.0, 2.6, random_hermitian(rng, 2 * m, 0.4)),
            ConstantPiece(3.1, 4.0, random_hermitian(rng, 2 * m, 0.4))))
        x1 = 4.0
        if tol == "split":
            tol = split_tol(*unprojected_defects(spec, 0.0, x1))
        elif tol == "argmax":
            tol = None
            # the interval where the two maxima part, found rather than
            # hard-wired, since both are rounding errors
            x1 = next((x for x in np.arange(2.5, 4.01, 0.25)
                       if len(set(map(np.argmax, unprojected_defects(
                           spec, 0.0, x)))) == 2), None)
            assert x1 is not None
        if tol is not None:
            monkeypatch.setattr(gauge, "_REUNIT_TOL", tol)
        xs, u11, u22, drift, projections = reference_factors(spec, 0.0, x1)
        polar = count_calls(monkeypatch, gauge, "_polar_unitary")
        gf = gauge_factors(spec, 0.0, x1)
        assert np.array_equal(gf.xs, xs)
        assert np.abs(gf.u11 - u11).max() <= _PRODUCT_GATE
        assert np.abs(gf.u22 - u22).max() <= _PRODUCT_GATE
        assert abs(gf.drift - drift) <= _PRODUCT_GATE
        if tol is not None:
            assert projections > 20 and len(polar) > 20
        else:
            assert projections == 0 and polar == []

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_reprojection_at_perturbed_node(self, rng, monkeypatch, m):
        # the cell ending on node 60 has its U11 factor scaled by 1 + 1e-6,
        # a drift of 2e-6 there, far above both the tol and roundoff.
        # U11 is projected at exactly that node and nowhere else, onto the
        # polar factor of the unprojected product; U22 and the nodes before
        # are the unprojected product bit for bit; after it the product
        # resumes from the projected factor, as the loop's does
        spec = random_hermitian_spec(rng, m, x1=4.0, n=81)
        node = 60
        xs = gauge_factors(spec, 0.0, 4.0).xs
        steps = gauge.magnus_steps

        def perturbed(ts, lcoef):
            out = steps(ts, lcoef)
            out[0, np.flatnonzero(ts[1:] == xs[node])] *= 1 + 1e-6
            return out

        monkeypatch.setattr(gauge, "magnus_steps", perturbed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gauge, "_REUNIT_TOL", math.inf)
            raw = gauge_factors(spec, 0.0, 4.0)
        _, u11, u22, drift, projections = reference_factors(spec, 0.0, 4.0)
        polar = count_calls(monkeypatch, gauge, "_polar_unitary")
        gf = gauge_factors(spec, 0.0, 4.0)
        assert projections == 1 and polar == [(1, m, m)]
        eye = np.eye(m)
        defect = matnorm(raw.u11[node].conj().T @ raw.u11[node] - eye)
        assert 1e-6 < defect < 3e-6
        assert math.isclose(gf.drift, defect, rel_tol=1e-9)
        assert math.isclose(gf.drift, drift, rel_tol=1e-9)
        assert np.array_equal(gf.u11[:node], raw.u11[:node])
        assert np.array_equal(gf.u22, raw.u22)
        assert np.array_equal(gf.u11[node],
                              gauge._polar_unitary(raw.u11[node:node + 1])[0])
        assert matnorm(gf.u11[node].conj().T @ gf.u11[node] - eye) < 1e-14
        after = gf.u11[node + 1:]
        assert np.abs(after - u11[node + 1:]).max() <= _PRODUCT_GATE
        assert np.abs(after - raw.u11[node + 1:]).max() > 1e-8
        assert np.abs(gf.u22 - u22).max() <= _PRODUCT_GATE

    @pytest.mark.parametrize("m", [2, 3])
    def test_screen_split(self, monkeypatch, m):
        # node 1 of U11 has spectral defect 0.9 tol and Frobenius defect
        # 0.9 sqrt(m) tol: only the SVD passes it.  Node 3 of U22 is over
        # the tol; the larger defect of node 4 lies past that first node
        # over it and does not count.  The SVD takes these three, the
        # zero nodes need none
        tol = gauge._REUNIT_TOL
        eye = np.eye(m)
        h = np.zeros((2, 6, m, m), dtype=complex)
        h[0, 1] = 0.9 * tol * eye
        h[1, 3, 0, 0] = 2 * tol
        h[0, 4] = 5 * tol * eye
        svd = count_calls(monkeypatch, np.linalg, "svd")
        r, over, drift = gauge._screen(h)
        assert r == 3 and over.tolist() == [False, True]
        assert drift == 2 * tol
        assert svd == [(3, m, m)]

    @pytest.mark.parametrize("m", [2, 3])
    def test_screen_argmax(self, monkeypatch, m):
        # no node is over the tol; the largest spectral defect, b at node 5
        # of U22, is not at the node of the largest Frobenius defect,
        # a sqrt(m) > b at node 2 of U11.  Only these two need the SVD
        a, b = 1e-12, 1.2e-12
        h = np.zeros((2, 8, m, m), dtype=complex)
        h[0, 2] = a * np.eye(m)
        h[1, 5, 0, 0] = b
        h[:, 6] = 0.5 * a * np.eye(m)
        svd = count_calls(monkeypatch, np.linalg, "svd")
        r, over, drift = gauge._screen(h)
        assert r == 8 and over is None
        assert drift == b
        assert svd == [(2, m, m)]

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_prefix_matches_loop_in_place(self, rng, m):
        # every stack length's odd and even branches, against the ordered
        # loop; on the 410-cell stack of gauge-sampled's size, less than
        # one extra copy of the stack is alive at once
        for n in (1, 2, 3, 4, 5, 7, 8, 410):
            f = np.stack([np.linalg.qr(rng.normal(size=(n, m, m))
                                       + 1j * rng.normal(size=(n, m, m)))[0]
                          for _ in range(2)])
            want = f.copy()
            for k in range(1, n):
                want[:, k] = want[:, k] @ want[:, k - 1]
            tracemalloc.start()
            try:
                got = propagator._prefix(f)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got is f
            assert np.abs(got - want).max() <= _PRODUCT_GATE
            if n == 410:
                assert peak < f.nbytes

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_product_calls_are_log_depth(self, rng, monkeypatch, m):
        # the cell factors are multiplied in 2 log2(cells) stacked products
        # (the work-efficient scan), not one per cell; one more forms the
        # Gram U*U - I.  Products inside the Magnus kernel do not count
        spec = random_hermitian_spec(rng, m, x1=10.0, n=401)
        calls, inside, steps = [], [False], gauge.magnus_steps
        mul = propagator._mul

        def counted(a, b):
            if not inside[0]:
                calls.append(np.shape(a))
            return mul(a, b)

        def kernel(*args):
            inside[0] = True
            try:
                return steps(*args)
            finally:
                inside[0] = False

        monkeypatch.setattr(propagator, "_mul", counted)
        monkeypatch.setattr(gauge, "_mul", counted)
        monkeypatch.setattr(gauge, "magnus_steps", kernel)
        gf = gauge_factors(spec, 0.0, 10.0)
        cells = len(np.union1d(spec.pieces[0].xs, gf.xs)) - 1
        assert cells > 800
        assert len(calls) <= 2 * math.ceil(math.log2(cells)) + 1
        assert gf.drift < 1e-13

    @pytest.mark.parametrize("x0, x1", [
        (0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan), (math.nan, 1.0),
        (1.0, 1.0), (1.0, 0.0)])
    def test_rejects_bad_interval(self, const_q1, monkeypatch, x0, x1):
        # refused as DegenerateArguments before any work
        segments = count_calls(monkeypatch, PotentialSpec, "segments")
        with pytest.raises(DegenerateArguments, match="finite x0 < x1"):
            gauge_factors(const_q1, x0, x1)
        assert segments == []

    @pytest.mark.parametrize("case", ["jump", "gap", "edge", "periodic"])
    def test_node_values_are_eval(self, rng, monkeypatch, case):
        # B at the output nodes comes from the cut samples inside a segment
        # and from one spec.eval call at the others, equal to spec.eval at
        # every node bit for bit: across a jump at an output node, in a
        # gap, with x1 on an interior piece edge and over several periods
        grid = random_hermitian_spec(rng, 2, x1=2.0, n=41).pieces[0]
        const = random_hermitian(rng, 4, 0.4)
        period, x0, x1 = None, 0.0, 3.0
        pieces = (grid, ConstantPiece(2.0, 3.0, const))
        if case == "gap":
            pieces, x0, x1 = (grid, ConstantPiece(2.5, 3.5, const)), -0.5, 4.0
        elif case == "edge":
            x0, x1 = 0.3, 2.0
        elif case == "periodic":
            grid = GridPiece(0.3 * grid.xs, grid.values)
            pieces = (grid, ConstantPiece(0.6, 1.0, const))
            period, x0, x1 = 1.0, -1.3, 3.7
        spec = PotentialSpec(m=2, pieces=pieces, period=period)
        ends = len(spec.segments(x0, x1)) + 1
        points = eval_points(monkeypatch)
        gf = gauge_factors(spec, x0, x1)
        assert len(points) == 1 and 2 <= points[0] <= 2 * ends
        assert np.array_equal(gf.b, spec.eval(gf.xs))

    def test_polar_reprojection(self, rng):
        # the guard gauge_factors applies once drift exceeds 1e-10: the
        # unitary polar factor of u = Q (I + E), Q unitary, E Hermitian
        from scipy.linalg import polar
        from diracweyl.gauge import _polar_unitary
        for m in (1, 3):
            q, _ = np.linalg.qr(rng.normal(size=(m, m))
                                + 1j * rng.normal(size=(m, m)))
            e = random_hermitian(rng, m)
            e *= 1e-6 / matnorm(e)
            u = q @ (np.eye(m) + e)
            w = _polar_unitary(u)
            assert matnorm(w.conj().T @ w - np.eye(m)) < 1e-14
            assert matnorm(w - polar(u)[0]) < 1e-12


class TestNormalForm:
    def test_fixed_point(self):
        spec = PotentialSpec.constant(normal_form_matrix([[0.2]], [[0.8]]),
                                      x_lo=0.0, x_hi=1.0)
        out = normal_form(spec, 0.0, 1.0)
        for x in np.linspace(0.01, 0.99, 17):
            assert matnorm(out.eval(x) - spec.eval(x)) < 1e-12

    def test_equal_diagonal_maps_to_zero(self):
        spec = PotentialSpec.constant(np.diag([0.4, 0.4]).astype(complex),
                                      x_lo=0.0, x_hi=1.0)
        out = normal_form(spec, 0.0, 1.0)
        assert max(matnorm(out.eval(x)) for x in np.linspace(0, 1, 11)) < 1e-12

    def test_generic_passes_check(self, rng):
        spec = random_hermitian_spec(rng, 2, x1=1.0, n=101)
        out = normal_form(spec, 0.0, 1.0)
        assert check_normal_form(out, (0.0, 1.0), tol=1e-9)

    def test_idempotent(self, rng):
        spec = random_hermitian_spec(rng, 1, x1=1.0, n=101)
        once = normal_form(spec, 0.0, 1.0)
        twice = normal_form(once, 0.0, 1.0)
        err = max(matnorm(once.eval(x) - twice.eval(x))
                  for x in np.linspace(0.0, 1.0, 31))
        assert err < 1e-9

    def test_spectral_invariance_equal_diagonal(self):
        spec = PotentialSpec.constant(np.diag([0.5, 0.5]).astype(complex),
                                      period=1.0)
        out = normal_form(spec, 0.0, 1.0)
        assert out.is_periodic
        lams = np.linspace(-2.0, 2.0, 81)
        flags_in = band_spectrum(spec, lams).in_band
        flags_out = band_spectrum(out, lams).in_band
        assert np.array_equal(flags_in, flags_out)
        assert bool(np.all(flags_out))


class TestOmegaTwist:
    def test_zero_twist_matches(self, rng):
        spec = random_hermitian_spec(rng, 1, x1=1.0, n=101)
        base = normal_form(spec, 0.0, 1.0)
        tw = gauge_with_omega(spec, np.zeros((1, 1)), 0.0, 1.0)
        err = max(matnorm(base.eval(x) - tw.eval(x))
                  for x in np.linspace(0.0, 1.0, 21))
        assert err < 1e-12

    def test_half_pi_flips_sign(self, rng):
        spec = random_hermitian_spec(rng, 2, x1=1.0, n=101)
        base = normal_form(spec, 0.0, 1.0)
        tw = gauge_with_omega(spec, (math.pi / 2) * np.eye(2), 0.0, 1.0)
        err = max(matnorm(base.eval(x) + tw.eval(x))
                  for x in np.linspace(0.0, 1.0, 21))
        assert err < 1e-12

    def test_rejects_non_hermitian(self, const_q1):
        with pytest.raises(NotHermitianOmega):
            gauge_with_omega(const_q1, np.array([[0.0, 1.0], [0.0, 0.0]]),
                             0.0, 1.0)


class TestWorkCounts:
    def test_gauge_command_svd_and_magnus_calls(self, rng, tmp_path,
                                                 monkeypatch):
        # one SVD for the Hermiticity check on load, one for the drift of
        # both factors where its norm bounds leave it open, one for the
        # check of the output piece; one Magnus stack for both factors; B
        # evaluated at the two segment ends x0 and x1, the cut samples
        # giving it at every other node
        spec = random_hermitian_spec(rng, 2, x1=10.0, n=401)
        save_potential(spec, tmp_path / "g.json")
        svd = count_calls(monkeypatch, np.linalg, "svd")
        magnus = count_calls(monkeypatch, gauge, "magnus_steps")
        points = eval_points(monkeypatch)
        assert main(["gauge", "--potential", str(tmp_path / "g.json"),
                     "--x0", "0", "--x1", "5",
                     "--out", str(tmp_path / "out")]) == 0
        assert len(svd) <= 3
        assert len(magnus) == 1
        assert points == [2]
