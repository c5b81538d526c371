import ast
import functools
import json
import math
import os
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from diracweyl import (
    ALG_TOL,
    ConstantPiece,
    GridPiece,
    PotentialSpec,
    Propagator,
    alpha_dirichlet,
    alpha_neumann,
    borg_diagnostic,
    check_normal_form,
    derivative_samples,
    disk_membership,
    expansion_coefficients,
    gauge_factors,
    herm_defect,
    load_potential,
    matnorm,
    normal_form_matrix,
    reflectionless_check,
    regular_m,
    save_potential,
    sigma,
    trace_check,
    truncate_potential,
    uniqueness_decay,
    upsilon,
    validate_boundary_data,
    weyl_solution_volterra,
)
from diracweyl.errors import (
    DegenerateArguments,
    EmptyWindow,
    NonHermitianPiece,
    NotLagrangian,
    NotNormalized,
)
from diracweyl import arraytext, foundation
from diracweyl.foundation import (
    MAX_POINTS,
    inv_cond,
    need,
    potential_from_dict,
    potential_to_dict,
)
from diracweyl.riccati import integrate_cayley, integrate_riccati
from conftest import (
    count_calls,
    edge_floats,
    kp2_spec,
    random_boundary,
    random_hermitian,
)


def _edge_spec():
    """An m = 1 grid whose nodes are the finite edge values of the array
    writer's tests (the one at zero -0.0) and whose samples hold them too,
    with -0.0 imaginary parts on the diagonal and signed zeros off it,
    followed by a constant piece out to inf.  Its name is the text that
    stands in for each number array while the file is written."""
    vals = edge_floats()
    vals = vals[np.isfinite(vals)]
    xs = np.unique(vals)
    xs[xs == 0] = -0.0
    n = len(xs)
    a = np.resize(vals, n)
    pairs = np.zeros((n, 2, 2, 2))
    pairs[:, 0, 0] = np.column_stack([a, np.full(n, -0.0)])
    pairs[:, 1, 1, 0] = np.roll(a, 1)
    pairs[:, 0, 1] = np.column_stack([np.roll(a, 2), np.roll(a, 3)])
    pairs[:, 1, 0] = pairs[:, 0, 1] * [1.0, -1.0]
    values = pairs.view(complex)[..., 0]
    return PotentialSpec(m=1, name="@", pieces=(
        GridPiece(xs, values), ConstantPiece(xs[-1], math.inf, values[7])))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestBoundaryData:
    def test_canonical_pair_valid(self):
        for m in (1, 2, 3):
            a = alpha_dirichlet(m)
            assert a.m == m
            g = alpha_neumann(m)
            assert np.array_equal(g.alpha1, np.zeros((m, m)))

    def test_rejects_non_lagrangian(self):
        # (1, i)/sqrt(2) is normalized but alpha J alpha* = i
        with pytest.raises(NotLagrangian):
            validate_boundary_data([[1 / math.sqrt(2)]], [[1j / math.sqrt(2)]])

    def test_rejects_non_normalized(self):
        with pytest.raises(NotNormalized):
            validate_boundary_data([[2.0]], [[0.0]])

    def test_derived_identities(self, rng):
        # alpha1* alpha1 + alpha2* alpha2 = I and alpha2* alpha1 Hermitian
        for m in (1, 2, 3):
            a = random_boundary(rng, m)
            left = a.alpha1.conj().T @ a.alpha1 + a.alpha2.conj().T @ a.alpha2
            assert matnorm(left - np.eye(m)) < 1e-10
            cross = a.alpha2.conj().T @ a.alpha1 - a.alpha1.conj().T @ a.alpha2
            assert matnorm(cross) < 1e-10

    def test_psi0_exact(self):
        a = alpha_dirichlet(2)
        assert np.array_equal(a.psi0(), np.eye(4, dtype=complex))


class TestMatnorm:
    def test_spectral_norm_bit_for_bit(self, rng):
        for shape in [(1, 1), (2, 2), (4, 4), (3, 5), (6, 2)]:
            x = rng.normal(size=shape)
            assert matnorm(x) == np.linalg.norm(x, 2)
            x = x + 1j * rng.normal(size=shape)
            assert matnorm(x) == np.linalg.norm(x, 2)

    def test_vector_two_norm(self, rng):
        for n in [1, 3, 8]:
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            assert matnorm(v) == pytest.approx(np.linalg.norm(v), rel=1e-15)

    def test_stack_rows_bit_for_bit(self, rng):
        x = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
        assert isinstance(matnorm(x[0]), float)
        assert np.array_equal(matnorm(x), [matnorm(a) for a in x])


class TestInvCond:
    def test_scale_over_smallest_singular_value(self, rng):
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        smin = np.linalg.svd(x, compute_uv=False)[-1]
        assert inv_cond(x) == 1.0 / smin
        assert inv_cond(x, 7.0) == 7.0 / smin

    @pytest.mark.parametrize("mat", [
        [[0.0, 0.0], [0.0, 0.0]],
        [[1.0, math.nan], [0.0, 1.0]],
        [[math.inf]],
    ])
    def test_singular_or_nonfinite_is_inf(self, mat):
        assert inv_cond(np.array(mat)) == math.inf

    def test_stack_rows_bit_for_bit(self, rng):
        # a regular, a singular and a non-finite entry, each with its scale
        x = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        x[1] = 0.0
        x[2, 0, 1] = math.nan
        scale = np.array([2.0, 3.0, 4.0])
        got = inv_cond(x, scale)
        assert np.array_equal(got, [inv_cond(a, s) for a, s in zip(x, scale)])
        assert got[0] == 2.0 / np.linalg.svd(x[0], compute_uv=False)[-1]
        assert got[1] == got[2] == math.inf
        assert isinstance(inv_cond(x[0]), float)


class TestSigma:
    @pytest.mark.parametrize("s,t,z,want", [
        (1.0, 0.0, 1j, 1),
        (0.0, 1.0, 1j, -1),
        (1.0, 0.0, -1j, -1),
        (2.0, 5.0, 0.3 - 2j, 1),
    ])
    def test_values(self, s, t, z, want):
        assert sigma(s, t, z) == want

    def test_degenerate(self):
        with pytest.raises(DegenerateArguments):
            sigma(1.0, 1.0, 1j)
        with pytest.raises(DegenerateArguments):
            sigma(1.0, 0.0, 2.0)


class TestPotential:
    def test_zero_spec(self):
        spec = PotentialSpec.zero(2)
        assert np.array_equal(spec.eval(3.7), np.zeros((4, 4)))

    def test_constant_lookup(self):
        spec = PotentialSpec.constant(normal_form_matrix([[0.0]], [[1.0]]),
                                      x_lo=0.0, x_hi=2.0)
        assert np.array_equal(spec.eval(0.5),
                              np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.array_equal(spec.eval(5.0), np.zeros((2, 2)))

    def test_non_hermitian_rejected(self):
        bad = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(NonHermitianPiece):
            PotentialSpec.constant(bad)

    def test_non_hermitian_file_rejected(self, tmp_path):
        doc = {"m": 1, "pieces": [{"x_lo": 0.0, "x_hi": 1.0,
                                   "kind": "constant",
                                   "data": [[[0.0, 0.0], [1.0, 0.0]],
                                            [[0.5, 0.0], [0.0, 0.0]]]}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(NonHermitianPiece):
            load_potential(path)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            PotentialSpec.constant(np.array([[np.nan, 0], [0, 0]]))

    @pytest.mark.parametrize("xs", [[0.0, math.nan, 1.0],
                                    [0.0, 1.0, math.inf],
                                    [-math.inf, 0.0, 1.0]])
    def test_nonfinite_grid_nodes_rejected(self, tmp_path, xs):
        # a NaN node makes every difference test False, so "any <= 0"
        # let it through; a file with it (json reads NaN) is refused too
        vals = np.zeros((3, 2, 2))
        with pytest.raises(ValueError, match="finite and strictly"):
            GridPiece(np.array(xs), vals)
        doc = {"m": 1, "pieces": [{
            "x_lo": 0.0, "x_hi": 1.0, "kind": "grid",
            "data": {"x": xs, "values": [[[[0.0, 0.0]] * 2] * 2] * 3}}]}
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="finite and strictly"):
            load_potential(path)

    def test_periodic_requires_exact_tiling(self):
        from diracweyl import ConstantPiece
        piece = ConstantPiece(0.0, 0.7, normal_form_matrix([[0.0]], [[1.0]]))
        with pytest.raises(ValueError):
            PotentialSpec(m=1, pieces=(piece,), period=1.0)

    def test_periodic_gap_rejected(self, tmp_path):
        # the span matches the period, but (0.3, 0.6) lies in no piece and
        # would be evaluated as the last one; a file holding it is refused
        # the same way
        from diracweyl import ConstantPiece
        a = normal_form_matrix([[0.0]], [[1.0]])
        pieces = (ConstantPiece(0.0, 0.3, a), ConstantPiece(0.6, 1.0, 2 * a))
        with pytest.raises(ValueError, match="tile exactly one period"):
            PotentialSpec(m=1, pieces=pieces, period=1.0)
        assert not PotentialSpec(m=1, pieces=pieces).eval(0.45).any()
        data = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
        doc = {"m": 1, "period": 1.0, "pieces": [
            {"x_lo": 0.0, "x_hi": 0.3, "kind": "constant", "data": data},
            {"x_lo": 0.6, "x_hi": 1.0, "kind": "constant", "data": data}]}
        path = tmp_path / "gap.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="tile exactly one period"):
            load_potential(path)

    def test_periodic_wrap_exact(self):
        xs = np.linspace(0.0, 1.0, 11)
        vals = np.array([normal_form_matrix([[x]], [[0.0]]) for x in xs])
        spec = PotentialSpec.from_samples(xs, vals, period=1.0)
        for x in xs[:-1]:
            assert np.array_equal(spec.eval(x + 1.0), spec.eval(x))
            assert np.array_equal(spec.eval(x - 3.0), spec.eval(x))

    def test_periodic_sides_at_large_x(self):
        # far from the origin the wrapped point carries roundoff well above
        # the 1e-12 side shift; the side must still pick the one-sided limit
        from diracweyl import ConstantPiece
        left = normal_form_matrix([[0.0]], [[1.0]])
        right = normal_form_matrix([[0.0]], [[2.0]])
        spec = PotentialSpec(m=1, period=1.0, pieces=(
            ConstantPiece(0.0, 0.4, left), ConstantPiece(0.4, 1.0, right)))
        for k in (3e4, 1e6, -1e6):
            assert np.array_equal(spec.eval(k + 0.4, side=-1), left)
            assert np.array_equal(spec.eval(k + 0.4, side=+1), right)
            assert np.array_equal(spec.eval(k, side=-1), right)
            assert np.array_equal(spec.eval(k, side=+1), left)


def _reference_eval(spec, x, side=0):
    """B(x) one point at a time by the scalar rules: the reference for the
    row-equals-scalar contract."""
    piece, off = spec.locate(x, side)
    if piece is None:
        return np.zeros((2 * spec.m, 2 * spec.m), dtype=complex)
    y = min(max(x - off, piece.x_lo), piece.x_hi)
    if piece.kind == "constant":
        return piece.value
    xs, vals = piece.xs, piece.values
    if y <= xs[0]:
        return vals[0]
    if y >= xs[-1]:
        return vals[-1]
    k = int(np.searchsorted(xs, y))
    snap = 1e-12 * (1.0 + abs(y))
    for j in (k - 1, k):
        if abs(y - xs[j]) <= snap:
            return vals[j]
    t = (y - xs[k - 1]) / (xs[k] - xs[k - 1])
    return (1.0 - t) * vals[k - 1] + t * vals[k]


def _bits(a):
    """The bit patterns of a complex array (tells -0.0 from 0.0)."""
    return np.ascontiguousarray(a, dtype=complex).view(np.uint64)


class TestStackedEval:
    @staticmethod
    def _grid(rng, lo, hi, n, m):
        xs = np.linspace(lo, hi, n)
        vals = np.array([random_hermitian(rng, 2 * m) for _ in xs])
        vals[::3, 0, 0] = -0.0              # signed zeros must survive
        return GridPiece(xs, vals)

    def _assert_rows(self, spec, xs, side):
        got = spec.eval(xs, side=side)
        assert got.shape == (len(xs), 2 * spec.m, 2 * spec.m)
        for x, row in zip(xs, got):
            assert np.array_equal(_bits(row), _bits(spec.eval(x, side=side)))
            assert np.array_equal(_bits(row),
                                  _bits(_reference_eval(spec, x, side)))

    @pytest.mark.parametrize("side", [-1, 0, 1])
    def test_mixed_pieces(self, rng, side):
        # constant and grid pieces with a gap: nodes, mid-cells, points
        # inside and just outside the node snap, piece edges, and points
        # outside the support, in shuffled order
        m = 2
        grid = self._grid(rng, 0.0, 2.0, 21, m)
        spec = PotentialSpec(m=m, pieces=(
            ConstantPiece(-1.0, 0.0, random_hermitian(rng, 2 * m)),
            grid,
            ConstantPiece(2.0, 2.5, random_hermitian(rng, 2 * m)),
            self._grid(rng, 3.0, 4.0, 5, m)))
        nodes = grid.xs
        xs = np.concatenate([
            nodes, 0.5 * (nodes[1:] + nodes[:-1]), nodes + 4e-13,
            nodes - 4e-13, nodes + 2e-11, nodes - 2e-11,
            [-1.0, 2.5, 3.0, 4.0, 4.0 + 5e-13, -7.0, 2.7, 10.0],
            rng.uniform(-2.0, 5.0, 40)])
        self._assert_rows(spec, rng.permutation(xs), side)

    @pytest.mark.parametrize("side", [-1, 0, 1])
    def test_periodic_far_out(self, rng, side):
        m = 1
        grid = self._grid(rng, 0.0, 0.4, 9, m)
        spec = PotentialSpec(m=m, period=1.0, pieces=(
            grid, ConstantPiece(0.4, 1.0, random_hermitian(rng, 2 * m))))
        xs = np.concatenate([
            3e4 + grid.xs, 3e4 + 0.5 * (grid.xs[1:] + grid.xs[:-1]),
            np.arange(-3.0, 4.0), np.arange(-3.0, 4.0) + 0.4, -2.6 + grid.xs,
            [3e4, 3e4 + 0.7, 3e4 + 1.0, 3e4 + 0.4 + 3e-12]])
        self._assert_rows(spec, rng.permutation(xs), side)

    def test_scalar_shape_and_empty(self, rng):
        spec = PotentialSpec(m=2, pieces=(self._grid(rng, 0.0, 1.0, 5, 2),))
        assert spec.eval(0.3).shape == (4, 4)
        assert spec.eval(np.array([0.3])).shape == (1, 4, 4)
        assert spec.eval(np.array([])).shape == (0, 4, 4)
        assert spec.pieces[0].eval(0.3).shape == (4, 4)
        c = ConstantPiece(0.0, 1.0, np.eye(2))
        assert c.eval(0.5).shape == (2, 2)
        assert c.eval(np.array([0.1, 0.5])).shape == (2, 2, 2)


class TestTruncate:
    def test_window(self, const_q1):
        t = truncate_potential(const_q1, 0.0, 1.0)
        assert np.array_equal(t.eval(2.0), np.zeros((2, 2)))
        assert np.array_equal(t.eval(0.5),
                              np.array([[0, 1], [1, 0]], dtype=complex))

    def test_empty_window(self, const_q1):
        with pytest.raises(EmptyWindow):
            truncate_potential(const_q1, 1.0, 1.0)

    def test_agrees_inside_window(self, rng):
        xs = np.linspace(-1.0, 2.0, 31)
        vals = np.array([normal_form_matrix([[np.sin(x)]], [[np.cos(x)]])
                         for x in xs])
        spec = PotentialSpec.from_samples(xs, vals)
        t = truncate_potential(spec, -0.2, 1.3)
        for x in rng.uniform(-0.19, 1.29, size=20):
            assert matnorm(t.eval(x) - spec.eval(x)) < 1e-14

    def test_periodic_unroll(self, const_q1_periodic):
        t = truncate_potential(const_q1_periodic, 0.3, 3.7)
        assert np.array_equal(t.eval(2.9), const_q1_periodic.eval(2.9))
        assert np.array_equal(t.eval(4.0), np.zeros((2, 2)))


class TestNormalFormCheck:
    def test_off_diagonal_true(self, const_q1):
        assert check_normal_form(const_q1, (0.0, 1.0))

    def test_diag_pair_true(self):
        spec = PotentialSpec.constant(np.diag([0.4, -0.4]).astype(complex))
        assert check_normal_form(spec, (0.0, 1.0))

    def test_equal_diag_false(self):
        spec = PotentialSpec.constant(np.diag([0.4, 0.4]).astype(complex))
        assert not check_normal_form(spec, (0.0, 1.0))


# a constant piece's text with its data array spelled as given, right
# after the ":" (test_malformed_grid_sample puts a space before it)
_CONSTANT = ('{"m": 1, "pieces": [{"x_lo": 0.0, "x_hi": 1.0, '
             '"kind": "constant", "data":%s}]}')
# number arrays json.loads refuses or reads as a non-number: spellings
# outside JSON's grammar, two numbers in one slot, a trailing comma, an
# unclosed array, NaN and Infinity (non-finite), and an object
_BAD_ARRAYS = {
    "plus": "[[[+1, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]",
    "lead-dot": "[[[.5, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]",
    "trail-dot": "[[[1., 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]",
    "dot-exponent": "[[[1.e5, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]",
    "lead-zero": "[[[01, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]",
    "minus-lead-zero": "[[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [-01, 0]]]",
    "two": "[[[1 1, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]",
    "trail-comma": "[[[0.0, 0.0,], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]",
    "unclosed": "[[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]",
    "nan": "[[[NaN, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]",
    "infinity": "[[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [Infinity, 0]]]",
    "object": "[[[0.0, 0.0], [1.0, {}]], [[1.0, 0.0], [0.0, 0.0]]]",
    # nested past the scanner's recursion limit (json itself reads 400)
    "deep": "[" * 400 + "0" + "]" * 400,
}


class TestFileRoundtrip:
    def test_roundtrip(self, tmp_path):
        xs = np.linspace(0.0, 1.0, 5)
        vals = np.array([normal_form_matrix([[x]], [[1 - x]]) for x in xs])
        spec = PotentialSpec(
            m=1,
            pieces=(PotentialSpec.from_samples(xs, vals).pieces[0],
                    PotentialSpec.constant(normal_form_matrix([[0.0]], [[1.0]]),
                                           x_lo=1.0, x_hi=2.0).pieces[0]),
            name="mix")
        path = tmp_path / "spec.json"
        save_potential(spec, path)
        back = load_potential(path)
        assert back.m == spec.m and back.name == "mix"
        for x in np.linspace(0.0, 2.0, 17):
            assert matnorm(back.eval(x) - spec.eval(x)) < 1e-15

    @pytest.mark.parametrize("kind", ["grid", "periodic", "edges"])
    def test_roundtrip_bit_for_bit(self, tmp_path, monkeypatch, kind):
        if kind == "grid":
            xs = np.linspace(0.0, 1.0, 1601)
            spec = PotentialSpec.from_samples(xs, np.array([normal_form_matrix(
                [[0.2 * np.sin(3 * x)]], [[np.exp(-20 * (x - 0.5) ** 2)]])
                for x in xs]), name="bump")
        elif kind == "periodic":
            spec = kp2_spec()
        else:
            spec = _edge_spec()
        blocks = count_calls(monkeypatch, arraytext, "_format_block")
        path = tmp_path / "spec.json"
        save_potential(spec, path)
        text = path.read_text()
        assert text.count("\n") == 1      # compact
        # json.dumps's layout of potential_to_dict's document; only the
        # spelling of the numbers differs, and none is NaN or Infinity
        number = re.compile(r"-?[0-9][0-9.e+-]*")
        assert number.sub("0", text) == number.sub(
            "0", json.dumps(potential_to_dict(spec)) + "\n")

        def no_constant(name):
            raise AssertionError(f"{name} in a potential file")
        json.loads(text, parse_constant=no_constant)
        if kind == "edges" and sys.byteorder == "little":
            # the grid's nodes (one per row) and values and the constant
            # piece's value (one matrix row of [re, im] pairs per row) all
            # take the array formatter
            rows = {}
            for r, c in blocks:
                rows[c] = rows.get(c, 0) + r
            n = len(spec.pieces[0].xs)
            assert rows == {1: n, 8: n, 4: 2}
            assert "-0.0," in text and "0.10000000000000001" in text
        back = load_potential(path)
        # every number comes back bit for bit, the sign of a zero included,
        # so the file written again is byte-identical
        again = tmp_path / "again.json"
        save_potential(back, again)
        assert again.read_bytes() == path.read_bytes()
        assert potential_to_dict(back) == potential_to_dict(spec)
        for p, q in zip(back.pieces, spec.pieces):
            if p.kind == "grid":
                assert np.array_equal(_bits(p.xs), _bits(q.xs))
                assert np.array_equal(_bits(p.values), _bits(q.values))
            else:
                assert (p.x_lo, p.x_hi) == (q.x_lo, q.x_hi)
                assert np.array_equal(_bits(p.value), _bits(q.value))

    def test_dict_pairs_keep_signed_zeros(self, rng, tmp_path):
        # the whole grid is written by one reinterpretation; it must give
        # the nested pairs of formatting entry by entry, signed zeros kept
        vals = np.array([random_hermitian(rng, 4) for _ in range(5)])
        vals[1, 0, 0] = complex(-0.0, 0.0)
        vals[2, 1, 1] = complex(0.0, -0.0)
        spec = PotentialSpec(m=2, pieces=(
            GridPiece(np.arange(5.0), np.asfortranarray(vals)),
            ConstantPiece(4.0, 5.0, vals[1])))
        want = [[[[float(v.real), float(v.imag)] for v in row] for row in mat]
                for mat in vals]
        doc = potential_to_dict(spec)
        assert (json.dumps(doc["pieces"][0]["data"]["values"])
                == json.dumps(want))
        assert json.dumps(doc["pieces"][1]["data"]) == json.dumps(want[1])
        # the file holds the same pairs: -0.0 is spelled so that it reads
        # back as a float, not as the integer 0
        path = tmp_path / "z.json"
        save_potential(spec, path)
        pieces = json.loads(path.read_text())["pieces"]
        for got, ref in ((pieces[0]["data"]["values"], want),
                         (pieces[1]["data"], want[1])):
            assert np.array_equal(_bits(np.array(got, float)),
                                  _bits(np.array(ref)))

    def test_infinite_edges(self, tmp_path, const_q1):
        path = tmp_path / "c.json"
        save_potential(const_q1, path)
        back = load_potential(path)
        assert back.pieces[0].x_lo == -math.inf

    def test_malformed(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"pieces": []}))
        with pytest.raises(ValueError):
            load_potential(path)

    @pytest.mark.parametrize("gc_on", [True, False])
    @pytest.mark.parametrize("text, error", [
        (json.dumps({"m": 1, "pieces": []}), None),
        ('{"m": 1, "pieces": [', ValueError),                 # not JSON
        (json.dumps({"pieces": []}), ValueError),             # KeyError path
        (json.dumps({"m": 1, "pieces": [{
            "x_lo": 0.0, "x_hi": 1.0, "kind": "constant",
            "data": [[[0.0, 0.0], [1.0, 0.0]], [[0.5, 0.0], [0.0, 0.0]]]}]}),
         NonHermitianPiece),
        *((_CONSTANT % bad, ValueError) for bad in _BAD_ARRAYS.values()),
        # a leading zero first in a flat array right after the ":"
        ('{"m":1,"pieces":[{"x_lo":0,"x_hi":1,"kind":"grid","data":{"x":'
         '[00,1],"values":[[[[0,0],[1,0]],[[1,0],[0,0]]],'
         '[[[0,0],[1,0]],[[1,0],[0,0]]]]}}]}', ValueError),
    ], ids=["ok", "json", "key", "hermitian", *_BAD_ARRAYS, "lead-zero-x"])
    def test_load_restores_gc_state(self, tmp_path, gc_on, text, error):
        # the load leaves the cyclic collector as it was found, also when
        # the decode raises
        import gc
        path = tmp_path / "p.json"
        path.write_text(text)
        was = gc.isenabled()
        (gc.enable if gc_on else gc.disable)()
        try:
            if error is None:
                assert load_potential(path).m == 1
            else:
                with pytest.raises(error):
                    load_potential(path)
            assert gc.isenabled() == gc_on
        finally:
            (gc.enable if was else gc.disable)()

    def test_integer_minus_zero_reads_as_json_reads_it(self, tmp_path):
        # JSON reads the integer -0 as 0: its part comes back +0.0, while
        # the float -0.0 keeps its sign
        text = _CONSTANT % "[[[0, -0], [1, -0.0]], [[1, 0.0], [-0, -0]]]"
        path = tmp_path / "z.json"
        path.write_text(text)
        got = load_potential(path).pieces[0].value
        want = potential_from_dict(json.loads(text)).pieces[0].value
        assert np.array_equal(_bits(got), _bits(want))
        assert np.signbit(got.imag).tolist() == [[False, True], [False, False]]
        assert not np.signbit(got[1, 1].real)

    @staticmethod
    def _grid_doc(values):
        return {"m": 1, "pieces": [{
            "x_lo": 0.0, "x_hi": 1.0, "kind": "grid",
            "data": {"x": np.linspace(0.0, 1.0, len(values)).tolist(),
                     "values": values}}]}

    @pytest.mark.parametrize("bad", [
        [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0]]],                 # ragged
        [[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
         [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]],                     # not pairs
        [[0.0, 1.0], [1.0, 0.0]],                                 # not pairs
        # pairs of length 3 and 1: ragged, though the float count is right
        [[[0.0, 0.0, 0.0], [1.0]], [[1.0, 0.0], [0.0, 0.0]]],
        # the sample spelled as text (_BAD_ARRAYS)
        *_BAD_ARRAYS.values(),
    ])
    def test_malformed_grid_sample(self, tmp_path, bad):
        good = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
        text = json.dumps(self._grid_doc([good, "@", good]))
        path = tmp_path / "g.json"
        path.write_text(text.replace(
            '"@"', bad if isinstance(bad, str) else json.dumps(bad)))
        with pytest.raises(ValueError):
            load_potential(path)

    # entries: signed zeros, integer values, short and long decimals, and
    # magnitudes near the ends of %.17g's and repr's fixed notation
    _ENTRIES = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -3.0, 0.1, -1e-05, 1e16, 2.5e-300]),
        st.integers(-1000, 1000).map(float),
        st.floats(-1e6, 1e6, allow_nan=False))

    @classmethod
    def _hermitian(cls, data, d):
        """A d x d Hermitian matrix of drawn entries; each diagonal imaginary
        part a signed zero, each conjugate its own sign of zero."""
        re = np.array(data.draw(st.lists(cls._ENTRIES, min_size=d * d,
                                         max_size=d * d))).reshape(d, d)
        im = np.array(data.draw(st.lists(cls._ENTRIES, min_size=d * d,
                                         max_size=d * d))).reshape(d, d)
        im[np.diag_indices(d)] = np.copysign(0.0, np.diag(im))
        upper = np.triu(np.ones((d, d), bool), 1)
        re = np.where(upper.T, re.T, re)
        im = np.where(upper.T, -im.T, im)
        return re + 1j * im

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=40,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_decode_matches_json(self, tmp_path, data):
        # whatever the writer, the one-pass decode gives the numbers json
        # gives, bit for bit: save_potential's %.17g text, json.dump's repr
        # text with integer-valued entries as integers, the same laid out
        # over lines by indent=2, and with no space after ":" and ","
        m = data.draw(st.sampled_from([1, 2]))
        pieces, x = [], 0.0
        for kind in data.draw(st.lists(st.sampled_from(["grid", "constant"]),
                                       min_size=1, max_size=2)):
            if kind == "constant":
                pieces.append(ConstantPiece(x, x + 1.0,
                                            self._hermitian(data, 2 * m)))
            else:
                n = data.draw(st.integers(2, 5))
                xs = x + np.cumsum([0.0] + data.draw(st.lists(
                    st.sampled_from([0.25, 0.5, 1.0, 0.1]),
                    min_size=n - 1, max_size=n - 1)))
                pieces.append(GridPiece(xs, np.array(
                    [self._hermitian(data, 2 * m) for _ in xs])))
            x = pieces[-1].x_hi
        spec = PotentialSpec(m=m, pieces=tuple(pieces))
        doc = json.loads(json.dumps(potential_to_dict(spec)),
                         parse_float=lambda t: (int(float(t))
                                                if float(t).is_integer()
                                                and abs(float(t)) < 1e15
                                                else float(t)))
        path = tmp_path / "p.json"
        save_potential(spec, path)
        for text in (path.read_text(), json.dumps(doc),
                     json.dumps(doc, indent=2),
                     json.dumps(doc, separators=(",", ":"))):
            path.write_text(text)
            got = load_potential(path)
            with open(path) as fh:
                want = potential_from_dict(json.load(fh))
            assert got.m == want.m and len(got.pieces) == len(want.pieces)
            for p, q in zip(got.pieces, want.pieces):
                assert (p.kind, p.x_lo, p.x_hi) == (q.kind, q.x_lo, q.x_hi)
                if p.kind == "grid":
                    assert np.array_equal(_bits(p.xs), _bits(q.xs))
                    assert np.array_equal(_bits(p.values), _bits(q.values))
                else:
                    assert np.array_equal(_bits(p.value), _bits(q.value))

    # number spellings JSON takes and refuses, for the grammar test
    _TOKENS = ["0", "-0", "1", "-1", "10", "01", "00", "-01", "0.5", "-0.5",
               ".5", "-.5", "1.", "1.e5", "1e5", "1E-05", "0e0", "-0e-0",
               "1.5e+3", "+1", "1e", "1e+", "-", "--1", "1-2", "1.2.3",
               "-0.0", "1 1", "", "NaN", "9007199254740993", "1e400"]

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=200)
    @given(data=st.data())
    def test_number_arrays_follow_json(self, data):
        # a random nest of spellings, maybe with a character added or
        # dropped, as an object's value: the decoder refuses what json
        # refuses and reads what json reads, bit for bit
        text = data.draw(st.recursive(
            st.sampled_from(self._TOKENS),
            lambda inner: st.tuples(
                st.sampled_from([",", ", ", " ,", ",\n  "]),
                st.lists(inner, max_size=3)).map(
                    lambda sep_items: "[" + sep_items[0].join(sep_items[1])
                    + "]"),
            max_leaves=8))
        at = data.draw(st.integers(0, len(text)))
        edit = data.draw(st.sampled_from(["", "[", "]", ",", " ", "0", "-",
                                          ".", "e", "drop"]))
        text = (text[:at] + text[at + 1:] if edit == "drop"
                else text[:at] + edit + text[at:])
        doc = '{"a"' + data.draw(st.sampled_from([":", ": ", ":\n "])) + text + "}"
        try:
            want = json.loads(doc)["a"]
        except ValueError:
            with pytest.raises(ValueError):
                foundation._DECODER.decode(doc)
            return
        got = foundation._DECODER.decode(doc)["a"]
        if isinstance(got, np.ndarray):
            want = np.array(want, dtype=float)
            assert want.shape == got.shape
            assert np.array_equal(want.view(np.uint64), got.view(np.uint64))
        else:
            assert repr(got) == repr(want)

    def test_grid_hermiticity_defect_per_sample(self, rng, tmp_path):
        # the load reports the worst per-sample defect of herm_defect
        vals = rng.normal(size=(7, 2, 2)) + 1j * rng.normal(size=(7, 2, 2))
        vals = 0.5 * (vals + np.swapaxes(vals.conj(), -1, -2))
        vals[2, 0, 1] += 3e-3
        vals[5, 1, 0] -= 7e-3j
        worst = max(herm_defect(v) for v in vals)
        doc = self._grid_doc(np.stack([vals.real, vals.imag], -1).tolist())
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(NonHermitianPiece, match=f"defect {worst:.3e} "):
            load_potential(path)
        with pytest.raises(NonHermitianPiece, match=f"defect {worst:.3e} "):
            PotentialSpec.from_samples(np.arange(7.0), vals)

    @pytest.mark.parametrize("kind", ["constant", "grid"])
    @pytest.mark.parametrize("defect", [0.9, 1.1])
    def test_hermiticity_boundary(self, tmp_path, kind, defect):
        # B - B* = i defect ALG_TOL I has two equal singular values, so its
        # spectral norm is defect ALG_TOL and its Frobenius norm sqrt(2)
        # times that: 0.9 must load, whatever the Frobenius norm, and 1.1
        # must be refused with the spectral defect in the message
        bad = np.array([[1.0, 0.3 - 0.2j], [0.3 + 0.2j, -0.5]])
        bad = bad + 0.5j * defect * ALG_TOL * np.eye(2)
        if kind == "constant":
            data = np.stack([bad.real, bad.imag], -1).tolist()
            doc = {"m": 1, "pieces": [{"x_lo": 0.0, "x_hi": 1.0,
                                       "kind": "constant", "data": data}]}
            make = functools.partial(ConstantPiece, 0.0, 1.0, bad)
        else:
            vals = np.stack([np.eye(2), bad, -np.eye(2)])
            doc = self._grid_doc(np.stack([vals.real, vals.imag], -1).tolist())
            make = functools.partial(GridPiece, np.arange(3.0), vals)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        skew = bad - bad.conj().T
        assert np.linalg.norm(skew) > ALG_TOL
        if defect < 1:
            assert matnorm(skew) < ALG_TOL
            make()
            assert load_potential(path).m == 1
            return
        message = (f"{kind} piece: Hermiticity defect 1.100e-10 "
                   "exceeds tol 1.0e-10")
        for build in (make, lambda: load_potential(path)):
            with pytest.raises(NonHermitianPiece) as exc:
                build()
            assert str(exc.value) == message

    def test_grid_bound_is_max_sample_norm(self, rng):
        vals = rng.normal(size=(9, 2, 2)) + 1j * rng.normal(size=(9, 2, 2))
        vals = vals + np.swapaxes(vals.conj(), -1, -2)
        spec = PotentialSpec.from_samples(np.arange(9.0), vals)
        assert spec.bound() == max(matnorm(v) for v in vals)


class TestArgumentContract:
    """need is the one argument check: every refusal is a
    DegenerateArguments (also a ValueError) raised before any transfer."""

    def test_message_and_first_offender(self):
        vals = [1.0, math.nan, math.inf]
        with pytest.raises(DegenerateArguments,
                           match=r"^f needs finite x, got nan$"):
            need(np.isfinite(vals), "f", "finite x", vals)
        with pytest.raises(DegenerateArguments,
                           match=r"^f needs s < t, got \(1\.0, 0\.0\)$"):
            need(False, "f", "s < t", (1.0, 0.0))
        need(True, "f", "anything", None)
        need(np.ones(3, bool), "f", "anything", None)
        need([], "f", "anything", None)
        assert issubclass(DegenerateArguments, ValueError)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, -math.inf])
    def test_nan_fails_a_comparison(self, tol):
        with pytest.raises(DegenerateArguments, match="tol >= 0"):
            need(tol >= 0, "f", "tol >= 0", tol)

    @pytest.mark.parametrize("call", [
        lambda s, p: sigma(0.0, math.nan, 1j),
        lambda s, p: sigma(0.0, 1.0, complex(math.nan, 1.0)),
        lambda s, p: disk_membership(1j * np.eye(1), 1j, math.nan, 0.0,
                                     alpha_dirichlet(1), s),
        lambda s, p: disk_membership(1j * np.eye(1), 1j, 1.0, 0.0,
                                     alpha_dirichlet(1), s, tol=math.nan),
        lambda s, p: disk_membership(1j * np.eye(1), 1j, 1.0, 0.0,
                                     alpha_dirichlet(1), s, tol=-1.0),
        lambda s, p: regular_m(1j, math.nan, 0.0, alpha_dirichlet(1),
                               (np.eye(1), np.zeros((1, 1))), s),
        lambda s, p: trace_check(math.nan, s),
        lambda s, p: trace_check(0.5, s, zmags=(1e2, math.nan)),
        lambda s, p: trace_check(0.5, s, zmags=(1e2, -3e2)),
        lambda s, p: trace_check(0.5, s, zmags=(1e2, 1e2)),
        lambda s, p: trace_check(0.5, s, tol=math.nan),
        lambda s, p: borg_diagnostic(p, lam_max=math.nan),
        lambda s, p: borg_diagnostic(p, lam_max=3.0, grid_step=math.nan),
        lambda s, p: borg_diagnostic(p, lam_max=3.0, comb_tol=math.nan),
        lambda s, p: reflectionless_check(s, [0.0, math.nan], [2.0]),
        lambda s, p: reflectionless_check(s, [0.0], [2.0], tol=math.nan),
        lambda s, p: uniqueness_decay(s, s, 0.0, math.nan),
        lambda s, p: integrate_riccati(1j, 1j * np.eye(1), 0.0, math.nan, s),
        lambda s, p: integrate_cayley(1j, np.zeros((1, 1)), math.nan, 1.0,
                                      s, 1),
        lambda s, p: derivative_samples(s, [0.0, math.nan, 1.0], 1),
        lambda s, p: derivative_samples(s, [0.0, 1.0], 1),
        lambda s, p: expansion_coefficients(
            derivative_samples(s, [0.0, 0.5, 1.0], 1), 0.5, -1),
        lambda s, p: expansion_coefficients(
            derivative_samples(s, [0.0, 0.5, 1.0], 1), math.nan, 1),
        lambda s, p: weyl_solution_volterra(1j, math.nan, 0.0, s),
        lambda s, p: upsilon(0.5, 0.0, alpha_dirichlet(1), s, math.nan),
    ])
    def test_refused_before_any_transfer(self, call, const_q1,
                                         const_q1_periodic, monkeypatch):
        calls = count_calls(monkeypatch, Propagator, "transfer")
        with pytest.raises(DegenerateArguments):
            call(const_q1, const_q1_periodic)
        assert calls == []

    def test_only_need_and_the_cli_raise_it(self):
        # the contract lives in one place: no module spells out its own
        # raise DegenerateArguments
        import diracweyl
        src = os.path.dirname(diracweyl.__file__)
        sites = []
        for name in sorted(os.listdir(src)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(src, name)) as fh:
                tree = ast.parse(fh.read())
            for fn in ast.walk(tree):
                if not isinstance(fn, ast.FunctionDef):
                    continue
                for node in ast.walk(fn):
                    if (isinstance(node, ast.Raise)
                            and isinstance(node.exc, ast.Call)
                            and getattr(node.exc.func, "id", None)
                            == "DegenerateArguments"):
                        sites.append((name, fn.name))
        assert sites == [("cli.py", "_check_finite"),
                         ("foundation.py", "need")]


class TestGridBound:
    """A grid beyond MAX_POINTS is refused before any array is made."""

    @pytest.mark.parametrize("call", [
        lambda s, p: gauge_factors(s, 0.0, 1e12),
        lambda s, p: gauge_factors(s, 0.0, MAX_POINTS / 50),
        lambda s, p: borg_diagnostic(p, lam_max=1e300),
        lambda s, p: borg_diagnostic(p, lam_max=3.0, grid_step=1e-9),
        lambda s, p: borg_diagnostic(p, lam_max=3.0, grid_step=5e-324),
        lambda s, p: integrate_riccati(1j, 1j * np.eye(1), 0.0, 1e300, s),
        lambda s, p: integrate_riccati(1j, 1j * np.eye(1), 0.0, 1.0, s,
                                       n_out=10 ** 12),
    ])
    def test_refused_without_allocating(self, call, const_q1,
                                        const_q1_periodic):
        tracemalloc.start()
        try:
            with pytest.raises(DegenerateArguments, match="at most"):
                call(const_q1, const_q1_periodic)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
