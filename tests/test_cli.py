import argparse
import cmath
import contextlib
import ctypes
import functools
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracweyl import (
    GreensEvaluator,
    PotentialSpec,
    Propagator,
    borg_diagnostic,
    load_potential,
    matnorm,
    normal_form_matrix,
    reflectionless_check,
    save_potential,
    uniqueness_decay,
)
from diracweyl import arraytext, cli, errors, fullline
from diracweyl.cli import build_parser, main
from diracweyl.foundation import MAX_POINTS
from conftest import (
    count_calls,
    count_eig,
    edge_floats,
    kp2_spec,
    smooth_bump_spec,
)


@pytest.fixture
def free_file(tmp_path):
    path = tmp_path / "free.json"
    save_potential(PotentialSpec.zero(1), path)
    return str(path)


@pytest.fixture
def q1_file(tmp_path):
    path = tmp_path / "q1.json"
    save_potential(PotentialSpec.constant(normal_form_matrix([[0.0]], [[1.0]]),
                                          period=1.0), path)
    return str(path)


def _g(*vals):
    """Each value as the CLI writes it: %.17g, complex entries as re, im."""
    out = []
    for v in map(np.ravel, vals):
        if np.iscomplexobj(v):
            v = np.column_stack([v.real, v.imag]).ravel()
        out += ["%.17g" % x for x in v]
    return out


def _matrix_cols(prefix, n):
    return [f"{prefix}{i}{j}_{part}" for i in range(1, n + 1)
            for j in range(1, n + 1) for part in ("re", "im")]


def _summary(out):
    with open(os.path.join(out, "summary.json")) as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path) as fh:
        comment = fh.readline()
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return comment, header, rows


def test_cli_import_skips_signal_and_integrate(tmp_path):
    # every CLI process pays for what `import diracweyl.cli` pulls in: it
    # loads no scipy at all, and the commands below run on numpy alone
    # (scipy stays a dependency of the Volterra route's lfilter and the
    # log's fallback only, imported where they are used)
    import diracweyl
    src = os.path.dirname(os.path.dirname(os.path.abspath(diracweyl.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    xs = np.linspace(0.0, 1.0, 41)
    bump = np.array([normal_form_matrix([[0.0]], [[np.sin(np.pi * x) ** 2]])
                     for x in xs])
    save_potential(PotentialSpec.from_samples(xs, bump), tmp_path / "bump.json")
    save_potential(PotentialSpec.constant(
        normal_form_matrix([[0.0]], [[1.0]]), period=1.0), tmp_path / "q1.json")
    save_potential(kp2_spec(), tmp_path / "kp2.json")
    rng = np.random.default_rng(5)
    xs = np.linspace(0.0, 2.0, 21)
    herm = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    herm += herm.conj().T
    save_potential(PotentialSpec.from_samples(
        xs, np.cos(xs)[:, None, None] * herm), tmp_path / "gauge.json")
    runs = [
        ["mfunc", "--potential", "bump.json", "--z", "1i,2+0.5i"],
        ["fullline", "--potential", "q1.json", "--z", "2i,0.5+1i"],
        ["upsilon", "--potential", "q1.json", "--lambda=-3:3:5",
         "--eps", "1e-6"],
        ["upsilon", "--potential", "kp2.json", "--lambda=-4:4:5",
         "--eps", "1e-3"],
        ["bands", "--potential", "kp2.json", "--lambda=-4:4:101"],
        ["gauge", "--potential", "gauge.json", "--x0", "0", "--x1", "2"],
    ]
    # scipy modules loaded after the import, then after every command
    loaded = ("print(sorted(m for m in sys.modules "
              "if m == 'scipy' or m.startswith('scipy.')))\n")
    code = "import sys\nfrom diracweyl.cli import main\n" + loaded
    for k, argv in enumerate(runs):
        code += f"assert main({argv + ['--out', f'out{k}']!r}) == 0\n"
    # a RuntimeWarning leaked by any command fails the run
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                          "-c", code + loaded], env=env,
                         check=True, capture_output=True, cwd=tmp_path,
                         text=True).stdout
    assert out.split() == ["[]", "[]"]


def test_array_writer_imported_by_its_users_only(tmp_path):
    # diracweyl.arraytext is compiled by the commands that write an array
    # table (bands) or a potential file (gauge) only
    import diracweyl
    src = os.path.dirname(os.path.dirname(os.path.abspath(diracweyl.__file__)))
    save_potential(PotentialSpec.constant(
        normal_form_matrix([[0.0]], [[1.0]]), period=1.0), tmp_path / "q1.json")
    head = ("import sys\nfrom diracweyl.cli import main\n"
            "def run(*argv):\n"
            "    assert main([*argv, '--potential', 'q1.json', '--out', 'o'])"
            " == 0\n"
            "    print('diracweyl.arraytext' in sys.modules)\n"
            "print('diracweyl.arraytext' in sys.modules)\n")
    for calls, want in (
            ("run('mfunc', '--z', '1i,2+0.5i')\n"
             "run('bands', '--lambda=-3:3:9')", ["False", "False", "True"]),
            ("run('gauge', '--x0', '0', '--x1', '1')", ["False", "True"])):
        out = subprocess.run([sys.executable, "-c", head + calls],
                             env=dict(os.environ, PYTHONPATH=src), check=True,
                             capture_output=True, cwd=tmp_path, text=True)
        assert out.stdout.split() == want


class TestMfunc:
    def test_free_large_z(self, free_file, tmp_path):
        out = str(tmp_path / "out")
        rc = main(["mfunc", "--potential", free_file, "--x0", "0",
                   "--z", "0+1e3i", "--out", out])
        assert rc == 0
        comment, header, rows = _read_csv(os.path.join(out, "mfunc.csv"))
        assert "tolerances" in comment
        vals = dict(zip(header, rows[0]))
        assert abs(float(vals["M11_re"])) < 1e-8
        assert abs(float(vals["M11_im"]) - 1.0) < 1e-8
        summary = _summary(out)
        assert summary["command"] == "mfunc" and not summary["partial"]

    def test_broken_potential_category(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "m": 1, "pieces": [{"x_lo": 0.0, "x_hi": 1.0, "kind": "constant",
                                "data": [[[0.0, 0.0], [1.0, 0.0]],
                                         [[0.5, 0.0], [0.0, 0.0]]]}]}))
        rc = main(["mfunc", "--potential", str(bad), "--z", "1i",
                   "--out", str(tmp_path / "o")])
        assert rc != 0
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NonHermitianPiece"

    def test_malformed_grid_sample_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "m": 1, "pieces": [{"x_lo": 0.0, "x_hi": 1.0, "kind": "grid",
                                "data": {"x": [0.0, 1.0], "values": [
                                    [[[0.0, 0.0], [1.0, 0.0]],
                                     [[1.0, 0.0], [0.0, 0.0]]],
                                    [[[0.0, 0.0], [1.0, 0.0]],
                                     [[1.0, 0.0]]]]}}]}))
        rc = main(["mfunc", "--potential", str(bad), "--z", "1i",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"

    def test_partial_failures_flagged(self, free_file, tmp_path):
        out = str(tmp_path / "o")
        # the real z cannot converge and is reported per-point; the block is
        # retried point by point, and the good rows are the bytes a run
        # without the bad point writes
        rc = main(["mfunc", "--potential", free_file, "--z", "1i,2.0,3+1i",
                   "--out", out])
        assert rc == 1
        summary = _summary(out)
        assert summary["partial"]
        assert summary["failures"][0]["category"] == "DegenerateArguments"
        clean = str(tmp_path / "clean")
        assert main(["mfunc", "--potential", free_file, "--z", "1i,3+1i",
                     "--out", clean]) == 0
        with open(os.path.join(out, "mfunc.csv"), "rb") as fh, \
                open(os.path.join(clean, "mfunc.csv"), "rb") as fc:
            assert fh.read() == fc.read()


@pytest.mark.parametrize("x0", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, spec, points", [
    ("mfunc", smooth_bump_spec(n=41, tail_q=1.0), ["--z", "1i,2+1i"]),
    ("fullline", smooth_bump_spec(n=41, tail_q=1.0), ["--z", "1i,2+1i"]),
    ("upsilon", kp2_spec(), ["--lambda=0:1:2", "--eps", "1e-3"])])
def test_non_finite_x0_fails_every_point(tmp_path, capsys, x0, command, spec,
                                         points):
    # a NaN x0 used to give mfunc and fullline rows (the free M = i on the
    # bump) and upsilon an untyped ValueError, and then a failure record per
    # point with the x0 written into summary.json as NaN or Infinity; now
    # no point is tried: one DegenerateArguments line and no output
    path = tmp_path / "spec.json"
    save_potential(spec, path)
    out = str(tmp_path / "o")
    assert main([command, "--potential", str(path), f"--x0={x0}", *points,
                 "--out", out]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "DegenerateArguments"
    assert not os.path.exists(out)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, option, argv", [
    ("mfunc", "--tol", ["--z", "1i"]),
    ("mfunc", "--x0", ["--z", "1i"]),
    ("fullline", "--tol", ["--z", "1i"]),
    ("upsilon", "--tol", ["--lambda=0:1:2"]),
    ("upsilon", "--eps", ["--lambda=0:1:2"]),
    ("greens", "--x", ["--z", "1i", "--xp", "0.5"]),
    ("trace", "--x", []),
    ("borg", "--lam-max", []),
    ("disk", "--c", ["--z", "1i", "--m-value", "1i"])])
def test_non_finite_float_option_is_refused(tmp_path, capsys, command,
                                            option, argv, value):
    # refused right after parsing: the potential file does not exist, and
    # neither the output directory nor summary.json is made
    out = tmp_path / "o"
    assert main([command, "--potential", str(tmp_path / "missing.json"),
                 *argv, f"{option}={value}", "--out", str(out)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert err["error"] == "DegenerateArguments"
    assert err["message"].startswith(f"{option} must be finite")
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, option, text, argv", [
    ("mfunc", "--z", "1i,{}", []),
    ("fullline", "--z", "{}", []),
    ("disk", "--z", "{}", ["--c", "1", "--m-value", "1i"]),
    ("greens", "--z", "{}", ["--x", "0", "--xp", "0.5"]),
    ("greens", "--xp", "0.5,{}", ["--z", "1i", "--x", "0"]),
    ("trace", "--zmags", "{},100", ["--x", "0.5"]),
    ("uniqueness", "--zmags", "3,{}", ["--potential2", "p2.json",
                                       "--a", "0.5"]),
    ("reflectionless", "--x-list", "0,{}", ["--lambda-list", "2"]),
    ("reflectionless", "--lambda-list", "2,{}", []),
    ("upsilon", "--lambda", "0:{}:5", []),
    ("bands", "--lambda", "{}:1:5", []),
    ("expand", "--grid", "0:{}:5", ["--x", "0.3"]),
    ("disk", "--m-value", "{}", ["--z", "1i", "--c", "1"]),
    ("mfunc", "--alpha", "{},0", ["--z", "1i"]),
    ("gauge", "--omega", "0,{};0,0", ["--x0", "0", "--x1", "1"])])
def test_non_finite_text_option_is_refused(tmp_path, capsys, command,
                                           option, text, argv, value):
    # a number in a list, a matrix or at a grid end: these used to give
    # DifferentiationFailure (trace --zmags), ValueError (expand --grid,
    # and inf in --z), a per-point failure record (mfunc --z), an empty
    # output directory (greens --z, reflectionless --lambda-list) or
    # LinAlgError (--alpha, --omega)
    out = tmp_path / "o"
    assert main([command, "--potential", str(tmp_path / "missing.json"),
                 *argv, f"{option}={text.format(value)}",
                 "--out", str(out)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert err["error"] == "DegenerateArguments"
    assert err["message"].startswith(f"{option} must be finite")
    assert not out.exists()


@pytest.mark.parametrize("command, argv", [
    ("upsilon", ["--lambda=0:1:1000"]),
    ("mfunc", ["--z", "1i,2i"]),
    ("fullline", ["--z", "1i,2i"])])
def test_negative_sweep_tolerance_fails_once(tmp_path, capsys, q1_file,
                                             command, argv):
    # a negative tolerance used to fail every point of the sweep alone:
    # 1000 identical DegenerateArguments records for upsilon's grid.  It
    # is refused once, before the output directory is made
    out = tmp_path / "o"
    assert main([command, "--potential", q1_file, *argv, "--tol=-1",
                 "--out", str(out)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"error": "DegenerateArguments",
                                "message": "--tol needs tol >= 0, got -1.0"}
    assert not out.exists()


def test_grid_count_must_be_an_integer(tmp_path, capsys):
    # a grid count that is not an integer is malformed, not non-finite
    path = tmp_path / "bump.json"
    save_potential(smooth_bump_spec(n=41), path)
    assert main(["expand", "--potential", str(path), "--x", "0.3",
                 "--grid", "0:1:nan", "--out", str(tmp_path / "o")]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "ValueError"


@pytest.mark.parametrize("argv", [
    ["gauge", "--x0", "0", "--x1", "1e12"],
    ["borg", "--lam-max", "1e300"],
    ["borg", "--grid-step", "1e-9"],
    ["bands", "--lambda", "0:1:1000000000000"],
    ["upsilon", f"--lambda=0:1:{MAX_POINTS + 1}"],
    ["upsilon", "--lambda=0:1:-1"]])
def test_oversized_grid_is_refused_before_allocating(tmp_path, capsys, argv):
    # gauge --x1 1e12 asked for 5e13 output nodes and borg --lam-max 1e300
    # failed inside np.linspace with an untyped ValueError; now the grid's
    # point count is checked against MAX_POINTS before any array is made
    path = tmp_path / "per.json"
    save_potential(PotentialSpec.constant(normal_form_matrix(
        [[0.0]], [[1.0]]), 0.0, 1.0, period=1.0), path)
    tracemalloc.start()
    try:
        rc = main([*argv, "--potential", str(path),
                   "--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1 and peak < 1 << 20
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "DegenerateArguments"


def test_grid_points_must_be_finite(tmp_path, capsys):
    # finite ends near the float limit overflow linspace's step to NaN
    # points; the whole grid is checked with the other options
    out = tmp_path / "o"
    assert main(["upsilon", "--potential", str(tmp_path / "missing.json"),
                 "--lambda=-1.7e308:1.7e308:5", "--out", str(out)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line)["message"].startswith("--lambda must be finite")
    assert not out.exists()


def test_negative_order_is_refused(tmp_path, capsys):
    # expand --order=-2 used to write the order-0 coefficient and exit 0
    path = tmp_path / "bump.json"
    save_potential(smooth_bump_spec(n=41), path)
    assert main(["expand", "--potential", str(path), "--x", "0.5",
                 "--grid", "0:1:5", "--order=-2",
                 "--out", str(tmp_path / "o")]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"error": "DegenerateArguments", "message":
                                "expansion needs order >= 0, got -2"}


@pytest.mark.parametrize("order", ["800", str(10 ** 30)])
def test_huge_order_is_refused_before_derivatives(tmp_path, capsys,
                                                  monkeypatch, order):
    # order 800 on 11 nodes used to take about 2 s of np.gradient and
    # products, then write NaN rows and exit 0; order^2 * nodes is bounded
    # by MAX_POINTS before any derivative is taken
    path = tmp_path / "bump.json"
    save_potential(smooth_bump_spec(n=21, tail_q=1.0), path)
    gradients = count_calls(monkeypatch, np, "gradient")
    start = time.perf_counter()
    assert main(["expand", "--potential", str(path), "--x", "0.5",
                 "--grid", "0:1:11", f"--order={order}",
                 "--out", str(tmp_path / "o")]) == 1
    assert time.perf_counter() - start < 0.1
    assert gradients == []
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "DegenerateArguments"
    assert "order^2 * (grid nodes)" in json.loads(line)["message"]
    assert not (tmp_path / "o" / "expand.csv").exists()


def test_overflowing_coefficient_is_typed(tmp_path, capsys):
    # within the order bound the recursion can still overflow (m_k grows
    # like |B|^k): one typed JSON line and no row of NaN
    path = tmp_path / "big.json"
    save_potential(PotentialSpec.constant(
        normal_form_matrix([[0.0]], [[1e3]]), x_lo=0.0, x_hi=1.0), path)
    assert main(["expand", "--potential", str(path), "--x", "0.5",
                 "--grid", "0:1:5", "--order=120",
                 "--out", str(tmp_path / "o")]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "InsufficientDerivatives"
    assert not (tmp_path / "o" / "expand.csv").exists()


# per subcommand: its arguments on small inputs (potential files of the
# fixture below by key) and the float options the property test varies;
# --order is an integer option and takes -1, 0 or 1
_PROPERTY_RUNS = {
    "mfunc": (["bump", "--z", "1i,2+1i"], ["x0", "tol"]),
    "disk": (["bump", "--z", "1i", "--c", "1", "--m-value", "1i"],
             ["c", "x0", "tol"]),
    "expand": (["bump", "--x", "0.5", "--grid", "0:1:5"], ["x", "order"]),
    "fullline": (["bump", "--z", "1i"], ["x0", "tol"]),
    "greens": (["bump", "--z", "1i", "--x", "0", "--xp", "0.5"],
               ["x0", "x", "tol"]),
    "trace": (["bump", "--x", "0.5", "--zmags", "10,30"],
              ["x", "ray-angle", "tol"]),
    "bands": (["per", "--lambda=-2:2:5"], ["band-tol"]),
    "upsilon": (["per", "--lambda=0:1:2"], ["x0", "eps", "tol"]),
    "reflectionless": (["per", "--lambda-list", "2"], ["eps", "tol"]),
    "borg": (["per", "--lam-max", "3", "--grid-step", "0.05"],
             ["lam-max", "grid-step", "tol", "band-tol"]),
    "uniqueness": (["c1", "--potential2", "c2", "--a", "0.5"],
                   ["x0", "a", "ray-angle", "tol"]),
    "gauge": (["bump", "--x0", "0", "--x1", "1"], ["x0", "x1"]),
}
_EDGE_VALUES = ["nan", "inf", "-inf", "0", "-1e-3", "-2", "1e300", "1e-300"]
_PROPERTY_TRIPLES = [
    (command, option, value) for command in sorted(_PROPERTY_RUNS)
    for option in _PROPERTY_RUNS[command][1]
    for value in (["-1", "0", "1"] if option == "order" else _EDGE_VALUES)]


@pytest.fixture(scope="module")
def property_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("property")
    q1 = normal_form_matrix([[0.0]], [[1.0]])
    specs = {
        "bump": smooth_bump_spec(n=21),
        "per": PotentialSpec.constant(q1, 0.0, 1.0, period=1.0),
        "c1": PotentialSpec.constant(q1, x_lo=0.0, x_hi=3.0),
        "c2": PotentialSpec.constant(normal_form_matrix([[0.0]], [[2.0]]),
                                     x_lo=0.0, x_hi=3.0)}
    for key, spec in specs.items():
        save_potential(spec, root / f"{key}.json")
    return root


def _strict_json(path):
    def refuse(const):
        raise ValueError(f"{const} in {path}")
    with open(path) as fh:
        return json.load(fh, parse_constant=refuse)


@pytest.mark.parametrize("command, option, value", _PROPERTY_TRIPLES)
def test_every_float_option_answers_or_refuses(property_files, tmp_path,
                                               command, option, value):
    # one subcommand on small inputs with one float option replaced by an
    # edge value, passed as --opt=value (argparse reads "--eps -1e-3" as a
    # missing argument).  Either the run answers (exit 0, every CSV number
    # finite, strict summary.json), or it exits 1 with one JSON line naming
    # a library category, or with a partial summary whose failure records
    # name one each; nothing escapes main
    argv = _PROPERTY_RUNS[command][0]
    files = {key: str(property_files / f"{key}.json")
             for key in ("bump", "per", "c1", "c2")}
    out = str(tmp_path / "o")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main([command, "--potential", files[argv[0]],
                   *[files.get(a, a) for a in argv[1:]],
                   f"--{option}={value}", "--out", out])
    lines = err.getvalue().splitlines()
    categories = {name for name, obj in vars(errors).items()
                  if isinstance(obj, type)
                  and issubclass(obj, errors.DiracWeylError)}
    if not os.path.exists(os.path.join(out, "summary.json")):
        assert rc == 1 and len(lines) == 1
        assert json.loads(lines[0])["error"] in categories
        return
    assert lines == []
    summary = _strict_json(os.path.join(out, "summary.json"))
    assert rc == (1 if summary["partial"] else 0)
    assert {f["category"] for f in summary.get("failures", [])} <= categories
    for name in summary["outputs"]:
        if name.endswith(".csv"):
            for row in _read_csv(os.path.join(out, name))[2]:
                for tok in row:
                    try:
                        num = float(tok)
                    except ValueError:      # disk's classification
                        continue
                    assert math.isfinite(num), (name, row)


@pytest.mark.parametrize("x", ["1e300", "-1e300"])
def test_greens_far_from_x0_is_not_a_nan_row(property_files, tmp_path,
                                               capsys, x):
    # the transfer over |x - x0| = 1e300 overflows; the run used to exit 0
    # with a row of NaN
    assert main(["greens", "--potential", str(property_files / "bump.json"),
                 "--z", "1i", f"--x={x}", "--xp", "0.5",
                 "--out", str(tmp_path / "o")]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "IntegrationFailure"


@pytest.mark.parametrize("argv, category", [
    (["trace", "--x=1e300", "--zmags", "10,30"], "IntegrationFailure"),
    (["mfunc", "--x0=-1e300", "--z", "1i"], "IntegrationFailure")])
def test_hopeless_carry_fails_in_few_transfers(tmp_path, capsys, monkeypatch,
                                               argv, category):
    # a carry over 1e300 cannot succeed; it used to bisect 80 levels deep
    # (82 transfers, seconds) before failing with the same category.  trace
    # fails the run; mfunc records the point, after retrying its failed
    # block point by point (two carries)
    path = tmp_path / "bump.json"
    save_potential(smooth_bump_spec(n=21, tail_q=1.0), path)
    transfers = count_calls(monkeypatch, Propagator, "transfer")
    out = tmp_path / "o"
    assert main([argv[0], "--potential", str(path), *argv[1:],
                 "--out", str(out)]) == 1
    assert len(transfers) <= 4
    if argv[0] == "trace":
        [line] = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == category
    else:
        [failure] = _summary(out)["failures"]
        assert failure["category"] == category


def test_uniqueness_writes_discarded_norms(property_files, tmp_path):
    # from x0 = -2 the potentials agree on (-2, 0), and the differences at
    # |z| = 6, 7, 8 sit below the noise floor: their rows used to read nan
    out = str(tmp_path / "o")
    assert main(["uniqueness", "--potential", str(property_files / "c1.json"),
                 "--potential2", str(property_files / "c2.json"),
                 "--a", "2", "--x0=-2", "--out", out]) == 0
    rows = _read_csv(os.path.join(out, "uniqueness.csv"))[2]
    assert all(math.isfinite(float(v)) for row in rows for v in row)
    assert _strict_json(os.path.join(out, "summary.json"))["info"][
        "used"] == [0, 1, 2]

def test_complex_suffix_parsing():
    assert [cli._parse_complex(t) for t in ("2+1e3i", " 1i ", "-i", "3j",
                                            "4")] == [2 + 1e3j, 1j, -1j,
                                                      3j, 4]
    assert cli._parse_complex("-inf") == -math.inf
    assert cmath.isinf(cli._parse_complex("1+infi"))
    assert cmath.isnan(cli._parse_complex("nan"))


def test_summary_is_strict_json(tmp_path):
    # a non-finite value left in the summary raises instead of being
    # written as NaN, which strict JSON readers reject
    args = argparse.Namespace(command="mfunc", out=str(tmp_path / "o"))
    run = cli._Run(args)
    run.info["worst"] = math.nan
    with pytest.raises(ValueError):
        run.finish()
    assert os.listdir(args.out) == []


def test_periodic_gap_is_refused(tmp_path, capsys):
    data = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
    path = tmp_path / "gap.json"
    path.write_text(json.dumps({"m": 1, "period": 1.0, "pieces": [
        {"x_lo": 0.0, "x_hi": 0.3, "kind": "constant", "data": data},
        {"x_lo": 0.6, "x_hi": 1.0, "kind": "constant", "data": data}]}))
    assert main(["bands", "--potential", str(path), "--lambda=-2:2:5",
                 "--out", str(tmp_path / "o")]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"error": "ValueError", "message":
                                "pieces must tile exactly one period"}


class TestAllocatorPolicy:
    # musl has a mallopt that sets nothing
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="needs glibc's mallopt")
    def test_sweep_reuses_its_heap(self, tmp_path):
        # the 1601-node bump's mfunc sweep at |z| = 1..128 (halfline-bump's):
        # without the policy every pass faults its kernels' freed arrays
        # back in (90-600 minor faults a pass, by heap layout); with it a
        # steady-state pass faults next to nothing.  The heap reaches its
        # high-water mark within the first 8 passes (one step of about 130
        # pages at the 7th or 8th), so 10 passes warm up
        import diracweyl
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            diracweyl.__file__)))
        save_potential(smooth_bump_spec(tail_q=1.0), tmp_path / "bump.json")
        r = math.sqrt(0.5)
        zs = ",".join(f"{z.real!r}+{z.imag!r}i" for z in (
            complex(0.0, 2.0 ** k) if k % 2 == 0
            else complex(r * 2.0 ** k, r * 2.0 ** k) for k in range(8)))
        code = ("import resource\n"
                "from diracweyl.cli import main\n"
                "def faults():\n"
                "    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                f"    assert main(['mfunc', '--potential', 'bump.json', "
                f"'--z', {zs!r}, '--out', 'o']) == 0\n"
                "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt"
                " - f0\n"
                "for _ in range(10):\n"
                "    faults()\n"
                "print(*[faults() for _ in range(5)])\n")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, cwd=tmp_path, text=True)
        assert sum(map(int, out.stdout.split())) <= 5 * 32, out.stdout

    @pytest.mark.parametrize("error", [OSError, TypeError, AttributeError])
    def test_runs_without_mallopt(self, tmp_path, monkeypatch, error):
        # where the C library cannot be opened (OSError, or TypeError where
        # CDLL takes no None, as on Windows) or has no mallopt
        # (AttributeError), the policy is skipped and the outputs are the
        # same bytes; the lookup is made once per process
        spec = tmp_path / "bump.json"
        save_potential(smooth_bump_spec(n=41, tail_q=1.0), spec)

        def outputs(out):
            assert main(["mfunc", "--potential", str(spec), "--z",
                         "1i,2+1i", "--out", out]) == 0
            with open(os.path.join(out, "mfunc.csv"), "rb") as fh:
                csv = fh.read()
            summary = _summary(out)
            del summary["wall_time_s"], summary["inputs"]["out"]
            return csv, summary

        want = outputs(str(tmp_path / "with"))
        calls = []

        def cdll(name):
            calls.append(name)
            if error is AttributeError:
                return object()
            raise error("no C library")
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        monkeypatch.setattr(cli, "_keep_heap",
                            functools.cache(cli._keep_heap.__wrapped__))
        for k in range(2):
            assert outputs(str(tmp_path / f"without{k}")) == want
        assert calls == [None]


class TestBands:
    def test_edges(self, q1_file, tmp_path):
        out = str(tmp_path / "out")
        rc = main(["bands", "--potential", q1_file, "--lambda=-3:3:601",
                   "--out", out])
        assert rc == 0
        info = _summary(out)["info"]
        assert info["bands"] == [[-3.0, -1.0], [1.0, 3.0]]

    @pytest.mark.parametrize("grid", ["nan:1:3", "0:inf:3", "-inf:0:3"])
    def test_non_finite_grid_is_typed(self, q1_file, tmp_path, capsys, grid):
        rc = main(["bands", "--potential", q1_file, f"--lambda={grid}",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == \
            "DegenerateArguments"

    @pytest.mark.parametrize("command", ["bands", "borg"])
    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_band_tol_must_be_finite_nonnegative(self, q1_file, tmp_path,
                                                 capsys, command, tol):
        # rejected before any output: -1 would flag every lambda out of
        # band, nan would also write a bare NaN, which strict JSON rejects
        out = str(tmp_path / "out")
        argv = [command, "--potential", q1_file, f"--band-tol={tol}",
                "--out", out]
        if command == "bands":
            argv.append("--lambda=-3:3:61")
        else:
            argv += ["--lam-max", "3", "--grid-step", "0.1"]
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().err)["error"] == \
            "DegenerateArguments"
        # a non-finite option is refused before the directory is made
        assert os.listdir(out) == [] if tol == "-1" else \
            not os.path.exists(out)

    def test_descending_grid_keeps_gaps(self, q1_file, tmp_path):
        # the same runs, written (min, max) in increasing order, and the
        # same flags per lambda, for either grid order (np.linspace places
        # the points of 3:-3:61 within an ulp of those of -3:3:61)
        runs, tables = [], []
        for grid in ("-3:3:61", "3:-3:61"):
            out = str(tmp_path / grid.replace(":", "_"))
            assert main(["bands", "--potential", q1_file,
                         f"--lambda={grid}", "--out", out]) == 0
            info = _summary(out)["info"]
            runs.append((info["bands"], info["gaps"]))
            tables.append(np.array(_read_csv(
                os.path.join(out, "bands.csv"))[2], dtype=float))
        for got in runs:
            assert np.allclose(got[0], [[-3.0, -1.0], [1.0, 3.0]],
                               rtol=0, atol=1e-15)
            assert np.allclose(got[1], [[-0.9, 0.9]], rtol=0, atol=1e-15)
        up, down = tables[0], tables[1][::-1]
        assert np.allclose(up[:, 0], down[:, 0], rtol=0, atol=1e-15)
        assert np.array_equal(up[:, 1], down[:, 1])

    def test_determinism_across_runs(self, q1_file, tmp_path):
        zlist = "2i,1+1i,3i,0.5+2i"
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            rc = main(["fullline", "--potential", q1_file, "--z", zlist,
                       "--out", out])
            assert rc == 0
            with open(os.path.join(out, "fullline.csv"), "rb") as fh:
                outs.append(fh.read())
        assert outs[0] == outs[1]


class TestOtherCommands:
    def test_trace(self, q1_file, tmp_path):
        out = str(tmp_path / "out")
        rc = main(["trace", "--potential", q1_file, "--x", "0.5",
                   "--zmags", "100,300", "--out", out])
        assert rc == 0
        info = _summary(out)["info"]
        assert info["residuals"][0] < 1e-2

    def test_trace_default_zmags_limit(self, q1_file, tmp_path):
        # six geometric |z| from 100 to 1450 by default; the fitted limit
        # is within 1e-8 of the comb (measured 2.2e-10)
        out = str(tmp_path / "out")
        assert main(["trace", "--potential", q1_file, "--x", "0.5",
                     "--out", out]) == 0
        summary = _summary(out)
        mags = [float(v) for v in summary["inputs"]["zmags"].split(",")]
        assert mags == np.geomspace(100.0, 1450.0, 6).tolist()
        assert "rel_step" not in summary["tolerances"]
        info = summary["info"]
        assert info["limit_residual"] < 1e-8
        assert len(info["residuals"]) == 6
        rows = _read_csv(os.path.join(out, "trace.csv"))[2]
        assert [math.hypot(float(r[0]), float(r[1])) for r in rows] == \
            pytest.approx(mags, rel=1e-15)

    def test_greens_far_from_x0(self, tmp_path):
        # Im z |x - x0| = 100: G11 used to read 9.3e70 - 3.1e70i
        path = tmp_path / "bump.json"
        save_potential(smooth_bump_spec(n=401, tail_q=1.0), path)
        out = str(tmp_path / "out")
        assert main(["greens", "--potential", str(path), "--z", "2+5i",
                     "--x0", "0", "--x", "20", "--xp", "20",
                     "--out", out]) == 0
        [row] = _read_csv(os.path.join(out, "greens.csv"))[2]
        assert abs(complex(float(row[2]), float(row[3])) - 0.5j) <= 1e-12

    def test_greens_ignores_hopeless_x0(self, tmp_path, monkeypatch):
        # G does not depend on x0, and the whole-line M there is formed
        # only if asked for: x0 = 1e300 used to fail the run with
        # IntegrationFailure
        path = tmp_path / "bump.json"
        save_potential(smooth_bump_spec(n=21, tail_q=1.0), path)
        fulls = count_calls(monkeypatch, fullline, "fullline_m")
        rows = []
        for x0 in ("0", "1e300"):
            out = str(tmp_path / f"out{len(rows)}")
            assert main(["greens", "--potential", str(path), "--z", "1i",
                         f"--x0={x0}", "--x", "0.25", "--xp", "0.5",
                         "--out", out]) == 0
            rows.append(_read_csv(os.path.join(out, "greens.csv"))[2])
        assert rows[0] == rows[1] and len(fulls) == 2

    def test_expand(self, q1_file, tmp_path):
        out = str(tmp_path / "out")
        rc = main(["expand", "--potential", q1_file, "--x", "0.0",
                   "--order", "2", "--grid=-0.5:0.5:11", "--out", out])
        assert rc == 0
        _, header, rows = _read_csv(os.path.join(out, "expand.csv"))
        k1 = [r for r in rows if r[0] == "1"][0]
        assert abs(float(k1[3]) + 1.0) < 1e-10

    def test_gauge_writes_potential(self, tmp_path):
        src = tmp_path / "bb.json"
        save_potential(PotentialSpec.constant(
            np.diag([0.4, 0.4]).astype(complex), x_lo=0.0, x_hi=1.0), src)
        out = str(tmp_path / "out")
        rc = main(["gauge", "--potential", str(src), "--x0", "0",
                   "--x1", "1", "--out", out])
        assert rc == 0
        back = load_potential(os.path.join(out, "normal_form.json"))
        assert max(matnorm(back.eval(x))
                   for x in np.linspace(0, 1, 9)) < 1e-12

    @pytest.mark.parametrize("bounds", [
        ["--x0", "0", "--x1", "inf"], ["--x0=-inf", "--x1", "1"],
        ["--x0", "0", "--x1", "nan"], ["--x0", "1", "--x1", "1"]])
    def test_gauge_bad_interval_is_typed(self, q1_file, tmp_path, bounds):
        # a non-finite or empty interval exits 1 with one JSON line on
        # stderr, not a traceback
        import diracweyl
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            diracweyl.__file__)))
        out = subprocess.run(
            [sys.executable, "-m", "diracweyl.cli", "gauge", "--potential",
             q1_file, *bounds, "--out", str(tmp_path / "o")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True)
        assert out.returncode == 1
        assert "Traceback" not in out.stderr
        [line] = out.stderr.splitlines()
        assert json.loads(line)["error"] == "DegenerateArguments"

    def test_disk(self, free_file, tmp_path):
        out = str(tmp_path / "out")
        rc = main(["disk", "--potential", free_file, "--z", "1i",
                   "--c", "1.0", "--m-value", "1i", "--out", out])
        assert rc == 0
        info = _summary(out)["info"]
        assert info["classification"] == "interior"

    def test_disk_overflow_is_typed(self, tmp_path, capsys):
        # the solutions on the bump grow like e^2000 over [0, 1]
        src = tmp_path / "bump.json"
        save_potential(smooth_bump_spec(tail_q=1.0), src)
        rc = main(["disk", "--potential", str(src), "--z", "2000i",
                   "--c", "1.0", "--m-value", "1i",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == \
            "IntegrationFailure"

    def test_upsilon(self, free_file, tmp_path):
        out = str(tmp_path / "out")
        rc = main(["upsilon", "--potential", free_file, "--lambda=0:1:3",
                   "--eps", "1e-4", "--out", out])
        assert rc == 0
        _, header, rows = _read_csv(os.path.join(out, "upsilon.csv"))
        vals = dict(zip(header, rows[0]))
        assert abs(float(vals["Y11_re"]) - 0.5) < 1e-6


class TestUpsilonSweep:
    def test_partial_failures_flagged(self, q1_file, tmp_path):
        # the tail estimate at the q = 1 band edges lambda = +-1 (1.9e-13)
        # fails --tol 1e-14, the other points (below 5e-16) pass; their rows
        # are the bytes a run without the edges writes
        out, clean = str(tmp_path / "o"), str(tmp_path / "clean")
        common = ["--potential", q1_file, "--eps", "1e-6", "--tol", "1e-14"]
        assert main(["upsilon", "--lambda=-2:1:4", "--out", out]
                    + common) == 1
        summary = _summary(out)
        assert [(f["lambda"], f["category"]) for f in summary["failures"]] \
            == [(-1.0, "NoConvergence"), (1.0, "NoConvergence")]
        assert main(["upsilon", "--lambda=-2:0:2", "--out", clean]
                    + common) == 0
        with open(os.path.join(out, "upsilon.csv"), "rb") as fh, \
                open(os.path.join(clean, "upsilon.csv"), "rb") as fc:
            assert fh.read() == fc.read()

    def test_eig_calls_independent_of_lambda_count(self, tmp_path,
                                                   monkeypatch):
        # one stacked block: the decaying subspaces of both sides, taken
        # in one pass (two eig for m = 2), and the log take the same eig
        # calls at 9 and at 17 lambda
        path = tmp_path / "kp2.json"
        save_potential(kp2_spec(), path)
        counts = []
        for n in (9, 17):
            with monkeypatch.context() as mp:
                under, outside = count_eig(mp)
                assert main(["upsilon", "--potential", str(path),
                             f"--lambda=-4:4:{n}", "--eps", "1e-3",
                             "--out", str(tmp_path / f"o{n}")]) == 0
            counts.append(len(under) + len(outside))
        assert counts[0] == counts[1] == 3


    def test_negative_eps_fails_once(self, q1_file, tmp_path, capsys):
        # eps < 0 would write -Upsilon; each point used to fail alone, and
        # now the run fails once, before any point or output
        out = str(tmp_path / "o")
        assert main(["upsilon", "--potential", q1_file, "--lambda=0:2:3",
                     "--eps=-1e-3", "--out", out]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {"error": "DegenerateArguments",
                                    "message": "--eps needs eps >= 0, "
                                               "got -0.001"}
        assert not os.path.exists(out)

    def test_nan_eps_fails_every_point(self, tmp_path, capsys):
        # lambda + i NaN used to give finite rows read from unwritten
        # memory, and then a failure record per point with "eps": NaN in
        # summary.json; now no point is tried and nothing is written
        path = tmp_path / "kp2.json"
        save_potential(kp2_spec(), path)
        out = str(tmp_path / "o")
        assert main(["upsilon", "--potential", str(path), "--lambda=0:1:2",
                     "--eps", "nan", "--out", out]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == \
            "DegenerateArguments"
        assert not os.path.exists(out)

    @pytest.mark.parametrize("grid", ["nan:1:3", "0:inf:3", "-inf:0:3"])
    def test_non_finite_grid_is_typed(self, q1_file, tmp_path, capsys, grid):
        # rejected before the sweep: no failure records holding NaN or
        # Infinity, which strict JSON cannot read, and no summary.json
        out = str(tmp_path / "out")
        rc = main(["upsilon", "--potential", q1_file, f"--lambda={grid}",
                   "--out", out])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == \
            "DegenerateArguments"
        assert not os.path.exists(os.path.join(out, "summary.json"))


class TestTableShape:
    def test_all_failed_sweep_keeps_header(self, free_file, tmp_path):
        # the columns are fixed by m, not by the first point that succeeds
        out = str(tmp_path / "o")
        rc = main(["mfunc", "--potential", free_file, "--z", "2.0",
                   "--out", out])
        assert rc == 1
        _, header, rows = _read_csv(os.path.join(out, "mfunc.csv"))
        assert header == ["z_re", "z_im", "tail_bound", "M11_re", "M11_im"]
        assert rows == []
        summary = _summary(out)
        assert summary["failures"][0]["z"] == "(2+0j)"

    @pytest.mark.parametrize("argv", [
        ["disk", "--z", "1i", "--c", "1.0", "--m-value", "1i,0;0,1i"],
        ["gauge", "--x0", "0", "--x1", "1", "--omega", "1,0;0,1"],
        ["mfunc", "--z", "1i", "--alpha", "1,0;0,1"],
    ])
    def test_matrix_shape_named(self, argv, free_file, tmp_path, capsys):
        rc = main(argv + ["--potential", free_file,
                          "--out", str(tmp_path / "o")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        expect = "1x2" if "--alpha" in argv else "1x1"
        assert err["message"].endswith(f"must be {expect}")


def _percent_bytes(fmt, rows):
    line = fmt + "\n"
    return "".join(line % tuple(row) for row in rows.tolist()).encode()


def _array_bytes(fmt, rows):
    fh = io.BytesIO()
    arraytext.write_table(fh, rows, np.array(fmt.split(",")) == "%d")
    return fh.getvalue()


class TestArrayWriter:
    """The array writer writes the bytes of fmt % tuple(row), row by row."""

    FMT = "%.17g,%d,%.17g"

    def test_edge_values(self):
        vals = edge_floats()
        ints = [-0.5, -0.0, 0.0, 0.5, -1.0, 1.0, -1.5, 1e20, -1e20, 1e17,
                math.nextafter(1e17, 0), 9007199254740993.0, 123456.75]
        rows = np.column_stack([vals, np.resize(ints, len(vals)), vals[::-1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _array_bytes(self.FMT, rows)
        assert got == _percent_bytes(self.FMT, rows)
        # %d of -0.5, -0.0 and 1e20
        assert [line.split(b",")[1] for line in got.split(b"\n")[:8]] == [
            b"0", b"0", b"0", b"0", b"-1", b"1", b"-1", b"1" + b"0" * 20]

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=60)
    @given(bits=st.lists(st.integers(0, 2 ** 64 - 1), min_size=3,
                         max_size=600),
           ints=st.lists(st.floats(-1e18, 1e18), min_size=1, max_size=200))
    def test_random_bit_patterns(self, bits, ints):
        vals = np.array(bits, dtype=np.uint64).view(float)
        vals = vals[:len(vals) // 2 * 2].reshape(-1, 2)
        rows = np.column_stack([vals[:, 0], np.resize(ints, len(vals)),
                                vals[:, 1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _array_bytes(self.FMT, rows)
        assert got == _percent_bytes(self.FMT, rows)

    def test_digit_table(self):
        # the four ASCII digits of each of 0..9999, then a zero word
        quads = arraytext._layout()[3]
        assert quads.dtype == np.uint32
        assert quads.tobytes() == b"".join(
            b"%04d" % i for i in range(10000)) + bytes(4)

    def test_table_array_matches_row_list(self, tmp_path, monkeypatch):
        calls = []
        write = arraytext.write_table
        monkeypatch.setattr(arraytext, "write_table",
                            lambda *a: calls.append(1) or write(*a))
        run = cli._Run(argparse.Namespace(out=str(tmp_path)))
        rows = np.linspace(-3.0, 3.0, 3 * 600).reshape(-1, 3)
        rows[:, 1] = np.arange(len(rows)) % 2
        header = ["a", "flag", "b"]
        for n in (1, 600):
            for name, table in (("array.csv", rows[:n]),
                                ("list.csv", rows[:n].tolist())):
                run.table(name, header, table, self.FMT)
            assert (tmp_path / "array.csv").read_bytes() == \
                (tmp_path / "list.csv").read_bytes()
        assert len(calls) == (2 if sys.byteorder == "little" else 0)


class TestValuesMatchLibrary:
    """Each CSV value is the library's value written with %.17g."""

    def test_greens(self, q1_file, tmp_path):
        out = str(tmp_path / "out")
        rc = main(["greens", "--potential", q1_file, "--z", "1i",
                   "--x", "0.2", "--xp", "0.2,0.5,-0.3", "--side", "-1",
                   "--out", out])
        assert rc == 0
        _, header, rows = _read_csv(os.path.join(out, "greens.csv"))
        assert header == ["x", "xp"] + _matrix_cols("G", 2)
        ev = GreensEvaluator(1j, 0.0, load_potential(q1_file), tol=1e-10)
        g = ev.value(0.2, [0.2, 0.5, -0.3], side=-1)
        expect = [_g(0.2, xp, val) for xp, val in zip(g.xp, g.value)]
        assert rows == expect

    def test_reflectionless(self, free_file, tmp_path):
        out = str(tmp_path / "out")
        rc = main(["reflectionless", "--potential", free_file,
                   "--x-list", "0,0.3", "--lambda-list", "0.5,1",
                   "--out", out])
        assert rc == 0
        _, header, rows = _read_csv(os.path.join(out, "reflectionless.csv"))
        assert header == ["x", "lambda", "deviation"]
        rep = reflectionless_check(load_potential(free_file), [0.0, 0.3],
                                   [0.5, 1.0], eps=1e-6, tol=1e-3)
        assert rows == [_g(*sample) for sample in rep.samples]
        info = _summary(out)["info"]
        assert info["reflectionless"] is True

    def test_borg(self, q1_file, tmp_path):
        out = str(tmp_path / "out")
        rc = main(["borg", "--potential", q1_file, "--lam-max", "3",
                   "--grid-step", "0.05", "--out", out])
        assert rc == 0
        _, header, rows = _read_csv(os.path.join(out, "borg.csv"))
        assert header == ["comb_diag_max", "comb_off_max", "full_spectrum",
                          "consistent"]
        rep = borg_diagnostic(load_potential(q1_file), lam_max=3.0,
                              grid_step=0.05, comb_tol=1e-8, band_tol=1e-6)
        assert not rep.full_spectrum and rep.consistent
        assert rows == [_g(rep.comb_diag_max, rep.comb_off_max) + ["0", "1"]]

    @pytest.mark.parametrize("argv", [["--grid-step", "0"],
                                      ["--grid-step=-0.5"],
                                      ["--lam-max=-5"],
                                      ["--lam-max=inf"]])
    def test_borg_grid_not_positive(self, argv, q1_file, tmp_path, capsys):
        rc = main(["borg", "--potential", q1_file, "--out",
                   str(tmp_path / "o")] + argv)
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DegenerateArguments"
        if argv == ["--lam-max=inf"]:   # refused with the other non-finite
            return
        assert "grid_step > 0 and lam_max > 0" in err["message"]

    def test_uniqueness(self, tmp_path):
        q1 = normal_form_matrix([[0.0]], [[1.0]])
        q2 = normal_form_matrix([[0.0]], [[2.0]])
        spec1 = PotentialSpec.constant(q1, x_lo=0.0, x_hi=3.0)
        spec2 = PotentialSpec(1, (
            PotentialSpec.constant(q1, x_lo=0.0, x_hi=1.0).pieces[0],
            PotentialSpec.constant(q2, x_lo=1.0, x_hi=3.0).pieces[0]))
        save_potential(spec1, tmp_path / "a.json")
        save_potential(spec2, tmp_path / "b.json")
        out = str(tmp_path / "out")
        rc = main(["uniqueness", "--potential", str(tmp_path / "a.json"),
                   "--potential2", str(tmp_path / "b.json"), "--a", "1",
                   "--out", out])
        assert rc == 0
        _, header, rows = _read_csv(os.path.join(out, "uniqueness.csv"))
        assert header == ["zmag", "norm_diff"]
        fit = uniqueness_decay(load_potential(str(tmp_path / "a.json")),
                               load_potential(str(tmp_path / "b.json")),
                               0.0, 1.0, tol=1e-11)
        assert rows == [_g(m, n) for m, n in zip(fit.zmags, fit.norms)]


def test_parser_is_built_once_and_reused(q1_file, tmp_path, monkeypatch,
                                         capsys):
    # main parses with the parser built at import: an argparse error and
    # --version leave it intact, and repeated runs in one process write the
    # bytes a fresh interpreter writes
    out = str(tmp_path / "out")
    argv = ["upsilon", "--potential", q1_file, "--lambda=-2:2:5",
            "--eps", "1e-3", "--out", out]

    def outputs():
        with open(os.path.join(out, "upsilon.csv")) as fh:
            csv = fh.read()
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        del summary["wall_time_s"]
        return csv, summary

    def no_parser():
        raise AssertionError("main rebuilt the parser")
    monkeypatch.setattr(cli, "build_parser", no_parser)
    with pytest.raises(SystemExit) as exc:
        main(["upsilon", "--potential", q1_file, "--lambda=-2:2:5",
              "--eps", "small", "--out", out])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    capsys.readouterr()
    runs = []
    for _ in range(2):
        assert main(argv) == 0
        runs.append(outputs())
    import diracweyl
    src = os.path.dirname(os.path.dirname(os.path.abspath(diracweyl.__file__)))
    subprocess.run([sys.executable, "-m", "diracweyl.cli", *argv], check=True,
                   env=dict(os.environ, PYTHONPATH=src))
    runs.append(outputs())
    assert runs[0] == runs[1] == runs[2]
    assert len(runs[0][0].splitlines()) == 2 + 5


def test_every_subcommand_has_a_cli_test():
    # a subcommand added to (or dropped from) the parser must come with (or
    # take away) a test here that runs it through main
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    with open(__file__) as fh:
        tested = set(re.findall(r'main\(\[\s*"([a-z]+)"', fh.read()))
    assert set(sub.choices) == tested
