import argparse
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from diracweyl import (
    GreensEvaluator,
    PotentialSpec,
    borg_diagnostic,
    load_potential,
    matnorm,
    normal_form_matrix,
    reflectionless_check,
    save_potential,
    uniqueness_decay,
)
from diracweyl.cli import build_parser, main
from conftest import count_eig, kp2_spec, smooth_bump_spec


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
        summary = json.load(open(os.path.join(out, "summary.json")))
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
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert summary["partial"]
        assert summary["failures"][0]["category"] == "DegenerateArguments"
        clean = str(tmp_path / "clean")
        assert main(["mfunc", "--potential", free_file, "--z", "1i,3+1i",
                     "--out", clean]) == 0
        with open(os.path.join(out, "mfunc.csv"), "rb") as fh, \
                open(os.path.join(clean, "mfunc.csv"), "rb") as fc:
            assert fh.read() == fc.read()


class TestBands:
    def test_edges(self, q1_file, tmp_path):
        out = str(tmp_path / "out")
        rc = main(["bands", "--potential", q1_file, "--lambda=-3:3:601",
                   "--out", out])
        assert rc == 0
        info = json.load(open(os.path.join(out, "summary.json")))["info"]
        assert info["bands"] == [[-3.0, -1.0], [1.0, 3.0]]

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
        info = json.load(open(os.path.join(out, "summary.json")))["info"]
        assert info["residuals"][0] < 1e-2

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

    def test_disk(self, free_file, tmp_path):
        out = str(tmp_path / "out")
        rc = main(["disk", "--potential", free_file, "--z", "1i",
                   "--c", "1.0", "--m-value", "1i", "--out", out])
        assert rc == 0
        info = json.load(open(os.path.join(out, "summary.json")))["info"]
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
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert [(f["lambda"], f["category"]) for f in summary["failures"]] \
            == [(-1.0, "NoConvergence"), (1.0, "NoConvergence")]
        assert main(["upsilon", "--lambda=-2:0:2", "--out", clean]
                    + common) == 0
        with open(os.path.join(out, "upsilon.csv"), "rb") as fh, \
                open(os.path.join(clean, "upsilon.csv"), "rb") as fc:
            assert fh.read() == fc.read()

    def test_eig_calls_independent_of_lambda_count(self, tmp_path,
                                                   monkeypatch):
        # one stacked block: the decaying subspaces of both sides and the
        # log take the same eig calls at 9 and at 17 lambda
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
        assert counts[0] == counts[1] == 5


    def test_negative_eps_fails_every_point(self, q1_file, tmp_path):
        # eps < 0 would write -Upsilon; each point fails alone instead
        out = str(tmp_path / "o")
        assert main(["upsilon", "--potential", q1_file, "--lambda=0:2:3",
                     "--eps=-1e-3", "--out", out]) == 1
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert [(f["lambda"], f["category"]) for f in summary["failures"]] \
            == [(lam, "DegenerateArguments") for lam in (0.0, 1.0, 2.0)]
        assert _read_csv(os.path.join(out, "upsilon.csv"))[2] == []


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
        summary = json.load(open(os.path.join(out, "summary.json")))
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
        info = json.load(open(os.path.join(out, "summary.json")))["info"]
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
                                      ["--lam-max=-5"]])
    def test_borg_grid_not_positive(self, argv, q1_file, tmp_path, capsys):
        rc = main(["borg", "--potential", q1_file, "--out",
                   str(tmp_path / "o")] + argv)
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
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


def test_every_subcommand_has_a_cli_test():
    # a subcommand added to (or dropped from) the parser must come with (or
    # take away) a test here that runs it through main
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    with open(__file__) as fh:
        tested = set(re.findall(r'main\(\[\s*"([a-z]+)"', fh.read()))
    assert set(sub.choices) == tested
