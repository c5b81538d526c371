import json
import os
import subprocess
import sys

import numpy as np
import pytest

from diracweyl import (
    PotentialSpec,
    load_potential,
    matnorm,
    normal_form_matrix,
    save_potential,
)
from diracweyl.cli import main


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


def _read_csv(path):
    with open(path) as fh:
        comment = fh.readline()
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return comment, header, rows


def test_cli_import_skips_signal_and_integrate():
    # every CLI process pays for what `import diracweyl.cli` pulls in;
    # scipy.signal and scipy.integrate are imported where they are used
    import diracweyl
    src = os.path.dirname(os.path.dirname(os.path.abspath(diracweyl.__file__)))
    code = ("import sys, diracweyl.cli; print([m for m in ('scipy.signal', "
            "'scipy.integrate') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


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

    def test_partial_failures_flagged(self, free_file, tmp_path):
        out = str(tmp_path / "o")
        # the real z cannot converge and is reported per-point
        rc = main(["mfunc", "--potential", free_file, "--z", "1i,2.0",
                   "--out", out])
        assert rc == 1
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert summary["partial"]
        assert summary["failures"][0]["category"] == "DegenerateArguments"


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

    def test_upsilon(self, free_file, tmp_path):
        out = str(tmp_path / "out")
        rc = main(["upsilon", "--potential", free_file, "--lambda=0:1:3",
                   "--eps", "1e-4", "--out", out])
        assert rc == 0
        _, header, rows = _read_csv(os.path.join(out, "upsilon.csv"))
        vals = dict(zip(header, rows[0]))
        assert abs(float(vals["Y11_re"]) - 0.5) < 1e-6
