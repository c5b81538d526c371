"""Workload registry: seeded input generators, the CLI commands each
workload runs, and the oracle check of their outputs.

The generators write potential files in the documented JSON format
directly (they do not go through the library's writer), and keep the
arrays they wrote so the oracles work from the same numbers without
reading the files back through the library.

Regenerate the checked-in inputs (seed 0) with

    python3 bench/workloads.py --seed 0 --out bench/inputs
"""

import argparse
import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import oracles

# Seed-driven perturbations are small on purpose: they change the numbers
# (so no seed-specific result can be memorised) but not the work, so the
# spread of sweep_s across seeds stays a timing spread.  Each band below
# was checked to keep sweep and bisection counts on one plateau.
_BUMP_AMP_JITTER = 0.05
_KP_JITTER = 0.01
_GAUGE_JITTER = 0.02


@dataclass
class Instance:
    """Generated inputs of one workload for one seed."""

    files: dict                 # file name -> JSON document
    commands: list              # (out subdir, argv without --out)
    points: int                 # spectral points attempted per pass
    params: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# potential documents
# ---------------------------------------------------------------------------

def _pairs(mat):
    return [[[float(v.real), float(v.imag)] for v in row] for row in mat]


def _constant(x_lo, x_hi, mat):
    return {"x_lo": float(x_lo), "x_hi": float(x_hi), "kind": "constant",
            "data": _pairs(mat)}


def _grid(xs, vals):
    return {"x_lo": float(xs[0]), "x_hi": float(xs[-1]), "kind": "grid",
            "data": {"x": [float(t) for t in xs],
                     "values": [_pairs(v) for v in vals]}}


def normal_form(b11, b12):
    """[[B11, B12], [B12, -B11]] for Hermitian m x m blocks."""
    b11 = np.atleast_2d(np.asarray(b11, complex))
    b12 = np.atleast_2d(np.asarray(b12, complex))
    return np.block([[b11, b12], [b12, -b11]])


def _rng(seed, stream):
    return np.random.default_rng([int(seed), stream])


def _z_label(z):
    return f"{z.real!r}+{z.imag!r}i"


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def gen_halfline_bump(seed):
    rng = _rng(seed, 1)
    amp = 0.8 * (1.0 + _BUMP_AMP_JITTER * rng.uniform(-1.0, 1.0))
    tail_q = 1.0 + _BUMP_AMP_JITTER * rng.uniform(-1.0, 1.0)
    xs = np.linspace(0.0, 1.0, 1601)
    vals = np.array([normal_form(0.0, amp * math.sin(math.pi * x) ** 2)
                     for x in xs])
    tail = normal_form(0.0, tail_q)
    doc = {"m": 1, "name": "bump",
           "pieces": [_grid(xs, vals), _constant(1.0, 2.0, tail)]}
    # |z| = 1, 2, ..., 128, alternating between the rays arg pi/2 and pi/4
    r = math.sqrt(0.5)
    zs = [complex(0.0, 2.0 ** k) if k % 2 == 0
          else complex(r * 2.0 ** k, r * 2.0 ** k) for k in range(8)]
    argv = ["mfunc", "--potential", "bump.json", "--x0", "0", "--sign", "+",
            "--z", ",".join(_z_label(z) for z in zs)]
    return Instance(files={"bump.json": doc}, commands=[("mfunc", argv)],
                    points=len(zs),
                    params={"xs": xs, "vals": vals, "tail": tail,
                            "tail_lo": 1.0, "tail_hi": 2.0, "zs": zs})


def kp2_pieces(seed):
    """Two-piece m=2 Kronig-Penney-type potential of period 1.

    Channel 1 has the wide central gap, channel 2 the narrow one, and a
    common shift of 0.3 puts exactly one mixed-channel point (lambda = -1)
    on the integer grid of density-periodic(b).  The channels are coupled
    by a small off-diagonal term.
    """
    rng = _rng(seed, 2)
    j = lambda v: v * (1.0 + _KP_JITTER * rng.uniform(-1.0, 1.0))  # noqa: E731
    q1, q2, d, c = j(0.73), j(0.5), j(0.2), j(0.1)
    h1, h2, shift = j(0.1), j(-0.05), j(0.3)
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    ha = np.diag([h1, h2])
    ba = normal_form(ha, np.diag([q1 + d, q2 + d]) + c * x) + shift * np.eye(4)
    bb = normal_form(-ha, np.diag([q1 - d, q2 - d]) + c * x) + shift * np.eye(4)
    return [(0.0, 0.5, ba), (0.5, 1.0, bb)]


def _kp2_doc(pieces):
    return {"m": 2, "period": 1.0, "name": "kp2",
            "pieces": [_constant(lo, hi, b) for lo, hi, b in pieces]}


def gen_density_periodic(seed):
    # (a) takes no jitter: its deviation at the gap point lambda = 0 swings
    # from 7e-13 to 2.5e-10 as q moves by 1%, which would make
    # oracle_digits a function of the seed instead of the code
    q = 1.0
    q1 = normal_form(0.0, q)
    kp = kp2_pieces(seed)
    files = {"q1.json": {"m": 1, "period": 1.0, "name": "q1",
                         "pieces": [_constant(0.0, 1.0, q1)]},
             "kp2.json": _kp2_doc(kp)}
    commands = [
        ("q1", ["upsilon", "--potential", "q1.json", "--x0", "0",
                "--lambda=-3:3:13", "--eps", "1e-6"]),
        ("kp2", ["upsilon", "--potential", "kp2.json", "--x0", "0",
                 "--lambda=-4:4:9", "--eps", "1e-3"]),
    ]
    return Instance(files=files, commands=commands, points=13 + 9,
                    params={"q": q, "kp": kp,
                            "q1": (np.linspace(-3, 3, 13), 1e-6),
                            "kp2": (np.linspace(-4, 4, 9), 1e-3)})


BANDS_GRID = (-8.0, 8.0, 4001)


def gen_bands_kp2(seed):
    kp = kp2_pieces(seed)
    lo, hi, n = BANDS_GRID
    argv = ["bands", "--potential", "kp2.json", f"--lambda={lo:g}:{hi:g}:{n}"]
    return Instance(files={"kp2.json": _kp2_doc(kp)}, commands=[("bands", argv)],
                    points=n, params={"kp": kp, "lams": np.linspace(lo, hi, n)})


def _cosine_modes(rng, xs, modes):
    """Sum of cosine modes with random complex Hermitian 4x4 coefficients,
    each of Frobenius norm 1, mode k weighted 1/(k+1)."""
    vals = np.zeros((len(xs), 4, 4), complex)
    for k in range(modes):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = a + a.conj().T
        a /= np.linalg.norm(a)
        phase = rng.uniform(0.0, 2 * math.pi)
        vals += np.cos(0.6 * (k + 1) * xs + phase)[:, None, None] * a / (k + 1)
    return vals


def gauge_samples(seed, n=401, x1=10.0, modes=6):
    """Smoothed random Hermitian m=2 samples: one fixed draw of cosine
    modes plus a seeded 2% draw of the same kind.  A fresh draw per seed
    moved the integrator's work by +-7%; the perturbation keeps it within
    about 1%."""
    xs = np.linspace(0.0, x1, n)
    vals = (_cosine_modes(_rng(0, 4), xs, modes)
            + _GAUGE_JITTER * _cosine_modes(_rng(seed, 5), xs, modes))
    return xs, 0.5 * (vals + vals.conj().transpose(0, 2, 1))


def gen_gauge_sampled(seed):
    xs, vals = gauge_samples(seed)
    doc = {"m": 2, "name": "gauge-sampled", "pieces": [_grid(xs, vals)]}
    # the reduction covers [0, 5]: 250 intervals per gauge factor
    argv = ["gauge", "--potential", "gauge.json", "--x0", "0", "--x1", "5"]
    return Instance(files={"gauge.json": doc}, commands=[("gauge", argv)],
                    points=1, params={"xs": xs, "vals": vals,
                                      "x0": 0.0, "x1": 5.0})


# ---------------------------------------------------------------------------
# output parsing and oracle checks
# ---------------------------------------------------------------------------

def read_csv(data):
    lines = data.decode().splitlines()
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    return rows[0], np.array([[float(v) for v in r] for r in rows[1:]])


def _complex_block(header, table, prefix, d):
    out = np.empty((len(table), d, d), complex)
    for i in range(d):
        for k in range(d):
            re = header.index(f"{prefix}{i + 1}{k + 1}_re")
            im = header.index(f"{prefix}{i + 1}{k + 1}_im")
            out[:, i, k] = table[:, re] + 1j * table[:, im]
    return out


def rel_dev(got, want):
    """Worst over rows of max|got - want| / max|want| (per row)."""
    got = np.asarray(got).reshape(len(got), -1)
    want = np.asarray(want).reshape(len(want), -1)
    scale = np.maximum(np.max(np.abs(want), axis=1), 1e-300)
    return float(np.max(np.max(np.abs(got - want), axis=1) / scale))


def check_halfline_bump(inst, outputs):
    p = inst.params
    header, table = read_csv(outputs["mfunc/mfunc.csv"])
    zs = np.array(p["zs"])
    got_z = table[:, 0] + 1j * table[:, 1]
    if len(got_z) != len(zs) or np.any(got_z != zs):
        return math.inf, "z column does not match the inputs"
    want = oracles.bump_mplus(zs, p["xs"], p["vals"], p["tail"],
                              p["tail_lo"], p["tail_hi"])
    got = _complex_block(header, table, "M", 1)[:, 0, 0]
    return rel_dev(got[:, None], want[:, None]), f"{len(zs)} z"


def check_density_periodic(inst, outputs):
    p = inst.params
    worst = 0.0
    for sub in ("q1", "kp2"):
        header, table = read_csv(outputs[f"{sub}/upsilon.csv"])
        lams, eps = p[sub]
        if len(table) != len(lams) or np.any(table[:, 0] != lams):
            return math.inf, f"{sub}: lambda column does not match the grid"
        if sub == "q1":
            want = oracles.upsilon_const_q(lams, eps, p["q"])
            d = 2
        else:
            want = oracles.upsilon_floquet(lams, eps, p["kp"])
            d = 4
        got = _complex_block(header, table, "Y", d)
        worst = max(worst, rel_dev(got, want))
    return worst, "13 + 9 lambda"


def check_bands_kp2(inst, outputs):
    p = inst.params
    header, table = read_csv(outputs["bands/bands.csv"])
    lams = p["lams"]
    if len(table) != len(lams) or np.any(table[:, 0] != lams):
        return math.inf, "lambda column does not match the grid"
    got = np.stack([table[:, 2 + 2 * k] + 1j * table[:, 3 + 2 * k]
                    for k in range(4)], axis=1)
    want = oracles.floquet_multipliers(lams, p["kp"])
    dev = oracles.multiplier_rel_dev(got, want)
    flags, decided = oracles.in_band_flags(want, tol=1e-6, period=1.0)
    bad = int(np.sum(decided & (flags != (table[:, 1] == 1.0))))
    if bad:
        return math.inf, f"{bad} in_band flags disagree with the oracle"
    return dev, f"{len(lams)} lambda, {int(np.sum(~decided))} flags undecided"


def check_gauge_sampled(inst, outputs):
    p = inst.params
    doc = json.loads(outputs["gauge/normal_form.json"])
    piece = doc["pieces"][0]
    xs = np.asarray(piece["data"]["x"], float)
    vals = np.array([np.asarray(v, float) for v in piece["data"]["values"]])
    vals = vals[..., 0] + 1j * vals[..., 1]
    want_xs = np.linspace(p["x0"], p["x1"], max(201, int(50 * (p["x1"] - p["x0"])) + 1))
    if len(xs) != len(want_xs) or np.max(np.abs(xs - want_xs)) > 1e-12:
        return math.inf, "reduced grid does not match the expected nodes"
    b11, b12 = oracles.gauge_reduction(p["xs"], p["vals"], xs)
    m = 2
    got = np.concatenate([vals[:, :m, :m], vals[:, :m, m:]], axis=1)
    want = np.concatenate([b11, b12], axis=1)
    # the normal-form structure itself: B22 = -B11, B21 = B12, Hermitian
    nf = max(np.max(np.abs(vals[:, m:, m:] + vals[:, :m, :m])),
             np.max(np.abs(vals[:, m:, :m] - vals[:, :m, m:])),
             np.max(np.abs(vals - vals.conj().transpose(0, 2, 1))))
    if nf > 1e-10:
        return math.inf, f"output is not in normal form (defect {nf:.2e})"
    return rel_dev(got, want), f"{len(xs)} nodes"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: object
    check: object
    tolerance: float            # worst relative deviation accepted
    # layers whose time the workload is meant to load: spans of these
    # names count with their inclusive time ("covered") or self time
    target: tuple
    target_mode: str


WORKLOADS = {w.name: w for w in (
    Workload("halfline-bump",
             "sampled-grid kernel: mfunc on a 1601-node bump, 8 z; "
             "solve_ivp with a Python RHS dominates",
             gen_halfline_bump, check_halfline_bump, 1e-6,
             ("propagator.ode",), "covered"),
    Workload("density-periodic",
             "upsilon on periodic potentials: deep Weyl-disk sweeps, "
             "Moebius bisection, period powering and the matrix log",
             gen_density_periodic, check_density_periodic, 1e-5,
             ("weyldisk.halfline", "fullline.logm"), "covered"),
    Workload("bands-kp2",
             "bands on 4001 lambda: many short-lived Propagators, "
             "per-point eig and CSV formatting",
             gen_bands_kp2, check_bands_kp2, 1e-6,
             ("propagator.init", "spectral.monodromy",
              "spectral.band_spectrum", "cli.main"), "self"),
    Workload("gauge-sampled",
             "gauge on a 401-node random m=2 potential: 500 short "
             "solve_ivp calls with PotentialSpec.eval in the RHS",
             gen_gauge_sampled, check_gauge_sampled, 1e-6,
             ("gauge.ode", "foundation.eval"), "covered"),
)}

def write_inputs(inst, directory):
    os.makedirs(directory, exist_ok=True)
    for name, doc in inst.files.items():
        with open(os.path.join(directory, name), "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")


def main():
    ap = argparse.ArgumentParser(description="write the seeded inputs of "
                                 "every workload, one directory each")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    for name, w in WORKLOADS.items():
        write_inputs(w.generate(args.seed), os.path.join(args.out, name))


if __name__ == "__main__":
    main()
