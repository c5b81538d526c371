#!/usr/bin/env python3
"""diracweyl benchmark: real CLI runs, oracle-checked, timed end to end,
with a separate traced run for per-layer numbers.

    python3 bench/run.py --workload halfline-bump --seed 1 --seconds 18 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 18 [--trace 1]

Run from the repository root.  Each workload runs its diracweyl command(s)
in process through ``diracweyl.cli.main(argv)``; the library is imported
from ``src/`` next to this directory.  The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.  The exit
status is nonzero when an output deviates from its oracle, when two passes
disagree byte for byte, or when the library cannot be found.
See bench/README.md for the workloads, metrics and known defects.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, "_work")

MIN_PASSES = 3
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS")

# What a fresh CLI process pays before its first spectral point.
_SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import diracweyl.cli as cli
t1 = time.perf_counter()
for path in sys.argv[2:]:
    cli.load_potential(path)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1}))
"""

END_TO_END = (("sweep_s", "s"), ("setup_s", "s"), ("oracle_digits", "digits"),
              ("ok_frac", "1"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("propagator.ode.calls", "count"), ("propagator.ode.s", "s"),
    ("propagator.ode.steps", "count"),
    ("propagator.transfer.calls", "count"),
    ("propagator.transfer.self_s", "s"),
    ("propagator.transfer.span", "length"),
    ("propagator.runtime_warnings", "count"),
    ("propagator.init.calls", "count"), ("propagator.init.s", "s"),
    ("weyldisk.halfline.calls", "count"), ("weyldisk.halfline.self_s", "s"),
    ("weyldisk.sweeps", "count"), ("weyldisk.transfers_per_sweep", "1"),
    ("weyldisk.c_final.max", "length"),
    ("fullline.fullline_m.calls", "count"),
    ("fullline.fullline_m.self_s", "s"),
    ("fullline.logm.calls", "count"), ("fullline.logm.s", "s"),
    ("spectral.monodromy.calls", "count"),
    ("spectral.monodromy.self_s", "s"),
    ("spectral.band_spectrum.self_s", "s"),
    ("gauge.factors.s", "s"), ("gauge.ode.calls", "count"),
    ("gauge.ode.s", "s"), ("gauge.reduce.self_s", "s"), ("gauge.drift", "1"),
    ("foundation.eval.calls", "count"), ("foundation.eval.s", "s"),
    ("foundation.load.s", "s"), ("cli.import.s", "s"),
    ("cli.main.s", "s"), ("cli.self_s", "s"), ("cli.rows", "count"),
    ("cli.bytes", "B"), ("cli.failures", "count"),
    ("trace.overhead", "1"), ("target.share", "1"),
)


class BenchError(Exception):
    """The benchmark cannot run here (missing library, failed child)."""


def load_library():
    """Import diracweyl from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "diracweyl", "cli.py")):
        raise BenchError(f"no diracweyl sources under {SRC}")
    sys.path.insert(0, SRC)
    import diracweyl.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"diracweyl imported from {cli.__file__}, not {SRC}")
    return cli


def environment():
    import numpy
    import scipy
    sha = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=30).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "diracweyl")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "DIRACWEYL_THREADS": os.environ.get("DIRACWEYL_THREADS"),
    }


# ---------------------------------------------------------------------------
# one pass = the workload's CLI commands, each into its own output dir
# ---------------------------------------------------------------------------

def run_pass(cli, inst, inputs, outdir):
    cwd = os.getcwd()
    os.chdir(inputs)
    try:
        t0 = time.perf_counter()
        for sub, argv in inst.commands:
            cli.main(argv + ["--out", os.path.join(outdir, sub)])
        elapsed = time.perf_counter() - t0
    finally:
        os.chdir(cwd)
    outputs, failures, rows, nbytes = {}, 0, 0, 0
    for sub, _ in inst.commands:
        d = os.path.join(outdir, sub)
        for name in sorted(os.listdir(d)):
            with open(os.path.join(d, name), "rb") as fh:
                data = fh.read()
            nbytes += len(data)
            if name == "summary.json":
                summary = json.loads(data)
                failures += len(summary.get("failures", []))
                summary.pop("wall_time_s", None)   # the one varying field
                data = json.dumps(summary, sort_keys=True).encode()
            elif name.endswith(".csv"):
                rows += max(data.count(b"\n") - 2, 0)
            outputs[f"{sub}/{name}"] = data
    return elapsed, outputs, failures, rows, nbytes


def measure_setup(clock, inst, inputs):
    """Fresh interpreters importing diracweyl.cli and loading the workload's
    potential files: medians of the rescaled and raw wall times and of the
    child's own import and load times."""
    files = sorted({argv[argv.index("--potential") + 1]
                    for _, argv in inst.commands})
    scaled, walls, imports, loads = [], [], [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD, SRC, *files],
                              cwd=inputs, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        walls.append(time.perf_counter() - t0)
        scaled.append(clock.rescale(walls[-1]))
        if proc.returncode != 0:
            raise BenchError(f"setup child failed: {proc.stderr.strip()}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        imports.append(rec["import_s"])
        loads.append(rec["load_s"])
    return [statistics.median(v) for v in (scaled, walls, imports, loads)]


def tail_percentile(n):
    """Highest of p50/p75/p90/p95/p99 with at least 10 passes beyond it."""
    best = None
    for p in (50, 75, 90, 95, 99):
        if n * (1 - p / 100) >= 10:
            best = p
    return best


def digits(dev):
    if dev == 0:
        return 16.0
    if not math.isfinite(dev):
        return 0.0
    return min(16.0, -math.log10(dev))


class SpeedClock:
    """Rescales pass times to a reference machine speed.

    This machine's speed drifts by +-20% over tens of seconds (other
    tenants share the cores), which moves the median of a run as much as a
    real regression would.  A fixed calibration loop - small complex
    eigendecompositions driven from Python, the same mix of interpreter
    and LAPACK work as the library - is timed before and after every pass
    and every set-up interpreter, and the interval's wall time is scaled by
    CAL_REF_S over the mean of the two.  The loop never calls the library, so a change to the library
    moves the rescaled time as much as the wall time.
    """

    CAL_REF_S = 0.15
    ROUNDS = 75       # ~0.15 s: shorter loops add their own jitter

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(20240817)
        self._np = np
        self._mats = rng.normal(size=(64, 4, 4)) + 1j * rng.normal(size=(64, 4, 4))
        self.calibrate()              # the first loop pays one-time costs
        self.last = self.calibrate()

    def calibrate(self):
        np = self._np
        t0 = time.perf_counter()
        for _ in range(self.ROUNDS):
            for a in self._mats:
                w, v = np.linalg.eig(a)
                complex(((v * np.exp(0.1 * w)) @ np.linalg.inv(v))[0, 0])
        return time.perf_counter() - t0

    def rescale(self, wall):
        cal = self.calibrate()
        scaled = wall * self.CAL_REF_S / (0.5 * (self.last + cal))
        self.last = cal
        return scaled


class Passes:
    """Pass times (raw and rescaled) and outcome counts of one series."""

    def __init__(self):
        self.wall, self.scaled, self.extras = [], [], []
        self.attempted = self.failed = 0
        self.same = True


def run_passes(clock, cli, inst, inputs, outdir, reference, budget,
               min_passes, tracer=None, caught=None):
    """Repeat the workload until ``budget`` seconds have passed and at least
    ``min_passes`` passes ran; compare every pass with ``reference``."""
    ps = Passes()
    start = time.perf_counter()
    while len(ps.wall) < min_passes or time.perf_counter() - start < budget:
        if tracer:
            tracer.begin_pass()
            seen = len(caught)
        elapsed, outputs, fails, rows, nbytes = run_pass(cli, inst, inputs,
                                                         outdir)
        ps.scaled.append(clock.rescale(elapsed))
        if tracer:
            tracer.end_pass(sum(issubclass(c.category, RuntimeWarning)
                                for c in caught[seen:]))
        ps.wall.append(elapsed)
        ps.extras.append({"rows": rows, "bytes": nbytes, "failures": fails})
        ps.attempted += inst.points
        ps.failed += fails
        ps.same = ps.same and outputs == reference
    return ps


def layer_metrics(tracer, w, traced, untraced, setup_import):
    per_pass = []
    for pid, x in enumerate(traced.extras):
        lt = tracer.layer_times(pid)
        c = tracer.counters[pid]

        def get(name, k):
            return lt[name][k] if name in lt else 0

        main_s = get("cli.main", 1)
        sweeps = c.get("weyldisk.sweeps", 0)
        if w.target_mode == "covered":
            target = tracer.covered(pid, set(w.target))
        else:
            target = sum(get(n, 2) for n in w.target)
        row = {}
        for name, _ in PER_LAYER:
            base, _, field = name.rpartition(".")
            if field == "calls":
                row[name] = get(base, 0)
            elif field == "s" and base in lt:
                row[name] = get(base, 1)
            elif field == "self_s" and base in lt:
                row[name] = get(base, 2)
            else:
                row[name] = c.get(name, 0)
        row.update({
            "weyldisk.transfers_per_sweep":
                tracer.under(pid, "propagator.transfer", "weyldisk.halfline")
                / sweeps if sweeps else 0.0,
            "cli.self_s": get("cli.main", 2),
            "cli.rows": x["rows"], "cli.bytes": x["bytes"],
            "cli.failures": x["failures"],
            "target.share": target / main_s if main_s else 0.0,
        })
        per_pass.append(row)
    out = {name: statistics.median([r[name] for r in per_pass])
           for name, _ in PER_LAYER}
    out["cli.import.s"] = setup_import
    out["trace.overhead"] = (statistics.median(traced.scaled)
                             / statistics.median(untraced.scaled) - 1.0)
    return out


def run_workload(name, seed, seconds, trace):
    import tracing
    import workloads

    w = workloads.WORKLOADS[name]
    os.environ.pop("DIRACWEYL_THREADS", None)   # the CLI's own default
    cli = load_library()
    env = environment()

    work = os.path.join(WORK, name)
    shutil.rmtree(work, ignore_errors=True)
    inputs, outdir = os.path.join(work, "inputs"), os.path.join(work, "out")
    inst = w.generate(seed)
    workloads.write_inputs(inst, inputs)

    clock = SpeedClock()
    setup_s, setup_wall, import_s, load_s = measure_setup(clock, inst, inputs)

    # warm-up pass: lazy imports and first-call set-up inside numpy/scipy;
    # its outputs are the reference every later pass must reproduce
    first_s, reference, failures0, _, _ = run_pass(cli, inst, inputs, outdir)
    clock.last = clock.calibrate()
    budget = seconds / 2 if trace else seconds
    passes = run_passes(clock, cli, inst, inputs, outdir, reference, budget,
                        MIN_PASSES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed = passes.attempted, passes.failed

    lines = [f"workload {name} seed {seed}: {w.why}",
             f"env {json.dumps(env, sort_keys=True)}",
             f"first pass {first_s:.4f} s (not in sweep_s)"]
    identical = True
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                traced = run_passes(clock, cli, inst, inputs, outdir,
                                    reference, seconds - budget, 1,
                                    tracer, caught)
        finally:
            tracer.uninstall()
        attempted += traced.attempted
        failed += traced.failed
        identical = traced.same
        per_layer = layer_metrics(tracer, w, traced, passes, import_s)
        tracer.write(os.path.join(work, "spans.csv"))
        lines.append(f"traced passes {len(traced.wall)}, overhead "
                     f"{per_layer['trace.overhead']:+.1%} against the "
                     f"untraced median")
        lines.append(f"target layers {'+'.join(w.target)} "
                     f"({w.target_mode} time): "
                     f"{per_layer['target.share']:.1%} of cli.main")

    dev, detail = w.check(inst, reference)
    correct = (dev <= w.tolerance and passes.same and identical
               and failures0 == 0)
    lines.append(f"oracle: worst relative deviation {dev:.3e} over {detail} "
                 f"(tolerance {w.tolerance:.0e}) -> "
                 f"{'ok' if dev <= w.tolerance else 'FAIL'}")
    lines.append(f"determinism: untraced passes byte-identical: "
                 f"{passes.same}; traced == untraced: {identical}")
    n = len(passes.scaled)
    p = tail_percentile(n)
    tail = (f"p{p} {statistics.quantiles(passes.scaled, n=100)[p - 1]:.4f} s"
            if p else "no percentile has 10 passes beyond it")
    lines.append(f"passes {n}: median {statistics.median(passes.scaled):.4f} s"
                 f" at reference speed ({statistics.median(passes.wall):.4f} s"
                 f" wall), min {min(passes.scaled):.4f}, max "
                 f"{max(passes.scaled):.4f}; {tail}")
    lines.append(f"setup: median of {SETUP_REPEATS} fresh interpreters "
                 f"{setup_s:.4f} s at reference speed ({setup_wall:.4f} s "
                 f"wall; import {import_s:.4f} s, load {load_s:.4f} s)")

    if trace:
        metrics = {n: {"value": per_layer[n], "unit": u} for n, u in PER_LAYER}
    else:
        values = {"sweep_s": statistics.median(passes.scaled),
                  "setup_s": setup_s, "oracle_digits": digits(dev),
                  "ok_frac": 1.0 - failed / attempted,
                  "peak_rss_mb": peak_rss_mb}
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    for n, m in metrics.items():
        lines.append(f"  {n} = {m['value']:.6g} {m['unit']}")
    result = {"correct": bool(correct), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(os.path.join(work, "report.json"), "w") as fh:
        json.dump({"env": env, "workload": name, "seed": seed,
                   "pass_wall_s": passes.wall, "pass_scaled_s": passes.scaled,
                   "first_pass_s": first_s, "oracle_deviation": dev,
                   "result": result}, fh, indent=1)
    return lines, result


def run_all(args):
    """Every workload in its own process (so peak_rss_mb is per workload)."""
    import workloads
    ok = True
    table = []
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60)
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]))
        try:
            res = json.loads(out[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit {proc.returncode})\n"
                  f"{proc.stderr[-2000:]}", file=sys.stderr)
            ok = False
            continue
        ok = ok and res["correct"] and proc.returncode == 0
        table.append((name, res))
    print()
    for name, res in table:
        cells = ", ".join(f"{k} {v['value']:.6g} {v['unit']}"
                          for k, v in res["metrics"].items())
        print(f"{name:18s} correct={res['correct']} {cells}")
    return 0 if ok else 1


def main():
    import workloads
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.all:
        return run_all(args)
    if not args.workload:
        ap.error("give --workload NAME or --all")
    lines, result = run_workload(args.workload, args.seed, args.seconds,
                                 args.trace)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
