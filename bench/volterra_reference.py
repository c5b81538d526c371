#!/usr/bin/env python3
"""Write the Volterra-route reference for the checked-in halfline-bump
inputs (seed 0): bench/inputs/halfline-bump/volterra_reference.json.

The Volterra route (successive approximation of the integral equation for
the decaying solution, in diracweyl.propagator) shares no code with the
transfer-matrix sweep that `mfunc` runs.  It is evaluated at its default
node density and at twice that, and the two are Richardson extrapolated
(the product quadrature is second order).  It is too slow to run inside a
timed benchmark run, so run.py checks every seed against the Magnus oracle
in oracles.py, and test_oracles.py checks that oracle against this file.

    python3 bench/volterra_reference.py      # about a minute
"""

import json
import os
import sys
import time

import numpy as np

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from diracweyl import __version__, load_potential  # noqa: E402
from diracweyl.propagator import weyl_solution_volterra  # noqa: E402

import workloads  # noqa: E402

PATH = os.path.join(BENCH, "inputs", "halfline-bump", "volterra_reference.json")


def main():
    inst = workloads.gen_halfline_bump(0)
    spec = load_potential(os.path.join(BENCH, "inputs", "halfline-bump",
                                       "bump.json"))
    rows = []
    t0 = time.perf_counter()
    for z in inst.params["zs"]:
        density = max(4000.0, 800.0 * (1.0 + abs(z)))
        vals = [weyl_solution_volterra(z, 0.0, 0.0, spec, tol=1e-14,
                                       points_per_unit=d).weyl_m()[0, 0]
                for d in (density, 2.0 * density)]
        best = (4.0 * vals[1] - vals[0]) / 3.0
        rows.append({"z": [z.real, z.imag], "M": [best.real, best.imag],
                     "richardson_correction": abs(best - vals[1])})
    doc = {
        "provenance": {
            "inputs": "bench/inputs/halfline-bump/bump.json (seed 0)",
            "method": "diracweyl.propagator.weyl_solution_volterra, "
                      "tol 1e-14, node densities d and 2d with "
                      "d = max(4000, 800 (1 + |z|)) per unit length, "
                      "Richardson (4 M(2d) - M(d)) / 3",
            "diracweyl": __version__,
            "numpy": np.__version__,
            "seconds": round(time.perf_counter() - t0, 1),
        },
        "rows": rows,
    }
    with open(PATH, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
