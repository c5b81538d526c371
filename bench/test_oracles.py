"""Tests of the benchmark's oracles, inputs and tracer.

Each oracle is confirmed against the library on one easy point; the bump
oracle is also confirmed against the stored Volterra-route reference.

    PYTHONPATH=src python3 -m pytest -q bench/test_oracles.py
"""

import ast
import json
import os

import numpy as np
import pytest

import oracles
import run
import tracing
import workloads
from diracweyl import (
    alpha_dirichlet,
    band_spectrum,
    halfline_m,
    monodromy,
    normal_form,
    potential_from_dict,
    upsilon,
)

BENCH = os.path.dirname(os.path.abspath(__file__))


def _spec(inst, name):
    return potential_from_dict(inst.files[name])


def test_oracles_import_only_numpy():
    tree = ast.parse(open(os.path.join(BENCH, "oracles.py")).read())
    names = {a.name.split(".")[0] for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for a in node.names}
    names |= {node.module.split(".")[0] for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom)}
    assert names <= {"math", "numpy"}


def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_checked_in_inputs_are_the_seed_0_generator_output(name, tmp_path):
    workloads.write_inputs(workloads.WORKLOADS[name].generate(0), tmp_path)
    for fname in os.listdir(tmp_path):
        with open(os.path.join(BENCH, "inputs", name, fname), "rb") as fh:
            assert fh.read() == (tmp_path / fname).read_bytes()


def test_generators_are_seeded():
    a = workloads.gen_gauge_sampled(3).files
    assert a == workloads.gen_gauge_sampled(3).files
    assert a != workloads.gen_gauge_sampled(4).files


def test_bump_oracle_against_library_and_volterra():
    inst = workloads.gen_halfline_bump(0)
    p = inst.params
    got, err = oracles.bump_mplus(p["zs"], p["xs"], p["vals"], p["tail"],
                                  p["tail_lo"], p["tail_hi"], with_error=True)
    assert np.max(err / np.abs(got)) < 1e-12
    assert p["zs"][2] == 4j
    h = halfline_m(4j, 0.0, alpha_dirichlet(1), _spec(inst, "bump.json"))
    assert abs(h.M[0, 0] - got[2]) / abs(got[2]) < 1e-7
    with open(os.path.join(BENCH, "inputs", "halfline-bump",
                           "volterra_reference.json")) as fh:
        ref = json.load(fh)["rows"]
    want = np.array([complex(*r["M"]) for r in ref])
    assert np.allclose([complex(*r["z"]) for r in ref], p["zs"], rtol=0, atol=0)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-8


def test_const_q_oracle_against_library():
    inst = workloads.gen_density_periodic(0)
    q = inst.params["q"]
    z = 0.5 + 1j
    mp, mm = oracles.mpm_const_q(np.array([z]), q)
    spec = _spec(inst, "q1.json")
    alpha = alpha_dirichlet(1)
    assert abs(halfline_m(z, 0.0, alpha, spec).M[0, 0] - mp[0]) < 1e-9
    assert abs(halfline_m(z, 0.0, alpha, spec, sign=-1).M[0, 0] - mm[0]) < 1e-9
    want = oracles.upsilon_const_q(np.array([2.0]), 1e-6, q)[0]
    got = upsilon(2.0, 0.0, alpha, spec, 1e-6).value
    assert np.max(np.abs(got - want)) < 1e-8


def test_floquet_oracle_against_library():
    inst = workloads.gen_density_periodic(0)
    kp = inst.params["kp"]
    spec = _spec(inst, "kp2.json")
    alpha = alpha_dirichlet(2)
    z = 1.0 + 1j
    mp, mm = oracles.floquet_mpm(np.array([z]), kp)
    assert np.max(np.abs(halfline_m(z, 0.0, alpha, spec).M - mp[0])) < 1e-9
    assert np.max(np.abs(halfline_m(z, 0.0, alpha, spec, sign=-1).M
                         - mm[0])) < 1e-9
    want = oracles.upsilon_floquet(np.array([-2.0]), 1e-3, kp)[0]   # band
    got = upsilon(-2.0, 0.0, alpha, spec, 1e-3).value
    assert np.max(np.abs(got - want)) < 1e-8


def test_multiplier_oracle_against_library():
    inst = workloads.gen_bands_kp2(0)
    kp = inst.params["kp"]
    spec = _spec(inst, "kp2.json")
    lams = np.array([-2.0, 0.0])                   # in band, in gap
    want = oracles.floquet_multipliers(lams, kp)
    got = np.array([monodromy(lam, spec).multipliers for lam in lams])
    assert oracles.multiplier_rel_dev(got, want) < 1e-12
    flags, decided = oracles.in_band_flags(want, tol=1e-6, period=1.0)
    assert decided.all()
    assert list(flags) == list(band_spectrum(spec, lams).in_band) == [True, False]


def test_char_poly_comparison_is_order_free():
    roots = np.array([[1.0, 2.0j, -0.5, 3.0]])
    assert oracles.multiplier_rel_dev(roots[:, ::-1], roots) < 1e-15
    assert oracles.multiplier_rel_dev(roots + 1e-6, roots) > 1e-7


def test_gauge_oracle_against_library():
    inst = workloads.gen_gauge_sampled(0)
    p = inst.params
    out = normal_form(_spec(inst, "gauge.json"), 0.0, 1.0)   # 201 nodes
    piece = out.pieces[0]
    b11, b12 = oracles.gauge_reduction(p["xs"], p["vals"], piece.xs)
    assert np.max(np.abs(piece.values[:, :2, :2] - b11)) < 1e-8
    assert np.max(np.abs(piece.values[:, :2, 2:] - b12)) < 1e-8


def test_tracer_records_nested_spans_and_restores_the_library():
    import diracweyl.fullline as fl
    import diracweyl.propagator as pr
    originals = (fl.halfline_m, pr.Propagator.transfer)
    inst = workloads.gen_density_periodic(0)
    spec = _spec(inst, "q1.json")
    tr = tracing.Tracer()
    tr.install()
    try:
        tr.begin_pass()
        fl.fullline_m(1j, 0.0, alpha_dirichlet(1), spec)
        tr.end_pass(0)
    finally:
        tr.uninstall()
    assert (fl.halfline_m, pr.Propagator.transfer) == originals
    times = tr.layer_times(0)
    assert times["weyldisk.halfline"][0] == 2
    assert tr.under(0, "propagator.transfer", "weyldisk.halfline") \
        == times["propagator.transfer"][0] > 0
    assert tr.counters[0]["weyldisk.sweeps"] > 0
    calls, incl, self_s = times["weyldisk.halfline"]
    assert 0 < self_s < incl
