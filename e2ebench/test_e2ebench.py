"""Tests of the end-to-end benchmark itself.

Run from the repository root with ``python3 -m pytest e2ebench -q``.  The
smoke tests run every workload at small sizes through the same harness the
benchmark command uses.
"""

import json
import math
import os
import re

import pytest

import bench_trace
import run
from bench_workloads import (
    WORKLOADS,
    GridsPool,
    GridsReplay,
    PassiveZoo,
    Table1Loewner,
    Table1VF,
)
from repro.circuits.pdn import PdnConfiguration

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

SMALL_PDN = {"pdn": PdnConfiguration(n_ports=4, grid_rows=3, grid_cols=3, n_decaps=3,
                                     n_bulk_caps=1),
             "n_samples": 40, "n_validation": 60}
SMALL_GRIDS = {
    "mixed": {"pdn_samples": 40, "pdn_validation": 40, "line_sections": 10,
              "line_samples": 30, "line_validation": 40},
    "monte_carlo": {"n_draws": 2, "grid_rows": 4, "grid_cols": 4, "pdn_samples": 40,
                    "pdn_validation": 40},
    "port_sweep": {"port_counts": (2,)},
    "time_domain": {"system_orders": (12,)},
}
SMALL = {
    "table1_loewner": Table1Loewner(**SMALL_PDN),
    "table1_vf": Table1VF(poles=12, iterations=3, **SMALL_PDN),
    "passive_zoo": PassiveZoo(noise_levels=(1e-6,), band_factors=(1.5,)),
    "grids_pool": GridsPool(**SMALL_GRIDS),
    "grids_replay": GridsReplay(**SMALL_GRIDS),
}


#: Per-layer metrics each workload exists to exercise.
EXERCISED = {
    "table1_loewner": ("core.fit_s", "core.fits", "core.realize_svd_flops", "data.sample_s"),
    "table1_vf": ("vectorfitting.vf_s", "vectorfitting.vf_iterations",
                  "vectorfitting.sort_poles_calls"),
    "passive_zoo": ("vectorfitting.enforce_s", "vectorfitting.passivity_check_s",
                    "systems.eval_points"),
    "grids_pool": ("batch.pack_s", "batch.chunk_bytes", "cache.store_put_s",
                   "metrics.timedomain_s", "trace.worker_spans"),
    "grids_replay": ("cache.store_get_s", "cache.fit_hits", "cache.eval_hits"),
}


def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_names_match_benchmark_json_and_charset():
    doc = benchmark_json()
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS) == list(SMALL)
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]}
            == bench_trace.LAYER_METRICS)
    metrics = doc["end_to_end"] + doc["per_layer"]
    names = [w["name"] for w in doc["workloads"]] + [m["name"] for m in metrics]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def _structure(inputs):
    """Everything about a workload's inputs except the sample values."""
    if isinstance(inputs, tuple):  # table1_vf: ({test: data}, validation)
        tests, validation = inputs
        datasets = [*tests.values(), validation]
        return [(d.label, d.frequencies_hz.tobytes()) for d in datasets]
    # tags record the noise seed itself, which is the point of the change
    return [(job.label, job.method, repr(job.options),
             {k: v for k, v in job.tags.items() if k != "seed"},
             job.data.frequencies_hz.tobytes(),
             None if job.reference is None else job.reference.frequencies_hz.tobytes())
            for job in inputs]


@pytest.mark.parametrize("name", list(SMALL))
def test_seed_changes_dataset_fingerprints_and_nothing_else(name):
    workload = SMALL[name]
    first, second = workload.build(1), workload.build(2)
    assert _structure(first) == _structure(second)
    assert workload.fingerprints(workload.build(1)) == workload.fingerprints(first)
    if name == "passive_zoo":  # runs its grid's default seed by design
        assert workload.fingerprints(first) == workload.fingerprints(second)
    else:
        assert workload.fingerprints(first) != workload.fingerprints(second)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(SMALL))
def test_small_run_of_each_workload_completes(name, trace, tmp_path):
    detail, result = run.measure(SMALL[name], seed=3, seconds=0.01, trace=trace,
                                 workdir=str(tmp_path), repeats=2)
    # the Table-1 ordering is a claim about the paper's 14-port PDN, not
    # about the small smoke-size network; every other check must pass
    failures = [f for f in detail["failures"]
                if not (name == "table1_loewner" and re.match(r"check test\d: MFTI-", f))]
    assert not failures
    assert result["failed"] == len(detail["failures"]) and result["attempted"] >= 1
    expected = bench_trace.LAYER_METRICS if trace else run.END_TO_END
    assert list(result["metrics"]) == list(expected)
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert detail["env"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    if trace:
        # the traced passes ran next to untraced ones and matched them
        assert len(detail["passes"]) >= 2
        assert detail["trace"]["parent_only"] is False
        values = {key: m["value"] for key, m in result["metrics"].items()}
        assert all(values[key] > 0 for key in EXERCISED[name])
    else:
        assert result["metrics"]["wall_s"]["value"] > 0
        assert result["metrics"]["model_order_sum"]["value"] > 0


def test_traced_outputs_equal_untraced_outputs(tmp_path):
    workload = SMALL["table1_loewner"]
    jobs = workload.build(5)
    untraced = workload.run_pass(jobs, str(tmp_path), 0)
    tracer = bench_trace.Tracer(str(tmp_path / "spool"))
    tracer.install()
    tracer.mark("pass")
    try:
        traced = workload.run_pass(jobs, str(tmp_path), 1)
    finally:
        tracer.uninstall()
    assert traced.digest == untraced.digest
    assert {span["layer"] for span in tracer.spans} >= {"core", "systems", "metrics", "batch"}
    # uninstall restored every original
    spans = len(tracer.spans)
    after = workload.run_pass(jobs, str(tmp_path), 2)
    assert after.digest == untraced.digest
    assert len(tracer.spans) == spans


def test_self_times_subtract_same_process_children_only():
    spans = [
        {"id": "1:1", "parent": None, "pid": 1, "start": 0.0, "end": 10.0},
        {"id": "1:2", "parent": "1:1", "pid": 1, "start": 1.0, "end": 4.0},
        {"id": "2:1", "parent": "1:1", "pid": 2, "start": 2.0, "end": 9.0},
    ]
    assert bench_trace.self_times(spans) == {"1:1": 7.0, "1:2": 3.0, "2:1": 7.0}


def test_svd_flops_counts_complex_as_four_real():
    assert bench_trace.svd_flops(200, 100, False) == 14 * 200 * 100**2 + 8 * 100**3
    assert bench_trace.svd_flops(100, 200, True) == 4 * bench_trace.svd_flops(200, 100, False)
