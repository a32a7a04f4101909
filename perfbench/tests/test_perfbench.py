"""Tests of the benchmark itself: output contract, correctness check, spans.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)


def _run(workload: str, trace: int, cwd: str = ROOT, timeout: float = 120) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", str(trace), "--scale", "0.02"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)


@pytest.fixture(scope="module")
def tiny_runs():
    """Last stdout line of a tiny run per (workload, trace)."""
    out = {}
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            proc = _run(w["name"], trace)
            assert proc.returncode == 0, proc.stderr
            out[w["name"], trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_printed_metrics_match_benchmark_json(tiny_runs):
    for (name, trace), last in tiny_runs.items():
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert {k: v["unit"] for k, v in last["metrics"].items()} == {m["name"]: m["unit"] for m in declared}, name
        assert all(isinstance(v["value"], float) for v in last["metrics"].values())


def test_tiny_smoke_run_has_no_failed_study(tiny_runs):
    for key, last in tiny_runs.items():
        assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1, key
        if key[1] == 0:
            assert all(v["value"] > 0 for v in last["metrics"].values()), key


def _small_item(tmp_path, seed: int = 5) -> workloads.Item:
    net = workloads.grids.meshed_grid(seed, substations=3, feeders=6, feeder_buses=6)
    path = str(tmp_path / "grid.json")
    workloads.gridfile.save_network(net, path)
    return workloads.Item(net, path, len(net.buses))


@pytest.mark.parametrize("column", workloads.COLUMNS)
def test_doctored_result_counts_as_failed(tmp_path, column):
    workload = workloads.WORKLOADS["meshed_3w"]
    item = _small_item(tmp_path)
    [expected] = workloads.reference(workload, [item])
    outcome = workloads.run_study(workload, item)
    assert workloads.check(outcome, expected) is None

    result = outcome["min"][0]
    values = getattr(result, column)
    i = int(np.argmax(values))
    values[i] *= 1.0 + 1e-6
    assert workloads.check(outcome, expected) is not None


def test_changed_energized_flag_counts_as_failed(tmp_path):
    workload = workloads.WORKLOADS["meshed_3w"]
    item = _small_item(tmp_path)
    [expected] = workloads.reference(workload, [item])
    outcome = workloads.run_study(workload, item)
    outcome["min"][0].energized[0] = not outcome["min"][0].energized[0]
    assert "energized" in workloads.check(outcome, expected)


def _size_attrs(workload, item) -> dict:
    sizes = [workloads.sizes(item, case) for case in workload.cases]
    return {"nnz_y": np.mean([s.nnz_y for s in sizes]), "nnz_lu": np.mean([s.nnz_lu for s in sizes])}


def _descends_from(spans, i: int, ancestor: int) -> bool:
    while i >= 0:
        if i == ancestor:
            return True
        i = spans[i][3]
    return False


@pytest.mark.parametrize("name", ["meshed_3w", "batch_files"])
def test_child_spans_nest_inside_their_calc_sc_span(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    item = _small_item(tmp_path)
    tracer = tracing.Tracer()
    import sccalc.solver

    original = sccalc.solver.calc_sc
    attrs = _size_attrs(workload, item)
    with tracer:
        assert sccalc.solver.calc_sc is not original
        with tracer.study(0, attrs):
            workloads.run_study(workload, item)
    assert sccalc.solver.calc_sc is original

    spans = tracer.spans
    calc = [i for i, s in enumerate(spans) if s[0] == "solver.calc_sc"]
    assert len(calc) == len(workload.cases)
    inside = set()
    for c in calc:
        for i, (_, start, end, _, study, _) in enumerate(spans):
            if i != c and _descends_from(spans, i, c):
                inside.add(spans[i][0])
                assert spans[c][1] <= start <= end <= spans[c][2]
                assert study == 0
    assert {"builder.build_bbm", "model.validate", "builder.fuse_switches",
            "solver.impedance_matrix_diag", "solver.converter_contribution"} <= inside
    assert any(name.startswith(("numpy.", "scipy.")) for name in inside)

    values, absent = tracing.layer_metrics(tracer, [0])
    assert not absent
    assert values["solver.factorizations"] >= len(workload.cases)
    assert values["builder.n_aux"] > 0
    assert values["builder.nnz_y"] == attrs["nnz_y"] and values["solver.nnz_lu"] == attrs["nnz_lu"]


def test_missing_function_is_reported_absent(tmp_path, monkeypatch):
    monkeypatch.setitem(tracing.LAYER_FUNCTIONS, "solver.impedance_matrix_diag", ("sccalc.solver", "no_such_function"))
    workload = workloads.WORKLOADS["meshed_3w"]
    item = _small_item(tmp_path)
    tracer = tracing.Tracer()
    with tracer, tracer.study(0, _size_attrs(workload, item)):
        workloads.run_study(workload, item)
    values, absent = tracing.layer_metrics(tracer, [0])
    assert absent == {"solver.impedance_matrix_diag_s"}
    assert values["solver.impedance_matrix_diag_s"] == 0.0


def test_fails_without_the_repository(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("radial_dg", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
