"""Tests for the vectorized-vs-looped benchmark harness."""
import json
import pathlib
import time

import pytest

from sccalc import FaultStudyOptions, bench, calc_sc, generate_radial_grid, run_benchmark
from sccalc.bench import EquivalenceGateError, _check_equivalence
from sccalc.cli import main


def test_empty_sizes_give_empty_report():
    report = run_benchmark([])
    assert report.cases == ()
    assert "buses" in str(report)


def test_small_benchmark_reports_speedup():
    report = run_benchmark([102], seed=1)
    assert len(report.cases) == 1
    case = report.cases[0]
    assert case.n_buses == 102
    assert case.t_vectorized_s > 0.0
    assert case.t_looped_s > 0.0
    assert case.speedup > 1.0
    assert case.max_rel_diff <= 1e-10
    assert "x" in str(report)


def test_equivalence_gate_rejects_doctored_results():
    net = generate_radial_grid(1, 3, seed=0)
    vectorized = calc_sc(net)
    looped = [calc_sc(net, FaultStudyOptions(fault_buses=(b.id,))) for b in net.buses]
    assert _check_equivalence(vectorized, looped, 1e-10) <= 1e-10
    looped[2].ikss_ka[0] *= 1.0 + 1e-6
    with pytest.raises(EquivalenceGateError):
        _check_equivalence(vectorized, looped, 1e-10)


def test_gate_tolerance_is_applied():
    net = generate_radial_grid(1, 3, seed=0)
    vectorized = calc_sc(net)
    looped = [calc_sc(net, FaultStudyOptions(fault_buses=(b.id,))) for b in net.buses]
    looped[0].ikss_ka[0] *= 1.0 + 1e-6
    # generous tolerance lets the doctored value through
    assert _check_equivalence(vectorized, looped, 1e-3) >= 1e-7


def test_gate_accepts_matching_degenerate_markers():
    from sccalc.model import Bus, ExternalGrid, Network

    net = Network(buses=[Bus(1, 110.0)])
    for _ in range(5):
        net.external_grids.append(ExternalGrid(bus=1, s_sc_max_mva=5.5e11))
    vectorized = calc_sc(net)
    looped = [calc_sc(net, FaultStudyOptions(fault_buses=(1,)))]
    assert _check_equivalence(vectorized, looped, 1e-10) == 0.0


def test_each_size_runs_one_untimed_study_before_the_timed_ones(monkeypatch):
    events = []

    def counting(net, options):
        events.append(options.fault_buses)
        return calc_sc(net, options)

    clock = time.perf_counter

    def timing():
        events.append("clock")
        return clock()

    monkeypatch.setattr(bench, "calc_sc", counting)
    monkeypatch.setattr(time, "perf_counter", timing)
    report = run_benchmark([2, 2])
    n = report.cases[0].n_buses
    # per size: the untimed study before any clock is read, then the
    # timed all-bus studies among the other stages, the traced one, and
    # the single-bus studies of the looped reference
    studies = ["all"] * (1 + bench.REPEATS + 1) + [(bus_id,) for bus_id in range(1, n + 1)]
    assert [e for e in events if e != "clock"] == studies + studies
    # no clock is read in a size before its first study: the first size
    # starts with it, the second right after the clock that stops the loop
    # of the first
    end = events.index((n,))
    assert events[0] == "all"
    assert events[end + 1 : end + 3] == ["clock", "all"]


def test_loop_max_skips_the_looped_reference_above_it():
    report = run_benchmark([3, 30], loop_max=10)
    small, large = report.cases
    assert small.t_looped_s is not None and small.max_rel_diff <= 1e-10 and small.speedup > 0.0
    assert large.t_looped_s is None and large.max_rel_diff is None and large.speedup is None
    assert "-" in str(report).splitlines()[2]


def test_bench_json_schema(tmp_path):
    path = tmp_path / "bench.json"
    assert main(["bench", "--sizes", "3,5", "--loop-max", "3", "--json", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert {"python", "numpy", "scipy", "platform", "git_sha"} <= set(doc)
    assert all(isinstance(doc[key], str) and doc[key] for key in ("python", "numpy", "scipy", "platform", "git_sha"))
    assert doc["loop_max"] == 3 and doc["repeats"] == bench.REPEATS
    assert len(doc["sizes"]) == 2
    for size in doc["sizes"]:
        for key in ("buses", "nodes", "n_aux", "nnz_y", "nnz_lu", "peak_traced_bytes"):
            assert isinstance(size[key], int) and size[key] >= 0, key
        assert 0 < size["nodes"] - size["n_aux"] <= size["buses"]
        assert size["nnz_lu"] >= size["nnz_y"] > 0
        assert list(size["stages_s"]) == [
            "validate", "fuse_switches", "build_bbm", "factorize", "impedance_matrix_diag",
            "converter_contribution", "calc_sc",
        ]
        for stage in size["stages_s"].values():
            assert 0.0 < stage["min"] <= stage["median"]
        # 6 buses is above --loop-max 3
        assert size["looped_s"] is None and size["speedup"] is None and size["max_rel_diff"] is None


ROOT = pathlib.Path(__file__).resolve().parent.parent

STAGE_TABLE_HEAD = (
    "| buses | nnz(Y) | nnz(L+U) | `validate` | `fuse_switches` | `build_bbm` | `factorize` | Z_ii | converter "
    "| `calc_sc` | peak traced | looped, speedup |\n"
    "|------:|-------:|---------:|-----:|-----:|-----:|-----:|-----:|-----:|-----:|-----:|-----:|"
)


def stage_table(doc: dict) -> str:
    """The README's table of stage times for a ``sccalc bench --json``
    document: the minimum of each stage, the median of ``calc_sc`` next to
    it, the traced peak and the looped reference where it ran."""

    def ms(seconds: float) -> str:
        return f"{seconds * 1e3:.3g} ms"

    rows = [STAGE_TABLE_HEAD]
    for size in doc["sizes"]:
        stages = size["stages_s"]
        study = stages.pop("calc_sc")
        looped = "–" if size["looped_s"] is None else f"{size['looped_s']:.2f} s, {size['speedup']:.0f}×"
        cells = [
            size["buses"], size["nnz_y"], size["nnz_lu"], *[ms(stage["min"]) for stage in stages.values()],
            f"{ms(study['min'])} ({ms(study['median'])})", f"{size['peak_traced_bytes'] / 1e6:.2f} MB", looped,
        ]
        rows.append("| " + " | ".join(map(str, cells)) + " |")
    return "\n".join(rows)


def test_the_readme_stage_table_is_the_one_of_the_committed_bench_file():
    doc = json.loads((ROOT / "BENCH_18.json").read_text(encoding="utf-8"))
    assert len(doc["sizes"]) == 4
    assert stage_table(doc) in (ROOT / "README.md").read_text(encoding="utf-8")
