"""Tests for the vectorized-vs-looped benchmark harness."""
import json
import pathlib
import sys
import time

import pytest

from sccalc import FaultStudyOptions, bench, calc_sc, generate_radial_grid, run_benchmark, solver
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
    assert case["buses"] == 102
    assert case["stages_s"]["calc_sc"]["min"] > 0.0
    assert case["looped_s"] > 0.0
    assert case["speedup"] > 1.0
    assert case["max_rel_diff"] <= 1e-10
    assert "x" in str(report)


def test_equivalence_gate_rejects_doctored_results():
    net = generate_radial_grid(1, 3, seed=0)
    vectorized = calc_sc(net)
    looped = [calc_sc(net, FaultStudyOptions(fault_buses=(b.id,))) for b in net.buses]
    assert _check_equivalence(vectorized, 1e-10, looped=looped) <= 1e-10
    looped[2].ikss_ka[0] *= 1.0 + 1e-6
    with pytest.raises(EquivalenceGateError, match=" vs looped "):
        _check_equivalence(vectorized, 1e-10, looped=looped)


def test_gate_tolerance_is_applied():
    net = generate_radial_grid(1, 3, seed=0)
    vectorized = calc_sc(net)
    looped = [calc_sc(net, FaultStudyOptions(fault_buses=(b.id,))) for b in net.buses]
    looped[0].ikss_ka[0] *= 1.0 + 1e-6
    # generous tolerance lets the doctored value through
    assert _check_equivalence(vectorized, 1e-3, looped=looped) >= 1e-7


def test_gate_accepts_matching_degenerate_markers():
    from sccalc.model import Bus, ExternalGrid, Network

    net = Network(buses=[Bus(1, 110.0)])
    for _ in range(5):
        net.external_grids.append(ExternalGrid(bus=1, s_sc_max_mva=5.5e11))
    vectorized = calc_sc(net)
    looped = [calc_sc(net, FaultStudyOptions(fault_buses=(1,)))]
    assert _check_equivalence(vectorized, 1e-10, looped=looped) == 0.0


def test_each_size_runs_one_untimed_study_before_the_timed_ones(monkeypatch):
    events = []

    def counting(net, options):
        # the other case, on a prepared topology, is counted apart
        events.append(options.fault_buses if options.case == "max" else "second")
        return calc_sc(net, options)

    clock = time.perf_counter

    def timing():
        events.append("clock")
        return clock()

    monkeypatch.setattr(bench, "calc_sc", counting)
    monkeypatch.setattr(time, "perf_counter", timing)
    report = run_benchmark([2, 2])
    n = report.cases[0]["buses"]
    # per size: the untimed study before any clock is read, then the
    # timed all-bus studies among the other stages, the traced one, and
    # the single-bus studies of the looped reference
    studies = ["all"] * (1 + bench.REPEATS + 1) + [(bus_id,) for bus_id in range(1, n + 1)]
    assert [e for e in events if e not in ("clock", "second")] == studies + studies
    assert events.count("second") == 2 * (bench.REPEATS + 1)
    # no clock is read in a size before its first study: the first size
    # starts with it, the second right after the clock that stops the loop
    # of the first
    end = events.index((n,))
    assert events[0] == "all"
    assert events[end + 1 : end + 3] == ["clock", "all"]


def test_the_file_legs_take_turns_with_the_stages(monkeypatch):
    events = []
    real_study, real_save = bench.calc_sc, bench.save_network

    def study(net, options):
        if options.case == "max":
            events.append(options.fault_buses)
        return real_study(net, options)

    def save(net, path):
        events.append("save")
        return real_save(net, path)

    monkeypatch.setattr(bench, "calc_sc", study)
    monkeypatch.setattr(bench, "save_network", save)
    run_benchmark([3], loop_max=0)
    # the untimed study, then one call of each per timed round and one
    # traced call of each, then the sampled single-bus studies
    rounds = 1 + bench.REPEATS + 1
    assert events[: 2 * rounds - 1] == ["all"] + ["all", "save"] * (rounds - 1)
    assert all(isinstance(event, tuple) for event in events[2 * rounds - 1 :])


class LoggingFactor:
    """A SuperLU factor that logs the build of its L and U, at the first
    read of either."""

    def __init__(self, lu, events):
        self._lu, self._events, self._built = lu, events, False

    def __getattr__(self, name):
        if name in ("L", "U") and not self._built:
            self._events.append("L and U")
            self._built = True
        return getattr(self._lu, name)


def test_each_timed_z_ii_call_builds_l_and_u_on_a_factor_of_its_own(monkeypatch):
    # SuperLU builds L and U at the first Z_ii on a factor and keeps them;
    # every study builds them, so every timed call must, on a factor made
    # before its clock starts
    events = []
    real_factorize, real_diag, clock = bench.factorize, bench.impedance_matrix_diag, time.perf_counter

    def factorize(y):
        events.append("factorize")
        return LoggingFactor(real_factorize(y), events)

    def diag(lu, rows=None):
        events.append("Z_ii")
        return real_diag(lu, rows=rows)

    def timing():
        events.append("clock")
        return clock()

    monkeypatch.setattr(bench, "factorize", factorize)
    monkeypatch.setattr(bench, "impedance_matrix_diag", diag)
    monkeypatch.setattr(time, "perf_counter", timing)
    # 102 x 102 unit right-hand sides are above the bound, so Z_ii reads L
    run_benchmark([102], loop_max=0)
    clocks = [i for i, event in enumerate(events) if event == "clock"]
    timed = [events[start + 1 : stop] for start, stop in zip(clocks[::2], clocks[1::2])]
    assert [window for window in timed if "Z_ii" in window] == [["Z_ii", "L and U"]] * bench.REPEATS
    # the traced calls follow the last clock: the factorize stage, then the
    # factor made for Z_ii before its call
    assert events[clocks[-1] + 1 :] == ["factorize", "factorize", "Z_ii", "L and U"]


def test_loop_max_skips_the_looped_reference_above_it():
    report = run_benchmark([3, 30], loop_max=10)
    small, large = report.cases
    assert small["looped_s"] is not None and small["max_rel_diff"] <= 1e-10 and small["speedup"] > 0.0
    assert small["checked_buses"] == small["buses"]
    # the larger size checks a sample of its buses and times no loop
    assert large["looped_s"] is None and large["speedup"] is None and large["max_rel_diff"] <= 1e-10
    assert large["checked_buses"] == bench.SAMPLED_BUSES < large["buses"]
    assert "-" in str(report).splitlines()[2]


def test_the_sampled_check_gates_its_studies(monkeypatch):
    # a doctored single-bus study among the sampled ones fails the gate
    def doctored(net, options):
        result = calc_sc(net, options)
        if options.fault_buses != "all":
            result.ikss_ka[0] *= 1.0 + 1e-6
        return result

    monkeypatch.setattr(bench, "calc_sc", doctored)
    with pytest.raises(EquivalenceGateError, match=" vs looped "):
        run_benchmark([30], loop_max=10)


def test_the_sampled_check_reaches_the_selected_inversion(monkeypatch):
    # above 4096 nodes a single-bus study takes the selected inversion too,
    # so only the reference of a factor of its own sees Z_ii scaled by
    # 1 + 1e-8
    real = solver._selected_inverse_diag
    monkeypatch.setattr(solver, "_selected_inverse_diag", lambda lu: real(lu) * (1.0 + 1e-8))
    with pytest.raises(EquivalenceGateError, match=" vs factored "):
        run_benchmark([4202], loop_max=10)


def test_the_factored_reference_agrees_beyond_the_selected_inversion():
    net = generate_radial_grid(4, 1100, dg_every=5, seed=3)
    ids = [net.buses[i].id for i in (0, 7, 2500, 4400)]
    vectorized = calc_sc(net)
    reference = bench._factored_reference(net, FaultStudyOptions(), ids)
    assert reference.bus_ids.tolist() == sorted(ids)
    assert 0.0 < _check_equivalence(vectorized, bench.EQUIVALENCE_TOL, factored=[reference]) <= 1e-10


@pytest.mark.parametrize("case", ["max", "min"])
def test_the_factored_reference_agrees_on_dead_and_degenerate_buses(case):
    from sccalc.model import Bus, ConverterSource, ExternalGrid, Line, Network

    # bus 1 is degenerate under five stiff grids, bus 2 has a converter,
    # bus 3 is out of service and bus 4 is fed by nothing
    net = Network(
        buses=[Bus(1, 20.0), Bus(2, 20.0), Bus(3, 20.0, in_service=False), Bus(4, 20.0)],
        external_grids=[ExternalGrid(bus=1, s_sc_max_mva=5.5e11, s_sc_min_mva=5.5e11) for _ in range(5)],
        lines=[Line(1, 2, 2.0, 0.2, 0.1), Line(2, 3, 1.0, 0.2, 0.1)],
        converter_sources=[ConverterSource(bus=2, sn_mva=2.0, k=1.2)],
    )
    options = FaultStudyOptions(case=case)
    study = calc_sc(net, options)
    reference = bench._factored_reference(net, options, [1, 2, 3, 4])
    assert reference.degenerate_buses == study.degenerate_buses == (1,)
    assert reference.energized.tolist() == study.energized.tolist() == [True, True, False, False]
    assert _check_equivalence(study, bench.EQUIVALENCE_TOL, factored=[reference]) <= 1e-10


def test_the_size_records_are_the_plain_json_of_the_report():
    report = run_benchmark([3, 5], loop_max=3)
    assert report.to_dict()["sizes"] == list(report.cases)
    for record in report.cases:
        # a numpy scalar would fail the dump or show in the repr
        again = json.loads(json.dumps(record))
        assert again == record and repr(again) == repr(record)


def test_bench_json_schema(tmp_path):
    path = tmp_path / "bench.json"
    assert main(["bench", "--sizes", "3,5", "--loop-max", "3", "--json", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert {"python", "numpy", "scipy", "platform", "git_sha"} <= set(doc)
    assert all(isinstance(doc[key], str) and doc[key] for key in ("python", "numpy", "scipy", "platform", "git_sha"))
    assert doc["loop_max"] == 3 and doc["repeats"] == bench.REPEATS
    assert len(doc["sizes"]) == 2
    for size in doc["sizes"]:
        for key in ("buses", "nodes", "n_aux", "nnz_y", "nnz_lu", "peak_traced_bytes", "calc_sc_minor_faults"):
            assert isinstance(size[key], int) and size[key] >= 0, key
        assert 0 < size["nodes"] - size["n_aux"] <= size["buses"]
        assert size["nnz_lu"] >= size["nnz_y"] > 0
        stages = [
            "validate", "fuse_switches", "build_bbm", "factorize", "impedance_matrix_diag",
            "converter_contribution", "calc_sc", "second_case",
        ]
        assert list(size["stages_s"]) == stages
        for stage in size["stages_s"].values():
            assert 0.0 < stage["min"] <= stage["median"]
        peaks = size["stages_peak_traced_bytes"]
        assert list(peaks) == stages
        assert all(isinstance(peak, int) and peak > 0 for peak in peaks.values())
        # the study's peak is that of its stage, and above that of any stage
        # it calls
        assert peaks["calc_sc"] == size["peak_traced_bytes"]
        assert peaks["calc_sc"] >= max(peaks["validate"], peaks["build_bbm"], peaks["impedance_matrix_diag"])
        # the load leg: the peak of a load holds the network it returns
        # and the validation of that network
        assert 0.0 < size["load_network_s"]["min"] <= size["load_network_s"]["median"]
        for key in ("load_network_peak_traced_bytes", "network_traced_bytes"):
            assert isinstance(size[key], int), key
        assert 0 < size["network_traced_bytes"] < size["load_network_peak_traced_bytes"]
        assert size["load_network_peak_traced_bytes"] >= peaks["validate"]
        # the save, CSV and JSON legs: each writes a file of its own
        for leg in ("save_network", "write_result_csv", "write_result_json"):
            assert 0.0 < size[f"{leg}_s"]["min"] <= size[f"{leg}_s"]["median"], leg
            for key in (f"{leg}_peak_traced_bytes", f"{leg}_file_bytes"):
                assert isinstance(size[key], int) and size[key] > 0, key
        # 6 buses is above --loop-max 3: a sample of up to 16 buses is
        # checked, and no loop is timed
        assert size["checked_buses"] == size["buses"] == 6 and 0.0 <= size["max_rel_diff"] <= 1e-10
        assert size["looped_s"] is None and size["speedup"] is None


def test_minor_faults_are_the_median_of_the_timed_studies(monkeypatch):
    # the timed studies fault 3, 5, ..., 1 pages: the median is REPEATS,
    # not the count of the middle study
    timed = [2 * k + 1 for k in range(bench.REPEATS)]
    steps = iter([100, *timed[1:], timed[0], 100])  # untimed, timed, traced
    faults = [0]
    real = bench.calc_sc

    def study(net, options):
        if options.fault_buses == "all" and options.case == "max":
            faults[0] += next(steps)
        return real(net, options)

    monkeypatch.setattr(bench, "calc_sc", study)
    monkeypatch.setattr(bench, "_minor_faults", lambda: faults[0])
    report = run_benchmark([3], loop_max=0)
    (case,) = report.cases
    assert case["calc_sc_minor_faults"] == bench.REPEATS
    assert report.to_dict()["sizes"][0]["calc_sc_minor_faults"] == bench.REPEATS


def test_minor_faults_are_null_without_resource(monkeypatch):
    monkeypatch.setitem(sys.modules, "resource", None)
    report = run_benchmark([3], loop_max=0)
    (case,) = report.cases
    assert case["calc_sc_minor_faults"] is None and report.to_dict()["sizes"][0]["calc_sc_minor_faults"] is None


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


PEAK_TABLE_HEAD = (
    "| buses | `validate` | `fuse_switches` | `build_bbm` | `factorize` | Z_ii | converter | `calc_sc` |\n"
    "|------:|-----:|-----:|-----:|-----:|-----:|-----:|-----:|"
)


def stage_peak_table(doc: dict) -> str:
    """The README's table of the traced peak of each stage for a
    ``sccalc bench --json`` document."""
    rows = [PEAK_TABLE_HEAD]
    for size in doc["sizes"]:
        cells = [size["buses"], *[f"{peak / 1e6:.3g} MB" for peak in size["stages_peak_traced_bytes"].values()]]
        rows.append("| " + " | ".join(map(str, cells)) + " |")
    return "\n".join(rows)


def test_the_readme_stage_table_is_the_one_of_the_committed_bench_file():
    doc = json.loads((ROOT / "BENCH_21.json").read_text(encoding="utf-8"))
    assert len(doc["sizes"]) == 4
    assert stage_table(doc) in (ROOT / "README.md").read_text(encoding="utf-8")


def test_the_readme_stage_peak_table_is_the_one_of_the_committed_bench_file():
    doc = json.loads((ROOT / "BENCH_21.json").read_text(encoding="utf-8"))
    assert stage_peak_table(doc) in (ROOT / "README.md").read_text(encoding="utf-8")
