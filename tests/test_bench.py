"""Tests for the vectorized-vs-looped benchmark harness."""
import pytest

from sccalc import FaultStudyOptions, bench, calc_sc, generate_radial_grid, run_benchmark
from sccalc.bench import EquivalenceGateError, _check_equivalence


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
    studies = []

    def counting(net, options):
        studies.append(options.fault_buses)
        return calc_sc(net, options)

    monkeypatch.setattr(bench, "calc_sc", counting)
    report = run_benchmark([2, 2])
    n = report.cases[0].n_buses
    # per size: the untimed study, the timed all-bus study, then one per bus
    per_size = ["all", "all"] + [(bus_id,) for bus_id in range(1, n + 1)]
    assert studies == per_size + per_size
