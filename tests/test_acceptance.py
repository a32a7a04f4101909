"""Acceptance suite. One test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the test names mirror the criteria.
"""
import copy
import time

import numpy as np
import pytest

from sccalc import ConverterSource, FaultStudyOptions, calc_sc, generate_radial_grid, run_benchmark
from sccalc.builder import build_bbm, voltage_correction_factor
from sccalc.solver import converter_contribution, factorize, impedance_matrix_diag, total_current

from netgen import random_network
from oracle import oracle_calc

RESULT_COLUMNS = ("ikss_source_ka", "ikss_converter_ka", "ikss_ka")


def rel_diff(a, b):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-30)


def report(line: str) -> None:
    print(f"PASS {line}")


def test_criterion_1_component_combination_arithmetic():
    _, _, ikss_ka = total_current(
        np.array([-145.073j]), np.array([-0.181j]), np.array([1.0])
    )
    assert f"{ikss_ka[0]:.3f}" == "145.254"
    assert ikss_ka[0] == pytest.approx(145.254, abs=5e-4)

    _, _, ikss_ka = total_current(np.array([-2.913j]), np.array([-0.990j]), np.array([1.0]))
    assert f"{ikss_ka[0]:.3f}" == "3.903"
    assert ikss_ka[0] == pytest.approx(3.903, abs=5e-4)
    report("criterion 1: component combination reproduces 145.254 kA and 3.903 kA")


def test_criterion_2_voltage_correction_table():
    cells = {
        (0.4, 6, "min"): 0.95,
        (0.4, 6, "max"): 1.05,
        (0.4, 10, "min"): 0.95,
        (0.4, 10, "max"): 1.10,
        (20.0, 10, "min"): 1.00,
        (20.0, 10, "max"): 1.10,
    }
    for (vn, tol, case), expected in cells.items():
        assert voltage_correction_factor(vn, tol, case) == expected
    # tolerance class is irrelevant above 1 kV
    assert voltage_correction_factor(110.0, 6, "max") == 1.10
    report("criterion 2: all six voltage-correction cells exact")


def test_criterion_3_oracle_agreement_on_100_random_networks():
    started = time.perf_counter()
    checked = 0
    worst = 0.0
    for seed in range(100):
        net = random_network(seed, consistent_trafo3w=seed % 2 == 0)
        for case in ("max", "min"):
            reference = oracle_calc(net, case=case)
            result = calc_sc(net, FaultStudyOptions(case=case))
            for i, bus_id in enumerate(result.bus_ids):
                expected = reference[int(bus_id)]
                assert bool(result.energized[i]) == expected["energized"]
                for column, key in (
                    ("ikss_source_ka", "source_ka"),
                    ("ikss_converter_ka", "converter_ka"),
                    ("ikss_ka", "total_ka"),
                ):
                    seen = float(getattr(result, column)[i])
                    rel = float(rel_diff(np.array([seen]), np.array([expected[key]]))[0])
                    worst = max(worst, rel)
                    assert rel < 1e-10, (seed, case, int(bus_id), column)
            checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 200
    assert elapsed < 60.0
    report(
        f"criterion 3: 100 networks x 2 cases vs dense oracle, worst rel diff "
        f"{worst:.2e} (< 1e-10), {elapsed:.1f} s (< 60 s)"
    )


def test_criterion_4_property_sweep():
    for seed in range(10):
        net = random_network(seed)

        # exact admittance symmetry
        bbm = build_bbm(net, FaultStudyOptions())
        assert np.max(np.abs(bbm.y_matrix - bbm.y_matrix.T)) == 0.0

        # per-unit invariance within 1e-9
        reference = calc_sc(net, FaultStudyOptions(s_base_mva=1.0))
        for s_base in (10.0, 100.0):
            other = calc_sc(net, FaultStudyOptions(s_base_mva=s_base))
            for column in RESULT_COLUMNS:
                assert np.all(rel_diff(getattr(reference, column), getattr(other, column)) < 1e-9)

        # converter superposition within 1e-10 (complex vectors)
        net_sup = copy.deepcopy(net)
        while len(net_sup.converter_sources) < 2:
            net_sup.converter_sources.append(
                ConverterSource(bus=net_sup.buses[0].id, sn_mva=1.0, k=1.0)
            )
        half_a = copy.deepcopy(net_sup)
        half_a.converter_sources = net_sup.converter_sources[0::2]
        half_b = copy.deepcopy(net_sup)
        half_b.converter_sources = net_sup.converter_sources[1::2]
        lu = factorize(build_bbm(net_sup, FaultStudyOptions()).y_matrix)
        z = impedance_matrix_diag(lu)
        i_all = converter_contribution(lu, z, build_bbm(net_sup, FaultStudyOptions()).i_kc)
        i_a = converter_contribution(lu, z, build_bbm(half_a, FaultStudyOptions()).i_kc)
        i_b = converter_contribution(lu, z, build_bbm(half_b, FaultStudyOptions()).i_kc)
        scale = float(np.max(np.abs(i_a)) + np.max(np.abs(i_b))) + 1e-30
        assert float(np.max(np.abs(i_all - (i_a + i_b)))) <= 1e-10 * scale

        # adding DG never decreases the total; source column is bit-identical
        augmented = copy.deepcopy(net)
        augmented.converter_sources.append(
            ConverterSource(bus=augmented.buses[-1].id, sn_mva=2.0, k=1.2)
        )
        before, after = calc_sc(net), calc_sc(augmented)
        assert np.array_equal(before.ikss_source_ka, after.ikss_source_ka)
        assert np.all(after.ikss_ka >= before.ikss_ka)

        # all-bus study equals independent per-bus studies within 1e-10
        full = calc_sc(net)
        by_bus = {int(b): i for i, b in enumerate(full.bus_ids)}
        for bus in net.buses[:: max(1, len(net.buses) // 5)]:
            single = calc_sc(net, FaultStudyOptions(fault_buses=(bus.id,)))
            i = by_bus[bus.id]
            for column in RESULT_COLUMNS:
                a = np.array([getattr(full, column)[i]])
                b = np.array([getattr(single, column)[0]])
                assert np.all(rel_diff(a, b) < 1e-10)

    # strict radial monotonicity without DG
    feeders, per_feeder = 3, 10
    radial = generate_radial_grid(feeders, per_feeder, dg_every=0, seed=2)
    res = calc_sc(radial)
    by_bus = {int(b): float(v) for b, v in zip(res.bus_ids, res.ikss_ka)}
    for f in range(feeders):
        path = [by_bus[2]] + [by_bus[3 + f * per_feeder + p] for p in range(per_feeder)]
        assert all(a > b for a, b in zip(path, path[1:]))

    report("criterion 4: property sweep (symmetry, per-unit, superposition, DG monotone, "
           "looped equivalence, radial monotonicity)")


def test_criterion_5_radial_grid_with_dg_behaviour():
    feeders, per_feeder = 4, 20
    net = generate_radial_grid(feeders, per_feeder, dg_every=4, seed=7)
    with_dg = calc_sc(net, FaultStudyOptions(case="max"))
    without_dg = calc_sc(net, FaultStudyOptions(case="max", consider_converters=False))
    busbar = {int(b): i for i, b in enumerate(with_dg.bus_ids)}[2]

    # (a) enabling converters strictly raises the substation busbar current
    assert with_dg.ikss_ka[busbar] > without_dg.ikss_ka[busbar]

    # (b) without DG the first bus of every feeder sees the same current
    first_ids = [3 + f * per_feeder for f in range(feeders)]
    idx = [int(np.nonzero(without_dg.bus_ids == b)[0][0]) for b in first_ids]
    firsts = without_dg.ikss_ka[idx]
    assert np.all(rel_diff(firsts, np.full(feeders, firsts[0])) < 1e-9)

    # (c) with DG the feeders differ because their DG capacity differs
    capacity = {}
    for cs in net.converter_sources:
        feeder = (cs.bus - 3) // per_feeder
        capacity[feeder] = capacity.get(feeder, 0.0) + cs.sn_mva
    assert len(set(round(c, 6) for c in capacity.values())) > 1
    firsts_dg = with_dg.ikss_ka[idx]
    assert np.max(firsts_dg) - np.min(firsts_dg) > 1e-6
    report("criterion 5: DG raises busbar current strictly; feeders equal without DG "
           "(< 1e-9) and differ with DG")


def test_criterion_6_performance_and_benchmark_gate():
    net = generate_radial_grid(4, 500, dg_every=5, seed=0)
    assert len(net.buses) >= 2000
    started = time.perf_counter()
    result = calc_sc(net, FaultStudyOptions(case="max"))
    elapsed = time.perf_counter() - started
    assert bool(result.energized.all())
    assert elapsed < 10.0

    bench = run_benchmark([500], seed=0)
    case = bench.cases[0]
    assert case["max_rel_diff"] <= 1e-10
    assert case["speedup"] >= 5.0
    report(
        f"criterion 6: {len(net.buses)}-bus study in {elapsed:.2f} s (< 10 s); "
        f"n={case['buses']} speedup {case['speedup']:.0f}x (>= 5x), gate worst "
        f"{case['max_rel_diff']:.1e}"
    )
