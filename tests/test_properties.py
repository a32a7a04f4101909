"""Property suite for the builder and solver invariants.

Network-level properties run over seeded random networks; scalar operations
use hypothesis. Two properties carry scope notes established during
development: the max/min case ordering including converter contributions is
checked on radially operated grids (on meshed grids a larger minimum-case
impedance can divert a converter's current into a remote fault strongly
enough to outweigh the smaller source component), and without converters it
is checked on arbitrary networks up to floating-point ties.
"""
import copy
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sccalc import (
    ConverterSource,
    FaultStudyOptions,
    Line,
    Transformer3W,
    calc_sc,
    generate_radial_grid,
    validate,
)
from sccalc.builder import (
    BusBranchModel,
    build_bbm,
    fuse_switches,
    line_impedance,
    three_winding_star,
    transformer_correction,
    voltage_correction_factor,
)
from sccalc.solver import converter_contribution, factorize, impedance_matrix_diag

from netgen import random_network

RESULT_COLUMNS = ("ikss_source_ka", "ikss_converter_ka", "ikss_ka")


def rel_diff(a, b):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-30)


# --- grid_model properties ------------------------------------------------

@pytest.mark.parametrize("seed", range(30))
def test_validated_networks_build_without_input_errors(seed):
    net = random_network(seed)
    assert validate(net) == []
    bbm = build_bbm(net, FaultStudyOptions())
    assert isinstance(bbm, BusBranchModel)


# --- network_builder properties --------------------------------------------

@pytest.mark.parametrize("seed", range(30))
@pytest.mark.parametrize("case", ["max", "min"])
def test_y_matrix_is_exactly_symmetric(seed, case):
    bbm = build_bbm(random_network(seed), FaultStudyOptions(case=case))
    assert np.max(np.abs(bbm.y_matrix - bbm.y_matrix.T)) == 0.0


@pytest.mark.parametrize("seed", range(12))
def test_results_invariant_under_power_base(seed):
    net = random_network(seed)
    reference = calc_sc(net, FaultStudyOptions(s_base_mva=1.0))
    for s_base in (10.0, 100.0):
        other = calc_sc(net, FaultStudyOptions(s_base_mva=s_base))
        assert np.array_equal(reference.energized, other.energized)
        for column in RESULT_COLUMNS:
            assert np.all(rel_diff(getattr(reference, column), getattr(other, column)) < 1e-9)


@settings(max_examples=200)
@given(
    vn_kv=st.floats(min_value=0.01, max_value=500.0, allow_nan=False),
    tolerance=st.sampled_from([6, 10]),
)
def test_c_factor_max_dominates_min(vn_kv, tolerance):
    c_max = voltage_correction_factor(vn_kv, tolerance, "max")
    c_min = voltage_correction_factor(vn_kv, tolerance, "min")
    assert c_max >= c_min


@settings(max_examples=200)
@given(
    r=st.floats(min_value=1e-3, max_value=2.0),
    x=st.floats(min_value=0.0, max_value=2.0),
    length=st.floats(min_value=0.01, max_value=100.0),
    temp_a=st.floats(min_value=20.0, max_value=300.0),
    temp_b=st.floats(min_value=20.0, max_value=300.0),
)
def test_min_case_line_resistance_monotone_in_end_temperature(r, x, length, temp_a, temp_b):
    lo, hi = sorted((temp_a, temp_b))
    def res(temp, case):
        return line_impedance(
            Line(1, 2, length_km=length, r_ohm_per_km=r, x_ohm_per_km=x, endtemp_degc=temp), case
        ).real
    assert res(hi, "min") >= res(lo, "min")
    assert res(20.0, "min") == res(20.0, "max")


@settings(max_examples=150)
@given(
    vk=st.tuples(
        st.floats(min_value=0.5, max_value=25.0),
        st.floats(min_value=0.5, max_value=25.0),
        st.floats(min_value=0.5, max_value=25.0),
    ),
    vkr_frac=st.tuples(
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=0.0, max_value=0.5),
    ),
    sn=st.tuples(
        st.floats(min_value=1.0, max_value=100.0),
        st.floats(min_value=1.0, max_value=100.0),
        st.floats(min_value=1.0, max_value=100.0),
    ),
    c_max_lv=st.sampled_from([1.05, 1.10]),
)
def test_star_reproduces_corrected_pairwise_impedances(vk, vkr_frac, sn, c_max_lv):
    t = Transformer3W(
        hv_bus=1, mv_bus=2, lv_bus=3,
        sn_hv_mva=sn[0], sn_mv_mva=sn[1], sn_lv_mva=sn[2],
        vn_hv_kv=110.0, vn_mv_kv=20.0, vn_lv_kv=0.4,
        vk_hm_percent=vk[0], vk_ml_percent=vk[1], vk_hl_percent=vk[2],
        vkr_hm_percent=vk[0] * vkr_frac[0],
        vkr_ml_percent=vk[1] * vkr_frac[1],
        vkr_hl_percent=vk[2] * vkr_frac[2],
    )
    z_h, z_m, z_l = three_winding_star(t, c_max_lv, s_base_mva=1.0)

    def corrected(vk_p, vkr_p, sn_a, sn_b):
        r = vkr_p / 100.0
        x = math.sqrt(vk_p**2 - vkr_p**2) / 100.0
        return transformer_correction(x, c_max_lv) * complex(r, x) / min(sn_a, sn_b)

    pairs = [
        (z_h + z_m, corrected(t.vk_hm_percent, t.vkr_hm_percent, sn[0], sn[1])),
        (z_m + z_l, corrected(t.vk_ml_percent, t.vkr_ml_percent, sn[1], sn[2])),
        (z_h + z_l, corrected(t.vk_hl_percent, t.vkr_hl_percent, sn[0], sn[2])),
    ]
    for seen, expected in pairs:
        assert abs(seen - expected) <= 1e-10 * abs(expected)


@pytest.mark.parametrize("seed", range(15))
def test_switch_fusion_is_order_independent(seed):
    net = random_network(seed)
    reference = fuse_switches(net)
    rng = random.Random(seed * 31 + 1)
    for _ in range(5):
        rng.shuffle(net.switches)
        fusion = fuse_switches(net)
        assert fusion.node_of == reference.node_of
        assert fusion.severed == reference.severed


# --- sc_solver properties -----------------------------------------------------

@pytest.mark.parametrize("seed", range(12))
def test_all_bus_study_equals_independent_single_bus_studies(seed):
    net = random_network(seed)
    full = calc_sc(net)
    by_bus = {int(b): i for i, b in enumerate(full.bus_ids)}
    for bus in net.buses:
        single = calc_sc(net, FaultStudyOptions(fault_buses=(bus.id,)))
        i = by_bus[bus.id]
        for column in RESULT_COLUMNS:
            a = getattr(full, column)[i]
            b = getattr(single, column)[0]
            assert rel_diff(np.array([a]), np.array([b]))[0] < 1e-10


@pytest.mark.parametrize("seed", range(12))
def test_converter_contributions_superpose_as_complex_vectors(seed):
    net = random_network(seed, with_outages=False)
    while len(net.converter_sources) < 2:
        net.converter_sources.append(
            ConverterSource(bus=net.buses[seed % len(net.buses)].id, sn_mva=1.5, k=1.1)
        )
    net_a = copy.deepcopy(net)
    net_a.converter_sources = net.converter_sources[0::2]
    net_b = copy.deepcopy(net)
    net_b.converter_sources = net.converter_sources[1::2]
    options = FaultStudyOptions()
    lu = factorize(build_bbm(net, options).y_matrix)
    z = impedance_matrix_diag(lu)
    i_ab = converter_contribution(lu, z, build_bbm(net, options).i_kc)
    i_a = converter_contribution(lu, z, build_bbm(net_a, options).i_kc)
    i_b = converter_contribution(lu, z, build_bbm(net_b, options).i_kc)
    scale = float(np.max(np.abs(i_a)) + np.max(np.abs(i_b))) + 1e-30
    assert float(np.max(np.abs(i_ab - (i_a + i_b)))) <= 1e-10 * scale


@pytest.mark.parametrize("seed", range(20))
def test_adding_a_converter_never_decreases_total_current(seed):
    net = random_network(seed)
    rng = random.Random(seed + 4000)
    augmented = copy.deepcopy(net)
    augmented.converter_sources.append(
        ConverterSource(bus=rng.choice(augmented.buses).id, sn_mva=rng.uniform(0.5, 10.0), k=1.2)
    )
    before = calc_sc(net)
    after = calc_sc(augmented)
    assert np.array_equal(before.ikss_source_ka, after.ikss_source_ka)
    assert np.all(after.ikss_ka >= before.ikss_ka)


@pytest.mark.parametrize("seed", range(12))
def test_removing_all_converters_keeps_source_component_bit_identical(seed):
    net = random_network(seed)
    stripped = copy.deepcopy(net)
    stripped.converter_sources.clear()
    full = calc_sc(net)
    bare = calc_sc(stripped)
    assert np.all(bare.ikss_converter_ka == 0.0)
    assert np.array_equal(full.ikss_source_ka, bare.ikss_source_ka)


@pytest.mark.parametrize("seed", [0, 3, 9])
def test_radial_feeder_current_strictly_decreases_without_dg(seed):
    feeders, per_feeder = 3, 12
    net = generate_radial_grid(feeders, per_feeder, dg_every=0, seed=seed)
    res = calc_sc(net, FaultStudyOptions(case="max"))
    by_bus = {int(b): float(v) for b, v in zip(res.bus_ids, res.ikss_ka)}
    busbar = by_bus[2]
    for f in range(feeders):
        path = [busbar] + [by_bus[3 + f * per_feeder + p] for p in range(per_feeder)]
        assert all(a > b for a, b in zip(path, path[1:]))


@pytest.mark.parametrize("seed", range(12))
def test_case_ordering_without_converters(seed):
    net = random_network(seed)
    for eg in net.external_grids:
        eg.rx_min = eg.rx_max
    r_max = calc_sc(net, FaultStudyOptions(case="max", consider_converters=False))
    r_min = calc_sc(net, FaultStudyOptions(case="min", consider_converters=False))
    assert np.all(r_max.ikss_ka >= r_min.ikss_ka * (1.0 - 1e-12))


@pytest.mark.parametrize("seed", range(8))
def test_case_ordering_on_radial_grids_with_dg(seed):
    net = generate_radial_grid(4, 12, dg_every=3, seed=seed)
    r_max = calc_sc(net, FaultStudyOptions(case="max"))
    r_min = calc_sc(net, FaultStudyOptions(case="min"))
    assert np.all(r_max.ikss_ka >= r_min.ikss_ka)
