"""Tests for correction factors, element impedances, switch fusion and the
bus-branch model builder. The impedances of external grids and
transformers are read back from the admittances they stamp."""
import collections
import copy
import dataclasses
import io
import json
import math
import random

import numpy as np
import pytest
import scipy.sparse

from sccalc import (
    Bus,
    ConverterSource,
    ElementRef,
    ExternalGrid,
    FaultStudyOptions,
    InvalidOptionError,
    Line,
    Network,
    SingularStampError,
    Switch,
    Transformer2W,
    Transformer3W,
    UnsolvableIslandError,
    ValidationError,
    calc_sc,
    generate_radial_grid,
    write_result_json,
)
from sccalc.builder import build_bbm, voltage_correction_factor

from busmap import by_bus_id, fusion
from netgen import random_network
from oracle import converter_current, line_impedance, oracle_admittance, oracle_calc, oracle_stamps

SQRT3 = math.sqrt(3.0)


# --- voltage correction factor -------------------------------------------

@pytest.mark.parametrize(
    "vn_kv,tolerance,case,expected",
    [
        (0.4, 6, "max", 1.05),
        (0.4, 6, "min", 0.95),
        (0.4, 10, "max", 1.10),
        (0.4, 10, "min", 0.95),
        (20.0, 10, "max", 1.10),
        (20.0, 10, "min", 1.00),
    ],
)
def test_c_factor_table(vn_kv, tolerance, case, expected):
    assert voltage_correction_factor(vn_kv, tolerance, case) == expected


def test_c_factor_tolerance_ignored_above_1kv():
    assert voltage_correction_factor(110.0, 6, "max") == voltage_correction_factor(110.0, 10, "max")
    # tolerance is not even inspected at high voltage
    assert voltage_correction_factor(20.0, None, "min") == 1.00


def test_c_factor_boundary_at_1kv_is_lv():
    assert voltage_correction_factor(1.0, 6, "max") == 1.05


@pytest.mark.parametrize(
    "tolerance,case,message",
    [
        (6, "peak", "case must be 'max' or 'min', got 'peak'"),
        (8, "max", "lv_tolerance_percent must be the integer 6 or 10, got 8"),
        (6.0, "max", "lv_tolerance_percent must be the integer 6 or 10, got 6.0"),
        (True, "max", "lv_tolerance_percent must be the integer 6 or 10, got True"),
    ],
)
def test_c_factor_refuses_what_the_options_refuse(tolerance, case, message):
    with pytest.raises(InvalidOptionError) as caught:
        voltage_correction_factor(0.4, tolerance, case)
    assert str(caught.value) == message
    # the same message as the options give for the same value
    with pytest.raises(InvalidOptionError) as by_options:
        FaultStudyOptions(case=case, lv_tolerance_percent=tolerance)
    assert str(by_options.value) == message


def test_c_factor_of_many_levels_at_once():
    levels = np.array([0.4, 1.0, 1.0000001, 20.0, 110.0])
    assert voltage_correction_factor(levels, 6, "max").tolist() == [1.05, 1.05, 1.10, 1.10, 1.10]
    assert voltage_correction_factor(levels, 10, "min").tolist() == [0.95, 0.95, 1.00, 1.00, 1.00]


# --- external grid impedance ----------------------------------------------

def grid_eg(**kw):
    defaults = dict(bus=1, s_sc_max_mva=3000.0, s_sc_min_mva=3000.0, rx_max=0.0, rx_min=0.0)
    defaults.update(kw)
    return ExternalGrid(**defaults)


def external_grid_impedance(eg: ExternalGrid, vn_kv: float, case: str, s_base_mva: float = 1.0) -> complex:
    """The internal impedance of ``eg`` in ohms, from the shunt it stamps
    alone on a bus of ``vn_kv``."""
    net = Network(buses=[Bus(eg.bus, vn_kv)], external_grids=[eg])
    y = build_bbm(net, FaultStudyOptions(case=case, s_base_mva=s_base_mva)).y_matrix.toarray()[0, 0]
    return (vn_kv**2 / s_base_mva) / y


def grid_impedance_pu(vn_kv: float, s_sc_mva: float, c: float) -> complex:
    """The per-unit impedance of a purely inductive external grid on a
    1 MVA base, in the builder's order of operations."""
    return complex(0.0, c * vn_kv**2 / s_sc_mva) / vn_kv**2


def test_external_grid_impedance_purely_inductive():
    z = external_grid_impedance(grid_eg(), 110.0, "max")
    assert z.real == 0.0
    assert z.imag == pytest.approx(4.436666666666667, rel=1e-12)


def test_external_grid_impedance_rx_split():
    z = external_grid_impedance(grid_eg(rx_max=0.1), 110.0, "max")
    assert z.real == pytest.approx(0.44146483338983195, rel=1e-12)
    assert z.imag == pytest.approx(4.414648333898319, rel=1e-12)
    # split preserves the magnitude
    assert abs(z) == pytest.approx(1.1 * 110.0**2 / 3000.0, rel=1e-12)


def test_external_grid_impedance_vanishes_for_stiff_grid():
    # (on a base of 10 GVA, so that the shunt stamps)
    z = external_grid_impedance(grid_eg(s_sc_max_mva=1e15, s_sc_min_mva=1e15), 110.0, "max", s_base_mva=1e4)
    assert abs(z) < 1e-7


def test_external_grid_impedance_uses_case_values():
    eg = grid_eg(s_sc_max_mva=3000.0, s_sc_min_mva=1500.0, rx_max=0.0, rx_min=0.3)
    z_max = external_grid_impedance(eg, 110.0, "max")
    z_min = external_grid_impedance(eg, 110.0, "min")
    assert abs(z_min) == pytest.approx(1.0 * 110.0**2 / 1500.0, rel=1e-12)
    assert z_max.real == 0.0 and z_min.real > 0.0


# --- line impedance --------------------------------------------------------

def line(**kw):
    defaults = dict(from_bus=1, to_bus=2, length_km=10.0, r_ohm_per_km=0.1, x_ohm_per_km=0.4)
    defaults.update(kw)
    return Line(**defaults)


def test_line_impedance_max_case():
    z = line_impedance(line(), "max")
    assert z == complex(1.0, 4.0)


def test_line_impedance_min_equals_max_at_reference_temperature():
    assert line_impedance(line(endtemp_degc=20.0), "min") == line_impedance(line(), "max")


def test_line_impedance_min_case_heats_resistance():
    z = line_impedance(line(length_km=1.0, r_ohm_per_km=1.0, endtemp_degc=90.0), "min")
    assert z.real == pytest.approx(1.28, rel=1e-12)
    assert z.imag == pytest.approx(0.4, rel=1e-12)


# --- transformer correction and impedance ----------------------------------

def trafo(**kw):
    defaults = dict(hv_bus=1, lv_bus=2, sn_mva=25.0, vn_hv_kv=110.0, vn_lv_kv=20.0,
                    vk_percent=6.0, vkr_percent=0.0)
    defaults.update(kw)
    return Transformer2W(**defaults)


def transformer_impedance(t: Transformer2W, tolerance: int = 10) -> complex:
    """The corrected short-circuit impedance of ``t`` in per unit of its
    rating, from the admittance it stamps at its LV bus, on buses at its
    rated voltages and a study base of 1 MVA."""
    net = Network(
        buses=[Bus(1, t.vn_hv_kv), Bus(2, t.vn_lv_kv)],
        external_grids=[ExternalGrid(bus=1, s_sc_max_mva=3000.0)],
        transformers2w=[t],
    )
    y = build_bbm(net, FaultStudyOptions(lv_tolerance_percent=tolerance)).y_matrix.toarray()
    return t.sn_mva / y[1, 1]


def corrected_impedance(vk_percent: float, vkr_percent: float, c_max_lv: float) -> complex:
    """K_T * (r + jx) in per unit of the rating, K_T = 0.95 * c_max / (1 + 0.6 * x)."""
    r = vkr_percent / 100.0
    x = math.sqrt(vk_percent**2 - vkr_percent**2) / 100.0
    return 0.95 * c_max_lv / (1.0 + 0.6 * x) * complex(r, x)


def test_transformer_correction_zero_reactance():
    # x = 1e-13, where K_T is within 1e-13 of its value at x = 0; c_max is
    # 1.05 on an LV bus at 6 % tolerance
    t = trafo(vk_percent=1e-11, sn_mva=1e-3, vn_lv_kv=0.4)
    assert transformer_impedance(t, tolerance=6).imag / 1e-13 == pytest.approx(0.9975, rel=1e-12)


def test_transformer_correction_typical():
    k_t = transformer_impedance(trafo(vk_percent=10.0, vn_lv_kv=0.4), tolerance=6).imag / 0.1
    assert k_t == pytest.approx(0.9410377358490565, rel=1e-12)


def test_transformer_correction_above_one():
    # c_max is 1.10 on a 20 kV bus
    assert transformer_impedance(trafo()).imag / 0.06 == pytest.approx(1.0086872586872586, rel=1e-12)


def test_transformer_impedance_purely_inductive():
    z = transformer_impedance(trafo(vn_lv_kv=0.4), tolerance=6)
    assert z.real == 0.0
    assert z.imag == pytest.approx(0.05777027027027026, rel=1e-12)


def test_transformer_impedance_with_resistive_part():
    z = transformer_impedance(trafo(vkr_percent=1.0, vn_lv_kv=0.4), tolerance=6)
    assert z.real == pytest.approx(0.009633060280935466, rel=1e-12)
    assert z.imag == pytest.approx(0.056989953177422226, rel=1e-12)


# --- three-winding star -----------------------------------------------------

def star_branches(t: Transformer3W, tolerance: int = 10, s_base_mva: float = 1.0) -> list[complex]:
    """The hv, mv and lv star branches that ``t`` stamps in per unit on the
    study base, on buses at its rated voltages: each winding's branch to
    the star point stamps -y there, with a tap of 1."""
    net = Network(
        buses=[Bus(1, t.vn_hv_kv), Bus(2, t.vn_mv_kv), Bus(3, t.vn_lv_kv)],
        external_grids=[ExternalGrid(bus=1, s_sc_max_mva=3000.0)],
        transformers3w=[t],
    )
    y = build_bbm(net, FaultStudyOptions(lv_tolerance_percent=tolerance, s_base_mva=s_base_mva)).y_matrix.toarray()
    return [-1.0 / y[w, 3] for w in range(3)]


def star_of_pairs(z_hm: float, z_ml: float, z_hl: float) -> list[complex]:
    """The star branches of a three-winding transformer of 1 MVA windings
    on 110, 20 and 10 kV buses, whose corrected pairwise reactances are
    ``z_*`` in per unit: x = z / (0.95 * c_max - 0.6 * z) undoes K_T."""
    vk = [100.0 * z / (0.95 * 1.10 - 0.6 * z) for z in (z_hm, z_ml, z_hl)]
    t = trafo3w(
        sn_hv_mva=1.0, sn_mv_mva=1.0, sn_lv_mva=1.0, vn_lv_kv=10.0,
        vk_hm_percent=vk[0], vk_ml_percent=vk[1], vk_hl_percent=vk[2],
        vkr_hm_percent=0.0, vkr_ml_percent=0.0, vkr_hl_percent=0.0,
    )
    return star_branches(t)


def test_star_decompose_symmetric():
    z_h, z_m, z_l = star_of_pairs(0.1, 0.1, 0.1)
    assert z_h == z_m == z_l == pytest.approx(0.05j)


def test_star_decompose_general():
    z_h, z_m, z_l = star_of_pairs(0.10, 0.08, 0.16)
    assert z_h == pytest.approx(0.09j)
    assert z_m == pytest.approx(0.01j)
    assert z_l == pytest.approx(0.07j)


def test_star_decompose_keeps_negative_branches():
    z_h, z_m, z_l = star_of_pairs(0.10, 0.08, 0.30)
    assert z_m == pytest.approx(-0.06j)


def trafo3w(**kw):
    defaults = dict(
        hv_bus=1, mv_bus=2, lv_bus=3,
        sn_hv_mva=40.0, sn_mv_mva=25.0, sn_lv_mva=15.0,
        vn_hv_kv=110.0, vn_mv_kv=20.0, vn_lv_kv=0.4,
        vk_hm_percent=10.0, vk_ml_percent=6.0, vk_hl_percent=16.0,
        vkr_hm_percent=0.4, vkr_ml_percent=0.3, vkr_hl_percent=0.5,
    )
    defaults.update(kw)
    return Transformer3W(**defaults)


def corrected_pairwise(vk, vkr, sn_a, sn_b, c_max_lv, s_base):
    return corrected_impedance(vk, vkr, c_max_lv) * s_base / min(sn_a, sn_b)


def test_three_winding_star_reproduces_corrected_pairwise_impedances():
    t = trafo3w()
    # c_max is 1.05 on the 0.4 kV LV bus at 6 % tolerance
    c_max_lv = 1.05
    z_h, z_m, z_l = star_branches(t, tolerance=6)
    z_hm = corrected_pairwise(t.vk_hm_percent, t.vkr_hm_percent, t.sn_hv_mva, t.sn_mv_mva, c_max_lv, 1.0)
    z_ml = corrected_pairwise(t.vk_ml_percent, t.vkr_ml_percent, t.sn_mv_mva, t.sn_lv_mva, c_max_lv, 1.0)
    z_hl = corrected_pairwise(t.vk_hl_percent, t.vkr_hl_percent, t.sn_hv_mva, t.sn_lv_mva, c_max_lv, 1.0)
    # impedance between two star terminals with the third open
    assert z_h + z_m == pytest.approx(z_hm, rel=1e-10)
    assert z_m + z_l == pytest.approx(z_ml, rel=1e-10)
    assert z_h + z_l == pytest.approx(z_hl, rel=1e-10)


def test_three_winding_star_scales_with_study_base():
    t = trafo3w()
    z1 = star_branches(t, s_base_mva=1.0)
    z10 = star_branches(t, s_base_mva=10.0)
    for a, b in zip(z1, z10):
        assert b == pytest.approx(10.0 * a, rel=1e-12)


# --- converter current -------------------------------------------------------

def test_converter_current_direct_form():
    # k * I_rated = 1.2 kA at 1 kA rated current
    cs = ConverterSource(bus=1, sn_mva=SQRT3 * 20.0, k=1.2)
    i = converter_current(cs, 20.0)
    assert i == pytest.approx(complex(0.0, -1.2), rel=1e-12)


def test_converter_current_rated_from_nameplate():
    i = converter_current(ConverterSource(bus=1, sn_mva=5.0, k=1.0), 20.0)
    assert i.real == 0.0
    assert i.imag == pytest.approx(-0.14433756729740646, rel=1e-12)


def test_converter_current_zero_k():
    assert converter_current(ConverterSource(bus=1, sn_mva=5.0, k=0.0), 20.0) == 0.0


# --- switch fusion -----------------------------------------------------------

def three_bus_line_net() -> Network:
    return Network(
        buses=[Bus(1, 110.0), Bus(2, 110.0), Bus(3, 110.0)],
        external_grids=[ExternalGrid(bus=1, s_sc_max_mva=3000.0)],
        lines=[
            Line(1, 2, length_km=5.0, r_ohm_per_km=0.1, x_ohm_per_km=0.4),
            Line(2, 3, length_km=5.0, r_ohm_per_km=0.1, x_ohm_per_km=0.4),
        ],
    )


def test_fuse_without_switches_is_identity():
    net = three_bus_line_net()
    fused = fusion(net)
    assert by_bus_id(net, fused.node) == {1: 0, 2: 1, 3: 2}
    assert fused.live["line"].all() and fused.windings.shape == (3, 0)


def test_fuse_closed_bus_bus_switch_merges_nodes():
    net = three_bus_line_net()
    net.switches.append(Switch(bus=2, other=1, closed=True))
    fused = fusion(net)
    node = by_bus_id(net, fused.node)
    assert node[1] == node[2] == 0
    assert node[3] == 1
    bbm = build_bbm(net, FaultStudyOptions())
    assert bbm.y_matrix.shape[0] == 2  # one node fewer than buses


def test_fuse_open_bus_bus_switch_is_noop():
    net = three_bus_line_net()
    net.switches.append(Switch(bus=2, other=1, closed=False))
    assert by_bus_id(net, fusion(net).node) == {1: 0, 2: 1, 3: 2}


def test_open_line_switch_severs_element():
    net = three_bus_line_net()
    net.switches.append(Switch(bus=2, other=ElementRef("line", 1), closed=False))
    fused = fusion(net)
    assert not fused.live["line"][1]
    assert fused.live["line"][0]
    # bus 3 is in a dead island now
    bbm = build_bbm(net, FaultStudyOptions())
    rows = by_bus_id(net, bbm.bus_index)
    assert 3 not in rows
    assert set(rows) == {1, 2}


def test_closed_element_switch_keeps_element_active():
    net = three_bus_line_net()
    net.switches.append(Switch(bus=2, other=ElementRef("line", 1), closed=True))
    assert fusion(net).live["line"][1]


def test_fusion_is_independent_of_switch_order():
    net = three_bus_line_net()
    net.buses.append(Bus(4, 110.0))
    net.lines.append(Line(3, 4, length_km=2.0, r_ohm_per_km=0.1, x_ohm_per_km=0.4))
    net.switches += [
        Switch(bus=1, other=2),
        Switch(bus=2, other=3),
        Switch(bus=4, other=3),
        Switch(bus=1, other=4, closed=False),
    ]
    reference = by_bus_id(net, fusion(net).node)
    assert reference == {1: 0, 2: 0, 3: 0, 4: 0}
    rng = random.Random(7)
    for _ in range(10):
        rng.shuffle(net.switches)
        assert by_bus_id(net, fusion(net).node) == reference


def test_out_of_service_bus_is_not_fused():
    net = three_bus_line_net()
    net.buses[2].in_service = False
    net.switches.append(Switch(bus=2, other=3, closed=True))
    node = by_bus_id(net, fusion(net).node)
    assert 3 not in node
    assert node == {1: 0, 2: 1}


# --- bus-branch model builder --------------------------------------------------

def test_build_bbm_stamps_line_and_grid_shunt():
    net = Network(
        buses=[Bus(1, 110.0), Bus(2, 110.0)],
        external_grids=[ExternalGrid(bus=1, s_sc_max_mva=3000.0)],
        lines=[Line(1, 2, length_km=10.0, r_ohm_per_km=0.0, x_ohm_per_km=0.4)],
    )
    options = FaultStudyOptions(case="max")
    bbm = build_bbm(net, options)
    z_base = 110.0**2 / 1.0
    y_line = 1.0 / (4.0j / z_base)
    y_grid = 1.0 / grid_impedance_pu(110.0, 3000.0, 1.1)
    expected = np.array([[y_line + y_grid, -y_line], [-y_line, y_line]])
    assert np.allclose(bbm.y_matrix.toarray(), expected, rtol=1e-12, atol=0.0)
    assert by_bus_id(net, bbm.bus_index) == {1: 0, 2: 1}
    z_diag = np.diag(np.linalg.inv(bbm.y_matrix.toarray()))
    expected_ka = 1.1 / np.abs(z_diag) * (1.0 / (SQRT3 * 110.0))
    assert calc_sc(net, options).ikss_source_ka == pytest.approx(expected_ka, rel=1e-12)


def test_build_bbm_converter_injection_in_per_unit():
    net = Network(
        buses=[Bus(1, 20.0), Bus(2, 20.0)],
        external_grids=[ExternalGrid(bus=1, s_sc_max_mva=500.0)],
        lines=[Line(1, 2, length_km=1.0, r_ohm_per_km=0.1, x_ohm_per_km=0.1)],
        converter_sources=[ConverterSource(bus=2, sn_mva=5.0, k=1.0)],
    )
    bbm = build_bbm(net, FaultStudyOptions())
    rows = by_bus_id(net, bbm.bus_index)
    assert bbm.i_kc[rows[2]] == pytest.approx(complex(0.0, -5.0), rel=1e-12)
    assert bbm.i_kc[rows[1]] == 0.0


def test_build_bbm_without_converters_when_disabled():
    net = Network(
        buses=[Bus(1, 20.0)],
        external_grids=[ExternalGrid(bus=1, s_sc_max_mva=500.0)],
        converter_sources=[ConverterSource(bus=1, sn_mva=5.0, k=1.0)],
    )
    bbm = build_bbm(net, FaultStudyOptions(consider_converters=False))
    assert np.all(bbm.i_kc == 0.0)


def test_build_bbm_matched_transformer_is_plain_series_branch():
    net = Network(
        buses=[Bus(1, 110.0), Bus(2, 20.0)],
        external_grids=[ExternalGrid(bus=1, s_sc_max_mva=3000.0)],
        transformers2w=[trafo()],
    )
    bbm = build_bbm(net, FaultStudyOptions())
    z_pu = corrected_impedance(6.0, 0.0, 1.10) / 25.0
    y = 1.0 / z_pu
    rows = by_bus_id(net, bbm.bus_index)
    i, j = rows[1], rows[2]
    y_matrix = bbm.y_matrix.toarray()
    assert y_matrix[i, j] == pytest.approx(-y, rel=1e-12)
    assert y_matrix[j, j] == pytest.approx(y, rel=1e-12)


def test_build_bbm_off_nominal_transformer_ratio():
    net = Network(
        buses=[Bus(1, 110.0), Bus(2, 21.0)],
        external_grids=[ExternalGrid(bus=1, s_sc_max_mva=3000.0)],
        transformers2w=[trafo()],
    )
    bbm = build_bbm(net, FaultStudyOptions())
    tap = (110.0 / 20.0) * (21.0 / 110.0)
    z_pu = corrected_impedance(6.0, 0.0, 1.10) / 25.0 * (20.0 / 21.0) ** 2
    y = 1.0 / z_pu
    rows = by_bus_id(net, bbm.bus_index)
    i, j = rows[1], rows[2]
    y_matrix = bbm.y_matrix.toarray()
    grid_shunt = y_matrix[i, i] - y / tap**2
    assert y_matrix[i, j] == pytest.approx(-y / tap, rel=1e-12)
    assert y_matrix[j, i] == pytest.approx(-y / tap, rel=1e-12)
    assert y_matrix[j, j] == pytest.approx(y, rel=1e-12)
    assert grid_shunt != 0.0


def test_build_bbm_symmetric_with_parallel_branches_at_a_busy_node():
    # a busbar with many branches, ten of them in parallel to bus 2: the
    # parallel stamps must sum in the same order in Y[i, j] and Y[j, i]
    for seed in range(5):
        rng = random.Random(seed)
        net = Network(
            buses=[Bus(b, 20.0) for b in range(1, 21)],
            external_grids=[ExternalGrid(bus=1, s_sc_max_mva=500.0)],
        )
        for k in range(30):
            other = 2 if k % 3 == 0 else rng.randint(3, 20)
            ends = (1, other) if rng.random() < 0.5 else (other, 1)
            net.lines.append(
                Line(*ends, length_km=10.0 ** rng.uniform(-2.0, 2.0),
                     r_ohm_per_km=rng.uniform(0.01, 1.0), x_ohm_per_km=rng.uniform(0.01, 1.0))
            )
        y = build_bbm(net, FaultStudyOptions()).y_matrix
        assert abs(y - y.T).max() == 0.0, seed


def test_build_bbm_beyond_the_int32_key_range_matches_a_scipy_assembly():
    # 46 402 nodes: the stamp's sort key col * dim + row passes 2**31 from
    # node 46 341 on, where a key of int32 columns would wrap
    net = generate_radial_grid(4, 11600, dg_every=5)
    bbm = build_bbm(net, FaultStudyOptions())
    y = bbm.y_matrix
    dim = y.shape[0]
    assert dim * dim > 2**31
    stamps, _, row = oracle_stamps(net)
    assert bbm.bus_index.tolist() == [row[bus.id] for bus in net.buses]
    rows, cols, values = zip(*stamps)
    reference = scipy.sparse.coo_matrix((values, (rows, cols)), shape=(dim, dim)).tocsc()
    assert np.array_equal(y.indptr, reference.indptr) and np.array_equal(y.indices, reference.indices)
    np.testing.assert_allclose(y.data, reference.data, rtol=1e-14, atol=0.0)
    transposed = y.T.tocsc()
    assert np.array_equal(transposed.indptr, y.indptr) and np.array_equal(transposed.indices, y.indices)
    assert np.array_equal(transposed.data, y.data)


def test_build_bbm_three_winding_adds_auxiliary_node():
    net = Network(
        buses=[Bus(1, 110.0), Bus(2, 20.0), Bus(3, 0.4)],
        external_grids=[ExternalGrid(bus=1, s_sc_max_mva=3000.0)],
        transformers3w=[trafo3w()],
    )
    bbm = build_bbm(net, FaultStudyOptions())
    assert bbm.n_aux == 1
    assert bbm.y_matrix.shape[0] == 4
    assert set(by_bus_id(net, bbm.bus_index).values()) == {0, 1, 2}


def test_build_bbm_lv_side_c_factor_follows_tolerance():
    def busbar_x(tolerance):
        net = Network(
            buses=[Bus(1, 20.0), Bus(2, 0.4)],
            external_grids=[ExternalGrid(bus=1, s_sc_max_mva=500.0)],
            transformers2w=[trafo(vn_hv_kv=20.0, vn_lv_kv=0.4, sn_mva=0.63)],
        )
        bbm = build_bbm(net, FaultStudyOptions(lv_tolerance_percent=tolerance))
        j = by_bus_id(net, bbm.bus_index)[2]
        return bbm.y_matrix.toarray()[j, j]

    # K_T scales with c_max at the LV level, so the stamp must change
    assert busbar_x(6) != busbar_x(10)


def test_build_bbm_requires_valid_network():
    net = Network(
        buses=[Bus(1, 110.0)],
        external_grids=[ExternalGrid(bus=1, s_sc_max_mva=3000.0)],
        lines=[Line(1, 99, length_km=1.0, r_ohm_per_km=0.1, x_ohm_per_km=0.1)],
    )
    with pytest.raises(ValidationError):
        build_bbm(net, FaultStudyOptions())


def test_build_bbm_unsolvable_without_energized_source():
    net = Network(
        buses=[Bus(1, 110.0, in_service=False), Bus(2, 110.0)],
        external_grids=[ExternalGrid(bus=1, s_sc_max_mva=3000.0)],
        lines=[Line(1, 2, length_km=1.0, r_ohm_per_km=0.1, x_ohm_per_km=0.4)],
    )
    with pytest.raises(UnsolvableIslandError):
        build_bbm(net, FaultStudyOptions())


def test_build_bbm_names_the_first_of_two_zero_impedance_lines():
    net = three_bus_line_net()
    net.buses.append(Bus(4, 110.0))
    net.lines.append(Line(3, 4, length_km=5.0, r_ohm_per_km=0.1, x_ohm_per_km=0.4))
    for i in (1, 2):
        net.lines[i].length_km = 1e-20
    with pytest.raises(SingularStampError, match=r"^lines\[1\]: branch impedance"):
        build_bbm(net, FaultStudyOptions())


def test_build_bbm_names_a_near_zero_external_grid_before_a_line():
    net = three_bus_line_net()
    net.external_grids[0] = ExternalGrid(bus=1, s_sc_max_mva=1e16, s_sc_min_mva=1e16)
    net.lines[1].length_km = 1e-20
    with pytest.raises(SingularStampError, match=r"^external_grids\[0\]: branch impedance"):
        build_bbm(net, FaultStudyOptions())


def test_build_bbm_names_a_near_zero_line_before_a_transformer():
    net = three_bus_line_net()
    net.buses.append(Bus(4, 20.0))
    net.transformers2w.append(trafo(hv_bus=3, lv_bus=4, vk_percent=1e-13))
    net.lines[1].length_km = 1e-20
    with pytest.raises(SingularStampError, match=r"^lines\[1\]: branch impedance"):
        build_bbm(net, FaultStudyOptions())
    net.lines[1].length_km = 5.0
    with pytest.raises(SingularStampError, match=r"^transformers2w\[0\]: branch impedance"):
        build_bbm(net, FaultStudyOptions())


def test_build_bbm_names_a_near_zero_two_winding_before_a_star_branch():
    net = Network(
        buses=[Bus(1, 110.0), Bus(2, 20.0), Bus(3, 0.4), Bus(4, 20.0)],
        external_grids=[ExternalGrid(bus=1, s_sc_max_mva=3000.0)],
        transformers2w=[trafo(), trafo(lv_bus=4, vk_percent=1e-13)],
        # every star branch is near zero
        transformers3w=[trafo3w(vk_hm_percent=1e-13, vk_ml_percent=1e-13, vk_hl_percent=2e-13,
                                vkr_hm_percent=0.0, vkr_ml_percent=0.0, vkr_hl_percent=0.0)],
    )
    with pytest.raises(SingularStampError, match=r"^transformers2w\[1\]: branch impedance"):
        build_bbm(net, FaultStudyOptions())
    net.transformers2w[1].vk_percent = 6.0
    with pytest.raises(SingularStampError, match=r"^transformers3w\[0\] \(hv star branch\)"):
        build_bbm(net, FaultStudyOptions())


def test_build_bbm_sums_converters_on_fused_buses_into_one_row():
    # buses 2 and 3 are one node; their three converters add up in
    # converter order, as converter_current gives each one
    net = Network(
        buses=[Bus(1, 20.0), Bus(2, 20.0), Bus(3, 20.0)],
        external_grids=[ExternalGrid(bus=1, s_sc_max_mva=500.0)],
        lines=[Line(1, 2, length_km=1.0, r_ohm_per_km=0.1, x_ohm_per_km=0.1)],
        converter_sources=[
            ConverterSource(bus=3, sn_mva=5.0, k=1.0),
            ConverterSource(bus=2, sn_mva=2.0, k=1.2),
            ConverterSource(bus=3, sn_mva=1.5, k=1.1),
        ],
        switches=[Switch(bus=3, other=2, closed=True)],
    )
    bbm = build_bbm(net, FaultStudyOptions())
    rows = by_bus_id(net, bbm.bus_index)
    assert rows == {1: 0, 2: 1, 3: 1}
    i_base = 1.0 / (SQRT3 * 20.0)
    expected = 0j
    for cs in net.converter_sources:
        expected += converter_current(cs, 20.0) / i_base
    assert bbm.i_kc.tolist() == [0j, expected]
    _, i_kc_ref, _ = oracle_admittance(net)
    assert np.all(np.abs(bbm.i_kc - i_kc_ref) <= 1e-13 * np.abs(i_kc_ref))


def test_build_bbm_rejects_zero_impedance_star_branch():
    # pairwise reactances tuned so one corrected star branch cancels exactly
    c_max_lv = 1.10
    x = 0.05
    k = 0.95 * c_max_lv / (1.0 + 0.6 * x)
    x_hl = 2.0 * k * x / (0.95 * c_max_lv - 1.2 * k * x)
    t = trafo3w(
        sn_hv_mva=25.0, sn_mv_mva=25.0, sn_lv_mva=25.0,
        vk_hm_percent=100.0 * x, vk_ml_percent=100.0 * x, vk_hl_percent=100.0 * x_hl,
        vkr_hm_percent=0.0, vkr_ml_percent=0.0, vkr_hl_percent=0.0,
    )
    net = Network(
        buses=[Bus(1, 110.0), Bus(2, 20.0), Bus(3, 0.4)],
        external_grids=[ExternalGrid(bus=1, s_sc_max_mva=3000.0)],
        transformers3w=[t],
    )
    with pytest.raises(SingularStampError, match=r"^transformers3w\[0\] \(mv star branch\)"):
        build_bbm(net, FaultStudyOptions())


def test_severed_3w_terminal_keeps_remaining_windings_coupled():
    # grid feeds the MV winding; the HV terminal is switched off, so the HV
    # bus islands while MV and LV stay coupled through the star point
    net = Network(
        buses=[Bus(1, 110.0), Bus(2, 20.0), Bus(3, 0.4)],
        external_grids=[ExternalGrid(bus=2, s_sc_max_mva=500.0)],
        transformers3w=[trafo3w()],
        switches=[Switch(bus=1, other=ElementRef("trafo3w", 0), closed=False)],
    )
    assert fusion(net).windings.tolist() == [[False], [True], [True]]
    bbm = build_bbm(net, FaultStudyOptions())
    assert by_bus_id(net, bbm.bus_index) == {2: 0, 3: 1}
    assert bbm.n_aux == 1
    res = calc_sc(net)
    assert bool(res.energized[0]) is False
    assert bool(res.energized[2]) is True
    assert res.ikss_ka[2] > 0.0


def test_fused_transformer_terminals_become_a_noop():
    net = Network(
        buses=[Bus(1, 20.0), Bus(2, 20.0)],
        external_grids=[ExternalGrid(bus=1, s_sc_max_mva=500.0)],
        transformers2w=[trafo(vn_hv_kv=20.0, vn_lv_kv=20.0)],
        switches=[Switch(bus=1, other=2, closed=True)],
    )
    bbm = build_bbm(net, FaultStudyOptions())
    assert bbm.y_matrix.shape[0] == 1
    # only the external grid shunt remains in the matrix
    assert bbm.y_matrix.toarray()[0, 0] == pytest.approx(1.0 / grid_impedance_pu(20.0, 500.0, 1.1), rel=1e-12)


def test_options_validation():
    with pytest.raises(InvalidOptionError):
        FaultStudyOptions(case="peak")
    with pytest.raises(InvalidOptionError):
        FaultStudyOptions(lv_tolerance_percent=8)
    for s_base_mva in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InvalidOptionError, match="s_base_mva"):
            FaultStudyOptions(s_base_mva=s_base_mva)
    with pytest.raises(InvalidOptionError):
        FaultStudyOptions(fault_buses=7)
    assert FaultStudyOptions(fault_buses=[3, 1]).fault_buses == (3, 1)
    # ids must be integers: a float or bool would silently name another bus
    for fault_buses in ([1.5], [True], ["a"], "12", b"12", bytearray(b"12")):
        with pytest.raises(InvalidOptionError, match="fault_buses"):
            FaultStudyOptions(fault_buses=fault_buses)
    assert FaultStudyOptions(fault_buses=np.array([1, 2])).fault_buses == (1, 2)
    assert FaultStudyOptions(fault_buses=[np.int32(4)]).fault_buses == (4,)
    with pytest.raises(InvalidOptionError, match="s_base_mva"):
        FaultStudyOptions(s_base_mva="x")
    for tolerance in (6.0, True, "6"):
        with pytest.raises(InvalidOptionError, match="lv_tolerance_percent"):
            FaultStudyOptions(lv_tolerance_percent=tolerance)
    options = FaultStudyOptions(lv_tolerance_percent=np.int64(6), s_base_mva=np.float32(2.0))
    assert type(options.lv_tolerance_percent) is int and type(options.s_base_mva) is float
    # "no" would count converters in; a number or None is no flag either
    for flag in ("no", "", 0, 1, 1.0, None):
        with pytest.raises(InvalidOptionError, match="consider_converters"):
            FaultStudyOptions(consider_converters=flag)
    for flag in (False, np.False_, True, np.True_):
        options = FaultStudyOptions(consider_converters=flag)
        assert type(options.consider_converters) is bool and options.consider_converters == flag
    # the options are the metadata of a result document
    doc = io.StringIO()
    write_result_json(calc_sc(three_bus_line_net(), FaultStudyOptions(consider_converters=np.False_)), doc)
    assert json.loads(doc.getvalue())["meta"]["consider_converters"] is False


# --- edge cases of fusion, liveness and islands ---------------------------------

def test_3w_transformer_with_two_dead_windings_adds_no_star_row():
    # the MV bus is out of service and the LV terminal is switched off: one
    # live winding cannot couple anything, so the star point is not a row
    net = Network(
        buses=[Bus(1, 110.0), Bus(2, 20.0, in_service=False), Bus(3, 0.4)],
        external_grids=[ExternalGrid(bus=1, s_sc_max_mva=3000.0)],
        transformers3w=[trafo3w()],
        switches=[Switch(bus=3, other=ElementRef("trafo3w", 0), closed=False)],
    )
    assert fusion(net).live["trafo3w"].tolist() == [False]
    bbm = build_bbm(net, FaultStudyOptions())
    assert bbm.n_aux == 0
    assert bbm.y_matrix.shape[0] == 1
    assert by_bus_id(net, bbm.bus_index) == {1: 0}
    assert bbm.y_matrix.toarray()[0, 0] == 1.0 / grid_impedance_pu(110.0, 3000.0, 1.1)


def test_descending_switch_chain_fuses_into_smallest_id_and_keeps_element_switch():
    # the chain 4-3-2-1 is listed from the largest id down; the open switch
    # cuts the line at bus 3, a member that is not the representative
    net = Network(
        buses=[Bus(b, 20.0) for b in (1, 2, 3, 4, 5, 6)],
        external_grids=[ExternalGrid(bus=1, s_sc_max_mva=500.0)],
        lines=[
            Line(3, 5, length_km=1.0, r_ohm_per_km=0.1, x_ohm_per_km=0.3),
            Line(4, 6, length_km=1.0, r_ohm_per_km=0.1, x_ohm_per_km=0.3),
        ],
        switches=[
            Switch(bus=4, other=3),
            Switch(bus=3, other=2),
            Switch(bus=2, other=1),
            Switch(bus=3, other=ElementRef("line", 0), closed=False),
        ],
    )
    fused = fusion(net)
    assert by_bus_id(net, fused.node) == {1: 0, 2: 0, 3: 0, 4: 0, 5: 1, 6: 2}
    assert fused.live["line"].tolist() == [False, True]
    bbm = build_bbm(net, FaultStudyOptions())
    assert by_bus_id(net, bbm.bus_index) == {1: 0, 2: 0, 3: 0, 4: 0, 6: 1}
    res = calc_sc(net)
    assert res.energized.tolist() == [True, True, True, True, False, True]


def test_fault_bus_fed_only_through_a_3w_star_point():
    # bus 4 hangs off the LV side; its only path to the grid at bus 1 runs
    # through the star point of the three-winding transformer
    net = Network(
        buses=[Bus(1, 110.0), Bus(2, 20.0), Bus(3, 0.4), Bus(4, 0.4)],
        external_grids=[ExternalGrid(bus=1, s_sc_max_mva=3000.0)],
        lines=[Line(3, 4, length_km=0.2, r_ohm_per_km=0.2, x_ohm_per_km=0.08)],
        transformers3w=[trafo3w()],
    )
    bbm = build_bbm(net, FaultStudyOptions())
    assert set(by_bus_id(net, bbm.bus_index)) == {1, 2, 3, 4}
    assert bbm.n_aux == 1
    res = calc_sc(net)
    assert res.energized.all()
    expected = oracle_calc(net)
    for i, b in enumerate(res.bus_ids.tolist()):
        assert res.ikss_ka[i] == pytest.approx(expected[b]["total_ka"], rel=1e-12)
    assert res.ikss_ka[3] > 0.0


# --- one read of the element tables ----------------------------------------

def read_counting(net: Network, reads: collections.Counter) -> Network:
    """A copy of ``net`` whose buses, lines and converters count every read
    of one of their fields in ``reads``, per (element, field)."""

    def counting(cls: type) -> type:
        fields = {f.name for f in dataclasses.fields(cls)}

        class Counted(cls):
            def __getattribute__(self, name):
                if name in fields:
                    reads[id(self), name] += 1
                return object.__getattribute__(self, name)

        return Counted

    counted_net = dataclasses.replace(net)
    for section, cls in (("buses", Bus), ("lines", Line), ("converter_sources", ConverterSource)):
        counted = counting(cls)
        setattr(counted_net, section, [counted(**dataclasses.asdict(el)) for el in getattr(net, section)])
    return counted_net


@pytest.mark.parametrize("case", ["max", "min"])
@pytest.mark.parametrize("seed", range(8))
def test_a_study_reads_each_bus_line_and_converter_field_once(seed, case):
    net = random_network(seed, max_buses=40, loops=2)
    reads = collections.Counter()
    counted = read_counting(net, reads)
    result = calc_sc(counted, FaultStudyOptions(case=case))
    assert result.ikss_ka.tolist() == calc_sc(net, FaultStudyOptions(case=case)).ikss_ka.tolist()
    elements = len(net.buses) + len(net.lines) + len(net.converter_sources)
    assert len({element for element, _ in reads}) == elements
    assert max(reads.values()) == 1


def test_a_valid_network_of_other_value_types_studies_like_its_plain_one():
    net = random_network(5, max_buses=40, loops=2)
    retyped = copy.deepcopy(net)
    retyped.buses[0].id = np.int32(net.buses[0].id)
    retyped.lines[0].from_bus = float(net.lines[0].from_bus)
    for line in retyped.lines:
        line.length_km = np.float64(line.length_km)
    for cs in retyped.converter_sources:
        cs.k = np.float64(cs.k)
    for case in ("max", "min"):
        plain, other = calc_sc(net, FaultStudyOptions(case=case)), calc_sc(retyped, FaultStudyOptions(case=case))
        assert other.bus_ids.tolist() == plain.bus_ids.tolist()
        assert other.ikss_ka.tolist() == plain.ikss_ka.tolist()
