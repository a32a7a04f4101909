"""Tests for correction factors, element impedances, switch fusion and the
bus-branch model builder."""
import math
import random

import numpy as np
import pytest

from sccalc import (
    Bus,
    ConverterSource,
    ElementRef,
    ExternalGrid,
    FaultStudyOptions,
    InvalidDataError,
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
)
from sccalc.builder import (
    build_bbm,
    converter_current,
    external_grid_impedance,
    fuse_switches,
    line_impedance,
    star_decompose,
    three_winding_star,
    transformer_correction,
    transformer_impedance,
    voltage_correction_factor,
)

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


def test_c_factor_invalid_tolerance_at_lv():
    with pytest.raises(InvalidOptionError):
        voltage_correction_factor(0.4, 8, "max")


def test_c_factor_invalid_case():
    with pytest.raises(InvalidOptionError):
        voltage_correction_factor(20.0, 10, "peak")


def test_c_factor_boundary_at_1kv_is_lv():
    assert voltage_correction_factor(1.0, 6, "max") == 1.05


# --- external grid impedance ----------------------------------------------

def grid_eg(**kw):
    defaults = dict(bus=1, s_sc_max_mva=3000.0, s_sc_min_mva=3000.0, rx_max=0.0, rx_min=0.0)
    defaults.update(kw)
    return ExternalGrid(**defaults)


def test_external_grid_impedance_purely_inductive():
    z = external_grid_impedance(grid_eg(), 110.0, "max", c=1.1)
    assert z.real == 0.0
    assert z.imag == pytest.approx(4.436666666666667, rel=1e-12)


def test_external_grid_impedance_rx_split():
    z = external_grid_impedance(grid_eg(rx_max=0.1), 110.0, "max", c=1.1)
    assert z.real == pytest.approx(0.44146483338983195, rel=1e-12)
    assert z.imag == pytest.approx(4.414648333898319, rel=1e-12)
    # split preserves the magnitude
    assert abs(z) == pytest.approx(1.1 * 110.0**2 / 3000.0, rel=1e-12)


def test_external_grid_impedance_vanishes_for_stiff_grid():
    z = external_grid_impedance(grid_eg(s_sc_max_mva=1e15, s_sc_min_mva=1e15), 110.0, "max", c=1.1)
    assert abs(z) < 1e-7


def test_external_grid_impedance_uses_case_values():
    eg = grid_eg(s_sc_max_mva=3000.0, s_sc_min_mva=1500.0, rx_max=0.0, rx_min=0.3)
    z_max = external_grid_impedance(eg, 110.0, "max", c=1.1)
    z_min = external_grid_impedance(eg, 110.0, "min", c=1.0)
    assert abs(z_min) == pytest.approx(1.0 * 110.0**2 / 1500.0, rel=1e-12)
    assert z_max.real == 0.0 and z_min.real > 0.0


def test_external_grid_impedance_rejects_nonpositive_power():
    with pytest.raises(InvalidDataError):
        external_grid_impedance(grid_eg(s_sc_max_mva=0.0, s_sc_min_mva=0.0), 110.0, "max", c=1.1)


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

def test_transformer_correction_zero_reactance():
    assert transformer_correction(0.0, 1.05) == pytest.approx(0.9975, rel=1e-12)


def test_transformer_correction_typical():
    assert transformer_correction(0.1, 1.05) == pytest.approx(0.9410377358490565, rel=1e-12)


def test_transformer_correction_above_one():
    assert transformer_correction(0.06, 1.10) == pytest.approx(1.0086872586872586, rel=1e-12)


def trafo(**kw):
    defaults = dict(hv_bus=1, lv_bus=2, sn_mva=25.0, vn_hv_kv=110.0, vn_lv_kv=20.0,
                    vk_percent=6.0, vkr_percent=0.0)
    defaults.update(kw)
    return Transformer2W(**defaults)


def test_transformer_impedance_purely_inductive():
    z = transformer_impedance(trafo(), c_max_lv=1.05)
    assert z.real == 0.0
    assert z.imag == pytest.approx(0.05777027027027026, rel=1e-12)


def test_transformer_impedance_with_resistive_part():
    z = transformer_impedance(trafo(vkr_percent=1.0), c_max_lv=1.05)
    assert z.real == pytest.approx(0.009633060280935466, rel=1e-12)
    assert z.imag == pytest.approx(0.056989953177422226, rel=1e-12)


# --- three-winding star -----------------------------------------------------

def test_star_decompose_symmetric():
    z_h, z_m, z_l = star_decompose(0.1 + 0j, 0.1 + 0j, 0.1 + 0j)
    assert z_h == z_m == z_l == pytest.approx(0.05 + 0j)


def test_star_decompose_general():
    z_h, z_m, z_l = star_decompose(0.10 + 0j, 0.08 + 0j, 0.16 + 0j)
    assert z_h == pytest.approx(0.09 + 0j)
    assert z_m == pytest.approx(0.01 + 0j)
    assert z_l == pytest.approx(0.07 + 0j)


def test_star_decompose_keeps_negative_branches():
    z_h, z_m, z_l = star_decompose(0.10 + 0j, 0.08 + 0j, 0.30 + 0j)
    assert z_m == pytest.approx(-0.06 + 0j)


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
    r = vkr / 100.0
    x = math.sqrt(vk**2 - vkr**2) / 100.0
    return transformer_correction(x, c_max_lv) * complex(r, x) * s_base / min(sn_a, sn_b)


def test_three_winding_star_reproduces_corrected_pairwise_impedances():
    t = trafo3w()
    c_max_lv = 1.05
    z_h, z_m, z_l = three_winding_star(t, c_max_lv, s_base_mva=1.0)
    z_hm = corrected_pairwise(t.vk_hm_percent, t.vkr_hm_percent, t.sn_hv_mva, t.sn_mv_mva, c_max_lv, 1.0)
    z_ml = corrected_pairwise(t.vk_ml_percent, t.vkr_ml_percent, t.sn_mv_mva, t.sn_lv_mva, c_max_lv, 1.0)
    z_hl = corrected_pairwise(t.vk_hl_percent, t.vkr_hl_percent, t.sn_hv_mva, t.sn_lv_mva, c_max_lv, 1.0)
    # impedance between two star terminals with the third open
    assert z_h + z_m == pytest.approx(z_hm, rel=1e-10)
    assert z_m + z_l == pytest.approx(z_ml, rel=1e-10)
    assert z_h + z_l == pytest.approx(z_hl, rel=1e-10)


def test_three_winding_star_scales_with_study_base():
    t = trafo3w()
    z1 = three_winding_star(t, 1.05, s_base_mva=1.0)
    z10 = three_winding_star(t, 1.05, s_base_mva=10.0)
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
    fusion = fuse_switches(three_bus_line_net())
    assert fusion.node_of == {1: 1, 2: 2, 3: 3}
    assert fusion.severed == frozenset()


def test_fuse_closed_bus_bus_switch_merges_nodes():
    net = three_bus_line_net()
    net.switches.append(Switch(bus=2, other=1, closed=True))
    fusion = fuse_switches(net)
    assert fusion.node_of[1] == fusion.node_of[2] == 1
    bbm = build_bbm(net, FaultStudyOptions())
    assert bbm.n == 2  # one node fewer than buses


def test_fuse_open_bus_bus_switch_is_noop():
    net = three_bus_line_net()
    net.switches.append(Switch(bus=2, other=1, closed=False))
    assert fuse_switches(net).node_of == {1: 1, 2: 2, 3: 3}


def test_open_line_switch_severs_element():
    net = three_bus_line_net()
    net.switches.append(Switch(bus=2, other=ElementRef("line", 1), closed=False))
    fusion = fuse_switches(net)
    assert fusion.is_severed("line", 1, 2)
    assert ("line", 1) not in fusion.active
    assert ("line", 0) in fusion.active
    # bus 3 is in a dead island now
    bbm = build_bbm(net, FaultStudyOptions())
    assert 3 not in bbm.bus_index
    assert set(bbm.bus_index) == {1, 2}


def test_closed_element_switch_keeps_element_active():
    net = three_bus_line_net()
    net.switches.append(Switch(bus=2, other=ElementRef("line", 1), closed=True))
    assert ("line", 1) in fuse_switches(net).active


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
    reference = fuse_switches(net).node_of
    rng = random.Random(7)
    for _ in range(10):
        rng.shuffle(net.switches)
        assert fuse_switches(net).node_of == reference


def test_out_of_service_bus_is_not_fused():
    net = three_bus_line_net()
    net.buses[2].in_service = False
    net.switches.append(Switch(bus=2, other=3, closed=True))
    fusion = fuse_switches(net)
    assert 3 not in fusion.node_of
    assert fusion.node_of[2] == 2


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
    y_grid = 1.0 / (external_grid_impedance(net.external_grids[0], 110.0, "max", 1.1) / z_base)
    expected = np.array([[y_line + y_grid, -y_line], [-y_line, y_line]])
    assert np.allclose(bbm.y_matrix.toarray(), expected, rtol=1e-12, atol=0.0)
    assert bbm.bus_index == {1: 0, 2: 1}
    assert np.allclose(bbm.u_q, [1.1, 1.1])
    assert np.allclose(bbm.i_base_ka, 1.0 / (SQRT3 * 110.0))


def test_build_bbm_converter_injection_in_per_unit():
    net = Network(
        buses=[Bus(1, 20.0), Bus(2, 20.0)],
        external_grids=[ExternalGrid(bus=1, s_sc_max_mva=500.0)],
        lines=[Line(1, 2, length_km=1.0, r_ohm_per_km=0.1, x_ohm_per_km=0.1)],
        converter_sources=[ConverterSource(bus=2, sn_mva=5.0, k=1.0)],
    )
    bbm = build_bbm(net, FaultStudyOptions())
    assert bbm.i_kc[bbm.bus_index[2]] == pytest.approx(complex(0.0, -5.0), rel=1e-12)
    assert bbm.i_kc[bbm.bus_index[1]] == 0.0


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
    z_pu = transformer_impedance(trafo(), 1.10) / 25.0
    y = 1.0 / z_pu
    i, j = bbm.bus_index[1], bbm.bus_index[2]
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
    z_pu = transformer_impedance(trafo(), 1.10) / 25.0 * (20.0 / 21.0) ** 2
    y = 1.0 / z_pu
    i, j = bbm.bus_index[1], bbm.bus_index[2]
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


def test_build_bbm_three_winding_adds_auxiliary_node():
    net = Network(
        buses=[Bus(1, 110.0), Bus(2, 20.0), Bus(3, 0.4)],
        external_grids=[ExternalGrid(bus=1, s_sc_max_mva=3000.0)],
        transformers3w=[trafo3w()],
    )
    bbm = build_bbm(net, FaultStudyOptions())
    assert bbm.n_aux == 1
    assert bbm.n == 4
    assert set(bbm.bus_index.values()) == {0, 1, 2}


def test_build_bbm_lv_side_c_factor_follows_tolerance():
    def busbar_x(tolerance):
        net = Network(
            buses=[Bus(1, 20.0), Bus(2, 0.4)],
            external_grids=[ExternalGrid(bus=1, s_sc_max_mva=500.0)],
            transformers2w=[trafo(vn_hv_kv=20.0, vn_lv_kv=0.4, sn_mva=0.63)],
        )
        bbm = build_bbm(net, FaultStudyOptions(lv_tolerance_percent=tolerance))
        j = bbm.bus_index[2]
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


def test_build_bbm_rejects_zero_impedance_star_branch():
    # pairwise reactances tuned so one corrected star branch cancels exactly
    c_max_lv = 1.10
    x = 0.05
    k = transformer_correction(x, c_max_lv)
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
    with pytest.raises(SingularStampError):
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
    bbm = build_bbm(net, FaultStudyOptions())
    assert set(bbm.bus_index) == {2, 3}
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
    assert bbm.n == 1
    # only the external grid shunt remains in the matrix
    z_q = external_grid_impedance(net.external_grids[0], 20.0, "max", 1.1) / (20.0**2 / 1.0)
    assert bbm.y_matrix.toarray()[0, 0] == pytest.approx(1.0 / z_q, rel=1e-12)


def test_options_validation():
    with pytest.raises(InvalidOptionError):
        FaultStudyOptions(case="peak")
    with pytest.raises(InvalidOptionError):
        FaultStudyOptions(lv_tolerance_percent=8)
    with pytest.raises(InvalidOptionError):
        FaultStudyOptions(s_base_mva=0.0)
    with pytest.raises(InvalidOptionError):
        FaultStudyOptions(fault_buses=7)
    assert FaultStudyOptions(fault_buses=[3, 1]).fault_buses == (3, 1)
