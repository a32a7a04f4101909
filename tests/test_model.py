"""Tests for the element-based grid model and its validation."""
import dataclasses
import math

import pytest

from sccalc import (
    Bus,
    ConverterSource,
    ElementRef,
    ExternalGrid,
    Line,
    Network,
    Switch,
    Transformer2W,
    Transformer3W,
    Violation,
    validate,
)
from sccalc.model import SECTIONS, _field_specs

from netgen import random_network


def minimal_network() -> Network:
    return Network(
        buses=[Bus(1, 110.0, "A"), Bus(2, 110.0, "B")],
        external_grids=[ExternalGrid(bus=1, s_sc_max_mva=3000.0)],
        lines=[Line(1, 2, length_km=10.0, r_ohm_per_km=0.1, x_ohm_per_km=0.4)],
    )


def test_minimal_network_is_valid():
    assert validate(minimal_network()) == []


def test_zero_length_line_is_one_violation():
    net = minimal_network()
    net.lines[0].length_km = 0.0
    violations = validate(net)
    assert len(violations) == 1
    v = violations[0]
    assert v.element == "lines[0]"
    assert v.field == "length_km"
    assert v.rule == "length_km > 0"


def test_vkr_equal_vk_is_rejected():
    net = minimal_network()
    net.buses.append(Bus(3, 20.0))
    net.transformers2w.append(
        Transformer2W(hv_bus=2, lv_bus=3, sn_mva=25.0, vn_hv_kv=110.0, vn_lv_kv=20.0,
                      vk_percent=6.0, vkr_percent=6.0)
    )
    violations = validate(net)
    assert len(violations) == 1
    assert violations[0].element == "transformers2w[0]"
    assert "vkr" in violations[0].rule and "vk" in violations[0].rule


def test_duplicate_bus_ids():
    net = minimal_network()
    net.buses.append(Bus(1, 110.0, "dup"))
    assert any("not unique" in v.rule for v in validate(net))


def test_nonpositive_bus_voltage():
    net = minimal_network()
    net.buses[0].vn_kv = 0.0
    assert any(v.field == "vn_kv" for v in validate(net))


def test_unknown_bus_reference():
    net = minimal_network()
    net.converter_sources.append(ConverterSource(bus=99, sn_mva=1.0, k=1.0))
    violations = validate(net)
    assert any(v.element == "converter_sources[0]" and "99" in v.rule for v in violations)


def test_line_with_both_impedances_zero():
    net = minimal_network()
    net.lines[0].r_ohm_per_km = 0.0
    net.lines[0].x_ohm_per_km = 0.0
    assert any("both" in v.rule for v in validate(net))


def test_line_endtemp_below_reference():
    net = minimal_network()
    net.lines[0].endtemp_degc = 10.0
    assert any(v.field == "endtemp_degc" for v in validate(net))


def test_line_between_different_voltage_levels():
    net = minimal_network()
    net.buses[1].vn_kv = 20.0
    assert any("equal vn_kv" in v.rule for v in validate(net))


def test_external_grid_power_ordering():
    net = minimal_network()
    net.external_grids[0].s_sc_min_mva = 5000.0
    assert any(v.field == "s_sc_max_mva" for v in validate(net))


def test_external_grid_negative_rx():
    net = minimal_network()
    net.external_grids[0].rx_min = -0.1
    assert any(v.field == "rx_min" for v in validate(net))


def test_external_grid_defaults_mirror_max_values():
    eg = ExternalGrid(bus=1, s_sc_max_mva=1000.0, rx_max=0.2)
    assert eg.s_sc_min_mva == 1000.0
    assert eg.rx_min == 0.2


def test_converter_negative_k():
    net = minimal_network()
    net.converter_sources.append(ConverterSource(bus=1, sn_mva=1.0, k=-0.5))
    assert any(v.field == "k" for v in validate(net))


def test_trafo3w_vkr_bounds():
    net = minimal_network()
    net.buses += [Bus(3, 20.0), Bus(4, 0.4)]
    net.transformers3w.append(
        Transformer3W(
            hv_bus=2, mv_bus=3, lv_bus=4,
            sn_hv_mva=25.0, sn_mv_mva=15.0, sn_lv_mva=10.0,
            vn_hv_kv=110.0, vn_mv_kv=20.0, vn_lv_kv=0.4,
            vk_hm_percent=10.0, vk_ml_percent=6.0, vk_hl_percent=16.0,
            vkr_ml_percent=6.5,
        )
    )
    violations = validate(net)
    assert any(v.field == "vkr_ml_percent" for v in violations)


def test_switch_between_levels_rejected():
    net = minimal_network()
    net.buses.append(Bus(3, 20.0))
    net.switches.append(Switch(bus=1, other=3))
    assert any("equal vn_kv" in v.rule for v in validate(net))


def test_switch_element_must_exist():
    net = minimal_network()
    net.switches.append(Switch(bus=1, other=ElementRef("line", 5), closed=False))
    assert any("does not exist" in v.rule for v in validate(net))


def test_switch_bus_must_be_element_terminal():
    net = minimal_network()
    net.buses.append(Bus(3, 110.0))
    net.lines.append(Line(2, 3, length_km=1.0, r_ohm_per_km=0.1, x_ohm_per_km=0.4))
    net.switches.append(Switch(bus=1, other=ElementRef("line", 1), closed=False))
    assert any("not a terminal" in v.rule for v in validate(net))


def test_switch_kind_property():
    assert Switch(bus=1, other=2).kind == "bus-bus"
    assert Switch(bus=1, other=ElementRef("line", 0)).kind == "bus-element"


def test_network_requires_external_grid():
    net = minimal_network()
    net.external_grids.clear()
    violations = validate(net)
    assert any(v.element == "network" for v in violations)


def test_validate_is_idempotent():
    nets = [minimal_network()]
    broken = minimal_network()
    broken.lines[0].length_km = -2.0
    broken.buses[0].vn_kv = -1.0
    nets.append(broken)
    nets += [random_network(seed) for seed in range(10)]
    for net in nets:
        assert validate(net) == validate(net)


@pytest.mark.parametrize("seed", range(25))
def test_random_networks_are_valid(seed):
    assert validate(random_network(seed)) == []


def test_element_terminals_lookup():
    net = minimal_network()
    assert net.element_terminals("line", 0) == (1, 2)
    with pytest.raises(KeyError):
        net.element_terminals("shunt", 0)


def every_section_network() -> Network:
    """A valid network with one element in each element section."""
    return Network(
        buses=[Bus(1, 110.0), Bus(2, 110.0), Bus(3, 20.0), Bus(4, 10.0)],
        external_grids=[ExternalGrid(bus=1, s_sc_max_mva=3000.0, s_sc_min_mva=2500.0, rx_max=0.1, rx_min=0.1)],
        lines=[Line(1, 2, length_km=10.0, r_ohm_per_km=0.1, x_ohm_per_km=0.4)],
        transformers2w=[
            Transformer2W(hv_bus=2, lv_bus=3, sn_mva=25.0, vn_hv_kv=110.0, vn_lv_kv=20.0,
                          vk_percent=12.0, vkr_percent=0.5)
        ],
        transformers3w=[
            Transformer3W(
                hv_bus=1, mv_bus=3, lv_bus=4,
                sn_hv_mva=40.0, sn_mv_mva=25.0, sn_lv_mva=15.0,
                vn_hv_kv=110.0, vn_mv_kv=20.0, vn_lv_kv=10.0,
                vk_hm_percent=12.0, vk_ml_percent=8.0, vk_hl_percent=18.0,
                vkr_hm_percent=0.4, vkr_ml_percent=0.3, vkr_hl_percent=0.5,
            )
        ],
        converter_sources=[ConverterSource(bus=3, sn_mva=5.0, k=1.2)],
    )


FLOAT_FIELDS = {
    "buses": ("vn_kv",),
    "external_grids": ("s_sc_max_mva", "s_sc_min_mva", "rx_max", "rx_min"),
    "lines": ("length_km", "r_ohm_per_km", "x_ohm_per_km", "endtemp_degc"),
    "transformers2w": ("sn_mva", "vn_hv_kv", "vn_lv_kv", "vk_percent", "vkr_percent"),
    "transformers3w": (
        "sn_hv_mva", "sn_mv_mva", "sn_lv_mva", "vn_hv_kv", "vn_mv_kv", "vn_lv_kv",
        "vk_hm_percent", "vk_ml_percent", "vk_hl_percent",
        "vkr_hm_percent", "vkr_ml_percent", "vkr_hl_percent",
    ),
    "converter_sources": ("sn_mva", "k"),
}


def test_every_section_network_is_valid():
    assert validate(every_section_network()) == []


def test_float_field_list_matches_the_element_classes():
    for section, cls in SECTIONS.items():
        floats = tuple(f.name for f in dataclasses.fields(cls) if f.type in ("float", "float | None"))
        assert floats == FLOAT_FIELDS[section]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "section,name", [(section, name) for section, names in FLOAT_FIELDS.items() for name in names]
)
def test_non_finite_number_is_a_violation(section, name, value):
    net = every_section_network()
    setattr(getattr(net, section)[0], name, value)
    finite = [v for v in validate(net) if v.rule.endswith("must be finite")]
    assert finite == [Violation(f"{section}[0]", name, f"{name} must be finite")]


def test_unsupported_field_annotation_is_rejected():
    # string annotations, as the postponed annotations of sccalc.model give
    @dataclasses.dataclass
    class Shunt:
        bus: "int"
        y_pu: "complex"

    with pytest.raises(TypeError, match=r"Shunt\.y_pu"):
        _field_specs(Shunt)
