"""Tests for the element-based grid model and its validation."""
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    ValidationError,
    Violation,
    calc_sc,
    validate,
)
from sccalc.model import SECTIONS, _field_specs

from netgen import random_network
from rules import check_each


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


@pytest.mark.parametrize("value", ["10", None, 1j], ids=["str", "None", "complex"])
@pytest.mark.parametrize(
    "section,name", [(section, name) for section, names in FLOAT_FIELDS.items() for name in names]
)
def test_non_number_is_a_violation(section, name, value):
    net = every_section_network()
    setattr(getattr(net, section)[0], name, value)
    assert validate(net) == [Violation(f"{section}[0]", name, f"{name} must be a number")]
    with pytest.raises(ValidationError, match=f"{name} must be a number"):
        calc_sc(net)


@pytest.mark.parametrize("bus_id", [2**63, -(2**63) - 1, 2**100])
def test_bus_id_outside_64_bits_is_a_violation(bus_id):
    net = minimal_network()
    net.buses[1].id = net.lines[0].to_bus = bus_id
    assert validate(net) == [Violation("buses[1]", "id", f"id {bus_id} is outside the 64-bit range")]
    with pytest.raises(ValidationError, match=r"buses\[1\]: id .* is outside the 64-bit range"):
        calc_sc(net)
    net.buses[1].id = net.lines[0].to_bus = bus_id // 2**40
    assert validate(net) == []


def malformed_bus_id(net, bus_id):
    net.buses[1].id = net.lines[0].to_bus = bus_id


def malformed_switch(net, other):
    net.switches.append(Switch(bus=1, other=other))


@pytest.mark.parametrize(
    "malform,value,violation",
    [
        (malformed_bus_id, 1.5, ("buses[1]", "id", "id must be an integer")),
        (malformed_bus_id, "a", ("buses[1]", "id", "id must be an integer")),
        (malformed_switch, 2.0, ("switches[0]", "other", "other must be an int bus id or an ElementRef")),
        (malformed_switch, "x", ("switches[0]", "other", "other must be an int bus id or an ElementRef")),
        (malformed_switch, ElementRef("line", 0.0), ("switches[0]", "other", "element index must be an integer")),
    ],
    ids=["float bus id", "str bus id", "float switch other", "str switch other", "float element index"],
)
def test_malformed_id_is_one_violation(malform, value, violation):
    net = minimal_network()
    malform(net, value)
    assert validate(net) == [Violation(*violation)]
    with pytest.raises(ValidationError, match=re.escape(str(Violation(*violation)))):
        calc_sc(net)


@pytest.mark.parametrize("bus_id", [np.int64(7), np.int32(-7), -(2**63), 2**63 - 1])
def test_numpy_and_64_bit_edge_bus_ids_are_valid(bus_id):
    net = minimal_network()
    malformed_bus_id(net, bus_id)
    malformed_switch(net, ElementRef("line", np.int64(0)))
    assert validate(net) == []


def test_unhashable_bus_id_is_one_violation():
    net = minimal_network()
    net.buses.append(Bus([2], 110.0))
    assert validate(net) == [Violation("buses[2]", "id", "id must be an integer")]
    with pytest.raises(ValidationError, match=r"buses\[2\]: id must be an integer"):
        calc_sc(net)


@pytest.mark.parametrize("section", ["external_grids", "lines", "switches"])
def test_unhashable_bus_reference_is_one_violation(section):
    net = minimal_network()
    if section == "switches":
        net.switches.append(Switch(bus=[1], other=2))
        violation = Violation("switches[0]", "bus", "bus references unknown bus [1]")
    elif section == "lines":
        net.lines[0] = Line(1, [2], length_km=10.0, r_ohm_per_km=0.1, x_ohm_per_km=0.4)
        violation = Violation("lines[0]", "to_bus", "to_bus references unknown bus [2]")
    else:
        net.external_grids.append(ExternalGrid(bus=[2], s_sc_max_mva=100.0))
        violation = Violation("external_grids[1]", "bus", "bus references unknown bus [2]")
    assert validate(net) == [violation]
    with pytest.raises(ValidationError, match=re.escape(str(violation))):
        calc_sc(net)


def flagged_elements(net: Network) -> list:
    """(section, element) of every element that holds a bool flag, one per
    section; a switch for ``closed``."""
    net.switches.append(Switch(bus=1, other=ElementRef("line", 0), closed=True))
    return [(section, getattr(net, section)[0]) for section in (*SECTIONS, "switches")]


@pytest.mark.parametrize("value", ["no", None, 0, 1.0], ids=["str", "None", "int", "float"])
@pytest.mark.parametrize("section", [*SECTIONS, "switches"])
def test_flag_that_is_no_bool_is_a_violation(section, value):
    net = every_section_network()
    element = dict(flagged_elements(net))[section]
    name = "closed" if section == "switches" else "in_service"
    setattr(element, name, value)
    violation = Violation(f"{section}[0]", name, f"{name} must be a bool")
    assert validate(net) == [violation]
    with pytest.raises(ValidationError, match=re.escape(str(violation))):
        calc_sc(net)


def test_every_flag_is_checked():
    net = every_section_network()
    for section, element in flagged_elements(net):
        for field in dataclasses.fields(element):
            if field.type == "bool":
                setattr(element, field.name, "yes")
    assert [v.field for v in validate(net)] == ["in_service"] * len(SECTIONS) + ["closed"]


@pytest.mark.parametrize("name", [None, 5, b"B"], ids=["None", "int", "bytes"])
def test_bus_name_that_is_no_str_is_a_violation(name):
    net = minimal_network()
    net.buses[1].name = name
    assert validate(net) == [Violation("buses[1]", "name", "name must be a string")]
    with pytest.raises(ValidationError, match=r"buses\[1\]: name must be a string"):
        calc_sc(net)


def test_unsupported_field_annotation_is_rejected():
    # string annotations, as the postponed annotations of sccalc.model give
    @dataclasses.dataclass
    class Shunt:
        bus: "int"
        y_pu: "complex"

    with pytest.raises(TypeError, match=r"Shunt\.y_pu"):
        _field_specs(Shunt)


def rule_breaking_network() -> Network:
    """Breaks every validation rule of every section at least once; some
    elements break several rules at the same time."""
    return Network(
        buses=[Bus(1, 110.0), Bus(1, 20.0), Bus(2, 0.0), Bus(3, 20.0), Bus(4, math.nan), Bus(5, 0.4)],
        external_grids=[
            ExternalGrid(bus=99, s_sc_max_mva=10.0, s_sc_min_mva=20.0, rx_max=-0.1, rx_min=-0.2),
            ExternalGrid(bus=1, s_sc_max_mva=math.inf, s_sc_min_mva=-1.0),
        ],
        lines=[
            Line(1, 98, length_km=0.0, r_ohm_per_km=-1.0, x_ohm_per_km=-1.0, endtemp_degc=10.0),
            Line(97, 3, length_km=1.0, r_ohm_per_km=0.0, x_ohm_per_km=0.0),
            Line(1, 3, length_km=1.0, r_ohm_per_km=0.1, x_ohm_per_km=0.4),
            Line(3, 5, length_km=math.nan, r_ohm_per_km=0.1, x_ohm_per_km=math.inf),
        ],
        transformers2w=[
            Transformer2W(96, 95, sn_mva=0.0, vn_hv_kv=0.0, vn_lv_kv=-1.0, vk_percent=5.0, vkr_percent=6.0),
            Transformer2W(1, 3, sn_mva=10.0, vn_hv_kv=110.0, vn_lv_kv=20.0, vk_percent=101.0),
            Transformer2W(1, 3, sn_mva=10.0, vn_hv_kv=110.0, vn_lv_kv=20.0, vk_percent=5.0, vkr_percent=-1.0),
        ],
        transformers3w=[
            Transformer3W(94, 93, 92, 0.0, -1.0, 0.0, 0.0, 0.0, -1.0, 5.0, 5.0, 5.0, 6.0, -1.0, 5.0),
            Transformer3W(1, 3, 5, 40.0, 20.0, 10.0, 110.0, 20.0, 0.4, 10.0, math.nan, 12.0, 0.5, 0.5, 12.0),
        ],
        converter_sources=[
            ConverterSource(bus=91, sn_mva=0.0, k=-1.0),
            ConverterSource(bus=1, sn_mva=math.nan, k=1.0),
        ],
        switches=[
            Switch(bus=90, other=89),
            Switch(bus=1, other=3),
            Switch(bus=88, other=ElementRef("line", 0)),
            Switch(bus=1, other=ElementRef("cable", 0)),
            Switch(bus=1, other=ElementRef("line", 99)),
            Switch(bus=5, other=ElementRef("trafo2w", 1)),
            Switch(bus=1, other=ElementRef("line", -1), closed=False),
            Switch(bus=3, other=ElementRef("trafo3w", 1), closed=False),
        ],
    )


def no_grid_network() -> Network:
    return Network(buses=[Bus(1, 110.0), Bus(1, 110.0)], switches=[Switch(bus=1, other=2)])


def non_number_network() -> Network:
    net = rule_breaking_network()
    net.lines[2].length_km = "10"
    net.converter_sources[0].k = None
    return net


# the violation lists these networks give, recorded before validate was
# restructured: same elements, fields, rules and order
VALIDATE_SNAPSHOTS = {
    "rule_breaking": (rule_breaking_network, [
        ("buses[4]", "vn_kv", "vn_kv must be finite"),
        ("external_grids[1]", "s_sc_max_mva", "s_sc_max_mva must be finite"),
        ("lines[3]", "length_km", "length_km must be finite"),
        ("lines[3]", "x_ohm_per_km", "x_ohm_per_km must be finite"),
        ("transformers3w[1]", "vk_ml_percent", "vk_ml_percent must be finite"),
        ("converter_sources[1]", "sn_mva", "sn_mva must be finite"),
        ("buses[1]", "id", "id 1 is not unique"),
        ("buses[2]", "vn_kv", "vn_kv > 0"),
        ("buses[4]", "vn_kv", "vn_kv > 0"),
        ("external_grids[0]", "bus", "bus references unknown bus 99"),
        ("external_grids[0]", "s_sc_max_mva", "s_sc_max_mva >= s_sc_min_mva"),
        ("external_grids[0]", "rx_max", "rx_max >= 0"),
        ("external_grids[0]", "rx_min", "rx_min >= 0"),
        ("external_grids[1]", "s_sc_min_mva", "s_sc_min_mva > 0"),
        ("lines[0]", "to_bus", "to_bus references unknown bus 98"),
        ("lines[0]", "length_km", "length_km > 0"),
        ("lines[0]", "r_ohm_per_km", "r_ohm_per_km >= 0"),
        ("lines[0]", "x_ohm_per_km", "x_ohm_per_km >= 0"),
        ("lines[0]", "endtemp_degc", "endtemp_degc >= 20"),
        ("lines[1]", "from_bus", "from_bus references unknown bus 97"),
        ("lines[1]", "r_ohm_per_km", "r_ohm_per_km and x_ohm_per_km must not both be zero"),
        ("lines[2]", "to_bus", "from_bus and to_bus must have equal vn_kv"),
        ("lines[3]", "length_km", "length_km > 0"),
        ("lines[3]", "to_bus", "from_bus and to_bus must have equal vn_kv"),
        ("transformers2w[0]", "hv_bus", "hv_bus references unknown bus 96"),
        ("transformers2w[0]", "lv_bus", "lv_bus references unknown bus 95"),
        ("transformers2w[0]", "sn_mva", "sn_mva > 0"),
        ("transformers2w[0]", "vkr_percent", "0 <= vkr_percent < vk_percent <= 100"),
        ("transformers2w[0]", "vn_hv_kv", "vn_hv_kv > 0"),
        ("transformers2w[0]", "vn_lv_kv", "vn_lv_kv > 0"),
        ("transformers2w[1]", "vkr_percent", "0 <= vkr_percent < vk_percent <= 100"),
        ("transformers2w[2]", "vkr_percent", "0 <= vkr_percent < vk_percent <= 100"),
        ("transformers3w[0]", "hv_bus", "hv_bus references unknown bus 94"),
        ("transformers3w[0]", "mv_bus", "mv_bus references unknown bus 93"),
        ("transformers3w[0]", "lv_bus", "lv_bus references unknown bus 92"),
        ("transformers3w[0]", "sn_hv_mva", "sn_hv_mva > 0"),
        ("transformers3w[0]", "sn_mv_mva", "sn_mv_mva > 0"),
        ("transformers3w[0]", "sn_lv_mva", "sn_lv_mva > 0"),
        ("transformers3w[0]", "vkr_hm_percent", "0 <= vkr_hm_percent < vk_hm_percent"),
        ("transformers3w[0]", "vkr_ml_percent", "0 <= vkr_ml_percent < vk_ml_percent"),
        ("transformers3w[0]", "vkr_hl_percent", "0 <= vkr_hl_percent < vk_hl_percent"),
        ("transformers3w[0]", "vn_hv_kv", "vn_hv_kv > 0"),
        ("transformers3w[0]", "vn_mv_kv", "vn_mv_kv > 0"),
        ("transformers3w[0]", "vn_lv_kv", "vn_lv_kv > 0"),
        ("transformers3w[1]", "vkr_ml_percent", "0 <= vkr_ml_percent < vk_ml_percent"),
        ("transformers3w[1]", "vkr_hl_percent", "0 <= vkr_hl_percent < vk_hl_percent"),
        ("converter_sources[0]", "bus", "bus references unknown bus 91"),
        ("converter_sources[0]", "sn_mva", "sn_mva > 0"),
        ("converter_sources[0]", "k", "k >= 0"),
        ("converter_sources[1]", "sn_mva", "sn_mva > 0"),
        ("switches[0]", "bus", "bus references unknown bus 90"),
        ("switches[0]", "other", "other references unknown bus 89"),
        ("switches[1]", "other", "bus-bus switches must connect buses of equal vn_kv"),
        ("switches[2]", "bus", "bus references unknown bus 88"),
        ("switches[3]", "other", "element kind must be one of ('line', 'trafo2w', 'trafo3w')"),
        ("switches[4]", "other", "line[99] does not exist"),
        ("switches[5]", "bus", "bus 5 is not a terminal of trafo2w[1]"),
        ("switches[6]", "other", "line[-1] does not exist"),
    ]),
    "no_grid": (no_grid_network, [
        ("buses[1]", "id", "id 1 is not unique"),
        ("switches[0]", "other", "other references unknown bus 2"),
        ("network", "external_grids", "at least one ExternalGrid is required for a solvable study"),
    ]),
    "non_number": (non_number_network, [
        ("buses[4]", "vn_kv", "vn_kv must be finite"),
        ("external_grids[1]", "s_sc_max_mva", "s_sc_max_mva must be finite"),
        ("lines[2]", "length_km", "length_km must be a number"),
        ("lines[3]", "length_km", "length_km must be finite"),
        ("lines[3]", "x_ohm_per_km", "x_ohm_per_km must be finite"),
        ("transformers3w[1]", "vk_ml_percent", "vk_ml_percent must be finite"),
        ("converter_sources[1]", "sn_mva", "sn_mva must be finite"),
        ("converter_sources[0]", "k", "k must be a number"),
    ]),
}


@pytest.mark.parametrize("name", list(VALIDATE_SNAPSHOTS))
def test_validate_matches_the_recorded_violation_list(name):
    make, expected = VALIDATE_SNAPSHOTS[name]
    assert validate(make()) == [Violation(*v) for v in expected]


@pytest.mark.parametrize("other", [np.int64(3), np.int32(3), 3], ids=["int64", "int32", "int"])
def test_numpy_integer_switch_end_is_a_bus_bus_switch(other):
    net = minimal_network()
    net.buses.append(Bus(3, 110.0, "C"))
    net.switches.append(Switch(bus=2, other=other))
    assert net.switches[0].kind == "bus-bus"
    assert validate(net) == []
    fused = calc_sc(net)
    net.switches[0].other = 3
    reference = calc_sc(net)
    assert fused.ikss_ka.tolist() == reference.ikss_ka.tolist()
    assert fused.ikss_ka[1] == fused.ikss_ka[2]


def test_a_bool_switch_end_stays_a_bus_bus_switch():
    assert Switch(bus=2, other=True).kind == "bus-bus"


def corruptions(net: Network, value) -> list:
    """Values that break, or only retype, the value of one field: those the
    typed read refuses and those whose value breaks a rule, which
    ``validate`` must name as the element-by-element reference does."""
    ids = [bus.id for bus in net.buses]
    number = value if type(value) in (int, float) else 1
    return [
        math.nan, math.inf, -math.inf, "1", None, True, False, [value],
        np.float64(number), np.float32(number), np.int64(int(number)), np.bool_(True),
        -abs(number) - 1, 0, 0.0, 150.0, 1e6, float(int(number)), 2**63, -(2**63) - 1,
        # a duplicate id or a known reference, an unknown one, and one given
        # as a float
        ids[0], ids[-1], max(ids) + 1, float(ids[-1]),
        ElementRef("line", 0), ElementRef("cable", 0), ElementRef("line", len(net.lines)),
        ElementRef("line", -1), ElementRef("line", np.int64(0)), ElementRef("line", 0.0),
        ElementRef("trafo2w", 0), ElementRef("trafo3w", 0),
    ]


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 200), data=st.data())
def test_validate_equals_the_element_by_element_rules_under_any_one_corruption(seed, data):
    """Every field of one drawn element per section takes every corruption
    in turn, on a random network."""
    net = random_network(seed)
    for section in (*SECTIONS, "switches"):
        elements = getattr(net, section)
        if not elements:
            continue
        element = data.draw(st.sampled_from(elements))
        for f in dataclasses.fields(element):
            value = getattr(element, f.name)
            for corrupt in corruptions(net, value):
                setattr(element, f.name, corrupt)
                assert validate(net) == check_each(net), (section, f.name, corrupt)
            setattr(element, f.name, value)
    assert validate(net) == check_each(net) == []


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 200), data=st.data())
def test_validate_equals_the_element_by_element_rules_under_two_corruptions(seed, data):
    """Two fields of elements in different sections corrupted at once: a
    value of another type in one (which refuses the read) and one of the
    field's type in the other, or values of the fields' types in both, so
    that the type rules and the value rules, and the rules of two sections,
    are listed together."""
    net = random_network(seed)
    fields = [
        (section, element, f.name)
        for section in (*SECTIONS, "switches")
        for element in getattr(net, section)
        for f in dataclasses.fields(element)
    ]
    for _ in range(40):
        first = data.draw(st.sampled_from(fields))
        second = data.draw(st.sampled_from([x for x in fields if x[0] != first[0]]))
        retype = data.draw(st.booleans())
        values = [getattr(element, name) for _, element, name in (first, second)]
        # (listed before either field changes: the corruptions read the bus ids)
        retyped = [c for c in corruptions(net, values[0]) if (type(c) is not type(values[0])) is retype]
        typed = [c for c in corruptions(net, values[1]) if type(c) is type(values[1])]
        drawn = data.draw(st.sampled_from(retyped)), data.draw(st.sampled_from(typed))
        for (_, element, name), corrupt in zip((first, second), drawn):
            setattr(element, name, corrupt)
        assert validate(net) == check_each(net), (first[0], first[2], second[0], second[2], drawn)
        for (_, element, name), value in zip((first, second), values):
            setattr(element, name, value)
    assert validate(net) == check_each(net) == []
