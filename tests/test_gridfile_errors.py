"""The GridFileError message of every schema error branch, pinned.

Each malformed document below breaks one rule; SNAPSHOT holds the message
``network_from_dict`` gave for it when grid files were parsed one entry at
a time. A section that is parsed as whole columns must still report the
first error in document order, word for word, so the table also holds an
error in a late entry of a long section and documents with two errors.
"""
import copy
import json
import random

import pytest

from sccalc import GridFileError, network_from_dict, save_network, three_bus_example
from sccalc.cli import main
from sccalc.gridfile import _parse_entry
from sccalc.model import SECTIONS

from gridfiles import network_to_v1_dict
from netgen import random_network

BASE = {
    "version": 1,
    "name": "snapshot",
    "buses": [
        {"id": 1, "vn_kv": 110.0, "name": "hv"},
        {"id": 2, "vn_kv": 110.0},
        {"id": 3, "vn_kv": 20.0, "in_service": True},
        {"id": 4, "vn_kv": 20.0},
        {"id": 5, "vn_kv": 20.0},
        {"id": 6, "vn_kv": 10.0},
    ],
    "external_grids": [{"bus": 1, "s_sc_max_mva": 3000.0, "rx_max": 0.1}],
    "lines": [
        {"from_bus": 1, "to_bus": 2, "length_km": 10.0, "r_ohm_per_km": 0.1, "x_ohm_per_km": 0.4},
        {"from_bus": 3, "to_bus": 4, "length_km": 1, "r_ohm_per_km": 0.2, "x_ohm_per_km": 0.1},
        {"from_bus": 4, "to_bus": 5, "length_km": 2.0, "r_ohm_per_km": 0.2, "x_ohm_per_km": 0.1,
         "endtemp_degc": 90.0},
    ],
    "transformers2w": [
        {"hv_bus": 2, "lv_bus": 3, "sn_mva": 40.0, "vn_hv_kv": 110.0, "vn_lv_kv": 20.0, "vk_percent": 12.0},
    ],
    "transformers3w": [
        {"hv_bus": 2, "mv_bus": 4, "lv_bus": 6, "sn_hv_mva": 40.0, "sn_mv_mva": 30.0, "sn_lv_mva": 10.0,
         "vn_hv_kv": 110.0, "vn_mv_kv": 20.0, "vn_lv_kv": 10.0,
         "vk_hm_percent": 12.0, "vk_ml_percent": 8.0, "vk_hl_percent": 16.0},
    ],
    "converter_sources": [{"bus": 5, "sn_mva": 2.0, "k": 1.2}],
    "switches": [
        {"kind": "bus-bus", "bus": 4, "other": 5, "closed": False},
        {"kind": "bus-element", "bus": 3, "other": {"kind": "line", "index": 1}},
    ],
}


def _doc(**changes) -> dict:
    """BASE with ``changes``: section -> {entry index: {field: value}}; a
    value of ... deletes the field, and a non-dict replaces the entry."""
    doc = copy.deepcopy(BASE)
    for section, change in changes.items():
        for i, fields in change.items():
            if not isinstance(fields, dict):
                doc[section][i] = fields
                continue
            for key, value in fields.items():
                if value is ...:
                    del doc[section][i][key]
                else:
                    doc[section][i][key] = value
    return doc


def _long_buses(n: int, **bad) -> dict:
    """BASE with ``n`` extra 10 kV buses; ``bad`` maps an index of the bus
    section to its field changes."""
    doc = copy.deepcopy(BASE)
    doc["buses"] += [{"id": 100 + k, "vn_kv": 10.0, "name": f"b{k}"} for k in range(n)]
    for i, fields in bad.items():
        doc["buses"][int(i)].update(fields)
    return doc


def malformed_documents() -> dict:
    return {
        "root_not_object": [BASE],
        "unknown_section": {**BASE, "shunts": []},
        "missing_version": {k: v for k, v in BASE.items() if k != "version"},
        "unsupported_version": {**BASE, "version": "1"},
        "name_not_str": {**BASE, "name": 5},
        "section_not_array": {**BASE, "lines": {"from_bus": 1}},
        "entry_not_object": _doc(buses={1: [2, 110.0]}),
        "entry_is_null": _doc(converter_sources={0: None}),
        "unknown_field": _doc(lines={0: {"lenght_km": 3.0}}),
        "missing_required": _doc(buses={0: {"vn_kv": ...}}),
        "bool_is_int": _doc(buses={2: {"in_service": 1}}),
        "int_is_float": _doc(lines={0: {"from_bus": 1.0}}),
        "int_is_bool": _doc(buses={0: {"id": True}}),
        "int_is_str": _doc(external_grids={0: {"bus": "1"}}),
        "int_above_64_bits": _doc(buses={1: {"id": 2**63}}),
        "int_below_64_bits": _doc(transformers2w={0: {"lv_bus": -(2**63) - 1}}),
        "num_is_str": _doc(lines={0: {"length_km": "10"}}),
        "num_is_bool": _doc(lines={2: {"x_ohm_per_km": True}}),
        "num_is_null": _doc(external_grids={0: {"s_sc_min_mva": None}}),
        "num_is_list": _doc(transformers3w={0: {"vk_ml_percent": [8.0]}}),
        "num_too_large": _doc(lines={1: {"length_km": 10**400}}),
        "optional_num_too_large": _doc(lines={2: {"endtemp_degc": -(10**400)}}),
        "str_is_int": _doc(buses={0: {"name": 3}}),
        "str_is_null": _doc(buses={3: {"name": None}}),
        "trafo2w_num_is_null": _doc(transformers2w={0: {"vk_percent": None}}),
        "trafo3w_missing_field": _doc(transformers3w={0: {"vn_lv_kv": ...}}),
        "converter_num_is_str": _doc(converter_sources={0: {"k": "1.2"}}),
        "converter_bool_is_str": _doc(converter_sources={0: {"in_service": "true"}}),
        "switches_not_array": {**BASE, "switches": {"kind": "bus-bus"}},
        "switch_not_object": _doc(switches={0: "4-5"}),
        "switch_bad_kind": _doc(switches={0: {"kind": "bus-line"}}),
        "switch_missing_kind": _doc(switches={1: {"kind": ...}}),
        "switch_unknown_field": _doc(switches={0: {"open": True}}),
        "switch_missing_other": _doc(switches={0: {"other": ...}}),
        "switch_bus_is_float": _doc(switches={0: {"bus": 4.0}}),
        "switch_closed_is_int": _doc(switches={0: {"closed": 0}}),
        "switch_other_is_str": _doc(switches={0: {"other": "5"}}),
        "switch_ref_without_index": _doc(switches={1: {"other": {"kind": "line"}}}),
        "switch_ref_kind_is_int": _doc(switches={1: {"other": {"kind": 1, "index": 1}}}),
        "switch_ref_index_is_str": _doc(switches={1: {"other": {"kind": "line", "index": "1"}}}),
        "late_entry_of_long_section": _long_buses(600, **{"593": {"vn_kv": "10"}}),
        "late_entry_above_64_bits": _long_buses(600, **{"604": {"id": 2**64}}),
        "two_errors_type_then_missing": _long_buses(40, **{"9": {"name": 9}, "30": {"id": None}}),
        "two_errors_unknown_then_type": _long_buses(40, **{"12": {"voltage": 10.0}, "20": {"vn_kv": False}}),
        "two_errors_overflow_then_type": _doc(lines={1: {"r_ohm_per_km": 10**400}, 2: {"from_bus": "4"}}),
        "two_errors_in_one_entry_unknown_first": _doc(buses={4: {"vn_kv": "x", "zone": 1}}),
        "two_errors_in_one_entry_field_order": _doc(lines={2: {"to_bus": 5.0, "from_bus": ...}}),
        "two_errors_optional_then_required": _doc(lines={0: {"endtemp_degc": "hot"}, 1: {"x_ohm_per_km": ...}}),
        "two_sections_buses_first": _doc(lines={0: {"length_km": None}}, buses={5: {"vn_kv": None}}),
        "two_sections_lines_before_switches": _doc(lines={2: {"in_service": None}}, switches={0: {"bus": None}}),
        "name_before_sections": {**_doc(buses={0: {"id": None}}), "name": None},
    }


SNAPSHOT = {
    'root_not_object': 'document root must be an object, got list',
    'unknown_section': "document: unknown section 'shunts'",
    'missing_version': "document: missing required field 'version'",
    'unsupported_version': "document: unsupported version '1', expected 1 or 2",
    'name_not_str': 'document.name: expected str, got 5',
    'section_not_array': 'document.lines: expected an array',
    'entry_not_object': 'buses[1]: expected an object, got list',
    'entry_is_null': 'converter_sources[0]: expected an object, got NoneType',
    'unknown_field': "lines[0]: unknown field 'lenght_km'",
    'missing_required': "buses[0]: missing required field 'vn_kv'",
    'bool_is_int': 'buses[2].in_service: expected bool, got 1',
    'int_is_float': 'lines[0].from_bus: expected int, got 1.0',
    'int_is_bool': 'buses[0].id: expected int, got True',
    'int_is_str': "external_grids[0].bus: expected int, got '1'",
    'int_above_64_bits': 'buses[1].id: integer outside the 64-bit range',
    'int_below_64_bits': 'transformers2w[0].lv_bus: integer outside the 64-bit range',
    'num_is_str': "lines[0].length_km: expected num, got '10'",
    'num_is_bool': 'lines[2].x_ohm_per_km: expected num, got True',
    'num_is_null': 'external_grids[0].s_sc_min_mva: expected num, got None',
    'num_is_list': 'transformers3w[0].vk_ml_percent: expected num, got [8.0]',
    'num_too_large': 'lines[1].length_km: integer too large for a float',
    'optional_num_too_large': 'lines[2].endtemp_degc: integer too large for a float',
    'str_is_int': 'buses[0].name: expected str, got 3',
    'str_is_null': 'buses[3].name: expected str, got None',
    'trafo2w_num_is_null': 'transformers2w[0].vk_percent: expected num, got None',
    'trafo3w_missing_field': "transformers3w[0]: missing required field 'vn_lv_kv'",
    'converter_num_is_str': "converter_sources[0].k: expected num, got '1.2'",
    'converter_bool_is_str': "converter_sources[0].in_service: expected bool, got 'true'",
    'switches_not_array': 'document.switches: expected an array',
    'switch_not_object': 'switches[0]: expected an object, got str',
    'switch_bad_kind': "switches[0]: kind must be 'bus-bus' or 'bus-element', got 'bus-line'",
    'switch_missing_kind': "switches[1]: kind must be 'bus-bus' or 'bus-element', got None",
    'switch_unknown_field': "switches[0]: unknown field 'open'",
    'switch_missing_other': "switches[0]: missing required field 'other'",
    'switch_bus_is_float': 'switches[0].bus: expected int, got 4.0',
    'switch_closed_is_int': 'switches[0].closed: expected bool, got 0',
    'switch_other_is_str': "switches[0].other: expected int, got '5'",
    'switch_ref_without_index': "switches[1].other: expected an object with 'kind' and 'index'",
    'switch_ref_kind_is_int': 'switches[1].other.kind: expected str, got 1',
    'switch_ref_index_is_str': "switches[1].other.index: expected int, got '1'",
    'late_entry_of_long_section': "buses[593].vn_kv: expected num, got '10'",
    'late_entry_above_64_bits': 'buses[604].id: integer outside the 64-bit range',
    'two_errors_type_then_missing': 'buses[9].name: expected str, got 9',
    'two_errors_unknown_then_type': "buses[12]: unknown field 'voltage'",
    'two_errors_overflow_then_type': 'lines[1].r_ohm_per_km: integer too large for a float',
    'two_errors_in_one_entry_unknown_first': "buses[4]: unknown field 'zone'",
    'two_errors_in_one_entry_field_order': "lines[2]: missing required field 'from_bus'",
    'two_errors_optional_then_required': "lines[0].endtemp_degc: expected num, got 'hot'",
    'two_sections_buses_first': 'buses[5].vn_kv: expected num, got None',
    'two_sections_lines_before_switches': 'lines[2].in_service: expected bool, got None',
    'name_before_sections': 'document.name: expected str, got None',
}


@pytest.mark.parametrize("case", sorted(SNAPSHOT))
def test_error_message_matches_the_snapshot(case):
    with pytest.raises(GridFileError) as info:
        network_from_dict(malformed_documents()[case])
    assert str(info.value) == SNAPSHOT[case]


def test_snapshot_covers_every_document():
    assert sorted(malformed_documents()) == sorted(SNAPSHOT)
    assert network_from_dict(copy.deepcopy(BASE)).name == "snapshot"


_ODD_VALUES = [None, True, False, 0, -1, 2**63, -(2**63) - 1, 10**400, 1.5, float("nan"), "", "x", [], {}]


def _entry_by_entry(doc: dict) -> list:
    """The element sections of ``doc`` through the per-entry checker alone."""
    return [
        [cls(**_parse_entry(entry, section, f"{section}[{i}]")) for i, entry in enumerate(doc.get(section, []))]
        for section, cls in SECTIONS.items()
    ]


def _outcome(parse, doc):
    try:
        return parse(doc)
    except GridFileError as e:
        return str(e)


@pytest.mark.parametrize("seed", range(60))
def test_sections_parse_like_the_per_entry_checker(seed):
    rng = random.Random(seed)
    doc = network_to_v1_dict(random_network(seed, max_buses=30))
    doc["switches"] = []
    for _ in range(rng.randint(0, 3)):
        section = rng.choice([s for s in SECTIONS if doc[s]])
        entry = rng.choice(doc[section])
        roll = rng.random()
        if roll < 0.15:
            entry.pop(rng.choice(sorted(entry)))
        elif roll < 0.25:
            entry[rng.choice(["extra", "vn", "Id"])] = 1.0
        else:
            entry[rng.choice(sorted(entry))] = rng.choice(_ODD_VALUES)

    def parsed(d):
        net = network_from_dict(d)
        return [getattr(net, section) for section in SECTIONS]

    assert _outcome(parsed, doc) == _outcome(_entry_by_entry, doc)


@pytest.mark.parametrize("command", ["calc", "validate"])
def test_deeply_nested_json_is_a_grid_file_error(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: invalid JSON: ")
    assert "Traceback" not in captured.err and "RecursionError" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["calc", "validate"])
def test_a_deeply_nested_field_value_gives_a_bounded_message(tmp_path, capsys, command):
    # the name of a version 2 document as an array nested 900 deep: the
    # message shows the start of its repr and its length, not all of it
    path = tmp_path / "grid.json"
    save_network(three_bus_example(), path)
    doc = json.loads(path.read_text())
    assert doc["version"] == 2
    text = json.dumps(doc).replace(json.dumps(doc["name"]), "[" * 900 + "]" * 900, 1)
    path.write_text(text)
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: document.name: expected str, got {'[' * 60}... (1800 characters)\n"
