"""Grid documents of version 2, one array per field column, against
version 1, one object per element: both load to the same network, version
2 round-trips, and a bad value in a column names its entry with the message
version 1 gives for it."""
import copy
import importlib.util
import json
import pathlib
import random

import pytest

from sccalc import (
    GridFileError,
    generate_radial_grid,
    load_network,
    network_from_dict,
    network_to_dict,
    save_network,
    three_bus_example,
    wind_park_example,
)
from sccalc.gridfile import GRID_FILE_VERSION
from sccalc.model import SECTIONS

from gridfiles import network_to_v1_dict, to_v1
from netgen import random_network

ROOT = pathlib.Path(__file__).resolve().parent.parent
SHIPPED_GRIDS = sorted((ROOT / "grids").glob("*.json"))


def _benchmark_grids():
    spec = importlib.util.spec_from_file_location("perfbench_grids", ROOT / "perfbench" / "grids.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def networks() -> dict:
    """Name -> network: the test generators, the examples and the
    benchmark's grid generators."""
    bench = _benchmark_grids()
    rng = random.Random(1)
    nets = {f"random-{seed}": random_network(seed) for seed in range(20)}
    nets.update({f"random-meshed-{seed}": random_network(seed, max_buses=120, loops=4) for seed in range(3)})
    nets["random-inconsistent-3w"] = random_network(3, consistent_trafo3w=False)
    nets["radial"] = generate_radial_grid(3, 8, dg_every=2, seed=4)
    nets["three-bus"] = three_bus_example()
    nets["wind-park"] = wind_park_example()
    nets["meshed-3w"] = bench.meshed_grid(5, substations=3, feeders=6, feeder_buses=6)
    nets.update({f"small-{i}": bench.small_grid(rng, i) for i in range(10)})
    return nets


NETWORKS = networks()


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_v1_and_v2_documents_give_equal_networks(name):
    net = NETWORKS[name]
    v2 = network_to_dict(net)
    assert v2["version"] == GRID_FILE_VERSION == 2
    assert network_from_dict(v2) == net
    assert network_from_dict(network_to_v1_dict(net)) == net


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_every_network_round_trips_through_a_v2_file(name, tmp_path):
    net = NETWORKS[name]
    path = tmp_path / "grid.json"
    save_network(net, path)
    assert load_network(path) == net
    text = path.read_text(encoding="utf-8")
    assert json.loads(text) == network_to_dict(net)
    # one line per field column and per switch, besides the brackets, the
    # version and the name
    columns = sum(len(specs) for specs in network_to_dict(net).values() if isinstance(specs, dict))
    switch_lines = len(net.switches) + 2 if net.switches else 1
    assert len(text.splitlines()) == 4 + columns + 2 * len(SECTIONS) + switch_lines


@pytest.mark.parametrize("path", SHIPPED_GRIDS, ids=lambda p: p.name)
def test_shipped_v1_grids_load_like_their_v2_resave(path, tmp_path):
    assert json.loads(path.read_text(encoding="utf-8"))["version"] == 1
    net = load_network(path)
    resaved = tmp_path / path.name
    save_network(net, resaved)
    assert json.loads(resaved.read_text(encoding="utf-8"))["version"] == 2
    assert load_network(resaved) == net


def test_empty_sections_hold_no_elements():
    doc = network_to_dict(three_bus_example())
    doc["transformers3w"] = {}
    doc["converter_sources"] = {"bus": [], "sn_mva": [], "k": []}
    del doc["transformers2w"]
    net = network_from_dict(doc)
    assert net.transformers3w == net.converter_sources == net.transformers2w == []


def test_absent_optional_column_takes_the_default():
    doc = network_to_dict(three_bus_example())
    del doc["buses"]["in_service"], doc["buses"]["name"]
    net = network_from_dict(doc)
    assert [(b.in_service, b.name) for b in net.buses] == [(True, "")] * 3


BASE = {
    "version": 2,
    "name": "snapshot",
    "buses": {"id": [1, 2, 3], "vn_kv": [110.0, 110.0, 20.0], "name": ["hv", "", "mv"]},
    "external_grids": {"bus": [1], "s_sc_max_mva": [3000.0], "rx_max": [0.1]},
    "lines": {"from_bus": [1], "to_bus": [2], "length_km": [10.0], "r_ohm_per_km": [0.1], "x_ohm_per_km": [0.4]},
    "transformers2w": {
        "hv_bus": [2], "lv_bus": [3], "sn_mva": [40.0], "vn_hv_kv": [110.0], "vn_lv_kv": [20.0], "vk_percent": [12.0],
    },
    "switches": [{"kind": "bus-element", "bus": 2, "other": {"kind": "line", "index": 0}}],
}


def _doc(section=None, **columns) -> dict:
    """BASE with the columns of ``section`` changed; a value of ... deletes
    the column."""
    doc = copy.deepcopy(BASE)
    for name, col in columns.items():
        if col is ...:
            del doc[section][name]
        else:
            doc[section][name] = col
    return doc


def _long_buses(n: int, at: int, value) -> dict:
    doc = copy.deepcopy(BASE)
    buses = doc["buses"]
    buses["id"] += [100 + k for k in range(n)]
    buses["vn_kv"] += [20.0] * n
    buses["name"] += [f"b{k}" for k in range(n)]
    buses["vn_kv"][at] = value
    return doc


def malformed_documents() -> dict:
    return {
        "section_not_object": {**BASE, "lines": [{"from_bus": 1}]},
        "section_is_null": {**BASE, "buses": None},
        "column_not_array": _doc("buses", vn_kv=110.0),
        "column_is_object": _doc("lines", to_bus={"0": 2}),
        "unequal_column_lengths": _doc("lines", to_bus=[2, 3]),
        "unknown_field": _doc("lines", lenght_km=[3.0]),
        "unknown_field_of_empty_section": {**BASE, "transformers3w": {"vk_hm": []}},
        "missing_required_column": _doc("buses", vn_kv=...),
        "missing_required_column_of_one_element": _doc("lines", from_bus=...),
        "num_is_str": _doc("buses", vn_kv=[110.0, "110", 20.0]),
        "int_is_float": _doc("lines", from_bus=[1.0]),
        "int_above_64_bits": _doc("buses", id=[1, 2**63, 3]),
        "bool_is_int": _doc("buses", in_service=[True, 1, True]),
        "str_is_null": _doc("buses", name=["hv", None, "mv"]),
        "str_lone_surrogate": _doc("buses", name=["hv", "\ud800", "mv"]),
        "num_too_large": _doc("lines", length_km=[10**400]),
        "late_entry_of_long_column": _long_buses(600, 590, "10"),
        "two_errors_in_entry_order": _doc("buses", id=[1, None, 3], name=["hv", "", 9]),
        "two_errors_in_one_entry_field_order": _doc("buses", id=[1, 2, None], vn_kv=[110.0, 110.0, None]),
        "v1_section_in_v2_document": {**BASE, "external_grids": [{"bus": 1, "s_sc_max_mva": 3000.0}]},
        "v2_section_in_v1_document": {**to_v1(BASE), "lines": BASE["lines"]},
        "switches_not_array": {**BASE, "switches": {"kind": ["bus-bus"]}},
        "version_is_bool": {**BASE, "version": True},
        "version_is_float": {**BASE, "version": 2.0},
        "version_3": {**BASE, "version": 3},
    }


SNAPSHOT = {
    "section_not_object": "document.lines: expected an object, got list",
    "section_is_null": "document.buses: expected an object, got NoneType",
    "column_not_array": "document.buses.vn_kv: expected an array, got float",
    "column_is_object": "document.lines.to_bus: expected an array, got dict",
    "unequal_column_lengths": "document.lines.to_bus: 2 values, but 'from_bus' has 1",
    "unknown_field": "document.lines: unknown field 'lenght_km'",
    "unknown_field_of_empty_section": "document.transformers3w: unknown field 'vk_hm'",
    "missing_required_column": "buses[0]: missing required field 'vn_kv'",
    "missing_required_column_of_one_element": "lines[0]: missing required field 'from_bus'",
    "num_is_str": "buses[1].vn_kv: expected num, got '110'",
    "int_is_float": "lines[0].from_bus: expected int, got 1.0",
    "int_above_64_bits": "buses[1].id: integer outside the 64-bit range",
    "bool_is_int": "buses[1].in_service: expected bool, got 1",
    "str_is_null": "buses[1].name: expected str, got None",
    "str_lone_surrogate": "buses[1].name: string holds a lone surrogate, which is not Unicode text",
    "num_too_large": "lines[0].length_km: integer too large for a float",
    "late_entry_of_long_column": "buses[590].vn_kv: expected num, got '10'",
    "two_errors_in_entry_order": "buses[1].id: expected int, got None",
    "two_errors_in_one_entry_field_order": "buses[2].id: expected int, got None",
    "v1_section_in_v2_document": "document.external_grids: expected an object, got list",
    "v2_section_in_v1_document": "document.lines: expected an array",
    "switches_not_array": "document.switches: expected an array",
    "version_is_bool": "document: unsupported version True, expected 1 or 2",
    "version_is_float": "document: unsupported version 2.0, expected 1 or 2",
    "version_3": "document: unsupported version 3, expected 1 or 2",
}


@pytest.mark.parametrize("case", sorted(SNAPSHOT))
def test_error_message_matches_the_snapshot(case):
    with pytest.raises(GridFileError) as info:
        network_from_dict(malformed_documents()[case])
    assert str(info.value) == SNAPSHOT[case]


def test_snapshot_covers_every_document():
    assert sorted(malformed_documents()) == sorted(SNAPSHOT)
    assert network_from_dict(copy.deepcopy(BASE)).name == "snapshot"
    assert network_from_dict(to_v1(BASE)) == network_from_dict(BASE)


_ODD_VALUES = [None, True, False, 0, -1, 2**63, -(2**63) - 1, 10**400, 1.5, float("nan"), "", "x", [], {}]


def _outcome(doc):
    try:
        return network_from_dict(doc)
    except GridFileError as e:
        return str(e)


@pytest.mark.parametrize("seed", range(60))
def test_a_broken_column_reads_as_its_v1_entries(seed):
    # any mix of odd values and missing columns gives the network or the
    # message that the same entries give in version 1
    rng = random.Random(seed)
    doc = network_to_dict(random_network(seed, max_buses=30))
    doc["switches"] = []
    for _ in range(rng.randint(1, 3)):
        section = rng.choice([s for s in SECTIONS if doc[s]["in_service"]])
        columns = doc[section]
        name = rng.choice(sorted(columns))
        if rng.random() < 0.2:
            del columns[name]
        else:
            columns[name][rng.randrange(len(columns[name]))] = rng.choice(_ODD_VALUES)
    assert _outcome(doc) == _outcome(to_v1(doc))
