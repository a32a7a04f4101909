"""Tests for grid document serialization and result file writers."""
import json
import math

import pytest

from sccalc import (
    ElementRef,
    FaultStudyOptions,
    GridFileError,
    Network,
    Switch,
    ValidationError,
    calc_sc,
    load_network,
    network_from_dict,
    network_to_dict,
    read_result_csv,
    read_result_json,
    save_network,
    write_result_csv,
    write_result_json,
)
from sccalc.model import Bus, ExternalGrid

from netgen import random_network

MINIMAL_DOC = {
    "version": 1,
    "buses": [
        {"id": 1, "vn_kv": 110.0},
        {"id": 2, "vn_kv": 110.0},
    ],
    "external_grids": [{"bus": 1, "s_sc_max_mva": 3000.0}],
    "lines": [
        {"from_bus": 1, "to_bus": 2, "length_km": 10.0, "r_ohm_per_km": 0.1, "x_ohm_per_km": 0.4}
    ],
}


def write_doc(tmp_path, doc, name="grid.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_load_minimal_document(tmp_path):
    net = load_network(write_doc(tmp_path, MINIMAL_DOC))
    assert len(net.buses) == 2
    assert net.buses[0].in_service is True
    assert net.lines[0].endtemp_degc == 80.0
    assert net.external_grids[0].s_sc_min_mva == 3000.0


def test_load_reports_validation_path(tmp_path):
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["lines"][0]["length_km"] = -1.0
    with pytest.raises(ValidationError, match=r"lines\[0\]"):
        load_network(write_doc(tmp_path, doc))
    try:
        load_network(write_doc(tmp_path, doc))
    except ValidationError as e:
        assert e.violations[0].field == "length_km"


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_number_fails_validation(tmp_path, literal):
    text = json.dumps(MINIMAL_DOC).replace('"x_ohm_per_km": 0.4', f'"x_ohm_per_km": {literal}')
    path = tmp_path / "grid.json"
    path.write_text(text)
    with pytest.raises(ValidationError, match=r"lines\[0\]: x_ohm_per_km must be finite"):
        load_network(path)
    net = network_from_dict(json.loads(text))
    with pytest.raises(ValidationError, match="x_ohm_per_km must be finite"):
        calc_sc(net)


def test_unknown_field_is_rejected(tmp_path):
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["lines"][0]["lenght_km"] = 3.0
    with pytest.raises(GridFileError, match=r"lines\[0\].*lenght_km"):
        load_network(write_doc(tmp_path, doc))


def test_unknown_section_is_rejected():
    with pytest.raises(GridFileError, match="shunts"):
        network_from_dict({"version": 1, "shunts": []})


def test_missing_version():
    with pytest.raises(GridFileError, match="version"):
        network_from_dict({"buses": []})


def test_unsupported_version():
    with pytest.raises(GridFileError, match="version"):
        network_from_dict({"version": 99})


def test_missing_required_field():
    with pytest.raises(GridFileError, match=r"buses\[0\].*vn_kv"):
        network_from_dict({"version": 1, "buses": [{"id": 1}]})


def test_wrong_type_reports_path():
    doc = {"version": 1, "buses": [{"id": 1, "vn_kv": "high"}]}
    with pytest.raises(GridFileError, match=r"buses\[0\]\.vn_kv"):
        network_from_dict(doc)


def test_bool_is_not_a_number():
    doc = {"version": 1, "buses": [{"id": 1, "vn_kv": True}]}
    with pytest.raises(GridFileError):
        network_from_dict(doc)


def test_parse_error_carries_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"version": 1,,}')
    with pytest.raises(GridFileError, match="line 1"):
        load_network(path)


def test_switch_parsing_both_kinds():
    doc = dict(MINIMAL_DOC)
    doc = json.loads(json.dumps(doc))
    doc["switches"] = [
        {"kind": "bus-bus", "bus": 1, "other": 2, "closed": True},
        {"kind": "bus-element", "bus": 1, "other": {"kind": "line", "index": 0}, "closed": False},
    ]
    net = network_from_dict(doc)
    assert net.switches[0].other == 2
    assert net.switches[1].other == ElementRef("line", 0)
    assert net.switches[1].closed is False


def test_switch_rejects_mixed_fields():
    doc = {
        "version": 1,
        "buses": [{"id": 1, "vn_kv": 20.0}],
        "switches": [{"kind": "bus-bus", "bus": 1, "other": {"kind": "line", "index": 0}, "closed": True}],
    }
    with pytest.raises(GridFileError, match=r"switches\[0\]"):
        network_from_dict(doc)


@pytest.mark.parametrize("seed", range(8))
def test_round_trip_identity(tmp_path, seed):
    net = random_network(seed)
    path = tmp_path / "net.json"
    save_network(net, path)
    loaded = load_network(path)
    assert loaded == net
    # and a second trip through the dict form stays stable
    assert network_from_dict(network_to_dict(loaded)) == net


def test_round_trip_fixture_with_switches(tmp_path):
    net = Network(
        buses=[Bus(1, 20.0, "a"), Bus(2, 20.0, "b")],
        external_grids=[ExternalGrid(bus=1, s_sc_max_mva=100.0)],
        switches=[Switch(bus=1, other=2, closed=False)],
    )
    path = tmp_path / "net.json"
    save_network(net, path)
    assert load_network(path) == net


# --- result files -------------------------------------------------------------

def study_result():
    net = random_network(2, with_switches=False, with_outages=False)
    return calc_sc(net, FaultStudyOptions(case="max", fault_buses="all"))


def test_result_rows_match_row_lookup():
    res = study_result()
    assert res.rows() == [res.row(int(b)) for b in res.bus_ids]


def test_result_csv_layout(tmp_path):
    res = study_result()
    path = tmp_path / "r.csv"
    write_result_csv(res, path)
    text = path.read_text().splitlines()
    assert text[0].startswith("# engine=")
    header_i = next(i for i, line in enumerate(text) if not line.startswith("#"))
    assert text[header_i] == "bus_id,name,vn_kv,ikss_source_ka,ikss_converter_ka,ikss_ka,energized"
    assert len(text) == header_i + 1 + len(res.bus_ids)


def test_result_csv_round_trip(tmp_path):
    res = study_result()
    path = tmp_path / "r.csv"
    write_result_csv(res, path)
    meta, rows = read_result_csv(path)
    assert meta["case"] == "max"
    assert meta["fault_buses"] == "all"
    assert [r["bus_id"] for r in rows] == sorted(int(b) for b in res.bus_ids)
    for row, expected in zip(rows, res.ikss_ka):
        assert row["ikss_ka"] == pytest.approx(round(float(expected), 6), abs=1e-12)


def test_result_json_round_trip(tmp_path):
    res = study_result()
    path = tmp_path / "r.json"
    write_result_json(res, path)
    meta, rows = read_result_json(path)
    assert meta["engine"].startswith("sccalc ")
    assert meta["lv_tolerance_percent"] == 10
    for row, expected in zip(rows, res.ikss_ka):
        assert row["ikss_ka"] == float(expected)  # full precision


def test_csv_and_json_encode_identical_numbers(tmp_path):
    res = study_result()
    p_csv, p_json = tmp_path / "r.csv", tmp_path / "r.json"
    write_result_csv(res, p_csv)
    write_result_json(res, p_json)
    _, csv_rows = read_result_csv(p_csv)
    _, json_rows = read_result_json(p_json)
    assert len(csv_rows) == len(json_rows)
    for c_row, j_row in zip(csv_rows, json_rows):
        assert c_row["bus_id"] == j_row["bus_id"]
        assert c_row["energized"] == j_row["energized"]
        for col in ("vn_kv", "ikss_source_ka", "ikss_converter_ka", "ikss_ka"):
            # the CSV carries the same value rounded to its 6 decimals
            assert abs(c_row[col] - round(j_row[col], 6)) < 1e-12


def test_nan_markers_serialize_as_null_and_nan(tmp_path):
    net = Network(buses=[Bus(1, 110.0)])
    for _ in range(5):
        net.external_grids.append(ExternalGrid(bus=1, s_sc_max_mva=5.5e11))
    res = calc_sc(net)
    p_json, p_csv = tmp_path / "r.json", tmp_path / "r.csv"
    write_result_json(res, p_json)
    write_result_csv(res, p_csv)
    raw = json.loads(p_json.read_text())
    assert raw["rows"][0]["ikss_ka"] is None
    assert raw["meta"]["degenerate_buses"] == [1]
    _, csv_rows = read_result_csv(p_csv)
    assert math.isnan(csv_rows[0]["ikss_ka"])
