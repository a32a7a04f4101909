"""Tests for grid document serialization and result file writers."""
import collections
import dataclasses
import io
import json
import math
import re
import tracemalloc

import pytest

from sccalc import (
    ElementRef,
    FaultStudyOptions,
    GridFileError,
    Network,
    Switch,
    ValidationError,
    calc_sc,
    generate_radial_grid,
    load_network,
    network_from_dict,
    network_to_dict,
    save_network,
    three_bus_example,
    validate,
    wind_park_example,
    write_result_csv,
    write_result_json,
)
from sccalc.gridfile import _result_meta
from sccalc.model import Bus, ExternalGrid

from netgen import random_network
from resultfiles import read_result_csv, read_result_json, reference_result_csv, reference_result_json

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


def test_integer_too_large_for_a_float_reports_path(tmp_path):
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["lines"][0]["length_km"] = 10**400
    with pytest.raises(GridFileError, match=r"lines\[0\]\.length_km: integer too large for a float"):
        load_network(write_doc(tmp_path, doc))


@pytest.mark.parametrize("bus_id", [2**63, -(2**63) - 1])
def test_integer_outside_64_bits_reports_path(bus_id):
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["buses"][1]["id"] = doc["lines"][0]["to_bus"] = bus_id
    with pytest.raises(GridFileError, match=r"buses\[1\]\.id: integer outside the 64-bit range"):
        network_from_dict(doc)
    doc["buses"][1]["id"] = doc["lines"][0]["to_bus"] = bus_id // 2
    assert network_from_dict(doc).buses[1].id == bus_id // 2


def test_integer_literal_too_long_to_read_names_the_file(tmp_path):
    path = tmp_path / "long.json"
    path.write_text(json.dumps(MINIMAL_DOC).replace('"length_km": 10.0', '"length_km": ' + "1" * 5000))
    with pytest.raises(GridFileError, match="long.json: invalid JSON"):
        load_network(path)


def test_file_that_is_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps({**MINIMAL_DOC, "name": "M\u00fchle"}, ensure_ascii=False).encode("latin-1"))
    with pytest.raises(GridFileError, match="latin1.json: not UTF-8 text"):
        load_network(path)


def test_paths_that_cannot_be_opened_for_writing_name_the_path(tmp_path):
    missing = tmp_path / "missing" / "out.json"
    with pytest.raises(GridFileError, match=r"out\.json: No such file or directory"):
        save_network(load_network(write_doc(tmp_path, MINIMAL_DOC)), missing)
    result = calc_sc(network_from_dict(MINIMAL_DOC))
    for write in (write_result_csv, write_result_json):
        with pytest.raises(GridFileError, match="Is a directory"):
            write(result, tmp_path)


@pytest.mark.parametrize(
    "change,path",
    [
        ({"name": "\ud800x"}, "document.name"),
        ({"buses": [{"id": 1, "vn_kv": 110.0}, {"id": 2, "vn_kv": 110.0, "name": "b\udfff"}]}, r"buses\[1\]\.name"),
        ({"buses": [{"id": 1, "vn_kv": 110.0, "name": "M\u00fchle \ud83d"}, {"id": 2, "vn_kv": 110.0}]},
         r"buses\[0\]\.name"),
    ],
)
def test_lone_surrogate_is_rejected_with_its_path(tmp_path, change, path):
    doc = {**json.loads(json.dumps(MINIMAL_DOC)), **change}
    with pytest.raises(GridFileError, match=path + ": string holds a lone surrogate"):
        load_network(write_doc(tmp_path, doc))


@pytest.mark.parametrize("where", ["document.name", "buses[1].name"])
def test_save_refuses_a_lone_surrogate_before_it_creates_the_file(tmp_path, where):
    net = load_network(write_doc(tmp_path, MINIMAL_DOC))
    if where == "document.name":
        net.name = "grid \ud800"
    else:
        net.buses[1].name = "a\ud800b"
    assert validate(net) == []
    path = tmp_path / "saved.json"
    with pytest.raises(GridFileError, match=re.escape(f"saved.json: {where}: string holds a lone surrogate")):
        save_network(net, path)
    assert not path.exists()


def test_csv_refuses_a_lone_surrogate_before_it_creates_the_file(tmp_path):
    net = load_network(write_doc(tmp_path, MINIMAL_DOC))
    net.buses[1].name = "\udc00"
    result = calc_sc(net)
    path = tmp_path / "result.csv"
    with pytest.raises(GridFileError, match=r"result\.csv: name of bus 2: string holds a lone surrogate"):
        write_result_csv(result, path)
    assert not path.exists()
    with pytest.raises(GridFileError, match=r"^name of bus 2: string holds a lone surrogate"):
        write_result_csv(result, io.StringIO())
    # JSON escapes it, and reads it back
    out = io.StringIO()
    write_result_json(result, out)
    assert json.loads(out.getvalue())["rows"][1]["name"] == "\udc00"


def test_lone_surrogate_is_rejected_by_the_per_entry_checker():
    # dict subclasses skip the column checks; the per-entry checker judges them
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["buses"] = [collections.OrderedDict(b) for b in doc["buses"]]
    doc["buses"][1]["name"] = "\udc00"
    with pytest.raises(GridFileError, match=r"buses\[1\]\.name: string holds a lone surrogate"):
        network_from_dict(doc)
    doc["buses"][1]["name"] = "\U0001f600 \u00fc"
    assert network_from_dict(doc).buses[1].name == "\U0001f600 \u00fc"


def test_entries_the_column_checks_refuse_still_parse():
    class Ratio(float):
        pass

    doc = json.loads(json.dumps(MINIMAL_DOC))
    plain = network_from_dict(doc)
    doc["buses"] = [collections.OrderedDict(b) for b in doc["buses"]]
    doc["lines"][0]["length_km"] = Ratio(10.0)
    net = network_from_dict(doc)
    assert net == plain
    assert type(net.lines[0].length_km) is float


def test_absent_optional_fields_take_their_defaults():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["external_grids"].append({"bus": 2, "s_sc_max_mva": 500, "s_sc_min_mva": 400, "rx_min": 0})
    doc["buses"][0].update(name="hv", in_service=False)
    net = network_from_dict(doc)
    assert net.buses == [Bus(1, 110.0, "hv", False), Bus(2, 110.0)]
    assert net.external_grids == [ExternalGrid(1, 3000.0), ExternalGrid(2, 500.0, 400.0, 0.0, 0.0)]
    assert [type(v) for v in dataclasses.astuple(net.external_grids[1])] == [int, float, float, float, float, bool]


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


def degenerate_network() -> Network:
    # five stiff grids in parallel make bus 1 degenerate; bus 2 is a dead island
    net = Network(buses=[Bus(1, 110.0), Bus(2, 110.0)])
    for _ in range(5):
        net.external_grids.append(ExternalGrid(bus=1, s_sc_max_mva=5.5e11))
    return net


@pytest.mark.parametrize("make_net", [three_bus_example, wind_park_example, degenerate_network])
@pytest.mark.parametrize("case", ["max", "min"])
def test_result_json_decodes_like_the_indented_writer(tmp_path, make_net, case):
    res = calc_sc(make_net(), FaultStudyOptions(case=case))
    path = tmp_path / "r.json"
    write_result_json(res, path)
    # the document as json.dump(..., indent=2) wrote it before
    rows = [
        {k: (None if isinstance(v, float) and math.isnan(v) else v) for k, v in row.items()}
        for row in res.rows()
    ]
    indented = json.dumps({"meta": _result_meta(res), "rows": rows}, indent=2, allow_nan=False) + "\n"
    assert json.loads(path.read_text()) == json.loads(indented)


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


def test_result_json_leaves_the_result_unchanged(tmp_path):
    res = calc_sc(degenerate_network())
    first, second = io.StringIO(), io.StringIO()
    write_result_json(res, first)
    write_result_json(res, second)
    assert first.getvalue() == second.getvalue()
    assert json.loads(first.getvalue())["rows"][0]["ikss_ka"] is None
    assert math.isnan(res.rows()[0]["ikss_ka"])
    assert math.isnan(res.ikss_ka[0])


# names that csv.writer quotes or escapes, or that JSON escapes
ODD_NAMES = [
    "", "a,b", 'say "hi"', "cr\ronly", "lf\nonly", "crlf\r\n", "nul\0byte", "M\u00fchle", "\u6771\u4eac",
    "tab\tthere", " lead", "trail ", "line\u2028sep", "emoji \U0001f600", "back\\slash", "\x7f\x1b", '",\r\n"',
]


def assert_files_match_the_row_writers(res):
    csv_out, json_out = io.StringIO(), io.StringIO()
    write_result_csv(res, csv_out)
    write_result_json(res, json_out)
    assert csv_out.getvalue() == reference_result_csv(res)
    assert json_out.getvalue() == reference_result_json(res)


@pytest.mark.parametrize("seed", range(16))
@pytest.mark.parametrize("case", ["max", "min"])
def test_result_files_match_the_row_writers(seed, case):
    net = random_network(seed, max_buses=40)
    res = calc_sc(net, FaultStudyOptions(case=case))
    if seed in (0, 5, 9):
        assert not res.energized.all()  # rows of unenergized buses are covered
    assert_files_match_the_row_writers(res)


@pytest.mark.parametrize("case", ["max", "min"])
def test_result_files_match_the_row_writers_with_odd_names(case):
    net = random_network(3, max_buses=40)
    for bus, name in zip(net.buses, ODD_NAMES * 3):
        bus.name = name
    assert_files_match_the_row_writers(calc_sc(net, FaultStudyOptions(case=case)))
    for name in ODD_NAMES:
        net.buses[0].name = name
        assert_files_match_the_row_writers(calc_sc(net, FaultStudyOptions(case=case)))


def test_result_csv_with_odd_names_reads_back(tmp_path):
    net = random_network(3, max_buses=40)
    for bus, name in zip(net.buses, ODD_NAMES):
        bus.name = name
    res = calc_sc(net)
    path = tmp_path / "odd.csv"
    write_result_csv(res, path)
    _, rows = read_result_csv(path)
    assert [row["name"] for row in rows] == list(res.bus_names)
    assert set(ODD_NAMES) <= set(res.bus_names)


@pytest.mark.parametrize("names", [[None, "b"], [5, 2.5], [True, ""]])
def test_result_files_match_the_row_writers_with_names_that_are_no_str(names):
    # there are no such result files: the study rejects the names
    net = degenerate_network()
    for bus, name in zip(net.buses, names):
        bus.name = name
    with pytest.raises(ValidationError, match=r"buses\[\d\]: name must be a string"):
        calc_sc(net)


@pytest.mark.parametrize("make_net", [three_bus_example, wind_park_example, degenerate_network])
@pytest.mark.parametrize("fault_buses", ["all", ()])
def test_result_files_match_the_row_writers_on_examples(make_net, fault_buses):
    res = calc_sc(make_net(), FaultStudyOptions(fault_buses=fault_buses))
    assert len(res.bus_ids) == (0 if fault_buses == () else len(make_net().buses))
    assert_files_match_the_row_writers(res)


def test_nan_is_null_only_where_it_stands():
    res = calc_sc(degenerate_network())
    assert math.isnan(res.ikss_ka[0]) and res.ikss_ka[1] == 0.0
    rows = json.loads(io.StringIO(reference_result_json(res)).getvalue())["rows"]
    assert [r["ikss_ka"] for r in rows] == [None, 0.0]
    assert_files_match_the_row_writers(res)


@pytest.mark.parametrize("to_path", [False, True], ids=["stringio", "path"])
def test_infinite_value_raises_like_json(tmp_path, to_path):
    # the refusal comes before the first row is written, and before a path
    # is opened
    res = dataclasses.replace(calc_sc(three_bus_example()))
    res.ikss_converter_ka = res.ikss_converter_ka.copy()
    res.ikss_converter_ka[1] = -math.inf
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        reference_result_json(res)
    out = tmp_path / "result.json" if to_path else io.StringIO()
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        write_result_json(res, out)
    if to_path:
        assert not out.exists()
    else:
        assert out.getvalue() == ""
    csv_out = tmp_path / "result.csv" if to_path else io.StringIO()
    write_result_csv(res, csv_out)
    written = csv_out.read_bytes().decode("utf-8") if to_path else csv_out.getvalue()
    assert written == reference_result_csv(res)


@pytest.fixture(scope="module")
def radial_3002():
    net = generate_radial_grid(4, 750, dg_every=5)
    return net, calc_sc(net)


@pytest.mark.parametrize(
    "write,bound",
    [(write_result_json, 2.0), (write_result_csv, 4.5), (save_network, 2.3)],
    ids=["write_result_json", "write_result_csv", "save_network"],
)
def test_writers_hold_a_small_multiple_of_the_bytes_they_write(tmp_path, radial_3002, write, bound):
    # each row or line goes to the file as it is formatted: no writer
    # holds the whole document, its join and a framing copy at once
    net, res = radial_3002
    path = tmp_path / "out"
    tracemalloc.start()
    try:
        write(net if write is save_network else res, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * path.stat().st_size
