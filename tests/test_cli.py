"""Tests for the command-line driver and its exit codes."""
import json

import pytest

from sccalc import FaultStudyOptions, calc_sc, load_network, save_network
from sccalc.cli import main

from gridfiles import network_to_v1_dict
from netgen import random_network
from resultfiles import read_result_csv, read_result_json


@pytest.fixture
def grid_path(tmp_path):
    net = random_network(2, with_switches=False, with_outages=False)
    path = tmp_path / "grid.json"
    save_network(net, path)
    return path


def test_calc_writes_csv(grid_path, tmp_path):
    out = tmp_path / "result.csv"
    assert main(["calc", str(grid_path), "--case", "max", "--out", str(out)]) == 0
    meta, rows = read_result_csv(out)
    assert meta["case"] == "max"
    net = load_network(grid_path)
    assert [r["bus_id"] for r in rows] == sorted(b.id for b in net.buses)
    assert all(r["ikss_ka"] >= 0 or r["energized"] is False for r in rows)


def test_calc_writes_json(grid_path, tmp_path):
    out = tmp_path / "result.json"
    assert main(["calc", str(grid_path), "--format", "json", "--out", str(out)]) == 0
    meta, rows = read_result_json(out)
    assert meta["case"] == "max"
    assert rows


def test_calc_to_stdout(grid_path, capsys):
    assert main(["calc", str(grid_path)]) == 0
    out = capsys.readouterr().out
    assert "bus_id,name,vn_kv" in out


def test_no_dg_flag_zeroes_converter_column(tmp_path):
    net = random_network(4, with_switches=False, with_outages=False)
    if not net.converter_sources:
        from sccalc.model import ConverterSource
        net.converter_sources.append(ConverterSource(bus=net.buses[0].id, sn_mva=2.0, k=1.2))
    path = tmp_path / "grid.json"
    save_network(net, path)
    out_with = tmp_path / "with.csv"
    out_without = tmp_path / "without.csv"
    assert main(["calc", str(path), "--out", str(out_with)]) == 0
    assert main(["calc", str(path), "--no-dg", "--out", str(out_without)]) == 0
    _, rows_with = read_result_csv(out_with)
    _, rows_without = read_result_csv(out_without)
    assert any(r["ikss_converter_ka"] > 0 for r in rows_with)
    assert all(r["ikss_converter_ka"] == 0 for r in rows_without)


def test_fault_bus_subset(grid_path, tmp_path):
    net = load_network(grid_path)
    target = net.buses[-1].id
    out = tmp_path / "one.csv"
    assert main(["calc", str(grid_path), "--fault-buses", str(target), "--out", str(out)]) == 0
    _, rows = read_result_csv(out)
    assert [r["bus_id"] for r in rows] == [target]


def test_unknown_fault_bus_exits_1(grid_path, capsys):
    assert main(["calc", str(grid_path), "--fault-buses", "7777"]) == 1
    assert "7777" in capsys.readouterr().err


@pytest.mark.parametrize("bus_id", [2**64, -(2**63) - 1])
def test_fault_bus_beyond_64_bits_exits_1(grid_path, capsys, bus_id):
    net = load_network(grid_path)
    ids = f"{net.buses[0].id},{bus_id}"
    assert main(["calc", str(grid_path), "--fault-buses", ids]) == 1
    assert f"error: unknown fault bus id(s): [{bus_id}]" in capsys.readouterr().err


def test_infinite_power_base_exits_1(grid_path, capsys):
    assert main(["calc", str(grid_path), "--s-base-mva", "inf"]) == 1
    assert "s_base_mva" in capsys.readouterr().err


def test_bench_sizes_that_are_no_numbers_exit_1(capsys):
    assert main(["bench", "--sizes", "abc"]) == 1
    assert "--sizes" in capsys.readouterr().err


@pytest.mark.parametrize("sizes", ["", ",", "-5", "0", "102,0"])
def test_bench_sizes_that_are_empty_or_not_positive_exit_1(sizes, capsys):
    assert main(["bench", "--sizes", sizes]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --sizes must be a non-empty comma-separated list of bus counts > 0")


def test_calc_6_percent_lv_tolerance_matches_calc_sc(tmp_path):
    net = random_network(6)
    path = tmp_path / "lv.json"
    save_network(net, path)
    out = tmp_path / "result.json"
    assert main(["calc", str(path), "--lv-tolerance", "6", "--format", "json", "--out", str(out)]) == 0
    meta, rows = read_result_json(out)
    assert meta["lv_tolerance_percent"] == 6
    expected = calc_sc(net, FaultStudyOptions(lv_tolerance_percent=6)).rows()
    assert any(r["vn_kv"] <= 1.0 and r["energized"] for r in expected)
    assert len(rows) == len(expected)
    for got, want in zip(rows, expected):
        assert got == want


def test_validation_error_exits_1(tmp_path, capsys):
    doc = {
        "version": 1,
        "buses": [{"id": 1, "vn_kv": 20.0}, {"id": 2, "vn_kv": 20.0}],
        "external_grids": [{"bus": 1, "s_sc_max_mva": 100.0}],
        "lines": [{"from_bus": 1, "to_bus": 2, "length_km": -1.0, "r_ohm_per_km": 0.1, "x_ohm_per_km": 0.1}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["calc", str(path)]) == 1
    assert "lines[0]" in capsys.readouterr().err


def test_solver_error_exits_2(tmp_path, capsys):
    # external grid sits on an out-of-service bus: valid data, unsolvable study
    doc = {
        "version": 1,
        "buses": [{"id": 1, "vn_kv": 20.0, "in_service": False}, {"id": 2, "vn_kv": 20.0}],
        "external_grids": [{"bus": 1, "s_sc_max_mva": 100.0}],
        "lines": [{"from_bus": 1, "to_bus": 2, "length_km": 1.0, "r_ohm_per_km": 0.1, "x_ohm_per_km": 0.1}],
    }
    path = tmp_path / "dead.json"
    path.write_text(json.dumps(doc))
    assert main(["calc", str(path)]) == 2
    assert "solver error" in capsys.readouterr().err


def test_validate_subcommand_ok(grid_path, capsys):
    assert main(["validate", str(grid_path)]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_subcommand_reports_violations(tmp_path, capsys):
    doc = {"version": 1, "buses": [{"id": 1, "vn_kv": -5.0}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    assert "vn_kv" in capsys.readouterr().err


def test_validate_subcommand_schema_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"version": 1, "buses": [{"id": 1}]}')
    assert main(["validate", str(path)]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "calc"])
def test_non_finite_number_exits_1(tmp_path, capsys, command):
    path = tmp_path / "inf.json"
    path.write_text(
        '{"version": 1, "buses": [{"id": 1, "vn_kv": 20.0}, {"id": 2, "vn_kv": 20.0}],'
        ' "external_grids": [{"bus": 1, "s_sc_max_mva": 100.0}],'
        ' "lines": [{"from_bus": 1, "to_bus": 2, "length_km": 1.0,'
        ' "r_ohm_per_km": 0.1, "x_ohm_per_km": Infinity}]}'
    )
    assert main([command, str(path)]) == 1
    assert "lines[0]: x_ohm_per_km must be finite" in capsys.readouterr().err


def test_generate_roundtrip(tmp_path, capsys):
    out = tmp_path / "radial.json"
    code = main([
        "generate", "--feeders", "2", "--buses-per-feeder", "3",
        "--dg-every", "2", "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    net = load_network(out)
    assert len(net.buses) == 8
    assert json.loads(out.read_text())["version"] == 2
    assert "8 buses" in capsys.readouterr().out
    assert main(["calc", str(out)]) == 0


@pytest.mark.parametrize("seed", [2, 7])
def test_v1_file_and_its_v2_resave_give_identical_results(tmp_path, capsys, seed):
    v1 = tmp_path / "v1.json"
    v1.write_text(json.dumps(network_to_v1_dict(random_network(seed)), indent=2))
    v2 = tmp_path / "v2.json"
    save_network(load_network(v1), v2)
    assert json.loads(v2.read_text())["version"] == 2
    for path in (v1, v2):
        assert main(["validate", str(path)]) == 0
    reports = capsys.readouterr().out.splitlines()
    assert [line.split(": ", 1)[1] for line in reports] == ["OK (%d buses)" % len(load_network(v1).buses)] * 2
    for case in ("max", "min"):
        for fmt in ("csv", "json"):
            outs = [tmp_path / f"{path.stem}-{case}.{fmt}" for path in (v1, v2)]
            for path, out in zip((v1, v2), outs):
                assert main(["calc", str(path), "--case", case, "--format", fmt, "--out", str(out)]) == 0
            assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize(
    "flag,value", [("--dg-every", "-1"), ("--feeders", "0"), ("--buses-per-feeder", "0")]
)
def test_generate_out_of_range_size_exits_1(tmp_path, capsys, flag, value):
    out = tmp_path / "radial.json"
    assert main(["generate", flag, value, "--out", str(out)]) == 1
    assert f"error: {flag} must be >= " in capsys.readouterr().err
    assert not out.exists()


def test_bench_subcommand(tmp_path, capsys):
    assert main(["bench", "--sizes", "14", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out


def test_missing_file_exits_1(tmp_path, capsys):
    assert main(["calc", str(tmp_path / "nope.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_number_too_large_for_a_float_exits_1(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(
        '{"version": 1, "buses": [{"id": 1, "vn_kv": 20.0}, {"id": 2, "vn_kv": 20.0}],'
        ' "external_grids": [{"bus": 1, "s_sc_max_mva": 100.0}],'
        ' "lines": [{"from_bus": 1, "to_bus": 2, "length_km": 1' + "0" * 400 + ','
        ' "r_ohm_per_km": 0.1, "x_ohm_per_km": 0.3}]}'
    )
    assert main(["calc", str(path)]) == 1
    assert "error: lines[0].length_km: integer too large for a float" in capsys.readouterr().err


def test_grid_file_that_is_not_utf8_exits_1(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"version": 1, "name": "M\u00fchle"}'.encode("latin-1"))
    assert main(["validate", str(path)]) == 1
    assert f"error: {path}: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["calc", "generate", "bench"])
def test_out_path_that_cannot_be_opened_exits_1(grid_path, tmp_path, capsys, command):
    out = tmp_path / "missing" / "out.csv"
    args = {
        "calc": ["calc", str(grid_path), "--out"],
        "generate": ["generate", "--out"],
        "bench": ["bench", "--sizes", "3", "--json"],
    }[command]
    assert main([*args, str(out)]) == 1
    captured = capsys.readouterr()
    assert f"error: {out}: No such file or directory" in captured.err
    # the benchmark does not run before its report file is opened
    assert captured.out == ""


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_lone_surrogate_in_a_name_exits_1(tmp_path, capsys, fmt):
    path = tmp_path / "surrogate.json"
    # json.dumps escapes the lone surrogate, and json.loads reads it back
    path.write_text(json.dumps({
        "version": 1,
        "buses": [{"id": 1, "vn_kv": 20.0}, {"id": 2, "vn_kv": 20.0, "name": "\ud800x"}],
        "external_grids": [{"bus": 1, "s_sc_max_mva": 100.0}],
    }))
    assert main(["calc", str(path), "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert "error: buses[1].name: string holds a lone surrogate" in captured.err
    assert captured.out == ""
