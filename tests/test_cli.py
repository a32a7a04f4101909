"""Tests for the command-line driver and its exit codes."""
import json

import pytest

from sccalc import load_network, read_result_csv, read_result_json, save_network
from sccalc.cli import main

from netgen import random_network


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
    assert "8 buses" in capsys.readouterr().out
    assert main(["calc", str(out)]) == 0


def test_bench_subcommand(tmp_path, capsys):
    assert main(["bench", "--sizes", "14", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out


def test_missing_file_exits_1(tmp_path, capsys):
    assert main(["calc", str(tmp_path / "nope.json")]) == 1
    assert "error" in capsys.readouterr().err
