"""Versioned JSON grid documents and tabular result files.

The grid schema is strict: unknown fields are rejected so nameplate typos
surface immediately instead of silently dropping data. Results are written
as CSV (6 decimals, for humans) or JSON (full precision, for machines).
"""
from __future__ import annotations

import csv
import io
import json
import math

from ._version import __version__
from .exceptions import GridFileError, ValidationError
from .model import FIELD_SPECS, SECTIONS, ElementRef, Network, Switch, validate
from .solver import ShortCircuitResult

__all__ = [
    "GRID_FILE_VERSION",
    "load_network",
    "save_network",
    "network_from_dict",
    "network_to_dict",
    "write_result_csv",
    "write_result_json",
    "read_result_csv",
    "read_result_json",
]

GRID_FILE_VERSION = 1

_RESULT_COLUMNS = (
    "bus_id",
    "name",
    "vn_kv",
    "ikss_source_ka",
    "ikss_converter_ka",
    "ikss_ka",
    "energized",
)

def _coerce(value, typ: str, path: str):
    if typ == "bool":
        if isinstance(value, bool):
            return value
    elif typ == "int":
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    elif typ == "num":
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    elif typ == "str":
        if isinstance(value, str):
            return value
    raise GridFileError(f"{path}: expected {typ}, got {value!r}")


# section -> the field names its entries may hold
_KNOWN_FIELDS = {section: frozenset(name for name, _, _, _ in specs) for section, specs in FIELD_SPECS.items()}


def _parse_entry(entry, section: str, path: str) -> dict:
    if not isinstance(entry, dict):
        raise GridFileError(f"{path}: expected an object, got {type(entry).__name__}")
    known = _KNOWN_FIELDS[section]
    for key in entry:
        if key not in known:
            raise GridFileError(f"{path}: unknown field {key!r}")
    kwargs = {}
    for name, typ, required, default in FIELD_SPECS[section]:
        if name in entry:
            kwargs[name] = _coerce(entry[name], typ, f"{path}.{name}")
        elif required:
            raise GridFileError(f"{path}: missing required field {name!r}")
        else:
            kwargs[name] = default
    return kwargs


def _parse_switch(entry, path: str) -> Switch:
    if not isinstance(entry, dict):
        raise GridFileError(f"{path}: expected an object, got {type(entry).__name__}")
    kind = entry.get("kind")
    if kind not in ("bus-bus", "bus-element"):
        raise GridFileError(f"{path}: kind must be 'bus-bus' or 'bus-element', got {kind!r}")
    for key in entry:
        if key not in ("kind", "bus", "other", "closed"):
            raise GridFileError(f"{path}: unknown field {key!r}")
    for required in ("bus", "other"):
        if required not in entry:
            raise GridFileError(f"{path}: missing required field {required!r}")
    bus = _coerce(entry["bus"], "int", f"{path}.bus")
    closed = _coerce(entry.get("closed", True), "bool", f"{path}.closed")
    if kind == "bus-bus":
        other = _coerce(entry["other"], "int", f"{path}.other")
    else:
        ref = entry["other"]
        if not isinstance(ref, dict) or set(ref) != {"kind", "index"}:
            raise GridFileError(f"{path}.other: expected an object with 'kind' and 'index'")
        other = ElementRef(
            kind=_coerce(ref["kind"], "str", f"{path}.other.kind"),
            index=_coerce(ref["index"], "int", f"{path}.other.index"),
        )
    return Switch(bus=bus, other=other, closed=closed)


def network_from_dict(data) -> Network:
    """Build a Network from a grid document; strict schema, no validation."""
    if not isinstance(data, dict):
        raise GridFileError(f"document root must be an object, got {type(data).__name__}")
    known = {"version", "name", "switches"} | set(SECTIONS)
    for key in data:
        if key not in known:
            raise GridFileError(f"document: unknown section {key!r}")
    if "version" not in data:
        raise GridFileError("document: missing required field 'version'")
    if data["version"] != GRID_FILE_VERSION:
        raise GridFileError(
            f"document: unsupported version {data['version']!r}, expected {GRID_FILE_VERSION}"
        )
    net = Network(name=_coerce(data.get("name", ""), "str", "document.name"))
    for section, cls in SECTIONS.items():
        entries = data.get(section, [])
        if not isinstance(entries, list):
            raise GridFileError(f"document.{section}: expected an array")
        target = getattr(net, section)
        for i, entry in enumerate(entries):
            target.append(cls(**_parse_entry(entry, section, f"{section}[{i}]")))
    switches = data.get("switches", [])
    if not isinstance(switches, list):
        raise GridFileError("document.switches: expected an array")
    for i, entry in enumerate(switches):
        net.switches.append(_parse_switch(entry, f"switches[{i}]"))
    return net


def network_to_dict(net: Network) -> dict:
    doc: dict = {"version": GRID_FILE_VERSION, "name": net.name}
    for section, specs in FIELD_SPECS.items():
        doc[section] = [
            {name: getattr(el, name) for name, _, _, _ in specs}
            for el in getattr(net, section)
        ]
    doc["switches"] = []
    for sw in net.switches:
        if isinstance(sw.other, int):
            other = sw.other
        else:
            other = {"kind": sw.other.kind, "index": sw.other.index}
        doc["switches"].append({"kind": sw.kind, "bus": sw.bus, "other": other, "closed": sw.closed})
    return doc


def load_network(path) -> Network:
    """Load and validate a grid document; raises GridFileError on parse or
    schema problems and ValidationError on invariant violations."""
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except json.JSONDecodeError as e:
        raise GridFileError(f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e
    except OSError as e:
        raise GridFileError(f"{path}: {e.strerror}") from e
    net = network_from_dict(data)
    violations = validate(net)
    if violations:
        raise ValidationError(violations)
    return net


def save_network(net: Network, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(network_to_dict(net), f, indent=2)
        f.write("\n")


def _result_meta(result: ShortCircuitResult) -> dict:
    opts = result.options
    meta: dict = {"engine": f"sccalc {__version__}", "case": opts.case if opts is not None else ""}
    if opts is not None:
        meta["lv_tolerance_percent"] = opts.lv_tolerance_percent
        meta["fault_buses"] = "all" if opts.fault_buses == "all" else list(opts.fault_buses)
        meta["consider_converters"] = opts.consider_converters
        meta["s_base_mva"] = opts.s_base_mva
    if result.degenerate_buses:
        meta["degenerate_buses"] = list(result.degenerate_buses)
    return meta


def _open_for_write(file_or_path):
    if hasattr(file_or_path, "write"):
        return file_or_path, False
    return open(file_or_path, "w", encoding="utf-8", newline=""), True


def write_result_csv(result: ShortCircuitResult, file_or_path) -> None:
    """Human-readable CSV: '#' metadata lines, header row, 6-decimal floats."""
    f, should_close = _open_for_write(file_or_path)
    try:
        for key, value in _result_meta(result).items():
            f.write(f"# {key}={json.dumps(value)}\n")
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(_RESULT_COLUMNS)
        for row in result.rows():
            writer.writerow([
                row["bus_id"],
                row["name"],
                f"{row['vn_kv']:.6f}",
                f"{row['ikss_source_ka']:.6f}",
                f"{row['ikss_converter_ka']:.6f}",
                f"{row['ikss_ka']:.6f}",
                "true" if row["energized"] else "false",
            ])
    finally:
        if should_close:
            f.close()


def write_result_json(result: ShortCircuitResult, file_or_path) -> None:
    """Machine-readable JSON: metadata object plus rows array, full float
    precision; NaN markers are encoded as null. One line, because only
    ``json.dumps`` without ``indent`` runs the C encoder."""
    rows = result.rows()
    for row in rows:
        # the rows are fresh dicts, so NaN can be replaced in place
        for k, v in row.items():
            if isinstance(v, float) and math.isnan(v):
                row[k] = None
    text = json.dumps({"meta": _result_meta(result), "rows": rows}, allow_nan=False)
    f, should_close = _open_for_write(file_or_path)
    try:
        f.write(text)
        f.write("\n")
    finally:
        if should_close:
            f.close()


def read_result_csv(path) -> tuple[dict, list[dict]]:
    meta = {}
    with open(path, encoding="utf-8", newline="") as f:
        body = []
        for line in f:
            if line.startswith("#"):
                key, _, raw = line[1:].strip().partition("=")
                meta[key.strip()] = json.loads(raw)
            else:
                body.append(line)
    rows = []
    for rec in csv.DictReader(io.StringIO("".join(body))):
        rows.append({
            "bus_id": int(rec["bus_id"]),
            "name": rec["name"],
            "vn_kv": float(rec["vn_kv"]),
            "ikss_source_ka": float(rec["ikss_source_ka"]),
            "ikss_converter_ka": float(rec["ikss_converter_ka"]),
            "ikss_ka": float(rec["ikss_ka"]),
            "energized": rec["energized"] == "true",
        })
    return meta, rows


def read_result_json(path) -> tuple[dict, list[dict]]:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    rows = []
    for rec in doc["rows"]:
        rows.append({k: (math.nan if v is None else v) for k, v in rec.items()})
    return doc["meta"], rows
