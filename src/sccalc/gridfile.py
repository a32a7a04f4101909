"""Versioned JSON grid documents and tabular result files.

The grid schema is strict: unknown fields are rejected so nameplate typos
surface immediately instead of silently dropping data. A section is parsed
as whole columns, one list per field, each checked in one pass and turned
into elements with one ``map`` over the element class. When any check
fails, the section goes through the per-entry checker instead, which
raises the message of the first error in document order; the column
checks are never looser than it.

Results are written as CSV (6 decimals, for humans) or JSON (full
precision, for machines), one ``%`` template per row over the result
columns.
"""
from __future__ import annotations

import json
from itertools import repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from ._version import __version__
from .exceptions import GridFileError, ValidationError
from .model import _INT64_LIMIT, FIELD_SPECS, SECTIONS, ElementRef, Network, Switch, validate
from .solver import ShortCircuitResult

__all__ = [
    "GRID_FILE_VERSION",
    "load_network",
    "save_network",
    "network_from_dict",
    "network_to_dict",
    "write_result_csv",
    "write_result_json",
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


def _is_unicode(text: str) -> bool:
    """False when ``text`` holds a lone surrogate, which ``json`` reads
    from a ``\\ud800`` escape but no UTF-8 file can hold."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _coerce(value, typ: str, path: str):
    if typ == "bool":
        if isinstance(value, bool):
            return value
    elif typ == "int":
        if isinstance(value, int) and not isinstance(value, bool):
            # ids become numpy int64 columns in a study
            if -_INT64_LIMIT <= value < _INT64_LIMIT:
                return value
            raise GridFileError(f"{path}: integer outside the 64-bit range")
    elif typ == "num":
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                return float(value)
            except OverflowError:
                raise GridFileError(f"{path}: integer too large for a float") from None
    elif typ == "str":
        if isinstance(value, str):
            if _is_unicode(value):
                return value
            raise GridFileError(f"{path}: string holds a lone surrogate, which is not Unicode text")
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


class _Absent:
    """The type of the value a column holds for a field an entry leaves out."""


_ABSENT = _Absent()

# the value types a column of each field type may hold
_COLUMN_TYPES = {"int": {int}, "num": {int, float}, "str": {str}, "bool": {bool}}


def _parse_section(entries: list, section: str, cls: type) -> list | None:
    """The elements of one section, built a column at a time; None when any
    entry breaks a column check, so that the per-entry checker can name the
    first error. Every check is at least as strict as ``_coerce``."""
    if set(map(type, entries)) != {dict}:
        return None
    columns = []
    found = 0
    for name, typ, required, default in FIELD_SPECS[section]:
        col = list(map(dict.get, entries, repeat(name), repeat(_ABSENT)))
        types = set(map(type, col))
        absent = _Absent in types
        if absent and required or not types - {_Absent} <= _COLUMN_TYPES[typ]:
            return None
        found += len(col) - col.count(_ABSENT) if absent else len(col)
        if typ == "num" and types != {float}:
            try:
                col = [v if v is _ABSENT else float(v) for v in col]
            except OverflowError:
                return None
        if absent:
            col = [default if v is _ABSENT else v for v in col]
        if typ == "int" and not (-_INT64_LIMIT <= min(col) and max(col) < _INT64_LIMIT):
            return None
        if typ == "str" and not _is_unicode("".join(col)):
            return None
        columns.append(col)
    # every key is a known field exactly when the fields found add up to
    # the number of keys
    if found != sum(map(len, entries)):
        return None
    return list(map(cls, *columns))


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
        elements = _parse_section(entries, section, cls) if entries else []
        if elements is None:
            elements = [cls(**_parse_entry(entry, section, f"{section}[{i}]")) for i, entry in enumerate(entries)]
        getattr(net, section).extend(elements)
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
    except UnicodeDecodeError as e:
        raise GridFileError(f"{path}: not UTF-8 text ({e.reason})") from e
    except ValueError as e:
        # an integer literal longer than Python converts (4300 digits)
        raise GridFileError(f"{path}: invalid JSON: {e}") from e
    except OSError as e:
        raise GridFileError(f"{path}: {e.strerror}") from e
    net = network_from_dict(data)
    violations = validate(net)
    if violations:
        raise ValidationError(violations)
    return net


def save_network(net: Network, path) -> None:
    """Write a grid document; a path that cannot be opened raises
    GridFileError."""
    with _create(path) as f:
        json.dump(network_to_dict(net), f, indent=2)
        f.write("\n")


def _result_meta(result: ShortCircuitResult) -> dict:
    # the FaultStudyOptions fields in order; JSON writes the fault-bus tuple as a list
    meta = {"engine": f"sccalc {__version__}", **vars(result.options)}
    if result.degenerate_buses:
        meta["degenerate_buses"] = list(result.degenerate_buses)
    return meta


def _create(path):
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as e:
        raise GridFileError(f"{path}: {e.strerror}") from e


def _write_text(file_or_path, text: str) -> None:
    if hasattr(file_or_path, "write"):
        file_or_path.write(text)
        return
    with _create(file_or_path) as f:
        f.write(text)


_BOOL_TEXT = {True: "true", False: "false"}


def _result_columns(result: ShortCircuitResult) -> list[list]:
    """The result columns in ``_RESULT_COLUMNS`` order: Python ints, names,
    four float lists and the JSON words of the energized flags."""
    return [
        result.bus_ids.tolist(),
        list(result.bus_names),
        result.vn_kv.tolist(),
        result.ikss_source_ka.tolist(),
        result.ikss_converter_ka.tolist(),
        result.ikss_ka.tolist(),
        list(map(_BOOL_TEXT.__getitem__, result.energized.tolist())),
    ]


_CSV_HEADER = ",".join(_RESULT_COLUMNS) + "\n"
_CSV_ROW = "%d,%s,%.6f,%.6f,%.6f,%.6f,%s\n"
# a name holding one of these is quoted, with its quotes doubled, as
# csv.writer quotes it; csv.writer of Python 3.11 leaves a bare "\r"
# unquoted, which no CSV reader reads back
_CSV_QUOTED = (",", '"', "\r", "\n")


def _csv_name(name: str) -> str:
    if any(c in name for c in _CSV_QUOTED):
        return '"' + name.replace('"', '""') + '"'
    return name


def write_result_csv(result: ShortCircuitResult, file_or_path) -> None:
    """Human-readable CSV: '#' metadata lines, header row, 6-decimal floats."""
    meta = "".join(f"# {key}={json.dumps(value)}\n" for key, value in _result_meta(result).items())
    columns = _result_columns(result)
    names = "".join(result.bus_names)
    if any(c in names for c in _CSV_QUOTED):
        columns[1] = list(map(_csv_name, columns[1]))
    _write_text(file_or_path, meta + _CSV_HEADER + "".join(map(_CSV_ROW.__mod__, zip(*columns))))


_JSON_ROW = (
    '{"bus_id": %d, "name": %s, "vn_kv": %s, "ikss_source_ka": %s,'
    ' "ikss_converter_ka": %s, "ikss_ka": %s, "energized": %s}'
)


def write_result_json(result: ShortCircuitResult, file_or_path) -> None:
    """Machine-readable JSON: metadata object plus rows array, on one line,
    as ``json.dumps`` writes it. Names are ``str``, as ``validate`` keeps
    them, and go through ``json``'s own string encoder; floats keep full
    precision; NaN markers are written as null, and an infinite value
    raises ValueError, as ``allow_nan=False`` does."""
    columns = _result_columns(result)
    columns[1] = list(map(encode_basestring_ascii, columns[1]))
    for k in range(2, 6):
        values = getattr(result, _RESULT_COLUMNS[k])
        if np.isfinite(values).all():
            continue
        if np.isinf(values).any():
            raise ValueError("Out of range float values are not JSON compliant")
        columns[k] = ["null" if v != v else v for v in columns[k]]
    # str(float) is float.__repr__, the text json writes for a float
    rows = ", ".join(map(_JSON_ROW.__mod__, zip(*columns)))
    meta = json.dumps(_result_meta(result), allow_nan=False)
    _write_text(file_or_path, f'{{"meta": {meta}, "rows": [{rows}]}}\n')
