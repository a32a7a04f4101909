"""Readers for the result files that ``sccalc.gridfile`` writes, for tests
that check written files against the result they came from, and reference
writers that build the same files one row dict at a time."""
import csv
import io
import json
import math

from sccalc.gridfile import _result_meta


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


def reference_result_csv(result) -> str:
    """The CSV result file, written row by row through ``csv.writer``,
    except that a name holding a "\\r" is quoted by hand."""
    f = io.StringIO()
    for key, value in _result_meta(result).items():
        f.write(f"# {key}={json.dumps(value)}\n")
    writer = csv.writer(f, lineterminator="\n")
    writer.writerow(("bus_id", "name", "vn_kv", "ikss_source_ka", "ikss_converter_ka", "ikss_ka", "energized"))
    for row in result.rows():
        fields = [
            row["bus_id"],
            row["name"],
            f"{row['vn_kv']:.6f}",
            f"{row['ikss_source_ka']:.6f}",
            f"{row['ikss_converter_ka']:.6f}",
            f"{row['ikss_ka']:.6f}",
            "true" if row["energized"] else "false",
        ]
        if isinstance(row["name"], str) and "\r" in row["name"]:
            # csv.writer of Python 3.11 leaves a bare "\r" unquoted, and no
            # CSV reader reads that field back
            fields[1] = '"' + row["name"].replace('"', '""') + '"'
            f.write(",".join(map(str, fields)) + "\n")
        else:
            writer.writerow(fields)
    return f.getvalue()


def reference_result_json(result) -> str:
    """The JSON result file, one ``json.dumps`` over the row dicts."""
    rows = result.rows()
    for row in rows:
        for k, v in row.items():
            if isinstance(v, float) and math.isnan(v):
                row[k] = None
    return json.dumps({"meta": _result_meta(result), "rows": rows}, allow_nan=False) + "\n"
