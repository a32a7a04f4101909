"""Readers for the result files that ``sccalc.gridfile`` writes, for tests
that check written files against the result they came from."""
import csv
import io
import json
import math


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
