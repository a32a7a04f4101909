"""Benchmark workloads: seeded set-up, one study, reference and check.

Each workload turns a seed into grids, writes them as JSON grid documents
and defines what one study is. ``reference`` runs the independent dense
oracle of the test suite once per grid and case; ``check`` compares a
study's results to it.
"""
from __future__ import annotations

import importlib.util
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from sccalc import builder, generator, gridfile, solver

import grids

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ORACLE_PATH = os.path.join(ROOT, "tests", "oracle.py")

RTOL = 1e-9
COLUMNS = ("ikss_source_ka", "ikss_converter_ka", "ikss_ka")


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple[str, ...]
    # a study loads its grid from the file and writes its results
    from_files: bool
    make: Callable[[int, float], list]
    # studies whose tracemalloc peak is measured; the median is reported
    mem_studies: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "radial_dg",
            ("max",),
            False,
            lambda seed, scale: [
                generator.generate_radial_grid(4, max(2, round(750 * scale)), dg_every=5, seed=seed)
            ],
            1,
        ),
        Workload(
            "meshed_3w",
            ("min",),
            False,
            lambda seed, scale: [grids.meshed_grid(seed, feeder_buses=max(4, round(60 * scale)))],
            1,
        ),
        Workload(
            "batch_files",
            ("max", "min"),
            True,
            lambda seed, scale: _batch(seed, max(4, round(300 * scale))),
            50,
        ),
    )
}


def _batch(seed: int, count: int) -> list:
    rng = random.Random(seed)
    return [grids.small_grid(rng, i) for i in range(count)]


@dataclass
class Item:
    """One generated grid: the network the reference uses and its file."""

    net: object
    path: str
    n_buses: int


def setup(workload: Workload, seed: int, scale: float, workdir: str) -> list[Item]:
    """Generate the workload's grids and write each as a grid document."""
    items = []
    for i, net in enumerate(workload.make(seed, scale)):
        path = os.path.join(workdir, f"grid-{i:04d}.json")
        gridfile.save_network(net, path)
        items.append(Item(net, path, len(net.buses)))
    return items


def run_study(workload: Workload, item: Item) -> dict:
    """One study; returns case -> (result, JSON result document or None).

    ``batch_files`` takes the grid from file to written result, as
    ``sccalc calc`` does; the other workloads study the in-memory grid.
    """
    if not workload.from_files:
        return {case: (solver.calc_sc(item.net, builder.FaultStudyOptions(case=case)), None) for case in workload.cases}
    net = gridfile.load_network(item.path)
    out = {}
    for case in workload.cases:
        result = solver.calc_sc(net, builder.FaultStudyOptions(case=case))
        gridfile.write_result_csv(result, io.StringIO())
        doc = io.StringIO()
        gridfile.write_result_json(result, doc)
        out[case] = (result, doc.getvalue())
    return out


def _load_oracle():
    spec = importlib.util.spec_from_file_location("sccalc_test_oracle", ORACLE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.oracle_calc


def reference(workload: Workload, items: list[Item]) -> list[dict]:
    """Per item, case -> expected columns from the dense test oracle."""
    oracle_calc = _load_oracle()
    refs = []
    for item in items:
        per_case = {}
        for case in workload.cases:
            rows = oracle_calc(item.net, case=case)
            ids = sorted(rows)
            per_case[case] = {
                "bus_ids": np.array(ids, dtype=int),
                "energized": np.array([rows[b]["energized"] for b in ids], dtype=bool),
                "ikss_source_ka": np.array([rows[b]["source_ka"] for b in ids], dtype=float),
                "ikss_converter_ka": np.array([rows[b]["converter_ka"] for b in ids], dtype=float),
                "ikss_ka": np.array([rows[b]["total_ka"] for b in ids], dtype=float),
            }
        refs.append(per_case)
    return refs


def check_result(result, expected: dict, rtol: float = RTOL) -> str | None:
    """None when ``result`` matches the reference, else the first mismatch."""
    if not np.array_equal(np.asarray(result.bus_ids), expected["bus_ids"]):
        return "reported bus ids differ from the reference"
    if not np.array_equal(np.asarray(result.energized, dtype=bool), expected["energized"]):
        return "energized flags differ from the reference"
    for column in COLUMNS:
        got = np.asarray(getattr(result, column), dtype=float)
        want = expected[column]
        if not np.array_equal(np.isnan(got), np.isnan(want)):
            return f"{column}: NaN markers differ from the reference"
        bad = np.abs(got - want) > rtol * np.maximum(np.abs(got), np.abs(want))
        if bad.any():
            i = int(np.argmax(bad))
            return f"{column} at bus {expected['bus_ids'][i]}: {got[i]!r} vs reference {want[i]!r}"
    return None


def check_document(result, doc: str) -> str | None:
    """The JSON result document must carry the result's rows unchanged."""
    rows = json.loads(doc)["rows"]
    if [r["bus_id"] for r in rows] != [int(b) for b in result.bus_ids]:
        return "JSON result document lists other buses"
    for r, want in zip(rows, result.ikss_ka):
        got = math.nan if r["ikss_ka"] is None else r["ikss_ka"]
        if not (got == want or (math.isnan(got) and math.isnan(want))):
            return f"JSON result document: bus {r['bus_id']} ikss_ka {got!r} vs {want!r}"
    return None


def check(outcome: dict, expected: dict) -> str | None:
    for case, (result, doc) in outcome.items():
        reason = check_result(result, expected[case])
        if reason is None and doc is not None:
            reason = check_document(result, doc)
        if reason is not None:
            return f"{case} case: {reason}"
    return None


@dataclass(frozen=True)
class Sizes:
    nodes: int
    n_aux: int
    nnz_y: int
    nnz_lu: int


def sizes(item: Item, case: str) -> Sizes:
    """Problem size of one grid and case. nnz(L+U) is computed from a
    reference ``splu`` of Y, not taken from the engine."""
    bbm = builder.build_bbm(item.net, builder.FaultStudyOptions(case=case))
    y = bbm.y_matrix
    y_csc = scipy.sparse.csc_matrix(y)
    lu = scipy.sparse.linalg.splu(y_csc)
    return Sizes(
        nodes=int(y.shape[0]) - bbm.n_aux,
        n_aux=int(bbm.n_aux),
        nnz_y=int(y_csc.nnz),
        nnz_lu=int(lu.L.nnz + lu.U.nnz),
    )
