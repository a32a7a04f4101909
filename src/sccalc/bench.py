"""Timing harness: one vectorized all-bus study against per-bus loops, and
the time of each pipeline stage.

Timings are only reported after an equivalence gate has confirmed that both
paths produce the same currents at every bus.
"""
from __future__ import annotations

import math
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np
import scipy
import scipy.sparse.linalg

from .builder import FaultStudyOptions, build_bbm, fuse_switches, prepare
from .generator import generate_radial_grid
from .gridfile import load_network, save_network, write_result_csv, write_result_json
from .model import _Tables, validate
from .solver import (
    DEGENERATE_Z_TOL_PU,
    ShortCircuitResult,
    _reported_buses,
    _result,
    calc_sc,
    converter_contribution,
    factorize,
    impedance_matrix_diag,
)

__all__ = ["BenchmarkReport", "EquivalenceGateError", "run_benchmark"]

EQUIVALENCE_TOL = 1e-10

# buses of a seeded sample whose single-bus studies check a size above
# ``loop_max``
SAMPLED_BUSES = 16

# timed calls per stage and size, after one untimed study; an odd count,
# so that the median is one of the times
REPEATS = 5

# the measured calls that write a file, which is named after its leg
_WRITE_LEGS = ("save_network", "write_result_csv", "write_result_json")


class EquivalenceGateError(AssertionError):
    """Vectorized and looped studies disagree; timings are withheld."""


@dataclass(frozen=True)
class BenchmarkReport:
    """The size records of a run, each as the ``sizes`` entry of ``to_dict``."""

    cases: tuple[dict, ...]
    case: str = "max"
    seed: int = 0
    loop_max: int | None = None

    def __str__(self) -> str:
        lines = [f"{'buses':>8} {'vectorized':>12} {'median':>12} {'looped':>12} {'speedup':>9}"]
        for c in self.cases:
            looped = "-" if c["looped_s"] is None else f"{c['looped_s']:.4f} s"
            speedup = "-" if c["speedup"] is None else f"{c['speedup']:.1f}x"
            study = c["stages_s"]["calc_sc"]
            lines.append(
                f"{c['buses']:>8} {study['min']:>10.4f} s {study['median']:>10.4f} s {looped:>12} {speedup:>9}"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """The report with the versions, the platform and the git revision
        it was measured on."""
        import platform
        import subprocess

        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10,
                cwd=os.path.dirname(os.path.abspath(__file__)),
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = ""
        return {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "platform": platform.platform(),
            "git_sha": sha or "unknown",
            "case": self.case,
            "seed": self.seed,
            "loop_max": self.loop_max,
            "repeats": REPEATS,
            "sizes": list(self.cases),
        }


def _check_equivalence(vectorized: ShortCircuitResult, tol: float, **references: list[ShortCircuitResult]) -> float:
    """Largest relative deviation of the all-bus study ``vectorized`` from
    every row of the reference studies, each list given by the name that a
    failure reports (``looped`` for single-bus studies, ``factored`` for
    ``_factored_reference``); raises when any result column differs beyond
    ``tol``."""
    worst = 0.0
    by_bus = {int(b): i for i, b in enumerate(vectorized.bus_ids)}
    for name, studies in references.items():
        for single, j, bus in ((s, j, bus) for s in studies for j, bus in enumerate(s.bus_ids.tolist())):
            i = by_bus[bus]
            for column in ("ikss_source_ka", "ikss_converter_ka", "ikss_ka"):
                a = float(getattr(vectorized, column)[i])
                b = float(getattr(single, column)[j])
                if math.isnan(a) and math.isnan(b):
                    continue  # both paths flag the bus as degenerate
                rel = abs(a - b) / max(abs(a), abs(b), 1e-30)
                worst = max(worst, rel)
                if not (rel <= tol):
                    raise EquivalenceGateError(
                        f"bus {bus} {column}: vectorized {a!r} vs {name} {b!r} (rel diff {rel:.3e})"
                    )
    return worst


def _measured_calls(net, options: FaultStudyOptions, result: ShortCircuitResult, tmp: str) -> tuple[dict, dict]:
    """Every measured call of a size, by name: first the stages, each a
    call on ``net`` on the inputs the study hands it: the typed read and
    closed ties for ``fuse_switches``, and the factor, the Z_ii and the rows
    of the reported buses of one build of the model; ``second_case`` is a
    study of the other fault case on a topology prepared beforehand. Then
    the file legs in the directory ``tmp``, each file named after its leg:
    ``net`` saved as a version 2 grid file, ``result`` written as CSV and
    JSON, and the grid file loaded. Each call comes with a function that
    makes its arguments before its clock starts: none, but a new factor for
    each Z_ii, since SuperLU builds L and U at the first Z_ii on a factor
    and keeps them, and every study builds them. Then the sizes of that
    build as a size record has them: nodes, star points, nnz(Y), nnz(L+U)."""
    topology = prepare(net)
    bbm = build_bbm(topology, options)
    lu = factorize(bbm.y_matrix)
    rows = _reported_buses(bbm, options.fault_buses)[1]
    z_diag = impedance_matrix_diag(lu, rows=rows)
    z_safe = np.where(np.abs(z_diag) < DEGENERATE_Z_TOL_PU, 1.0, z_diag)
    tables = _Tables(net)
    ties = tables.elements()[3]
    second = FaultStudyOptions(case="min" if options.case == "max" else "max")
    grid, csv_file, json_file = (os.path.join(tmp, leg) for leg in _WRITE_LEGS)
    calls = {
        "validate": (tuple, lambda: validate(net)),
        "fuse_switches": (tuple, lambda: fuse_switches(tables, ties)),
        "build_bbm": (tuple, lambda: build_bbm(net, options)),
        "factorize": (tuple, lambda: factorize(bbm.y_matrix)),
        "impedance_matrix_diag": (
            lambda: (factorize(bbm.y_matrix),), lambda fresh: impedance_matrix_diag(fresh, rows=rows)
        ),
        "converter_contribution": (tuple, lambda: converter_contribution(lu, z_safe, bbm.i_kc, rows=rows)),
        "calc_sc": (tuple, lambda: calc_sc(net, options)),
        "second_case": (tuple, lambda: calc_sc(topology, second)),
        "save_network": (tuple, lambda: save_network(net, grid)),
        "write_result_csv": (tuple, lambda: write_result_csv(result, csv_file)),
        "write_result_json": (tuple, lambda: write_result_json(result, json_file)),
        "load_network": (tuple, lambda: load_network(grid)),
    }
    sizes = {"nodes": lu.shape[0], "n_aux": bbm.n_aux, "nnz_y": bbm.y_matrix.nnz, "nnz_lu": lu.L.nnz + lu.U.nnz}
    return calls, sizes


def _factored_reference(net, options: FaultStudyOptions, ids: list[int]) -> ShortCircuitResult:
    """The study of the buses ``ids`` from a factor of Y of its own: another
    ordering and partial pivoting (``splu`` with COLAMD), where the study
    takes a symmetric ordering and diagonal pivots. Z_kk of a bus k is
    entry k of the solve against e_k, whose residual |Y z_k - e_k| must
    stay within ``EQUIVALENCE_TOL``, and u_k of one solve against the
    injections gives the converter current. The bus pick and the currents
    from Z_kk and u_k are the study's own."""
    bbm = build_bbm(net, options)
    buses, live_rows = _reported_buses(bbm, ids)
    y = bbm.y_matrix
    lu = scipy.sparse.linalg.splu(y, permc_spec="COLAMD")
    z = np.empty(len(live_rows), complex)
    for k, row in enumerate(live_rows.tolist()):
        e = np.zeros(y.shape[0], complex)
        e[row] = 1.0
        z_k = lu.solve(e)
        residual = float(np.abs(y @ z_k - e).max())
        if not residual <= EQUIVALENCE_TOL:
            bus = buses[0][buses[3]][k]  # the k-th id of the energized buses
            raise EquivalenceGateError(f"bus {bus}: residual |Y z - e| of the reference {residual:.3e}")
        z[k] = z_k[row]
    u = lu.solve(bbm.i_kc) if options.consider_converters else np.zeros(y.shape[0], complex)
    degenerate = np.abs(z) < DEGENERATE_Z_TOL_PU
    z[degenerate] = 1.0
    return _result(options, buses, z, degenerate, u[live_rows] / z)


def _minor_faults() -> int | None:
    """The minor page faults of this process so far; None without
    ``resource``, which Windows lacks."""
    # (not imported with the package)
    try:
        import resource
    except ImportError:
        return None
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _traced(call, *args) -> tuple[int, int]:
    """The traced bytes that one call leaves held while its result lives,
    and the tracemalloc peak of the call."""
    # (not imported with the package)
    import tracemalloc

    tracemalloc.start()
    try:
        # (the result is held while the memory is read)
        out = call(*args)
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def run_benchmark(
    sizes: list[int], case: str = "max", seed: int = 0, loop_max: int | None = None
) -> BenchmarkReport:
    """For each target bus count, on one generated radial grid (a converter
    source on every fifth feeder bus): one untimed all-bus study, then
    ``REPEATS`` rounds that time each call of ``_measured_calls`` in turn,
    with the minor page faults of each timed study, then one more call of
    each under tracemalloc for its peak memory. Then single-bus studies must
    agree with the all-bus study to ``EQUIVALENCE_TOL``: up to ``loop_max``
    buses (every size when it is None) a timed loop over every bus, above
    it the untimed studies of ``SAMPLED_BUSES`` buses drawn with ``seed``,
    and the same buses from a factor of Y of their own
    (``_factored_reference``), which shares no Z_ii path with the study.

    The headline time of a call is its minimum; the median stands next to
    it."""
    cases = []
    for size in sizes:
        feeders = 4
        per_feeder = max(1, math.ceil((size - 2) / feeders))
        net = generate_radial_grid(feeders, per_feeder, dg_every=5, seed=seed)
        n = len(net.buses)
        options = FaultStudyOptions(case=case)

        # an untimed study first: the first one in a process is slower
        result = calc_sc(net, options)
        with tempfile.TemporaryDirectory() as tmp:
            calls, counts = _measured_calls(net, options, result, tmp)
            times = {name: [] for name in calls}
            faults = []
            for _ in range(REPEATS):
                for name, (make, call) in calls.items():
                    args = make()
                    before = _minor_faults()
                    t0 = time.perf_counter()
                    out = call(*args)
                    times[name].append(time.perf_counter() - t0)
                    if name == "calc_sc":
                        vectorized = out
                        after = _minor_faults()
                        faults.append(None if after is None else after - before)
                    # freed here, not in the clock of the next call
                    del out
            timed = {name: {"min": min(ts), "median": sorted(ts)[REPEATS // 2]} for name, ts in times.items()}
            traced = {name: _traced(call, *make()) for name, (make, call) in calls.items()}
            files = {}
            for leg in _WRITE_LEGS:
                files[f"{leg}_s"] = timed.pop(leg)
                files[f"{leg}_peak_traced_bytes"] = traced.pop(leg)[1]
                files[f"{leg}_file_bytes"] = os.path.getsize(os.path.join(tmp, leg))
        files["load_network_s"] = timed.pop("load_network")
        files["network_traced_bytes"], files["load_network_peak_traced_bytes"] = traced.pop("load_network")
        peaks = {name: peak for name, (_, peak) in traced.items()}

        t_loop, factored = None, []
        if loop_max is None or n <= loop_max:
            t0 = time.perf_counter()
            looped = [calc_sc(net, FaultStudyOptions(case=case, fault_buses=(bus.id,))) for bus in net.buses]
            t_loop = time.perf_counter() - t0
        else:
            sample = np.random.default_rng(seed).choice(n, min(SAMPLED_BUSES, n), replace=False)
            ids = [net.buses[i].id for i in sample]
            looped = [calc_sc(net, FaultStudyOptions(case=case, fault_buses=(bus,))) for bus in ids]
            factored.append(_factored_reference(net, options, ids))
        cases.append({
            "buses": n, **counts, "stages_s": timed,
            "peak_traced_bytes": peaks["calc_sc"], "stages_peak_traced_bytes": peaks, **files,
            "calc_sc_minor_faults": None if None in faults else sorted(faults)[REPEATS // 2],
            "looped_s": t_loop, "speedup": None if t_loop is None else t_loop / timed["calc_sc"]["min"],
            "max_rel_diff": _check_equivalence(vectorized, EQUIVALENCE_TOL, looped=looped, factored=factored),
            "checked_buses": n if t_loop is not None else len(ids),
        })
    return BenchmarkReport(cases=tuple(cases), case=case, seed=seed, loop_max=loop_max)
