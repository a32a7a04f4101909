"""sccalc benchmark: all-bus short-circuit studies on seeded workloads.

    python3 perfbench/run.py --workload radial_dg --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. One process, one caller, closed loop: the
next study starts when the previous one has returned. Every study is
checked against the dense reference oracle of the test suite
(``tests/oracle.py``); a study that raises or mismatches counts as failed
and its time is dropped.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates plain
and traced studies and prints the per-layer metrics derived from spans,
plus the tracing overhead, and writes the spans to ``perfbench/out/``.
Human-readable lines come first; the last line is one JSON object.
"""
from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

# one caller, single-threaded: BLAS gets one thread too
BLAS_THREADS = 1
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

# set-up (generation, JSON serialisation, warm-up study) is repeated this
# often per run and its median reported
SETUP_REPS = 3
# A shared host changes speed for tens of seconds at a time: the same
# 3k-bus study took 0.9 s in one run and 1.3 s in the next. A fixed probe
# that does not use sccalc is timed between studies, at most every
# PROBE_EVERY_S, and the end-to-end times are scaled to the speed at which
# the probe takes PROBE_REF_S. Both raw and scaled values are printed.
PROBE_REF_S = 0.035
PROBE_EVERY_S = 0.5
# traced file round-trips of the grid, for workloads whose studies do not
# touch gridfile themselves
FILE_LEG_REPS = 3

END_TO_END = {
    "study_s": "s",
    "study_s_tail": "s",
    "buses_per_s": "1/s",
    "peak_mem_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "builder.build_bbm_s": "s",
    "builder.fuse_switches_s": "s",
    "model.validate_s": "s",
    "solver.impedance_matrix_diag_s": "s",
    "solver.converter_contribution_s": "s",
    "solver.calc_sc_self_s": "s",
    "gridfile.load_network_s": "s",
    "gridfile.write_result_csv_s": "s",
    "gridfile.write_result_json_s": "s",
    "solver.factorizations": "count",
    "solver.rhs_columns": "count",
    "builder.nodes": "count",
    "builder.n_aux": "count",
    "builder.nnz_y": "count",
    "builder.y_bytes": "bytes",
    "solver.nnz_lu": "count",
    "trace.study_s": "s",
    "trace.overhead_s": "s",
}


TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest of TAIL_PERCENTILES that has at least ten samples above
    it (the median when none has): nearest-rank value, percentile and the
    number of samples above it."""
    ordered = sorted(times)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(n * p / 100.0))
        if n - rank >= 10 or p == TAIL_PERCENTILES[-1]:
            return ordered[rank - 1], p, n - rank


class Runner:
    """Runs and checks studies, counting attempts and failures."""

    def __init__(self, workloads, workload, items):
        self.w = workloads
        self.workload = workload
        self.items = items
        self.refs = None
        self.attempted = 0
        self.failures: list[str] = []

    def execute(self, k: int, tracer=None, attrs=None):
        """One study on item ``k``; returns (seconds, outcome or exception)."""
        item = self.items[k % len(self.items)]
        t0 = time.perf_counter()
        try:
            if tracer is None:
                outcome = self.w.run_study(self.workload, item)
            else:
                with tracer.study(k, attrs):
                    outcome = self.w.run_study(self.workload, item)
        except Exception as e:  # a study that raises is a failed study, not a crash
            return time.perf_counter() - t0, e
        return time.perf_counter() - t0, outcome

    def verify(self, k: int, outcome) -> bool:
        self.attempted += 1
        if isinstance(outcome, Exception):
            reason = f"raised {type(outcome).__name__}: {outcome}"
        else:
            reason = self.w.check(outcome, self.refs[k % len(self.items)])
        if reason is not None:
            self.failures.append(f"study {k}: {reason}")
        return reason is None

    def study(self, k: int, tracer=None, attrs=None) -> float | None:
        """Run and check; the time of a passing study, else None."""
        seconds, outcome = self.execute(k, tracer, attrs)
        return seconds if self.verify(k, outcome) else None


def environment() -> dict:
    import numpy
    import scipy

    sha = ""
    # a checkout without .git would make git report an enclosing repository
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


class SpeedProbe:
    """Times fixed Python and numpy work that does not use sccalc."""

    def __init__(self):
        self.times: list[float] = []
        self._next = 0.0

    def maybe(self) -> None:
        """Probe if PROBE_EVERY_S has passed since the last probe."""
        if time.perf_counter() < self._next:
            return
        import numpy as np

        t0 = time.perf_counter()
        table = {}
        for i in range(60000):
            table[(i, "x")] = i * 0.5
        sorted(table.values(), reverse=True)
        a = np.zeros((1200, 1200), dtype=complex)
        a[::3, ::7] += 1.0
        float(np.abs(a).sum())
        self._next = time.perf_counter()
        self.times.append(self._next - t0)
        self._next += PROBE_EVERY_S

    def scale(self) -> float:
        """Factor that takes a time measured now to the reference speed."""
        median = statistics.median(self.times)
        print(f"probe: median {median:.6f} s over {len(self.times)} probes; times scaled by "
              f"{PROBE_REF_S / median:.4f} to the speed at which it takes {PROBE_REF_S} s")
        return PROBE_REF_S / median


def timed_loop(runner: Runner, seconds: float, probe: SpeedProbe) -> tuple[list[float], int]:
    """Closed loop for ``seconds``; passing study times and their buses."""
    times, buses = [], 0
    deadline = time.perf_counter() + seconds
    k = 0
    while time.perf_counter() < deadline:
        probe.maybe()
        dt = runner.study(k)
        if dt is not None:
            times.append(dt)
            buses += runner.items[k % len(runner.items)].n_buses
        k += 1
    return times, buses


def peak_memory_mb(runner: Runner, count: int) -> float:
    """Median tracemalloc peak of ``count`` studies (Python and numpy heap;
    SuperLU's C heap is not traced)."""
    peaks = []
    gc.collect()
    for k in range(count):
        tracemalloc.start()
        try:
            _, outcome = runner.execute(k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if runner.verify(k, outcome):
            peaks.append(peak / 1e6)
    return statistics.median(peaks) if peaks else float("nan")


def traced_run(runner: Runner, seconds: float, study_sizes: list[dict], workload_name: str, seed: int):
    """Alternate plain and traced studies on the same item; derive the
    per-layer metrics from the spans of the traced ones."""
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    probe = SpeedProbe()
    plain, traced, traced_ids = [], [], []
    deadline = time.perf_counter() + seconds
    k = 0
    while time.perf_counter() < deadline:
        probe.maybe()
        for traced_turn in ((False, True) if k % 2 == 0 else (True, False)):
            if traced_turn:
                with tracer:
                    dt = runner.study(k, tracer, study_sizes[k % len(study_sizes)])
                if dt is not None:
                    traced.append(dt)
                    traced_ids.append(k)
            else:
                dt = runner.study(k)
                if dt is not None:
                    plain.append(dt)
        k += 1

    file_leg = []
    if not runner.workload.from_files:
        gridfile = runner.w.gridfile
        outcome = runner.w.run_study(runner.workload, runner.items[0])
        result = next(iter(outcome.values()))[0]
        with tracer:
            for r in range(FILE_LEG_REPS):
                study_id = f"file-{r}"
                with tracer.study(study_id):
                    gridfile.load_network(runner.items[0].path)
                    gridfile.write_result_csv(result, io.StringIO())
                    gridfile.write_result_json(result, io.StringIO())
                file_leg.append(study_id)

    values, absent = layer_metrics(tracer, traced_ids, file_leg)
    plain_s = statistics.median(plain) if plain else float("nan")
    traced_s = statistics.median(traced) if traced else float("nan")
    values["trace.study_s"] = traced_s
    values["trace.overhead_s"] = traced_s - plain_s
    scale = probe.scale()
    values = {k: v * scale if PER_LAYER[k] == "s" else v for k, v in values.items()}

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"spans-{workload_name}.json"), "w", encoding="utf-8") as f:
        json.dump(
            {
                "workload": workload_name,
                "seed": seed,
                "traced_studies": traced_ids,
                "file_leg": file_leg,
                "missing_functions": sorted(tracer.missing),
                "spans": tracer.to_json(),
            },
            f,
        )
    print(f"tracing (raw wall-clock): plain study_s = {plain_s:.6f} s over {len(plain)} studies, "
          f"traced {traced_s:.6f} s over {len(traced)}, overhead {traced_s - plain_s:+.6f} s "
          f"({100.0 * (traced_s - plain_s) / plain_s:+.2f} %)")
    return values, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("radial_dg", "meshed_3w", "batch_files"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="grid size factor (1 = full size; tests use less)")
    args = parser.parse_args(argv)

    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    src = os.path.join(ROOT, "src")
    needed = [os.path.join(src, "sccalc", "__init__.py"), os.path.join(ROOT, "tests", "oracle.py")]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print(f"error: run from a checkout of the sccalc repository; missing {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401
    import sccalc
    import_s = time.perf_counter() - t0
    if not os.path.abspath(sccalc.__file__).startswith(src + os.sep):
        print(f"error: imported sccalc from {sccalc.__file__}, not from {src}", file=sys.stderr)
        return 2

    import workloads as w

    workload = w.WORKLOADS[args.workload]
    env = environment()
    print("environment: " + json.dumps(env))

    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    try:
        rep_s, warm = [], []
        for _ in range(SETUP_REPS):
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            t0 = time.perf_counter()
            items = w.setup(workload, args.seed, args.scale, workdir)
            runner = Runner(w, workload, items)
            warm.append(runner.execute(0)[1])
            rep_s.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(rep_s)

        runner.refs = w.reference(workload, items)
        for outcome in warm:
            runner.verify(0, outcome)

        study_sizes = []
        for item in items:
            per_case = [w.sizes(item, case) for case in workload.cases]
            study_sizes.append({
                "nnz_y": statistics.mean(s.nnz_y for s in per_case),
                "nnz_lu": statistics.mean(s.nnz_lu for s in per_case),
            })
            if item is items[0]:
                for case, s in zip(workload.cases, per_case):
                    print(f"sizes ({case}): buses={item.n_buses} nodes={s.nodes} n_aux={s.n_aux} "
                          f"nnz_y={s.nnz_y} nnz_lu={s.nnz_lu} (computed by a reference splu of Y)")
        if len(items) > 1:
            print(f"sizes: {len(items)} grids, buses {min(i.n_buses for i in items)}..{max(i.n_buses for i in items)} "
                  f"(total {sum(i.n_buses for i in items)}), mean nnz_y="
                  f"{statistics.mean(s['nnz_y'] for s in study_sizes):.1f} "
                  f"mean nnz_lu={statistics.mean(s['nnz_lu'] for s in study_sizes):.1f}")
        print(f"workload {args.workload}: cases {','.join(workload.cases)}, fault buses all, "
              f"seed {args.seed}, {args.seconds:g} s")
        # the grids, references and sizes held by the benchmark would
        # otherwise make every full collection inside a study scan them
        gc.collect()
        gc.freeze()

        if args.trace:
            values, absent = traced_run(runner, args.seconds, study_sizes, args.workload, args.seed)
            units = PER_LAYER
        else:
            probe = SpeedProbe()
            times, buses = timed_loop(runner, args.seconds, probe)
            peak_mb = peak_memory_mb(runner, workload.mem_studies)
            if times:
                tail_s, pct, beyond = tail(times)
                scale = probe.scale()
                raw = {"study_s": statistics.median(times), "study_s_tail": tail_s, "buses_per_s": buses / sum(times)}
                print("raw wall-clock: " + ", ".join(f"{k} = {v:.6g}" for k, v in raw.items()))
                values = {
                    "study_s": raw["study_s"] * scale,
                    "study_s_tail": tail_s * scale,
                    "buses_per_s": raw["buses_per_s"] / scale,
                    "peak_mem_mb": peak_mb,
                    "setup_s": setup_s,
                }
                print(f"study_s_tail is p{pct:g} of {len(times)} studies ({beyond} beyond it)")
                print("peak_mem_mb is the tracemalloc peak of the Python and numpy heap; SuperLU's C heap is excluded")
            else:
                values = dict.fromkeys(END_TO_END, float("nan"))
            absent = set()
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(runner.failures)
    for reason in runner.failures[:10]:
        print(f"FAILED {reason}")
    print(f"failed_ratio = {failed / runner.attempted:.6f} ({failed} of {runner.attempted} studies)")
    for name, unit in units.items():
        note = " (absent: function not found)" if name in absent else ""
        print(f"{name} = {values[name]:.6g} {unit}{note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
