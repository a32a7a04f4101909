"""Timing harness: one vectorized all-bus study against per-bus loops.

Timings are only reported after an equivalence gate has confirmed that both
paths produce the same currents at every bus.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .builder import FaultStudyOptions
from .generator import generate_radial_grid
from .solver import ShortCircuitResult, calc_sc

__all__ = ["BenchmarkCase", "BenchmarkReport", "EquivalenceGateError", "run_benchmark"]

EQUIVALENCE_TOL = 1e-10


class EquivalenceGateError(AssertionError):
    """Vectorized and looped studies disagree; timings are withheld."""


@dataclass(frozen=True)
class BenchmarkCase:
    n_buses: int
    t_vectorized_s: float
    t_looped_s: float
    max_rel_diff: float

    @property
    def speedup(self) -> float:
        return self.t_looped_s / self.t_vectorized_s


@dataclass(frozen=True)
class BenchmarkReport:
    cases: tuple[BenchmarkCase, ...]

    def __str__(self) -> str:
        lines = [f"{'buses':>8} {'vectorized':>12} {'looped':>12} {'speedup':>9}"]
        for c in self.cases:
            lines.append(
                f"{c.n_buses:>8} {c.t_vectorized_s:>10.4f} s {c.t_looped_s:>10.4f} s {c.speedup:>8.1f}x"
            )
        return "\n".join(lines)


def _check_equivalence(vectorized: ShortCircuitResult, looped: list[ShortCircuitResult], tol: float) -> float:
    """Largest relative deviation between the two paths; raises when any
    result column differs beyond ``tol``."""
    worst = 0.0
    by_bus = {int(b): i for i, b in enumerate(vectorized.bus_ids)}
    for single in looped:
        bus = int(single.bus_ids[0])
        i = by_bus[bus]
        for column in ("ikss_source_ka", "ikss_converter_ka", "ikss_ka"):
            a = float(getattr(vectorized, column)[i])
            b = float(getattr(single, column)[0])
            if math.isnan(a) and math.isnan(b):
                continue  # both paths flag the bus as degenerate
            rel = abs(a - b) / max(abs(a), abs(b), 1e-30)
            worst = max(worst, rel)
            if not (rel <= tol):
                raise EquivalenceGateError(
                    f"bus {bus} {column}: vectorized {a!r} vs looped {b!r} (rel diff {rel:.3e})"
                )
    return worst


def run_benchmark(sizes: list[int], case: str = "max", seed: int = 0) -> BenchmarkReport:
    """For each target bus count, time one all-bus study and a loop of
    single-bus studies over the same generated radial grid (a converter
    source on every fifth feeder bus), after one untimed all-bus study; the
    two must agree to ``EQUIVALENCE_TOL``."""
    cases = []
    for size in sizes:
        feeders = 4
        per_feeder = max(1, math.ceil((size - 2) / feeders))
        net = generate_radial_grid(feeders, per_feeder, dg_every=5, seed=seed)
        n = len(net.buses)

        # an untimed study first: the first one in a process is slower
        calc_sc(net, FaultStudyOptions(case=case))
        t0 = time.perf_counter()
        vectorized = calc_sc(net, FaultStudyOptions(case=case))
        t_vec = time.perf_counter() - t0

        t0 = time.perf_counter()
        looped = [
            calc_sc(net, FaultStudyOptions(case=case, fault_buses=(bus.id,)))
            for bus in net.buses
        ]
        t_loop = time.perf_counter() - t0

        worst = _check_equivalence(vectorized, looped, EQUIVALENCE_TOL)
        cases.append(
            BenchmarkCase(n_buses=n, t_vectorized_s=t_vec, t_looped_s=t_loop, max_rel_diff=worst)
        )
    return BenchmarkReport(cases=tuple(cases))
