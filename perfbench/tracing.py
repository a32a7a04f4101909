"""Spans around sccalc's layer functions, recorded from outside the package.

A ``Tracer`` wraps the public functions at the module boundaries the study
pipeline calls through, plus the numpy/scipy factorization and solve entry
points. Every binding of such a function in a loaded ``sccalc`` module is
replaced while the tracer is installed and restored afterwards, so the
package itself is never edited. Each call records a span: name, start, end,
parent span and study id. Spans stay in memory; ``layer_metrics`` derives
the per-layer numbers from them once the run is over.

A name that no longer exists (after a later refactor) is listed in
``Tracer.missing`` and the metrics that need it are reported as absent.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

# span name -> (home module, attribute)
LAYER_FUNCTIONS = {
    "gridfile.load_network": ("sccalc.gridfile", "load_network"),
    "gridfile.write_result_csv": ("sccalc.gridfile", "write_result_csv"),
    "gridfile.write_result_json": ("sccalc.gridfile", "write_result_json"),
    "model.validate": ("sccalc.model", "validate"),
    "builder.fuse_switches": ("sccalc.builder", "fuse_switches"),
    "builder.build_bbm": ("sccalc.builder", "build_bbm"),
    "solver.calc_sc": ("sccalc.solver", "calc_sc"),
    "solver.impedance_matrix_diag": ("sccalc.solver", "impedance_matrix_diag"),
    "solver.converter_contribution": ("sccalc.solver", "converter_contribution"),
}

# span name -> (home module, attribute, factorizes, how many right-hand-side
# columns the call solves for, from its positional arguments)
LINALG_FUNCTIONS = {
    "numpy.linalg.inv": ("numpy.linalg", "inv", True, lambda a, *_: a.shape[-1]),
    "numpy.linalg.solve": ("numpy.linalg", "solve", True, lambda a, b, *_: _columns(b)),
    "scipy.linalg.inv": ("scipy.linalg", "inv", True, lambda a, *_: a.shape[-1]),
    "scipy.linalg.lu_factor": ("scipy.linalg", "lu_factor", True, None),
    "scipy.linalg.lu_solve": ("scipy.linalg", "lu_solve", False, lambda lu, b, *_: _columns(b)),
    "scipy.sparse.linalg.splu": ("scipy.sparse.linalg", "splu", True, None),
    "scipy.sparse.linalg.spsolve": ("scipy.sparse.linalg", "spsolve", True, lambda a, b, *_: _columns(b)),
}

STUDY = "study"


def _columns(b) -> int:
    shape = getattr(b, "shape", ())
    return 1 if len(shape) < 2 else int(shape[1])


def matrix_bytes(y) -> int:
    """Bytes held by a dense or scipy sparse matrix."""
    if hasattr(y, "indptr"):
        return int(y.data.nbytes + y.indices.nbytes + y.indptr.nbytes)
    return int(y.nbytes)


class _Span:
    """Context manager that appends one span record to the tracer."""

    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict | None):
        self.tracer = tracer
        stack = tracer._stack
        self.record = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.study_id, attrs]

    def __enter__(self):
        tracer = self.tracer
        tracer._stack.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[1] = time.perf_counter()
        return self.record

    def __exit__(self, *exc):
        self.record[2] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class _TracedLU:
    """Stands in for a scipy ``SuperLU`` object and records its solves."""

    def __init__(self, lu, tracer: "Tracer"):
        self._lu = lu
        self._tracer = tracer

    def solve(self, b, *args, **kwargs):
        with self._tracer.span("scipy.SuperLU.solve", {"cols": _columns(b)}):
            return self._lu.solve(b, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """In-memory span recorder with a reversible patch plan."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, study id, attrs]
        self.study_id = None
        self._stack: list[int] = []
        self.missing: set[str] = set()
        self._plan: list[tuple[object, str, object, object]] = []
        for name, (module, attr) in LAYER_FUNCTIONS.items():
            self._plan_patch(name, module, attr, self._layer_wrapper)
        for name, (module, attr, factorizes, columns) in LINALG_FUNCTIONS.items():
            wrap = functools.partial(self._linalg_wrapper, factorizes=factorizes, columns=columns)
            self._plan_patch(name, module, attr, wrap)

    def span(self, name: str, attrs: dict | None = None) -> _Span:
        return _Span(self, name, attrs)

    def study(self, study_id, attrs: dict | None = None) -> _Span:
        """Root span of one study; spans opened inside carry its id."""
        self.study_id = study_id
        return _Span(self, STUDY, attrs)

    def _plan_patch(self, name: str, module_name: str, attr: str, make_wrapper) -> None:
        try:
            original = getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError):
            self.missing.add(name)
            return
        wrapped = make_wrapper(name, original)
        owners = [sys.modules[module_name]] + [
            m for key, m in list(sys.modules.items()) if key.split(".")[0] == "sccalc" and m is not None
        ]
        seen = set()
        for module in owners:
            if id(module) in seen:
                continue
            seen.add(id(module))
            for key, value in list(vars(module).items()):
                if value is original:
                    self._plan.append((module, key, original, wrapped))

    def _layer_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name) as record:
                out = fn(*args, **kwargs)
            if name == "builder.build_bbm":
                n_aux = int(getattr(out, "n_aux", 0))
                y = out.y_matrix
                record[5] = {"nodes": int(y.shape[0]) - n_aux, "n_aux": n_aux, "y_bytes": matrix_bytes(y)}
            return out

        return traced

    def _linalg_wrapper(self, name: str, fn, factorizes: bool, columns):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = {"factor": int(factorizes), "cols": columns(*args) if columns else 0}
            with tracer.span(name, attrs):
                out = fn(*args, **kwargs)
            return _TracedLU(out, tracer) if name == "scipy.sparse.linalg.splu" else out

        return traced

    def install(self) -> None:
        for module, key, _, wrapped in self._plan:
            setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for module, key, original, _ in self._plan:
            setattr(module, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def to_json(self) -> list[dict]:
        origin = self.spans[0][1] if self.spans else 0.0
        return [
            {"name": n, "start": s - origin, "end": e - origin, "parent": p, "study": sid, **(a or {})}
            for n, s, e, p, sid, a in self.spans
        ]


# per-layer metric -> (span name, "self" or "total"); seconds per study
TIME_METRICS = {
    "builder.build_bbm_s": ("builder.build_bbm", "self"),
    "builder.fuse_switches_s": ("builder.fuse_switches", "total"),
    "model.validate_s": ("model.validate", "total"),
    "solver.impedance_matrix_diag_s": ("solver.impedance_matrix_diag", "total"),
    "solver.converter_contribution_s": ("solver.converter_contribution", "total"),
    "solver.calc_sc_self_s": ("solver.calc_sc", "self"),
    "gridfile.load_network_s": ("gridfile.load_network", "total"),
    "gridfile.write_result_csv_s": ("gridfile.write_result_csv", "total"),
    "gridfile.write_result_json_s": ("gridfile.write_result_json", "total"),
}

# size counts recorded on each build_bbm span; mean per built matrix
BUILD_COUNTS = {"builder.nodes": "nodes", "builder.n_aux": "n_aux", "builder.y_bytes": "y_bytes"}

# size counts computed outside the timed studies and attached to each
# study span; mean per study
STUDY_COUNTS = {"builder.nnz_y": "nnz_y", "solver.nnz_lu": "nnz_lu"}


def _per_study(spans: list[list]) -> dict:
    """study id -> {"total": {name: s}, "self": {name: s}, "factor": n,
    "cols": n, "builds": [attrs], "attrs": study span attrs}."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = {}
    for i, (name, start, end, parent, sid, attrs) in enumerate(spans):
        rec = out.setdefault(sid, {"total": {}, "self": {}, "factor": 0, "cols": 0, "builds": [], "attrs": {}})
        if name == STUDY:
            rec["attrs"] = attrs or {}
            continue
        duration = end - start
        rec["total"][name] = rec["total"].get(name, 0.0) + duration
        rec["self"][name] = rec["self"].get(name, 0.0) + duration - child_time[i]
        if attrs:
            rec["factor"] += attrs.get("factor", 0)
            rec["cols"] += attrs.get("cols", 0)
            if name == "builder.build_bbm":
                rec["builds"].append(attrs)
    return out


def layer_metrics(tracer: Tracer, studies: list, fallback_studies: list = ()) -> tuple[dict, set[str]]:
    """Per-layer values from the spans of ``studies``.

    Times are the median over studies of the per-study sum. A time metric
    whose span never occurs in ``studies`` is taken from
    ``fallback_studies`` instead. Counts are means. Returns the values and
    the names of metrics whose function is missing (valued 0).
    """
    by_study = _per_study(tracer.spans)
    main = [by_study[s] for s in studies if s in by_study]
    fallback = [by_study[s] for s in fallback_studies if s in by_study]
    values: dict[str, float] = {}
    absent: set[str] = set()

    for metric, (span, kind) in TIME_METRICS.items():
        pool = [r for r in main if span in r["total"]] or [r for r in fallback if span in r["total"]]
        values[metric] = statistics.median(r[kind].get(span, 0.0) for r in pool) if pool else 0.0
        if span in tracer.missing:
            absent.add(metric)

    def mean(xs):
        xs = list(xs)
        return sum(xs) / len(xs) if xs else 0.0

    values["solver.factorizations"] = mean(r["factor"] for r in main)
    values["solver.rhs_columns"] = mean(r["cols"] for r in main)
    builds = [b for r in main for b in r["builds"]]
    for metric, key in BUILD_COUNTS.items():
        values[metric] = mean(b[key] for b in builds)
        if "builder.build_bbm" in tracer.missing:
            absent.add(metric)
    for metric, key in STUDY_COUNTS.items():
        known = [r["attrs"][key] for r in main if r["attrs"].get(key) is not None]
        values[metric] = mean(known)
        if not known:
            absent.add(metric)
    return values, absent
