"""The benchmark measures the package from outside: ``perfbench/tracing.py``
wraps the layer functions by module and name. A renamed or removed function
would make its per-layer metrics read 0, so the names are checked here."""
import importlib

from sccalc import FaultStudyOptions, calc_sc, three_bus_example

from netgen import load_perfbench


def test_every_traced_layer_function_exists():
    tracing = load_perfbench("tracing")
    for span, (module, attr) in tracing.LAYER_FUNCTIONS.items():
        assert callable(getattr(importlib.import_module(module), attr, None)), span


def test_a_traced_study_misses_no_function_and_sizes_the_build():
    tracing = load_perfbench("tracing")
    tracer = tracing.Tracer()
    with tracer:
        with tracer.study(0):
            calc_sc(three_bus_example(), FaultStudyOptions())
    assert tracer.missing == set()
    builds = [attrs for name, _, _, _, _, attrs in tracer.spans if name == "builder.build_bbm"]
    assert len(builds) == 1
    assert builds[0]["y_bytes"] > 0 and builds[0]["nodes"] == 3
