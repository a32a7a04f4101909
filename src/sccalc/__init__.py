"""Vectorized IEC 60909 short-circuit currents for all buses of a grid.

Minimum and maximum initial symmetrical short-circuit currents are computed
simultaneously at every bus from nameplate grid data, with distributed
generation modelled as current sources per the 2016 revision of the
standard.

The package exports what a user needs to describe a grid, run a study and
move grid and result files. The study stages and element impedance helpers
are importable from ``sccalc.builder`` and ``sccalc.solver``.
"""
from ._version import __version__
from .builder import FaultStudyOptions
from .exceptions import (
    GridDataError,
    GridFileError,
    InvalidDataError,
    InvalidOptionError,
    SingularMatrixError,
    SingularStampError,
    SolverError,
    UnsolvableIslandError,
    ValidationError,
)
from .model import (
    Bus,
    ConverterSource,
    ElementRef,
    ExternalGrid,
    Line,
    Network,
    Switch,
    Transformer2W,
    Transformer3W,
    Violation,
    validate,
)
from .solver import ShortCircuitResult, calc_sc
from .gridfile import (
    load_network,
    network_from_dict,
    network_to_dict,
    read_result_csv,
    read_result_json,
    save_network,
    write_result_csv,
    write_result_json,
)
from .generator import generate_radial_grid
from .networks import three_bus_example, wind_park_example
from .bench import BenchmarkCase, BenchmarkReport, EquivalenceGateError, run_benchmark

__all__ = [
    "__version__",
    "Bus",
    "ExternalGrid",
    "Line",
    "Transformer2W",
    "Transformer3W",
    "ConverterSource",
    "ElementRef",
    "Switch",
    "Network",
    "Violation",
    "validate",
    "FaultStudyOptions",
    "ShortCircuitResult",
    "calc_sc",
    "GridDataError",
    "GridFileError",
    "ValidationError",
    "InvalidOptionError",
    "InvalidDataError",
    "SolverError",
    "UnsolvableIslandError",
    "SingularStampError",
    "SingularMatrixError",
    "load_network",
    "save_network",
    "network_from_dict",
    "network_to_dict",
    "write_result_csv",
    "write_result_json",
    "read_result_csv",
    "read_result_json",
    "generate_radial_grid",
    "three_bus_example",
    "wind_park_example",
    "run_benchmark",
    "BenchmarkCase",
    "BenchmarkReport",
    "EquivalenceGateError",
]
