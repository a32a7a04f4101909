"""Vectorized IEC 60909 short-circuit currents for all buses of a grid.

A study computes the initial symmetrical short-circuit currents of one
case, maximum or minimum, at every bus at once from nameplate grid data,
with distributed generation modelled as current sources per the 2016
revision of the standard.

The package exports what a user needs to describe a grid, run a study,
load and save grid files and write result files. The study stages are
importable from ``sccalc.builder`` and ``sccalc.solver``.
"""
from ._version import __version__
from .builder import FaultStudyOptions, StudyTopology, prepare
from .exceptions import (
    GridDataError,
    GridFileError,
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
    save_network,
    write_result_csv,
    write_result_json,
)
from .generator import generate_radial_grid
from .networks import three_bus_example, wind_park_example
from .bench import EquivalenceGateError, run_benchmark

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
    "StudyTopology",
    "prepare",
    "calc_sc",
    "GridDataError",
    "GridFileError",
    "ValidationError",
    "InvalidOptionError",
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
    "generate_radial_grid",
    "three_bus_example",
    "wind_park_example",
    "run_benchmark",
    "EquivalenceGateError",
]
