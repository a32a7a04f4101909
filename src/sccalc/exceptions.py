"""Exception hierarchy: data problems (CLI exit 1) vs solver failures (exit 2)."""
from __future__ import annotations


class GridDataError(Exception):
    """Input data is unusable: parse, schema, validation or option problems."""


class GridFileError(GridDataError):
    """A grid or result file cannot be opened or decoded, or the grid
    document does not match the schema."""


class ValidationError(GridDataError):
    """One or more model invariants are violated."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "\n".join(f"  - {v}" for v in self.violations)
        super().__init__(f"{len(self.violations)} validation violation(s):\n{lines}")


class InvalidOptionError(GridDataError):
    """A study option is out of range or references unknown elements."""


class SolverError(Exception):
    """The electrical computation cannot proceed."""


class UnsolvableIslandError(SolverError):
    """No energized island exists, there is nothing to solve."""


class SingularStampError(SolverError):
    """A branch with (near-)zero impedance cannot be stamped as an admittance."""


class SingularMatrixError(SolverError):
    """The admittance matrix is numerically singular; its factorization or
    solves give no finite result."""
