"""Initial symmetrical short-circuit currents at every fault bus at once.

Three steps: the voltage-source contribution from the diagonal of the bus
impedance matrix (equivalent voltage source c*Un/sqrt(3) at the fault
location), the converter contribution from one linear solve against the
injection vector, and the total as the sum of the component magnitudes.

A study factorizes the sparse admittance matrix once (sparse LU) and shares
that factor between both steps: diag(inv(Y)) takes one unit-vector solve
per fault bus, the converter contribution one solve against the injection
vector.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .builder import FaultStudyOptions, build_bbm
from .exceptions import InvalidOptionError, SingularMatrixError
from .model import Network

__all__ = [
    "DEGENERATE_Z_TOL_PU",
    "ShortCircuitResult",
    "factorize",
    "impedance_matrix_diag",
    "voltage_source_currents",
    "converter_contribution",
    "total_current",
    "calc_sc",
]

# |Z_ii| below this marks a fault directly on an ideal node; the bus gets
# an error marker instead of an infinite current
DEGENERATE_Z_TOL_PU = 1e-12

_SOLVE_CHUNK = 512

_SINGULAR = "admittance matrix is numerically singular"


@dataclass
class ShortCircuitResult:
    """Per-bus fault currents in kA plus study metadata.

    ``ikss_ka`` is the sum of the two component magnitudes. Buses without a
    connection to a voltage source carry ``energized=False`` and zero
    currents; degenerate fault locations (|Z_ii| ~ 0) carry NaN and are
    listed in ``degenerate_buses``.
    """

    bus_ids: np.ndarray
    ikss_source_ka: np.ndarray
    ikss_converter_ka: np.ndarray
    ikss_ka: np.ndarray
    energized: np.ndarray
    case: str = ""
    options: FaultStudyOptions | None = None
    bus_names: tuple[str, ...] = ()
    vn_kv: np.ndarray | None = None
    degenerate_buses: tuple[int, ...] = ()

    def row(self, bus_id: int) -> dict:
        i = int(np.nonzero(self.bus_ids == bus_id)[0][0])
        return {
            "bus_id": int(self.bus_ids[i]),
            "name": self.bus_names[i] if self.bus_names else "",
            "vn_kv": float(self.vn_kv[i]) if self.vn_kv is not None else math.nan,
            "ikss_source_ka": float(self.ikss_source_ka[i]),
            "ikss_converter_ka": float(self.ikss_converter_ka[i]),
            "ikss_ka": float(self.ikss_ka[i]),
            "energized": bool(self.energized[i]),
        }


def _require_finite(values: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise SingularMatrixError(f"{_SINGULAR}: non-finite {what}")
    return values


def factorize(y_matrix: scipy.sparse.csc_matrix) -> scipy.sparse.linalg.SuperLU:
    """Sparse LU factorization of the CSC admittance matrix; an exactly
    singular matrix raises SingularMatrixError."""
    try:
        return scipy.sparse.linalg.splu(y_matrix)
    except RuntimeError as exc:
        raise SingularMatrixError(f"{_SINGULAR}: {exc}") from None


def impedance_matrix_diag(lu: scipy.sparse.linalg.SuperLU, rows=None) -> np.ndarray:
    """Diagonal of the bus impedance matrix Z = inv(Y), per unit.

    ``lu`` is the factorization of Y; each requested entry costs one
    unit-vector solve. ``rows`` limits the computation to a subset of
    diagonal entries.
    """
    n = lu.shape[0]
    rows = np.arange(n) if rows is None else np.asarray(rows, dtype=int)
    out = np.empty(len(rows), dtype=complex)
    for start in range(0, len(rows), _SOLVE_CHUNK):
        chunk = rows[start : start + _SOLVE_CHUNK]
        cols = np.arange(len(chunk))
        rhs = np.zeros((n, len(chunk)), dtype=complex)
        rhs[chunk, cols] = 1.0
        out[start : start + len(chunk)] = lu.solve(rhs)[chunk, cols]
    return _require_finite(out, "impedance matrix diagonal")


def voltage_source_currents(z_diag: np.ndarray, u_q: np.ndarray) -> np.ndarray:
    """Voltage-source fault current per bus, per unit: U_Q,i / Z_ii."""
    return np.asarray(u_q) / np.asarray(z_diag)


def converter_contribution(
    lu: scipy.sparse.linalg.SuperLU, z_diag: np.ndarray, i_kc: np.ndarray, rows=None
) -> np.ndarray:
    """Converter fault current per bus, per unit.

    One solve u = inv(Y) @ i_kc with the factorization ``lu`` of Y gives
    the row sums over Z_jm * I_kC,m for every fault bus at once; dividing
    by Z_jj yields the contribution. ``z_diag`` must be aligned with
    ``rows`` (all rows when omitted).
    """
    i_kc = np.asarray(i_kc, dtype=complex)
    rows = np.arange(lu.shape[0]) if rows is None else np.asarray(rows, dtype=int)
    if not np.any(i_kc):
        return np.zeros(len(rows), dtype=complex)
    u = _require_finite(lu.solve(i_kc), "converter solution")
    return u[rows] / np.asarray(z_diag)


def total_current(i_k1: np.ndarray, i_k2: np.ndarray, i_base_ka: np.ndarray) -> ShortCircuitResult:
    """Combine the two complex component vectors into kA magnitudes.

    The total is the sum of the component magnitudes, not of the phasors.
    """
    i_base_ka = np.asarray(i_base_ka, dtype=float)
    source_ka = np.abs(i_k1) * i_base_ka
    converter_ka = np.abs(i_k2) * i_base_ka
    n = len(source_ka)
    return ShortCircuitResult(
        bus_ids=np.arange(n),
        ikss_source_ka=source_ka,
        ikss_converter_ka=converter_ka,
        ikss_ka=source_ka + converter_ka,
        energized=np.ones(n, dtype=bool),
    )


def calc_sc(net: Network, options: FaultStudyOptions | None = None) -> ShortCircuitResult:
    """Run a complete study: build the bus-branch model, solve both source
    components for every requested fault bus and combine them.

    Reported rows follow ascending bus id and are restricted to
    ``options.fault_buses``; each bus's result is independent of which
    other buses are in the fault set.
    """
    options = options or FaultStudyOptions()
    bbm = build_bbm(net, options)

    buses = net.bus_map()
    if options.fault_buses == "all":
        requested = sorted(buses)
    else:
        unknown = [b for b in options.fault_buses if b not in buses]
        if unknown:
            raise InvalidOptionError(f"unknown fault bus id(s): {unknown}")
        requested = sorted(set(options.fault_buses))

    bus_ids = np.array(requested, dtype=int)
    energized = np.array([b in bbm.bus_index for b in requested], dtype=bool)
    live_ids = bus_ids[energized]
    live_rows = np.array([bbm.bus_index[b] for b in live_ids], dtype=int)

    lu = factorize(bbm.y_matrix)
    z_diag = impedance_matrix_diag(lu, rows=live_rows)
    degenerate = np.abs(z_diag) < DEGENERATE_Z_TOL_PU
    z_safe = np.where(degenerate, 1.0, z_diag)
    i_k1 = voltage_source_currents(z_safe, bbm.u_q[live_rows])
    i_k2 = converter_contribution(lu, z_safe, bbm.i_kc, rows=live_rows)
    i_k1[degenerate] = complex(math.nan, 0.0)
    i_k2[degenerate] = complex(math.nan, 0.0)

    # scatter the live rows into the requested set; dead buses stay zero
    full_i1 = np.zeros(len(requested), dtype=complex)
    full_i2 = np.zeros(len(requested), dtype=complex)
    full_base = np.zeros(len(requested))
    full_i1[energized] = i_k1
    full_i2[energized] = i_k2
    full_base[energized] = bbm.i_base_ka[live_rows]

    return dataclasses.replace(
        total_current(full_i1, full_i2, full_base),
        bus_ids=bus_ids,
        energized=energized,
        case=options.case,
        options=options,
        bus_names=tuple(buses[b].name for b in requested),
        vn_kv=np.array([buses[b].vn_kv for b in requested], dtype=float),
        degenerate_buses=tuple(int(b) for b in live_ids[degenerate]),
    )
