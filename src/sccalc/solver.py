"""Initial symmetrical short-circuit currents at every fault bus at once.

Three steps: the voltage-source contribution from the diagonal of the bus
impedance matrix (equivalent voltage source c*Un/sqrt(3) at the fault
location), the converter contribution from one linear solve against the
injection vector, and the total as the sum of the component magnitudes.

A study factorizes the sparse admittance matrix once and shares that factor
between both steps. Y is complex symmetric, so the factorization uses a
symmetric fill-reducing ordering and diagonal pivots: P*Y*P^T = L*D*L^T.
diag(inv(Y)) then comes from one selected-inversion sweep over the columns
of L (Takahashi, Fagan & Chen 1973; Erisman & Tinney 1975), which computes
Z only on the pattern of L; the converter contribution takes one solve
against the injection vector.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .builder import FaultStudyOptions, build_bbm, voltage_correction_factor
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
    options: FaultStudyOptions
    bus_names: tuple[str, ...]
    vn_kv: np.ndarray
    degenerate_buses: tuple[int, ...]

    def row(self, bus_id: int) -> dict:
        """The result row of one bus; KeyError if the study did not report it."""
        hits = np.flatnonzero(self.bus_ids == bus_id)
        if not len(hits):
            raise KeyError(f"bus {bus_id!r} is not in this result")
        return self._row(int(hits[0]))

    def rows(self) -> list[dict]:
        """All result rows, in the order of ``bus_ids``."""
        return [self._row(i) for i in range(len(self.bus_ids))]

    def _row(self, i: int) -> dict:
        return {
            "bus_id": int(self.bus_ids[i]),
            "name": self.bus_names[i],
            "vn_kv": float(self.vn_kv[i]),
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
    """Sparse LU factorization of the CSC admittance matrix with a symmetric
    ordering and diagonal pivots, so that P*Y*P^T = L*D*L^T for the complex
    symmetric Y (D = diag(U)); an exactly singular matrix raises
    SingularMatrixError."""
    try:
        return scipy.sparse.linalg.splu(
            y_matrix,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise SingularMatrixError(f"{_SINGULAR}: {exc}") from None


def impedance_matrix_diag(lu: scipy.sparse.linalg.SuperLU, rows=None) -> np.ndarray:
    """Diagonal of the bus impedance matrix Z = inv(Y), per unit.

    ``lu`` is the factorization of the complex symmetric Y from ``factorize``.
    One selected-inversion sweep yields the whole diagonal, so ``rows`` (a
    subset of diagonal entries) costs the same as all of them. If SuperLU met
    an exactly zero diagonal pivot it pivots off the diagonal
    (``perm_r != perm_c``), the factor is no longer L*D*L^T, and each
    requested entry takes one unit-vector solve instead.
    """
    n = lu.shape[0]
    rows = np.arange(n) if rows is None else np.asarray(rows, dtype=int)
    if np.array_equal(lu.perm_r, lu.perm_c):
        out = _selected_inverse_diag(lu)[lu.perm_c[rows]]
    else:
        out = _unit_solve_diag(lu, rows)
    return _require_finite(out, "impedance matrix diagonal")


def _selected_inverse_diag(lu: scipy.sparse.linalg.SuperLU) -> np.ndarray:
    """diag(Z) of P*Y*P^T = L*D*L^T in the permuted order.

    Reverse sweep over the columns of the unit lower triangular L: with J the
    below-diagonal rows of column i and l their values,
    Z_ij = -sum_{k in J} l_k Z_kj for j in J, and
    Z_ii = 1/d_i - sum_{j in J} l_j Z_ij.
    Every Z_kj needed lies on the pattern of L (for k < j both in J, j is a
    row of column k), so only those entries are kept: ``z_col[k]`` maps the
    rows of column k to Z. Plain lists, not per-column numpy slices, because
    most columns hold one or two entries.
    """
    l_factor = lu.L
    # SuperLU leaves the rows unsorted; sorted, each column starts with its
    # explicit unit diagonal
    l_factor.sort_indices()
    indptr = l_factor.indptr.tolist()
    indices = l_factor.indices.tolist()
    values = l_factor.data.tolist()
    pivots = lu.U.diagonal().tolist()
    n = len(pivots)
    z_diag = [0j] * n
    z_col: list[dict | None] = [None] * n
    for i in range(n - 1, -1, -1):
        start, end = indptr[i] + 1, indptr[i + 1]
        rows = indices[start:end]
        ls = values[start:end]
        m = len(rows)
        if m == 1:
            # a tree column, as on every radial feeder: no pairs to visit
            ja, la = rows[0], ls[0]
            za = -la * z_diag[ja]
            z_diag[i] = 1.0 / pivots[i] - la * za
            z_col[i] = {ja: za}
            continue
        z = [0j] * m
        for a in range(m):
            ja, la = rows[a], ls[a]
            z[a] -= la * z_diag[ja]
            col = z_col[ja]
            for b in range(a + 1, m):
                z_ab = col[rows[b]]
                z[a] -= ls[b] * z_ab
                z[b] -= la * z_ab
        zii = 1.0 / pivots[i]
        for a in range(m):
            zii -= ls[a] * z[a]
        z_diag[i] = zii
        z_col[i] = dict(zip(rows, z))
    return np.array(z_diag, dtype=complex)


def _unit_solve_diag(lu: scipy.sparse.linalg.SuperLU, rows: np.ndarray) -> np.ndarray:
    """The requested entries of diag(Z), one unit-vector solve each."""
    n = lu.shape[0]
    out = np.empty(len(rows), dtype=complex)
    for start in range(0, len(rows), _SOLVE_CHUNK):
        chunk = rows[start : start + _SOLVE_CHUNK]
        cols = np.arange(len(chunk))
        rhs = np.zeros((n, len(chunk)), dtype=complex)
        rhs[chunk, cols] = 1.0
        out[start : start + len(chunk)] = lu.solve(rhs)[chunk, cols]
    return out


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


def total_current(
    i_k1: np.ndarray, i_k2: np.ndarray, i_base_ka: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Combine the two complex per-unit component vectors into the kA columns
    ``(source, converter, total)``.

    The total is the sum of the component magnitudes, not of the phasors.
    """
    i_base_ka = np.asarray(i_base_ka, dtype=float)
    source_ka = np.abs(i_k1) * i_base_ka
    converter_ka = np.abs(i_k2) * i_base_ka
    return source_ka, converter_ka, source_ka + converter_ka


def calc_sc(net: Network, options: FaultStudyOptions | None = None) -> ShortCircuitResult:
    """Run a complete study: build the per-unit network, solve both source
    components for every requested fault bus and combine them.

    The fault-location quantities are applied here, per fault bus: the
    voltage correction factor c of the bus's nominal voltage (the equivalent
    voltage source c*Un/sqrt(3)) and the current base
    s_base_mva / (sqrt(3)*Un) that turns per-unit currents into kA.

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
    # c of each live fault bus, looked up once per voltage level
    vn_kv = np.array([buses[b].vn_kv for b in requested], dtype=float)
    live_vn = vn_kv[energized].tolist()
    c_of = {vn: voltage_correction_factor(vn, options.lv_tolerance_percent, options.case) for vn in set(live_vn)}
    i_k1 = voltage_source_currents(z_safe, np.array([c_of[vn] for vn in live_vn], dtype=float))
    i_k2 = converter_contribution(lu, z_safe, bbm.i_kc, rows=live_rows)
    i_k1[degenerate] = complex(math.nan, 0.0)
    i_k2[degenerate] = complex(math.nan, 0.0)

    # scatter the live rows into the requested set; dead buses stay zero
    full_i1 = np.zeros(len(requested), dtype=complex)
    full_i2 = np.zeros(len(requested), dtype=complex)
    full_i1[energized] = i_k1
    full_i2[energized] = i_k2
    source_ka, converter_ka, total_ka = total_current(
        full_i1, full_i2, options.s_base_mva / (math.sqrt(3.0) * vn_kv)
    )

    return ShortCircuitResult(
        bus_ids=bus_ids,
        ikss_source_ka=source_ka,
        ikss_converter_ka=converter_ka,
        ikss_ka=total_ka,
        energized=energized,
        options=options,
        bus_names=tuple(buses[b].name for b in requested),
        vn_kv=vn_kv,
        degenerate_buses=tuple(int(b) for b in live_ids[degenerate]),
    )
