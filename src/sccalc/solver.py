"""Initial symmetrical short-circuit currents at every fault bus at once.

Three steps: the voltage-source contribution from the diagonal of the bus
impedance matrix (equivalent voltage source c*Un/sqrt(3) at the fault
location), the converter contribution from one linear solve against the
injection vector, and the total as the sum of the component magnitudes.

A study factorizes the sparse admittance matrix once and shares that factor
between both steps. Y is complex symmetric, so the factorization uses a
symmetric fill-reducing ordering and diagonal pivots: P*Y*P^T = L*D*L^T.
diag(inv(Y)) then comes from the selected inversion of Takahashi, Fagan &
Chen (1973) and Erisman & Tinney (1975), which computes Z only on the
pattern of L: the tree columns of L (one entry below the diagonal) by
pointer jumping in numpy, the others level by level in numpy rounds
(Anderson & Saad 1989), or by one unit-vector solve each when they are few.
A factor so small that the unit-vector solves for all requested entries
cost less than building L skips the selected inversion and takes them.
The converter contribution takes one solve against the injection vector.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .builder import FaultStudyOptions, _voltage_correction_factors, build_bbm
from .exceptions import InvalidOptionError, SingularMatrixError
from .model import Network

__all__ = [
    "DEGENERATE_Z_TOL_PU",
    "ShortCircuitResult",
    "factorize",
    "impedance_matrix_diag",
    "converter_contribution",
    "total_current",
    "calc_sc",
]

# |Z_ii| below this marks a fault directly on an ideal node; the bus gets
# an error marker instead of an infinite current
DEGENERATE_Z_TOL_PU = 1e-12

_SINGULAR = "admittance matrix is numerically singular"

_ID = attrgetter("id")
_VN = attrgetter("vn_kv")
_NAME = attrgetter("name")


@dataclass
class ShortCircuitResult:
    """Per-bus fault currents in kA plus study metadata.

    ``ikss_ka`` is the sum of the two component magnitudes. Buses without a
    connection to a voltage source carry ``energized=False`` and zero
    currents; degenerate fault locations (|Z_ii| ~ 0) carry NaN and are
    listed in ``degenerate_buses``. The columns are aligned with ``bus_ids``;
    ``rows()`` turns them into one dict per reported bus.
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

    def rows(self) -> list[dict]:
        """All result rows, in the order of ``bus_ids``; one ``tolist`` per
        column, not one numpy scalar per cell."""
        return [
            {
                "bus_id": bus_id,
                "name": name,
                "vn_kv": vn_kv,
                "ikss_source_ka": source,
                "ikss_converter_ka": converter,
                "ikss_ka": total,
                "energized": energized,
            }
            for bus_id, name, vn_kv, source, converter, total, energized in zip(
                self.bus_ids.tolist(), self.bus_names, self.vn_kv.tolist(),
                self.ikss_source_ka.tolist(), self.ikss_converter_ka.tolist(), self.ikss_ka.tolist(),
                self.energized.tolist(),
            )
        ]


def _require_finite(values: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(values).all():
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
    Where the n x len(rows) block of unit right-hand sides for the requested
    entries ``rows`` is small (see ``_UNIT_SOLVE_MAX_ENTRIES``), each entry
    takes one unit-vector solve, and SuperLU's L and U are never built. Else
    one selected inversion yields the whole diagonal, so a subset of rows
    costs the same as all of them. If SuperLU met an exactly zero diagonal
    pivot it pivots off the diagonal (``perm_r != perm_c``), the factor is
    no longer L*D*L^T, and the entries take unit-vector solves too. So they
    do if SuperLU dropped an entry of L that cancelled to exactly zero and
    the level rounds need the Z at its place.
    """
    n = lu.shape[0]
    rows = np.arange(n) if rows is None else np.asarray(rows, dtype=int)
    if n * len(rows) <= _UNIT_SOLVE_MAX_ENTRIES or not (lu.perm_r == lu.perm_c).all():
        out = _unit_solve_diag(lu, rows)
    else:
        try:
            # an overflowing pivot inverse is reported by _require_finite
            with np.errstate(all="ignore"):
                out = _selected_inverse_diag(lu)[lu.perm_c[rows]]
        except _DroppedEntry:
            out = _unit_solve_diag(lu, rows)
    return _require_finite(out, "impedance matrix diagonal")


class _DroppedEntry(LookupError):
    """L lacks an entry of the filled pattern that the sweep reads."""


def _selected_inverse_diag(lu: scipy.sparse.linalg.SuperLU) -> np.ndarray:
    """diag(Z) of P*Y*P^T = L*D*L^T in the permuted order.

    Takahashi's recurrences over the columns of the unit lower triangular L,
    from the last column back: with J the below-diagonal rows of column i
    and l their values, Z_ij = -sum_{k in J} l_k Z_kj for j in J, and
    Z_ii = 1/d_i - sum_{j in J} l_j Z_ij.

    A tree column (one entry l_i in row p, as on every radial feeder) reduces
    to Z_ii = 1/d_i + l_i^2 Z_pp. Each such step is an affine map of the
    parent's Z, so pointer jumping (Wyllie's list ranking) composes the maps
    along the elimination tree in ceil(log2(depth)) numpy rounds into
    Z_ii = A_i + B_i Z_aa, where the anchor a is the first ancestor that is
    no tree column. Roots (no entries) give Z_aa = 1/d_a. The columns with
    two or more entries below the diagonal (branching columns) are the
    other anchors and need the full recurrence: ``_level_sweep`` runs it in
    one batch of numpy calls per dependency level. Where the n x k block of
    right-hand sides for the k branching columns is small (see
    ``_UNIT_SOLVE_MAX_ENTRIES``), one unit-vector solve each gives their Z_jj
    for less than the rounds' set-up; a solve reads no pattern of L, so it
    never meets a dropped entry.
    """
    l_factor = lu.L
    # SuperLU leaves the rows unsorted; sorted, each column starts with its
    # explicit unit diagonal
    l_factor.sort_indices()
    indptr, indices, values = l_factor.indptr, l_factor.indices, l_factor.data
    z = 1.0 / lu.U.diagonal()
    entries = indptr[1:] - indptr[:-1]
    tree = entries == 2
    # Z_ii = a_i + b_i Z_(up_i); a column that is no tree column is its own
    # anchor (a = 0, b = 1, up = itself)
    first = indptr[:-1] + 1
    up = np.where(tree, indices.take(first, mode="clip"), np.arange(len(z)))
    a = np.where(tree, z, 0.0)
    b = values.take(first, mode="clip")
    b = np.where(tree, b * b, 1.0)
    # one round halves every path to the anchor; done when no column points
    # at a tree column any more
    while np.count_nonzero(tree[up]):
        a += b * a[up]
        b *= b[up]
        up = up[up]
    branching = (entries > 2).nonzero()[0]
    if len(z) * len(branching) > _UNIT_SOLVE_MAX_ENTRIES:
        z[branching] = _level_sweep(branching, indptr, indices, values, entries, z, a, b, up)
    elif len(branching):
        z[branching] = _unit_solve_diag(lu, lu.perm_c.argsort()[branching])
    return a + b * z[up]


# Unit-vector solves replace the rest while n * m, the entries of all their
# right-hand sides, stays at or below this count: m = len(rows) for a whole
# request in impedance_matrix_diag, m = k for the k branching columns of the
# selected inversion. Measured on one 2-vCPU VM with 8-column blocks, both
# paths interleaved on fresh factors, median of 7. Whole requests, on 117
# factors of 5-200 nodes (random_network and batch_files-like grids): unit
# solves beat building L plus the selected inversion on 53 of the 55 below
# 2000 entries, 3 of the 16 up to 4000 and none of the 19 up to 8192; the
# picks of 3072, 4096 and 8192 summed to 13.71, 13.94 and 15.77 ms, against
# 13.66 ms for the faster path on each. Branching columns, on 47 factors of
# 500-40 000 entries (random_network grids of 20-800 buses with 0-8 extra
# loops, radial grids of 100-10^4 buses with 1-8 ties, 4 ladders): unit
# solves won on every factor below 4000 entries, the level rounds, whose
# set-up is fixed, on every one above 8192; 4096 and 8192 summed to 11.75
# and 11.53 ms, against 11.51 ms.
_UNIT_SOLVE_MAX_ENTRIES = 4096


def _level_sweep(
    columns: np.ndarray, indptr: np.ndarray, indices: np.ndarray, values: np.ndarray,
    entries: np.ndarray, z: np.ndarray, a: np.ndarray, b: np.ndarray, up: np.ndarray,
) -> np.ndarray:
    """Z_ii of the branching columns ``columns``, in that order.

    Takahashi's recurrence of ``_selected_inverse_diag`` over these columns,
    scheduled by levels as sparse triangular solves are (Anderson & Saad
    1989): a column reads only Z at the anchors up_j of its rows j (a
    branching column is its own anchor), so its level is one more than the
    highest of theirs, with roots at level 0, and the columns of one level
    do not read each other.

    Z lives on the pattern of L, in ``zs`` aligned with ``values``; the
    diagonal slot of column i holds Z_ii once the column is done. For every
    pair (p, q) of rows of a column it is worked out once per factor where
    Z_(jp, jq) comes from: Z_jj = a_j + b_j Z_(up_j) for p = q; with lo < hi
    the two rows in order, Z_(lo, hi) = -l_lo (a_hi + b_hi Z_(up_hi)) if lo
    is a tree column (its entry l_lo sits at (hi, lo)), else the slot
    (hi, lo) itself. A level is then a fixed handful of numpy calls: gather,
    multiply-add and ``reduceat`` per entry for Z_(i, jp) = -sum_q l_q
    Z_(jq, jp), scatter, ``reduceat`` per column for
    Z_ii = 1/d_i - sum_p l_p Z_(i, jp), scatter. Raises _DroppedEntry if L
    lacks the slot (hi, lo) of a pair.
    """
    n, width = len(z), len(columns)
    # The anchors of a column's rows other than the first are the anchor of
    # the first row (the column's parent in the elimination tree) or its
    # ancestors, whose levels are lower still. So a level is a depth in the
    # tree of anchors, found by pointer jumping as for the tree columns, on
    # the branching columns only; slot ``width`` stands for every root.
    slot = np.full(n, width)
    slot[columns] = np.arange(width)
    hop = np.append(slot[up[indices[indptr[columns] + 1]]], width)
    level = np.ones(width + 1, dtype=np.intp)
    level[-1] = 0
    while (above := level[hop]).any():
        level += above
        hop = hop[hop]
    by_level = level[:-1].argsort(kind="stable")
    cols = columns[by_level]
    count = entries[cols] - 1
    col_stop = count.cumsum()
    col_first = col_stop - count
    # the entries below the diagonal, column by column in level order
    pos = np.repeat(indptr[cols] + 1 - col_first, count) + np.arange(col_stop[-1])
    rows, l_rows = indices[pos], values[pos]
    # entry p of a column of m entries pairs with every entry q of the
    # column; the pair (q, p) sits (q - p) * (m - 1) after (p, q)
    per_entry = np.repeat(count, count)
    pair_stop = per_entry.cumsum()
    pair_first = pair_stop - per_entry
    pairs = np.arange(pair_stop[-1])
    pair_p = np.repeat(np.arange(len(pos)), per_entry)
    pair_q = np.repeat(np.repeat(col_first, count) - pair_first, per_entry) + pairs
    mirror = pairs + (pair_q - pair_p) * (per_entry[pair_p] - 1)
    jp, jq = rows[pair_p], rows[pair_q]

    # the slot of (hi, lo) in L for the pairs p < q, whose rows are lo = jp
    # and hi = jq: the keys col*n + row ascend along L.data, and sorted
    # needles are found faster (3x at 4k pairs). A key that is missing means
    # SuperLU dropped an entry that cancelled to zero; reading another slot
    # instead would be silently wrong.
    upper = (pair_p < pair_q).nonzero()[0]
    wanted = jp[upper].astype(np.int64) * n + jq[upper]
    by_key = wanted.argsort()
    upper, wanted = upper[by_key], wanted[by_key]
    keys = np.repeat(np.arange(0, n * n, n, dtype=np.int64), entries) + indices
    found = keys.searchsorted(wanted)
    if not np.array_equal(keys.take(found, mode="clip"), wanted):
        raise _DroppedEntry("L lacks an entry that a branching column needs")
    src = np.zeros(len(pairs), dtype=np.intp)
    src[upper] = found
    src += src[mirror]

    # Z_(i, jp) = const_p + sum_q coef_pq zs[src_pq]: a pair reads its slot
    # with coefficient -l_q, but the pair (p, p) and the pairs whose lo is a
    # tree column read a_hi + b_hi Z at the anchor of hi, times -l_q or
    # -l_q * -l_lo; there is one pair (p, p) per entry, listed first
    coef = -l_rows[pair_q]
    tree_lo = upper[entries[jp[upper]] == 2]
    tree_lo = np.append(tree_lo, mirror[tree_lo])
    affine = np.append((pair_p == pair_q).nonzero()[0], tree_lo)
    hi = np.maximum(jp[affine], jq[affine])
    scale = coef[affine]
    scale[len(pos):] *= -values[src[tree_lo]]
    coef[affine] = scale * b[hi]
    src[affine] = indptr[up[hi]]
    const = np.zeros(len(pos), dtype=complex)
    np.add.at(const, pair_p[affine], scale * a[hi])

    # the ends of each level's columns, entries and pairs
    col_end = np.bincount(level[by_level])[1:].cumsum()
    entry_end = col_stop[col_end - 1]
    pair_end = pair_stop[entry_end - 1]
    # roots hold 1/d_i from the start
    zs = np.zeros(len(values), dtype=complex)
    zs[indptr[:-1]] = z
    diag_slot = indptr[cols]
    inv_d = z[cols]
    # a level writes its products into these at its own positions, so that
    # reduceat over the prefix up to the level's end sums its segments only
    terms = np.empty(len(pairs), dtype=complex)
    weighted = np.empty(len(pos), dtype=complex)
    c0 = e0 = p0 = 0
    for c1, e1, p1 in zip(col_end.tolist(), entry_end.tolist(), pair_end.tolist()):
        np.multiply(coef[p0:p1], zs[src[p0:p1]], out=terms[p0:p1])
        z_entry = np.add.reduceat(terms[:p1], pair_first[e0:e1])
        z_entry += const[e0:e1]
        zs[pos[e0:e1]] = z_entry
        np.multiply(l_rows[e0:e1], z_entry, out=weighted[e0:e1])
        zs[diag_slot[c0:c1]] = inv_d[c0:c1] - np.add.reduceat(weighted[:e1], col_first[c0:c1])
        c0, e0, p0 = c1, e1, p1
    return zs[indptr[columns]]


def _unit_solve_diag(lu: scipy.sparse.linalg.SuperLU, rows: np.ndarray) -> np.ndarray:
    """The requested entries of diag(Z), one unit-vector solve each, in
    blocks of ``_SOLVE_BLOCK`` right-hand sides."""
    n = lu.shape[0]
    out = np.empty(len(rows), dtype=complex)
    for start in range(0, len(rows), _SOLVE_BLOCK):
        block = rows[start : start + _SOLVE_BLOCK]
        cols = np.arange(len(block))
        rhs = np.zeros((n, len(block)), dtype=complex)
        rhs[block, cols] = 1.0
        out[start : start + len(block)] = lu.solve(rhs)[block, cols]
    return out


# Right-hand sides per solve, which bounds the memory of a block and its
# solution. perfbench batch_files (seed 1, three interleaved 20-s runs each):
# peak_mem_mb was 0.0462 MB with 8 or 12 columns and 0.0479 MB with 16,
# against 0.0466 MB when small factors took the selected inversion;
# study_s did not tell 8, 12 and 16 apart (3.1-3.4 ms).
_SOLVE_BLOCK = 8


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
    if not i_kc.any():
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
    other buses are in the fault set. The per-bus columns come from one
    sort of the bus ids and one lookup of each reported bus in
    ``bus_index``.
    """
    options = options or FaultStudyOptions()
    bbm = build_bbm(net, options)

    buses = net.buses
    bus_id = np.fromiter(map(_ID, buses), np.int64, len(buses))
    # positions in net.buses of the reported buses, by ascending id
    pick = bus_id.argsort()
    if options.fault_buses != "all":
        known = bus_id[pick]
        wanted = set(options.fault_buses)
        unknown = sorted(wanted.difference(known.tolist()))
        if unknown:
            raise InvalidOptionError(f"unknown fault bus id(s): {unknown}")
        pick = pick[known.searchsorted(sorted(wanted))]
    reported = list(map(buses.__getitem__, pick.tolist()))
    bus_ids = bus_id[pick]
    rows = np.fromiter(map(bbm.bus_index.get, bus_ids.tolist(), repeat(-1)), np.int64, len(pick))
    energized = rows >= 0
    live_rows = rows[energized]
    vn_kv = np.fromiter(map(_VN, reported), float, len(pick))

    lu = factorize(bbm.y_matrix)
    z_diag = impedance_matrix_diag(lu, rows=live_rows)
    degenerate = np.abs(z_diag) < DEGENERATE_Z_TOL_PU
    z_safe = np.where(degenerate, 1.0, z_diag)
    c = _voltage_correction_factors(vn_kv[energized], options.lv_tolerance_percent, options.case)
    i_k1 = c / z_safe
    i_k2 = converter_contribution(lu, z_safe, bbm.i_kc, rows=live_rows)
    i_k1[degenerate] = complex(math.nan, 0.0)
    i_k2[degenerate] = complex(math.nan, 0.0)

    # scatter the live rows into the requested set; dead buses stay zero
    full_i1 = np.zeros(len(pick), dtype=complex)
    full_i2 = np.zeros(len(pick), dtype=complex)
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
        bus_names=tuple(map(_NAME, reported)),
        vn_kv=vn_kv,
        degenerate_buses=tuple(bus_ids[energized][degenerate].tolist()),
    )
