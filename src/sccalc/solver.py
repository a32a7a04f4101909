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

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .builder import BusBranchModel, FaultStudyOptions, StudyTopology, _gather, build_bbm, voltage_correction_factor
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

    # a result row's columns, in file order (unannotated: not a field)
    COLUMNS = ("bus_id", "name", "vn_kv", "ikss_source_ka", "ikss_converter_ka", "ikss_ka", "energized")

    def columns(self) -> list[list]:
        """The ``COLUMNS`` as Python lists, in the order of ``bus_ids``; one
        ``tolist`` per column, not one numpy scalar per cell."""
        return [
            self.bus_ids.tolist(), list(self.bus_names), self.vn_kv.tolist(), self.ikss_source_ka.tolist(),
            self.ikss_converter_ka.tolist(), self.ikss_ka.tolist(), self.energized.tolist(),
        ]

    def rows(self) -> list[dict]:
        """All result rows, one dict of the ``COLUMNS`` per reported bus."""
        return [dict(zip(self.COLUMNS, row)) for row in zip(*self.columns())]


def _require_finite(values: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(values).all():
        raise SingularMatrixError(f"{_SINGULAR}: non-finite {what}")
    return values


# supernodes and panels of one column pay off on near-tree Y (README: "relax=1, panel_size=1")
_SUPERNODE_RELAX = 1
_PANEL_SIZE = 1


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
            relax=_SUPERNODE_RELAX,
            panel_size=_PANEL_SIZE,
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
    the level rounds need the Z at its place: a pair of rows reads Z at the
    anchor for the diagonal, else at an entry slot, of a promoted tree
    column (see ``_selected_inverse_diag``) or of a branching one.
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
    one batch of numpy calls per dependency level. The tree columns that
    are rows of a branching column join those rounds as anchors of their
    own (promoted columns), so that Z between two rows of a column is
    always stored at an entry. Where the n x k block of right-hand sides for the k branching
    columns is small (see ``_UNIT_SOLVE_MAX_ENTRIES``), one unit-vector
    solve each gives their Z_jj for less than the rounds' set-up; a solve
    reads no pattern of L, so it never meets a dropped entry.

    Z is one array ``zs`` of n + E slots: the n diagonals, then, for the
    level rounds, one slot for each of the E entries below the diagonal of
    the columns in the rounds, in level order; no array is as long as L. On
    ``meshed_grid(1)`` (min case: n = 2 898, E = 2 200, nnz(L) = 6 900)
    Z_ii on a new factor peaks at 0.79 MB of traced memory, SuperLU's L and
    U 0.30 MB of it, and a study at 0.92 MB.
    """
    l_factor = lu.L
    # SuperLU leaves the rows unsorted; sorted, each column starts with its
    # explicit unit diagonal
    l_factor.sort_indices()
    indptr, indices, values = l_factor.indptr, l_factor.indices, l_factor.data
    entries = indptr[1:] - indptr[:-1]
    n = len(entries)
    branching = entries > 2
    width = np.count_nonzero(branching)
    rounds = n * width > _UNIT_SOLVE_MAX_ENTRIES
    tree = entries == 2
    if rounds:
        # the tree columns among the rows of branching columns join them
        rows = indices[np.repeat(branching, entries)]
        branching[rows] |= entries[rows] == 2
        tree &= ~branching
        del rows
    zs = np.empty(n + (entries[branching].sum() - np.count_nonzero(branching) if rounds else 0), dtype=complex)
    z = zs[:n]
    np.divide(1.0, lu.U.diagonal(), out=z)
    # Z_ii = a_i + b_i Z_(up_i); a column that is no tree column is its own
    # anchor (a = 0, b = 1, up = itself)
    first = indptr[:-1] + 1
    up = np.where(tree, indices.take(first, mode="clip"), np.arange(n))
    a = np.where(tree, z, 0.0)
    b = values.take(first, mode="clip")
    b = np.where(tree, b * b, 1.0)
    del first
    # one round halves every path to the anchor; done when no column points
    # at a tree column any more
    while np.count_nonzero(tree[up]):
        a += b * a[up]
        b *= b[up]
        up = up[up]
    del tree
    if rounds:
        _level_sweep(branching, indptr, indices, values, entries, zs, a, b, up)
    elif width:
        z[branching] = _unit_solve_diag(lu, lu.perm_c.argsort()[branching])
    return a + b * z[up]


# unit solves replace the rest while their n * m right-hand-side entries stay within this (README: "n·k ≤ 4096")
_UNIT_SOLVE_MAX_ENTRIES = 4096


def _level_sweep(
    branching: np.ndarray, indptr: np.ndarray, indices: np.ndarray, values: np.ndarray,
    entries: np.ndarray, zs: np.ndarray, a: np.ndarray, b: np.ndarray, up: np.ndarray,
) -> None:
    """Z_ii of the columns in the rounds (the mask ``branching``), written
    to their diagonal slots of ``zs``.

    Takahashi's recurrence of ``_selected_inverse_diag`` over these columns,
    scheduled by levels as sparse triangular solves are (Anderson & Saad
    1989): a column reads only Z at the anchors up_j of its rows j (a
    column in the rounds is its own anchor) and at entries of columns that
    are rows of it, so its level is one more than the highest of theirs,
    with roots at level 0, and the columns of one level do not read each
    other.

    ``zs`` holds the n diagonals, then one slot for each of the E entries
    below the diagonal of these columns, in level order, so that the
    entries of a level are one contiguous range. Diagonal slot i holds
    1/d_i until column i is done, then Z_ii. For every pair (p, q) of rows
    of a column it is worked out once per factor where Z_(jp, jq) comes
    from: Z_jj = a_j + b_j Z_(up_j) at the anchor for p = q, else the slot
    of (hi, lo) among the entries, with lo < hi the two rows in order (lo
    is in the rounds: a row of a column with two entries or more is no
    tree column). The constant parts -l_p a_p start in the entries' slots.
    A level is then a fixed handful of numpy calls: gather, multiply and
    ``reduceat`` per entry for Z_(i, jp) = -sum_q l_q Z_(jq, jp), added to
    its slot; multiply and ``reduceat`` per column for
    Z_ii = 1/d_i - sum_p l_p Z_(i, jp), subtracted from the diagonal slot.
    Raises _DroppedEntry if L lacks the entry (hi, lo) of a pair.

    The set-up frees each temporary after its last reader, and knows the
    entries by their slots in L and their rows until their values are last
    read, so that it holds little more than the rounds. On
    ``meshed_grid(1)`` (min case) a study holds 0.88 MB at most in the
    rounds and 0.92 MB in their set-up.
    """
    n = len(a)
    cols, level_cols = _level_order(branching, indptr, indices, up)
    # (count and rows are of the default integer type: numpy converts any
    # other at every repeat, cumsum and fancy index)
    count = entries[cols].astype(np.intp) - 1
    col_first = count.cumsum() - count
    # the entries below the diagonal, column by column in level order: the
    # place k of each in its column, and its slot in L
    k = np.arange(len(zs) - n) - np.repeat(col_first, count)
    at = np.repeat(indptr[cols] + 1, count) + k
    # the pair (p, p) reads a_p + b_p Z at the anchor of its row, with
    # coefficient -l_p: -l_p a_p starts the slot of entry p
    rows = indices[at].astype(np.intp)
    z_entries = zs[n:]
    np.negative(np.multiply(values[at], a[rows], out=z_entries), out=z_entries)
    # entry p, the k-th of a column of m entries, pairs with every entry q
    # of the column, at pair_first[p] + k_q = diagonal[p] + q - p
    per_entry = np.repeat(count, count)
    pairs = int(per_entry.sum())
    diagonal = per_entry.cumsum() - per_entry + k

    # the pairs p < q: q runs from p + 1 over the later entries of p's
    # column; with lo < hi their rows, both (p, q) and (q, p) read Z at
    # the slot of (hi, lo) among the entries
    later = per_entry - 1 - k
    del per_entry, k
    up_p = np.repeat(np.arange(len(at)), later)
    up_q = np.repeat(np.arange(len(at)) - (later.cumsum() - later), later)
    del later
    up_q += np.arange(1, len(up_q) + 1)
    slot = _entry_slots(rows[up_p], rows[up_q], cols, count, rows, n)
    slot += n
    # (p, q) goes to the run of entry p with coefficient -l_q, (q, p) to
    # that of q with -l_p
    src = np.empty(pairs, dtype=np.intp)
    coef = np.empty(pairs, dtype=complex)
    for p, q in ((up_p, up_q), (up_q, up_p)):
        pair = diagonal[p] + (q - p)
        src[pair] = slot
        l_q = values[at[q]]
        coef[pair] = np.negative(l_q, out=l_q)
        del l_q
    del up_p, up_q, slot, p, q, pair
    # and (p, p) reads the anchor of its row with coefficient -l_p b_p
    src[diagonal] = up[rows]
    weight = b[rows]
    del rows
    l_rows = values[at]
    del at
    coef[diagonal] = np.negative(np.multiply(l_rows, weight, out=weight), out=weight)
    del weight

    # the first and the end of each level's columns, entries and pairs;
    # pair_first = diagonal - k only now, as held through the pairs'
    # set-up it would add to the peak. col_first and pair_first count from
    # the start of their level
    pair_first = diagonal - np.arange(len(diagonal)) + np.repeat(col_first, count)
    del diagonal
    col_end = level_cols.cumsum()
    entry_start, entry_end = col_first[col_end - level_cols], col_first[col_end - 1] + count[col_end - 1]
    pair_start = pair_first[entry_start]
    pair_end = np.append(pair_start[1:], pairs)
    col_first -= np.repeat(entry_start, level_cols)
    pair_first -= np.repeat(pair_start, entry_end - entry_start)
    ends = zip(col_end.tolist(), entry_end.tolist(), pair_end.tolist())
    # one buffer each for the products of a level's pairs and entries, as
    # long as the widest level
    terms = np.empty((pair_end - pair_start).max(), dtype=complex)
    weighted = np.empty((entry_end - entry_start).max(), dtype=complex)
    del count, level_cols, col_end, entry_start, entry_end, pair_start, pair_end

    c0 = e0 = p0 = 0
    for c1, e1, p1 in ends:
        # a level's products go to the front of the buffers, and its runs
        # count from its start
        level_terms, level_weighted = terms[: p1 - p0], weighted[: e1 - e0]
        np.multiply(coef[p0:p1], zs.take(src[p0:p1], out=level_terms), out=level_terms)
        z_entry = z_entries[e0:e1]
        z_entry += np.add.reduceat(level_terms, pair_first[e0:e1])
        np.multiply(l_rows[e0:e1], z_entry, out=level_weighted)
        zs[cols[c0:c1]] -= np.add.reduceat(level_weighted, col_first[c0:c1])
        c0, e0, p0 = c1, e1, p1


def _level_order(branching: np.ndarray, indptr: np.ndarray, indices: np.ndarray, up: np.ndarray) -> tuple:
    """The columns of the mask ``branching`` by level, and the number of
    them in each level.

    The anchors of a column's rows other than the first are the anchor of
    the first row (the column's parent in the elimination tree) or its
    ancestors, whose levels are lower still. So a level is a depth in the
    tree of anchors, found by pointer jumping as for the tree columns, on
    the columns in the rounds only; slot ``width`` stands for every root."""
    columns = branching.nonzero()[0]
    width = len(columns)
    slot = np.full(len(branching), width)
    slot[columns] = np.arange(width)
    hop = np.append(slot[up[indices[indptr[columns] + 1]]], width)
    del slot
    level = np.ones(width + 1, dtype=np.intp)
    level[-1] = 0
    while (above := level[hop]).any():
        level += above
        hop = hop[hop]
    return columns[level[:-1].argsort(kind="stable")], np.bincount(level[:-1])[1:]


def _entry_slots(
    lo: np.ndarray, hi: np.ndarray, cols: np.ndarray, count: np.ndarray, rows: np.ndarray, n: int
) -> np.ndarray:
    """The slot of (hi, lo) for each pair of rows lo < hi among the entries
    of the columns ``cols`` of L, of which column c has ``count`` entries
    in the rows ``rows``, column after column.

    The keys col*n + row ascend within each level, so a stable sort merges
    these runs; sorted needles are found faster (2x at 1k pairs). A key
    that is missing means SuperLU dropped an entry that cancelled to zero;
    reading another slot instead would be silently wrong."""
    keys = np.repeat(cols.astype(np.int64) * n, count)
    keys += rows
    order = keys.argsort(kind="stable")
    keys = keys[order]
    wanted = lo.astype(np.int64) * n + hi
    by_key = wanted.argsort()
    wanted = wanted[by_key]
    found = keys.searchsorted(wanted)
    if not np.array_equal(keys.take(found, mode="clip"), wanted):
        raise _DroppedEntry("L lacks an entry that a branching column needs")
    slot = np.empty_like(found)
    slot[by_key] = order[found]
    return slot


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


# right-hand sides per solve, which bounds a block's memory (README: `solver._SOLVE_BLOCK`)
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


def calc_sc(study: Network | StudyTopology, options: FaultStudyOptions | None = None) -> ShortCircuitResult:
    """Run a complete study of a network or of a topology ``prepare`` made
    of it: build the per-unit network, solve both source components for
    every requested fault bus and combine them.

    The fault-location quantities are applied here, per fault bus: the
    voltage correction factor c of the bus's nominal voltage (the equivalent
    voltage source c*Un/sqrt(3)) and the current base
    s_base_mva / (sqrt(3)*Un) that turns per-unit currents into kA.

    Reported rows follow ascending bus id and are restricted to
    ``options.fault_buses``; each bus's result is independent of which
    other buses are in the fault set.
    """
    options = options or FaultStudyOptions()
    bbm = build_bbm(study, options)
    buses, live_rows = _reported_buses(bbm, options.fault_buses)
    i_kc, y_matrix = bbm.i_kc, bbm.y_matrix

    # each stage's arrays go as soon as the next stage no longer needs them:
    # the topology, unless the caller holds it, and Y once it is
    # factorized, the factor (with SuperLU's L and U) once the converter
    # solve is done
    del bbm
    lu = factorize(y_matrix)
    del y_matrix
    z_diag = impedance_matrix_diag(lu, rows=live_rows)
    degenerate = np.abs(z_diag) < DEGENERATE_Z_TOL_PU
    z_diag[degenerate] = 1.0
    i_k2 = converter_contribution(lu, z_diag, i_kc, rows=live_rows)
    del lu
    return _result(options, buses, z_diag, degenerate, i_k2)


def _reported_buses(bbm: BusBranchModel, fault_buses) -> tuple[tuple, np.ndarray]:
    """The buses a study of ``bbm`` reports, in ascending id order and
    restricted to ``fault_buses`` unless it is "all": their ids, nominal
    voltages and names, which are the bus columns of the topology, and
    whether each is energized; then the rows in Y of the energized ones.
    An id that names no bus raises InvalidOptionError."""
    t = bbm.topology
    # (the result owns its columns)
    bus_ids, vn_kv, bus_names, pick = t.bus_ids.copy(), t.vn_kv.copy(), t.bus_names, t.id_order
    if fault_buses != "all":
        wanted = set(fault_buses)
        unknown = sorted(wanted.difference(bus_ids.tolist()))
        if unknown:
            raise InvalidOptionError(f"unknown fault bus id(s): {unknown}")
        at = bus_ids.searchsorted(sorted(wanted))
        bus_ids, vn_kv, bus_names, pick = bus_ids[at], vn_kv[at], _gather(bus_names, at.tolist()), pick[at]
    rows = bbm.bus_index[pick]
    energized = rows >= 0
    return (bus_ids, vn_kv, bus_names, energized), rows[energized]


def _result(options: FaultStudyOptions, buses: tuple, z_diag, degenerate, i_k2) -> ShortCircuitResult:
    """The result of the reported ``buses`` of ``_reported_buses`` from the
    per-unit quantities of the energized ones: Z_ii, with 1.0 at the
    ``degenerate`` buses, and the converter component ``i_k2``. The source
    component is c / Z_ii; both are NaN at a degenerate bus and zero at a
    dead one."""
    bus_ids, vn_kv, bus_names, energized = buses
    vn_live = vn_kv[energized]
    i_k1 = voltage_correction_factor(vn_live, options.lv_tolerance_percent, options.case) / z_diag
    i_k1[degenerate] = i_k2[degenerate] = complex(math.nan, 0.0)

    # the live rows of the requested set; dead buses stay zero
    source_ka, converter_ka, total_ka = np.zeros((3, len(bus_ids)))
    source_ka[energized], converter_ka[energized], total_ka[energized] = total_current(
        i_k1, i_k2, options.s_base_mva / (math.sqrt(3.0) * vn_live)
    )

    return ShortCircuitResult(
        bus_ids=bus_ids, ikss_source_ka=source_ka, ikss_converter_ka=converter_ka, ikss_ka=total_ka,
        energized=energized, options=options, bus_names=bus_names, vn_kv=vn_kv,
        degenerate_buses=tuple(bus_ids[energized][degenerate].tolist()),
    )
