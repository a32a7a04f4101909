"""Conversion of the element-based model into a per-unit bus-branch model.

For a given fault case this applies the IEC 60909 equivalent circuits and
correction factors to every element, fuses closed switches into electrical
nodes, decomposes three-winding transformers into star branches and stamps
the nodal admittance matrix. Voltage sources are replaced by their internal
impedance (shunt to reference); full converter units only feed the current
injection vector.

Per-unit system: configurable power base (default 1 MVA), voltage base is
each bus's nominal voltage, so multi-voltage-level networks need no manual
impedance referral. Off-nominal transformer ratios are handled with the
standard ideal-ratio branch stamp.
"""
from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .exceptions import InvalidOptionError, SingularStampError, UnsolvableIslandError, ValidationError
from .model import Network, _Tables, validate

__all__ = [
    "FaultStudyOptions",
    "BusBranchModel",
    "StudyTopology",
    "voltage_correction_factor",
    "prepare",
    "fuse_switches",
    "build_bbm",
]

# boundary between the low-voltage rows and the "> 1 kV" row of the
# c-factor table
LV_LEVEL_MAX_KV = 1.0

# temperature coefficient of conductor resistance for the minimum-case
# line correction (standard value for copper/aluminium conductors)
ALPHA_PER_K = 0.004

# per-unit branch impedances below this magnitude cannot be stamped
ZERO_STAMP_TOL_PU = 1e-12


@dataclass(frozen=True)
class FaultStudyOptions:
    """What to compute: fault case, voltage tolerance, fault set, DG handling."""

    case: str = "max"
    lv_tolerance_percent: int = 10
    fault_buses: str | tuple[int, ...] = "all"
    consider_converters: bool = True
    s_base_mva: float = 1.0

    def __post_init__(self):
        _check_case(self.case)
        _check_tolerance(self.lv_tolerance_percent)
        if not (_is_number(self.s_base_mva) and 0 < self.s_base_mva < math.inf):
            raise InvalidOptionError(f"s_base_mva must be finite and > 0, got {self.s_base_mva!r}")
        if not isinstance(self.consider_converters, (bool, np.bool_)):
            raise InvalidOptionError(f"consider_converters must be a bool, got {self.consider_converters!r}")
        # plain Python values, so that result metadata serializes as JSON
        object.__setattr__(self, "lv_tolerance_percent", int(self.lv_tolerance_percent))
        object.__setattr__(self, "s_base_mva", float(self.s_base_mva))
        object.__setattr__(self, "consider_converters", bool(self.consider_converters))
        if isinstance(self.fault_buses, (str, bytes, bytearray)):
            if self.fault_buses == "all":
                return
            ids = None
        else:
            try:
                ids = tuple(self.fault_buses)
            except TypeError:
                ids = None
        if ids is None:
            raise InvalidOptionError(f"fault_buses must be 'all' or a sequence of bus ids, got {self.fault_buses!r}")
        for b in ids:
            if not _is_integer(b):
                raise InvalidOptionError(f"fault_buses must hold integer bus ids, got {b!r}")
        object.__setattr__(self, "fault_buses", tuple(map(int, ids)))


def _check_case(case) -> None:
    if case not in ("max", "min"):
        raise InvalidOptionError(f"case must be 'max' or 'min', got {case!r}")


def _check_tolerance(tolerance_percent) -> None:
    if not _is_integer(tolerance_percent) or tolerance_percent not in (6, 10):
        raise InvalidOptionError(f"lv_tolerance_percent must be the integer 6 or 10, got {tolerance_percent!r}")


def _is_integer(value) -> bool:
    """An int or numpy integer, but not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A real number (int, float or their numpy types), but not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True, eq=False, slots=True)
class StudyTopology:
    """What every study of a network shares, whatever its options: the
    read, validated once, and all that follows from it alone.

    The buses in ascending id order (``bus_ids``, ``vn_kv``, ``bus_names``)
    and their positions in ``net.buses`` (``id_order``); ``bus_index[p]``,
    the row of ``net.buses[p]``, -1 out of service or in no energized
    island. Y has ``dim`` rows, star points in the trailing ``n_aux``, and
    the ``pattern`` ``indices``, ``indptr``, ``place``, ``first``: a case
    puts its stamps at ``place`` in the sorted order and sums the runs that
    start at ``first``. Last, what the values of a case need, as case-free
    as the arithmetic allows: see ``build_bbm`` (``lines`` ends in the
    liveness of each line and the stamped ones, ``trafos`` in the stamped
    branches and their 1 / tap**2 and -1 / tap).
    """

    bus_ids: np.ndarray
    vn_kv: np.ndarray
    bus_names: tuple[str, ...]
    id_order: np.ndarray
    bus_index: np.ndarray
    dim: int
    n_aux: int
    pattern: tuple
    grids: tuple
    lines: tuple
    trafos: tuple
    converters: tuple


@dataclass
class BusBranchModel:
    """Per-unit network of one fault case on its ``topology``: the sparse
    admittance matrix and the converter current injections, one row per
    fused, energized node, three-winding star points in the trailing
    ``n_aux`` rows. ``bus_index[p]`` is the row of ``net.buses[p]``, -1 for
    a bus that is out of service or in no energized island. ``calc_sc``
    applies c and the current base at each fault bus.
    """

    bus_index: np.ndarray
    y_matrix: scipy.sparse.csc_matrix
    i_kc: np.ndarray
    n_aux: int
    topology: StudyTopology


def voltage_correction_factor(vn_kv, tolerance_percent: int, case: str) -> np.ndarray:
    """Voltage correction factor c of each voltage level in ``vn_kv`` for a
    fault case.

    Low voltage (<= 1 kV): c_max is 1.05 at 6 % tolerance, 1.10 at 10 %;
    c_min is 0.95 for both. Above 1 kV the tolerance class is ignored and
    c is 1.10 / 1.00. ``case`` must be "max" or "min" and, in the maximum
    case, which alone reads it, ``tolerance_percent`` 6 or 10; otherwise
    InvalidOptionError is raised, as ``FaultStudyOptions`` raises it.
    """
    _check_case(case)
    if case == "max":
        _check_tolerance(tolerance_percent)
        return np.where(vn_kv <= LV_LEVEL_MAX_KV, 1.05 if tolerance_percent == 6 else 1.10, 1.10)
    return np.where(vn_kv <= LV_LEVEL_MAX_KV, 0.95, 1.00)


def _roots(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The root of each item 0..n-1 in the graph of the edges (a[i], b[i]),
    the smallest item of its component, by hooking and pointer jumping
    (Shiloach & Vishkin 1982): a round hooks the larger label of every edge
    under the smallest label it meets, then jumps ``lab = lab[lab]`` until
    the labels are stable. Labels only fall along edges."""
    lab = np.arange(n)
    # every item is its own label, so the first round reads the edges
    lab_a, lab_b = a, b
    while True:
        np.minimum.at(lab, np.maximum(lab_a, lab_b), np.minimum(lab_a, lab_b))
        while np.count_nonzero((up := lab.take(lab)) != lab):
            lab = up
        lab_a, lab_b = lab.take(a), lab.take(b)
        if not np.count_nonzero(lab_a != lab_b):
            return lab


def fuse_switches(tables: _Tables, ties: np.ndarray) -> np.ndarray:
    """The study node of each bus of the read ``tables``: buses joined by
    the closed bus-bus switches ``ties`` (the ranks of both ends among the
    sorted bus ids) share one node. Nodes are numbered by their smallest
    bus id, in ascending id order, and a bus out of service keeps -1. The
    node partition is independent of switch order."""
    tie_a, tie_b = ties
    # a tied bus joins the node of the smallest bus it is tied to; ranks
    # among the sorted ids order the ties
    order = tables.order
    head = tables.in_service[order]
    if len(tie_a):
        # a tied bus heads no node unless it is the root of its ties
        root = _roots(len(order), tie_a, tie_b)
        head &= root == np.arange(len(root))
    heads = order[head]
    node = np.full(len(order), -1, np.intp)
    node[heads] = np.arange(len(heads))
    if len(tie_a):
        node[order] = node[order[root]]
    return node


def prepare(net: Network) -> StudyTopology:
    """The case-free study model of ``net``, for any number of studies: one
    typed read and ``validate``, the switch fusion, the energized islands,
    the rows and the pattern of Y, all copied out of ``net``. Raises
    ValidationError on malformed input; the stamp and island errors are
    each case's, since whether a stamp is singular depends on the case.
    """
    tables = _Tables(net)
    violations = validate(net, tables)
    if violations:
        raise ValidationError(violations)
    if not tables.ok:
        tables.coerce()
    terminals, live, windings, ties = tables.elements()
    node = fuse_switches(tables, ties)

    # study node numbers: fused nodes by ascending id, then one star point
    # per three-winding transformer, in transformer order; the star point
    # of a dead one joins no branch and stays dead, so it gets no row
    # (argmax and one item cost less than numpy's max reduction)
    n_fused = node.item(node.argmax()) + 1
    n_nodes = n_fused + len(live["trafo3w"])
    # the columns of the values, copied out of the read: per external grid
    # vn, vn**2, (R/X)_max and (R/X)_min side by side, S''_k max and min;
    # per live line r' * length and x' * length side by side, the minimum
    # case's 1 + alpha * (endtemp - 20) and vn**2 of its from bus, then
    # which lines are live
    f, at, vn, on = tables.floats, tables.at, tables.vn, live["external_grid"]
    g = terminals["external_grid"][0]
    grids = vn[g], np.float_power(vn[g], 2.0), *(f[at[k]].copy() for k in ("eg_rx", "s_sc_max", "s_sc_min")), on
    sources = node[g[on]]
    on = live["line"]
    ends = terminals["line"].compress(on, 1)
    rx = (f[at["r:x"]].reshape(2, -1) * f[at["length"]]).T.compress(on, 0)
    lines = rx, 1.0 + ALPHA_PER_K * (f[at["endtemp"]][on] - 20.0), vn[ends[0]] ** 2, on
    fr, to = node[ends]
    trafos, tap, t_ends = _transformer_columns(tables, terminals, live, windings, node, n_fused)
    p, on = terminals["converter"][0], live["converter"]
    vn_c = math.sqrt(3.0) * vn[p[on]]
    k_sn = -f[at["conv_k"]][on] * (f[at["conv_sn"]][on] / vn_c)
    order = tables.order
    bus_ids, vn, names = tables.sorted_ids, vn[order], tables.names
    # of the read, only these columns outlive the pattern
    del tables, f, ends, terminals, windings, rx
    names = _gather(names, order.tolist())

    # energized islands: the components that hold a voltage source node
    at = np.concatenate((t_ends.ravel(), sources))
    nt = len(tap)
    energized = _energized(n_nodes, fr, to, at, nt)
    # the energized nodes keep their order as rows, real rows first; the
    # row of a dead node is -1, and so is that of the node -1 of a dead bus,
    # which is the last entry
    live_nodes = energized.nonzero()[0]
    dim = len(live_nodes)
    node_row = np.full(n_nodes + 1, -1, np.intp)
    node_row[live_nodes] = np.arange(dim)
    bus_index = node_row[node]
    del node
    n_aux = dim - int(live_nodes.searchsorted(n_fused))
    # a converter in a dead island adds to no row
    conv_row = bus_index[p[on]]
    on = conv_row >= 0
    converters = conv_row[on], vn_c[on], k_sn[on]

    # both ends of a transformer branch lie in one island, so a branch in a
    # dead one has the row -1 at both; branches inside one fused node stamp
    # nothing
    row_at = node_row[at]
    t_rows = row_at[: 2 * nt].reshape(2, nt)
    t_on = t_rows[0] != t_rows[1]
    tap = tap[t_on]
    keep = energized[fr] & (fr != to)
    ends = node_row[fr[keep]], node_row[to[keep]]
    del fr, to, energized, node_row, at, p
    pattern = _pattern(ends, t_rows.compress(t_on, 1), row_at[2 * nt :], dim)
    trafos = (*trafos, t_on, 1.0 / np.float_power(tap, 2.0), -1.0 / tap)
    return StudyTopology(
        bus_ids, vn, names, order, bus_index, dim, n_aux, pattern, grids, (*lines, keep), trafos, converters
    )


def _gather(items: list, at: list[int]) -> tuple:
    """``items[i]`` for each ``i`` in ``at``, in one C-level pass for two or
    more; ``operator.itemgetter`` returns a bare item for one index and
    cannot take none."""
    return operator.itemgetter(*at)(items) if len(at) > 1 else tuple(items[i] for i in at)


def _pattern(lines: tuple, trafos: np.ndarray, shunts: np.ndarray, dim: int) -> tuple:
    """The pattern of Y, ``indices`` and ``indptr``, from the rows of the
    ends of the stamped ``lines`` and ``trafos`` (ff, tt, ft and tf stamps
    each) and of the source ``shunts``, and where the stamps go: the place
    of each in the sorted order, and the first of each run of equal places.
    The sort of the keys col * dim + row is stable, so Y[i, j] and Y[j, i]
    sum the same terms in the same order and Y stays exactly symmetric.
    The rows are int32; the columns go straight into the int64 keys: on
    int32 columns, col * dim would wrap above 46 340 nodes."""
    m = 4 * len(lines[0])
    n = m + 4 * len(trafos[0])
    rows = np.empty(n + len(shunts), dtype=np.int32)
    key = np.empty(len(rows), dtype=np.int64)
    for i, j, (f, t) in ((0, m, lines), (m, n, trafos)):
        rows[i:j:4] = rows[i + 2 : j : 4] = key[i:j:4] = key[i + 3 : j : 4] = f
        rows[i + 1 : j : 4] = rows[i + 3 : j : 4] = key[i + 1 : j : 4] = key[i + 2 : j : 4] = t
    rows[n:] = key[n:] = shunts
    key *= dim
    key += rows
    del rows
    order = key.argsort(kind="stable")
    key = key[order]
    # (int32 places: a study scatters them once each, and holds them all)
    place = np.empty(len(order), np.int32)
    place[order] = np.arange(len(order), dtype=np.int32)
    # stored by kind of stamp: per kind of branch, its ff, tt, ft and tf
    # stamps, each branch by branch, then the shunts
    place = np.concatenate((place[:m].reshape(-1, 4).T.ravel(), place[m:n].reshape(-1, 4).T.ravel(), place[n:]))
    del order
    first = np.empty(len(key), dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    first = first.nonzero()[0]
    key = key[first]
    indptr = (key // dim).searchsorted(np.arange(dim + 1)).astype(np.int32)
    return (key % dim).astype(np.int32), indptr, place, first


def build_bbm(study: Network | StudyTopology, options: FaultStudyOptions) -> BusBranchModel:
    """Build the per-unit bus-branch model for one fault case on the
    topology ``study``, or on one prepared from the network ``study``: the
    values of the case fill the fixed pattern of Y. Raises ValidationError
    on malformed input, SingularStampError on (near-)zero branch
    impedances, for the first external grid, else line, else transformer
    branch, and UnsolvableIslandError when no island holds a source.
    """
    t = study if isinstance(study, StudyTopology) else prepare(study)
    case, s_base = options.case, options.s_base_mva
    # the internal impedances of the live external grids: |Z| = c * vn**2 /
    # S''_k with the case's short-circuit power, split by its R/X ratio as
    # X = |Z| / sqrt(1 + (R/X)**2) and R = (R/X) * X, over the impedance base
    vn, vn2, rx, s_max, s_min, on = t.grids
    rx = rx[case == "min" :: 2]
    x = voltage_correction_factor(vn, options.lv_tolerance_percent, case) * vn2 / (s_min if case == "min" else s_max)
    x /= np.sqrt(1.0 + rx * rx)
    vn2 = vn2 / s_base
    z_q = np.empty(len(x), complex)
    z_q.real, z_q.imag = rx * x / vn2, x / vn2
    z_q = z_q[on]
    _check_stampable(z_q, on, "external_grids[{}]".format)
    # the series impedances of the live lines: r and x in ohms, the
    # minimum case scaling r up to the conductor end temperature, then the
    # per-unit conversion, in this order
    rx, heat, vn2, on, keep = t.lines
    rx = rx.copy()
    if case == "min":
        rx[:, 0] *= heat
    rx /= (vn2 / s_base)[:, None]
    z = rx.view(complex).ravel()
    _check_stampable(z, on, "lines[{}]".format)
    y = z[keep]
    del rx, z
    z_t = _transformer_impedances(t, options)
    if not t.dim:
        raise UnsolvableIslandError("no energized island: no in-service external grid is connected")

    # each stamp goes to its place in the sorted order, and runs of equal
    # places are summed by reduceat. A branch stamps y at ff and tt and -y
    # at ft and tf; a transformer branch y / tap**2 at ff and -y / tap, each
    # as y times 1 / tap**2 or -1 / tap. numpy's complex reciprocal takes
    # the steps of CPython's 1.0 / z.
    stamped, by_tap2, by_tap = t.trafos[6:]
    indices, indptr, place, first = t.pattern
    m, n = 4 * len(y), 4 * len(by_tap)
    vals = np.empty(len(place), complex)
    lines, trafos = place[:m].reshape(4, -1), place[m : m + n].reshape(4, -1)
    vals[lines[0]] = vals[lines[1]] = np.reciprocal(y, out=y)
    vals[lines[2]] = vals[lines[3]] = np.negative(y, out=y)
    y = np.reciprocal(z_t[stamped])
    vals[trafos[0]] = y * by_tap2
    vals[trafos[1]] = y
    vals[trafos[2]] = vals[trafos[3]] = y * by_tap
    vals[place[m + n :]] = np.reciprocal(z_q)
    del y, lines, trafos
    data = np.add.reduceat(vals, first)
    del vals
    y_matrix = scipy.sparse.csc_matrix((data, indices, indptr), shape=(t.dim, t.dim))

    # converter injections -j*k*I_rated, I_rated = sn / (sqrt(3)*vn) in kA,
    # over the current base, summed per row in converter order
    i_kc = np.zeros(t.dim, dtype=complex)
    if options.consider_converters:
        rows, vn_c, k_sn = t.converters
        i_kc.imag = np.bincount(rows, k_sn / (s_base / vn_c), t.dim)
    return BusBranchModel(bus_index=t.bus_index, y_matrix=y_matrix, i_kc=i_kc, n_aux=t.n_aux, topology=t)


# The external grids and the transformers take the steps of the scalar
# formulas in CPython, bit for bit: ``float_power`` squares with libm's pow,
# as x**2 does, where numpy's x**2 multiplies; a complex times a real number
# is numpy's complex product, but a complex over a real number divides its
# real and imaginary parts, since numpy's complex quotient takes other steps.


def _transformer_columns(
    tables: _Tables, terminals: dict, live: dict, windings: np.ndarray, node: np.ndarray, n_fused: int
) -> tuple:
    """Per winding pair (each two-winding transformer, then the pairs hm,
    ml and hl of each three-winding one, rated at the smaller of their two
    windings): r + jx on its rating, r = vkr / 100 and x = sqrt(vk**2 -
    vkr**2) / 100, 1 + 0.6 * x, the voltage of the transformer's LV bus,
    the rating, (vn_lv / vb_lv)**2 of a two-winding one, and whether each
    branch is live. Then, per live branch, its tap at the from end and the
    nodes of its ends: HV to LV bus of a two-winding transformer, winding
    bus to star point (node ``n_fused`` plus the index) of a three-winding
    one. A triple side by side with itself holds each winding's
    neighbours in the order hv, mv, lv."""
    vn, f, at = tables.vn, tables.floats, tables.at
    ends = terminals["trafo2w"]
    wound = terminals["trafo3w"].T
    n2, n3 = ends.shape[1], len(wound)
    sn, vb, vn_2 = f[at["t2_sn:t3_sn"]].copy(), vn[ends], f[at["t2_vn"]]
    vb_lv = vb[1]
    # (a grid without three-winding transformers skips their work, which
    # would cost it a dozen numpy calls on empty arrays)
    if n3:
        vb_3w = vn[wound]
        sn_3w = np.concatenate((sn[n2:].reshape(-1, 3),) * 2, 1)
        sn = np.concatenate((sn[:n2], np.minimum(sn_3w[:, :3], sn_3w[:, 1:4]).ravel()))
        vb_lv = np.concatenate((vb_lv, vb_3w[:, 2].repeat(3)))
    square = np.float_power(f[at["t2_vkr:t3_vk"]].reshape(2, -1), 2.0)  # rows vkr, vk
    x = np.sqrt(square[1] - square[0]) / 100.0
    z = np.empty(len(x), complex)
    z.real, z.imag = f[at["t2_vkr:t3_vkr"]] / 100.0, x
    tap = (vn_2[::2] / vn_2[1::2]) * (vb[1] / vb[0])
    on, ends = live["trafo2w"], node[ends]
    if n3:
        on = np.concatenate((on, (windings.T & live["trafo3w"][:, None]).ravel()))
        tap = np.concatenate((tap, f[at["t3_vn"]] / vb_3w.ravel()))
        ends = np.concatenate((ends, (node[wound.ravel()], np.arange(n_fused, n_fused + n3).repeat(3))), 1)
    ratio = np.float_power(vn_2[1::2] / vb[1], 2.0)
    return (z, 1.0 + 0.6 * x, vb_lv, sn, ratio, on), tap[on], ends.compress(on, 1)


def _transformer_impedances(t: StudyTopology, options: FaultStudyOptions) -> np.ndarray:
    """The series impedances in per unit of the live transformer branches:
    each winding pair's impedance times K_T = 0.95 * c_max / (1 + 0.6 * x)
    at the level of the transformer's LV bus, then the study base and, for
    a two-winding transformer, the voltage of its LV bus; then the star
    branches of the three-winding ones."""
    z, d, vb_lv, sn, ratio, on = t.trafos[:6]
    n2 = len(ratio)
    z = z * (0.95 * voltage_correction_factor(vb_lv, options.lv_tolerance_percent, "max") / d)
    z *= options.s_base_mva / sn
    z[:n2] *= ratio
    if len(z) > n2:
        # the star branches: hv, mv and lv each take the two pairs they
        # are in, less the third, halved; a negative one is kept, and the
        # stamp takes it
        pairs = np.concatenate((z[n2:].reshape(-1, 3),) * 2, 1)
        star = pairs[:, :3] + pairs[:, 2:5]
        star -= pairs[:, 1:4]
        star *= 0.5
        z[n2:] = star.ravel()
    z = z[on]
    _check_stampable(z, on, lambda i: _transformer(i, n2))
    return z


def _check_stampable(z: np.ndarray, on: np.ndarray, element) -> None:
    """Raise SingularStampError when one of the per-unit impedances ``z``
    of the live elements ``on`` is too close to zero to stamp; it names the
    first of them, as ``element`` of its index among all."""
    tiny = np.abs(z) < ZERO_STAMP_TOL_PU
    if np.count_nonzero(tiny):
        k = int(tiny.argmax())
        raise SingularStampError(
            f"{element(int(on.nonzero()[0][k]))}: branch impedance {complex(z[k])!r} pu is too close to zero to stamp"
        )


def _transformer(i: int, n2: int) -> str:
    """The name of winding pair ``i`` of the transformer branches: a
    two-winding transformer, then the star branches of the three-winding
    ones."""
    if i < n2:
        return f"transformers2w[{i}]"
    k, w = divmod(i - n2, 3)
    return f"transformers3w[{k}] ({('hv', 'mv', 'lv')[w]} star branch)"


def _energized(n_nodes: int, fr: np.ndarray, to: np.ndarray, at: np.ndarray, nt: int) -> np.ndarray:
    """Whether each node lies in an island that holds a source node: the
    islands of the lines (fr[i], to[i]) and the ``nt`` transformer branches
    (at[i], at[nt + i]), the source nodes ``at[2 * nt:]``."""
    roots = _roots(n_nodes, np.concatenate((fr, at[:nt])), np.concatenate((to, at[nt : 2 * nt])))
    fed = np.zeros(n_nodes, bool)
    fed[roots[at[2 * nt :]]] = True
    return fed[roots]
