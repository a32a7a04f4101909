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
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .exceptions import InvalidOptionError, SingularStampError, UnsolvableIslandError, ValidationError
from .model import Network, _Tables, validate

__all__ = [
    "FaultStudyOptions",
    "BusBranchModel",
    "SwitchFusion",
    "voltage_correction_factor",
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


@dataclass
class BusBranchModel:
    """Per-unit network of one fault case: the sparse admittance matrix and
    the converter current injections, one row per electrical node.

    Rows cover the fused, energized electrical nodes; three-winding star
    points occupy the trailing ``n_aux`` rows and are never reported.
    ``bus_index[p]`` is the row of ``net.buses[p]``, -1 for a bus that is
    out of service or in no energized island. The model holds no
    fault-location quantity: ``calc_sc`` applies c and the current base at
    each fault bus, from the bus columns ``bus_ids``, ``vn_kv`` and
    ``bus_names``, aligned with ``net.buses``; ``id_order`` sorts them by id.
    """

    bus_index: np.ndarray
    y_matrix: scipy.sparse.csc_matrix
    i_kc: np.ndarray
    n_aux: int
    bus_ids: np.ndarray
    vn_kv: np.ndarray
    bus_names: list[str]
    id_order: np.ndarray


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


@dataclass(frozen=True)
class SwitchFusion:
    """Result of switch processing, as arrays aligned with the network's
    lists.

    ``node[p]`` is the study node of ``net.buses[p]``, -1 when the bus is out
    of service; fused nodes are numbered by ascending smallest bus id.
    ``terminals[kind]`` holds the positions in ``net.buses`` of the
    elements' terminal buses, one row per terminal field in the order of
    the element's fields (``terminals["line"][0][i]`` is the from bus of
    line ``i``). ``live[kind][i]`` tells whether element ``i`` of a kind is
    electrically live, and ``windings[w, i]`` whether winding ``w`` (hv,
    mv, lv) of three-winding transformer ``i`` has its bus in service and
    no open switch cutting it.
    """

    node: np.ndarray
    terminals: dict[str, np.ndarray]
    live: dict[str, np.ndarray]
    windings: np.ndarray


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


def fuse_switches(net: Network, tables: _Tables | None = None) -> SwitchFusion:
    """Merge buses joined by closed bus-bus switches and collect element
    terminals cut by open bus-element switches.

    The node partition is independent of switch order. The network must be
    valid: every element terminal names an existing bus, and every open
    element switch an existing element and one of its terminals.
    ``tables`` is the typed read of ``net`` when the caller holds it
    already; the terminal positions and liveness come from its columns.
    """
    t = tables
    if t is None:
        t = _Tables(net)
        if not t.ok:
            t.coerce()
    terminals, live, windings, (tie_a, tie_b) = t.elements()

    # nodes are numbered by their smallest bus id, in ascending id order: a
    # tied bus joins the node of the smallest bus it is tied to, and a bus
    # out of service keeps -1. Ranks among the sorted ids order the ties.
    order = t.order
    head = t.in_service[order]
    if len(tie_a):
        # a tied bus heads no node unless it is the root of its ties
        root = _roots(len(order), tie_a, tie_b)
        head &= root == np.arange(len(root))
    heads = order[head]
    node = np.full(len(order), -1, np.intp)
    node[heads] = np.arange(len(heads))
    if len(tie_a):
        node[order] = node[order[root]]
    return SwitchFusion(node=node, terminals=terminals, live=live, windings=windings)


def _stamp_csc(branches: list, dim: int) -> scipy.sparse.csc_matrix:
    """Sum the admittance stamps of ``branches`` into a dim x dim CSC matrix.

    ``branches`` is the list of ``_branches``; the stamp empties it, so
    that it owns the arrays and frees each of them, the sort order and the
    unsorted copies as soon as it has used them. Duplicates are added in
    stamp order (the column-major sort is stable), so Y[i, j] and Y[j, i]
    sum the same terms in the same order and the matrix stays exactly
    symmetric.
    """
    key, vals = _keyed_stamps(branches, dim)
    order = key.argsort(kind="stable")
    key = key[order]
    vals = vals[order]
    del order
    first = np.empty(len(key), dtype=bool)
    first[0] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    first = first.nonzero()[0]
    data = np.add.reduceat(vals, first)
    del vals
    key = key[first]
    del first
    indptr = (key // dim).searchsorted(np.arange(dim + 1)).astype(np.int32)
    return scipy.sparse.csc_matrix((data, (key % dim).astype(np.int32), indptr), shape=(dim, dim))


def _keyed_stamps(branches: list, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The stamps of ``branches``, which it empties, as their keys
    col * dim + row and their values. Four stamps per series branch (ff,
    tt, ft, tf), line after line, then transformer branch after
    transformer branch, then one per source shunt. The rows are int32; the
    columns go straight into the int64 keys, which are then worked out in
    place: on int32 columns, col * dim would wrap above 46 340 nodes."""
    (f, t, y), trafos, (at, shunts) = branches
    branches.clear()
    m = 4 * len(y)
    n = m + 4 * len(trafos[0])
    rows = np.empty(n + len(at), dtype=np.int32)
    key = np.empty(len(rows), dtype=np.int64)
    vals = np.empty(len(rows), dtype=complex)
    for i, j, (f, t) in ((0, m, (f, t)), (m, n, trafos[:2])):
        rows[i:j:4] = rows[i + 2 : j : 4] = key[i:j:4] = key[i + 3 : j : 4] = f
        rows[i + 1 : j : 4] = rows[i + 3 : j : 4] = key[i + 1 : j : 4] = key[i + 2 : j : 4] = t
    vals[0:m:4] = vals[1:m:4] = y
    vals[2:m:4] = vals[3:m:4] = -y
    _, _, vals[m:n:4], vals[m + 1 : n : 4], vals[m + 2 : n : 4] = trafos
    vals[m + 3 : n : 4] = vals[m + 2 : n : 4]
    rows[n:] = key[n:] = at
    vals[n:] = shunts
    key *= dim
    key += rows
    return key, vals


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


def build_bbm(net: Network, options: FaultStudyOptions) -> BusBranchModel:
    """Build the per-unit bus-branch model for one fault case.

    Raises ValidationError on malformed input, SingularStampError on
    (near-)zero branch impedances and UnsolvableIslandError when not a
    single island contains a voltage source.
    """
    # one typed read of the element tables serves validation, fusion and
    # every column of the stamp
    tables = _Tables(net)
    violations = validate(net, tables)
    if violations:
        raise ValidationError(violations)
    if not tables.ok:
        tables.coerce()
    bus_index, i_kc, n_aux, branches = _branches(fuse_switches(net, tables), options, tables)
    # of the read, only the bus columns outlive the stamp
    bus_ids, vn, bus_names, id_order = tables.bus_id.copy(), tables.vn.copy(), tables.names, tables.order
    del tables
    return BusBranchModel(
        bus_index=bus_index, y_matrix=_stamp_csc(branches, len(i_kc)), i_kc=i_kc, n_aux=n_aux,
        bus_ids=bus_ids, vn_kv=vn, bus_names=bus_names, id_order=id_order,
    )


def _branches(fusion: SwitchFusion, options: FaultStudyOptions, tables: _Tables) -> tuple:
    """The rows of the buses, the converter injections, the count of star
    points and the branches of the stamp: ``[lines, transformers,
    shunts]``. ``lines`` holds the rows of both ends of each line between
    two energized nodes and its series admittance y; ``transformers`` the
    rows of both ends of each transformer branch (one per live winding of
    a three-winding transformer, to its star point) and its admittances
    y / tap**2 at the from end, y at the to end and -y / tap between them;
    ``shunts`` the rows of the source nodes and the admittances of their
    external grids. Branches inside one fused node stamp nothing. A branch
    impedance too close to zero to stamp raises SingularStampError for the
    first external grid, else line, else transformer branch."""
    live, terminals, node = fusion.live, fusion.terminals, fusion.node
    case, s_base = options.case, options.s_base_mva

    # study node numbers: fused nodes by ascending id, then one star point
    # per three-winding transformer, in transformer order; the star point
    # of a dead one joins no branch and stays dead, so it gets no row
    # (argmax and one item cost less than numpy's max reduction)
    n_fused = node.item(node.argmax()) + 1
    n_nodes = n_fused + len(live["trafo3w"])

    on = live["external_grid"]
    z_q = _grid_impedances(tables, on, terminals["external_grid"][0], options)
    sources = node[terminals["external_grid"][0][on]]
    fr, to, ys = _line_branches(tables, live["line"], terminals["line"], node, case, s_base)
    z_t, tap, ends = _transformer_branches(tables, fusion, n_fused, options)

    # energized islands: the components that hold a voltage source node
    if not len(sources):
        raise UnsolvableIslandError("no energized island: no in-service external grid is connected")
    at = np.concatenate((ends.ravel(), sources))
    nt = len(z_t)
    energized = _energized(n_nodes, fr, to, at, nt)
    # the energized nodes keep their order as rows, real rows first; the
    # row of a dead node is -1, and so is that of the node -1 of a dead bus,
    # which is the last entry
    live_nodes = energized.nonzero()[0]
    dim = len(live_nodes)
    node_row = np.empty(n_nodes + 1, np.intp)
    node_row.fill(-1)
    node_row[live_nodes] = np.arange(dim)
    bus_index = node_row[node]

    # converter injections -j*k*I_rated, I_rated = sn / (sqrt(3)*vn) in kA,
    # over the current base, summed per row in converter order;
    # a converter in a dead island adds to row -1, which is dropped, and an
    # open one adds zero
    p = terminals["converter"][0]
    i_kc = np.zeros(dim, dtype=complex)
    if options.consider_converters:
        vn_c, f = math.sqrt(3.0) * tables.vn[p], tables.floats
        i_pu = -f[tables.at["conv_k"]] * (f[tables.at["conv_sn"]] / vn_c) / (s_base / vn_c)
        i_kc.imag = np.bincount(bus_index[p] + 1, np.where(live["converter"], i_pu, 0.0), dim + 1)[1:]
    n_aux = dim - int(live_nodes.searchsorted(n_fused))

    # a transformer branch stamps y / tap**2 and -y / tap, each as y times
    # 1 / tap**2 or -1 / tap; numpy's complex reciprocal takes the steps of
    # CPython's 1.0 / z. Both ends of a branch lie in one island, so a
    # branch in a dead one has the row -1 at both.
    row_at = node_row[at]
    ends = row_at[: 2 * nt].reshape(2, nt)
    on = ends[0] != ends[1]
    y = np.reciprocal(z_t[on])
    tap = tap[on]
    ends = ends.compress(on, 1)
    keep = energized[fr] & (fr != to)
    return bus_index, i_kc, n_aux, [
        (node_row[fr[keep]], node_row[to[keep]], ys[keep]),
        (ends[0], ends[1], y * (1.0 / np.float_power(tap, 2.0)), y, y * (-1.0 / tap)),
        (row_at[2 * nt :], np.reciprocal(z_q)),
    ]


# The external grids and the transformers take the steps of the scalar
# formulas in CPython, bit for bit: ``float_power`` squares with libm's pow,
# as x**2 does, where numpy's x**2 multiplies; a complex times a real number
# is numpy's complex product, but a complex over a real number divides its
# real and imaginary parts, since numpy's complex quotient takes other steps.


def _grid_impedances(tables: _Tables, on: np.ndarray, bus: np.ndarray, options: FaultStudyOptions) -> np.ndarray:
    """The internal impedances in per unit of the live external grids
    ``on`` at the buses ``bus``: |Z| = c * vn**2 / S''_k with the case's
    short-circuit power, split by its R/X ratio as X = |Z| / sqrt(1 +
    (R/X)**2) and R = (R/X) * X, over the impedance base."""
    case = options.case
    vn = tables.vn[bus]
    vn2 = np.float_power(vn, 2.0)
    in_min, f, at = int(case == "min"), tables.floats, tables.at
    rx, s_k = f[at["eg_rx"]][in_min::2], f[at[("s_sc_max", "s_sc_min")[in_min]]]
    x = voltage_correction_factor(vn, options.lv_tolerance_percent, case) * vn2 / s_k
    x /= np.sqrt(1.0 + rx * rx)
    vn2 /= options.s_base_mva
    z = np.empty(len(x), complex)
    z.real, z.imag = rx * x / vn2, x / vn2
    z = z[on]
    _check_stampable(z, on, "external_grids[{}]".format)
    return z


def _transformer_branches(tables: _Tables, fusion: SwitchFusion, n_fused: int, options: FaultStudyOptions) -> tuple:
    """The series impedances in per unit of the live transformer branches,
    their taps at the from end and the nodes of their from and to ends, as
    the two rows of one array: one branch per live two-winding
    transformer, from its HV to its LV bus, then per live winding of a live
    three-winding one, from the winding's bus to the star point, whose
    node is ``n_fused`` plus the transformer's index.

    One pass over the winding pairs (each two-winding transformer, then the
    pairs hm, ml and hl of each three-winding one, rated at the smaller of
    their two windings) gives a pair's impedance on its rating, r = vkr /
    100 and x = sqrt(vk**2 - vkr**2) / 100, times K_T = 0.95 * c_max / (1 +
    0.6 * x) at the level of the transformer's LV bus, then the study base
    and, for a two-winding transformer, the voltage of its LV bus. A triple
    of a three-winding transformer side by side with itself holds each
    winding's neighbours in the order hv, mv, lv."""
    live, terminals, node, vn, f, at = fusion.live, fusion.terminals, fusion.node, tables.vn, tables.floats, tables.at
    ends = terminals["trafo2w"]
    wound = terminals["trafo3w"].T
    n2, n3 = ends.shape[1], len(wound)
    sn, vb, vn_2 = f[at["t2_sn:t3_sn"]], vn[ends], f[at["t2_vn"]]
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
    z *= 0.95 * voltage_correction_factor(vb_lv, options.lv_tolerance_percent, "max") / (1.0 + 0.6 * x)
    z *= options.s_base_mva / sn
    z[:n2] *= np.float_power(vn_2[1::2] / vb[1], 2.0)
    tap = (vn_2[::2] / vn_2[1::2]) * (vb[1] / vb[0])
    on, ends = live["trafo2w"], node[ends]
    if n3:
        # the star branches: hv, mv and lv each take the two pairs they
        # are in, less the third, halved; a negative one is kept, and the
        # stamp takes it
        pairs = np.concatenate((z[n2:].reshape(-1, 3),) * 2, 1)
        star = pairs[:, :3] + pairs[:, 2:5]
        star -= pairs[:, 1:4]
        star *= 0.5
        z[n2:] = star.ravel()
        on = np.concatenate((on, (fusion.windings.T & live["trafo3w"][:, None]).ravel()))
        tap = np.concatenate((tap, f[at["t3_vn"]] / vb_3w.ravel()))
        ends = np.concatenate((ends, (node[wound.ravel()], np.arange(n_fused, n_fused + n3).repeat(3))), 1)
    z = z[on]
    _check_stampable(z, on, lambda i: _transformer(i, n2))
    return z, tap[on], ends.compress(on, 1)


def _transformer(i: int, n2: int) -> str:
    """The name of winding pair ``i`` of the transformer branches: a
    two-winding transformer, then the star branches of the three-winding
    ones."""
    if i < n2:
        return f"transformers2w[{i}]"
    k, w = divmod(i - n2, 3)
    return f"transformers3w[{k}] ({('hv', 'mv', 'lv')[w]} star branch)"


def _line_branches(
    tables: _Tables, on: np.ndarray, ends: np.ndarray, node: np.ndarray, case: str, s_base: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The from and to nodes and the series admittances of the live lines
    ``on``: r = r' * length and x = x' * length in ohms, the minimum case
    scaling r up to the conductor end temperature, then the per-unit
    conversion, in this order."""
    ends, f, at = ends.compress(on, 1), tables.floats, tables.at
    # a row of rx holds r and x
    rx = (f[at["r:x"]].reshape(2, -1) * f[at["length"]]).T.compress(on, 0)
    if case == "min":
        rx[:, 0] *= 1.0 + ALPHA_PER_K * (f[at["endtemp"]][on] - 20.0)
    rx /= (tables.vn[ends[0]] ** 2 / s_base)[:, None]
    z = rx.view(complex).ravel()
    _check_stampable(z, on, "lines[{}]".format)
    # numpy's complex reciprocal takes the steps of CPython's 1.0 / z
    return node[ends[0]], node[ends[1]], np.reciprocal(z)


def _energized(n_nodes: int, fr: np.ndarray, to: np.ndarray, at: np.ndarray, nt: int) -> np.ndarray:
    """Whether each node lies in an island that holds a source node: the
    islands of the lines (fr[i], to[i]) and the ``nt`` transformer branches
    (at[i], at[nt + i]), the source nodes ``at[2 * nt:]``."""
    roots = _roots(n_nodes, np.concatenate((fr, at[:nt])), np.concatenate((to, at[nt : 2 * nt])))
    fed = np.zeros(n_nodes, bool)
    fed[roots[at[2 * nt :]]] = True
    return fed[roots]
