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
from .model import ExternalGrid, Network, Transformer2W, Transformer3W, _Tables, validate

__all__ = [
    "FaultStudyOptions",
    "BusBranchModel",
    "SwitchFusion",
    "voltage_correction_factor",
    "external_grid_impedance",
    "transformer_correction",
    "transformer_impedance",
    "star_decompose",
    "three_winding_star",
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
        if self.case not in ("max", "min"):
            raise InvalidOptionError(f"case must be 'max' or 'min', got {self.case!r}")
        if not _is_integer(self.lv_tolerance_percent) or self.lv_tolerance_percent not in (6, 10):
            raise InvalidOptionError(
                f"lv_tolerance_percent must be the integer 6 or 10, got {self.lv_tolerance_percent!r}"
            )
        if not (_is_number(self.s_base_mva) and 0 < self.s_base_mva < math.inf):
            raise InvalidOptionError(f"s_base_mva must be finite and > 0, got {self.s_base_mva!r}")
        # plain Python numbers, so that result metadata serializes as JSON
        object.__setattr__(self, "lv_tolerance_percent", int(self.lv_tolerance_percent))
        object.__setattr__(self, "s_base_mva", float(self.s_base_mva))
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


def voltage_correction_factor(vn_kv: float, tolerance_percent: int, case: str) -> float:
    """Voltage correction factor c for a voltage level and fault case.

    Low voltage (<= 1 kV): c_max is 1.05 at 6 % tolerance, 1.10 at 10 %;
    c_min is 0.95 for both. Above 1 kV the tolerance class is ignored and
    c is 1.10 / 1.00. ``case`` ("max" or "min") and ``tolerance_percent``
    (6 or 10) are taken as ``FaultStudyOptions`` checked them.
    """
    if vn_kv <= LV_LEVEL_MAX_KV:
        if case == "max":
            return 1.05 if tolerance_percent == 6 else 1.10
        return 0.95
    return 1.10 if case == "max" else 1.00


def _voltage_correction_factors(vn_kv: np.ndarray, tolerance_percent: int, case: str) -> np.ndarray:
    """``voltage_correction_factor`` of every voltage level in ``vn_kv``."""
    return np.where(
        vn_kv <= LV_LEVEL_MAX_KV,
        voltage_correction_factor(LV_LEVEL_MAX_KV, tolerance_percent, case),
        voltage_correction_factor(math.inf, tolerance_percent, case),
    )


def external_grid_impedance(eg: ExternalGrid, vn_kv: float, case: str, c: float) -> complex:
    """Internal impedance of an external grid connection in ohms.

    |Z| = c * vn^2 / S''_k with the case-matching short-circuit power;
    the R/X ratio splits it as X = |Z| / sqrt(1 + (R/X)^2), R = (R/X) * X.
    ``validate`` keeps both short-circuit powers > 0.
    """
    if case == "max":
        s_sc_mva, rx = eg.s_sc_max_mva, eg.rx_max
    else:
        s_sc_mva, rx = eg.s_sc_min_mva, eg.rx_min
    z_mag = c * vn_kv**2 / s_sc_mva
    x = z_mag / math.sqrt(1.0 + rx * rx)
    return complex(rx * x, x)


def transformer_correction(x_t: float, c_max_lv: float) -> float:
    """Impedance correction factor K_T = 0.95 * c_max / (1 + 0.6 * x_T).

    ``x_t`` is the transformer reactance in per unit of its own rated
    values, ``c_max_lv`` the maximum-case c at the low-voltage side level.
    """
    return 0.95 * c_max_lv / (1.0 + 0.6 * x_t)


def _corrected_impedance(vk_percent: float, vkr_percent: float, c_max_lv: float) -> complex:
    """K_T-corrected short-circuit impedance in per unit on the rated base."""
    r = vkr_percent / 100.0
    x = math.sqrt(vk_percent**2 - vkr_percent**2) / 100.0
    return transformer_correction(x, c_max_lv) * complex(r, x)


def transformer_impedance(t: Transformer2W, c_max_lv: float) -> complex:
    """Corrected short-circuit impedance of a two-winding transformer in
    per unit on its rated base (sn_mva, winding voltage)."""
    return _corrected_impedance(t.vk_percent, t.vkr_percent, c_max_lv)


def star_decompose(z_hm: complex, z_ml: complex, z_hl: complex) -> tuple[complex, complex, complex]:
    """Star branches from the three pairwise impedances.

    Negative branches are legal results and are kept; the admittance stamp
    handles them.
    """
    z_h = (z_hm + z_hl - z_ml) / 2.0
    z_m = (z_hm + z_ml - z_hl) / 2.0
    z_l = (z_hl + z_ml - z_hm) / 2.0
    return z_h, z_m, z_l


def three_winding_star(
    t: Transformer3W, c_max_lv: float, s_base_mva: float = 1.0
) -> tuple[complex, complex, complex]:
    """Corrected star-equivalent branches of a three-winding transformer in
    per unit on the study base.

    Each winding pair forms an equivalent two-winding transformer whose
    impedance (given on the smaller of the two winding ratings) receives
    the K_T correction before the star decomposition, so the impedance seen
    between any two star terminals reproduces the corrected pairwise value
    exactly.
    """
    pairs = (
        (t.vk_hm_percent, t.vkr_hm_percent, min(t.sn_hv_mva, t.sn_mv_mva)),
        (t.vk_ml_percent, t.vkr_ml_percent, min(t.sn_mv_mva, t.sn_lv_mva)),
        (t.vk_hl_percent, t.vkr_hl_percent, min(t.sn_hv_mva, t.sn_lv_mva)),
    )
    return star_decompose(*(_corrected_impedance(vk, vkr, c_max_lv) * (s_base_mva / sn) for vk, vkr, sn in pairs))


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
    electrically live, and ``severed`` names the element terminals cut by
    open switches.
    """

    node: np.ndarray
    terminals: dict[str, np.ndarray]
    live: dict[str, np.ndarray]
    severed: frozenset[tuple[str, int, int]]


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
    terminals, live, severed, (tie_a, tie_b) = t.elements()

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
    return SwitchFusion(node=node, terminals=terminals, live=live, severed=frozenset(severed))


def _stamp_csc(branches: list, dim: int) -> scipy.sparse.csc_matrix:
    """Sum the admittance stamps of ``branches`` into a dim x dim CSC matrix.

    ``branches`` is the list ``[f, t, y, tail]`` of ``_branches``; the stamp
    empties it, so that it owns the arrays and frees each of them, the
    sort order and the unsorted copies as soon as it has used them.
    Duplicates are added in stamp order (the column-major sort is stable),
    so Y[i, j] and Y[j, i] sum the same terms in the same order and the
    matrix stays exactly symmetric.
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
    col * dim + row and their values. Four stamps per line (ff, tt, ft,
    tf), line after line, then the tail. The rows are int32; the columns go
    straight into the int64 keys, which are then worked out in place: on
    int32 columns, col * dim would wrap above 46 340 nodes."""
    f, t, y, tail = branches
    branches.clear()
    m = 4 * len(y)
    rows = np.empty(m + len(tail), dtype=np.int32)
    key = np.empty(len(rows), dtype=np.int64)
    vals = np.empty(len(rows), dtype=complex)
    rows[0:m:4] = rows[2:m:4] = key[0:m:4] = key[3:m:4] = f
    rows[1:m:4] = rows[3:m:4] = key[1:m:4] = key[2:m:4] = t
    vals[0:m:4] = vals[1:m:4] = y
    vals[2:m:4] = vals[3:m:4] = -y
    rows[m:], key[m:], vals[m:] = zip(*tail)
    key *= dim
    key += rows
    return key, vals


def _unstampable(element: str, z_pu: complex) -> SingularStampError:
    return SingularStampError(f"{element}: branch impedance {z_pu!r} pu is too close to zero to stamp")


def build_bbm(net: Network, options: FaultStudyOptions) -> BusBranchModel:
    """Build the per-unit bus-branch model for one fault case.

    Raises ValidationError on malformed input, SingularStampError on
    (near-)zero branch impedances and UnsolvableIslandError when not a
    single island contains a voltage source.
    """
    # one typed read of the element tables serves validation, fusion and
    # the line and converter columns of the stamp
    tables = _Tables(net)
    violations = validate(net, tables)
    if violations:
        raise ValidationError(violations)
    if not tables.ok:
        tables.coerce()
    bus_index, i_kc, n_aux, branches = _branches(net, options, tables)
    # of the read, only the bus columns outlive the stamp
    bus_ids, vn, bus_names, id_order = tables.bus_id.copy(), tables.vn.copy(), tables.names, tables.order
    del tables
    return BusBranchModel(
        bus_index=bus_index, y_matrix=_stamp_csc(branches, len(i_kc)), i_kc=i_kc, n_aux=n_aux,
        bus_ids=bus_ids, vn_kv=vn, bus_names=bus_names, id_order=id_order,
    )


def _branches(net: Network, options: FaultStudyOptions, tables: _Tables) -> tuple:
    """The rows of the buses, the converter injections, the count of star
    points and the branches of the stamp: ``[f, t, y, tail]``, the rows
    ``f`` and ``t`` of both ends of each line between two energized nodes
    and its series admittance ``y``, then ``tail``, the (row, col, value)
    stamps of the transformers, then of the source shunts. Branches inside
    one fused node stamp nothing."""
    fusion = fuse_switches(net, tables)
    live, terminals, node = fusion.live, fusion.terminals, fusion.node
    case = options.case
    tol = options.lv_tolerance_percent
    s_base = options.s_base_mva
    vn = tables.vn

    # study node numbers: fused nodes by ascending id, then one star point
    # per live three-winding transformer, in transformer order
    # (argmax and one item cost less than numpy's max reduction)
    n_fused = n_nodes = node.item(node.argmax()) + 1

    # the nominal voltage and node of a terminal of one of the few external
    # grids and transformers, as a Python number: ``item`` per terminal
    # costs the 3-60-bus grids less than a gather per section, and builds
    # no list over all buses
    vn_of, node_of = vn.item, node.item
    sources: list[int] = []
    shunts: list[complex] = []
    for i, (eg, p, is_live) in enumerate(
        zip(net.external_grids, terminals["external_grid"][0].tolist(), live["external_grid"].tolist())
    ):
        if is_live:
            vn_eg = vn_of(p)
            c = voltage_correction_factor(vn_eg, tol, case)
            z = external_grid_impedance(eg, vn_eg, case, c) / (vn_eg**2 / s_base)
            if abs(z) < ZERO_STAMP_TOL_PU:
                raise _unstampable(f"external_grids[{i}]", z)
            sources.append(node_of(p))
            shunts.append(1.0 / z)

    fr, to, ys = _line_branches(tables, live["line"], terminals["line"], node, case, s_base)

    # transformers are few: one branch each (one per live winding for 3W):
    # from node, to node, series admittance and the tap at the from side
    branches: list[tuple[int, int, complex, float]] = []
    for i, (t, hv, lv, is_live) in enumerate(
        zip(net.transformers2w, *terminals["trafo2w"].tolist(), live["trafo2w"].tolist())
    ):
        if is_live:
            vb_hv = vn_of(hv)
            vb_lv = vn_of(lv)
            c_max_lv = voltage_correction_factor(vb_lv, tol, "max")
            z_rated = transformer_impedance(t, c_max_lv)
            z = z_rated * (s_base / t.sn_mva) * (t.vn_lv_kv / vb_lv) ** 2
            if abs(z) < ZERO_STAMP_TOL_PU:
                raise _unstampable(f"transformers2w[{i}]", z)
            tap = (t.vn_hv_kv / t.vn_lv_kv) * (vb_lv / vb_hv)
            branches.append((node_of(hv), node_of(lv), 1.0 / z, tap))

    for i, (t, hv, mv, lv, is_live) in enumerate(
        zip(net.transformers3w, *terminals["trafo3w"].tolist(), live["trafo3w"].tolist())
    ):
        if not is_live:
            continue
        c_max_lv = voltage_correction_factor(vn_of(lv), tol, "max")
        star = n_nodes
        n_nodes += 1
        for winding, p, bus_id, vn_w, z in zip(
            ("hv", "mv", "lv"), (hv, mv, lv), (t.hv_bus, t.mv_bus, t.lv_bus), (t.vn_hv_kv, t.vn_mv_kv, t.vn_lv_kv),
            three_winding_star(t, c_max_lv, s_base),
        ):
            n = node_of(p)
            if n < 0 or ("trafo3w", i, bus_id) in fusion.severed:
                continue
            if abs(z) < ZERO_STAMP_TOL_PU:
                raise _unstampable(f"transformers3w[{i}] ({winding} star branch)", z)
            tap = vn_w / vn_of(p)
            branches.append((n, star, 1.0 / z, tap))

    # energized islands: the components that hold a voltage source node
    if not sources:
        raise UnsolvableIslandError("no energized island: no in-service external grid is connected")
    # the from and the to nodes of the transformer branches, then the
    # source nodes
    nt = len(branches)
    at = np.array([*[b[0] for b in branches], *[b[1] for b in branches], *sources], np.intp)
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
        vn_c = math.sqrt(3.0) * vn[p]
        i_pu = np.where(live["converter"], -tables.conv_k * (tables.conv_sn / vn_c) / (s_base / vn_c), 0.0)
        i_kc.imag = np.bincount(bus_index[p] + 1, i_pu, dim + 1)[1:]
    n_aux = dim - int(live_nodes.searchsorted(n_fused))

    # a transformer stamps y / tap**2 at its from node and -y / tap between
    # its nodes, each as y times 1 / tap, the rounding of numpy's complex by
    # float division
    row_at = node_row[at].tolist()
    tail: list[tuple[int, int, complex]] = []
    for (_, _, y, tap), f, t in zip(branches, row_at[:nt], row_at[nt : 2 * nt]):
        if f >= 0 and f != t:
            y_ft = -(y * (1.0 / tap))
            tail += (f, f, y * (1.0 / tap**2)), (t, t, y), (f, t, y_ft), (t, f, y_ft)
    tail += ((r, r, y) for r, y in zip(row_at[2 * nt :], shunts))
    keep = energized[fr] & (fr != to)
    return bus_index, i_kc, n_aux, [node_row[fr[keep]], node_row[to[keep]], ys[keep], tail]


def _line_branches(
    tables: _Tables, on: np.ndarray, ends: np.ndarray, node: np.ndarray, case: str, s_base: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The from and to nodes and the series admittances of the live lines
    ``on``: r = r' * length and x = x' * length in ohms, the minimum case
    scaling r up to the conductor end temperature, then the per-unit
    conversion, in this order."""
    ends = ends.compress(on, 1)
    # a row of rx holds r and x
    rx = (tables.rx * tables.length).T.compress(on, 0)
    if case == "min":
        rx[:, 0] *= 1.0 + ALPHA_PER_K * (tables.endtemp[on] - 20.0)
    rx /= (tables.vn[ends[0]] ** 2 / s_base)[:, None]
    z = rx.view(complex).ravel()
    tiny = np.abs(z) < ZERO_STAMP_TOL_PU
    if tiny.any():
        k = int(tiny.argmax())
        raise _unstampable(f"lines[{on.nonzero()[0][k]}]", complex(z[k]))
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
