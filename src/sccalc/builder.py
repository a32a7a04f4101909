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
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .exceptions import (
    InvalidDataError,
    InvalidOptionError,
    SingularStampError,
    UnsolvableIslandError,
    ValidationError,
)
from .model import ConverterSource, ExternalGrid, Line, Network, Transformer2W, Transformer3W, validate

__all__ = [
    "FaultStudyOptions",
    "BusBranchModel",
    "SwitchFusion",
    "voltage_correction_factor",
    "external_grid_impedance",
    "line_impedance",
    "transformer_correction",
    "transformer_impedance",
    "star_decompose",
    "three_winding_star",
    "converter_current",
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
        if self.lv_tolerance_percent not in (6, 10):
            raise InvalidOptionError(
                f"lv_tolerance_percent must be 6 or 10, got {self.lv_tolerance_percent!r}"
            )
        if not self.s_base_mva > 0:
            raise InvalidOptionError(f"s_base_mva must be > 0, got {self.s_base_mva!r}")
        if self.fault_buses != "all":
            try:
                ids = tuple(int(b) for b in self.fault_buses)
            except TypeError:
                raise InvalidOptionError(
                    f"fault_buses must be 'all' or a sequence of bus ids, got {self.fault_buses!r}"
                ) from None
            object.__setattr__(self, "fault_buses", ids)


@dataclass
class BusBranchModel:
    """Per-unit study model: sparse admittance matrix plus per-row source
    data. ``u_q`` holds the voltage correction factor c of each real row.

    Rows cover the fused, energized electrical nodes; three-winding star
    points occupy the trailing ``n_aux`` rows and are never reported.
    """

    bus_index: dict[int, int]
    y_matrix: scipy.sparse.csc_matrix
    u_q: np.ndarray
    i_kc: np.ndarray
    i_base_ka: np.ndarray
    n_aux: int = 0

    @property
    def n(self) -> int:
        return self.y_matrix.shape[0]


def voltage_correction_factor(vn_kv: float, tolerance_percent: int, case: str) -> float:
    """Voltage correction factor c for a voltage level and fault case.

    Low voltage (<= 1 kV): c_max is 1.05 at 6 % tolerance, 1.10 at 10 %;
    c_min is 0.95 for both. Above 1 kV the tolerance class is ignored and
    c is 1.10 / 1.00.
    """
    if case not in ("max", "min"):
        raise InvalidOptionError(f"case must be 'max' or 'min', got {case!r}")
    if vn_kv <= LV_LEVEL_MAX_KV:
        if tolerance_percent not in (6, 10):
            raise InvalidOptionError(
                f"tolerance_percent must be 6 or 10 at low voltage, got {tolerance_percent!r}"
            )
        if case == "max":
            return 1.05 if tolerance_percent == 6 else 1.10
        return 0.95
    return 1.10 if case == "max" else 1.00


def external_grid_impedance(eg: ExternalGrid, vn_kv: float, case: str, c: float) -> complex:
    """Internal impedance of an external grid connection in ohms.

    |Z| = c * vn^2 / S''_k with the case-matching short-circuit power;
    the R/X ratio splits it as X = |Z| / sqrt(1 + (R/X)^2), R = (R/X) * X.
    """
    if case == "max":
        s_sc_mva, rx = eg.s_sc_max_mva, eg.rx_max
    else:
        s_sc_mva, rx = eg.s_sc_min_mva, eg.rx_min
    if not s_sc_mva > 0:
        raise InvalidDataError(f"external grid short-circuit power must be > 0, got {s_sc_mva!r} MVA")
    z_mag = c * vn_kv**2 / s_sc_mva
    x = z_mag / math.sqrt(1.0 + rx * rx)
    return complex(rx * x, x)


def line_impedance(line: Line, case: str) -> complex:
    """Line impedance in ohms; the minimum case scales the resistance up
    to the conductor end temperature reached after the fault."""
    r = line.r_ohm_per_km * line.length_km
    x = line.x_ohm_per_km * line.length_km
    if case == "min":
        r *= 1.0 + ALPHA_PER_K * (line.endtemp_degc - 20.0)
    return complex(r, x)


def transformer_correction(x_t: float, c_max_lv: float) -> float:
    """Impedance correction factor K_T = 0.95 * c_max / (1 + 0.6 * x_T).

    ``x_t`` is the transformer reactance in per unit of its own rated
    values, ``c_max_lv`` the maximum-case c at the low-voltage side level.
    """
    return 0.95 * c_max_lv / (1.0 + 0.6 * x_t)


def transformer_impedance(t: Transformer2W, c_max_lv: float) -> complex:
    """Corrected short-circuit impedance of a two-winding transformer in
    per unit on its rated base (sn_mva, winding voltage)."""
    r = t.vkr_percent / 100.0
    x = math.sqrt(t.vk_percent**2 - t.vkr_percent**2) / 100.0
    k_t = transformer_correction(x, c_max_lv)
    return k_t * complex(r, x)


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

    def corrected_pair(vk: float, vkr: float, sn_a: float, sn_b: float) -> complex:
        r = vkr / 100.0
        x = math.sqrt(vk**2 - vkr**2) / 100.0
        k_t = transformer_correction(x, c_max_lv)
        return k_t * complex(r, x) * (s_base_mva / min(sn_a, sn_b))

    z_hm = corrected_pair(t.vk_hm_percent, t.vkr_hm_percent, t.sn_hv_mva, t.sn_mv_mva)
    z_ml = corrected_pair(t.vk_ml_percent, t.vkr_ml_percent, t.sn_mv_mva, t.sn_lv_mva)
    z_hl = corrected_pair(t.vk_hl_percent, t.vkr_hl_percent, t.sn_hv_mva, t.sn_lv_mva)
    return star_decompose(z_hm, z_ml, z_hl)


def converter_current(cs: ConverterSource, vn_kv: float) -> complex:
    """Inductive fault current injection of a full converter unit in kA:
    -j * k * I_rated with I_rated = sn / (sqrt(3) * vn)."""
    i_rated_ka = cs.sn_mva / (math.sqrt(3.0) * vn_kv)
    return complex(0.0, -cs.k * i_rated_ka)


@dataclass(frozen=True)
class SwitchFusion:
    """Result of switch processing: electrical node per bus, severed element
    terminals and the list of electrically active elements."""

    node_of: dict[int, int]
    severed: frozenset[tuple[str, int, int]]
    active: frozenset[tuple[str, int]]

    def is_severed(self, kind: str, index: int, bus: int) -> bool:
        return (kind, index, bus) in self.severed


def fuse_switches(net: Network) -> SwitchFusion:
    """Merge buses joined by closed bus-bus switches and collect element
    terminals cut by open bus-element switches.

    The node partition is independent of switch order; each electrical node
    is named after the smallest bus id it contains.
    """
    in_service = {b.id for b in net.buses if b.in_service}
    parent: dict[int, int] = {b: b for b in in_service}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    severed: set[tuple[str, int, int]] = set()
    for sw in net.switches:
        if isinstance(sw.other, int):
            if sw.closed and sw.bus in in_service and sw.other in in_service:
                ra, rb = find(sw.bus), find(sw.other)
                if ra != rb:
                    parent[rb] = ra
        elif not sw.closed:
            severed.add((sw.other.kind, sw.other.index, sw.bus))

    # canonical representative: smallest member id of each component
    rep_of_root: dict[int, int] = {}
    for b in in_service:
        root = find(b)
        rep_of_root[root] = min(rep_of_root.get(root, b), b)
    node_of = {b: rep_of_root[find(b)] for b in in_service}

    def terminals_ok(kind: str, index: int, terminals: tuple[int, ...], required: int) -> bool:
        live = [
            b for b in terminals if b in in_service and (kind, index, b) not in severed
        ]
        return len(live) >= required

    active: set[tuple[str, int]] = set()
    for i, eg in enumerate(net.external_grids):
        if eg.in_service and eg.bus in in_service:
            active.add(("external_grid", i))
    for i, ln in enumerate(net.lines):
        if ln.in_service and terminals_ok("line", i, (ln.from_bus, ln.to_bus), 2):
            active.add(("line", i))
    for i, t in enumerate(net.transformers2w):
        if t.in_service and terminals_ok("trafo2w", i, (t.hv_bus, t.lv_bus), 2):
            active.add(("trafo2w", i))
    for i, t in enumerate(net.transformers3w):
        if t.in_service and terminals_ok("trafo3w", i, (t.hv_bus, t.mv_bus, t.lv_bus), 2):
            active.add(("trafo3w", i))
    for i, cs in enumerate(net.converter_sources):
        if cs.in_service and cs.bus in in_service:
            active.add(("converter", i))

    return SwitchFusion(node_of=node_of, severed=frozenset(severed), active=frozenset(active))


def _stamp_csc(rows: list[int], cols: list[int], vals: list[complex], dim: int) -> scipy.sparse.csc_matrix:
    """Sum admittance stamps (COO triplets) into a dim x dim CSC matrix.

    Duplicates are added in stamp order (the column-major sort is stable),
    so Y[i, j] and Y[j, i] sum the same terms in the same order and the
    matrix stays exactly symmetric.
    """
    rows_a = np.asarray(rows, dtype=np.int32)
    cols_a = np.asarray(cols, dtype=np.int32)
    order = np.lexsort((rows_a, cols_a))
    rows_a, cols_a, vals_a = rows_a[order], cols_a[order], np.asarray(vals, dtype=complex)[order]
    first = np.flatnonzero(np.r_[True, (rows_a[1:] != rows_a[:-1]) | (cols_a[1:] != cols_a[:-1])])
    indptr = np.searchsorted(cols_a[first], np.arange(dim + 1)).astype(np.int32)
    return scipy.sparse.csc_matrix(
        (np.add.reduceat(vals_a, first), rows_a[first], indptr), shape=(dim, dim)
    )


def build_bbm(net: Network, options: FaultStudyOptions) -> BusBranchModel:
    """Build the per-unit bus-branch model for one fault case.

    Raises ValidationError on malformed input, SingularStampError on
    (near-)zero branch impedances and UnsolvableIslandError when not a
    single island contains a voltage source.
    """
    violations = validate(net)
    if violations:
        raise ValidationError(violations)

    fusion = fuse_switches(net)
    buses = net.bus_map()
    case = options.case
    tol = options.lv_tolerance_percent
    s_base = options.s_base_mva

    def node(bus_id: int):
        return fusion.node_of.get(bus_id)

    def z_base_ohm(vn_kv: float) -> float:
        return vn_kv**2 / s_base

    # stamp records: (from_node, to_node, series admittance, tap at from side)
    branches: list[tuple[object, object, complex, float]] = []
    shunts: list[tuple[object, complex]] = []
    injections: list[tuple[object, complex]] = []
    source_nodes: set[object] = set()

    def require_stampable(z_pu: complex, element: str) -> complex:
        if abs(z_pu) < ZERO_STAMP_TOL_PU:
            raise SingularStampError(f"{element}: branch impedance {z_pu!r} pu is too close to zero to stamp")
        return z_pu

    for i, eg in enumerate(net.external_grids):
        if ("external_grid", i) not in fusion.active:
            continue
        vn = buses[eg.bus].vn_kv
        c = voltage_correction_factor(vn, tol, case)
        z = external_grid_impedance(eg, vn, case, c) / z_base_ohm(vn)
        require_stampable(z, f"external_grids[{i}]")
        n = node(eg.bus)
        shunts.append((n, 1.0 / z))
        source_nodes.add(n)

    for i, ln in enumerate(net.lines):
        if ("line", i) not in fusion.active:
            continue
        vn = buses[ln.from_bus].vn_kv
        z = line_impedance(ln, case) / z_base_ohm(vn)
        require_stampable(z, f"lines[{i}]")
        branches.append((node(ln.from_bus), node(ln.to_bus), 1.0 / z, 1.0))

    for i, t in enumerate(net.transformers2w):
        if ("trafo2w", i) not in fusion.active:
            continue
        vb_hv = buses[t.hv_bus].vn_kv
        vb_lv = buses[t.lv_bus].vn_kv
        c_max_lv = voltage_correction_factor(vb_lv, tol, "max")
        z_rated = transformer_impedance(t, c_max_lv)
        z = z_rated * (s_base / t.sn_mva) * (t.vn_lv_kv / vb_lv) ** 2
        require_stampable(z, f"transformers2w[{i}]")
        tap = (t.vn_hv_kv / t.vn_lv_kv) * (vb_lv / vb_hv)
        branches.append((node(t.hv_bus), node(t.lv_bus), 1.0 / z, tap))

    for i, t in enumerate(net.transformers3w):
        if ("trafo3w", i) not in fusion.active:
            continue
        vb_lv = buses[t.lv_bus].vn_kv
        c_max_lv = voltage_correction_factor(vb_lv, tol, "max")
        z_h, z_m, z_l = three_winding_star(t, c_max_lv, s_base)
        star = ("aux", i)
        for winding, bus_id, vn_w, z in (
            ("hv", t.hv_bus, t.vn_hv_kv, z_h),
            ("mv", t.mv_bus, t.vn_mv_kv, z_m),
            ("lv", t.lv_bus, t.vn_lv_kv, z_l),
        ):
            if not buses[bus_id].in_service or fusion.is_severed("trafo3w", i, bus_id):
                continue
            require_stampable(z, f"transformers3w[{i}] ({winding} star branch)")
            tap = vn_w / buses[bus_id].vn_kv
            branches.append((node(bus_id), star, 1.0 / z, tap))

    if options.consider_converters:
        for i, cs in enumerate(net.converter_sources):
            if ("converter", i) not in fusion.active:
                continue
            vn = buses[cs.bus].vn_kv
            i_ka = converter_current(cs, vn)
            i_base = s_base / (math.sqrt(3.0) * vn)
            injections.append((node(cs.bus), i_ka / i_base))

    # energized islands: nodes reachable from any voltage-source node
    adjacency: dict[object, set[object]] = {}
    for f, t, _, _ in branches:
        if f == t:
            continue
        adjacency.setdefault(f, set()).add(t)
        adjacency.setdefault(t, set()).add(f)
    energized: set[object] = set()
    stack = list(source_nodes)
    while stack:
        n = stack.pop()
        if n in energized:
            continue
        energized.add(n)
        stack.extend(adjacency.get(n, set()) - energized)
    if not energized:
        raise UnsolvableIslandError("no energized island: no in-service external grid is connected")

    real_rows = sorted(n for n in energized if not isinstance(n, tuple))
    aux_rows = sorted((n for n in energized if isinstance(n, tuple)), key=lambda n: n[1])
    row_of = {n: i for i, n in enumerate(real_rows + aux_rows)}
    dim = len(row_of)

    bus_index = {
        b: row_of[n]
        for b, n in fusion.node_of.items()
        if n in row_of
    }

    rows: list[int] = []
    cols: list[int] = []
    vals: list[complex] = []
    for f, t, y, tap in branches:
        if f not in row_of or f == t:
            continue
        fi, ti = row_of[f], row_of[t]
        y_mutual = y / tap
        rows += [fi, ti, fi, ti]
        cols += [fi, ti, ti, fi]
        vals += [y / tap**2, y, -y_mutual, -y_mutual]
    for n, y in shunts:
        if n in row_of:
            rows.append(row_of[n])
            cols.append(row_of[n])
            vals.append(y)

    y_matrix = _stamp_csc(rows, cols, vals, dim)

    # real rows come first, in the order of real_rows
    vn_real = np.array([buses[n].vn_kv for n in real_rows], dtype=float)
    u_q = np.zeros(dim)
    i_base_ka = np.zeros(dim)
    u_q[: len(real_rows)] = [voltage_correction_factor(vn, tol, case) for vn in vn_real]
    i_base_ka[: len(real_rows)] = s_base / (math.sqrt(3.0) * vn_real)

    i_kc = np.zeros(dim, dtype=complex)
    for n, inj in injections:
        if n in row_of:
            i_kc[row_of[n]] += inj

    return BusBranchModel(
        bus_index=bus_index,
        y_matrix=y_matrix,
        u_q=u_q,
        i_kc=i_kc,
        i_base_ka=i_base_ka,
        n_aux=len(aux_rows),
    )
