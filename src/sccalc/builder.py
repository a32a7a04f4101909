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
    points occupy the trailing ``n_aux`` rows and are never reported. The
    model holds no fault-location quantity: ``calc_sc`` applies c and the
    current base at each fault bus.
    """

    bus_index: dict[int, int]
    y_matrix: scipy.sparse.csc_matrix
    i_kc: np.ndarray
    n_aux: int


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


def converter_current(cs: ConverterSource, vn_kv: float) -> complex:
    """Inductive fault current injection of a full converter unit in kA:
    -j * k * I_rated with I_rated = sn / (sqrt(3) * vn)."""
    i_rated_ka = cs.sn_mva / (math.sqrt(3.0) * vn_kv)
    return complex(0.0, -cs.k * i_rated_ka)


@dataclass(frozen=True)
class SwitchFusion:
    """Result of switch processing: electrical node per bus, severed element
    terminals and, per element kind, which elements are electrically live
    (``live["line"][i]`` for ``net.lines[i]``)."""

    node_of: dict[int, int]
    severed: frozenset[tuple[str, int, int]]
    live: dict[str, list[bool]]


def _roots(n: int, pairs) -> list[int]:
    """Union-find over the items 0..n-1 joined by ``pairs``: the root of each
    item, which is always the smallest item of its component."""
    up = list(range(n))
    for a, b in pairs:
        while up[a] != a:
            up[a] = a = up[up[a]]  # path halving
        while up[b] != b:
            up[b] = b = up[up[b]]
        if a < b:
            up[b] = a
        elif b < a:
            up[a] = b
    # every link points to a smaller item, so one ascending pass resolves
    # each item through its parent, which is resolved already
    for x in range(n):
        up[x] = up[up[x]]
    return up


def fuse_switches(net: Network) -> SwitchFusion:
    """Merge buses joined by closed bus-bus switches and collect element
    terminals cut by open bus-element switches.

    The node partition is independent of switch order; each electrical node
    is named after the smallest bus id it contains. The network must be
    valid: every open element switch names an existing element and one of
    its terminals.
    """
    in_service = {b.id for b in net.buses if b.in_service}
    node_of = {b: b for b in in_service}
    severed: set[tuple[str, int, int]] = set()
    ties: list[tuple[int, int]] = []
    for sw in net.switches:
        if isinstance(sw.other, int):
            if sw.closed and sw.bus in in_service and sw.other in in_service:
                ties.append((sw.bus, sw.other))
        elif not sw.closed:
            severed.add((sw.other.kind, sw.other.index, sw.bus))
    # only the buses on closed switches take part, in ascending id, so the
    # smallest item of a component is its smallest bus id
    tied = sorted({b for tie in ties for b in tie})
    pos = {b: k for k, b in enumerate(tied)}
    for b, r in zip(tied, _roots(len(tied), [(pos[a], pos[b]) for a, b in ties])):
        node_of[b] = tied[r]

    live = {
        "external_grid": [eg.in_service and eg.bus in in_service for eg in net.external_grids],
        "line": [
            ln.in_service and ln.from_bus in in_service and ln.to_bus in in_service for ln in net.lines
        ],
        "trafo2w": [
            t.in_service and t.hv_bus in in_service and t.lv_bus in in_service for t in net.transformers2w
        ],
        "trafo3w": [
            t.in_service and (t.hv_bus in in_service) + (t.mv_bus in in_service) + (t.lv_bus in in_service) >= 2
            for t in net.transformers3w
        ],
        "converter": [cs.in_service and cs.bus in in_service for cs in net.converter_sources],
    }
    for kind, i, _ in severed:
        if kind == "trafo3w":
            t = net.transformers3w[i]
            windings = sum(
                b in in_service and (kind, i, b) not in severed for b in (t.hv_bus, t.mv_bus, t.lv_bus)
            )
            live[kind][i] = t.in_service and windings >= 2
        else:
            # a cut terminal leaves a two-terminal element open
            live[kind][i] = False

    return SwitchFusion(node_of=node_of, severed=frozenset(severed), live=live)


def _stamp_csc(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, dim: int) -> scipy.sparse.csc_matrix:
    """Sum admittance stamps (COO triplets) into a dim x dim CSC matrix.

    Duplicates are added in stamp order (the column-major sort is stable),
    so Y[i, j] and Y[j, i] sum the same terms in the same order and the
    matrix stays exactly symmetric.
    """
    key = cols * dim + rows
    order = key.argsort(kind="stable")
    key = key[order]
    first = np.empty(len(key), dtype=bool)
    first[0] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    first = first.nonzero()[0]
    key = key[first]
    indptr = (key // dim).searchsorted(np.arange(dim + 1)).astype(np.int32)
    return scipy.sparse.csc_matrix(
        (np.add.reduceat(vals[order], first), (key % dim).astype(np.int32), indptr), shape=(dim, dim)
    )


def _unstampable(element: str, z_pu: complex) -> SingularStampError:
    return SingularStampError(f"{element}: branch impedance {z_pu!r} pu is too close to zero to stamp")


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
    live = fusion.live
    vn_of = {b.id: b.vn_kv for b in net.buses}
    case = options.case
    tol = options.lv_tolerance_percent
    s_base = options.s_base_mva

    # study node numbers: fused nodes by ascending id, then one star point
    # per live three-winding transformer, in transformer order
    reps = sorted(set(fusion.node_of.values()))
    number = {rep: k for k, rep in enumerate(reps)}
    node = {b: number[rep] for b, rep in fusion.node_of.items()}
    n_nodes = len(reps)

    # one entry per branch, in element order: from node, to node, series
    # admittance, then the tap at the from side and its square (1 on lines)
    fr: list[int] = []
    to: list[int] = []
    ys: list[complex] = []
    sources: list[int] = []
    shunts: list[complex] = []

    for i, eg in enumerate(net.external_grids):
        if live["external_grid"][i]:
            vn = vn_of[eg.bus]
            c = voltage_correction_factor(vn, tol, case)
            z = external_grid_impedance(eg, vn, case, c) / (vn**2 / s_base)
            if abs(z) < ZERO_STAMP_TOL_PU:
                raise _unstampable(f"external_grids[{i}]", z)
            sources.append(node[eg.bus])
            shunts.append(1.0 / z)

    for i, ln in enumerate(net.lines):
        if live["line"][i]:
            vn = vn_of[ln.from_bus]
            z = line_impedance(ln, case) / (vn**2 / s_base)
            if abs(z) < ZERO_STAMP_TOL_PU:
                raise _unstampable(f"lines[{i}]", z)
            fr.append(node[ln.from_bus])
            to.append(node[ln.to_bus])
            ys.append(1.0 / z)
    taps = [1.0] * len(ys)
    taps2 = taps.copy()

    for i, t in enumerate(net.transformers2w):
        if live["trafo2w"][i]:
            vb_hv = vn_of[t.hv_bus]
            vb_lv = vn_of[t.lv_bus]
            c_max_lv = voltage_correction_factor(vb_lv, tol, "max")
            z_rated = transformer_impedance(t, c_max_lv)
            z = z_rated * (s_base / t.sn_mva) * (t.vn_lv_kv / vb_lv) ** 2
            if abs(z) < ZERO_STAMP_TOL_PU:
                raise _unstampable(f"transformers2w[{i}]", z)
            tap = (t.vn_hv_kv / t.vn_lv_kv) * (vb_lv / vb_hv)
            fr.append(node[t.hv_bus])
            to.append(node[t.lv_bus])
            ys.append(1.0 / z)
            taps.append(tap)
            taps2.append(tap**2)

    for i, t in enumerate(net.transformers3w):
        if not live["trafo3w"][i]:
            continue
        c_max_lv = voltage_correction_factor(vn_of[t.lv_bus], tol, "max")
        star = n_nodes
        n_nodes += 1
        for winding, bus_id, vn_w, z in zip(
            ("hv", "mv", "lv"), (t.hv_bus, t.mv_bus, t.lv_bus), (t.vn_hv_kv, t.vn_mv_kv, t.vn_lv_kv),
            three_winding_star(t, c_max_lv, s_base),
        ):
            if bus_id not in node or ("trafo3w", i, bus_id) in fusion.severed:
                continue
            if abs(z) < ZERO_STAMP_TOL_PU:
                raise _unstampable(f"transformers3w[{i}] ({winding} star branch)", z)
            tap = vn_w / vn_of[bus_id]
            fr.append(node[bus_id])
            to.append(star)
            ys.append(1.0 / z)
            taps.append(tap)
            taps2.append(tap**2)

    # energized islands: the components that hold a voltage source node
    roots = _roots(n_nodes, zip(fr, to))
    fed = {roots[n] for n in sources}
    if not fed:
        raise UnsolvableIslandError("no energized island: no in-service external grid is connected")
    on = [r in fed for r in roots]
    energized = np.array(on, dtype=bool)
    # the energized nodes keep their order as rows: real rows first
    row = energized.cumsum() - 1
    node_row = row.tolist()
    dim = node_row[-1] + 1
    bus_index = {b: node_row[n] for b, n in node.items() if on[n]}

    # four stamps per branch (ff, tt, ft, tf), branch after branch, then the
    # source shunts; branches inside one fused node stamp nothing
    f = np.array(fr, dtype=np.int64)
    t = np.array(to, dtype=np.int64)
    keep = energized[f] & (f != t)
    f, t = row[f[keep]], row[t[keep]]
    y = np.array(ys, dtype=complex)[keep]
    m = 4 * len(y)
    rows = np.empty(m + len(sources), dtype=np.int64)
    cols = np.empty_like(rows)
    vals = np.empty(len(rows), dtype=complex)
    rows[0:m:4] = rows[2:m:4] = cols[0:m:4] = cols[3:m:4] = f
    rows[1:m:4] = rows[3:m:4] = cols[1:m:4] = cols[2:m:4] = t
    rows[m:] = cols[m:] = row[sources]
    vals[0:m:4] = y / np.array(taps2)[keep]
    vals[1:m:4] = y
    vals[2:m:4] = vals[3:m:4] = -(y / np.array(taps)[keep])
    vals[m:] = shunts
    y_matrix = _stamp_csc(rows, cols, vals, dim)

    # converter injections, summed per row in converter order into a list:
    # one numpy scalar update per converter costs more than the formula
    i_kc = [0j] * dim
    if options.consider_converters:
        for cs, is_live in zip(net.converter_sources, live["converter"]):
            if is_live and on[node[cs.bus]]:
                vn = vn_of[cs.bus]
                i_base = s_base / (math.sqrt(3.0) * vn)
                i_kc[node_row[node[cs.bus]]] += converter_current(cs, vn) / i_base

    return BusBranchModel(
        bus_index=bus_index, y_matrix=y_matrix, i_kc=np.array(i_kc, dtype=complex), n_aux=sum(on[len(reps) :])
    )
