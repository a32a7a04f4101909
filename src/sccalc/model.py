"""Element-based grid model: nameplate data, connectivity, switches, validation.

Elements are described the way they appear on the nameplate (short-circuit
voltages, rated powers, ohms per km). Everything electrical is derived later
when the study model is built, so the same network can feed minimum and
maximum fault-current studies without touching the input data.
"""
from __future__ import annotations

import dataclasses
import functools
import marshal
import math
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Bus",
    "ExternalGrid",
    "Line",
    "Transformer2W",
    "Transformer3W",
    "ConverterSource",
    "ElementRef",
    "Switch",
    "Network",
    "Violation",
    "validate",
]

SWITCHABLE_ELEMENT_KINDS = ("line", "trafo2w", "trafo3w")

# bus ids become numpy int64 columns in a study
_INT64_LIMIT = 2**63


@dataclass(slots=True)
class Bus:
    id: int
    vn_kv: float
    name: str = ""
    in_service: bool = True


@dataclass(slots=True)
class ExternalGrid:
    """Aggregated upstream grid, given by its short-circuit power and R/X ratio."""

    bus: int
    s_sc_max_mva: float
    s_sc_min_mva: float | None = None
    rx_max: float = 0.0
    rx_min: float | None = None
    in_service: bool = True

    def __post_init__(self):
        if self.s_sc_min_mva is None:
            self.s_sc_min_mva = self.s_sc_max_mva
        if self.rx_min is None:
            self.rx_min = self.rx_max


@dataclass(slots=True)
class Line:
    from_bus: int
    to_bus: int
    length_km: float
    r_ohm_per_km: float
    x_ohm_per_km: float
    # conductor temperature after fault clearing; drives the minimum-case
    # resistance correction. 80 degC is a conservative cable default.
    endtemp_degc: float = 80.0
    in_service: bool = True


@dataclass(slots=True)
class Transformer2W:
    hv_bus: int
    lv_bus: int
    sn_mva: float
    vn_hv_kv: float
    vn_lv_kv: float
    vk_percent: float
    vkr_percent: float = 0.0
    in_service: bool = True


@dataclass(slots=True)
class Transformer3W:
    hv_bus: int
    mv_bus: int
    lv_bus: int
    sn_hv_mva: float
    sn_mv_mva: float
    sn_lv_mva: float
    vn_hv_kv: float
    vn_mv_kv: float
    vn_lv_kv: float
    vk_hm_percent: float
    vk_ml_percent: float
    vk_hl_percent: float
    vkr_hm_percent: float = 0.0
    vkr_ml_percent: float = 0.0
    vkr_hl_percent: float = 0.0
    in_service: bool = True


@dataclass(slots=True)
class ConverterSource:
    """Full converter generation unit (PV, modern wind): a constant current source."""

    bus: int
    sn_mva: float
    k: float
    in_service: bool = True


# grid-file section -> element class; the dataclass fields are the schema
SECTIONS: dict[str, type] = {
    "buses": Bus,
    "external_grids": ExternalGrid,
    "lines": Line,
    "transformers2w": Transformer2W,
    "transformers3w": Transformer3W,
    "converter_sources": ConverterSource,
}

_FIELD_TYPES = {"int": "int", "float": "num", "float | None": "num", "str": "str", "bool": "bool"}


def _field_specs(cls: type) -> list[tuple[str, str, bool, object]]:
    specs = []
    for f in dataclasses.fields(cls):
        if f.type not in _FIELD_TYPES:
            raise TypeError(f"{cls.__name__}.{f.name}: unsupported annotation {f.type!r}")
        required = f.default is dataclasses.MISSING
        specs.append((f.name, _FIELD_TYPES[f.type], required, None if required else f.default))
    return specs


# section -> [(field, type, required, default)]; type is one of "int", "num", "str", "bool"
FIELD_SPECS = {section: _field_specs(cls) for section, cls in SECTIONS.items()}


@dataclass(frozen=True)
class ElementRef:
    kind: str
    index: int


@dataclass(slots=True)
class Switch:
    bus: int
    other: int | ElementRef
    closed: bool = True

    @property
    def kind(self) -> str:
        return "bus-bus" if _is_index(self.other) else "bus-element"


@dataclass
class Network:
    name: str = ""
    buses: list[Bus] = field(default_factory=list)
    external_grids: list[ExternalGrid] = field(default_factory=list)
    lines: list[Line] = field(default_factory=list)
    transformers2w: list[Transformer2W] = field(default_factory=list)
    transformers3w: list[Transformer3W] = field(default_factory=list)
    converter_sources: list[ConverterSource] = field(default_factory=list)
    switches: list[Switch] = field(default_factory=list)


@dataclass(frozen=True)
class Violation:
    element: str
    field: str
    rule: str

    def __str__(self) -> str:
        return f"{self.element}: {self.rule}"


def _is_index(value) -> bool:
    """An integer as ``operator.index`` takes it: int, bool or numpy integer.
    A switch whose ``other`` is one connects two buses."""
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


# the exact value types of a number field in the typed read; any other
# type, such as a numpy scalar or a bool, refuses the read, and ``validate``
# judges it as the Python value it is
_NUMBER = {float, int}
# beyond this magnitude an int field value may round on its way to float64,
# and two values that differ could compare equal
_EXACT_FLOAT = 2.0**53


# Marshal format 2 writes a list as "[" and a 4-byte count, then one record
# per value: an exact float as the tag "g" and its 8 bytes, little-endian,
# an exact int in the int32 range as "i" and its 4 bytes, an exact bool as
# the one byte "T" or "F". Every other value gets a record of another tag
# or length, or none (ValueError), and version 2 writes no back-references.
# So when the record at byte 5 has the tag "g", it ends 9 bytes on: a byte
# string of 5 + 9n bytes whose every 9th byte from byte 5 is "g" holds n
# exact floats, by induction over the records, and one of 5 + 5n bytes
# whose every 5th byte is "i" n exact ints; one of 5 + n bytes that are
# all "T" or "F" after byte 5 holds n exact bools. One ``marshal.dumps``
# proves the types of a column and yields its values in one C pass.
_FLAG_BYTES = bytes.maketrans(b"TF", b"\x01\x00")


def _records(values: list) -> bytes:
    """The marshal format-2 bytes of ``values``, or b"" when marshal cannot
    write one of them."""
    try:
        return marshal.dumps(values, 2)
    except ValueError:
        return b""


def _column(tag: bytes, record: np.dtype, dtype: type, types: set, values: list) -> np.ndarray:
    """The ``dtype`` column of ``values``: from their marshal records, when
    every record is the tag ``tag`` and one ``record`` value, as one strided
    view, copied out exactly; otherwise through ``np.fromiter`` when every
    value has exactly one of ``types``, which raises OverflowError for an
    int beyond 64 bits. Any other type raises TypeError."""
    n, stride = len(values), 1 + record.itemsize
    data = _records(values)
    # (an empty column has no record to take its values from)
    if n and len(data) == 5 + stride * n and data[5::stride] == tag * n:
        return np.ndarray(n, record, data, 6, (stride,)).astype(dtype)
    if set(map(type, values)) <= types:
        return np.fromiter(values, dtype, n)
    raise TypeError("a field holds a value of another type")


# an int field takes exact ints only, a number field exact floats and ints
_int_column = functools.partial(_column, b"i", np.dtype("<i4"), np.int64, {int})
_float_column = functools.partial(_column, b"g", np.dtype("<f8"), float, _NUMBER)


def _flag_column(values: list) -> np.ndarray:
    """The bool column of ``values``, exact bools all; any other type raises
    TypeError."""
    n = len(values)
    data = _records(values)
    if len(data) == 5 + n and data.count(b"T", 5) + data.count(b"F", 5) == n:
        return np.frombuffer(data.translate(_FLAG_BYTES), bool, n, 5).copy()
    raise TypeError("a flag holds another type than bool")


# The layout of the read, the one place that says where each field sits:
# per list of ``_lists``, its blocks in order as (name, section, fields).
# A block holds the fields of each element of its section, an element's
# fields side by side, so its length is the section's count in ``sizes``
# times the number of fields. Ties and cuts are the bus-bus and the
# bus-element switches. Each element's flag lines up with its first bus.
_SIZES = ("buses", "external_grids", "converter_sources", "lines", "transformers2w", "transformers3w", "ties", "cuts")
_LAYOUT = {
    "ints": (
        ("bus_id", "buses", "id"),
        # the bus references (``refs``), ending in blocks A and B: both ends of each two-ended element
        ("eg_bus", "external_grids", "bus"), ("conv_bus", "converter_sources", "bus"), ("cut_bus", "cuts", "bus"),
        ("windings", "transformers3w", "hv_bus mv_bus lv_bus"), ("t2_hv", "transformers2w", "hv_bus"),
        ("line_from", "lines", "from_bus"), ("tie_bus", "ties", "bus"), ("t2_lv", "transformers2w", "lv_bus"),
        ("line_to", "lines", "to_bus"), ("tie_other", "ties", "other"), ("cut_index", "cuts", "other"),
    ),
    "floats": (
        # grouped by rule: the fields > 0, the rated voltages last
        ("vn", "buses", "vn_kv"), ("length", "lines", "length_km"), ("conv_sn", "converter_sources", "sn_mva"),
        ("s_sc_min", "external_grids", "s_sc_min_mva"), ("t2_sn", "transformers2w", "sn_mva"),
        ("t3_sn", "transformers3w", "sn_hv_mva sn_mv_mva sn_lv_mva"), ("t2_vn", "transformers2w", "vn_hv_kv vn_lv_kv"),
        ("t3_vn", "transformers3w", "vn_hv_kv vn_mv_kv vn_lv_kv"),
        # the fields >= 0, the vkr fields last, then the vk fields in their order
        ("r", "lines", "r_ohm_per_km"), ("x", "lines", "x_ohm_per_km"), ("conv_k", "converter_sources", "k"),
        ("eg_rx", "external_grids", "rx_max rx_min"), ("t2_vkr", "transformers2w", "vkr_percent"),
        ("t3_vkr", "transformers3w", "vkr_hm_percent vkr_ml_percent vkr_hl_percent"),
        ("t2_vk", "transformers2w", "vk_percent"),
        ("t3_vk", "transformers3w", "vk_hm_percent vk_ml_percent vk_hl_percent"),
        ("s_sc_max", "external_grids", "s_sc_max_mva"), ("endtemp", "lines", "endtemp_degc"),
    ),
    "flags": (
        ("bus_on", "buses", "in_service"), ("eg_on", "external_grids", "in_service"),
        ("conv_on", "converter_sources", "in_service"), ("t3_on", "transformers3w", "in_service"),
        ("t2_on", "transformers2w", "in_service"), ("line_on", "lines", "in_service"),
        ("tie_closed", "ties", "closed"), ("cut_closed", "cuts", "closed"),
    ),
}
# spans of the int list: the bus references, and blocks A over B
_REFS, _ENDS = "eg_bus:tie_other", "t2_hv:tie_other"
# per kind of element a switch cuts: its terminal blocks, and their width
_CUT = {"trafo3w": (("windings",), 3), "line": (("line_from", "line_to"), 1), "trafo2w": (("t2_hv", "t2_lv"), 1)}


class _Layout(dict):
    """The slice of each block of ``_LAYOUT`` in its list, for one
    ``sizes``. A key "first:last" gives the span of the blocks first to
    last, and a key (span, block or span) the slice of the second in a
    view of the span, each computed at its first lookup."""

    def __init__(self, sizes: tuple):
        count = dict(zip(_SIZES, sizes))
        for blocks in _LAYOUT.values():
            stop = 0
            for name, section, fields in blocks:
                self[name] = slice(stop, stop := stop + count[section] * len(fields.split()))

    def __missing__(self, key):
        if type(key) is str:
            first, last = map(self.__getitem__, key.split(":"))
            return self.setdefault(key, slice(first.start, last.stop))
        outer, inner = self[key[0]], self[key[1]]
        return self.setdefault(key, slice(inner.start - outer.start, inner.stop - outer.start))


_layout = functools.lru_cache(maxsize=1024)(_Layout)


def _lists(net) -> tuple:
    """The element tables of ``net`` in the layout ``_LAYOUT`` states: the
    sizes, one list each of the ints, floats and flags, the bus names and
    the kinds of the elements that switches cut."""
    buses, egs, convs, lines = net.buses, net.external_grids, net.converter_sources, net.lines
    t2s, t3s, sws = net.transformers2w, net.transformers3w, net.switches
    # any other ``other`` is a bus id, or breaks a rule
    cuts = [sw for sw in sws if isinstance(sw.other, ElementRef)]
    ties = [sw for sw in sws if not isinstance(sw.other, ElementRef)] if cuts else sws
    sizes = len(buses), len(egs), len(convs), len(lines), len(t2s), len(t3s), len(ties), len(cuts)
    ints = [
        *[b.id for b in buses],
        *[e.bus for e in egs], *[c.bus for c in convs], *[sw.bus for sw in cuts],
        *[b for t in t3s for b in (t.hv_bus, t.mv_bus, t.lv_bus)],
        *[t.hv_bus for t in t2s], *[ln.from_bus for ln in lines], *[sw.bus for sw in ties],
        *[t.lv_bus for t in t2s], *[ln.to_bus for ln in lines], *[sw.other for sw in ties],
        *[sw.other.index for sw in cuts],
    ]
    floats = [
        *[b.vn_kv for b in buses], *[ln.length_km for ln in lines], *[c.sn_mva for c in convs],
        *[e.s_sc_min_mva for e in egs], *[t.sn_mva for t in t2s],
        *[x for t in t3s for x in (t.sn_hv_mva, t.sn_mv_mva, t.sn_lv_mva)],
        *[x for t in t2s for x in (t.vn_hv_kv, t.vn_lv_kv)],
        *[x for t in t3s for x in (t.vn_hv_kv, t.vn_mv_kv, t.vn_lv_kv)],
        *[ln.r_ohm_per_km for ln in lines], *[ln.x_ohm_per_km for ln in lines], *[c.k for c in convs],
        *[x for e in egs for x in (e.rx_max, e.rx_min)],
        *[t.vkr_percent for t in t2s],
        *[x for t in t3s for x in (t.vkr_hm_percent, t.vkr_ml_percent, t.vkr_hl_percent)],
        *[t.vk_percent for t in t2s],
        *[x for t in t3s for x in (t.vk_hm_percent, t.vk_ml_percent, t.vk_hl_percent)],
        *[e.s_sc_max_mva for e in egs], *[ln.endtemp_degc for ln in lines],
    ]
    flags = [
        *[b.in_service for b in buses],
        *[e.in_service for e in egs], *[c.in_service for c in convs], *[t.in_service for t in t3s],
        *[t.in_service for t in t2s], *[ln.in_service for ln in lines],
        *[sw.closed for sw in ties], *[sw.closed for sw in cuts],
    ]
    return sizes, ints, floats, flags, [b.name for b in buses], [sw.other.kind for sw in cuts]


class _Tables:
    """The element tables of a network, read once: one list per value type,
    then one numpy column per list, in the layout of ``_LAYOUT``; ``at``
    gives each block's slice and ``refs`` the bus references.

    ``ok`` is False when the read refused a value: one of another type than
    its field's, an integer beyond 64 bits, an element of an unknown kind
    or index, a switch bus that is no terminal of its element, or a
    network without buses or external grids. ``validate`` then judges the
    values as they are, and a network that breaks no rule gets its columns
    from ``coerce``.
    """

    def __init__(self, net: Network):
        self.sizes, ints, floats, flags, self.names, self.kinds = _lists(net)
        self.ok = bool(net.buses and net.external_grids)
        if self.ok:
            # each list is released once its column exists; a refused read
            # keeps the lists and columns it has for ``coerce``
            try:
                # (a name of another type than str fails the join)
                "".join(self.names)
                ints = _int_column(ints)
                floats = _float_column(floats)
                flags = _flag_column(flags)
                self._columns(ints, floats, flags)
            except (OverflowError, TypeError):
                self.ok = False
        self._values = None if self.ok else (ints, floats, flags)

    def coerce(self) -> None:
        """The columns of a valid network whose read was refused: each bus
        reference and element index through ``int()`` (the int column too,
        when the floats refused the read), each number through ``float()``."""
        ints, floats, flags = self._values
        self._columns(_int_column(list(map(int, ints))), _float_column(list(map(float, floats))), _flag_column(flags))
        self._values = None
        self.ok = True

    def _columns(self, column: np.ndarray, f: np.ndarray, flags: np.ndarray) -> None:
        at = self.at = _layout(self.sizes)
        refs = self.refs = column[at[_REFS]]
        # per bus-element switch, the slots in refs of its element's terminals
        # at its bus: None for no such element, empty when none is at the bus
        self.cuts, slots = [], range(len(refs))
        for kind, i, bus in zip(self.kinds, column[at["cut_index"]].tolist(), column[at["cut_bus"]].tolist()):
            blocks, width = _CUT.get(kind, ((), 1)) if isinstance(kind, str) else ((), 1)
            terminals = [s for block in blocks for s in slots[at[_REFS, block]][width * i : width * i + width]]
            self.cuts.append([s for s in terminals if refs.item(s) == bus] if terminals and i >= 0 else None)
        if not all(self.cuts):
            self.ok = False
        self.floats, self.flags = f, flags
        self.bus_id, self.in_service, self.vn = column[at["bus_id"]], flags[at["bus_on"]], f[at["vn"]]
        # bus ids sorted once, equal ids in list order: a reference's rank
        # among them gives its bus, the first of that id
        self.order = self.bus_id.argsort(kind="stable")
        self.sorted_ids = self.bus_id[self.order]
        self.rank = self.sorted_ids.searchsorted(refs)
        self.pos = self.order.take(self.rank, mode="clip")

    def elements(self) -> tuple[dict, dict, np.ndarray, np.ndarray]:
        """Per element kind, the positions in ``net.buses`` of its terminal
        buses, one row per terminal field, and whether each element is live:
        in service, its buses in service and not cut off by an open switch
        (a three-winding transformer on two of its windings); per winding of
        the three-winding transformers, whether its bus is in service and no
        open switch cuts it; the ranks among the sorted bus ids of both ends
        of each closed bus-bus switch between buses in service."""
        at, flags, pos = self.at, self.flags, self.pos
        # per reference: its bus is in service and no open switch cuts it
        up = self.in_service[pos]
        if self.cuts:
            cut = [s for slots, on in zip(self.cuts, flags[at["cut_closed"]].tolist()) if not on for s in slots]
            if cut:
                up[cut] = False
        # flags line up with first references: a block's slice in refs, or in
        # A..B (its column in A over B), is also its flags' slice in their span
        a_b, eg, conv, wound = at[_REFS, _ENDS], at[_REFS, "eg_bus"], at[_REFS, "conv_bus"], at[_REFS, "windings"]
        line, t2, tie = at[_ENDS, "line_from"], at[_ENDS, "t2_hv"], at[_ENDS, "tie_bus"]
        ends, two = pos[a_b].reshape(2, -1), up[a_b].reshape(2, -1)
        live_one = flags[at["eg_on:conv_on"]] & up[at[_REFS, "eg_bus:conv_bus"]]
        live_two = flags[at["t2_on:tie_closed"]] & two[0] & two[1]
        # (a copy, so that it keeps no view of every reference's flag)
        windings = up[wound].reshape(-1, 3).copy()
        live_3w = flags[at["t3_on"]]
        if len(windings):
            # a three-winding transformer stays live on two of its windings
            live_3w = live_3w & (windings.sum(1) >= 2)
        terminals = {
            "external_grid": pos[None, eg], "converter": pos[None, conv], "line": ends[:, line],
            "trafo2w": ends[:, t2], "trafo3w": pos[wound].reshape(-1, 3).T,
        }
        live = {
            "external_grid": live_one[eg], "converter": live_one[conv], "line": live_two[line],
            "trafo2w": live_two[t2], "trafo3w": live_3w,
        }
        ties = self.rank[a_b].reshape(2, -1)[:, tie].compress(live_two[tie], 1)
        return terminals, live, windings.T, ties


_UNKNOWN = "{field} references unknown bus {value}"
# (judged only when both ends are known buses)
_LEVELS = ("from_bus and to_bus must have equal vn_kv", "bus-bus switches must connect buses of equal vn_kv")


def _broken(t: _Tables) -> tuple:
    """Every rule of the columns in its violated form, one numpy mask per
    kind of rule over every section at once, whatever the size of the
    network; and ``naming``, which valid networks never call: on the
    (label, value) pairs of the int and float lists, (rule, mask, pairs)
    in the order an element's violations are listed, entry k of ``mask``
    named by ``pairs[k]``."""
    f, ids, at = t.floats, t.sorted_ids, t.at
    # the fields > 0 and >= 0, the vkr fields and the ends that join levels
    above, below, vkr_at, joins_at = "vn:t3_vn", "r:t3_vkr", "t2_vkr:t3_vkr", "line_from:tie_bus"
    unknown = ids.take(t.rank, mode="clip") != t.refs
    unique = ids[1:] == ids[:-1]
    positive = ~(f[at[above]] > 0.0)
    s_sc = f[at["s_sc_max"]] < f[at["s_sc_min"]]
    negative = f[at[below]] < 0.0
    vkr = np.logical_or(negative[at[below, vkr_at]], ~(f[at[vkr_at]] < f[at["t2_vk:t3_vk"]]))
    vk = f[at["t2_vk"]] > 100.0
    r_x = f[at["r:x"]].reshape(2, -1) == 0.0
    zero = np.logical_and(r_x[0], r_x[1])
    endtemp = f[at["endtemp"]] < 20.0
    # the ends of the lines and bus-bus switches, which join equal levels
    joins = t.vn[t.pos[at[_REFS, _ENDS]].reshape(2, -1)[:, at[_ENDS, joins_at]]]
    levels = joins[0] != joins[1]

    def naming(ints: list, floats: list) -> tuple:
        return (
            (_UNKNOWN, unknown, ints[at[_REFS]]),
            ("id {value} is not unique", unique, [ints[j] for j in t.order[1:].tolist()]),
            ("{field} > 0", positive[at[above, "vn:t3_sn"]], floats[at["vn:t3_sn"]]),
            ("s_sc_max_mva >= s_sc_min_mva", s_sc, floats[at["s_sc_max"]]),
            ("0 <= {field} < {vk} <= 100", vkr[at[vkr_at, "t2_vkr"]], floats[at["t2_vkr"]]),
            ("0 <= {field} < {vk} <= 100", vk, floats[at["t2_vkr"]]),
            ("0 <= {field} < {vk}", vkr[at[vkr_at, "t3_vkr"]], floats[at["t3_vkr"]]),
            # the rated voltages of the transformers
            ("{field} > 0", positive[at[above, "t2_vn:t3_vn"]], floats[at["t2_vn:t3_vn"]]),
            ("{field} >= 0", negative[at[below, "r:eg_rx"]], floats[at["r:eg_rx"]]),
            ("r_ohm_per_km and x_ohm_per_km must not both be zero", zero, floats[at["r"]]),
            ("endtemp_degc >= 20", endtemp, floats[at["endtemp"]]),
            (_LEVELS[0], levels[at[joins_at, "line_from"]], ints[at["line_to"]]),
            (_LEVELS[1], levels[at[joins_at, "tie_bus"]], ints[at["tie_other"]]),
        )

    return (unknown, unique, positive, s_sc, negative, vkr, vk, zero, endtemp, levels), naming


def _rules_hold(t: _Tables) -> bool:
    """Whether the columns of a read network keep every rule: a fixed
    number of numpy calls, whatever the size of the network."""
    if not t.ok:
        return False
    # every float field has a lower bound >= 0, so a float column at most
    # 2**53 is finite, and exact as float64 where one holds an int: its
    # masks judge the values as they are
    masks, _ = _broken(t)
    return not np.count_nonzero(np.concatenate((~(t.floats <= _EXACT_FLOAT), *masks)))


def validate(net: Network, tables: _Tables | None = None) -> list[Violation]:
    """Check every model invariant; violations are data, not exceptions.

    The returned list is empty exactly when the network is well formed.
    Electrical solvability beyond data shape (dead islands, singular
    stamps) is the study builder's concern, not validation's. ``tables``
    is the typed read of ``net`` when the caller holds it already. Only
    when its columns break a rule or the read refused a value are the
    violations named, from the masks that failed.
    """
    if _rules_hold(tables if tables is not None else _Tables(net)):
        return []
    return _named(net)


def _labels(net: Network, sizes: tuple) -> dict:
    """Per list of the read of ``net``, the label (section, index, field)
    of each entry, as ``_LAYOUT`` lays them out; a switch's index is its
    place in ``net.switches``."""
    index = {section: [(section, i) for i in range(n)] for section, n in zip(_SIZES, sizes)}
    cut = [isinstance(sw.other, ElementRef) for sw in net.switches]
    index["ties"], index["cuts"] = ([("switches", i) for i, c in enumerate(cut) if c is kind] for kind in (False, True))
    return {
        name: [(*pair, field) for _, section, fields in blocks for pair in index[section] for field in fields.split()]
        for name, blocks in _LAYOUT.items()
    }


def _find(lookup, value, default: int) -> int:
    """``lookup(value, default)`` on a dict of bus ids; ``default`` for an
    unhashable value, which no bus id equals."""
    try:
        return lookup(value, default)
    except TypeError:
        return default


def _int64(value) -> bool:
    """Whether ``value`` is an integer that an int64 column holds."""
    return _is_index(value) and -_INT64_LIMIT <= value < _INT64_LIMIT


def _named(net: Network) -> list[Violation]:
    """The violations of a network whose read was refused or whose columns
    break a rule. The type and range rules take one pass over each list of
    the read. The masks of ``_broken`` then run on the values that remain:
    the numbers as Python objects, which compare as they do in Python, and
    the bus ids and references as codes, the position of the first bus of
    that id or -1 for an unknown bus. Each element's violations are found
    in the order they are listed."""
    # the masks need a bus: a network without buses is read with one that
    # nothing refers to, and its violations are dropped
    view = net if net.buses else dataclasses.replace(net, buses=[Bus(object(), 1.0)])
    sizes, ints, floats, flags, names, kinds = _lists(view)
    at, labels = _layout(sizes), _labels(view, sizes)
    typed = []
    for label, value in zip(labels["floats"], floats):
        try:
            if not math.isfinite(value):
                typed.append((label, f"{label[2]} must be finite"))
        except OverflowError:  # an int beyond the float range
            typed.append((label, f"{label[2]} must be finite"))
        except TypeError:
            typed.append((label, f"{label[2]} must be a number"))
    typed += [
        (label, f"{label[2]} must be a bool") for label, value in zip(labels["flags"], flags) if type(value) is not bool
    ]
    if any(rule.endswith("number") for _, rule in typed):
        # the value rules compare these fields and cannot judge a non-number
        return _listed(net, typed)

    ids, buses, index, pairs = at["bus_id"], at["cut_bus"], at["cut_index"], list(zip(labels["ints"], ints))
    second = [
        (label, "id must be an integer" if not _is_index(value) else f"id {value} is outside the 64-bit range")
        for label, value in pairs[ids] if not _int64(value)
    ]
    # an end of a bus-bus switch of another type refers to no bus
    others = {label for label, value in pairs[at["tie_other"]] if not _is_index(value)}
    first = {}
    codes = [_find(first.setdefault, value, k) for k, value in enumerate(ints[ids])]
    codes += [-1 if label in others else _find(first.get, value, -1) for label, value in pairs[at[_REFS]]]
    # (an element index beyond 64 bits does not exist either)
    codes += [value if _int64(value) else -1 for value in ints[index]]
    t = _Tables.__new__(_Tables)
    t.sizes, t.names, t.kinds = sizes, names, kinds
    codes = np.fromiter(codes, np.int64, len(codes))
    t._columns(codes, np.fromiter(floats, object, len(floats)), np.ones(len(flags), bool))
    found = []
    with np.errstate(invalid="ignore"):  # (NaN compares as in Python)
        _, naming = _broken(t)
    unknown = set()
    for rule, mask, named in naming(pairs, list(zip(labels["floats"], floats))):
        for k in np.flatnonzero(mask).tolist():
            label, value = named[k]
            name = label[2]
            if label in others or rule in _LEVELS and label[:2] in unknown:
                continue
            if rule is _UNKNOWN:
                unknown.add(label[:2])
            found.append((label, rule.format(field=name, value=value, vk=name.replace("vkr", "vk"))))
    found += [(("buses", i, "name"), "name must be a string") for i, x in enumerate(names) if not isinstance(x, str)]
    found += [(label, "other must be an int bus id or an ElementRef") for label in others]
    for kind, cut, (bus_label, bus), code, (label, i) in zip(kinds, t.cuts, pairs[buses], codes[buses], pairs[index]):
        element = f"{kind}[{i}]"
        if kind not in SWITCHABLE_ELEMENT_KINDS:
            found.append((label, f"element kind must be one of {SWITCHABLE_ELEMENT_KINDS}"))
        elif not _is_index(i):
            found.append((label, "element index must be an integer"))
        elif cut is None:
            found.append((label, f"{element} does not exist"))
        elif not cut and code >= 0:
            found.append((bus_label, f"bus {bus} is not a terminal of {element}"))
    if not net.external_grids:
        rule = "at least one ExternalGrid is required for a solvable study"
        found.append((("network", None, "external_grids"), rule))
    return _listed(net, typed, found, second)


def _listed(net: Network, typed: list, found: list = (), second: list = ()) -> list[Violation]:
    """The violations as (label, rule), each once, in the order they are
    listed: the type rules of the numbers and flags (``typed``) section by
    section and field by field, then element by element in the order
    ``found``, with the rules of the bus ids in a ``second`` pass over the
    buses."""
    sections = (*SECTIONS, "switches", "network")
    keyed = []
    for phase, entries in enumerate((typed, found, second)):
        for (section, i, name), rule in entries:
            # (the type rules go field by field)
            then = phase or [f.name for f in dataclasses.fields(SECTIONS.get(section, Switch))].index(name)
            element = section if i is None else f"{section}[{i}]"
            keyed.append(((phase > 0, sections.index(section), then, i or 0), Violation(element, name, rule)))
    keyed.sort(key=operator.itemgetter(0))
    # (a network without buses was read with one)
    return list(dict.fromkeys(v for _, v in keyed if net.buses or not v.element.startswith("buses")))
