"""Element-based grid model: nameplate data, connectivity, switches, validation.

Elements are described the way they appear on the nameplate (short-circuit
voltages, rated powers, ohms per km). Everything electrical is derived later
when the study model is built, so the same network can feed minimum and
maximum fault-current studies without touching the input data.
"""
from __future__ import annotations

import dataclasses
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


@dataclass
class Bus:
    id: int
    vn_kv: float
    name: str = ""
    in_service: bool = True


@dataclass
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


@dataclass
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


@dataclass
class Transformer2W:
    hv_bus: int
    lv_bus: int
    sn_mva: float
    vn_hv_kv: float
    vn_lv_kv: float
    vk_percent: float
    vkr_percent: float = 0.0
    in_service: bool = True


@dataclass
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


@dataclass
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


@dataclass
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


def _all_of(values: list, kind: type) -> bool:
    """Whether every value has exactly the type ``kind``: one counting pass,
    which costs less than a set of the types."""
    return operator.countOf(map(type, values), kind) == len(values)


# Marshal format 2 writes a list as "[" and a 4-byte count, then one record
# per value: an exact float as the tag "g" and its 8 bytes, little-endian,
# an exact bool as the one byte "T" or "F". Every other value gets a record
# of another tag or length, or none (ValueError), and version 2 writes no
# back-references. So when the record at byte 5 has the tag "g", it ends 9
# bytes on: a byte string of 5 + 9n bytes whose every 9th byte from byte 5
# is "g" holds n exact floats, by induction over the records, and one of
# 5 + n bytes that are all "T" or "F" after byte 5 holds n exact bools. One
# ``marshal.dumps`` proves the types of a column and yields its values in
# one C pass.
_FLOAT_RECORD = np.dtype([("tag", "S1"), ("value", "<f8")])
_FLAG_BYTES = bytes.maketrans(b"TF", b"\x01\x00")


def _records(values: list) -> bytes:
    """The marshal format-2 bytes of ``values``, or b"" when marshal cannot
    write one of them."""
    try:
        return marshal.dumps(values, 2)
    except ValueError:
        return b""


def _float_column(values: list) -> np.ndarray:
    """The float64 column of ``values``: exact floats from their records,
    bit for bit; another mix of exact floats and ints through
    ``np.fromiter``. Any other type raises TypeError."""
    n = len(values)
    data = _records(values)
    # (an empty column has no record to take its values from)
    if n and len(data) == 5 + 9 * n and data[5::9] == b"g" * n:
        return np.frombuffer(data, _FLOAT_RECORD, n, 5)["value"].copy()
    if set(map(type, values)) <= _NUMBER:
        return np.fromiter(values, float, n)
    raise TypeError("a number field holds another type")


def _flag_column(values: list) -> np.ndarray:
    """The bool column of ``values``, exact bools all; any other type raises
    TypeError."""
    n = len(values)
    data = _records(values)
    if len(data) == 5 + n and data.count(b"T", 5) + data.count(b"F", 5) == n:
        return np.frombuffer(data.translate(_FLAG_BYTES), bool, n, 5).copy()
    raise TypeError("a flag holds another type than bool")


def _lists(net) -> tuple:
    """The element tables of ``net`` in the layout of ``_Tables``: the
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
    then one numpy column per list.

    The int column holds the bus ids, then the bus references (``refs``),
    then the element index of each bus-element switch. The references are
    the bus of every external grid, converter and bus-element switch, the
    three windings of one three-winding transformer after another, and two
    aligned blocks A and B: the HV side of every two-winding transformer,
    the from bus of every line and the bus of every bus-bus switch in A,
    their other ends in B. The float column is grouped by rule: the fields
    that must be > 0 (the rated voltages of the transformers last), those
    that must be >= 0 (ending with the vkr fields), the vk fields in the
    order of the vkr fields, s_sc_max, and the line end temperatures.
    The flags are ``in_service`` of the buses, external grids, converters,
    three- and two-winding transformers and lines, then ``closed`` of the
    bus-bus and the bus-element switches: each element's flag lines up with
    its first reference.

    ``ok`` is False when the read refused a value: one of another type than
    its field's, an integer beyond 64 bits, an element of an unknown kind
    or index, a switch bus that is no terminal of its element, or a
    network without buses or external grids. ``validate`` then judges the
    values as they are, and a network that breaks no rule gets its columns
    from ``coerce``.
    """

    def __init__(self, net: Network):
        self.sizes, ints, floats, flags, self.names, self.kinds = _lists(net)
        self.ok = bool(net.buses and net.external_grids and _all_of(ints, int) and _all_of(self.names, str))
        if self.ok:
            try:
                self._columns(ints, _float_column(floats), _flag_column(flags))
            except (OverflowError, TypeError):
                self.ok = False
        self._values = None if self.ok else (ints, floats, flags)

    def coerce(self) -> None:
        """The columns of a valid network whose read was refused: each bus
        reference and element index through ``int()``, each number through
        ``float()``."""
        ints, floats, flags = self._values
        self._columns([int(v) for v in ints], _float_column([float(v) for v in floats]), _flag_column(flags))
        self._values = None
        self.ok = True

    def _columns(self, ints: list, f: np.ndarray, flags: np.ndarray) -> None:
        nb, ne, nc, nl, n2, n3, nt, nk = self.sizes
        m = n2 + nl + nt
        t3_at = ne + nc + nk
        a_at = t3_at + 3 * n3
        b_at = a_at + m
        # per bus-element switch: its element and bus, and the slots in refs
        # of the element's terminals at that bus, which are None when the
        # element does not exist (or its kind) and empty when the bus is
        # none of them
        self.cuts = []
        for kind, i, bus in zip(self.kinds, ints[nb + b_at + m :], ints[nb + ne + nc : nb + t3_at]):
            if kind == "trafo3w":
                count, slots = n3, (t3_at + 3 * i, t3_at + 3 * i + 1, t3_at + 3 * i + 2)
            elif kind == "line":
                count, slots = nl, (a_at + n2 + i, b_at + n2 + i)
            elif kind == "trafo2w":
                count, slots = n2, (a_at + i, b_at + i)
            else:
                count, slots = 0, ()
            at = [s for s in slots if ints[nb + s] == bus] if 0 <= i < count else None
            self.cuts.append((kind, i, bus, at))
            if not at:
                self.ok = False
        column = np.fromiter(ints, np.int64, len(ints))
        self.floats, self.flags = f, flags
        self.bus_id, self.in_service = column[:nb], flags[:nb]
        self.refs = column[nb : nb + b_at + m]
        # bus ids sorted once, equal ids in list order: a reference's rank
        # among them gives its bus, the first of that id
        self.order = self.bus_id.argsort(kind="stable")
        self.sorted_ids = self.bus_id[self.order]
        self.rank = self.sorted_ids.searchsorted(self.refs)
        self.pos = self.order.take(self.rank, mode="clip")
        p = nb + nl + nc + ne + 3 * n2 + 6 * n3
        self.vn, self.length, self.conv_sn = f[:nb], f[nb : nb + nl], f[nb + nl : nb + nl + nc]
        self.rx, self.conv_k = f[p : p + 2 * nl].reshape(2, nl), f[p + 2 * nl : p + 2 * nl + nc]
        self.endtemp = f[len(f) - nl :]

    def elements(self) -> tuple[dict, dict, set, np.ndarray]:
        """Per element kind, the positions in ``net.buses`` of the terminal
        buses, one row per terminal field in the order of the element's
        fields, and whether each element is live: in service, with its
        buses in service and not cut off by an open bus-element switch (a
        three-winding transformer on two of its windings). Then the
        terminals (kind, index, bus id) that open switches cut, and the
        ranks among the sorted bus ids of both ends of every closed bus-bus
        switch between buses in service, as the two rows of one array."""
        nb, ne, nc, nl, n2, n3, nt, nk = self.sizes
        one, m = ne + nc, n2 + nl + nt
        a_at = one + nk + 3 * n3
        flags, pos = self.flags, self.pos
        # per reference: its bus is in service and no open switch cuts it
        up = self.in_service[pos]
        severed = set()
        if nk:
            cut = []
            for (kind, i, bus, at), closed in zip(self.cuts, flags[len(flags) - nk :].tolist()):
                if not closed:
                    severed.add((kind, i, bus))
                    cut += at
            if cut:
                up[cut] = False
        # each element's flag lines up with its first reference
        ends, two = pos[a_at:].reshape(2, m), up[a_at:].reshape(2, m)
        live_one = flags[nb : nb + one] & up[:one]
        live_two = flags[nb + one + n3 : nb + one + n3 + m] & two[0] & two[1]
        live_3w = flags[nb + one : nb + one + n3]
        if n3:
            # a three-winding transformer stays live on two of its windings
            live_3w = live_3w & (up[one + nk : a_at].reshape(n3, 3).sum(1) >= 2)
        terminals = {
            "external_grid": pos[None, :ne],
            "converter": pos[None, ne:one],
            "line": ends[:, n2 : n2 + nl],
            "trafo2w": ends[:, :n2],
            "trafo3w": pos[one + nk : a_at].reshape(n3, 3).T,
        }
        live = {
            "external_grid": live_one[:ne],
            "converter": live_one[ne:],
            "line": live_two[n2 : n2 + nl],
            "trafo2w": live_two[:n2],
            "trafo3w": live_3w,
        }
        ties = self.rank[a_at:].reshape(2, m)[:, n2 + nl :].compress(live_two[n2 + nl :], 1)
        return terminals, live, severed, ties


_UNKNOWN = "{field} references unknown bus {value}"
# (judged only when both ends are known buses)
_LEVELS = ("from_bus and to_bus must have equal vn_kv", "bus-bus switches must connect buses of equal vn_kv")


def _broken(t: _Tables) -> tuple:
    """Every rule of the columns in its violated form, one numpy mask per
    kind of rule over every section at once, whatever the size of the
    network; and a function that lists what names their entries, in the
    order an element's violations are listed (valid networks, the common
    case, never call it): (rule, mask, start, stop, at). Entry k of
    ``mask[start:stop]`` is named by the label at ``at + k``, or at
    ``at[k]`` when ``at`` is an array, among the labels of the read, the
    int list's then the float list's."""
    nb, ne, nc, nl, n2, n3, nt, nk = t.sizes
    f, ids = t.floats, t.sorted_ids
    m, v = n2 + nl + nt, n2 + 3 * n3
    r = nb + nl + nc + ne + n2 + 3 * n3
    p = r + 2 * n2 + 3 * n3
    q = p + 2 * nl + nc + 2 * ne + v
    s = q + v
    smin = nb + nl + nc
    a_at = ne + nc + nk + 3 * n3
    unknown = ids.take(t.rank, mode="clip") != t.refs
    unique = ids[1:] == ids[:-1]
    positive = ~(f[:p] > 0.0)
    s_sc = f[s : s + ne] < f[smin : smin + ne]
    # the fields >= 0 end with the vkr fields, whose rule is 0 <= vkr < vk
    negative = f[p:q] < 0.0
    vkr = np.logical_or(negative[q - v - p :], ~(f[q - v : q] < f[q:s]))
    vk = f[q : q + n2] > 100.0
    r_x = t.rx == 0.0
    zero = np.logical_and(r_x[0], r_x[1])
    endtemp = f[s + ne :] < 20.0
    # the ends of the lines and bus-bus switches, which join equal levels
    joins = t.vn[t.pos[a_at:].reshape(2, m)[:, n2:]]
    levels = joins[0] != joins[1]

    def naming() -> tuple:
        fl, b = nb + len(t.refs) + nk, nb + a_at + m + n2
        return (
            (_UNKNOWN, unknown, 0, None, nb),
            ("id {value} is not unique", unique, 0, None, t.order[1:]),
            ("{field} > 0", positive, 0, r, fl),
            ("s_sc_max_mva >= s_sc_min_mva", s_sc, 0, None, fl + s),
            ("0 <= {field} < {vk} <= 100", vkr, 0, n2, fl + q - v),
            ("0 <= {field} < {vk} <= 100", vk, 0, None, fl + q - v),
            ("0 <= {field} < {vk}", vkr, n2, None, fl + q - v + n2),
            # the rated voltages of the transformers
            ("{field} > 0", positive, r, None, fl + r),
            ("{field} >= 0", negative, 0, q - v - p, fl + p),
            ("r_ohm_per_km and x_ohm_per_km must not both be zero", zero, 0, None, fl + p),
            ("endtemp_degc >= 20", endtemp, 0, None, fl + s + ne),
            (_LEVELS[0], levels, 0, nl, b),
            (_LEVELS[1], levels, nl, None, b + nl),
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


def _labels(net: Network) -> Network:
    """A stand-in of ``net`` whose every field holds its own label,
    (section, index, field); its read lays the labels out as the values."""
    stand = Network()
    for section, cls in (*SECTIONS.items(), ("switches", Switch)):
        fields = [f.name for f in dataclasses.fields(cls)]
        stand_ins = [cls(*[(section, i, name) for name in fields]) for i in range(len(getattr(net, section)))]
        setattr(stand, section, stand_ins)
    for sw, real in zip(stand.switches, net.switches):
        if isinstance(real.other, ElementRef):
            sw.other = ElementRef(sw.other, sw.other)
    return stand


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
    _, int_labels, float_labels, flag_labels, name_labels, _ = _lists(_labels(view))
    nb, ne, nc, nl, n2, n3, nt, nk = sizes
    typed = []
    for label, value in zip(float_labels, floats):
        try:
            if not math.isfinite(value):
                typed.append((label, f"{label[2]} must be finite"))
        except TypeError:
            typed.append((label, f"{label[2]} must be a number"))
    typed += [
        (label, f"{label[2]} must be a bool") for label, value in zip(flag_labels, flags) if type(value) is not bool
    ]
    if any(rule.endswith("number") for _, rule in typed):
        # the value rules compare these fields and cannot judge a non-number
        return _listed(net, typed)

    end = len(ints) - nk
    second = [
        (label, "id must be an integer" if not _is_index(value) else f"id {value} is outside the 64-bit range")
        for label, value in zip(int_labels, ints[:nb]) if not _int64(value)
    ]
    # an end of a bus-bus switch of another type refers to no bus
    others = {label for label, value in zip(int_labels[end - nt : end], ints[end - nt : end]) if not _is_index(value)}
    first = {}
    codes = [_find(first.setdefault, value, k) for k, value in enumerate(ints[:nb])]
    codes += [
        -1 if label in others else _find(first.get, value, -1) for label, value in zip(int_labels[nb:end], ints[nb:end])
    ]
    # (an element index beyond 64 bits does not exist either)
    codes += [value if _int64(value) else -1 for value in ints[end:]]
    t = _Tables.__new__(_Tables)
    t.sizes, t.names, t.kinds = sizes, names, kinds
    t._columns(codes, np.fromiter(floats, object, len(floats)), np.ones(len(flags), bool))
    labels, values = int_labels + float_labels, ints + floats
    found = []
    with np.errstate(invalid="ignore"):  # (NaN compares as in Python)
        _, naming = _broken(t)
    unknown = set()
    for rule, mask, start, stop, at in naming():
        for k in np.flatnonzero(mask[start:stop]).tolist():
            j = at[k] if isinstance(at, np.ndarray) else at + k
            label, name = labels[j], labels[j][2]
            if label in others or rule in _LEVELS and label[:2] in unknown:
                continue
            if rule is _UNKNOWN:
                unknown.add(label[:2])
            found.append((label, rule.format(field=name, value=values[j], vk=name.replace("vkr", "vk"))))
    found += [(label, "name must be a string") for label, name in zip(name_labels, names) if not isinstance(name, str)]
    found += [(label, "other must be an int bus id or an ElementRef") for label in others]
    for j, (*_, at) in enumerate(t.cuts):
        kind, bus, index = kinds[j], nb + ne + nc + j, end + j
        element = f"{kind}[{ints[index]}]"
        if kind not in SWITCHABLE_ELEMENT_KINDS:
            found.append((int_labels[index], f"element kind must be one of {SWITCHABLE_ELEMENT_KINDS}"))
        elif not _is_index(ints[index]):
            found.append((int_labels[index], "element index must be an integer"))
        elif at is None:
            found.append((int_labels[index], f"{element} does not exist"))
        elif not at and codes[bus] >= 0:
            found.append((int_labels[bus], f"bus {ints[bus]} is not a terminal of {element}"))
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
