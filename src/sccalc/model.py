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


# section -> (its float fields, its bool flags), for the rules on value types
_TYPED_FIELDS = {
    section: ([name for name, typ, _, _ in specs if typ == "num"], [name for name, typ, _, _ in specs if typ == "bool"])
    for section, specs in FIELD_SPECS.items()
}
_TYPED_FIELDS["switches"] = ([], ["closed"])


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

    def element_terminals(self, kind: str, index: int) -> tuple[int, ...]:
        """Bus ids an element of the given kind/index connects to."""
        if kind == "line":
            ln = self.lines[index]
            return (ln.from_bus, ln.to_bus)
        if kind == "trafo2w":
            t = self.transformers2w[index]
            return (t.hv_bus, t.lv_bus)
        if kind == "trafo3w":
            t = self.transformers3w[index]
            return (t.hv_bus, t.mv_bus, t.lv_bus)
        raise KeyError(f"unknown element kind {kind!r}")


@dataclass(frozen=True)
class Violation:
    element: str
    field: str
    rule: str

    def __str__(self) -> str:
        return f"{self.element}: {self.rule}"


def _number_rule(value, name: str) -> str:
    """The violated rule of one float field value, or "" when it holds."""
    try:
        return "" if math.isfinite(value) else f"{name} must be finite"
    except TypeError:
        return f"{name} must be a number"


def _is_index(value) -> bool:
    """An integer as ``operator.index`` takes it: int, bool or numpy integer.
    A switch whose ``other`` is one connects two buses."""
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


# the exact value types of a number field in the typed read; any other
# type, such as a numpy scalar or a bool, takes the element-by-element rules
_NUMBER = {float, int}
_KINDS = set(SWITCHABLE_ELEMENT_KINDS)
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


class _Tables:
    """The element tables of a network, read once: one list per value type,
    then one numpy column per list.

    The int column holds the bus ids, then the bus references (``refs``),
    then the element index of each bus-element switch. The references are
    the bus of every external grid, converter and bus-element switch, the
    three windings of one three-winding transformer after another, and two
    aligned blocks A and B: the HV side of every two-winding transformer,
    the from bus of every line and the bus of every bus-bus switch in A,
    their other ends in B. The float column is grouped by rule: the fields that must be > 0,
    those that must be >= 0 (ending with the vkr fields), the vk fields in
    the order of the vkr fields, s_sc_max, and the line end temperatures.
    The flags are ``in_service`` of the buses, external grids, converters,
    three- and two-winding transformers and lines, then ``closed`` of the
    bus-bus and the bus-element switches: each element's flag lines up with
    its first reference.

    ``ok`` is False when the read refused a value: one of another type than
    its field's, an integer beyond 64 bits, an element index out of range,
    a switch bus that is no terminal of its element, or a network without
    buses or external grids. ``validate`` then names the violations element
    by element, and a network that holds none gets its columns from
    ``coerce``.
    """

    def __init__(self, net: Network):
        buses, egs, convs, lines = net.buses, net.external_grids, net.converter_sources, net.lines
        t2s, t3s, sws = net.transformers2w, net.transformers3w, net.switches
        # any other ``other`` is a bus id, or breaks a rule
        cuts = [sw for sw in sws if isinstance(sw.other, ElementRef)]
        ties = [sw for sw in sws if not isinstance(sw.other, ElementRef)] if cuts else sws
        self.kinds = [sw.other.kind for sw in cuts]
        self.names = [b.name for b in buses]
        self.sizes = len(buses), len(egs), len(convs), len(lines), len(t2s), len(t3s), len(ties), len(cuts)
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
            *[e.s_sc_min_mva for e in egs],
            *[x for t in t2s for x in (t.sn_mva, t.vn_hv_kv, t.vn_lv_kv)],
            *[x for t in t3s for x in (t.sn_hv_mva, t.sn_mv_mva, t.sn_lv_mva, t.vn_hv_kv, t.vn_mv_kv, t.vn_lv_kv)],
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
        self.ok = bool(
            buses and egs and _all_of(ints, int) and _all_of(self.names, str)
            and _all_of(self.kinds, str) and set(self.kinds) <= _KINDS
        )
        if self.ok:
            try:
                self._columns(ints, floats, flags)
                return
            except (OverflowError, LookupError, TypeError):
                self.ok = False
        self._values = ints, floats, flags

    def coerce(self) -> None:
        """The columns of a valid network whose read was refused: each bus
        reference and element index through ``int()``, each number through
        ``float()``."""
        ints, floats, flags = self._values
        self._columns([int(v) for v in ints], [float(v) for v in floats], flags)
        self._values = None
        self.ok = True

    def _columns(self, ints: list, floats: list, flags: list) -> None:
        nb, ne, nc, nl, n2, n3, nt, nk = self.sizes
        m = n2 + nl + nt
        t3_at = ne + nc + nk
        a_at = t3_at + 3 * n3
        b_at = a_at + m
        # per bus-element switch: its element and bus, and the slots in refs
        # of the element's terminals at that bus
        self.cuts = []
        for kind, i, bus in zip(self.kinds, ints[nb + b_at + m :], ints[nb + ne + nc : nb + t3_at]):
            if kind == "trafo3w":
                count, slots = n3, (t3_at + 3 * i, t3_at + 3 * i + 1, t3_at + 3 * i + 2)
            elif kind == "line":
                count, slots = nl, (a_at + n2 + i, b_at + n2 + i)
            else:
                count, slots = n2, (a_at + i, b_at + i)
            at = [s for s in slots if ints[nb + s] == bus] if 0 <= i < count else []
            if not at:
                raise LookupError(f"bus {bus} is no terminal of {kind}[{i}]")
            self.cuts.append((kind, i, bus, at))
        column = np.fromiter(ints, np.int64, len(ints))
        self.floats = f = _float_column(floats)
        self.flags = _flag_column(flags)
        self.bus_id, self.in_service = column[:nb], self.flags[:nb]
        self.refs = column[nb : nb + b_at + m]
        # bus ids sorted once: a reference's rank among them gives its bus
        self.order = self.bus_id.argsort()
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


def _rules_hold(t: _Tables) -> bool:
    """Whether the columns of a read network keep every rule of
    ``_check_each``: a fixed number of numpy masks, whatever the size of the
    network, one per kind of rule over every section at once."""
    if not t.ok:
        return False
    nb, ne, nc, nl, n2, n3, nt, nk = t.sizes
    f, ids, refs = t.floats, t.sorted_ids, t.refs
    m, v = n2 + nl + nt, n2 + 3 * n3
    p = nb + nl + nc + ne + 3 * n2 + 6 * n3
    q = p + 2 * nl + nc + 2 * ne + v
    s = q + v
    smin = nb + nl + nc
    a_at = ne + nc + nk + 3 * n3
    # the ends of the lines and bus-bus switches, which join equal levels
    joins = t.vn[t.pos[a_at:].reshape(2, m)[:, n2:]]
    masks = (
        # every float field has a lower bound >= 0, so this also keeps
        # them finite, and exact as float64 where one holds an int
        f <= _EXACT_FLOAT,
        f[:p] > 0.0,
        f[p:q] >= 0.0,
        f[q - v : q] < f[q:s],
        f[q : q + n2] <= 100.0,
        f[s : s + ne] >= f[smin : smin + ne],
        f[s + ne :] >= 20.0,
        np.logical_or(t.rx[0], t.rx[1]),
        ids[1:] != ids[:-1],
        ids.take(t.rank, mode="clip") == refs,
        joins[0] == joins[1],
    )
    held = np.concatenate(masks)
    return np.count_nonzero(held) == len(held)


def validate(net: Network, tables: _Tables | None = None) -> list[Violation]:
    """Check every model invariant; violations are data, not exceptions.

    The returned list is empty exactly when the network is well formed.
    Electrical solvability beyond data shape (dead islands, singular
    stamps) is the study builder's concern, not validation's. ``tables``
    is the typed read of ``net`` when the caller holds it already; the
    elements are checked one by one only when its columns break a rule or
    the read refused a value, to name the violations.
    """
    if _rules_hold(tables if tables is not None else _Tables(net)):
        return []
    return _check_each(net)


def _check_each(net: Network) -> list[Violation]:
    """``validate``, element by element."""
    # (section, element index, field, rule); the element labels are built
    # only for what is found, at the end
    bad: list[tuple[str, int | None, str, str]] = []
    for section, (floats, flags) in _TYPED_FIELDS.items():
        elements = getattr(net, section)
        for name in floats:
            bad.extend(
                (section, i, name, rule)
                for i, el in enumerate(elements)
                if (rule := _number_rule(getattr(el, name), name))
            )
        # truthiness would decide a flag that holds no bool
        for name in flags:
            bad.extend(
                (section, i, name, f"{name} must be a bool")
                for i, el in enumerate(elements)
                if type(getattr(el, name)) is not bool
            )
    if any(rule.endswith("must be a number") for _, _, _, rule in bad):
        # the rules below compare these fields and cannot judge a non-number
        return _violations(bad)

    vn_of: dict[int, float] = {}
    for i, bus in enumerate(net.buses):
        bus_id, vn = bus.id, bus.vn_kv
        try:
            if bus_id in vn_of:
                bad.append(("buses", i, "id", f"id {bus_id} is not unique"))
            else:
                vn_of[bus_id] = vn
        except TypeError:
            pass  # an unhashable id, which the integer rule below names
        if not vn > 0:
            bad.append(("buses", i, "vn_kv", "vn_kv > 0"))
        if not isinstance(bus.name, str):
            bad.append(("buses", i, "name", "name must be a string"))
    for i, bus in enumerate(net.buses):
        # ints of at most 63 bits besides the sign: bus ids become int64
        if not _is_index(bus.id):
            bad.append(("buses", i, "id", "id must be an integer"))
        elif not -_INT64_LIMIT <= bus.id < _INT64_LIMIT:
            bad.append(("buses", i, "id", f"id {bus.id} is outside the 64-bit range"))

    checked = len(bad)
    try:
        _check_elements(net, vn_of, bad)
    except TypeError:
        # an unhashable bus reference; judged again, it is an unknown bus
        del bad[checked:]
        _check_elements(net, _BusTable(vn_of), bad)

    if not net.external_grids:
        bad.append(("network", None, "external_grids", "at least one ExternalGrid is required for a solvable study"))

    return _violations(bad)


class _BusTable(dict):
    """Bus id -> vn_kv for a network that refers to a bus by an unhashable
    value, which is no key of it."""

    def __contains__(self, key) -> bool:
        try:
            return super().__contains__(key)
        except TypeError:
            return False

    def get(self, key, default=None):
        try:
            return super().get(key, default)
        except TypeError:
            return default


def _check_elements(net: Network, vn_of: dict, bad: list) -> None:
    """The rules of the elements and switches, given the nominal voltage of
    each bus id (a number, never None); appends what it finds to ``bad``."""

    def unknown_bus(section: str, i: int, fieldname: str, bus_id) -> None:
        bad.append((section, i, fieldname, f"{fieldname} references unknown bus {bus_id}"))

    for i, eg in enumerate(net.external_grids):
        if eg.bus not in vn_of:
            unknown_bus("external_grids", i, "bus", eg.bus)
        if not eg.s_sc_min_mva > 0:
            bad.append(("external_grids", i, "s_sc_min_mva", "s_sc_min_mva > 0"))
        if eg.s_sc_max_mva < eg.s_sc_min_mva:
            bad.append(("external_grids", i, "s_sc_max_mva", "s_sc_max_mva >= s_sc_min_mva"))
        if eg.rx_max < 0:
            bad.append(("external_grids", i, "rx_max", "rx_max >= 0"))
        if eg.rx_min < 0:
            bad.append(("external_grids", i, "rx_min", "rx_min >= 0"))

    vn_at = vn_of.get
    for i, ln in enumerate(net.lines):
        from_vn = vn_at(ln.from_bus)
        if from_vn is None:
            unknown_bus("lines", i, "from_bus", ln.from_bus)
        to_vn = vn_at(ln.to_bus)
        if to_vn is None:
            unknown_bus("lines", i, "to_bus", ln.to_bus)
        r, x = ln.r_ohm_per_km, ln.x_ohm_per_km
        if not ln.length_km > 0:
            bad.append(("lines", i, "length_km", "length_km > 0"))
        if r < 0:
            bad.append(("lines", i, "r_ohm_per_km", "r_ohm_per_km >= 0"))
        if x < 0:
            bad.append(("lines", i, "x_ohm_per_km", "x_ohm_per_km >= 0"))
        if r == 0 and x == 0:
            bad.append(("lines", i, "r_ohm_per_km", "r_ohm_per_km and x_ohm_per_km must not both be zero"))
        if ln.endtemp_degc < 20:
            bad.append(("lines", i, "endtemp_degc", "endtemp_degc >= 20"))
        if from_vn != to_vn and from_vn is not None and to_vn is not None:
            bad.append(("lines", i, "to_bus", "from_bus and to_bus must have equal vn_kv"))

    for i, t in enumerate(net.transformers2w):
        if t.hv_bus not in vn_of:
            unknown_bus("transformers2w", i, "hv_bus", t.hv_bus)
        if t.lv_bus not in vn_of:
            unknown_bus("transformers2w", i, "lv_bus", t.lv_bus)
        if not t.sn_mva > 0:
            bad.append(("transformers2w", i, "sn_mva", "sn_mva > 0"))
        if not (0 <= t.vkr_percent < t.vk_percent <= 100):
            bad.append(("transformers2w", i, "vkr_percent", "0 <= vkr_percent < vk_percent <= 100"))
        # zero rated voltage would break per-unit conversion downstream
        if not t.vn_hv_kv > 0:
            bad.append(("transformers2w", i, "vn_hv_kv", "vn_hv_kv > 0"))
        if not t.vn_lv_kv > 0:
            bad.append(("transformers2w", i, "vn_lv_kv", "vn_lv_kv > 0"))

    for i, t in enumerate(net.transformers3w):
        for fieldname, bus_id in (("hv_bus", t.hv_bus), ("mv_bus", t.mv_bus), ("lv_bus", t.lv_bus)):
            if bus_id not in vn_of:
                unknown_bus("transformers3w", i, fieldname, bus_id)
        for fieldname, sn in (("sn_hv_mva", t.sn_hv_mva), ("sn_mv_mva", t.sn_mv_mva), ("sn_lv_mva", t.sn_lv_mva)):
            if not sn > 0:
                bad.append(("transformers3w", i, fieldname, f"{fieldname} > 0"))
        for pair, vk, vkr in (
            ("hm", t.vk_hm_percent, t.vkr_hm_percent),
            ("ml", t.vk_ml_percent, t.vkr_ml_percent),
            ("hl", t.vk_hl_percent, t.vkr_hl_percent),
        ):
            if not (0 <= vkr < vk):
                bad.append(("transformers3w", i, f"vkr_{pair}_percent", f"0 <= vkr_{pair}_percent < vk_{pair}_percent"))
        for fieldname, vn in (("vn_hv_kv", t.vn_hv_kv), ("vn_mv_kv", t.vn_mv_kv), ("vn_lv_kv", t.vn_lv_kv)):
            if not vn > 0:
                bad.append(("transformers3w", i, fieldname, f"{fieldname} > 0"))

    for i, cs in enumerate(net.converter_sources):
        if cs.bus not in vn_of:
            unknown_bus("converter_sources", i, "bus", cs.bus)
        if not cs.sn_mva > 0:
            bad.append(("converter_sources", i, "sn_mva", "sn_mva > 0"))
        if cs.k < 0:
            bad.append(("converter_sources", i, "k", "k >= 0"))

    for i, sw in enumerate(net.switches):
        bus_ok = sw.bus in vn_of
        if not bus_ok:
            unknown_bus("switches", i, "bus", sw.bus)
        if _is_index(sw.other):
            if sw.other not in vn_of:
                unknown_bus("switches", i, "other", sw.other)
            elif bus_ok and vn_of[sw.bus] != vn_of[sw.other]:
                bad.append(("switches", i, "other", "bus-bus switches must connect buses of equal vn_kv"))
        elif not isinstance(sw.other, ElementRef):
            bad.append(("switches", i, "other", "other must be an int bus id or an ElementRef"))
        else:
            ref = sw.other
            if ref.kind not in SWITCHABLE_ELEMENT_KINDS:
                bad.append(("switches", i, "other", f"element kind must be one of {SWITCHABLE_ELEMENT_KINDS}"))
            elif not _is_index(ref.index):
                bad.append(("switches", i, "other", "element index must be an integer"))
            else:
                n = len(getattr(net, _COLLECTION_OF[ref.kind]))
                if not 0 <= ref.index < n:
                    bad.append(("switches", i, "other", f"{ref.kind}[{ref.index}] does not exist"))
                elif bus_ok and sw.bus not in net.element_terminals(ref.kind, ref.index):
                    bad.append(("switches", i, "bus", f"bus {sw.bus} is not a terminal of {ref.kind}[{ref.index}]"))


def _violations(bad: list[tuple[str, int | None, str, str]]) -> list[Violation]:
    return [
        Violation(section if i is None else f"{section}[{i}]", fieldname, rule)
        for section, i, fieldname, rule in bad
    ]


_COLLECTION_OF = {
    "line": "lines",
    "trafo2w": "transformers2w",
    "trafo3w": "transformers3w",
}
