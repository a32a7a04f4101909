"""Element-based grid model: nameplate data, connectivity, switches, validation.

Elements are described the way they appear on the nameplate (short-circuit
voltages, rated powers, ohms per km). Everything electrical is derived later
when the study model is built, so the same network can feed minimum and
maximum fault-current studies without touching the input data.
"""
from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass, field

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


# section -> [(float field name, its getter)], for the finiteness rule
_FLOAT_FIELDS = {
    section: [(name, operator.attrgetter(name)) for name, typ, _, _ in specs if typ == "num"]
    for section, specs in FIELD_SPECS.items()
}


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
        return "bus-bus" if isinstance(self.other, int) else "bus-element"


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
    """An integer as ``operator.index`` takes it: int, bool or numpy integer."""
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


def validate(net: Network) -> list[Violation]:
    """Check every model invariant; violations are data, not exceptions.

    The returned list is empty exactly when the network is well formed.
    Electrical solvability beyond data shape (dead islands, singular
    stamps) is the study builder's concern, not validation's.
    """
    # (section, element index, field, rule); the element labels are built
    # only for what is found, at the end
    bad: list[tuple[str, int | None, str, str]] = []
    for section, fields in _FLOAT_FIELDS.items():
        elements = getattr(net, section)
        for name, get in fields:
            try:
                if all(map(math.isfinite, map(get, elements))):
                    continue
            except TypeError:
                pass
            bad.extend(
                (section, i, name, rule)
                for i, el in enumerate(elements)
                if (rule := _number_rule(get(el), name))
            )
    if any(rule.endswith("must be a number") for _, _, _, rule in bad):
        # the rules below compare these fields and cannot judge a non-number
        return _violations(bad)

    vn_of: dict[int, float] = {}
    for i, bus in enumerate(net.buses):
        if bus.id in vn_of:
            bad.append(("buses", i, "id", f"id {bus.id} is not unique"))
        else:
            vn_of[bus.id] = bus.vn_kv
        if not bus.vn_kv > 0:
            bad.append(("buses", i, "vn_kv", "vn_kv > 0"))
        if not isinstance(bus.name, str):
            bad.append(("buses", i, "name", "name must be a string"))
    try:
        # ints of at most 63 bits besides the sign; -2**63 and numpy
        # integers are judged one by one
        ids_fit = max(map(int.bit_length, vn_of), default=0) < 64
    except TypeError:
        ids_fit = False
    if not ids_fit:
        for i, bus in enumerate(net.buses):
            if not _is_index(bus.id):
                bad.append(("buses", i, "id", "id must be an integer"))
            elif not -_INT64_LIMIT <= bus.id < _INT64_LIMIT:
                bad.append(("buses", i, "id", f"id {bus.id} is outside the 64-bit range"))

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

    for i, ln in enumerate(net.lines):
        from_ok = ln.from_bus in vn_of
        if not from_ok:
            unknown_bus("lines", i, "from_bus", ln.from_bus)
        to_ok = ln.to_bus in vn_of
        if not to_ok:
            unknown_bus("lines", i, "to_bus", ln.to_bus)
        if not ln.length_km > 0:
            bad.append(("lines", i, "length_km", "length_km > 0"))
        if ln.r_ohm_per_km < 0:
            bad.append(("lines", i, "r_ohm_per_km", "r_ohm_per_km >= 0"))
        if ln.x_ohm_per_km < 0:
            bad.append(("lines", i, "x_ohm_per_km", "x_ohm_per_km >= 0"))
        if ln.r_ohm_per_km == 0 and ln.x_ohm_per_km == 0:
            bad.append(("lines", i, "r_ohm_per_km", "r_ohm_per_km and x_ohm_per_km must not both be zero"))
        if ln.endtemp_degc < 20:
            bad.append(("lines", i, "endtemp_degc", "endtemp_degc >= 20"))
        if from_ok and to_ok and vn_of[ln.from_bus] != vn_of[ln.to_bus]:
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
        if isinstance(sw.other, int):
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

    if not net.external_grids:
        bad.append(("network", None, "external_grids", "at least one ExternalGrid is required for a solvable study"))

    return _violations(bad)


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
