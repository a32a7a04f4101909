"""The validation rules stated element by element: the reference that
``sccalc.validate``, which names its violations from numpy masks over the
element tables, must agree with on every network.

``check_each(net)`` returns the same ``Violation`` list, in the same order,
as ``validate(net)``: first the type rules of the number fields and flags,
section by section and field by field, and nothing else when a number
field holds a non-number; then the buses, the ids of the buses, the
elements and switches, element by element, and the network.
"""
import math
import operator

from sccalc.model import FIELD_SPECS, SWITCHABLE_ELEMENT_KINDS, ElementRef, Network, Violation

# bus ids become numpy int64 columns in a study
INT64_LIMIT = 2**63

# section -> (its float fields, its bool flags)
TYPED_FIELDS = {
    section: ([name for name, typ, _, _ in specs if typ == "num"], [name for name, typ, _, _ in specs if typ == "bool"])
    for section, specs in FIELD_SPECS.items()
}
TYPED_FIELDS["switches"] = ([], ["closed"])

COLLECTION_OF = {"line": "lines", "trafo2w": "transformers2w", "trafo3w": "transformers3w"}


def element_terminals(net: Network, kind: str, index: int) -> tuple:
    """Bus ids an element of the given kind/index connects to."""
    if kind == "line":
        ln = net.lines[index]
        return (ln.from_bus, ln.to_bus)
    if kind == "trafo2w":
        t = net.transformers2w[index]
        return (t.hv_bus, t.lv_bus)
    t = net.transformers3w[index]
    return (t.hv_bus, t.mv_bus, t.lv_bus)


def number_rule(value, name: str) -> str:
    """The violated rule of one float field value, or "" when it holds."""
    try:
        return "" if math.isfinite(value) else f"{name} must be finite"
    except TypeError:
        return f"{name} must be a number"


def is_index(value) -> bool:
    """An integer as ``operator.index`` takes it: int, bool or numpy integer."""
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


def check_each(net: Network) -> list[Violation]:
    """``validate``, element by element."""
    # (section, element index, field, rule); the element labels are built
    # only for what is found, at the end
    bad: list[tuple[str, int | None, str, str]] = []
    for section, (floats, flags) in TYPED_FIELDS.items():
        elements = getattr(net, section)
        for name in floats:
            bad.extend(
                (section, i, name, rule)
                for i, el in enumerate(elements)
                if (rule := number_rule(getattr(el, name), name))
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
        return violations(bad)

    vn_of: dict = {}
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
        if not is_index(bus.id):
            bad.append(("buses", i, "id", "id must be an integer"))
        elif not -INT64_LIMIT <= bus.id < INT64_LIMIT:
            bad.append(("buses", i, "id", f"id {bus.id} is outside the 64-bit range"))

    checked = len(bad)
    try:
        check_elements(net, vn_of, bad)
    except TypeError:
        # an unhashable bus reference; judged again, it is an unknown bus
        del bad[checked:]
        check_elements(net, BusTable(vn_of), bad)

    if not net.external_grids:
        bad.append(("network", None, "external_grids", "at least one ExternalGrid is required for a solvable study"))

    return violations(bad)


class BusTable(dict):
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


def check_elements(net: Network, vn_of: dict, bad: list) -> None:
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
        if is_index(sw.other):
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
            elif not is_index(ref.index):
                bad.append(("switches", i, "other", "element index must be an integer"))
            else:
                n = len(getattr(net, COLLECTION_OF[ref.kind]))
                if not 0 <= ref.index < n:
                    bad.append(("switches", i, "other", f"{ref.kind}[{ref.index}] does not exist"))
                elif bus_ok and sw.bus not in element_terminals(net, ref.kind, ref.index):
                    bad.append(("switches", i, "bus", f"bus {sw.bus} is not a terminal of {ref.kind}[{ref.index}]"))


def violations(bad: list[tuple[str, int | None, str, str]]) -> list[Violation]:
    return [
        Violation(section if i is None else f"{section}[{i}]", fieldname, rule)
        for section, i, fieldname, rule in bad
    ]
