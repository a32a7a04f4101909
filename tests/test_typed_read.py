"""Tests for the typed read of the element tables from marshal records and
for the gather of the reported bus names."""
import copy
import dataclasses
import decimal
import enum
import marshal
import math
import struct

import numpy as np
import pytest

from sccalc import FaultStudyOptions, calc_sc, generate_radial_grid, validate
from sccalc import model
from sccalc.model import (
    FIELD_SPECS,
    SECTIONS,
    Bus,
    ConverterSource,
    ElementRef,
    ExternalGrid,
    Line,
    Network,
    Switch,
    Transformer2W,
    Transformer3W,
    _flag_column,
    _float_column,
    _int_column,
    _layout,
    _LAYOUT,
    _lists,
    _Tables,
)

from netgen import batch_grids, load_perfbench, random_network
from rules import check_each


def test_marshal_format_2_writes_the_records_the_read_takes():
    # a Python that changes format 2 fails here instead of quietly taking
    # the slow path of the read
    expected = b"[\x04\x00\x00\x00g" + struct.pack("<d", 1.5) + b"g" + struct.pack("<d", -0.0) + b"TF"
    assert marshal.dumps([1.5, -0.0, True, False], 2) == expected


def test_marshal_format_2_writes_the_int_records_the_read_takes():
    # ints in the int32 range are the tag "i" and 4 bytes, little-endian
    expected = b"[\x03\x00\x00\x00i\x01\x00\x00\x00i\x00\x00\x00\x80i\xff\xff\xff\x7f"
    assert marshal.dumps([1, -(2**31), 2**31 - 1], 2) == expected


def same_bits(column: np.ndarray, values: list) -> bool:
    """Whether ``column`` holds what ``np.fromiter`` makes of ``values``,
    bit for bit, so that NaN payloads and -0.0 count."""
    reference = np.fromiter(values, column.dtype, len(values))
    width = {8: np.uint64, 1: np.uint8}[column.dtype.itemsize]
    return column.dtype == reference.dtype and np.array_equal(column.view(width), reference.view(width))


def recorded_columns(monkeypatch) -> list:
    """Every (values, column) pair the read makes from here on."""
    seen = []
    for name in ("_int_column", "_float_column", "_flag_column"):
        real = getattr(model, name)

        def spy(values, real=real):
            column = real(values)
            seen.append((list(values), column))
            return column

        monkeypatch.setattr(model, name, spy)
    return seen


def perfbench_grids() -> list:
    grids = load_perfbench("grids")
    return [
        generate_radial_grid(4, 50, dg_every=5, seed=1),
        grids.meshed_grid(1, feeder_buses=6),
        *batch_grids(1, 40),
    ]


@pytest.mark.parametrize(
    "nets", [[random_network(seed) for seed in range(30)], perfbench_grids()], ids=["random", "perfbench"]
)
def test_the_read_columns_equal_those_of_fromiter(monkeypatch, nets):
    seen = recorded_columns(monkeypatch)
    for net in nets:
        assert _Tables(net).ok
    assert len(seen) == 3 * len(nets)
    for values, column in seen:
        assert same_bits(column, values)


NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_0123))[0]
NEGATIVE_NAN = struct.unpack("<d", struct.pack("<Q", 0xFFF8_0000_0000_0000))[0]


def test_special_floats_keep_their_bits():
    values = [math.nan, NAN_PAYLOAD, NEGATIVE_NAN, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, 1.5]
    column = _float_column(values)
    assert same_bits(column, values)
    assert column.flags.c_contiguous and column.flags.writeable


def test_a_mix_of_ints_and_floats_takes_fromiter():
    values = [1, 2.5, -(2**53), 0]
    assert same_bits(_float_column(values), values)


@pytest.mark.parametrize("values", [[True, False, True], [False], [True] * 9])
def test_flags_equal_fromiter(values):
    column = _flag_column(values)
    assert same_bits(column, values)
    assert column.flags.writeable


class Sub(float):
    pass


# a value of another type in a float field, and whether the read takes it:
# only exact ints join exact floats
FLOAT_FIELD_VALUES = [
    (2, True),
    (True, False),
    (np.float64(2.0), False),
    (np.float32(2.0), False),
    (Sub(2.0), False),
    (decimal.Decimal("2.0"), False),
    (None, False),
    ("1.0", False),
]


# a number field of each section the stamp reads, and four seeds whose
# networks study the first element of that section with the value 2.0 (a
# three-winding transformer is in only some networks, and 2.0 is a valid vk
# in only some)
STAMPED_FIELDS = [
    ("lines", "length_km", range(4)),
    ("buses", "vn_kv", range(4)),
    ("external_grids", "rx_max", range(4)),
    ("transformers2w", "vk_percent", (5, 6, 9, 10)),
    ("transformers3w", "sn_mv_mva", (3, 10, 19, 20)),
]


@pytest.mark.parametrize("value,taken", FLOAT_FIELD_VALUES, ids=[type(v).__name__ for v, _ in FLOAT_FIELD_VALUES])
@pytest.mark.parametrize("field", STAMPED_FIELDS)
def test_another_type_in_a_float_field_is_routed_like_before(value, taken, field):
    section, name, seeds = field
    for seed in seeds:
        net = random_network(seed)
        setattr(getattr(net, section)[0], name, value)
        assert _Tables(net).ok is taken
        violations = validate(net)
        assert violations == check_each(net)
        if violations:
            continue
        # a valid value of a field the stamp takes from the columns studies
        # like its float
        plain = copy.deepcopy(net)
        setattr(getattr(plain, section)[0], name, float(value))
        for case in ("max", "min"):
            a = calc_sc(net, FaultStudyOptions(case=case))
            b = calc_sc(plain, FaultStudyOptions(case=case))
            for column in ("ikss_source_ka", "ikss_converter_ka", "ikss_ka", "energized"):
                assert getattr(a, column).tobytes() == getattr(b, column).tobytes()


@pytest.mark.parametrize("value", [1, np.True_, None], ids=["int", "numpy_bool", "None"])
@pytest.mark.parametrize("section", ["buses", "lines", "external_grids"])
def test_another_type_in_a_flag_is_refused(value, section):
    net = random_network(3)
    getattr(net, section)[0].in_service = value
    assert not _Tables(net).ok
    violations = validate(net)
    assert violations == check_each(net)
    assert any(v.field == "in_service" for v in violations)


@pytest.mark.parametrize(
    "fault_buses", [(), "one", "subset", "descending"], ids=["none", "one", "subset", "descending"]
)
def test_bus_names_follow_ascending_id_order(fault_buses):
    net = random_network(7)
    name_of = {bus.id: f"bus {bus.id}" for bus in net.buses}
    for bus in net.buses:
        bus.name = name_of[bus.id]
    ids = sorted(name_of)
    wanted = {"one": (ids[len(ids) // 2],), "subset": tuple(ids[1::3]), "descending": tuple(ids[::-2])}.get(
        fault_buses, fault_buses
    )
    result = calc_sc(net, FaultStudyOptions(fault_buses=wanted))
    assert type(result.bus_names) is tuple
    assert result.bus_names == tuple(name_of[i] for i in sorted(wanted))
    assert result.bus_ids.tolist() == sorted(wanted)


def test_all_bus_names_follow_ascending_id_order():
    net = random_network(8)
    net.buses.reverse()
    result = calc_sc(net)
    names = {bus.id: bus.name for bus in net.buses}
    assert result.bus_names == tuple(names[i] for i in sorted(names))


@pytest.mark.parametrize(
    "values",
    [[1, -(2**31), 2**31 - 1], [0], [2**31, 5], [-(2**31) - 1], [2**63 - 1, -(2**63)], []],
    ids=["int32", "zero", "above_int32", "below_int32", "int64_ends", "empty"],
)
def test_int_column_equals_fromiter(values):
    column = _int_column(values)
    assert same_bits(column, values)
    assert column.flags.c_contiguous and column.flags.writeable


class Code(enum.IntEnum):
    ONE = 1


# a value of another type or range in an int field, the int it stands for
# (None for none) and whether the read takes it: exact ints only, numpy's
# fromiter those beyond the int32 records up to 64 bits
INT_FIELD_VALUES = [
    (True, 1, False),
    (np.int64(1), 1, False),
    (np.int32(1), 1, False),
    (Code.ONE, 1, False),
    (2**31, 2**31, True),
    (-(2**31) - 1, -(2**31) - 1, True),
    (2**63, 2**63, False),
    (2**80, 2**80, False),
    (1.0, 1, False),
    (None, None, False),
]


def swap_ids(net, a: int, b: int) -> None:
    """Swap the bus ids ``a`` and ``b`` everywhere, references included."""
    swapped = {a: b, b: a}
    for section, specs in FIELD_SPECS.items():
        for element in getattr(net, section):
            for name, typ, _, _ in specs:
                if typ == "int":
                    setattr(element, name, swapped.get(getattr(element, name), getattr(element, name)))
    for sw in net.switches:
        sw.bus = swapped.get(sw.bus, sw.bus)
        if not isinstance(sw.other, ElementRef):
            sw.other = swapped.get(sw.other, sw.other)


def bus_id(net, value, k):
    if k is not None:
        swap_ids(net, net.buses[0].id, k)
    net.buses[0].id = value


def from_bus(net, value, k):
    if k is not None:
        swap_ids(net, net.lines[0].from_bus, k)
    net.lines[0].from_bus = value


def tie_end(net, value, k):
    tie = next(sw for sw in net.switches if not isinstance(sw.other, ElementRef))
    if k is not None:
        swap_ids(net, tie.other, k)
    tie.other = value


def element_index(net, value, k):
    # (the switch moves to a terminal of the line, where that line exists)
    cut = next(sw for sw in net.switches if isinstance(sw.other, ElementRef))
    cut.other = ElementRef("line", value)
    if k is not None and 0 <= k < len(net.lines):
        cut.bus = net.lines[k].from_bus


@pytest.mark.parametrize("value,k,taken", INT_FIELD_VALUES, ids=[repr(v) for v, _, _ in INT_FIELD_VALUES])
@pytest.mark.parametrize("put", [bus_id, from_bus, tie_end, element_index])
def test_another_type_or_range_in_an_int_field_is_routed_like_before(put, value, k, taken):
    # a network with both kinds of switch
    net = random_network(5)
    put(net, value, k)
    violations = validate(net)
    assert violations == check_each(net)
    assert _Tables(net).ok is (taken and not violations)
    if violations:
        return
    # a valid value studies like its int
    plain = copy.deepcopy(net)
    put(plain, k, None)
    for case in ("max", "min"):
        a = calc_sc(net, FaultStudyOptions(case=case))
        b = calc_sc(plain, FaultStudyOptions(case=case))
        for column in ("bus_ids", "ikss_source_ka", "ikss_converter_ka", "ikss_ka", "energized"):
            assert getattr(a, column).tobytes() == getattr(b, column).tobytes()
        assert a.bus_names == b.bus_names


class Name(str):
    pass


@pytest.mark.parametrize("name", [Name("sub"), None, b"x"], ids=["str_subclass", "None", "bytes"])
def test_names_of_another_type_are_judged_like_before(name):
    net = random_network(5)
    net.buses[3].name = name
    violations = validate(net)
    assert violations == check_each(net)
    if not isinstance(name, str):
        assert not _Tables(net).ok
        assert [(v.element, v.rule) for v in violations] == [("buses[3]", "name must be a string")]
        return
    # a str subclass joins the names, as validate takes it, and is reported
    # as it was given
    assert _Tables(net).ok and not violations
    result = calc_sc(net)
    assert any(type(n) is Name and n == "sub" for n in result.bus_names)
    plain = copy.deepcopy(net)
    plain.buses[3].name = "sub"
    assert calc_sc(plain).ikss_ka.tobytes() == result.ikss_ka.tobytes()


def every_section_network() -> Network:
    """Two elements of every section and both kinds of switch, interleaved
    in ``switches``; the layout does not need a valid network."""
    return Network(
        buses=[Bus(1, 20.0), Bus(2, 20.0), Bus(3, 0.4)],
        external_grids=[ExternalGrid(1, 500.0), ExternalGrid(2, 400.0)],
        lines=[Line(1, 2, 1.0, 0.1, 0.2), Line(2, 3, 2.0, 0.1, 0.2)],
        transformers2w=[Transformer2W(2, 3, 0.63, 20.0, 0.4, 6.0), Transformer2W(1, 3, 0.4, 20.0, 0.4, 4.0)],
        transformers3w=[Transformer3W(1, 2, 3, *[10.0] * 3, 20.0, 20.0, 0.4, *[8.0] * 3)] * 2,
        converter_sources=[ConverterSource(2, 1.0, 1.2), ConverterSource(3, 0.5, 1.1)],
        switches=[
            Switch(1, 2), Switch(2, ElementRef("line", 0)), Switch(2, 3, False),
            Switch(3, ElementRef("trafo3w", 1), False), Switch(3, ElementRef("trafo2w", 0)),
        ],
    )


LAYOUT_NETWORKS = [*(random_network(seed) for seed in range(21)), every_section_network()]


def stand_in(net: Network) -> Network:
    """A stand-in of ``net`` whose every field holds its own label,
    (section, index, field): its read lays the labels out as the values."""
    stand = Network()
    for section, cls in (*SECTIONS.items(), ("switches", Switch)):
        fields = [f.name for f in dataclasses.fields(cls)]
        stand_ins = [cls(*[(section, i, name) for name in fields]) for i in range(len(getattr(net, section)))]
        setattr(stand, section, stand_ins)
    for sw, real in zip(stand.switches, net.switches):
        if isinstance(real.other, ElementRef):
            sw.other = ElementRef(sw.other, sw.other)
    return stand


def block_labels(net: Network, section: str, fields: str) -> list:
    """The labels a block of ``section`` with ``fields`` holds, element by
    element; a bus-bus switch (tie) or a bus-element switch (cut) has its
    index in ``net.switches``."""
    if section in ("ties", "cuts"):
        cut = section == "cuts"
        at = [("switches", i) for i, sw in enumerate(net.switches) if isinstance(sw.other, ElementRef) is cut]
    else:
        at = [(section, i) for i in range(len(getattr(net, section)))]
    return [(*element, field) for element in at for field in fields.split()]


@pytest.mark.parametrize("net", LAYOUT_NETWORKS)
def test_the_named_blocks_tile_each_list(net):
    sizes, *lists, _, _ = _lists(net)
    at = _layout(sizes)
    for (kind, blocks), values in zip(_LAYOUT.items(), lists):
        stop = 0
        for name, _, _ in blocks:
            assert at[name].start == stop, f"{kind} block {name} starts at {at[name].start}, not at {stop}"
            stop = at[name].stop
        assert stop == len(values), f"the {kind} blocks end with {name} at {stop}, the list at {len(values)}"
    assert len({name for blocks in _LAYOUT.values() for name, _, _ in blocks}) == sum(map(len, _LAYOUT.values()))


@pytest.mark.parametrize("net", LAYOUT_NETWORKS)
def test_each_block_holds_the_labels_of_its_fields(net):
    _, *lists, _, _ = _lists(stand_in(net))
    at = _layout(_lists(net)[0])
    for (kind, blocks), labels in zip(_LAYOUT.items(), lists):
        for name, section, fields in blocks:
            assert labels[at[name]] == block_labels(net, section, fields), f"{kind} block {name}"
    # the violations are named by the labels the layout gives
    assert list(model._labels(net, _lists(net)[0]).values()) == lists
