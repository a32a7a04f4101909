"""Tests for the typed read of the element tables from marshal records and
for the gather of the reported bus names."""
import copy
import decimal
import marshal
import math
import struct

import numpy as np
import pytest

from sccalc import FaultStudyOptions, calc_sc, generate_radial_grid, validate
from sccalc import model
from sccalc.model import _flag_column, _float_column, _Tables

from netgen import batch_grids, load_perfbench, random_network
from rules import check_each


def test_marshal_format_2_writes_the_records_the_read_takes():
    # a Python that changes format 2 fails here instead of quietly taking
    # the slow path of the read
    expected = b"[\x04\x00\x00\x00g" + struct.pack("<d", 1.5) + b"g" + struct.pack("<d", -0.0) + b"TF"
    assert marshal.dumps([1.5, -0.0, True, False], 2) == expected


def same_bits(column: np.ndarray, values: list) -> bool:
    """Whether ``column`` holds what ``np.fromiter`` makes of ``values``,
    bit for bit, so that NaN payloads and -0.0 count."""
    reference = np.fromiter(values, column.dtype, len(values))
    width = {8: np.uint64, 1: np.uint8}[column.dtype.itemsize]
    return column.dtype == reference.dtype and np.array_equal(column.view(width), reference.view(width))


def recorded_columns(monkeypatch) -> list:
    """Every (values, column) pair the read makes from here on."""
    seen = []
    for name in ("_float_column", "_flag_column"):
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
    assert len(seen) == 2 * len(nets)
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


@pytest.mark.parametrize("value,taken", FLOAT_FIELD_VALUES, ids=[type(v).__name__ for v, _ in FLOAT_FIELD_VALUES])
@pytest.mark.parametrize("field", [("lines", "length_km"), ("buses", "vn_kv"), ("external_grids", "rx_max")])
def test_another_type_in_a_float_field_is_routed_like_before(value, taken, field):
    section, name = field
    for seed in range(4):
        net = random_network(seed)
        setattr(getattr(net, section)[0], name, value)
        assert _Tables(net).ok is taken
        violations = validate(net)
        assert violations == check_each(net)
        if violations or section == "external_grids":
            # the external grid loop reads its element, in the value's type
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
