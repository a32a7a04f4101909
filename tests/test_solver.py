"""Tests for the short-circuit solver operations and the study orchestration."""
import math

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from sccalc import (
    Bus,
    ConverterSource,
    ExternalGrid,
    FaultStudyOptions,
    InvalidOptionError,
    Line,
    Network,
    SingularMatrixError,
    calc_sc,
)
from sccalc.builder import build_bbm
from sccalc.solver import (
    converter_contribution,
    factorize,
    impedance_matrix_diag,
    total_current,
    voltage_source_currents,
)

from netgen import random_network


def two_bus_y():
    # grid shunt z_q = j0.1 at bus 1, line z_l = j0.4
    y_q = 1.0 / 0.1j
    y_l = 1.0 / 0.4j
    return scipy.sparse.csc_matrix([[y_q + y_l, -y_l], [-y_l, y_l]])


# --- impedance matrix diagonal ----------------------------------------------

def test_diag_scalar_system():
    y = scipy.sparse.csc_matrix([[1.0 / 0.1j]])
    z = impedance_matrix_diag(factorize(y))
    assert z[0] == pytest.approx(0.1j, rel=1e-12)


def test_diag_two_bus_hand_inversion():
    z = impedance_matrix_diag(factorize(two_bus_y()))
    assert z[0] == pytest.approx(0.1j, rel=1e-12)
    assert z[1] == pytest.approx(0.5j, rel=1e-12)


def test_diag_row_subset():
    y = two_bus_y()
    z = impedance_matrix_diag(factorize(y), rows=[1])
    assert z.shape == (1,)
    assert z[0] == pytest.approx(0.5j, rel=1e-12)


@pytest.mark.parametrize("layout", ["dense", "sparse"])
def test_diag_singular_island_raises(layout):
    # two buses joined by a line but with no tie to the reference: either
    # the whole (fully populated) matrix, or beside a grounded bus in a
    # sparse matrix
    y_l = 1.0 / 0.4j
    island = [[y_l, -y_l], [-y_l, y_l]]
    if layout == "dense":
        y = scipy.sparse.csc_matrix(island)
    else:
        y = scipy.sparse.block_diag(([[1.0 / 0.1j]], island), format="csc")
    with pytest.raises(SingularMatrixError, match="numerically singular"):
        impedance_matrix_diag(factorize(y))


def test_non_finite_solution_raises():
    # a subnormal pivot factorizes, but its inverse overflows to inf
    lu = factorize(scipy.sparse.csc_matrix([[1e-320 + 0.0j]]))
    with pytest.raises(SingularMatrixError, match="numerically singular"):
        impedance_matrix_diag(lu)
    with pytest.raises(SingularMatrixError, match="numerically singular"):
        converter_contribution(lu, np.array([1.0]), np.array([1.0j]))


# --- voltage source currents --------------------------------------------------

def test_voltage_source_current_scalar():
    i = voltage_source_currents(np.array([0.5j]), np.array([1.1]))
    assert abs(i[0]) == pytest.approx(2.2, rel=1e-12)


def test_voltage_source_currents_two_bus():
    z = impedance_matrix_diag(factorize(two_bus_y()))
    i = voltage_source_currents(z, np.array([1.1, 1.1]))
    assert np.abs(i) == pytest.approx([11.0, 2.2], rel=1e-12)


def test_voltage_source_currents_scale_inversely_with_impedance():
    z = impedance_matrix_diag(factorize(two_bus_y()))
    i1 = np.abs(voltage_source_currents(z, np.array([1.1, 1.1])))
    i2 = np.abs(voltage_source_currents(2.0 * z, np.array([1.1, 1.1])))
    assert i2 == pytest.approx(0.5 * i1, rel=1e-12)


# --- converter contribution ----------------------------------------------------

def test_converter_contribution_zero_injection_is_exactly_zero():
    lu = factorize(two_bus_y())
    z = impedance_matrix_diag(lu)
    i = converter_contribution(lu, z, np.zeros(2, dtype=complex))
    assert np.all(i == 0.0)


def test_converter_contribution_single_bus_cancellation():
    lu = factorize(scipy.sparse.csc_matrix([[1.0 / 0.25j]]))
    z = impedance_matrix_diag(lu)
    i_kc = np.array([-5.0j])
    i = converter_contribution(lu, z, i_kc)
    assert i[0] == pytest.approx(-5.0j, rel=1e-12)


def test_converter_contribution_matches_dense_summation():
    net = random_network(11, max_buses=6, with_switches=False, with_outages=False)
    net.converter_sources.append(ConverterSource(bus=net.buses[-1].id, sn_mva=3.0, k=1.1))
    bbm = build_bbm(net, FaultStudyOptions())
    lu = factorize(bbm.y_matrix)
    z_diag = impedance_matrix_diag(lu)
    result = converter_contribution(lu, z_diag, bbm.i_kc)
    z_full = np.linalg.inv(bbm.y_matrix.toarray())
    for j in range(bbm.n):
        total = sum(z_full[j, m] * bbm.i_kc[m] for m in range(bbm.n))
        assert result[j] == pytest.approx(total / z_full[j, j], rel=1e-10)


# --- total current ---------------------------------------------------------------

def test_total_current_sums_component_magnitudes():
    res = total_current(
        np.array([-145.073j, -3.844j, -4.524j]),
        np.array([-0.181j, -0.208j, -0.117j]),
        np.array([1.0, 1.0, 1.0]),
    )
    assert [f"{v:.3f}" for v in res.ikss_ka] == ["145.254", "4.052", "4.641"]
    # exactness: the total is the sum of the reported component columns
    assert np.all(res.ikss_ka == res.ikss_source_ka + res.ikss_converter_ka)


def test_total_current_zero_converter_component():
    res = total_current(np.array([2.0j]), np.array([0.0j]), np.array([3.0]))
    assert res.ikss_ka[0] == res.ikss_source_ka[0] == 6.0
    assert res.ikss_converter_ka[0] == 0.0


def test_total_current_applies_current_base():
    res = total_current(np.array([4.0 + 3.0j]), np.array([0.0j]), np.array([0.5]))
    assert res.ikss_source_ka[0] == pytest.approx(2.5, rel=1e-12)


# --- calc_sc ---------------------------------------------------------------------

def two_bus_grid() -> Network:
    return Network(
        buses=[Bus(1, 110.0, "feed"), Bus(2, 110.0, "end")],
        external_grids=[ExternalGrid(bus=1, s_sc_max_mva=3000.0)],
        lines=[Line(1, 2, length_km=10.0, r_ohm_per_km=0.0, x_ohm_per_km=0.4)],
    )


def test_calc_sc_two_bus_hand_values():
    res = calc_sc(two_bus_grid(), FaultStudyOptions(case="max"))
    assert res.ikss_ka[0] == pytest.approx(15.74591643244434, rel=1e-12)
    assert res.ikss_ka[1] == pytest.approx(8.280448349104471, rel=1e-12)
    assert list(res.bus_ids) == [1, 2]
    assert res.options.case == "max"
    assert np.all(res.energized)


def test_calc_sc_single_fault_bus_matches_all_bus_run():
    net = two_bus_grid()
    full = calc_sc(net, FaultStudyOptions())
    single = calc_sc(net, FaultStudyOptions(fault_buses=(2,)))
    assert list(single.bus_ids) == [2]
    assert single.ikss_ka[0] == pytest.approx(full.ikss_ka[1], rel=1e-12)


def test_calc_sc_unknown_fault_bus():
    with pytest.raises(InvalidOptionError, match="7"):
        calc_sc(two_bus_grid(), FaultStudyOptions(fault_buses=(7,)))


def test_calc_sc_rows_follow_ascending_bus_id():
    net = two_bus_grid()
    res = calc_sc(net, FaultStudyOptions(fault_buses=(2, 1)))
    assert list(res.bus_ids) == [1, 2]


def test_calc_sc_disabled_converters_equal_deleted_converters():
    net = random_network(5, with_switches=False, with_outages=False)
    net.converter_sources.append(ConverterSource(bus=net.buses[0].id, sn_mva=2.0, k=1.2))
    stripped = random_network(5, with_switches=False, with_outages=False)
    stripped.converter_sources.append(ConverterSource(bus=stripped.buses[0].id, sn_mva=2.0, k=1.2))
    stripped.converter_sources.clear()
    res_flag = calc_sc(net, FaultStudyOptions(consider_converters=False))
    res_none = calc_sc(stripped, FaultStudyOptions())
    assert np.array_equal(res_flag.ikss_ka, res_none.ikss_ka)
    assert np.all(res_flag.ikss_converter_ka == 0.0)


def test_calc_sc_dead_island_is_marked_not_failed():
    net = two_bus_grid()
    net.lines[0].in_service = False
    res = calc_sc(net)
    assert bool(res.energized[0]) is True
    assert bool(res.energized[1]) is False
    assert res.ikss_ka[1] == 0.0


def test_calc_sc_out_of_service_bus_row():
    net = two_bus_grid()
    net.buses[1].in_service = False
    res = calc_sc(net)
    assert bool(res.energized[1]) is False


def test_calc_sc_degenerate_fault_location_gets_nan_marker():
    # many stiff grids in parallel push |Z_ii| below the degeneracy threshold
    net = Network(buses=[Bus(1, 110.0)])
    for _ in range(5):
        net.external_grids.append(ExternalGrid(bus=1, s_sc_max_mva=5.5e11))
    res = calc_sc(net)
    assert res.degenerate_buses == (1,)
    assert math.isnan(res.ikss_ka[0])
    assert bool(res.energized[0]) is True


def test_calc_sc_factorizes_sparse_y_once(monkeypatch):
    net = two_bus_grid()
    net.converter_sources.append(ConverterSource(bus=2, sn_mva=5.0, k=1.2))
    assert scipy.sparse.issparse(build_bbm(net, FaultStudyOptions()).y_matrix)
    calls = []
    real_splu = scipy.sparse.linalg.splu

    def counting_splu(*args, **kwargs):
        calls.append(args[0])
        return real_splu(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    res = calc_sc(net)
    assert len(calls) == 1
    assert scipy.sparse.issparse(calls[0])
    assert np.all(res.ikss_converter_ka > 0.0)


def test_result_row_helper():
    res = calc_sc(two_bus_grid())
    row = res.row(2)
    assert row["bus_id"] == 2
    assert row["name"] == "end"
    assert row["vn_kv"] == 110.0
    assert row["energized"] is True
    assert row["ikss_ka"] == pytest.approx(8.280448349104471, rel=1e-12)
