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
    Transformer2W,
    calc_sc,
    generate_radial_grid,
)
from sccalc import solver
from sccalc.builder import build_bbm
from sccalc.solver import (
    converter_contribution,
    factorize,
    impedance_matrix_diag,
    total_current,
)

from netgen import random_network
from oracle import oracle_calc


def two_bus_y():
    # grid shunt z_q = j0.1 at bus 1, line z_l = j0.4
    y_q = 1.0 / 0.1j
    y_l = 1.0 / 0.4j
    return scipy.sparse.csc_matrix([[y_q + y_l, -y_l], [-y_l, y_l]])


# --- impedance matrix diagonal ----------------------------------------------

# a small factor takes unit solves; with the bound at 0 it takes the
# selected inversion
PATH_BOUNDS = {"unit solves": solver._UNIT_SOLVE_MAX_ENTRIES, "selected inversion": 0}


def test_diag_scalar_system(monkeypatch):
    y = scipy.sparse.csc_matrix([[1.0 / 0.1j]])
    for bound in PATH_BOUNDS.values():
        monkeypatch.setattr(solver, "_UNIT_SOLVE_MAX_ENTRIES", bound)
        z = impedance_matrix_diag(factorize(y))
        assert z[0] == pytest.approx(0.1j, rel=1e-12)


def test_diag_two_bus_hand_inversion(monkeypatch):
    for bound in PATH_BOUNDS.values():
        monkeypatch.setattr(solver, "_UNIT_SOLVE_MAX_ENTRIES", bound)
        z = impedance_matrix_diag(factorize(two_bus_y()))
        assert z[0] == pytest.approx(0.1j, rel=1e-12)
        assert z[1] == pytest.approx(0.5j, rel=1e-12)


def test_diag_row_subset(monkeypatch):
    y = two_bus_y()
    for bound in PATH_BOUNDS.values():
        monkeypatch.setattr(solver, "_UNIT_SOLVE_MAX_ENTRIES", bound)
        z = impedance_matrix_diag(factorize(y), rows=[1])
        assert z.shape == (1,)
        assert z[0] == pytest.approx(0.5j, rel=1e-12)


@pytest.mark.parametrize("layout", ["dense", "sparse"])
def test_diag_singular_island_raises(layout, monkeypatch):
    # two buses joined by a line but with no tie to the reference: either
    # the whole (fully populated) matrix, or beside a grounded bus in a
    # sparse matrix
    y_l = 1.0 / 0.4j
    island = [[y_l, -y_l], [-y_l, y_l]]
    if layout == "dense":
        y = scipy.sparse.csc_matrix(island)
    else:
        y = scipy.sparse.block_diag(([[1.0 / 0.1j]], island), format="csc")
    for bound in PATH_BOUNDS.values():
        monkeypatch.setattr(solver, "_UNIT_SOLVE_MAX_ENTRIES", bound)
        with pytest.raises(SingularMatrixError, match="numerically singular"):
            impedance_matrix_diag(factorize(y))


def test_diag_zero_pivot_falls_back_to_unit_solves(monkeypatch):
    # the symmetric ordering eliminates the zero diagonal first, so SuperLU
    # pivots off the diagonal and the factor is no longer L*D*L^T; with the
    # bound at 0 the pivots, not the size, send it to unit solves
    monkeypatch.setattr(solver, "_UNIT_SOLVE_MAX_ENTRIES", 0)
    y = scipy.sparse.csc_matrix(np.array([[1 - 1j, 2j], [2j, 0]]))
    lu = factorize(y)
    assert not np.array_equal(lu.perm_r, lu.perm_c)
    z = impedance_matrix_diag(lu)
    assert np.abs(z - np.diag(np.linalg.inv(y.toarray()))).max() < 1e-12
    assert impedance_matrix_diag(lu, rows=[1]) == pytest.approx(z[1:], abs=1e-12)


@pytest.mark.parametrize("level_sweep", [False, True], ids=["unit-solve anchors", "level sweep"])
def test_diag_entry_of_l_cancelled_to_zero_falls_back_to_unit_solves(monkeypatch, level_sweep):
    # the ordering eliminates the last bus (pivot 1) first; the update of
    # the entry between the other two, 2 - 2*1/1, is exactly 0 and SuperLU
    # drops it from L, so the first column (two entries below the diagonal)
    # needs a Z that lies off the stored pattern of L: the level rounds fall
    # back to unit solves, a unit solve of that column never reads it
    # the anchors' bound lies between n * k = 3 for the one branching column
    # and n * len(rows) = 6, so that the selected inversion runs
    monkeypatch.setattr(solver, "_UNIT_SOLVE_MAX_ENTRIES", 0 if level_sweep else 5)
    y = scipy.sparse.csc_matrix(np.array([[3, 2, 2], [2, 4, 1], [2, 1, 1]]) * (1 - 2j))
    lu = factorize(y)
    assert np.array_equal(lu.perm_r, lu.perm_c)
    assert lu.L.nnz == 5  # the unit diagonal and the first column's two entries
    z = impedance_matrix_diag(lu)
    assert np.abs(z / np.diag(np.linalg.inv(y.toarray())) - 1).max() < 1e-12
    assert impedance_matrix_diag(lu, rows=[2, 0]) == pytest.approx(z[[2, 0]], rel=1e-12)


def test_non_finite_solution_raises(monkeypatch):
    # a subnormal pivot factorizes, but its inverse overflows to inf
    lu = factorize(scipy.sparse.csc_matrix([[1e-320 + 0.0j]]))
    for bound in PATH_BOUNDS.values():
        monkeypatch.setattr(solver, "_UNIT_SOLVE_MAX_ENTRIES", bound)
        with pytest.raises(SingularMatrixError, match="numerically singular"):
            impedance_matrix_diag(lu)
    with pytest.raises(SingularMatrixError, match="numerically singular"):
        converter_contribution(lu, np.array([1.0]), np.array([1.0j]))


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
    for j in range(bbm.y_matrix.shape[0]):
        total = sum(z_full[j, m] * bbm.i_kc[m] for m in range(bbm.y_matrix.shape[0]))
        assert result[j] == pytest.approx(total / z_full[j, j], rel=1e-10)


# --- total current ---------------------------------------------------------------

def test_total_current_sums_component_magnitudes():
    source_ka, converter_ka, ikss_ka = total_current(
        np.array([-145.073j, -3.844j, -4.524j]),
        np.array([-0.181j, -0.208j, -0.117j]),
        np.array([1.0, 1.0, 1.0]),
    )
    assert [f"{v:.3f}" for v in ikss_ka] == ["145.254", "4.052", "4.641"]
    # exactness: the total is the sum of the reported component columns
    assert np.all(ikss_ka == source_ka + converter_ka)


def test_total_current_zero_converter_component():
    source_ka, converter_ka, ikss_ka = total_current(np.array([2.0j]), np.array([0.0j]), np.array([3.0]))
    assert ikss_ka[0] == source_ka[0] == 6.0
    assert converter_ka[0] == 0.0


def test_total_current_applies_current_base():
    source_ka, _, _ = total_current(np.array([4.0 + 3.0j]), np.array([0.0j]), np.array([0.5]))
    assert source_ka[0] == pytest.approx(2.5, rel=1e-12)


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


def test_calc_sc_reports_buses_row_for_row_like_the_oracle():
    # buses listed out of id order; an out-of-service bus, a dead island, a
    # degenerate fault location and a partial fault set
    net = Network(
        buses=[
            Bus(7, 20.0, "g"), Bus(3, 110.0, "a"), Bus(12, 20.0, "dead 1"), Bus(5, 20.0, "b"),
            Bus(1, 110.0, "stiff"), Bus(9, 20.0, "off", in_service=False), Bus(13, 20.0, "dead 2"),
            Bus(4, 0.4, "lv"),
        ],
        external_grids=[ExternalGrid(bus=3, s_sc_max_mva=2000.0, rx_max=0.1)]
        + [ExternalGrid(bus=1, s_sc_max_mva=5.5e11) for _ in range(5)],
        transformers2w=[
            Transformer2W(3, 5, sn_mva=40.0, vn_hv_kv=110.0, vn_lv_kv=20.0, vk_percent=12.0, vkr_percent=0.5),
            Transformer2W(5, 4, sn_mva=0.63, vn_hv_kv=20.0, vn_lv_kv=0.4, vk_percent=4.0, vkr_percent=1.0),
        ],
        lines=[Line(5, 7, 2.0, 0.2, 0.1), Line(7, 9, 1.0, 0.2, 0.1), Line(12, 13, 1.0, 0.2, 0.1)],
        converter_sources=[ConverterSource(bus=7, sn_mva=1.5, k=1.2)],
    )
    fault_buses = (13, 9, 1, 5, 7, 3, 4)
    result = calc_sc(net, FaultStudyOptions(fault_buses=fault_buses))
    reference = oracle_calc(net)
    by_id = {b.id: b for b in net.buses}
    expected = sorted(fault_buses)
    assert result.bus_ids.tolist() == expected
    assert result.energized.tolist() == [reference[b]["energized"] for b in expected]
    assert result.energized.tolist() == [True, True, True, True, True, False, False]
    assert result.vn_kv.tolist() == [by_id[b].vn_kv for b in expected]
    assert result.bus_names == tuple(by_id[b].name for b in expected)
    assert result.degenerate_buses == tuple(b for b in expected if math.isnan(reference[b]["total_ka"])) == (1,)
    for row, b in zip(result.rows(), expected):
        assert row["ikss_ka"] == pytest.approx(reference[b]["total_ka"], rel=1e-9, nan_ok=True)
        assert row["ikss_converter_ka"] == pytest.approx(reference[b]["converter_ka"], rel=1e-9, nan_ok=True)


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


class CountingLU:
    """A SuperLU factor that counts the right-hand-side columns it solves."""

    def __init__(self, lu):
        self._lu = lu
        self.columns = 0
        # the attributes of the factor that were read, such as "L"
        self.read = set()

    def solve(self, rhs, *args, **kwargs):
        self.columns += 1 if np.ndim(rhs) == 1 else np.shape(rhs)[1]
        return self._lu.solve(rhs, *args, **kwargs)

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._lu, name)


def test_calc_sc_makes_no_unit_vector_solves(monkeypatch):
    net = generate_radial_grid(4, 50, dg_every=5)
    factors = []
    real_splu = scipy.sparse.linalg.splu

    def counting_splu(*args, **kwargs):
        factors.append(CountingLU(real_splu(*args, **kwargs)))
        return factors[-1]

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    res = calc_sc(net)
    assert len(res.bus_ids) == len(net.buses)
    assert np.all(res.ikss_converter_ka > 0.0)
    assert sum(lu.columns for lu in factors) <= 1


@pytest.mark.parametrize(
    "seed, max_buses, loops, path",
    [(2, 60, 4, "unit solves"), (1, 120, 12, "unit-solve anchors"), (1, 800, 30, "level rounds")],
    ids=["below the bound", "anchors below the bound", "above the bound"],
)
def test_branching_columns_take_unit_solves_below_the_bound(seed, max_buses, loops, path):
    # n x len(rows) within the bound: every entry takes a unit solve and L
    # is never built; else n x k for the k branching columns: they take unit
    # solves as the anchors of the selected inversion, or the level rounds
    net = random_network(seed, max_buses=max_buses, loops=loops)
    y = build_bbm(net, FaultStudyOptions()).y_matrix
    n = y.shape[0]
    branching = np.count_nonzero(np.diff(factorize(y).L.indptr) > 2)
    assert branching > 10
    bound = solver._UNIT_SOLVE_MAX_ENTRIES
    assert path == ("unit solves" if n * n <= bound else "unit-solve anchors" if n * branching <= bound else "level rounds")
    lu = CountingLU(factorize(y))
    z = impedance_matrix_diag(lu)
    assert lu.columns == {"unit solves": n, "unit-solve anchors": branching, "level rounds": 0}[path]
    assert ("L" in lu.read) == (path != "unit solves")
    assert np.abs(z / np.diag(np.linalg.inv(y.toarray())) - 1).max() < 1e-10


def test_result_row_helper():
    rows = calc_sc(two_bus_grid()).rows()
    assert [r["bus_id"] for r in rows] == [1, 2]
    row = rows[1]
    assert calc_sc(two_bus_grid(), FaultStudyOptions(fault_buses=(2,))).rows() == [row]
    assert row["bus_id"] == 2
    assert row["name"] == "end"
    assert row["vn_kv"] == 110.0
    assert row["energized"] is True
    assert row["ikss_ka"] == pytest.approx(8.280448349104471, rel=1e-12)
