"""Property suite for the builder and solver invariants.

Network-level properties run over seeded random networks; scalar operations
use hypothesis. Two properties carry scope notes established during
development: the max/min case ordering including converter contributions is
checked on radially operated grids (on meshed grids a larger minimum-case
impedance can divert a converter's current into a remote fault strongly
enough to outweigh the smaller source component), and without converters it
is checked on arbitrary networks up to floating-point ties.
"""
import copy
import math
import random

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from sccalc import (
    Bus,
    ConverterSource,
    ExternalGrid,
    FaultStudyOptions,
    Line,
    Network,
    Transformer3W,
    calc_sc,
    generate_radial_grid,
    validate,
)
from sccalc import solver
from sccalc.builder import BusBranchModel, build_bbm, voltage_correction_factor
from sccalc.solver import converter_contribution, factorize, impedance_matrix_diag

from busmap import by_bus_id, fusion
from netgen import batch_grids, load_perfbench, random_network
from oracle import line_impedance, oracle_admittance, oracle_calc

RESULT_COLUMNS = ("ikss_source_ka", "ikss_converter_ka", "ikss_ka")


def rel_diff(a, b):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-30)


# --- grid_model properties ------------------------------------------------

@pytest.mark.parametrize("seed", range(30))
def test_validated_networks_build_without_input_errors(seed):
    net = random_network(seed)
    assert validate(net) == []
    bbm = build_bbm(net, FaultStudyOptions())
    assert isinstance(bbm, BusBranchModel)


# --- network_builder properties --------------------------------------------

@pytest.mark.parametrize("seed", range(30))
@pytest.mark.parametrize("case", ["max", "min"])
def test_y_matrix_is_exactly_symmetric(seed, case):
    bbm = build_bbm(random_network(seed), FaultStudyOptions(case=case))
    assert np.max(np.abs(bbm.y_matrix - bbm.y_matrix.T)) == 0.0


@pytest.mark.parametrize("seed", range(12))
def test_results_invariant_under_power_base(seed):
    net = random_network(seed)
    reference = calc_sc(net, FaultStudyOptions(s_base_mva=1.0))
    for s_base in (10.0, 100.0):
        other = calc_sc(net, FaultStudyOptions(s_base_mva=s_base))
        assert np.array_equal(reference.energized, other.energized)
        for column in RESULT_COLUMNS:
            assert np.all(rel_diff(getattr(reference, column), getattr(other, column)) < 1e-9)


@settings(max_examples=200)
@given(
    vn_kv=st.floats(min_value=0.01, max_value=500.0, allow_nan=False),
    tolerance=st.sampled_from([6, 10]),
)
def test_c_factor_max_dominates_min(vn_kv, tolerance):
    c_max = voltage_correction_factor(vn_kv, tolerance, "max")
    c_min = voltage_correction_factor(vn_kv, tolerance, "min")
    assert c_max >= c_min


@settings(max_examples=200)
@given(
    r=st.floats(min_value=1e-3, max_value=2.0),
    x=st.floats(min_value=0.0, max_value=2.0),
    length=st.floats(min_value=0.01, max_value=100.0),
    temp_a=st.floats(min_value=20.0, max_value=300.0),
    temp_b=st.floats(min_value=20.0, max_value=300.0),
)
def test_min_case_line_resistance_monotone_in_end_temperature(r, x, length, temp_a, temp_b):
    lo, hi = sorted((temp_a, temp_b))
    def res(temp, case):
        return line_impedance(
            Line(1, 2, length_km=length, r_ohm_per_km=r, x_ohm_per_km=x, endtemp_degc=temp), case
        ).real
    assert res(hi, "min") >= res(lo, "min")
    assert res(20.0, "min") == res(20.0, "max")


@settings(max_examples=150)
@given(
    vk=st.tuples(
        st.floats(min_value=0.5, max_value=25.0),
        st.floats(min_value=0.5, max_value=25.0),
        st.floats(min_value=0.5, max_value=25.0),
    ),
    vkr_frac=st.tuples(
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=0.0, max_value=0.5),
    ),
    sn=st.tuples(
        st.floats(min_value=1.0, max_value=100.0),
        st.floats(min_value=1.0, max_value=100.0),
        st.floats(min_value=1.0, max_value=100.0),
    ),
    tolerance=st.sampled_from([6, 10]),
)
def test_star_reproduces_corrected_pairwise_impedances(vk, vkr_frac, sn, tolerance):
    t = Transformer3W(
        hv_bus=1, mv_bus=2, lv_bus=3,
        sn_hv_mva=sn[0], sn_mv_mva=sn[1], sn_lv_mva=sn[2],
        vn_hv_kv=110.0, vn_mv_kv=20.0, vn_lv_kv=0.4,
        vk_hm_percent=vk[0], vk_ml_percent=vk[1], vk_hl_percent=vk[2],
        vkr_hm_percent=vk[0] * vkr_frac[0],
        vkr_ml_percent=vk[1] * vkr_frac[1],
        vkr_hl_percent=vk[2] * vkr_frac[2],
    )
    # the star branches as stamped, on buses at the rated voltages: each
    # winding's branch to the star point (row 3) stamps -y there
    net = Network(
        buses=[Bus(1, 110.0), Bus(2, 20.0), Bus(3, 0.4)],
        external_grids=[ExternalGrid(bus=1, s_sc_max_mva=3000.0)],
        transformers3w=[t],
    )
    y = build_bbm(net, FaultStudyOptions(lv_tolerance_percent=tolerance)).y_matrix.toarray()
    z_h, z_m, z_l = (-1.0 / y[w, 3] for w in range(3))
    c_max_lv = voltage_correction_factor(0.4, tolerance, "max")

    def corrected(vk_p, vkr_p, sn_a, sn_b):
        r = vkr_p / 100.0
        x = math.sqrt(vk_p**2 - vkr_p**2) / 100.0
        return 0.95 * c_max_lv / (1.0 + 0.6 * x) * complex(r, x) / min(sn_a, sn_b)

    pairs = [
        (z_h + z_m, corrected(t.vk_hm_percent, t.vkr_hm_percent, sn[0], sn[1])),
        (z_m + z_l, corrected(t.vk_ml_percent, t.vkr_ml_percent, sn[1], sn[2])),
        (z_h + z_l, corrected(t.vk_hl_percent, t.vkr_hl_percent, sn[0], sn[2])),
    ]
    for seen, expected in pairs:
        assert abs(seen - expected) <= 1e-10 * abs(expected)


@pytest.mark.parametrize("seed", range(15))
def test_switch_fusion_is_order_independent(seed):
    net = random_network(seed)
    reference = fusion(net)
    rng = random.Random(seed * 31 + 1)
    for _ in range(5):
        rng.shuffle(net.switches)
        fused = fusion(net)
        assert by_bus_id(net, fused.node) == by_bus_id(net, reference.node)
        assert all(np.array_equal(fused.live[kind], reference.live[kind]) for kind in reference.live)
        assert np.array_equal(fused.windings, reference.windings)


# --- sc_solver properties -----------------------------------------------------

@pytest.mark.parametrize("seed", range(12))
def test_all_bus_study_equals_independent_single_bus_studies(seed):
    net = random_network(seed)
    full = calc_sc(net)
    by_bus = {int(b): i for i, b in enumerate(full.bus_ids)}
    for bus in net.buses:
        single = calc_sc(net, FaultStudyOptions(fault_buses=(bus.id,)))
        i = by_bus[bus.id]
        for column in RESULT_COLUMNS:
            a = getattr(full, column)[i]
            b = getattr(single, column)[0]
            assert rel_diff(np.array([a]), np.array([b]))[0] < 1e-10


# the first four seeds whose 800-bus draw, meshed by 30 extra loops, keeps a
# Y of more than 500 rows after fusion and islanding and has at least ten 3W
# transformers
MESHED_3W_SEEDS = (1, 22, 42, 62)


def below_diagonal_entries(lu) -> np.ndarray:
    """Entries below the diagonal in each column of the factor L: one makes
    a tree column, none a root."""
    return np.diff(lu.L.indptr) - 1


def unit_solve_diag(n: int, solve) -> np.ndarray:
    """diag(inv(Y)) from ``solve`` on the unit vectors, 512 at a time."""
    out = np.empty(n, dtype=complex)
    for start in range(0, n, 512):
        cols = np.arange(start, min(n, start + 512))
        rhs = np.zeros((n, len(cols)), dtype=complex)
        rhs[cols, cols - start] = 1.0
        out[cols] = solve(rhs)[cols, cols - start]
    return out


def assert_matches_dense_inverse(z, y):
    # Against a different factorization, float64 resolves Z_ii only to about
    # eps times its componentwise condition number (|Z| |Y| |Z|)_ii / |Z_ii|.
    # That is below 1e-10 except where a low-impedance cluster sits behind a
    # high impedance (seed 22: a 110 kV cluster with |Y_ii| ~ 4e4 and
    # |Z_ii| ~ 30, condition ~ 3e7, where the dense inverse itself is 3e-10
    # off an extended-precision reference).
    dense = np.linalg.inv(y.toarray())
    z_dense = np.diag(dense)
    abs_z = np.abs(dense)
    condition = np.einsum("ij,ji->i", abs_z, abs(y) @ abs_z) / np.abs(z_dense)
    tolerance = np.maximum(1e-10, 4 * np.finfo(float).eps * condition)
    assert np.all(rel_diff(z, z_dense) < tolerance)


@pytest.mark.parametrize("seed", MESHED_3W_SEEDS)
@pytest.mark.parametrize("case", ["max", "min"])
def test_selected_inversion_matches_unit_solves_and_inverse_on_large_meshed_grids(seed, case):
    net = random_network(seed, max_buses=800, loops=30)
    bbm = build_bbm(net, FaultStudyOptions(case=case))
    y = bbm.y_matrix
    n = y.shape[0]
    assert len(net.transformers3w) >= 10 and bbm.n_aux >= 10 and n > 500
    lu = factorize(y)
    assert np.array_equal(lu.perm_r, lu.perm_c)  # no fallback to unit solves
    # both kinds of column: the tree recurrence and the sweep
    entries = below_diagonal_entries(lu)
    assert np.any(entries == 1) and np.any(entries > 1)
    z = impedance_matrix_diag(lu)
    assert np.max(rel_diff(z, lu.solve(np.eye(n, dtype=complex)).diagonal())) < 1e-10
    assert_matches_dense_inverse(z, y)
    rows = np.arange(n)[::-3]
    assert np.array_equal(impedance_matrix_diag(lu, rows=rows), z[rows])


def factor_check_grids() -> dict:
    """The grids of the ``radial_dg`` and ``meshed_3w`` workloads at scale
    0.1, seed 1, and the four 800-bus grids meshed by 30 extra loops."""
    nets = {
        "radial_dg": generate_radial_grid(4, 75, dg_every=5, seed=1),
        "meshed_3w": load_perfbench("grids").meshed_grid(1, feeder_buses=6),
    }
    nets.update({f"loops-{seed}": random_network(seed, max_buses=800, loops=30) for seed in MESHED_3W_SEEDS})
    return nets


FACTOR_CHECK_GRIDS = factor_check_grids()


@pytest.mark.parametrize("case", ["max", "min"])
@pytest.mark.parametrize("name", sorted(FACTOR_CHECK_GRIDS))
def test_factor_reproduces_y_with_the_default_ordering_and_pattern(name, case):
    y = build_bbm(FACTOR_CHECK_GRIDS[name], FaultStudyOptions(case=case)).y_matrix
    n = y.shape[0]
    lu = factorize(y)
    # Pr @ Y @ Pc = L @ U, with the permutations as scipy's SuperLU docs
    # build them
    ones = np.ones(n)
    pr = scipy.sparse.csc_matrix((ones, (lu.perm_r, np.arange(n))))
    pc = scipy.sparse.csc_matrix((ones, (np.arange(n), lu.perm_c)))
    residual = scipy.sparse.linalg.norm(pr @ y @ pc - lu.L @ lu.U) / scipy.sparse.linalg.norm(y)
    assert residual <= 1e-13
    # the supernode settings leave the ordering and the pattern of L as a
    # default-parameter factor has them, so the selected inversion sees the
    # same elimination tree and branching columns
    default = scipy.sparse.linalg.splu(
        y, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True}
    )
    assert np.array_equal(lu.perm_c, default.perm_c)
    assert np.array_equal(np.diff(lu.L.indptr), np.diff(default.L.indptr))


def test_selected_inversion_on_a_deep_chain():
    # one 4000-bus feeder: the minimum-degree ordering eliminates it from
    # both ends, so every column but the root is a tree column and the
    # chains are 2001 deep: 11 rounds of pointer jumping
    y = build_bbm(generate_radial_grid(1, 4000), FaultStudyOptions()).y_matrix
    n = y.shape[0]
    lu = factorize(y)
    assert np.array_equal(lu.perm_r, lu.perm_c)
    entries = below_diagonal_entries(lu)
    assert np.count_nonzero(entries == 1) == n - 1 and entries[-1] == 0
    l_factor = lu.L
    l_factor.sort_indices()
    parent = l_factor.indices[l_factor.indptr[:-2] + 1]
    depth = np.zeros(n, dtype=int)
    for i in range(n - 2, -1, -1):
        depth[i] = depth[parent[i]] + 1
    assert depth.max() > 2**10
    z = impedance_matrix_diag(lu)
    assert np.max(rel_diff(z, unit_solve_diag(n, lu.solve))) < 1e-10
    # a feeder in bus order is tridiagonal; LAPACK's banded LU is a
    # different factorization, at the 1e-10 floor of the dense-inverse bound
    # (a dense 4002 x 4002 inverse would take 256 MB)
    assert y.nnz == 3 * n - 2
    bands = np.zeros((3, n), dtype=complex)
    bands[0, 1:], bands[1], bands[2, :-1] = y.diagonal(1), y.diagonal(), y.diagonal(-1)
    z_banded = unit_solve_diag(n, lambda rhs: scipy.linalg.solve_banded((1, 1), bands, rhs))
    assert np.max(rel_diff(z, z_banded)) < 1e-10


def branching_levels(lu) -> int:
    """The deepest level of a column with two or more entries below the
    diagonal: one more than the deepest among the anchors of its rows, where
    a row's anchor is the row itself unless it is a tree column (one entry),
    then its parent's anchor; roots are at level 0."""
    l_factor = lu.L
    l_factor.sort_indices()
    n = l_factor.shape[0]
    anchor = list(range(n))
    level = [0] * n
    for i in range(n - 1, -1, -1):
        rows = l_factor.indices[l_factor.indptr[i] + 1 : l_factor.indptr[i + 1]].tolist()
        if len(rows) == 1:
            anchor[i] = anchor[rows[0]]
        elif rows:
            level[i] = 1 + max(level[anchor[j]] for j in rows)
    return max(level)


def takahashi_diag(lu) -> np.ndarray:
    """diag(Z) of P*Y*P^T = L*D*L^T, in the permuted order, by Takahashi's
    sweep over every column of L, last column first, in plain Python: with J
    the rows below the diagonal of column i and l their values,
    Z_ji = -sum_{k in J} l_k Z_kj for j in J and Z_ii = 1/d_i - sum_j l_j Z_ji.
    Z is kept on the pattern of L, one dict per column; Z_kj with k < j both
    in J is held by column k."""
    l_factor = lu.L
    l_factor.sort_indices()
    indptr, indices, values = l_factor.indptr.tolist(), l_factor.indices.tolist(), l_factor.data.tolist()
    z_diag = (1.0 / lu.U.diagonal()).tolist()
    z_col: dict[int, dict[int, complex]] = {}

    def z_at(j: int, k: int) -> complex:
        if j == k:
            return z_diag[j]
        return z_col[min(j, k)][max(j, k)]

    for i in range(len(z_diag) - 1, -1, -1):
        rows = indices[indptr[i] + 1 : indptr[i + 1]]
        ls = values[indptr[i] + 1 : indptr[i + 1]]
        z_col[i] = {j: -sum(l * z_at(k, j) for k, l in zip(rows, ls)) for j in rows}
        z_diag[i] -= sum(l * z_col[i][j] for j, l in zip(rows, ls))
    return np.array(z_diag)


def diag_by_level_rounds(lu, monkeypatch) -> np.ndarray:
    """diag(Z) with every set of branching columns in level rounds, however
    few, and the reference sweep's diagonal in the same (unpermuted) order."""
    monkeypatch.setattr(solver, "_UNIT_SOLVE_MAX_ENTRIES", 0)
    return impedance_matrix_diag(lu), takahashi_diag(lu)[lu.perm_c]


@pytest.mark.parametrize("seed", MESHED_3W_SEEDS)
@pytest.mark.parametrize("case", ["max", "min"])
def test_level_sweep_agrees_with_the_python_sweep(seed, case, monkeypatch):
    net = random_network(seed, max_buses=800, loops=30)
    lu = factorize(build_bbm(net, FaultStudyOptions(case=case)).y_matrix)
    entries = below_diagonal_entries(lu)
    assert np.count_nonzero(entries > 1) > 50
    # and one-entry columns that are rows of a branching column, which join
    # the rounds
    rows = lu.L.indices[np.repeat(entries > 1, entries + 1)]
    assert np.any(entries[rows] == 1)
    z_level, z_reference = diag_by_level_rounds(lu, monkeypatch)
    assert np.max(rel_diff(z_level, z_reference)) < 1e-13


@pytest.mark.parametrize("seed", range(60))
def test_level_sweep_on_small_meshed_grids(seed, monkeypatch):
    # a few loops on grids with 3W transformers (24 of the 60), open
    # switches (41) and several islands (2); 51 of the factors have
    # branching columns (up to 30), the others check the tree columns alone
    net = random_network(seed, max_buses=120, loops=1 + seed % 6)
    lu = factorize(build_bbm(net, FaultStudyOptions(case="max" if seed % 2 else "min")).y_matrix)
    assert np.array_equal(lu.perm_r, lu.perm_c)
    z_level, z_reference = diag_by_level_rounds(lu, monkeypatch)
    assert np.max(rel_diff(z_level, z_reference)) < 1e-13
    assert np.max(rel_diff(z_level, unit_solve_diag(lu.shape[0], lu.solve))) < 1e-10


def ladder(length: int, rungs_every: int) -> Network:
    """Two parallel 20 kV feeders of ``length`` buses, fed at the head of
    one, joined by a line every ``rungs_every`` buses."""
    net = Network()
    for side in (0, 1000):
        net.buses += [Bus(side + k, 20.0) for k in range(length)]
        net.lines += [Line(side + k, side + k + 1, 0.4 + 0.01 * (k % 7), 0.2, 0.35) for k in range(length - 1)]
    net.lines += [Line(k, 1000 + k, 0.8, 0.2, 0.35) for k in range(0, length, rungs_every)]
    net.external_grids.append(ExternalGrid(bus=0, s_sc_max_mva=500.0, rx_max=0.1))
    return net


def test_selected_inversion_on_a_ladder(monkeypatch):
    # the minimum-degree order eliminates the ladder from its ends, so almost
    # every column branches and the levels run deep: 192 branching columns
    # in 26 levels, and 27 rounds with the one tree column that joins them
    y = build_bbm(ladder(100, 4), FaultStudyOptions()).y_matrix
    n = y.shape[0]
    lu = factorize(y)
    assert np.array_equal(lu.perm_r, lu.perm_c)
    # so many that the level rounds run without being forced
    assert n * np.count_nonzero(below_diagonal_entries(lu) > 1) > solver._UNIT_SOLVE_MAX_ENTRIES
    assert branching_levels(lu) >= 20
    z = impedance_matrix_diag(lu)
    assert np.max(rel_diff(z, unit_solve_diag(n, lu.solve))) < 1e-10
    assert_matches_dense_inverse(z, y)
    z_level, z_reference = diag_by_level_rounds(lu, monkeypatch)
    assert np.array_equal(z_level, z)
    assert np.max(rel_diff(z_level, z_reference)) < 1e-13


def test_level_rounds_beyond_the_int32_key_range(monkeypatch):
    # above 46 341 nodes the key col * n + row of a slot of L no longer fits
    # in int32: the 1000-bus feeders give 48 018 nodes and 16 516 branching
    # columns, which take the level rounds without being forced, and no
    # entry falls back to a unit solve
    def no_unit_solves(lu, rows):
        raise AssertionError(f"{len(rows)} unit solves")

    monkeypatch.setattr(solver, "_unit_solve_diag", no_unit_solves)
    net = load_perfbench("grids").meshed_grid(1, feeder_buses=1000)
    lu = factorize(build_bbm(net, FaultStudyOptions(case="min")).y_matrix)
    n = lu.shape[0]
    assert n * n > np.iinfo(np.int32).max
    assert np.array_equal(lu.perm_r, lu.perm_c)
    assert n * np.count_nonzero(below_diagonal_entries(lu) > 1) > solver._UNIT_SOLVE_MAX_ENTRIES
    z = impedance_matrix_diag(lu)
    sample = np.random.default_rng(0).choice(n, 16, replace=False)
    rhs = np.zeros((n, len(sample)), dtype=complex)
    rhs[sample, np.arange(len(sample))] = 1.0
    assert np.max(rel_diff(z[sample], lu.solve(rhs)[sample, np.arange(len(sample))])) < 1e-10


def two_feeder_islands(with_single_bus_island: bool) -> Network:
    """Two 20 kV feeders, each fed by its own external grid; optionally a
    third island of one bus and its external grid."""
    net = Network()
    for start, s_sc in ((1, 400.0), (11, 250.0)):
        net.buses += [Bus(start + k, 20.0) for k in range(6)]
        net.external_grids.append(ExternalGrid(bus=start, s_sc_max_mva=s_sc, rx_max=0.1))
        net.lines += [Line(start + k, start + k + 1, 0.5 + 0.1 * k, 0.2, 0.1) for k in range(5)]
    net.lines.append(Line(3, 6, 1.2, 0.2, 0.1))  # one loop in the first feeder
    net.converter_sources.append(ConverterSource(bus=14, sn_mva=2.0, k=1.1))
    if with_single_bus_island:
        net.buses.append(Bus(30, 20.0))
        net.external_grids.append(ExternalGrid(bus=30, s_sc_max_mva=100.0, rx_max=0.1))
    return net


@pytest.mark.parametrize("with_single_bus_island", [False, True], ids=["forest", "single-bus island"])
def test_selected_inversion_on_several_islands(with_single_bus_island):
    y = build_bbm(two_feeder_islands(with_single_bus_island), FaultStudyOptions()).y_matrix
    lu = factorize(y)
    assert np.array_equal(lu.perm_r, lu.perm_c)
    entries = below_diagonal_entries(lu)
    # one root per island: a column without entries below the diagonal
    assert np.count_nonzero(entries == 0) == 2 + with_single_bus_island
    assert np.any(entries == 1)
    # a factor this small takes unit solves in impedance_matrix_diag
    z = solver._selected_inverse_diag(lu)[lu.perm_c]
    assert np.max(rel_diff(z, unit_solve_diag(y.shape[0], lu.solve))) < 1e-10
    assert_matches_dense_inverse(z, y)


@pytest.mark.parametrize("seed", range(40))
def test_small_factors_take_unit_solves_that_match_the_selected_inversion(seed):
    # grids of up to 50 buses with up to 4 extra loops, as a batch of grid
    # files holds them: n * n stays within the bound, and the unit solves
    # agree with the selected inversion to a few ulps
    net = random_network(seed, max_buses=50, loops=seed % 5)
    lu = factorize(build_bbm(net, FaultStudyOptions(case="max" if seed % 2 else "min")).y_matrix)
    n = lu.shape[0]
    assert n * n <= solver._UNIT_SOLVE_MAX_ENTRIES
    assert np.array_equal(lu.perm_r, lu.perm_c)
    z = impedance_matrix_diag(lu)
    assert np.max(rel_diff(z, solver._selected_inverse_diag(lu)[lu.perm_c])) < 1e-14


@pytest.mark.parametrize(
    "seed,kwargs",
    [(seed, {}) for seed in range(20)]
    + [(seed, {"consistent_trafo3w": False}) for seed in range(5)]
    + [(seed, {"max_buses": 800, "loops": 30}) for seed in MESHED_3W_SEEDS],
)
@pytest.mark.parametrize("case", ["max", "min"])
def test_y_matrix_matches_the_oracle_stamp(seed, kwargs, case):
    assert_matches_the_oracle_stamp(random_network(seed, **kwargs), case)


@pytest.mark.parametrize("case", ["max", "min"])
def test_y_matrix_matches_the_oracle_stamp_on_the_benchmark_grids(case):
    # the 300 small grids of the batch_files workload (seed 1) and a small
    # meshed grid of the meshed_3w generator: fused ties, open switches,
    # outages and 3W star points
    for net in batch_grids():
        assert_matches_the_oracle_stamp(net, case)
    assert_matches_the_oracle_stamp(load_perfbench("grids").meshed_grid(1, substations=3, feeder_buses=6), case)


def assert_matches_the_oracle_stamp(net, case):
    # the builder on its own: no factorization, no solve
    bbm = build_bbm(net, FaultStudyOptions(case=case))
    y_ref, i_kc_ref, row_ref = oracle_admittance(net, case)
    assert by_bus_id(net, bbm.bus_index) == row_ref
    assert bbm.y_matrix.shape[0] - bbm.n_aux == len(set(row_ref.values()))
    y = bbm.y_matrix.toarray()
    assert y.shape == y_ref.shape
    assert np.all(np.abs(y - y_ref) <= 1e-13 * np.abs(y_ref))
    assert np.all(np.abs(bbm.i_kc - i_kc_ref) <= 1e-13 * np.abs(i_kc_ref))


# the relative tolerance of the benchmark's correctness check
BENCHMARK_RTOL = 1e-9


@pytest.mark.parametrize("case", ["max", "min"])
def test_batch_grids_pass_the_benchmark_correctness_check(case):
    # perfbench counts a study as failed unless every bus agrees with the
    # dense oracle to 1e-9 relative, with equal energized flags and NaN
    # markers; grid 105 (max case) sits closest to that bound
    for i, net in enumerate(batch_grids()):
        result = calc_sc(net, FaultStudyOptions(case=case))
        expected = oracle_calc(net, case=case)
        ids = sorted(expected)
        assert result.bus_ids.tolist() == ids, i
        assert result.energized.tolist() == [expected[b]["energized"] for b in ids], i
        for column, key in zip(RESULT_COLUMNS, ("source_ka", "converter_ka", "total_ka")):
            got = getattr(result, column)
            want = np.array([expected[b][key] for b in ids])
            assert np.array_equal(np.isnan(got), np.isnan(want)), (i, column)
            ok = np.isnan(got) | (np.abs(got - want) <= BENCHMARK_RTOL * np.maximum(np.abs(got), np.abs(want)))
            assert ok.all(), (i, column, np.max(rel_diff(got, want)))


# networks with energized 0.4 kV buses; 3, 10 and 19 also hold 3W transformers
LV_SEEDS = (0, 1, 3, 5, 6, 10, 19, 20)


@pytest.mark.parametrize("seed", LV_SEEDS)
@pytest.mark.parametrize("case", ["max", "min"])
def test_6_percent_lv_tolerance_matches_the_oracle(seed, case):
    net = random_network(seed)
    result = calc_sc(net, FaultStudyOptions(case=case, lv_tolerance_percent=6))
    reference = oracle_calc(net, case=case, lv_tolerance_percent=6)
    assert np.any(result.energized & (result.vn_kv <= 1.0))
    for i, bus_id in enumerate(result.bus_ids):
        expected = reference[int(bus_id)]
        assert bool(result.energized[i]) == expected["energized"]
        for column, key in (
            ("ikss_source_ka", "source_ka"),
            ("ikss_converter_ka", "converter_ka"),
            ("ikss_ka", "total_ka"),
        ):
            assert float(getattr(result, column)[i]) == pytest.approx(expected[key], rel=1e-10)
    # the tolerance class reaches the result: K_T (and c_max in the max case) change at 0.4 kV
    ten = calc_sc(net, FaultStudyOptions(case=case, lv_tolerance_percent=10))
    assert not np.array_equal(result.ikss_ka, ten.ikss_ka)


@pytest.mark.parametrize("seed", range(12))
def test_converter_contributions_superpose_as_complex_vectors(seed):
    net = random_network(seed, with_outages=False)
    while len(net.converter_sources) < 2:
        net.converter_sources.append(
            ConverterSource(bus=net.buses[seed % len(net.buses)].id, sn_mva=1.5, k=1.1)
        )
    net_a = copy.deepcopy(net)
    net_a.converter_sources = net.converter_sources[0::2]
    net_b = copy.deepcopy(net)
    net_b.converter_sources = net.converter_sources[1::2]
    options = FaultStudyOptions()
    lu = factorize(build_bbm(net, options).y_matrix)
    z = impedance_matrix_diag(lu)
    i_ab = converter_contribution(lu, z, build_bbm(net, options).i_kc)
    i_a = converter_contribution(lu, z, build_bbm(net_a, options).i_kc)
    i_b = converter_contribution(lu, z, build_bbm(net_b, options).i_kc)
    scale = float(np.max(np.abs(i_a)) + np.max(np.abs(i_b))) + 1e-30
    assert float(np.max(np.abs(i_ab - (i_a + i_b)))) <= 1e-10 * scale


@pytest.mark.parametrize("seed", range(20))
def test_adding_a_converter_never_decreases_total_current(seed):
    net = random_network(seed)
    rng = random.Random(seed + 4000)
    augmented = copy.deepcopy(net)
    augmented.converter_sources.append(
        ConverterSource(bus=rng.choice(augmented.buses).id, sn_mva=rng.uniform(0.5, 10.0), k=1.2)
    )
    before = calc_sc(net)
    after = calc_sc(augmented)
    assert np.array_equal(before.ikss_source_ka, after.ikss_source_ka)
    assert np.all(after.ikss_ka >= before.ikss_ka)


@pytest.mark.parametrize("seed", range(12))
def test_removing_all_converters_keeps_source_component_bit_identical(seed):
    net = random_network(seed)
    stripped = copy.deepcopy(net)
    stripped.converter_sources.clear()
    full = calc_sc(net)
    bare = calc_sc(stripped)
    assert np.all(bare.ikss_converter_ka == 0.0)
    assert np.array_equal(full.ikss_source_ka, bare.ikss_source_ka)


@pytest.mark.parametrize("seed", [0, 3, 9])
def test_radial_feeder_current_strictly_decreases_without_dg(seed):
    feeders, per_feeder = 3, 12
    net = generate_radial_grid(feeders, per_feeder, dg_every=0, seed=seed)
    res = calc_sc(net, FaultStudyOptions(case="max"))
    by_bus = {int(b): float(v) for b, v in zip(res.bus_ids, res.ikss_ka)}
    busbar = by_bus[2]
    for f in range(feeders):
        path = [busbar] + [by_bus[3 + f * per_feeder + p] for p in range(per_feeder)]
        assert all(a > b for a, b in zip(path, path[1:]))


@pytest.mark.parametrize("seed", range(12))
def test_case_ordering_without_converters(seed):
    net = random_network(seed)
    for eg in net.external_grids:
        eg.rx_min = eg.rx_max
    r_max = calc_sc(net, FaultStudyOptions(case="max", consider_converters=False))
    r_min = calc_sc(net, FaultStudyOptions(case="min", consider_converters=False))
    assert np.all(r_max.ikss_ka >= r_min.ikss_ka * (1.0 - 1e-12))


@pytest.mark.parametrize("seed", range(8))
def test_case_ordering_on_radial_grids_with_dg(seed):
    net = generate_radial_grid(4, 12, dg_every=3, seed=seed)
    r_max = calc_sc(net, FaultStudyOptions(case="max"))
    r_min = calc_sc(net, FaultStudyOptions(case="min"))
    assert np.all(r_max.ikss_ka >= r_min.ikss_ka)
