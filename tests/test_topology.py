"""A prepared ``StudyTopology``: read and validated once, then only filled
with the values of each case."""
import copy
import random

import numpy as np
import pytest

from sccalc import FaultStudyOptions, StudyTopology, builder, calc_sc, generate_radial_grid, model, prepare
from sccalc.exceptions import SingularStampError, UnsolvableIslandError

from netgen import load_perfbench, random_network

COLUMNS = ("bus_ids", "ikss_source_ka", "ikss_converter_ka", "ikss_ka", "energized", "vn_kv")
OPTIONS = [
    FaultStudyOptions(case="max"),
    FaultStudyOptions(case="min"),
    FaultStudyOptions(case="max", lv_tolerance_percent=6, s_base_mva=10.0),
    FaultStudyOptions(case="min", consider_converters=False, s_base_mva=100.0),
]


def assert_same_bytes(a, b):
    for column in COLUMNS:
        x, y = getattr(a, column), getattr(b, column)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), column
    assert a.bus_names == b.bus_names and a.degenerate_buses == b.degenerate_buses


def study_set():
    grids = load_perfbench("grids")
    rng = random.Random(1)
    nets = [grids.small_grid(rng, i) for i in range(40)]
    nets += [random_network(seed) for seed in range(0, 100, 7)]
    return nets + [grids.meshed_grid(1, feeder_buses=8), generate_radial_grid(4, 60, dg_every=5)]


def test_a_prepared_study_equals_a_study_of_the_network_byte_for_byte():
    for net in study_set():
        topology = prepare(net)
        for options in OPTIONS:
            try:
                expected = calc_sc(net, options)
            except (SingularStampError, UnsolvableIslandError) as e:
                with pytest.raises(type(e), match=str(e)):
                    calc_sc(topology, options)
                continue
            assert_same_bytes(calc_sc(topology, options), expected)
            a, b = builder.build_bbm(net, options), builder.build_bbm(topology, options)
            for x, y in ((a.y_matrix.data, b.y_matrix.data), (a.y_matrix.indices, b.y_matrix.indices),
                         (a.y_matrix.indptr, b.y_matrix.indptr), (a.i_kc, b.i_kc), (a.bus_index, b.bus_index)):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
            assert a.n_aux == b.n_aux


def test_both_cases_on_one_topology_read_and_validate_once(monkeypatch):
    counts = {"read": 0, "validate": 0}
    real_read, real_validate = builder._Tables, builder.validate

    def read(net):
        counts["read"] += 1
        return real_read(net)

    def validate(net, tables=None):
        counts["validate"] += 1
        return real_validate(net, tables)

    monkeypatch.setattr(builder, "_Tables", read)
    monkeypatch.setattr(builder, "validate", validate)
    monkeypatch.setattr(model, "_Tables", read)
    net = load_perfbench("grids").meshed_grid(2, feeder_buses=6)
    topology = prepare(net)
    results = [calc_sc(topology, FaultStudyOptions(case=case)) for case in ("max", "min")]
    assert counts == {"read": 1, "validate": 1}
    assert isinstance(topology, StudyTopology)
    monkeypatch.undo()
    for result, case in zip(results, ("max", "min")):
        assert_same_bytes(result, calc_sc(net, FaultStudyOptions(case=case)))


def test_changing_the_network_after_prepare_does_not_change_the_topology():
    net = generate_radial_grid(2, 8, dg_every=3, seed=2)
    before = copy.deepcopy(net)
    topology = prepare(net)
    net.buses[3].vn_kv *= 2.0
    net.buses[4].name = "renamed"
    net.lines[2].r_ohm_per_km *= 3.0
    net.lines[5].in_service = False
    net.external_grids[0].s_sc_max_mva /= 2.0
    net.converter_sources[0].k = 0.5
    net.transformers2w.clear()
    for options in OPTIONS[:2]:
        assert_same_bytes(calc_sc(topology, options), calc_sc(before, options))


def test_a_stamp_error_is_decided_per_case_on_one_topology():
    net = generate_radial_grid(1, 4, seed=0)
    # a line of almost no impedance: whether it can be stamped depends on
    # the options, so the topology is prepared and each case decides
    net.lines[1].r_ohm_per_km, net.lines[1].x_ohm_per_km = 0.0, 1e-16
    topology = prepare(net)
    for case in ("max", "min"):
        with pytest.raises(SingularStampError, match=r"lines\[1\]"):
            calc_sc(topology, FaultStudyOptions(case=case))
    # a larger power base lifts its per-unit impedance above the bound
    result = calc_sc(topology, FaultStudyOptions(s_base_mva=1e9))
    assert np.isfinite(result.ikss_ka).all()
