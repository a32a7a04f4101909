"""The numpy hook-and-jump kernel ``builder._roots`` against a list-based
union-find, and the energized islands of ``build_bbm`` against islands
found with that union-find."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sccalc import FaultStudyOptions
from sccalc.builder import _roots, build_bbm
from sccalc.model import ElementRef

from busmap import fusion
from netgen import random_network


def reference_roots(n: int, pairs) -> list[int]:
    """Union-find over the items 0..n-1 joined by ``pairs``: the root of each
    item, which is always the smallest item of its component."""
    up = list(range(n))
    for a, b in pairs:
        while up[a] != a:
            up[a] = a = up[up[a]]  # path halving
        while up[b] != b:
            up[b] = b = up[up[b]]
        if a < b:
            up[b] = a
        elif b < a:
            up[a] = b
    # every link points to a smaller item, so one ascending pass resolves
    # each item through its parent, which is resolved already
    for x in range(n):
        up[x] = up[up[x]]
    return up


def assert_roots_match(n: int, pairs: list[tuple[int, int]]) -> None:
    a = np.array([p[0] for p in pairs], np.intp)
    b = np.array([p[1] for p in pairs], np.intp)
    roots = _roots(n, a, b)
    assert roots.dtype == np.intp and roots.tolist() == reference_roots(n, pairs)


@st.composite
def graphs(draw):
    """n in 1..300 and up to 2n edges, self-loops and duplicates included."""
    n = draw(st.integers(1, 300))
    item = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(item, item), max_size=2 * n))
    if pairs and draw(st.booleans()):
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=10))
        pairs += [(a, a) for a, _ in pairs[:3]]
    return n, pairs


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_roots_equal_the_list_union_find_on_random_graphs(graph):
    assert_roots_match(*graph)


@pytest.mark.parametrize("n", [1, 2, 7, 300])
def test_roots_without_edges_are_the_items(n):
    assert_roots_match(n, [])
    assert _roots(n, np.array([], np.intp), np.array([], np.intp)).tolist() == list(range(n))


@pytest.mark.parametrize("n", [2, 3, 64, 300])
@pytest.mark.parametrize("direction", ["up", "down"])
def test_roots_of_chains_numbered_against_the_hooking_direction(n, direction):
    # each round hooks the larger end under the smaller one; a chain whose
    # smallest item sits at one end and whose edges run either way takes
    # the longest jumps, and zigzag labels give the most local minima
    chain = list(range(n))
    pairs = list(zip(chain[1:], chain)) if direction == "up" else list(zip(chain[-2::-1], chain[:0:-1]))
    assert_roots_match(n, pairs)
    zigzag = [k + 1 if k % 2 == 0 else k - 1 for k in range(n - n % 2)] + [n - 1] * (n % 2)
    assert_roots_match(n, list(zip(zigzag[1:], zigzag)))
    reverse = chain[::-1]
    assert_roots_match(n, list(zip(reverse, reverse[1:])))


@pytest.mark.parametrize("n", [2, 3, 50, 300])
def test_roots_of_a_star_with_the_highest_label_at_the_centre(n):
    centre = n - 1
    assert_roots_match(n, [(centre, leaf) for leaf in range(centre)])
    assert_roots_match(n, [(leaf, centre) for leaf in reversed(range(centre))])
    # and two such stars, joined at their largest leaves
    half = n // 2
    if half >= 2:
        stars = [(half - 1, leaf) for leaf in range(half - 1)] + [(n - 1, leaf) for leaf in range(half, n - 1)]
        assert_roots_match(n, stars + [(half - 2, n - 2)])


def reference_bus_index(net) -> np.ndarray:
    """``BusBranchModel.bus_index`` from the list union-find: buses joined by
    closed ties fuse into the node of their smallest id, nodes join through
    live branches, and the rows are the nodes of the islands that hold a
    live external grid, fused nodes by ascending id, then one star point
    per live three-winding transformer."""
    ids = sorted(b.id for b in net.buses)
    rank = {bus_id: k for k, bus_id in enumerate(ids)}
    up = {b.id: b.in_service for b in net.buses}
    ties = [
        (rank[sw.bus], rank[sw.other])
        for sw in net.switches
        if not isinstance(sw.other, ElementRef) and sw.closed and up[sw.bus] and up[sw.other]
    ]
    group = reference_roots(len(ids), ties)
    heads = [k for k in range(len(ids)) if group[k] == k and up[ids[k]]]
    head_node = {k: j for j, k in enumerate(heads)}
    node = [head_node[group[rank[b.id]]] if b.in_service else -1 for b in net.buses]
    n_nodes = len(heads)

    # which elements are live is the fusion's, not what this test checks
    fused = fusion(net)
    edges = []
    for kind in ("line", "trafo2w"):
        a, b = fused.terminals[kind]
        edges += [(node[p], node[q]) for p, q, on in zip(a, b, fused.live[kind]) if on]
    for i, is_live in enumerate(fused.live["trafo3w"]):
        if is_live:
            # (a winding is up only on a bus in service)
            for p, up in zip(fused.terminals["trafo3w"][:, i], fused.windings[:, i]):
                if up:
                    edges.append((node[p], n_nodes))
            n_nodes += 1
    [grid_bus] = fused.terminals["external_grid"]
    sources = [node[p] for p, on in zip(grid_bus, fused.live["external_grid"]) if on]
    root = reference_roots(n_nodes, edges)
    fed = {root[s] for s in sources}
    rows = np.cumsum([root[k] in fed for k in range(n_nodes)]) - 1
    return np.array([rows[k] if k >= 0 and root[k] in fed else -1 for k in node], np.intp)


def test_build_bbm_bus_index_equals_the_union_find_islands():
    dead_islands = open_element_switches = 0
    for seed in range(60):
        net = random_network(seed, max_buses=40)
        expected = reference_bus_index(net)
        for case in ("max", "min"):
            assert build_bbm(net, FaultStudyOptions(case=case)).bus_index.tolist() == expected.tolist(), (seed, case)
        in_service = np.array([b.in_service for b in net.buses])
        dead_islands += bool(np.any(in_service & (expected < 0)))
        open_element_switches += any(isinstance(sw.other, ElementRef) and not sw.closed for sw in net.switches)
    # the grids hold what the islands must cope with
    assert dead_islands >= 5 and open_element_switches >= 5
