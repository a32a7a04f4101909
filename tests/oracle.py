"""Independent reference implementation used to cross-check the engine.

Everything here is deliberately written the slow, obvious way: scalar
per-element math, component search by breadth-first walks, an explicitly
stamped dense admittance matrix, a full dense inverse and per-bus
summations. It shares only the input dataclasses with the package.
"""
from __future__ import annotations

import math

import numpy as np

from sccalc.model import Network

ALPHA_PER_K = 0.004
DEGENERATE_TOL = 1e-12


def c_factor(vn_kv: float, tolerance_percent: int, case: str) -> float:
    if vn_kv <= 1.0:
        if case == "min":
            return 0.95
        return 1.05 if tolerance_percent == 6 else 1.10
    return 1.10 if case == "max" else 1.00


def _fused_groups(net: Network, in_service: set[int]) -> dict[int, int]:
    """bus id -> smallest bus id of its switch-fused group, by BFS."""
    neighbours: dict[int, set[int]] = {b: set() for b in in_service}
    for sw in net.switches:
        if isinstance(sw.other, int) and sw.closed:
            if sw.bus in in_service and sw.other in in_service:
                neighbours[sw.bus].add(sw.other)
                neighbours[sw.other].add(sw.bus)
    group: dict[int, int] = {}
    for start in sorted(in_service):
        if start in group:
            continue
        members: set[int] = set()
        queue = [start]
        while queue:
            b = queue.pop()
            if b in members:
                continue
            members.add(b)
            queue.extend(n for n in neighbours[b] if n not in members)
        rep = min(members)
        for m in members:
            group[m] = rep
    return group


def oracle_admittance(
    net: Network,
    case: str = "max",
    lv_tolerance_percent: int = 10,
    consider_converters: bool = True,
    s_base_mva: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, dict[int, int]]:
    """Dense per-unit admittance matrix of the energized nodes, stamped
    element by element, with its converter injection vector.

    Returns (y, i_kc, row) where ``row`` maps each energized bus id to its
    row: fused nodes by ascending id, then 3W star points by transformer.
    """
    buses = {b.id: b for b in net.buses}
    in_service = {b.id for b in net.buses if b.in_service}
    group = _fused_groups(net, in_service)

    severed = set()
    for sw in net.switches:
        if not isinstance(sw.other, int) and not sw.closed:
            severed.add((sw.other.kind, sw.other.index, sw.bus))

    # node keys: representative bus ids and ("star", i) for 3W transformers
    branch_list = []  # (node_a, node_b, z_pu, tap at node_a side)
    shunt_list = []  # (node, z_pu)
    injection_list = []  # (node, complex pu current)
    source_set = set()

    for i, eg in enumerate(net.external_grids):
        if not eg.in_service or eg.bus not in in_service:
            continue
        vn = buses[eg.bus].vn_kv
        c = c_factor(vn, lv_tolerance_percent, case)
        if case == "max":
            s_sc, rx = eg.s_sc_max_mva, eg.rx_max
        else:
            s_sc, rx = eg.s_sc_min_mva, eg.rx_min
        z_mag_ohm = c * vn * vn / s_sc
        x_ohm = z_mag_ohm / math.sqrt(1.0 + rx * rx)
        z_ohm = complex(rx * x_ohm, x_ohm)
        z_pu = z_ohm / (vn * vn / s_base_mva)
        node = group[eg.bus]
        shunt_list.append((node, z_pu))
        source_set.add(node)

    for i, ln in enumerate(net.lines):
        if not ln.in_service:
            continue
        if ln.from_bus not in in_service or ln.to_bus not in in_service:
            continue
        if ("line", i, ln.from_bus) in severed or ("line", i, ln.to_bus) in severed:
            continue
        r = ln.r_ohm_per_km * ln.length_km
        if case == "min":
            r = (1.0 + ALPHA_PER_K * (ln.endtemp_degc - 20.0)) * r
        x = ln.x_ohm_per_km * ln.length_km
        vn = buses[ln.from_bus].vn_kv
        z_pu = complex(r, x) / (vn * vn / s_base_mva)
        branch_list.append((group[ln.from_bus], group[ln.to_bus], z_pu, 1.0))

    for i, t in enumerate(net.transformers2w):
        if not t.in_service:
            continue
        if t.hv_bus not in in_service or t.lv_bus not in in_service:
            continue
        if ("trafo2w", i, t.hv_bus) in severed or ("trafo2w", i, t.lv_bus) in severed:
            continue
        vb_hv = buses[t.hv_bus].vn_kv
        vb_lv = buses[t.lv_bus].vn_kv
        r = t.vkr_percent / 100.0
        x = math.sqrt(t.vk_percent**2 - t.vkr_percent**2) / 100.0
        k_t = 0.95 * c_factor(vb_lv, lv_tolerance_percent, "max") / (1.0 + 0.6 * x)
        z_pu = k_t * complex(r, x) * (s_base_mva / t.sn_mva) * (t.vn_lv_kv / vb_lv) ** 2
        tap = (t.vn_hv_kv / t.vn_lv_kv) * (vb_lv / vb_hv)
        branch_list.append((group[t.hv_bus], group[t.lv_bus], z_pu, tap))

    for i, t in enumerate(net.transformers3w):
        if not t.in_service:
            continue
        terminals = [
            (t.hv_bus, t.vn_hv_kv),
            (t.mv_bus, t.vn_mv_kv),
            (t.lv_bus, t.vn_lv_kv),
        ]
        live = [
            (b, vn)
            for b, vn in terminals
            if b in in_service and ("trafo3w", i, b) not in severed
        ]
        if len(live) < 2:
            continue
        vb_lv = buses[t.lv_bus].vn_kv
        c_max = c_factor(vb_lv, lv_tolerance_percent, "max")

        def pair(vk, vkr, sn_a, sn_b):
            r = vkr / 100.0
            x = math.sqrt(vk * vk - vkr * vkr) / 100.0
            k_t = 0.95 * c_max / (1.0 + 0.6 * x)
            return k_t * complex(r, x) * (s_base_mva / min(sn_a, sn_b))

        z_hm = pair(t.vk_hm_percent, t.vkr_hm_percent, t.sn_hv_mva, t.sn_mv_mva)
        z_ml = pair(t.vk_ml_percent, t.vkr_ml_percent, t.sn_mv_mva, t.sn_lv_mva)
        z_hl = pair(t.vk_hl_percent, t.vkr_hl_percent, t.sn_hv_mva, t.sn_lv_mva)
        star = {
            t.hv_bus: (z_hm + z_hl - z_ml) / 2.0,
            t.mv_bus: (z_hm + z_ml - z_hl) / 2.0,
            t.lv_bus: (z_hl + z_ml - z_hm) / 2.0,
        }
        for b, vn_w in live:
            branch_list.append((group[b], ("star", i), star[b], vn_w / buses[b].vn_kv))

    if consider_converters:
        for cs in net.converter_sources:
            if not cs.in_service or cs.bus not in in_service:
                continue
            vn = buses[cs.bus].vn_kv
            i_ka = complex(0.0, -cs.k * cs.sn_mva / (math.sqrt(3.0) * vn))
            i_base = s_base_mva / (math.sqrt(3.0) * vn)
            injection_list.append((group[cs.bus], i_ka / i_base))

    # nodes reachable from a source node are energized
    adjacency: dict = {}
    for a, b, _, _ in branch_list:
        if a == b:
            continue
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    energized = set()
    queue = sorted(source_set)
    while queue:
        n = queue.pop()
        if n in energized:
            continue
        energized.add(n)
        queue.extend(adjacency.get(n, set()) - energized)

    real_nodes = sorted(n for n in energized if isinstance(n, int))
    star_nodes = sorted((n for n in energized if not isinstance(n, int)), key=lambda n: n[1])
    index = {n: i for i, n in enumerate(real_nodes + star_nodes)}
    dim = len(index)

    y = np.zeros((dim, dim), dtype=complex)
    for a, b, z_pu, tap in branch_list:
        if a not in index or a == b:
            continue
        ia, ib = index[a], index[b]
        y_series = 1.0 / z_pu
        y[ia, ia] += y_series / (tap * tap)
        y[ib, ib] += y_series
        y[ia, ib] -= y_series / tap
        y[ib, ia] -= y_series / tap
    for n, z_pu in shunt_list:
        if n in index:
            y[index[n], index[n]] += 1.0 / z_pu

    i_kc = np.zeros(dim, dtype=complex)
    for n, inj in injection_list:
        if n in index:
            i_kc[index[n]] += inj

    row = {b: index[n] for b, n in group.items() if n in index}
    return y, i_kc, row


def oracle_calc(
    net: Network,
    case: str = "max",
    lv_tolerance_percent: int = 10,
    consider_converters: bool = True,
    s_base_mva: float = 1.0,
) -> dict[int, dict]:
    """Short-circuit currents for every bus of the network.

    Returns {bus_id: {"source_ka", "converter_ka", "total_ka", "energized"}}.
    """
    y, i_kc, row = oracle_admittance(net, case, lv_tolerance_percent, consider_converters, s_base_mva)
    dim = len(y)
    z = np.linalg.inv(y) if dim else np.zeros((0, 0), dtype=complex)

    out = {}
    for bus_id, bus in {b.id: b for b in net.buses}.items():
        if bus_id not in row:
            out[bus_id] = {
                "source_ka": 0.0,
                "converter_ka": 0.0,
                "total_ka": 0.0,
                "energized": False,
            }
            continue
        j = row[bus_id]
        z_jj = z[j, j]
        i_base = s_base_mva / (math.sqrt(3.0) * bus.vn_kv)
        if abs(z_jj) < DEGENERATE_TOL:
            out[bus_id] = {
                "source_ka": math.nan,
                "converter_ka": math.nan,
                "total_ka": math.nan,
                "energized": True,
            }
            continue
        c = c_factor(bus.vn_kv, lv_tolerance_percent, case)
        i_source = c / z_jj
        acc = complex(0.0, 0.0)
        for m in range(dim):
            acc += z[j, m] * i_kc[m]
        i_conv = acc / z_jj
        source_ka = abs(i_source) * i_base
        converter_ka = abs(i_conv) * i_base
        out[bus_id] = {
            "source_ka": source_ka,
            "converter_ka": converter_ka,
            "total_ka": source_ka + converter_ka,
            "energized": True,
        }
    return out
