"""Seeded random networks that exercise every element model.

Each seed yields one deterministic, always-valid network: a connected core
grown from an external grid bus, optionally spanning several voltage levels
through two- and three-winding transformers, decorated with converters,
loop lines, fused switch pairs, open switches and out-of-service elements.
"""
from __future__ import annotations

import importlib.util
import pathlib
import random

from sccalc.model import (
    Bus,
    ConverterSource,
    ElementRef,
    ExternalGrid,
    Line,
    Network,
    Switch,
    Transformer2W,
    Transformer3W,
)

LEVELS = (110.0, 20.0, 0.4)

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_perfbench(name: str):
    """A module of the benchmark (``perfbench/<name>.py``), loaded from its
    file without putting ``perfbench`` on the import path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def batch_grids(seed: int = 1, count: int = 300) -> list:
    """The small grids of the benchmark's ``batch_files`` workload."""
    small_grid = load_perfbench("grids").small_grid
    rng = random.Random(seed)
    return [small_grid(rng, i) for i in range(count)]


def random_network(
    seed: int,
    max_buses: int = 20,
    with_switches: bool = True,
    with_outages: bool = True,
    consistent_trafo3w: bool = True,
    loops: int = 0,
) -> Network:
    """One deterministic valid network per seed.

    ``consistent_trafo3w=True`` derives the pairwise short-circuit voltages
    of three-winding transformers from per-winding reactances the way a real
    device would exhibit them (the star equivalent stays inductive);
    ``False`` draws the three values independently, which can produce
    electrically exotic but still schema-valid devices.

    ``loops`` adds that many lines between random buses of one voltage level
    on top of the zero to two every network gets, which meshes the grid.
    """
    rng = random.Random(seed)
    net = Network(name=f"random-{seed}")
    next_id = 1

    def new_bus(vn: float) -> Bus:
        nonlocal next_id
        bus = Bus(next_id, vn, f"bus {next_id}")
        next_id += 1
        net.buses.append(bus)
        return bus

    def random_line(a: Bus, b: Bus, in_service: bool = True) -> Line:
        line = Line(
            from_bus=a.id,
            to_bus=b.id,
            length_km=rng.uniform(0.3, 8.0),
            r_ohm_per_km=rng.uniform(0.03, 0.4),
            x_ohm_per_km=rng.uniform(0.08, 0.45),
            endtemp_degc=rng.choice((80.0, 90.0, 200.0)),
            in_service=in_service,
        )
        net.lines.append(line)
        return line

    def random_trafo2w(hv: Bus, lv: Bus) -> None:
        vk = rng.uniform(4.0, 18.0)
        net.transformers2w.append(
            Transformer2W(
                hv_bus=hv.id,
                lv_bus=lv.id,
                sn_mva=rng.uniform(0.4, 63.0),
                vn_hv_kv=hv.vn_kv * rng.uniform(0.97, 1.05),
                vn_lv_kv=lv.vn_kv * rng.uniform(0.97, 1.05),
                vk_percent=vk,
                vkr_percent=rng.uniform(0.0, 0.25 * vk),
            )
        )

    def random_trafo3w(hv: Bus, mv: Bus, lv: Bus) -> None:
        sn_hv = rng.uniform(10.0, 63.0)
        sn_mv = rng.uniform(5.0, 40.0)
        sn_lv = rng.uniform(5.0, 40.0)
        if consistent_trafo3w:
            # per-winding impedances on the HV rating, summed per pair and
            # re-expressed on the pair's own rating base
            x_w = {"h": rng.uniform(0.04, 0.10), "m": rng.uniform(0.01, 0.05), "l": rng.uniform(0.01, 0.05)}
            r_w = {w: x * rng.uniform(0.0, 0.08) for w, x in x_w.items()}

            def pair(a, b, sn_a, sn_b):
                scale = min(sn_a, sn_b) / sn_hv
                z = complex(r_w[a] + r_w[b], x_w[a] + x_w[b]) * scale
                return 100.0 * abs(z), 100.0 * z.real

            vk_hm, vkr_hm = pair("h", "m", sn_hv, sn_mv)
            vk_ml, vkr_ml = pair("m", "l", sn_mv, sn_lv)
            vk_hl, vkr_hl = pair("h", "l", sn_hv, sn_lv)
        else:
            def vk_pair():
                vk = rng.uniform(4.0, 20.0)
                return vk, rng.uniform(0.0, 0.2 * vk)

            vk_hm, vkr_hm = vk_pair()
            vk_ml, vkr_ml = vk_pair()
            vk_hl, vkr_hl = vk_pair()
        net.transformers3w.append(
            Transformer3W(
                hv_bus=hv.id,
                mv_bus=mv.id,
                lv_bus=lv.id,
                sn_hv_mva=sn_hv,
                sn_mv_mva=sn_mv,
                sn_lv_mva=sn_lv,
                vn_hv_kv=hv.vn_kv * rng.uniform(0.97, 1.03),
                vn_mv_kv=mv.vn_kv * rng.uniform(0.97, 1.03),
                vn_lv_kv=lv.vn_kv * rng.uniform(0.97, 1.03),
                vk_hm_percent=vk_hm,
                vk_ml_percent=vk_ml,
                vk_hl_percent=vk_hl,
                vkr_hm_percent=vkr_hm,
                vkr_ml_percent=vkr_ml,
                vkr_hl_percent=vkr_hl,
            )
        )

    root = new_bus(rng.choice((110.0, 20.0)))
    net.external_grids.append(
        ExternalGrid(
            bus=root.id,
            s_sc_max_mva=rng.uniform(200.0, 5000.0),
            s_sc_min_mva=None,
            rx_max=rng.uniform(0.0, 0.35),
        )
    )
    net.external_grids[0].s_sc_min_mva = net.external_grids[0].s_sc_max_mva * rng.uniform(0.5, 1.0)
    net.external_grids[0].rx_min = rng.uniform(0.0, 0.35)

    n_target = rng.randint(2, max_buses)
    while len(net.buses) < n_target:
        anchor = rng.choice(net.buses)
        roll = rng.random()
        if roll < 0.12 and anchor.vn_kv == 110.0 and len(net.buses) + 2 <= max_buses:
            mv = new_bus(20.0)
            lv = new_bus(0.4)
            random_trafo3w(anchor, mv, lv)
        elif roll < 0.35 and anchor.vn_kv > 0.4:
            lower = LEVELS[LEVELS.index(anchor.vn_kv) + 1 :]
            lv = new_bus(rng.choice(lower))
            random_trafo2w(anchor, lv)
        else:
            random_line(anchor, new_bus(anchor.vn_kv))

    # occasional loops between buses of the same level
    for _ in range(rng.randint(0, 2) + loops):
        same = {}
        for b in net.buses:
            same.setdefault(b.vn_kv, []).append(b)
        pool = [g for g in same.values() if len(g) >= 2]
        if pool:
            a, b = rng.sample(rng.choice(pool), 2)
            random_line(a, b)

    if rng.random() < 0.35:
        net.external_grids.append(
            ExternalGrid(
                bus=rng.choice(net.buses).id,
                s_sc_max_mva=rng.uniform(100.0, 2000.0),
                rx_max=rng.uniform(0.0, 0.3),
            )
        )

    for bus in net.buses:
        if rng.random() < 0.3:
            net.converter_sources.append(
                ConverterSource(
                    bus=bus.id,
                    sn_mva=rng.uniform(0.1, 8.0),
                    k=rng.uniform(0.8, 1.5),
                )
            )

    if with_switches:
        same = {}
        for b in net.buses:
            same.setdefault(b.vn_kv, []).append(b)
        pool = [g for g in same.values() if len(g) >= 2]
        for _ in range(rng.randint(0, 3)):
            if not pool:
                break
            a, b = rng.sample(rng.choice(pool), 2)
            net.switches.append(Switch(bus=a.id, other=b.id, closed=rng.random() < 0.7))
        # open line switches may islanding parts of the grid
        for _ in range(rng.randint(0, 2)):
            if not net.lines:
                break
            i = rng.randrange(len(net.lines))
            terminal = rng.choice((net.lines[i].from_bus, net.lines[i].to_bus))
            net.switches.append(
                Switch(bus=terminal, other=ElementRef("line", i), closed=rng.random() < 0.5)
            )

    if with_outages:
        for line in net.lines:
            if rng.random() < 0.06:
                line.in_service = False
        for cs in net.converter_sources:
            if rng.random() < 0.1:
                cs.in_service = False
        for bus in net.buses[1:]:
            if rng.random() < 0.04:
                bus.in_service = False

    return net
