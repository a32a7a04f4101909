"""Seeded grid generators owned by the benchmark.

``meshed_grid`` builds the large multi-level meshed grid of the
``meshed_3w`` workload; ``small_grid`` builds one of the many small, varied
grid documents of the ``batch_files`` workload. The same seed always gives
the same network. Every element count is fixed by the arguments, and the
seed moves only parameters and the positions of ties, open switches and
outages, so that study cost barely depends on the seed.
"""
from __future__ import annotations

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


class _Builder:
    """Append-only helper that hands out bus ids and element indices."""

    def __init__(self, name: str, rng: random.Random):
        self.net = Network(name=name)
        self.rng = rng

    def bus(self, vn_kv: float, name: str) -> Bus:
        bus = Bus(len(self.net.buses) + 1, vn_kv, name)
        self.net.buses.append(bus)
        return bus

    def line(self, a: Bus, b: Bus, length_km: float, r: float, x: float) -> int:
        self.net.lines.append(
            Line(
                from_bus=a.id,
                to_bus=b.id,
                length_km=length_km,
                r_ohm_per_km=r,
                x_ohm_per_km=x,
                endtemp_degc=self.rng.choice((80.0, 90.0, 160.0)),
            )
        )
        return len(self.net.lines) - 1

    def cable(self, a: Bus, b: Bus) -> int:
        rng = self.rng
        return self.line(a, b, rng.uniform(0.2, 1.5), rng.uniform(0.1, 0.25), rng.uniform(0.08, 0.13))

    def external_grid(self, bus: Bus, s_sc_max_mva: float) -> None:
        rng = self.rng
        self.net.external_grids.append(
            ExternalGrid(
                bus=bus.id,
                s_sc_max_mva=s_sc_max_mva,
                s_sc_min_mva=s_sc_max_mva * rng.uniform(0.5, 0.9),
                rx_max=rng.uniform(0.05, 0.3),
                rx_min=rng.uniform(0.05, 0.3),
            )
        )

    def converter(self, bus: Bus) -> None:
        rng = self.rng
        self.net.converter_sources.append(
            ConverterSource(bus=bus.id, sn_mva=rng.uniform(0.1, 3.0), k=rng.uniform(1.0, 1.3))
        )

    def trafo2w(self, hv: Bus, lv: Bus) -> None:
        rng = self.rng
        vk = rng.uniform(4.0, 16.0)
        self.net.transformers2w.append(
            Transformer2W(
                hv_bus=hv.id,
                lv_bus=lv.id,
                sn_mva=rng.uniform(0.25, 63.0),
                vn_hv_kv=hv.vn_kv * rng.uniform(0.98, 1.05),
                vn_lv_kv=lv.vn_kv * rng.uniform(0.98, 1.05),
                vk_percent=vk,
                vkr_percent=vk * rng.uniform(0.02, 0.2),
            )
        )

    def trafo3w(self, hv: Bus, mv: Bus, lv: Bus) -> None:
        """Pairwise short-circuit voltages derived from positive per-winding
        impedances, as a real device shows them, so the star branches stay
        inductive."""
        rng = self.rng
        sn = {"h": rng.uniform(25.0, 63.0), "m": rng.uniform(20.0, 40.0), "l": rng.uniform(5.0, 20.0)}
        x_w = {"h": rng.uniform(0.05, 0.1), "m": rng.uniform(0.01, 0.04), "l": rng.uniform(0.02, 0.05)}
        r_w = {w: x * rng.uniform(0.02, 0.08) for w, x in x_w.items()}

        def pair(a: str, b: str) -> tuple[float, float]:
            scale = min(sn[a], sn[b]) / sn["h"]
            z = complex(r_w[a] + r_w[b], x_w[a] + x_w[b]) * scale
            return 100.0 * abs(z), 100.0 * z.real

        (vk_hm, vkr_hm), (vk_ml, vkr_ml), (vk_hl, vkr_hl) = pair("h", "m"), pair("m", "l"), pair("h", "l")
        self.net.transformers3w.append(
            Transformer3W(
                hv_bus=hv.id,
                mv_bus=mv.id,
                lv_bus=lv.id,
                sn_hv_mva=sn["h"],
                sn_mv_mva=sn["m"],
                sn_lv_mva=sn["l"],
                vn_hv_kv=hv.vn_kv,
                vn_mv_kv=mv.vn_kv * rng.uniform(0.98, 1.05),
                vn_lv_kv=lv.vn_kv * rng.uniform(0.98, 1.05),
                vk_hm_percent=vk_hm,
                vk_ml_percent=vk_ml,
                vk_hl_percent=vk_hl,
                vkr_hm_percent=vkr_hm,
                vkr_ml_percent=vkr_ml,
                vkr_hl_percent=vkr_hl,
            )
        )

    def open_line_switch(self, index: int) -> None:
        ln = self.net.lines[index]
        terminal = self.rng.choice((ln.from_bus, ln.to_bus))
        self.net.switches.append(Switch(bus=terminal, other=ElementRef("line", index), closed=False))


def meshed_grid(seed: int, substations: int = 6, feeders: int = 8, feeder_buses: int = 60) -> Network:
    """Meshed 110/20/10 kV grid, about 3k buses at the defaults.

    A 110 kV ring with two external grids feeds ``substations`` three-
    winding 110/20/10 kV transformers. Each 20 kV busbar is split in two
    halves joined by a closed coupler. ``feeders`` cable feeders of
    ``feeder_buses`` buses leave alternately from both halves, carry a
    converter on every fifth bus and on the last one, and have their ends
    tied pairwise by closed bus-bus switches; a 20 kV line ties each
    substation to the next.
    Each substation also has a short 10 kV tertiary feeder, one open
    bus-element line switch, one closed one, one line and one converter out
    of service, and one feeder bus out of service; no other bus is cut off.
    """
    if substations < 3 or feeders < 6 or feeders % 2 or feeder_buses < 4:
        raise ValueError("need >= 3 substations, an even number >= 6 of feeders, >= 4 buses per feeder")
    rng = random.Random(seed)
    g = _Builder(f"meshed-{substations}x{feeders}x{feeder_buses}-seed{seed}", rng)

    hv = [g.bus(110.0, f"S{s} 110 kV") for s in range(substations)]
    for s in range(substations):
        g.line(hv[s], hv[(s + 1) % substations], rng.uniform(8.0, 25.0), rng.uniform(0.05, 0.12), 0.4)
    g.external_grid(hv[0], rng.uniform(3000.0, 6000.0))
    g.external_grid(hv[substations // 2], rng.uniform(2000.0, 5000.0))

    feeder_lines: list[list[int]] = []
    ends: list[tuple[Bus, Bus]] = []  # (middle bus, end bus) per feeder
    for s in range(substations):
        half_a = g.bus(20.0, f"S{s} 20 kV A")
        half_b = g.bus(20.0, f"S{s} 20 kV B")
        g.net.switches.append(Switch(bus=half_a.id, other=half_b.id, closed=True))
        tertiary = g.bus(10.0, f"S{s} 10 kV")
        g.trafo3w(hv[s], half_a, tertiary)

        upstream = tertiary
        for p in range(4):
            bus = g.bus(10.0, f"S{s} T{p + 1}")
            g.cable(upstream, bus)
            upstream = bus

        first_feeder = len(ends)
        for f in range(feeders):
            upstream = half_a if f % 2 == 0 else half_b
            lines = []
            middle = upstream
            for p in range(feeder_buses):
                bus = g.bus(20.0, f"S{s} F{f + 1} B{p + 1}")
                lines.append(g.cable(upstream, bus))
                if (p + 1) % 5 == 0 or p == feeder_buses - 1:
                    g.converter(bus)
                if p == feeder_buses // 2:
                    middle = bus
                upstream = bus
            feeder_lines.append(lines)
            ends.append((middle, upstream))
        for f in range(first_feeder, first_feeder + feeders, 2):
            g.net.switches.append(Switch(bus=ends[f][1].id, other=ends[f + 1][1].id, closed=True))

    per_sub = feeders
    for s in range(substations):
        a = ends[s * per_sub + per_sub - 1][0]
        b = ends[((s + 1) % substations) * per_sub][0]
        g.line(a, b, rng.uniform(1.0, 4.0), 0.161, 0.117)

    # one of each disturbance per substation, at seeded positions. The three
    # that cut a feeder sit in different tied feeder pairs, so each cut
    # section stays fed from its tied end: only the bus switched out loses
    # supply, and the size of Y never depends on the seed.
    converters_per_sub = len(g.net.converter_sources) // substations
    # positions that may go out of service: not the first, the last (tied)
    # or the middle bus (inter-substation tie)
    inner = [p for p in range(1, feeder_buses - 1) if p != feeder_buses // 2]
    for s in range(substations):
        cut = [s * per_sub + 2 * pair + rng.randrange(2) for pair in rng.sample(range(per_sub // 2), 3)]
        g.open_line_switch(rng.choice(feeder_lines[cut[0]][1:]))
        g.net.lines[rng.choice(feeder_lines[cut[1]][1:])].in_service = False
        g.net.buses[g.net.lines[feeder_lines[cut[2]][rng.choice(inner)]].to_bus - 1].in_service = False
        closed_line = rng.choice(feeder_lines[s * per_sub + rng.randrange(per_sub)])
        g.net.switches.append(
            Switch(bus=g.net.lines[closed_line].to_bus, other=ElementRef("line", closed_line), closed=True)
        )
        g.net.converter_sources[s * converters_per_sub + rng.randrange(converters_per_sub)].in_service = False
    return g.net


LEVELS_KV = (110.0, 20.0, 0.4)


def small_grid(rng: random.Random, index: int, min_buses: int = 3, max_buses: int = 60) -> Network:
    """One small, varied grid: up to three voltage levels, 2W and 3W
    transformers, loops, converters, bus-bus and bus-element switches and
    out-of-service elements. The root bus and its external grid always stay
    in service, so every grid has an energized island."""
    g = _Builder(f"small-{index}", rng)
    n_target = rng.randint(min_buses, max_buses)
    root = g.bus(rng.choice(LEVELS_KV[:2]), "root")
    g.external_grid(root, rng.uniform(100.0, 5000.0))

    while len(g.net.buses) < n_target:
        anchor = rng.choice(g.net.buses)
        roll = rng.random()
        lower = LEVELS_KV[LEVELS_KV.index(anchor.vn_kv) + 1 :]
        if roll < 0.1 and anchor.vn_kv == 110.0 and len(g.net.buses) + 2 <= n_target:
            g.trafo3w(anchor, g.bus(20.0, "3W mv"), g.bus(0.4, "3W lv"))
        elif roll < 0.3 and lower:
            g.trafo2w(anchor, g.bus(rng.choice(lower), "2W lv"))
        else:
            bus = g.bus(anchor.vn_kv, "")
            if anchor.vn_kv == 0.4:
                g.line(anchor, bus, rng.uniform(0.02, 0.4), rng.uniform(0.1, 0.6), rng.uniform(0.07, 0.1))
            else:
                g.cable(anchor, bus)

    by_level: dict[float, list[Bus]] = {}
    for b in g.net.buses:
        by_level.setdefault(b.vn_kv, []).append(b)
    pools = [buses for buses in by_level.values() if len(buses) >= 2]
    if pools:
        for _ in range(rng.randint(0, 2)):
            a, b = rng.sample(rng.choice(pools), 2)
            g.cable(a, b)
        for _ in range(rng.randint(0, 3)):
            a, b = rng.sample(rng.choice(pools), 2)
            g.net.switches.append(Switch(bus=a.id, other=b.id, closed=rng.random() < 0.7))
    for _ in range(rng.randint(0, 2)):
        if g.net.lines:
            g.open_line_switch(rng.randrange(len(g.net.lines)))

    for bus in g.net.buses:
        if rng.random() < 0.3:
            g.converter(bus)
    if rng.random() < 0.3:
        g.external_grid(rng.choice(g.net.buses), rng.uniform(50.0, 2000.0))

    for ln in g.net.lines:
        if rng.random() < 0.05:
            ln.in_service = False
    for cs in g.net.converter_sources:
        if rng.random() < 0.1:
            cs.in_service = False
    for bus in g.net.buses[1:]:
        if rng.random() < 0.04:
            bus.in_service = False
    return g.net
