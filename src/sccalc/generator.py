"""Synthetic radial MV grids for case studies and benchmarks."""
from __future__ import annotations

import random

from .model import Bus, ConverterSource, ExternalGrid, Line, Network, Transformer2W

__all__ = ["generate_radial_grid"]


def generate_radial_grid(
    feeders: int,
    buses_per_feeder: int,
    dg_every: int = 0,
    seed: int = 0,
) -> Network:
    """Radially operated distribution grid: one 110 kV external grid, one
    HV/MV transformer and ``feeders`` 20 kV feeders of ``buses_per_feeder``
    cable-connected buses each.

    A converter source sits on every ``dg_every``-th feeder bus
    (``dg_every=0`` places none). Line lengths are drawn once per feeder
    position and shared across feeders, so without DG every feeder behaves
    identically; converter ratings are drawn individually, so with DG the
    feeders differ. The same seed always yields the identical network.

    An out-of-range size raises ValueError; its message starts with the
    parameter name.
    """
    sizes = (("feeders", feeders, 1), ("buses_per_feeder", buses_per_feeder, 1), ("dg_every", dg_every, 0))
    for name, value, least in sizes:
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value!r}")

    rng = random.Random(seed)
    net = Network(name=f"radial-{feeders}x{buses_per_feeder}-seed{seed}")

    hv = Bus(1, 110.0, "HV grid connection")
    mv = Bus(2, 20.0, "MV busbar")
    net.buses += [hv, mv]
    net.external_grids.append(
        ExternalGrid(bus=hv.id, s_sc_max_mva=3000.0, s_sc_min_mva=2400.0, rx_max=0.1, rx_min=0.1)
    )
    net.transformers2w.append(
        Transformer2W(
            hv_bus=hv.id,
            lv_bus=mv.id,
            sn_mva=40.0,
            vn_hv_kv=110.0,
            vn_lv_kv=20.0,
            vk_percent=12.0,
            vkr_percent=0.45,
        )
    )

    segment_lengths = [rng.uniform(0.5, 2.0) for _ in range(buses_per_feeder)]

    next_id = 3
    for f in range(feeders):
        upstream = mv.id
        for p in range(buses_per_feeder):
            bus = Bus(next_id, 20.0, f"Feeder {f + 1} Bus {p + 1}")
            next_id += 1
            net.buses.append(bus)
            net.lines.append(
                Line(
                    from_bus=upstream,
                    to_bus=bus.id,
                    length_km=segment_lengths[p],
                    r_ohm_per_km=0.161,
                    x_ohm_per_km=0.117,
                    endtemp_degc=90.0,
                )
            )
            if dg_every and (p + 1) % dg_every == 0:
                net.converter_sources.append(
                    ConverterSource(bus=bus.id, sn_mva=rng.uniform(0.4, 2.0), k=1.0)
                )
            upstream = bus.id

    return net
