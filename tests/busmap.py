"""Dict view of the builder's per-bus arrays, for readable assertions."""


def by_bus_id(net, column) -> dict[int, int]:
    """{bus id: value} of an integer array aligned with ``net.buses``
    (``fusion(net).node``, ``BusBranchModel.bus_index``), without the
    buses that hold -1."""
    return {bus.id: value for bus, value in zip(net.buses, column.tolist()) if value >= 0}


def fusion(net):
    """The switch fusion of a valid ``net``: ``node`` from
    ``builder.fuse_switches``, and the ``terminals``, ``live`` and
    ``windings`` of the typed read's elements."""
    from types import SimpleNamespace

    from sccalc.builder import fuse_switches
    from sccalc.model import _Tables

    tables = _Tables(net)
    if not tables.ok:
        tables.coerce()
    terminals, live, windings, ties = tables.elements()
    return SimpleNamespace(node=fuse_switches(tables, ties), terminals=terminals, live=live, windings=windings)
