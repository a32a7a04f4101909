"""Dict view of the builder's per-bus arrays, for readable assertions."""


def by_bus_id(net, column) -> dict[int, int]:
    """{bus id: value} of an integer array aligned with ``net.buses``
    (``SwitchFusion.node``, ``BusBranchModel.bus_index``), without the
    buses that hold -1."""
    return {bus.id: value for bus, value in zip(net.buses, column.tolist()) if value >= 0}
