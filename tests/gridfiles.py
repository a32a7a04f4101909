"""Version 1 grid documents, one object per element, which ``sccalc``
still reads but no longer writes."""
from sccalc.gridfile import network_to_dict


def to_v1(doc: dict) -> dict:
    """The version 1 form of a version 2 grid document: each section's
    field columns turned into one object per element, with the fields the
    columns hold."""
    doc = {**doc, "version": 1}
    for section, columns in doc.items():
        if isinstance(columns, dict):
            doc[section] = [dict(zip(columns, values)) for values in zip(*columns.values())]
    return doc


def network_to_v1_dict(net) -> dict:
    return to_v1(network_to_dict(net))
