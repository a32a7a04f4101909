"""Every exported name list of the package holds only names that exist."""
import importlib
import pkgutil

import pytest

import sccalc

MODULES = ["sccalc"] + [
    f"sccalc.{info.name}"
    for info in pkgutil.iter_modules(sccalc.__path__)
    if hasattr(importlib.import_module(f"sccalc.{info.name}"), "__all__")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_names_that_exist_once(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    exec(f"from {name} import *", {})

