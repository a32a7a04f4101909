"""A study imports no module beyond the package itself, numpy and scipy's
sparse solvers: in a fresh process, the import time of any other module
would be paid by every command-line run."""
import os
import pathlib
import subprocess
import sys

import sccalc

SRC = pathlib.Path(sccalc.__file__).resolve().parent.parent

STUDY = """
import io, os, sys, tempfile
import numpy
import scipy.sparse.linalg

before = set(sys.modules)
import sccalc

net = sccalc.three_bus_example()
for case in ("max", "min"):
    result = sccalc.calc_sc(net, sccalc.FaultStudyOptions(case=case))
    sccalc.write_result_csv(result, io.StringIO())
    sccalc.write_result_json(result, io.StringIO())
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "grid.json")
    sccalc.save_network(net, path)
    assert sccalc.load_network(path) == net
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_a_study_and_the_file_legs_import_only_the_package():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", STUDY], capture_output=True, text=True, env=env, check=True)
    added = run.stdout.split()
    assert "sccalc.solver" in added and "sccalc.gridfile" in added
    assert [name for name in added if name != "sccalc" and not name.startswith("sccalc.")] == []
