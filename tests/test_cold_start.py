"""Which libraries each run imports, seen from a fresh interpreter.

pytest has scipy loaded already, so each check runs a new Python process
with ``PYTHONPATH=src`` and reads its ``sys.modules``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

# runs the CLI on each argument list, then prints the scipy modules loaded
PROBE = """
import json, sys
import cfcontrol, cfcontrol.cli
for argv in json.loads(sys.argv[1]):
    status = cfcontrol.cli.main(argv)
    assert status == 0, (argv, status)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


# builds the dense table of a Jordan-block family, which has no eigenbasis,
# then prints the scipy modules loaded
JORDAN_PROBE = """
import json, sys
import numpy as np
from cfcontrol import (DenseMatrixFamily, FractionalOrder, TimeGrid,
                       build_propagator)
fam = DenseMatrixFamily(
    lambda tau: np.array([[1.0, 1.0], [0.0, 1.0]])
    + np.multiply.outer(0.2 * np.sin(tau), [[0.0, 1.0], [0.0, 0.0]]), 2)
build_propagator(fam, TimeGrid(FractionalOrder(0.75), 0.4, 1.4, 201))
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def scipy_loaded_by(runs, probe=PROBE):
    """The scipy modules a fresh interpreter holds after the probe runs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", probe, json.dumps(runs)],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    # the first lines are whatever the runs printed
    return proc.stdout.splitlines()[:-1], set(
        json.loads(proc.stdout.splitlines()[-1]))


def test_spectral_runs_import_no_scipy(tmp_path):
    demo = str(CONFIGS / "heat_null_control.cfg")
    _, loaded = scipy_loaded_by([
        ["control", "--config", demo, "--out", str(tmp_path / "control")],
        ["solve", "--config", demo, "--out", str(tmp_path / "solve")],
        ["verify", "--config", str(CONFIGS / "verify_gamma.cfg"),
         "--out", str(tmp_path / "verify")]])
    assert loaded == set()


def test_dense_runs_import_no_scipy(tmp_path):
    # the frozen exponentials and the dense solves are numpy
    dense_control = tmp_path / "dense_control.cfg"
    dense_control.write_text(
        "schema_version = 1\nalpha = 0.8\ntau_start = 0\ntau_end = 1\n"
        "n_nodes = 41\nbackend = dense_matrix\n"
        "dense_family = coupled_3x3 0.5\nnonlinearity = linear 0.05\n"
        "x0 = ones 1.0\n")
    _, loaded = scipy_loaded_by([
        ["evolve", "--config", str(CONFIGS / "dense_evolve.cfg"),
         "--dump-pair", "100", "0", "--out", str(tmp_path / "evolve")],
        ["control", "--config", str(dense_control),
         "--out", str(tmp_path / "control")]])
    assert loaded == set()


def test_defective_dense_table_imports_no_scipy():
    # every family takes the one scaling-and-squaring route, so a family
    # without an eigenbasis loads no exponential from scipy.linalg
    _, loaded = scipy_loaded_by([], probe=JORDAN_PROBE)
    assert loaded == set()


def test_specfun_imports_no_scipy():
    # both functions by both methods: the quadrature is numpy's
    runs = []
    for method in ("reduction", "quadrature"):
        runs += [["specfun", "gamma", "--alpha", "0.5", "--k", "1", "--p", "2",
                  "--method", method],
                 ["specfun", "beta", "--alpha", "0.5", "--k", "1",
                  "--x", "0.5", "--y", "0.5", "--method", method]]
    printed, loaded = scipy_loaded_by(runs)
    # gamma_{1/2,1}(2) = (1/2)**2 * Gamma(3) = 0.5 and
    # beta_{1/2,1}(1/2, 1/2) = 1 / (k alpha**2) = 4
    assert printed == ["0.500000000000", "4.000000000000"] * 2
    assert loaded == set()
