"""The import boundary: graphlab loads scipy only where it uses it.

``import graphlab`` and every command but ``metric --source`` and
``ray_power:P`` with P > 1 run on numpy alone; those two import scipy
inside the function that needs it, and compute the same numbers.
"""

import os
from pathlib import Path
import subprocess
import sys
import textwrap

import numpy as np
from scipy.special import zeta

import graphlab
from graphlab.families import FamilySpec, make
from graphlab.metrics import path_metric


def _python(code: str, cwd) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this graphlab."""
    src = str(Path(graphlab.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_import_loads_no_scipy(tmp_path):
    proc = _python(
        """
        import sys
        import graphlab, graphlab.cli
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """,
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_commands_run_with_scipy_blocked(tmp_path):
    proc = _python(
        """
        import sys
        sys.modules["scipy"] = None
        from graphlab.cli import main

        commands = [
            ["gen", "--family", "comb", "--levels", "8", "-o", "comb8.json"],
            ["resistance", "--pair", "0:0,8:0", "comb8.json", "-o", "r.json"],
            ["spectrum", "comb8.json", "-o", "eigs.csv"],
            ["heat", "--t", "1", "comb8.json", "-o", "heat.csv"],
            ["dirichlet", "--boundary", "0:0=0,8:0=1", "comb8.json", "-o", "d.csv"],
            ["capacity", "--origin", "0:0", "--ground", "8:0", "comb8.json", "-o", "c.json"],
            ["diagnose", "--family", "comb", "--levels", "8", "-o", "diag.json"],
        ]
        for argv in commands:
            print(argv[0], main(argv))
        """,
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    codes = dict(line.split() for line in proc.stdout.splitlines())
    assert codes == dict.fromkeys(
        ["gen", "resistance", "spectrum", "heat", "dirichlet", "capacity", "diagnose"], "0"
    ), proc.stderr


def test_ray_power_bound_is_scipy_zeta():
    facts = make(FamilySpec("ray_power", (3.0,))).facts
    assert facts.d_diameter_bound == float(zeta(3.0))
    assert facts.inv_b_tail(5) == float(zeta(3.0, 6))


def test_single_source_row_is_the_all_pairs_row():
    g = make(FamilySpec("comb")).build_ball(12).graph
    table = path_metric(g)
    for s in ("0:0", "5:3", "12:0"):
        row = path_metric(g, source=s).dist
        assert row.shape == (1, g.size)
        assert np.array_equal(row[0], table.dist[g.index[s]])
