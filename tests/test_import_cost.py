"""Import-cost gate: runs that never compute with numpy never import it.

Kernels load on their first ``get_program`` and the two numpy users
outside the kernels (``cube.query``, ``substrates.stats``) import it
inside the function that computes with it, so importing the CLI, the
campaign harness, the gateway and the experiment driver -- and running
fib and nqueens through them -- must leave numpy unloaded.  Checked in
a fresh interpreter: the test process itself has long imported numpy.
"""

import os
import subprocess
import sys

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

SCRIPT = """
import sys

import repro.analysis.experiment
import repro.cli
import repro.faults.campaign
import repro.service
from repro.analysis.experiment import run_app
from repro.bots.registry import get_program
from repro.faults.campaign import run_tolerant

run_app("fib", size="test", n_threads=2)
run_tolerant("nqueens", size="test")
assert "numpy" not in sys.modules, "fib/nqueens runs loaded numpy"

get_program("sparselu", size="test")
assert "numpy" in sys.modules, "sparselu built without numpy"
print("ok")
"""


def test_fib_and_nqueens_runs_never_import_numpy():
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
