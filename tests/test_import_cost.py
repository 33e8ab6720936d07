"""Import-cost gate: runs that never compute with numpy never import it.

Only the fft, sparselu and strassen kernels compute with numpy, and
kernels load on their first ``get_program``.  So importing the CLI, the
campaign harness, the gateway and the experiment driver, running fib and
nqueens through them, fanning a fib run out to every consumer substrate
plus the recorder, replay-verifying that recording and querying its cube
must all leave numpy unloaded.  Checked in a fresh interpreter: the test
process itself has long imported numpy.
"""

import os
import subprocess
import sys

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

SCRIPT = """
import sys
import tempfile

import repro.analysis.experiment
import repro.cli
import repro.faults.campaign
import repro.service
from repro.analysis.experiment import run_app
from repro.archive.store import content_hash
from repro.bots.registry import get_program
from repro.cube import flat_region_profile, top_regions
from repro.faults.campaign import run_tolerant
from repro.recorder import verify_recording
from repro.substrates.recorder import RecorderSubstrate

run_app("fib", size="test", n_threads=2)
run_tolerant("nqueens", size="test")
assert "numpy" not in sys.modules, "fib/nqueens runs loaded numpy"

with tempfile.TemporaryDirectory() as record_dir:
    profile = run_app(
        "fib", size="test", n_threads=2,
        substrates=("profiling", "tracing", "stats", "validation",
                    RecorderSubstrate(record_dir)),
    ).profile
    assert verify_recording(record_dir, expected_sha=content_hash(profile)).matched
top_regions(profile)
flat_region_profile(profile)
assert "numpy" not in sys.modules, "fan-out, verify or cube queries loaded numpy"

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
