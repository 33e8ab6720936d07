"""The supervisor imports each fault cell's kernel before its first fork.

Kernels load lazily, so without the preload every fresh worker would
import its kernel (and numpy, for sparselu/fft/strassen) on its first
cell.  Each check runs in a fresh interpreter, so ``sys.modules`` shows
what the supervisor's own process imported.
"""

import os
import subprocess
import sys

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))


def _run_fresh(body):
    script = (
        "import sys\n"
        "from repro.supervisor import Supervisor, fault_grid\n" + body + "\n"
        "print('ok')\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().endswith("ok")


def test_parent_imports_the_kernel_before_forking():
    _run_fresh(
        "report = Supervisor(fault_grid(['sparselu'], ['none'], [0], size='test'),"
        " jobs=1).run()\n"
        "assert [r.outcome for r in report.results] == ['ok'], report.results\n"
        "assert 'repro.bots.sparselu' in sys.modules, 'kernel not preloaded'"
    )


def test_fib_only_grid_leaves_numpy_unloaded():
    _run_fresh(
        "report = Supervisor(fault_grid(['fib'], ['none'], [0, 1], size='test'),"
        " jobs=1).run()\n"
        "assert [r.outcome for r in report.results] == ['ok', 'ok'], report.results\n"
        "assert 'repro.bots.fib' in sys.modules\n"
        "assert 'numpy' not in sys.modules, 'fib grid loaded numpy'"
    )


def test_unknown_app_fails_as_its_own_error_cell():
    _run_fresh(
        "report = Supervisor(fault_grid(['nope'], ['none'], [0], size='test'),"
        " jobs=1).run()\n"
        "[cell] = report.results\n"
        "assert cell.outcome == 'error', cell\n"
        "assert cell.error.startswith('KeyError'), cell\n"
        "assert \"unknown BOTS kernel 'nope'; available:\" in cell.error, cell"
    )
