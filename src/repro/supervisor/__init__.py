"""Crash-safe supervised execution of run grids.

The evaluation is a large sweep -- BOTS kernels x configs x seeds
(Figs. 13-15, Tables I-II), the ``repro faults`` campaign, paper-table
regeneration -- and a single hung kernel, OOM, or Ctrl-C must not lose
the whole grid.  This subpackage is the robustness layer between "run
one cell" and "run thousands of cells unattended":

* :mod:`~repro.supervisor.spec` -- serializable :class:`RunSpec` cells
  and grid builders (:func:`fault_grid`, :func:`call_cell`).
* :mod:`~repro.supervisor.worker` -- the subprocess entry point;
  enforces the *wall-clock* watchdog (``RuntimeConfig.wall_timeout_s``)
  via ``SIGALRM``, which the virtual-time ``watchdog_us`` cannot do for
  a kernel stuck without advancing virtual time.
* :mod:`~repro.supervisor.backoff` -- exponential retry pacing with
  deterministic, seeded jitter.
* :mod:`~repro.supervisor.journal` -- the append-only, fsync'd JSONL
  write-ahead journal that makes campaigns resumable after SIGKILL.
* :mod:`~repro.supervisor.supervisor` -- the orchestration loop:
  parallel workers (``jobs``), deadline enforcement, retry
  classification (transient ``crash``/``timeout``/``oom``/``stuck`` vs
  deterministic ``error``), graceful Ctrl-C drain, ``resume``, plus the
  optional :mod:`repro.fabric` layers: heartbeat liveness, per-class
  circuit breakers, admission control, and campaign deadlines.

Surfaced as ``repro supervise`` on the CLI and as the
``supervised=True`` path of :func:`repro.faults.run_campaign`.
"""

from repro.supervisor.backoff import FAST_BACKOFF, BackoffPolicy
from repro.supervisor.journal import (
    JOURNAL_VERSION,
    RESUMABLE_OUTCOMES,
    RETRYABLE_OUTCOMES,
    TERMINAL_OUTCOMES,
    Journal,
    JournalState,
    cell_payload,
    load_journal,
)
from repro.supervisor.salvage import SALVAGEABLE_OUTCOMES, attempt_cell_salvage
from repro.supervisor.spec import (
    RunSpec,
    call_cell,
    fault_cell,
    fault_grid,
    load_spec_file,
    spec_from_dict,
)
from repro.supervisor.supervisor import (
    CellResult,
    Supervisor,
    SupervisorReport,
    outcome_table,
    run_supervised,
)
from repro.supervisor.worker import execute_spec, run_fault_cell, wall_clock_guard

__all__ = [
    "BackoffPolicy",
    "FAST_BACKOFF",
    "Journal",
    "JournalState",
    "cell_payload",
    "load_journal",
    "JOURNAL_VERSION",
    "RESUMABLE_OUTCOMES",
    "RETRYABLE_OUTCOMES",
    "TERMINAL_OUTCOMES",
    "SALVAGEABLE_OUTCOMES",
    "attempt_cell_salvage",
    "RunSpec",
    "call_cell",
    "fault_cell",
    "fault_grid",
    "load_spec_file",
    "spec_from_dict",
    "CellResult",
    "Supervisor",
    "SupervisorReport",
    "outcome_table",
    "run_supervised",
    "execute_spec",
    "run_fault_cell",
    "wall_clock_guard",
]
