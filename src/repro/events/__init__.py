"""Event model: source-code regions, measurement events, event streams.

This subpackage is the vocabulary shared by the simulated runtime, the
instrumentation layer, and the profiler.  It mirrors the POMP2/Score-P
event model the paper builds on:

* :class:`~repro.events.regions.Region` -- a handle for a source-code
  region (function, parallel region, task construct, task-creation region,
  taskwait, barrier, ...), interned by a
  :class:`~repro.events.regions.RegionRegistry`.
* Event records (:mod:`repro.events.model`) -- ``Enter``/``Exit`` for
  regions plus the task events ``TaskBegin``/``TaskEnd``/``TaskSwitch``
  introduced for task-instance tracking (paper Section IV, Fig. 12).
* :class:`~repro.events.stream.EventStream` -- the per-thread event log.
* :mod:`repro.events.validate` -- checks the enter/exit nesting condition
  and the task-aware consistency rules; the classic validator rejects
  exactly the interleaved streams of the paper's Fig. 2.
"""

from repro.events.regions import Region, RegionRegistry, RegionType
from repro.events.model import (
    EnterEvent,
    Event,
    ExitEvent,
    TaskBeginEvent,
    TaskCreateBeginEvent,
    TaskCreateEndEvent,
    TaskEndEvent,
    TaskSwitchEvent,
)
from repro.events.stream import EventStream, ProgramTrace
from repro.events.validate import (
    TaskStreamChecker,
    Violation,
    collect_nesting_violations,
    collect_task_stream_violations,
    collect_trace_violations,
    validate_nesting,
    validate_program_trace,
    validate_task_stream,
)
from repro.events.repair import (
    RepairLog,
    RepairResult,
    repair_stream,
    repair_streams,
)

__all__ = [
    "Region",
    "RegionRegistry",
    "RegionType",
    "Event",
    "EnterEvent",
    "ExitEvent",
    "TaskBeginEvent",
    "TaskEndEvent",
    "TaskSwitchEvent",
    "TaskCreateBeginEvent",
    "TaskCreateEndEvent",
    "EventStream",
    "ProgramTrace",
    "TaskStreamChecker",
    "Violation",
    "validate_nesting",
    "validate_task_stream",
    "validate_program_trace",
    "collect_nesting_violations",
    "collect_task_stream_violations",
    "collect_trace_violations",
    "RepairLog",
    "RepairResult",
    "repair_stream",
    "repair_streams",
]
