"""Every consumer of one run sees the same events.

Profiling, tracing, stats, validation and a recorder attached to one
real run -- ungoverned, and governed, where the runtime flushes about
one batch per task -- must agree event for event: the same count
everywhere, and each thread's recorded event records equal to that
thread's trace stream.
"""

import pytest

from repro.analysis import run_app
from repro.events.model import (
    EnterEvent,
    ExitEvent,
    TaskBeginEvent,
    TaskEndEvent,
    TaskSwitchEvent,
)
from repro.governor import MemoryBudget
from repro.recorder.chunks import read_records
from repro.recorder.store import events_path
from repro.substrates import RecorderSubstrate

EVENT_KINDS = ("enter", "exit", "task_begin", "task_end", "task_switch")


def _from_record(record):
    """(kind, time, region name, instance, parameter) of a recorded event."""
    kind, _thread, time, *rest = record
    if kind == "enter":
        return kind, time, rest[0].name, None, rest[1]
    if kind == "exit":
        return kind, time, rest[0].name, None, None
    if kind == "task_begin":
        return kind, time, rest[0].name, rest[1], rest[2]
    if kind == "task_end":
        return kind, time, rest[0].name, rest[1], None
    return kind, time, None, rest[0], None


def _from_event(event):
    """The same key for a traced event object."""
    if isinstance(event, EnterEvent):
        return "enter", event.time, event.region.name, None, event.parameter
    if isinstance(event, ExitEvent):
        return "exit", event.time, event.region.name, None, None
    if isinstance(event, TaskBeginEvent):
        return "task_begin", event.time, event.region.name, event.instance, event.parameter
    if isinstance(event, TaskEndEvent):
        return "task_end", event.time, event.region.name, event.instance, None
    assert isinstance(event, TaskSwitchEvent)
    return "task_switch", event.time, None, event.instance, None


@pytest.mark.parametrize("n_threads", [2, 4])
@pytest.mark.parametrize("budget", [None, 4], ids=["ungoverned", "governed"])
@pytest.mark.parametrize("app", ["fib", "nqueens"])
def test_all_consumers_see_the_same_events(tmp_path, app, budget, n_threads):
    record_dir = str(tmp_path / "rec")
    recorder = RecorderSubstrate(record_dir)
    result = run_app(
        app, size="test", n_threads=n_threads, seed=0,
        substrates=("profiling", "tracing", "stats", "validation", recorder),
        memory_budget=MemoryBudget(max_live_instances=budget) if budget else None,
    )
    parallel = result.parallel
    artifacts = parallel.substrate_artifacts
    events = parallel.events_dispatched
    assert events > 0
    assert parallel.trace.total_events() == events
    assert artifacts["stats"]["total_events"] == events
    assert artifacts["validation"]["events_checked"] == events
    assert artifacts["validation"]["clean"] is True
    metrics = artifacts["stats"]["per_kind"]["metric"]
    # every event and metric row, plus the phase_begin/phase_end pair
    assert recorder.records == events + metrics + 2

    records = read_records(events_path(record_dir)).records
    for thread_id, stream in enumerate(parallel.trace.streams):
        recorded = [
            _from_record(r) for r in records if r[0] in EVENT_KINDS and r[1] == thread_id
        ]
        assert recorded == [_from_event(e) for e in stream], thread_id
