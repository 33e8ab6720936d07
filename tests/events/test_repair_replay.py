"""Stream repair and replay: the offline half of the salvage pipeline."""

from types import SimpleNamespace

import pytest

from repro.analysis.experiment import run_app
from repro.errors import StreamRepairError
from repro.events import (
    EnterEvent,
    ExitEvent,
    ProgramTrace,
    RegionRegistry,
    RegionType,
    TaskBeginEvent,
    TaskCreateBeginEvent,
    TaskCreateEndEvent,
    TaskEndEvent,
    TaskSwitchEvent,
    repair_stream,
    repair_streams,
)
from repro.events.model import implicit_instance_id
from repro.events.validate import collect_task_stream_violations, collect_trace_violations
from repro.faults import campaign
from repro.faults.plan import plan_for_mode
from repro.profiling.task_profiler import TaskProfiler, ThreadTaskProfiler

IMPL = implicit_instance_id(0)


@pytest.fixture()
def regions():
    reg = RegionRegistry()
    return {
        "task": reg.register("taskA", RegionType.TASK),
        "foo": reg.register("foo", RegionType.FUNCTION),
    }


def clean_stream(regions):
    task = regions["task"]
    return [
        EnterEvent(0, 0.0, IMPL, regions["foo"]),
        TaskBeginEvent(0, 1.0, 1, task, instance=1),
        TaskEndEvent(0, 2.0, 1, task, instance=1),
        ExitEvent(0, 3.0, IMPL, regions["foo"]),
    ]


def assert_consistent(events):
    """The repaired stream must satisfy the strict task-aware rules."""
    _, violations = collect_task_stream_violations(events, thread_id=0)
    assert violations == []


def test_clean_stream_passes_through_untouched(regions):
    events = clean_stream(regions)
    result = repair_stream(events, thread_id=0)
    assert result.events == events
    assert not result.log.touched
    assert result.log.summary() == "stream clean: no repairs needed"


def test_clock_skew_is_clamped_monotone(regions):
    foo = regions["foo"]
    events = [
        EnterEvent(0, 5.0, IMPL, foo),
        ExitEvent(0, 3.0, IMPL, foo),  # skewed backwards
    ]
    result = repair_stream(events, thread_id=0)
    times = [e.time for e in result.events]
    assert times == sorted(times)
    assert result.log.clamped == 1
    assert_consistent(result.events)


def test_duplicate_lifecycle_events_are_dropped(regions):
    task = regions["task"]
    events = [
        TaskBeginEvent(0, 1.0, 1, task, instance=1),
        TaskBeginEvent(0, 1.5, 1, task, instance=1),  # duplicated
        TaskEndEvent(0, 2.0, 1, task, instance=1),
        TaskEndEvent(0, 2.5, 1, task, instance=1),    # duplicated
    ]
    result = repair_stream(events, thread_id=0)
    assert result.log.dropped == 2
    assert 1 in result.log.quarantined
    assert_consistent(result.events)


def test_missing_switch_is_synthesized(regions):
    task = regions["task"]
    events = [
        TaskBeginEvent(0, 1.0, 1, task, instance=1),
        TaskBeginEvent(0, 2.0, 2, task, instance=2),
        # the TaskSwitch back to instance 1 was lost:
        TaskEndEvent(0, 3.0, 1, task, instance=1),
        TaskSwitchEvent(0, 4.0, 2, instance=2),
        TaskEndEvent(0, 5.0, 2, task, instance=2),
    ]
    result = repair_stream(events, thread_id=0)
    kinds = [type(e).__name__ for e in result.events]
    assert kinds.count("TaskSwitchEvent") == 2  # one synthesized
    assert result.log.synthesized == 1
    assert_consistent(result.events)


def test_truncated_stream_gets_synthesized_closure(regions):
    task, foo = regions["task"], regions["foo"]
    events = [
        TaskBeginEvent(0, 1.0, 1, task, instance=1),
        EnterEvent(0, 2.0, 1, foo),
        # ... truncated: no exit, no TaskEnd
    ]
    result = repair_stream(events, thread_id=0)
    assert isinstance(result.events[-1], TaskEndEvent)
    assert result.log.synthesized == 2  # exit foo + TaskEnd
    assert "synthesized TaskEnd for instance 1" in result.log.notes
    assert_consistent(result.events)


def test_exit_for_never_entered_region_is_dropped(regions):
    events = [ExitEvent(0, 1.0, IMPL, regions["foo"])]
    result = repair_stream(events, thread_id=0)
    assert result.events == []
    assert result.log.dropped == 1


def test_unknown_event_type_is_unrepairable(regions):
    with pytest.raises(StreamRepairError, match="SimpleNamespace"):
        repair_stream([SimpleNamespace(time=1.0)], thread_id=0)
    with pytest.raises(StreamRepairError, match="SimpleNamespace"):
        repair_stream(clean_stream(regions) + [SimpleNamespace(time=9.0)])


def test_repair_streams_merges_per_thread_logs(regions):
    task = regions["task"]
    impl1 = implicit_instance_id(1)
    streams = {
        0: [TaskEndEvent(0, 1.0, 9, task, instance=9)],  # orphan end
        1: [ExitEvent(1, 1.0, impl1, regions["foo"])],   # orphan exit
    }
    repaired, log = repair_streams(streams)
    assert repaired == []
    assert log.dropped == 2
    assert log.quarantined == {9}
    assert log.events_in == 2 and log.events_out == 0


def test_untied_resume_is_no_orphan_and_closes_where_it_resumed(regions):
    """One instance table serves all threads: an instance suspended on
    thread 0 may resume on thread 1, and if thread 1's stream ends
    inside it, it is closed there, after every event."""
    task, foo = regions["task"], regions["foo"]
    streams = {
        0: [
            TaskBeginEvent(0, 1.0, 1, task, instance=1),
            EnterEvent(0, 1.5, 1, foo),
            TaskSwitchEvent(0, 2.0, IMPL, instance=IMPL),
            EnterEvent(0, 5.0, IMPL, foo),
            ExitEvent(0, 6.0, IMPL, foo),
        ],
        1: [
            TaskSwitchEvent(1, 3.0, 1, instance=1),
            ExitEvent(1, 4.0, 1, foo),  # truncated: no TaskEnd
        ],
    }
    repaired, log = repair_streams(streams)
    walk = [*streams[0][:3], *streams[1], *streams[0][3:]]
    assert repaired == walk + [TaskEndEvent(1, 4.0, 1, task, instance=1)]
    assert (log.dropped, log.synthesized, log.quarantined) == (0, 1, set())
    assert log.notes == ["synthesized TaskEnd for instance 1"]


STREAM_FAULTS = (
    "drop_events", "duplicate_events", "reorder_events", "truncate_stream",
    "clock_skew",
)


@pytest.mark.parametrize("n_threads", [2, 4])
@pytest.mark.parametrize("mode", STREAM_FAULTS)
@pytest.mark.parametrize("app", ["fib", "nqueens", "sort"])
def test_repaired_trace_is_consistent_and_a_fixed_point(app, mode, n_threads):
    """Split back per thread, a repaired faulted trace passes the
    whole-trace validator, and repairing it again changes nothing."""
    for seed in range(3):
        result = run_app(
            app, size="test", n_threads=n_threads, seed=seed,
            substrates=("profiling", "tracing"),
            fault_plan=plan_for_mode(mode, seed=seed),
        )
        trace = result.parallel.trace
        events, _ = repair_streams({s.thread_id: s for s in trace.streams})
        repaired = ProgramTrace(trace.n_threads, trace.registry)
        for event in events:
            repaired.record(event)  # per-thread time order is checked here
        violations = collect_trace_violations(repaired)
        assert violations == [], (seed, [str(v) for v in violations[:5]])
        _, again = repair_streams({s.thread_id: s for s in repaired.streams})
        assert not again.touched, (seed, again.summary())


def _record_salvage_calls(monkeypatch):
    """Make every profiler log each per-thread handler call it makes, and
    its finish; return the (live) list of calls.

    Only outermost handler calls are logged: ``task_begin`` and
    ``task_end`` switch tasks internally, which is not an event.
    """
    calls = []
    depth = [0]
    for kind in ("enter", "exit", "task_begin", "task_end", "task_switch"):
        handler = getattr(ThreadTaskProfiler, kind)

        def record(self, *call, _kind=kind, _handler=handler):
            if not depth[0]:
                calls.append(
                    (_kind, self.thread_id) + tuple(getattr(a, "name", a) for a in call)
                )
            depth[0] += 1
            try:
                return _handler(self, *call)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(ThreadTaskProfiler, kind, record)
    on_finish = TaskProfiler.on_finish

    def finish(self, time):
        calls.append(("finish", time))
        on_finish(self, time)

    monkeypatch.setattr(TaskProfiler, "on_finish", finish)
    return calls


def test_replay_dispatches_in_order_and_finishes(monkeypatch):
    """Salvage hands the lenient profiler the repaired trace as one batch
    in global order -- ties by thread id, then stream position; create
    brackets as plain enter/exit -- then finishes at the last event's
    time, or at ``finish_time`` when given."""
    reg = RegionRegistry()
    implicit = reg.register("parallel", RegionType.IMPLICIT_TASK)
    foo = reg.register("foo", RegionType.FUNCTION)
    task = reg.register("taskA", RegionType.TASK)
    create = reg.register("create@taskA", RegionType.TASK_CREATE)
    trace = ProgramTrace(2, reg)
    for event in (
        EnterEvent(0, 0.0, IMPL, foo),
        TaskCreateBeginEvent(0, 1.0, IMPL, create, created_instance=1),
        TaskCreateEndEvent(0, 1.0, IMPL, create, created_instance=1),
        ExitEvent(0, 4.0, IMPL, foo),
        TaskBeginEvent(1, 1.0, 1, task, instance=1),
        TaskEndEvent(1, 2.0, 1, task, instance=1),
    ):
        trace.record(event)

    calls = _record_salvage_calls(monkeypatch)
    _, report = campaign.salvage_profile_from_trace(trace, implicit)
    assert calls == [
        ("enter", 0, "foo", 0.0, None),
        ("enter", 0, "create@taskA", 1.0, None),
        ("exit", 0, "create@taskA", 1.0),
        ("task_begin", 1, "taskA", 1, 1.0, None),
        ("task_end", 1, "taskA", 1, 2.0),
        ("exit", 0, "foo", 4.0),
        ("finish", 4.0),
    ]
    assert (report.events_dropped, report.events_repaired) == (0, 0)

    calls.clear()
    campaign.salvage_profile_from_trace(trace, implicit, finish_time=10.0)
    assert calls[-1] == ("finish", 10.0)


def test_salvage_finishes_at_latest_event_after_trailing_closures(monkeypatch):
    """A thread truncated inside a task is closed after every event, on
    its own thread at its own last time; salvage still finishes at the
    latest event time of the trace, not at the last closure's."""
    impl1 = implicit_instance_id(1)
    reg = RegionRegistry()
    implicit = reg.register("parallel", RegionType.IMPLICIT_TASK)
    foo = reg.register("foo", RegionType.FUNCTION)
    task = reg.register("taskA", RegionType.TASK)
    trace = ProgramTrace(2, reg)
    for event in (
        TaskBeginEvent(0, 1.0, 1, task, instance=1),
        EnterEvent(0, 2.0, 1, foo),  # truncated: no exit, no TaskEnd
        EnterEvent(1, 0.0, impl1, foo),
        ExitEvent(1, 9.0, impl1, foo),
    ):
        trace.record(event)
    calls = _record_salvage_calls(monkeypatch)
    _, report = campaign.salvage_profile_from_trace(trace, implicit)
    assert calls == [
        ("enter", 1, "foo", 0.0, None),
        ("task_begin", 0, "taskA", 1, 1.0, None),
        ("enter", 0, "foo", 2.0, None),
        ("exit", 1, "foo", 9.0),
        ("exit", 0, "foo", 2.0),
        ("task_end", 0, "taskA", 1, 2.0),
        ("finish", 9.0),
    ]
    assert report.events_repaired == 2


def test_replay_trace_merges_thread_streams(monkeypatch):
    """Salvage interleaves the per-thread streams by time before the
    profiler sees them, and finishes at ``finish_time``."""
    impl1 = implicit_instance_id(1)
    reg = RegionRegistry()
    implicit = reg.register("parallel", RegionType.IMPLICIT_TASK)
    foo = reg.register("foo", RegionType.FUNCTION)
    trace = ProgramTrace(2, reg)
    for event in (
        EnterEvent(0, 0.0, IMPL, foo),
        ExitEvent(0, 4.0, IMPL, foo),
        EnterEvent(1, 1.0, impl1, foo),
        ExitEvent(1, 2.0, impl1, foo),
    ):
        trace.record(event)
    calls = _record_salvage_calls(monkeypatch)
    campaign.salvage_profile_from_trace(trace, implicit, finish_time=10.0)
    times = [call[-1] if call[0] != "enter" else call[-2] for call in calls]
    assert times == [0.0, 1.0, 2.0, 4.0, 10.0]
    assert [call[1] for call in calls[:-1]] == [0, 1, 1, 0]
