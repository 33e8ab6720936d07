"""Validator edge cases: exact error types and offending event indices.

Covers the corner inputs the salvage work leans on: empty streams,
duplicated lifecycle events, switches to instances that never began, and
tied tasks resuming on a foreign thread.  Each strict failure must name
the offending event's index in its message so a corrupt trace is
debuggable from the exception alone.
"""

import pytest

from repro.errors import EventOrderError, ValidationError
from repro.events import (
    EnterEvent,
    ExitEvent,
    RegionRegistry,
    RegionType,
    TaskBeginEvent,
    TaskEndEvent,
    TaskSwitchEvent,
    validate_nesting,
    validate_task_stream,
)
from repro.events.batch import K_TASK_BEGIN, K_TASK_SWITCH
from repro.events.model import implicit_instance_id
from repro.events.stream import ProgramTrace
from repro.events.validate import (
    TaskStreamChecker,
    Violation,
    collect_nesting_violations,
    collect_task_stream_violations,
    collect_trace_violations,
    validate_program_trace,
)

IMPL = implicit_instance_id(0)


@pytest.fixture()
def regions():
    reg = RegionRegistry()
    return {
        "task": reg.register("taskA", RegionType.TASK),
        "foo": reg.register("foo", RegionType.FUNCTION),
    }


def test_empty_stream_is_valid_everywhere():
    validate_nesting([])
    states = validate_task_stream([], thread_id=0)
    assert set(states) == {IMPL}  # only the implicit task exists
    assert collect_nesting_violations([]) == []
    _, violations = collect_task_stream_violations([], thread_id=0)
    assert violations == []
    validate_program_trace(ProgramTrace(2))
    assert collect_trace_violations(ProgramTrace(2)) == []


def test_duplicate_task_end_names_type_and_index(regions):
    events = [
        TaskBeginEvent(0, 1.0, 1, regions["task"], instance=1),
        TaskEndEvent(0, 2.0, 1, regions["task"], instance=1),
        TaskEndEvent(0, 3.0, 1, regions["task"], instance=1),  # duplicate
    ]
    with pytest.raises(
        ValidationError, match=r"event #2: task_end for instance 1"
    ):
        validate_task_stream(events, thread_id=0)


def test_switch_to_never_begun_instance_names_type_and_index(regions):
    events = [
        TaskBeginEvent(0, 1.0, 1, regions["task"], instance=1),
        TaskEndEvent(0, 2.0, 1, regions["task"], instance=1),
        TaskSwitchEvent(0, 3.0, 99, instance=99),
    ]
    with pytest.raises(
        ValidationError, match=r"event #2: switch to inactive instance 99"
    ):
        validate_task_stream(events, thread_id=0)


def test_tied_instance_resumed_on_another_thread(regions):
    # Thread 0 begins and suspends instance 5 ...
    states = {}
    thread0 = TaskStreamChecker(0, True, states)
    assert thread0.feed(K_TASK_BEGIN, regions["task"], 5, 5) == []
    assert thread0.feed(K_TASK_SWITCH, None, IMPL, IMPL) == []
    # ... and thread 1 illegally resumes it (tied tasks may not migrate).
    violations = TaskStreamChecker(1, True, states).feed(K_TASK_SWITCH, None, 5, 5)
    assert [v.kind for v in violations] == ["tied-migration"]
    violation = violations[0]
    assert violation.index == 0
    assert (
        "event #0: tied instance 5 resumed on thread 1, began on 0"
        in violation.message
    )
    with pytest.raises(ValidationError):
        raise violation.exception()


def test_lenient_collector_reports_every_violation_with_indices(regions):
    events = [
        ExitEvent(0, 1.0, IMPL, regions["foo"]),               # 0: unmatched
        TaskEndEvent(0, 2.0, 2, regions["task"], instance=2),  # 1: never begun
        TaskBeginEvent(0, 3.0, 1, regions["task"], instance=1),
        TaskEndEvent(0, 4.0, 1, regions["task"], instance=1),
    ]
    _, violations = collect_task_stream_violations(events, thread_id=0)
    assert [(v.index, v.kind) for v in violations] == [
        (0, "exit-unmatched"),
        (1, "end-inactive"),
    ]
    assert all(f"event #{v.index}" in v.message for v in violations)


def test_time_travel_in_trace_is_flagged(regions):
    trace = ProgramTrace(1)
    stream = trace.streams[0]
    stream.append_unchecked(EnterEvent(0, 5.0, IMPL, regions["foo"]))
    stream.append_unchecked(ExitEvent(0, 4.0, IMPL, regions["foo"]))
    violations = collect_trace_violations(trace)
    assert any(
        v.kind == "time-order" and "event #1" in v.message for v in violations
    )


def test_trace_violations_report_per_thread_time_order_first_counts_last():
    reg = RegionRegistry()
    task = reg.register("taskA", RegionType.TASK)
    f = reg.register("f", RegionType.FUNCTION)
    g = reg.register("g", RegionType.FUNCTION)
    trace = ProgramTrace(2, reg)
    thread0, thread1 = trace.streams
    thread0.append_unchecked(TaskBeginEvent(0, 2.0, 2, task, instance=2))
    thread0.append_unchecked(ExitEvent(0, 2.5, 2, g))
    thread1.append_unchecked(TaskBeginEvent(1, 1.0, 1, task, instance=1))
    thread1.append_unchecked(ExitEvent(1, 0.5, 1, f))
    # Merged, thread 1's violations arrive first and instance 1 is begun
    # first; the report is still thread-major with each stream unsorted.
    assert [str(v) for v in collect_trace_violations(trace)] == [
        "[exit-unmatched] event #1: exit 'g' with no open region in instance 2",
        "[time-order] event #1: timestamp 0.5 precedes 1.0 on thread 1",
        "[exit-unmatched] event #1: exit 'f' with no open region in instance 1",
        "[end-count] instance 2 begun but ended 0 times",
        "[end-count] instance 1 begun but ended 0 times",
    ]


def test_violation_exception_carries_declared_type():
    violation = Violation(4, "task-event", "event #4: boom", EventOrderError)
    exc = violation.exception()
    assert isinstance(exc, EventOrderError)
    assert str(exc) == "event #4: boom"
    assert "[task-event]" in str(violation)
