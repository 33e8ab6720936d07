"""Event streams and the two validators, including the paper's Fig. 1/2."""

import pytest

from repro.errors import EventOrderError, ValidationError
from repro.events import (
    EnterEvent,
    EventStream,
    ExitEvent,
    RegionRegistry,
    RegionType,
    TaskBeginEvent,
    TaskEndEvent,
    TaskSwitchEvent,
    validate_nesting,
    validate_task_stream,
)
from repro.events.model import implicit_instance_id
from repro.events.stream import ProgramTrace, merge_streams, stream_from_events
from repro.events.validate import validate_program_trace


@pytest.fixture()
def regions():
    reg = RegionRegistry()
    return {
        "main": reg.register("main", RegionType.FUNCTION),
        "foo": reg.register("foo", RegionType.FUNCTION),
        "bar": reg.register("bar", RegionType.FUNCTION),
        "task": reg.register("taskA", RegionType.TASK),
        "taskwait": reg.register("taskwait", RegionType.TASKWAIT),
    }


IMPL = implicit_instance_id(0)


def fig1_stream(regions):
    """Fig. 1: main enters, foo and bar nest without overlap."""
    return stream_from_events(
        [
            EnterEvent(0, 0.0, IMPL, regions["main"]),
            EnterEvent(0, 1.0, IMPL, regions["foo"]),
            ExitEvent(0, 3.0, IMPL, regions["foo"]),
            EnterEvent(0, 4.0, IMPL, regions["bar"]),
            ExitEvent(0, 6.0, IMPL, regions["bar"]),
            ExitEvent(0, 7.0, IMPL, regions["main"]),
        ]
    )


def test_fig1_stream_satisfies_nesting(regions):
    validate_nesting(fig1_stream(regions))


def test_unmatched_exit_detected(regions):
    events = [
        EnterEvent(0, 0.0, IMPL, regions["main"]),
        ExitEvent(0, 1.0, IMPL, regions["foo"]),
    ]
    with pytest.raises(EventOrderError, match="does not match"):
        validate_nesting(events)


def test_exit_without_enter_detected(regions):
    with pytest.raises(EventOrderError, match="no open region"):
        validate_nesting([ExitEvent(0, 0.0, IMPL, regions["foo"])])


def test_dangling_enter_detected(regions):
    with pytest.raises(EventOrderError, match="open region"):
        validate_nesting([EnterEvent(0, 0.0, IMPL, regions["main"])])


def test_classic_validator_rejects_task_events(regions):
    events = [TaskBeginEvent(0, 0.0, 1, regions["task"], instance=1)]
    with pytest.raises(EventOrderError, match="not representable"):
        validate_nesting(events)


def test_task_aware_validator_accepts_interleaved_fragments(regions):
    task = regions["task"]
    foo = regions["foo"]
    events = [
        TaskBeginEvent(0, 1.0, 1, task, instance=1),
        EnterEvent(0, 2.0, 1, foo),
        TaskBeginEvent(0, 3.0, 2, task, instance=2),  # task1 suspended
        EnterEvent(0, 4.0, 2, foo),
        TaskSwitchEvent(0, 5.0, 1, instance=1),  # resume task1
        ExitEvent(0, 6.0, 1, foo),
        TaskEndEvent(0, 7.0, 1, task, instance=1),
        TaskSwitchEvent(0, 8.0, 2, instance=2),
        ExitEvent(0, 9.0, 2, foo),
        TaskEndEvent(0, 10.0, 2, task, instance=2),
    ]
    states = validate_task_stream(events, thread_id=0)
    assert states[1].ended and states[2].ended


def test_task_aware_validator_rejects_cross_instance_exit(regions):
    """The Fig. 2 failure: an exit claimed by the wrong instance."""
    task = regions["task"]
    foo = regions["foo"]
    events = [
        TaskBeginEvent(0, 1.0, 1, task, instance=1),
        EnterEvent(0, 2.0, 1, foo),
        TaskBeginEvent(0, 3.0, 2, task, instance=2),
        # exit attributed to instance 1 while instance 2 is current
        ExitEvent(0, 4.0, 1, foo),
    ]
    with pytest.raises(ValidationError, match="while instance 2 is current"):
        validate_task_stream(events, thread_id=0)


def test_task_end_with_open_regions_rejected(regions):
    events = [
        TaskBeginEvent(0, 1.0, 1, regions["task"], instance=1),
        EnterEvent(0, 2.0, 1, regions["foo"]),
        TaskEndEvent(0, 3.0, 1, regions["task"], instance=1),
    ]
    with pytest.raises(ValidationError, match="open region"):
        validate_task_stream(events, thread_id=0)


def test_switch_to_unknown_instance_rejected(regions):
    events = [TaskSwitchEvent(0, 1.0, 99, instance=99)]
    with pytest.raises(ValidationError, match="inactive instance"):
        validate_task_stream(events, thread_id=0)


def test_tied_instance_cannot_begin_twice(regions):
    events = [
        TaskBeginEvent(0, 1.0, 1, regions["task"], instance=1),
        TaskEndEvent(0, 2.0, 1, regions["task"], instance=1),
        TaskBeginEvent(0, 3.0, 1, regions["task"], instance=1),
    ]
    with pytest.raises(ValidationError, match="begun twice"):
        validate_task_stream(events, thread_id=0)


def test_stream_rejects_foreign_thread_and_time_travel(regions):
    stream = EventStream(0)
    stream.append(EnterEvent(0, 5.0, IMPL, regions["main"]))
    with pytest.raises(ValueError, match="thread"):
        stream.append(EnterEvent(1, 6.0, IMPL, regions["foo"]))
    with pytest.raises(ValueError, match="monotone"):
        stream.append(EnterEvent(0, 4.0, IMPL, regions["foo"]))


def test_stream_query_helpers(regions):
    stream = fig1_stream(regions)
    assert len(stream) == 6
    assert len(stream.enters()) == 3
    assert len(stream.exits()) == 3
    assert len(stream.for_region(regions["foo"])) == 2
    assert "enter main" in stream.pretty(limit=1)
    assert "5 more" in stream.pretty(limit=1)


def test_program_trace_merged_is_time_ordered(regions):
    trace = ProgramTrace(2)
    trace.record(EnterEvent(0, 0.0, IMPL, regions["main"]))
    trace.record(EnterEvent(1, 0.5, implicit_instance_id(1), regions["main"]))
    trace.record(ExitEvent(1, 1.5, implicit_instance_id(1), regions["main"]))
    trace.record(ExitEvent(0, 2.0, IMPL, regions["main"]))
    merged = trace.merged()
    assert [e.time for e in merged] == [0.0, 0.5, 1.5, 2.0]
    assert trace.total_events() == 4
    # Ties break by thread id, then stream position -- whatever order the
    # streams come in.
    impl1 = implicit_instance_id(1)
    a = EnterEvent(0, 1.0, IMPL, regions["main"])
    b = ExitEvent(0, 1.0, IMPL, regions["main"])
    c = EnterEvent(1, 1.0, impl1, regions["main"])
    d = ExitEvent(1, 0.5, impl1, regions["main"])
    assert merge_streams([[c, d], [a, b]]) == [d, a, b, c]


def test_program_trace_validation_catches_unended_instance(regions):
    trace = ProgramTrace(1)
    trace.record(TaskBeginEvent(0, 1.0, 1, regions["task"], instance=1))
    with pytest.raises(ValidationError):
        validate_program_trace(trace)
