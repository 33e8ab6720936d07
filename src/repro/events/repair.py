"""Best-effort repair of corrupt event streams.

The paper's Fig. 12 algorithm assumes a *consistent* event stream; real
measurement stacks see dropped, duplicated, reordered, and clock-skewed
events (buffer overruns, per-thread clock drift, crashed tasks).  This
module turns a corrupt trace back into one the task-aware profiler can
consume, recording exactly what it had to do.  It walks the per-thread
streams merged in time order with one instance table for all threads,
as the Fig. 12 algorithm does, so an untied instance may resume on any
thread.

Repair rules, in order:

1. **Clock skew** -- timestamps are clamped to be monotone per thread
   (an event may never appear to precede its predecessor).
2. **Duplicate lifecycle events** -- a second ``TaskBegin`` or ``TaskEnd``
   for the same instance is dropped.
3. **Orphan events** -- ``TaskEnd``/``TaskSwitch`` referring to an
   instance never begun on any thread are dropped and the instance is
   quarantined.
4. **Missing switches** -- a ``TaskEnd`` for an instance that is not
   current is preceded by a synthesized ``TaskSwitch``.
5. **Broken nesting** -- an ``Exit`` whose region is open-but-not-innermost
   synthesizes exits for the regions above it; an exit that was never
   entered is dropped; regions still open at ``TaskEnd`` or at stream end
   get synthesized exits.
6. **Missing ends** -- instances still active at the end of the trace get
   a synthesized ``TaskEnd`` (after closing their regions) on the thread
   that last began or resumed them.

Unrecoverable instances are *quarantined*: every remaining event that
refers to them is dropped and their ids are reported, so downstream
consumers can mark the profile as partial rather than silently wrong.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import StreamRepairError
from repro.events.model import (
    AnyEvent,
    EnterEvent,
    ExitEvent,
    TaskBeginEvent,
    TaskCreateBeginEvent,
    TaskCreateEndEvent,
    TaskEndEvent,
    TaskSwitchEvent,
    implicit_instance_id,
    is_implicit,
)
from repro.events.regions import Region


@dataclass
class RepairLog:
    """What :func:`repair_streams` had to do to a trace's streams."""

    events_in: int = 0
    events_out: int = 0
    dropped: int = 0
    synthesized: int = 0
    clamped: int = 0
    quarantined: Set[int] = field(default_factory=set)
    notes: List[str] = field(default_factory=list)

    @property
    def touched(self) -> bool:
        """True if the stream needed any repair at all."""
        return bool(self.dropped or self.synthesized or self.clamped or self.quarantined)

    def summary(self) -> str:
        if not self.touched:
            return "stream clean: no repairs needed"
        quarantined = (
            f", quarantined instances {sorted(self.quarantined)}"
            if self.quarantined
            else ""
        )
        return (
            f"repaired stream: {self.events_in} events in, {self.events_out} out "
            f"({self.dropped} dropped, {self.synthesized} synthesized, "
            f"{self.clamped} timestamps clamped{quarantined})"
        )


@dataclass
class RepairResult:
    """A repaired event list plus the log of what changed."""

    events: List[AnyEvent]
    log: RepairLog


class _InstanceRepairState:
    __slots__ = ("ended", "stack", "region", "thread")

    def __init__(self, region: Optional[Region], thread: int) -> None:
        self.ended = False
        self.stack: List[Region] = []
        self.region = region
        #: the thread that last began or resumed the instance
        self.thread = thread


def _unrepairable(event) -> StreamRepairError:
    return StreamRepairError(
        f"cannot repair unknown event type {type(event).__name__}"
    )


def _merge_key(event) -> Tuple[float, int]:
    try:
        return event.time, event.thread_id
    except AttributeError:
        raise _unrepairable(event) from None


def repair_streams(
    streams: Dict[int, Iterable[AnyEvent]]
) -> Tuple[List[AnyEvent], RepairLog]:
    """Repair a trace's per-thread streams; returns the events + log.

    One walk over the streams merged in time order (time, then thread
    id; each stream keeps its own order, so a skewed event pops right
    after its predecessor and is clamped there) with one instance table
    for all threads, so an untied instance may resume on any thread.
    Instances still active after the last event are closed on the
    thread that last began or resumed them.  The repaired events come
    back as one list in walk order, closures last.  Notes are reported
    per thread: walk notes, then that thread's closure notes.

    Never raises on corrupt *content*, only
    :class:`~repro.errors.StreamRepairError` on events that are not part
    of the event model at all.
    """
    log = RepairLog()
    out: List[AnyEvent] = []
    emit = out.append
    implicit = {t: implicit_instance_id(t) for t in streams}
    states = {i: _InstanceRepairState(None, t) for t, i in implicit.items()}
    current = dict(implicit)
    last_time = dict.fromkeys(streams, 0.0)
    notes: Dict[int, List[str]] = {t: [] for t in streams}

    def close_open_regions(thread_id: int, instance: int, time: float) -> None:
        """Synthesize exits for every open region of ``instance``."""
        stack = states[instance].stack
        while stack:
            emit(ExitEvent(thread_id, time, instance, stack.pop()))
            log.synthesized += 1

    for event in heapq.merge(*streams.values(), key=_merge_key):
        # Keyed again: merge passes the tail of its last stream unkeyed.
        time, thread_id = _merge_key(event)
        log.events_in += 1
        if time < last_time[thread_id]:
            event = replace(event, time=last_time[thread_id])
            log.clamped += 1
        else:
            last_time[thread_id] = time
        if isinstance(event, TaskBeginEvent):
            if event.instance in states:
                log.dropped += 1
                log.quarantined.add(event.instance)
                notes[thread_id].append(
                    f"dropped duplicate TaskBegin for instance {event.instance}"
                )
                continue
            states[event.instance] = _InstanceRepairState(event.region, thread_id)
            current[thread_id] = event.instance
            emit(event)
        elif isinstance(event, TaskEndEvent):
            state = states.get(event.instance)
            if state is None or state.ended:
                log.dropped += 1
                log.quarantined.add(event.instance)
                notes[thread_id].append(
                    f"dropped TaskEnd for never-begun or already-ended "
                    f"instance {event.instance}"
                )
                continue
            if event.instance != current[thread_id]:
                # The switch back to this instance was lost: synthesize it.
                emit(TaskSwitchEvent(thread_id, event.time, event.instance,
                                     instance=event.instance))
                log.synthesized += 1
            close_open_regions(thread_id, event.instance, event.time)
            state.ended = True
            current[thread_id] = implicit[thread_id]
            emit(event)
        elif isinstance(event, TaskSwitchEvent):
            target = event.instance
            if is_implicit(target):
                if target != implicit[thread_id]:
                    log.dropped += 1
                    notes[thread_id].append(
                        f"dropped switch to foreign implicit task {target}"
                    )
                    continue
            else:
                state = states.get(target)
                if state is None or state.ended:
                    log.dropped += 1
                    log.quarantined.add(target)
                    notes[thread_id].append(
                        f"dropped switch to inactive instance {target}"
                    )
                    continue
                state.thread = thread_id
            current[thread_id] = target
            emit(event)
        elif isinstance(event, (EnterEvent, TaskCreateBeginEvent)):
            instance = current[thread_id]
            if event.executing_instance != instance:
                event = replace(event, executing_instance=instance)
            states[instance].stack.append(event.region)
            emit(event)
        elif isinstance(event, (ExitEvent, TaskCreateEndEvent)):
            instance = current[thread_id]
            if event.executing_instance != instance:
                event = replace(event, executing_instance=instance)
            stack = states[instance].stack
            if event.region not in stack:
                log.dropped += 1
                notes[thread_id].append(
                    f"dropped exit for never-entered region {event.region.name!r}"
                )
                continue
            # Close any regions the corrupt stream left open above this one.
            while stack and stack[-1] is not event.region:
                emit(ExitEvent(thread_id, event.time, instance, stack.pop()))
                log.synthesized += 1
            stack.pop()
            emit(event)
        else:
            raise _unrepairable(event)

    # End of trace: close whatever is still open, thread by thread.
    for thread_id, time in last_time.items():
        for instance, state in states.items():
            if state.ended or state.thread != thread_id or is_implicit(instance):
                continue
            if instance != current[thread_id]:
                emit(TaskSwitchEvent(thread_id, time, instance, instance=instance))
                log.synthesized += 1
            close_open_regions(thread_id, instance, time)
            emit(TaskEndEvent(thread_id, time, instance, state.region,
                              instance=instance))
            log.synthesized += 1
            state.ended = True
            current[thread_id] = implicit[thread_id]
            notes[thread_id].append(f"synthesized TaskEnd for instance {instance}")
        close_open_regions(thread_id, implicit[thread_id], time)
        log.notes.extend(notes[thread_id])
    log.events_out = len(out)
    return out, log


def repair_stream(
    events: Iterable[AnyEvent], thread_id: int = 0
) -> RepairResult:
    """Repair one thread's event stream: :func:`repair_streams` of it."""
    return RepairResult(*repair_streams({thread_id: events}))
