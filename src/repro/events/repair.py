"""Best-effort repair of corrupt event streams.

The paper's Fig. 12 algorithm assumes a *consistent* event stream; real
measurement stacks see dropped, duplicated, reordered, and clock-skewed
events (buffer overruns, per-thread clock drift, crashed tasks).  This
module turns a corrupt per-thread stream back into one the task-aware
profiler can consume, recording exactly what it had to do:

Repair rules, in order:

1. **Clock skew** -- timestamps are clamped to be monotone per thread
   (an event may never appear to precede its predecessor).
2. **Duplicate lifecycle events** -- a second ``TaskBegin`` or ``TaskEnd``
   for the same instance is dropped.
3. **Orphan events** -- ``TaskEnd``/``TaskSwitch`` referring to an
   instance that never began are dropped and the instance is quarantined.
4. **Missing switches** -- a ``TaskEnd`` for an instance that is not
   current is preceded by a synthesized ``TaskSwitch``.
5. **Broken nesting** -- an ``Exit`` whose region is open-but-not-innermost
   synthesizes exits for the regions above it; an exit that was never
   entered is dropped; regions still open at ``TaskEnd`` or at stream end
   get synthesized exits.
6. **Missing ends** -- instances still active at stream end get a
   synthesized ``TaskEnd`` (after closing their regions).

Unrecoverable instances are *quarantined*: every remaining event that
refers to them is dropped and their ids are reported, so downstream
consumers can mark the profile as partial rather than silently wrong.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Set

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
    """What :func:`repair_stream` had to do to one (or more) streams."""

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

    def merge(self, other: "RepairLog") -> None:
        self.events_in += other.events_in
        self.events_out += other.events_out
        self.dropped += other.dropped
        self.synthesized += other.synthesized
        self.clamped += other.clamped
        self.quarantined |= other.quarantined
        self.notes.extend(other.notes)

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
    __slots__ = ("begun", "ended", "stack", "region")

    def __init__(self, region: Optional[Region] = None) -> None:
        self.begun = False
        self.ended = False
        self.stack: List[Region] = []
        self.region = region


def repair_stream(
    events: Iterable[AnyEvent], thread_id: int = 0
) -> RepairResult:
    """Repair one thread's event stream into a consumable one.

    Returns a :class:`RepairResult`; never raises on corrupt *content*
    (only :class:`~repro.errors.StreamRepairError` on events that are not
    part of the event model at all).
    """
    implicit = implicit_instance_id(thread_id)
    log = RepairLog()
    out: List[AnyEvent] = []
    states: Dict[int, _InstanceRepairState] = {}
    current = implicit
    last_time = 0.0

    def state_of(instance: int) -> _InstanceRepairState:
        state = states.get(instance)
        if state is None:
            state = _InstanceRepairState()
            states[instance] = state
            if is_implicit(instance):
                state.begun = True
        return state

    state_of(implicit)

    def emit(event: AnyEvent) -> None:
        out.append(event)
        log.events_out += 1

    def clamp(event: AnyEvent) -> AnyEvent:
        nonlocal last_time
        if event.time < last_time:
            event = replace(event, time=last_time)
            log.clamped += 1
        else:
            last_time = event.time
        return event

    def close_open_regions(instance: int, time: float) -> None:
        """Synthesize exits for every open region of ``instance``."""
        state = states[instance]
        while state.stack:
            region = state.stack.pop()
            emit(ExitEvent(thread_id, time, instance, region))
            log.synthesized += 1

    for event in events:
        log.events_in += 1
        event = clamp(event)
        if isinstance(event, TaskBeginEvent):
            state = state_of(event.instance)
            if state.begun or state.ended:
                log.dropped += 1
                log.quarantined.add(event.instance)
                log.notes.append(
                    f"dropped duplicate TaskBegin for instance {event.instance}"
                )
                continue
            state.begun = True
            state.region = event.region
            current = event.instance
            emit(event)
        elif isinstance(event, TaskEndEvent):
            state = states.get(event.instance)
            if state is None or not state.begun or state.ended:
                log.dropped += 1
                log.quarantined.add(event.instance)
                log.notes.append(
                    f"dropped TaskEnd for never-begun or already-ended "
                    f"instance {event.instance}"
                )
                continue
            if event.instance != current:
                # The switch back to this instance was lost: synthesize it.
                emit(TaskSwitchEvent(thread_id, event.time, event.instance,
                                     instance=event.instance))
                log.synthesized += 1
                current = event.instance
            close_open_regions(current, event.time)
            state.ended = True
            current = implicit
            emit(event)
        elif isinstance(event, TaskSwitchEvent):
            target = event.instance
            if is_implicit(target):
                if target != implicit:
                    log.dropped += 1
                    log.notes.append(
                        f"dropped switch to foreign implicit task {target}"
                    )
                    continue
                current = implicit
                emit(event)
                continue
            state = states.get(target)
            if state is None or not state.begun or state.ended:
                log.dropped += 1
                log.quarantined.add(target)
                log.notes.append(f"dropped switch to inactive instance {target}")
                continue
            current = target
            emit(event)
        elif isinstance(event, (EnterEvent, TaskCreateBeginEvent)):
            if event.executing_instance != current:
                event = replace(event, executing_instance=current)
            state_of(current).stack.append(event.region)
            emit(event)
        elif isinstance(event, (ExitEvent, TaskCreateEndEvent)):
            if event.executing_instance != current:
                event = replace(event, executing_instance=current)
            stack = state_of(current).stack
            if event.region not in stack:
                log.dropped += 1
                log.notes.append(
                    f"dropped exit for never-entered region {event.region.name!r}"
                )
                continue
            # Close any regions the corrupt stream left open above this one.
            while stack and stack[-1] is not event.region:
                emit(ExitEvent(thread_id, event.time, current, stack.pop()))
                log.synthesized += 1
            stack.pop()
            emit(event)
        else:
            raise StreamRepairError(
                f"cannot repair unknown event type {type(event).__name__}"
            )

    # End of stream: close whatever is still open.
    for instance, state in states.items():
        if is_implicit(instance):
            continue
        if state.begun and not state.ended:
            if instance != current:
                emit(TaskSwitchEvent(thread_id, last_time, instance,
                                     instance=instance))
                log.synthesized += 1
                current = instance
            close_open_regions(instance, last_time)
            region = state.region
            if region is None:  # pragma: no cover - begun implies region
                log.quarantined.add(instance)
                continue
            emit(TaskEndEvent(thread_id, last_time, instance, region,
                              instance=instance))
            log.synthesized += 1
            state.ended = True
            current = implicit
            log.notes.append(f"synthesized TaskEnd for instance {instance}")
    implicit_state = states[implicit]
    while implicit_state.stack:
        region = implicit_state.stack.pop()
        emit(ExitEvent(thread_id, last_time, implicit, region))
        log.synthesized += 1
    return RepairResult(out, log)


def repair_streams(
    streams: Dict[int, List[AnyEvent]]
) -> "tuple[Dict[int, List[AnyEvent]], RepairLog]":
    """Repair several per-thread streams; returns repaired streams + log.

    Cross-thread consistency (an instance begun on two threads) is
    handled by the profiler's shared instance table during replay; this
    pass is purely per-thread, with one instance table per stream, so it
    assumes tied tasks: an untied instance that legally resumed on
    another thread looks like an orphan there, and its switch is dropped
    and the instance quarantined.
    """
    log = RepairLog()
    repaired: Dict[int, List[AnyEvent]] = {}
    for thread_id, events in streams.items():
        result = repair_stream(events, thread_id=thread_id)
        repaired[thread_id] = result.events
        log.merge(result.log)
    return repaired, log
