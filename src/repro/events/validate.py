"""Event-stream validators.

Two validators, matching the paper's problem analysis:

:func:`validate_nesting`
    The *classic* condition required by the pre-tasking Score-P profiling
    algorithm: every ``Exit`` must match the most recent unmatched
    ``Enter`` of the same region on the same thread.  Task-free OpenMP
    streams satisfy it; the interleaved task streams of the paper's Fig. 2
    do not, and this validator pinpoints the first violation.

:func:`validate_task_stream`
    The task-aware consistency rules under which the Fig. 12 algorithm is
    defined: per *task instance* the enter/exit events nest correctly;
    TaskBegin/TaskEnd bracket each instance exactly once; TaskSwitch only
    targets instances that are active (begun, not ended) or implicit; a
    thread's events between switches belong to the task it switched to;
    tied instances never resume on a different thread.

Both validators exist in two modes:

* **strict** (the historical behavior): raise the precise
  :class:`~repro.errors.EventOrderError` / :class:`~repro.errors.ValidationError`
  at the *first* violation.
* **lenient**: walk the whole stream, collect every violation as a
  structured :class:`Violation` record, and keep going with a best-effort
  continuation (skip the offending event, or force-close what it left
  open).  This is the mode production measurement must run in -- one
  corrupt event must not cost the whole run's profile
  (:func:`collect_nesting_violations`, :func:`collect_task_stream_violations`,
  :func:`collect_trace_violations`).

Internally each validator is written once, as a generator of violations;
the strict entry points simply raise the first violation the generator
yields, which preserves the historical stop-at-first-error semantics and
exact messages.

The task rules live only in :class:`TaskStreamChecker`, the cross-thread
rules only in :class:`TraceClosure`, whose one instance table lets an
untied instance resume on any thread (paper Section IV-D1).  The online
substrate (:mod:`repro.substrates.validation`) walks it in dispatch
order, :func:`collect_trace_violations` over the merged trace.  Both
name an event by its record kind (``"enter"`` ... ``"task_switch"``, as
:meth:`~repro.events.batch.EventBatch.records` spells it), so this module
knows nothing of the batch's code layout.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Type

from repro.errors import EventOrderError, ReproError, ValidationError
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


@dataclass(frozen=True)
class Violation:
    """One structural violation found by a validator in lenient mode.

    Attributes
    ----------
    index:
        Position of the offending event in its stream, or ``-1`` for
        end-of-stream / cross-thread violations that have no single
        offending event.
    kind:
        Short machine-readable code (``"exit-unmatched"``,
        ``"begin-twice"``, ...).
    message:
        The exact message strict mode would raise with.
    error:
        The exception class strict mode would raise.
    """

    index: int
    kind: str
    message: str
    error: Type[ReproError] = ValidationError

    def exception(self) -> ReproError:
        """The exception strict mode raises for this violation."""
        return self.error(self.message)

    def __str__(self) -> str:
        return f"[{self.kind}] {self.message}"


# ----------------------------------------------------------------------
# Classic (pre-tasking) nesting condition
# ----------------------------------------------------------------------
def _nesting_violations(events: Iterable[AnyEvent]) -> Iterator[Violation]:
    """Yield every violation of the classic nesting condition.

    Lenient continuation: an unmatched exit is skipped, a mismatching
    exit closes the innermost open region anyway, task events are
    skipped.
    """
    stack: List[Region] = []
    index = -1
    for index, event in enumerate(events):
        if isinstance(event, EnterEvent):
            stack.append(event.region)
        elif isinstance(event, ExitEvent):
            if not stack:
                yield Violation(
                    index,
                    "exit-unmatched",
                    f"event #{index}: exit {event.region.name!r} with no open region",
                    EventOrderError,
                )
                continue
            top = stack.pop()
            if top is not event.region:
                yield Violation(
                    index,
                    "exit-mismatch",
                    f"event #{index}: exit {event.region.name!r} does not match "
                    f"innermost open region {top.name!r}",
                    EventOrderError,
                )
        elif isinstance(
            event,
            (
                TaskBeginEvent,
                TaskEndEvent,
                TaskSwitchEvent,
                TaskCreateBeginEvent,
                TaskCreateEndEvent,
            ),
        ):
            yield Violation(
                index,
                "task-event",
                f"event #{index}: task event {type(event).__name__} is not "
                "representable in the classic (pre-tasking) profiling model",
                EventOrderError,
            )
        else:
            yield Violation(
                index,
                "unknown-event",
                f"unknown event type {type(event).__name__}",
                ValidationError,
            )
    if stack:
        names = ", ".join(r.name for r in stack)
        yield Violation(
            -1,
            "open-at-end",
            f"stream ended with open region(s): {names}",
            EventOrderError,
        )


def validate_nesting(events: Iterable[AnyEvent]) -> None:
    """Check the classic enter/exit nesting condition on one stream.

    Raises :class:`~repro.errors.EventOrderError` on the first violation:
    an exit without a matching enter, an exit for a region other than the
    innermost open one, or leftover open regions at stream end.  Task
    events are rejected outright -- the classic algorithm has no notion of
    them (paper Section IV-B1).
    """
    for violation in _nesting_violations(events):
        raise violation.exception()


def collect_nesting_violations(events: Iterable[AnyEvent]) -> List[Violation]:
    """Lenient counterpart of :func:`validate_nesting`: all violations."""
    return list(_nesting_violations(events))


# ----------------------------------------------------------------------
# Task-aware consistency rules
# ----------------------------------------------------------------------
class _InstanceState:
    """Book-keeping for one task instance during task-aware validation;
    :class:`TraceClosure` keeps its begin/end counts and first TaskBegin."""

    __slots__ = ("begun", "ended", "stack", "bound_thread",
                 "begins", "ends", "first_thread", "first_index")

    def __init__(self) -> None:
        self.begun = False
        self.ended = False
        self.stack: List[Region] = []
        self.bound_thread: Optional[int] = None
        self.begins = 0
        self.ends = 0
        self.first_thread = 0
        self.first_index = 0


class TaskStreamChecker:
    """Incremental (push-based) task-aware validator for one thread's stream.

    The rule set behind both validators: :func:`collect_trace_violations`
    feeds it from event objects, the online-validation substrate
    (:mod:`repro.substrates.validation`) from each
    :class:`~repro.events.batch.EventBatch`'s decoded records while the
    run is still producing them.  Each :meth:`feed` returns the violations
    that event caused (usually none), with the lenient continuation rules of
    :func:`collect_task_stream_violations`: offending events are skipped,
    except that a TaskEnd with open regions force-closes them (the
    instance still counts as ended) and an attribution mismatch is
    re-attributed to the actually-current instance.

    ``states`` may be shared/inspected by the caller (it is mutated in
    place); :class:`TraceClosure` shares one table across every thread's
    checker, so each sees the instances begun on the others.
    """

    __slots__ = ("thread_id", "tied", "states", "_implicit", "_current", "_index")

    def __init__(
        self,
        thread_id: int = 0,
        tied: bool = True,
        states: Optional[Dict[int, _InstanceState]] = None,
    ) -> None:
        self.thread_id = thread_id
        self.tied = tied
        self.states: Dict[int, _InstanceState] = states if states is not None else {}
        self._implicit = implicit_instance_id(thread_id)
        self._current = self._implicit
        self._index = 0
        self._state_of(self._implicit)

    @property
    def events_seen(self) -> int:
        return self._index

    def _state_of(self, instance: int) -> _InstanceState:
        state = self.states.get(instance)
        if state is None:
            state = _InstanceState()
            self.states[instance] = state
            if is_implicit(instance):
                state.begun = True
        return state

    def feed(
        self,
        kind,
        region: Optional[Region],
        instance: int,
        executing: int,
    ) -> List[Violation]:
        """Check one event; return the violations it caused (often empty).

        ``kind`` is a record kind name (``"enter"``, ``"exit"``,
        ``"task_begin"``, ``"task_end"``, ``"task_switch"``), the first field
        of an :meth:`~repro.events.batch.EventBatch.records` tuple, or
        else the type name of an unmappable event; ``region`` is what an
        enter/exit brackets, ``executing`` the instance it occurred in, and
        ``instance`` the one a TaskBegin/TaskEnd/TaskSwitch names.
        """
        index = self._index
        self._index = index + 1
        out: List[Violation] = []
        if kind == "enter" or kind == "exit":
            if executing != self._current:
                out.append(
                    Violation(
                        index,
                        "attribution",
                        f"event #{index}: event attributed to instance "
                        f"{executing} while instance "
                        f"{self._current} is current",
                    )
                )
            stack = self.states[self._current].stack
            if kind == "enter":
                stack.append(region)
                return out
            if not stack:
                out.append(
                    Violation(
                        index,
                        "exit-unmatched",
                        f"event #{index}: exit {region.name!r} with no open "
                        f"region in instance {self._current}",
                    )
                )
                return out
            top = stack.pop()
            if top is not region:
                out.append(
                    Violation(
                        index,
                        "exit-mismatch",
                        f"event #{index}: exit {region.name!r} does not match "
                        f"innermost open region {top.name!r} of instance "
                        f"{self._current}",
                    )
                )
        elif kind == "task_begin":
            state = self._state_of(instance)
            if state.begun:
                out.append(
                    Violation(
                        index,
                        "begin-twice",
                        f"event #{index}: instance {instance} begun twice",
                    )
                )
                return out
            state.begun = True
            state.bound_thread = self.thread_id
            self._current = instance
        elif kind == "task_end":
            state = self._state_of(instance)
            if not state.begun or state.ended:
                out.append(
                    Violation(
                        index,
                        "end-inactive",
                        f"event #{index}: task_end for instance {instance} "
                        "that is not active",
                    )
                )
                return out
            if instance != self._current:
                out.append(
                    Violation(
                        index,
                        "end-not-current",
                        f"event #{index}: task_end for instance {instance} "
                        f"but current instance is {self._current}",
                    )
                )
                # Lenient continuation: pretend the missing switch happened.
                self._current = instance
            if state.stack:
                names = ", ".join(r.name for r in state.stack)
                out.append(
                    Violation(
                        index,
                        "end-open-regions",
                        f"event #{index}: instance {instance} ended with "
                        f"open region(s): {names}",
                    )
                )
                state.stack.clear()
            state.ended = True
            self._current = self._implicit
        elif kind == "task_switch":
            state = self.states.get(instance)
            if is_implicit(instance):
                if instance != self._implicit:
                    out.append(
                        Violation(
                            index,
                            "switch-foreign-implicit",
                            f"event #{index}: switch to foreign implicit task {instance}",
                        )
                    )
                    return out
            else:
                if state is None or not state.begun or state.ended:
                    out.append(
                        Violation(
                            index,
                            "switch-inactive",
                            f"event #{index}: switch to inactive instance {instance}",
                        )
                    )
                    return out
                if self.tied and state.bound_thread not in (None, self.thread_id):
                    out.append(
                        Violation(
                            index,
                            "tied-migration",
                            f"event #{index}: tied instance {instance} resumed on "
                            f"thread {self.thread_id}, began on {state.bound_thread}",
                        )
                    )
                    return out
            self._current = instance
        else:
            out.append(
                Violation(
                    index,
                    "unknown-event",
                    f"unknown event type {kind}",
                )
            )
        return out


#: The one place event classes map onto the checker's kind names (the
#: batch's record kinds); task creation brackets like any region.
#: Unmapped classes keep their class name.
_KINDS = {
    EnterEvent: "enter",
    TaskCreateBeginEvent: "enter",
    ExitEvent: "exit",
    TaskCreateEndEvent: "exit",
    TaskBeginEvent: "task_begin",
    TaskEndEvent: "task_end",
    TaskSwitchEvent: "task_switch",
}


def _primitives(event: AnyEvent) -> tuple:
    """``(kind, region, instance, executing)`` of one event object."""
    cls = type(event)
    return (
        _KINDS.get(cls, cls.__name__),
        getattr(event, "region", None),
        getattr(event, "instance", 0),
        event.executing_instance,
    )


def validate_task_stream(
    events: Iterable[AnyEvent],
    thread_id: int = 0,
    tied: bool = True,
) -> Dict[int, _InstanceState]:
    """Validate one thread's stream under the task-aware rules.

    Parameters
    ----------
    events:
        The thread's events in order.
    thread_id:
        The stream's thread; the implicit task id derives from it.
    tied:
        If True (the paper's supported mode) a task instance must execute
        all its fragments on this thread.  Untied migration relaxes this
        (Section IV-D1); cross-thread validation then needs the merged
        trace, see :func:`validate_program_trace`.

    Returns the final per-instance state map so callers can make additional
    assertions (e.g. every instance both begun and ended).  Raises the
    precise :class:`~repro.errors.ValidationError` at the first violation.
    """
    checker = TaskStreamChecker(thread_id, tied)
    for event in events:
        for violation in checker.feed(*_primitives(event)):
            raise violation.exception()
    return checker.states


def collect_task_stream_violations(
    events: Iterable[AnyEvent],
    thread_id: int = 0,
    tied: bool = True,
) -> Tuple[Dict[int, _InstanceState], List[Violation]]:
    """Lenient counterpart of :func:`validate_task_stream`.

    Walks the whole stream, returning the final state map *and* every
    violation found, instead of raising at the first one.
    """
    checker = TaskStreamChecker(thread_id, tied)
    violations = [v for event in events for v in checker.feed(*_primitives(event))]
    return checker.states, violations


# ----------------------------------------------------------------------
# Whole-program traces
# ----------------------------------------------------------------------
class TraceClosure:
    """The whole-program walk both validators drive: one untied (events
    do not say which tasks are tied) :class:`TaskStreamChecker` per
    thread over one shared instance table, per-thread time order, and one
    TaskBegin and one TaskEnd per explicit instance (:meth:`finish`).
    Feed each thread's events in order, threads interleaved as they ran.
    """

    __slots__ = ("checkers", "states", "_last_time")

    def __init__(self, n_threads: int) -> None:
        self.states: Dict[int, _InstanceState] = {}
        self.checkers = [TaskStreamChecker(t, False, self.states) for t in range(n_threads)]
        self._last_time: Dict[int, float] = {}

    def feed(
        self,
        checker: TaskStreamChecker,
        time: float,
        kind,
        region: Optional[Region],
        instance: int,
        executing: int,
    ) -> List[Violation]:
        """Check one event of ``checker``'s thread; return its violations."""
        thread_id = checker.thread_id
        last = self._last_time.get(thread_id, time)
        self._last_time[thread_id] = time
        out = checker.feed(kind, region, instance, executing)
        if time < last:
            index = checker.events_seen - 1
            out.insert(
                0,
                Violation(
                    index,
                    "time-order",
                    f"event #{index}: timestamp {time} precedes "
                    f"{last} on thread {thread_id}",
                ),
            )
        # A TaskBegin/TaskEnd always leaves its instance in the table.
        if kind == "task_begin":
            state = self.states[instance]
            # Each thread's events arrive in order, so only a begin on a
            # lower thread moves the thread-major first one.
            if not state.begins or thread_id < state.first_thread:
                state.first_thread = thread_id
                state.first_index = checker.events_seen
            state.begins += 1
        elif kind == "task_end":
            self.states[instance].ends += 1
        return out

    def finish(self) -> Iterator[Violation]:
        """Yield the program-wide begin/end count violations, instances in
        thread-major order of their first TaskBegin."""
        states = self.states
        miscounted = sorted(
            (state.first_thread, state.first_index, instance)
            for instance, state in states.items()
            if state.begins and (state.begins != 1 or state.ends != 1)
        )
        for _, _, instance in miscounted:
            state = states[instance]
            if state.begins != 1:
                yield Violation(
                    -1,
                    "begin-count",
                    f"instance {instance} has {state.begins} TaskBegin events",
                )
            if state.ends != 1:
                yield Violation(
                    -1,
                    "end-count",
                    f"instance {instance} begun but ended {state.ends} times",
                )
        extra = sorted(i for i, state in states.items() if state.ends and not state.begins)
        if extra:
            yield Violation(
                -1,
                "end-without-begin",
                f"TaskEnd without TaskBegin for instance(s) {extra}",
            )


def collect_trace_violations(trace) -> List[Violation]:
    """Lenient counterpart of :func:`validate_program_trace`: every
    violation of a whole :class:`~repro.events.stream.ProgramTrace`.

    Walks the streams merged in time order (each stream keeps its own
    order, so a skewed event still breaks its thread's time order) through
    one :class:`TraceClosure`.  Reported per thread, its time-order
    violations before its task-rule violations; counts last.  The first
    20 become salvage notes, so the fault-grid goldens pin this order.
    """
    closure = TraceClosure(trace.n_threads)
    feed = closure.feed
    checkers = closure.checkers
    found = []
    for event in heapq.merge(*trace.streams, key=attrgetter("time", "thread_id")):
        thread_id = event.thread_id
        for violation in feed(checkers[thread_id], event.time, *_primitives(event)):
            found.append((thread_id, violation.kind != "time-order", violation))
    found.sort(key=itemgetter(0, 1))
    return [violation for _, _, violation in found] + list(closure.finish())


def validate_program_trace(trace) -> None:
    """Validate a whole :class:`~repro.events.stream.ProgramTrace`.

    Checks every per-thread stream with the task-aware validator and then
    the cross-thread properties of :class:`TraceClosure`: per-thread time
    order, and exactly one TaskBegin and one TaskEnd per explicit
    instance program-wide.  Raises the first violation
    :func:`collect_trace_violations` reports.
    """
    for violation in collect_trace_violations(trace):
        raise violation.exception()
