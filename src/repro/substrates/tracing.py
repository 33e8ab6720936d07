"""The tracing substrate: full event recording as a substrate.

Turns the records of every :class:`~repro.events.batch.EventBatch`
(:meth:`~repro.events.batch.EventBatch.records`, the batch's one shared
decode) into event objects stored in a
:class:`~repro.events.stream.ProgramTrace`.  It
tracks the task instance each thread is executing so enter/exit events
carry it, exactly as the POMP2 task-aware events do.

It is also the one place stream faults are applied: with a
:class:`~repro.faults.injector.FaultInjector` set as :attr:`injector`,
every event is routed through ``injector.on_record`` on its way into
the trace, and the events it still withholds are appended at
:meth:`finalize`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.events.batch import EventBatch
from repro.events.model import (
    AnyEvent,
    EnterEvent,
    ExitEvent,
    InstanceId,
    TaskBeginEvent,
    TaskEndEvent,
    TaskSwitchEvent,
    implicit_instance_id,
)
from repro.events.regions import Region, RegionRegistry
from repro.events.stream import ProgramTrace
from repro.substrates.base import Substrate

if TYPE_CHECKING:  # the faults package loads only when a plan is armed
    from repro.faults.injector import FaultInjector


class TracingSubstrate(Substrate):
    """Records every event into a ProgramTrace (the run's ``trace``).

    :meth:`initialize` binds :attr:`record` once: to ``trace.record``
    (checked appends) when no injector is set, so the unfaulted path
    pays nothing for fault support, or else to a closure storing the
    injector's output unchecked -- perturbed timestamps may violate
    per-stream monotonicity.
    """

    name = "tracing"
    essential = True

    def __init__(self, per_event_cost: float = 0.0) -> None:
        self.per_event_cost = per_event_cost
        self.trace: Optional[ProgramTrace] = None
        #: stream-fault injector; the runtime sets it before initialize
        #: when the run's fault plan wants stream faults
        self.injector: Optional[FaultInjector] = None
        #: the instance each thread currently executes
        self._current: List[InstanceId] = []

    def initialize(
        self,
        registry: RegionRegistry,
        n_threads: int,
        start_time: float,
        implicit_region: Optional[Region] = None,
    ) -> None:
        self.trace = trace = ProgramTrace(n_threads, registry)
        self._current = [implicit_instance_id(t) for t in range(n_threads)]
        injector = self.injector
        if injector is None:
            self.record = trace.record
            return
        streams = trace.streams

        def record(event: AnyEvent) -> None:
            # The injector may drop the event, duplicate it, skew its
            # time, or hold it back to emit after the thread's next one.
            for out in injector.on_record(event):
                streams[out.thread_id].append_unchecked(out)

        self.record = record

    def finalize(self, time: float) -> None:
        if self.injector is not None:
            # Events still withheld for reordering surface at the end,
            # behind every recorded event.
            streams = self.trace.streams
            for event in self.injector.drain():
                streams[event.thread_id].append_unchecked(event)

    def on_batch(self, batch: EventBatch) -> None:
        """Turn each of the batch's records into its event object.

        An enter/exit is attributed to the instance its thread last began
        or switched to.  Metrics live in the profile, not the event trace,
        so metric rows are skipped.
        """
        record = self.record
        current = self._current
        for rec in batch.records():
            kind = rec[0]
            if kind == "enter":
                _, tid, time, region, parameter = rec
                record(EnterEvent(tid, time, current[tid], region, parameter))
            elif kind == "exit":
                _, tid, time, region = rec
                record(ExitEvent(tid, time, current[tid], region))
            elif kind == "task_begin":
                _, tid, time, region, instance, parameter = rec
                current[tid] = instance
                record(TaskBeginEvent(tid, time, instance, region, instance, parameter))
            elif kind == "task_end":
                _, tid, time, region, instance = rec
                record(TaskEndEvent(tid, time, instance, region, instance))
                current[tid] = implicit_instance_id(tid)
            elif kind == "task_switch":
                _, tid, time, instance = rec
                current[tid] = instance
                record(TaskSwitchEvent(tid, time, instance, instance))

    def artifact(self) -> Optional[ProgramTrace]:
        return self.trace
