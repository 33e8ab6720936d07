"""The instrumentation layer between runtime and measurement system.

Every measurement event passes through here, into a columnar
:class:`~repro.events.batch.EventBatch` that drains to the listener (the
substrate manager) in batches.  When instrumentation is *enabled*, each
event charges :attr:`per_event_cost` virtual µs to the
executing thread (the runtime yields that cost as a timeout *before*
dispatching, so the event timestamp reflects the time after paying for
instrumentation -- the same thing that happens on real hardware when the
POMP2 calls execute).  When *disabled*, dispatch is a no-op and the cost
is zero: that is the "uninstrumented" baseline of the paper's Section V.

The layer is where the paper's central overhead mechanism lives: for tiny
tasks the per-event cost dominates the task body (fib: 310 % / 527 %
overhead); with many threads the runtime's own lock contention dominates
instead, and the instrumentation cost -- paid *outside* the lock --
"is shadowed" (Section V-A).
"""

from __future__ import annotations

from typing import Optional

from repro.events.batch import (
    F_PAYLOAD,
    INST_SHIFT,
    K_ENTER,
    K_EXIT,
    K_METRIC,
    K_TASK_BEGIN,
    K_TASK_END,
    K_TASK_SWITCH,
    RID_SHIFT,
    TID_SHIFT,
    EventBatch,
    zigzag,
)
from repro.events.model import InstanceId
from repro.events.regions import Region


class InstrumentationLayer:
    """Charges instrumentation cost and batches events for the listener.

    Each event is packed into the batch's two flat columns (one int
    append, one float append); :meth:`flush` hands the whole batch to
    ``listener.on_batch`` and clears it in place.  The listener is the
    :class:`~repro.substrates.manager.SubstrateManager` (any object with
    ``on_batch``, ``on_phase_begin``, ``on_phase_end`` and ``on_finish``
    will do); a disabled layer never touches it.

    Flush boundaries:

    * **scheduling points** -- once the batch passes ``flush_threshold``
      it drains at the next task-scheduling point (task begin/end/
      switch, or a scheduling-point region enter; the runtime also calls
      :meth:`sched_point` at taskwait/taskyield/barrier/spawn).  Task
      scheduling decisions made by consumers (the governor's gauges, the
      profiler's concurrency tracker) therefore never see state older
      than the current batch.
    * **hard capacity** -- at ``capacity`` events the batch drains
      wherever it is, bounding memory.
    * **structural boundaries** -- phase begin/end and finish always
      flush first, so phase markers and finalization observe a fully
      drained stream.

    ``events_dispatched`` counts *individual events* -- batching changes
    when events are consumed, never how many were measured.
    """

    __slots__ = (
        "enabled",
        "per_event_cost",
        "listener",
        "_flushed",
        "filter",
        "batch",
        "flush_threshold",
        "capacity",
    )

    def __init__(
        self,
        enabled: bool = True,
        per_event_cost: float = 0.0,
        listener=None,
        region_filter=None,
        *,
        registry=None,
        flush_threshold: int = 1024,
        capacity: int = 8192,
    ) -> None:
        if flush_threshold < 1 or capacity < flush_threshold:
            raise ValueError(
                "need 1 <= flush_threshold <= capacity, got "
                f"flush_threshold={flush_threshold} capacity={capacity}"
            )
        self.enabled = enabled
        #: configured per-event cost; the *effective* cost additionally
        #: depends on ``enabled`` (see :attr:`cost`), so toggling
        #: ``enabled`` after construction behaves correctly.
        self.per_event_cost = per_event_cost
        self.listener = listener
        #: counted events already handed to the listener
        self._flushed = 0
        #: optional RegionFilter suppressing enter/exit events (Score-P
        #: filtering); task lifecycle events are never filtered
        self.filter = region_filter
        self.batch = EventBatch(registry)
        self.flush_threshold = flush_threshold
        self.capacity = capacity

    # ------------------------------------------------------------------
    @property
    def cost(self) -> float:
        """Virtual µs the executing thread pays per event (0 if disabled)."""
        return self.per_event_cost if self.enabled else 0.0

    @property
    def events_dispatched(self) -> int:
        """Total events measured (statistics for the overhead analysis):
        the flushed ones plus those still pending in the batch."""
        return self._flushed + self.batch.counted

    def region_cost(self, region: Region) -> float:
        """Per-event cost for a region event, honoring the filter."""
        if not self.enabled or self.per_event_cost == 0.0:
            return 0.0
        if self.filter is not None and not self.filter.measures(region):
            return 0.0
        return self.per_event_cost

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Hand the filled batch to the listener, then reset it in place."""
        batch = self.batch
        if batch.codes:
            self.listener.on_batch(batch)
            self._flushed += batch.counted
            batch.clear()

    def sched_point(self) -> None:
        """Scheduling-point hook: drain if past the soft threshold."""
        if len(self.batch.codes) >= self.flush_threshold:
            self.flush()

    # ------------------------------------------------------------------
    # Columnar fill (no-ops when disabled)
    # ------------------------------------------------------------------
    def enter(
        self, thread_id: int, region: Region, time: float, parameter: Optional[tuple] = None
    ) -> None:
        if not self.enabled:
            return
        if self.filter is not None and not self.filter.measures(region):
            self.filter.note_suppressed()
            return
        batch = self.batch
        code = K_ENTER | (thread_id << TID_SHIFT) | (region.handle << RID_SHIFT)
        if parameter is not None:
            batch.payloads[len(batch.codes)] = parameter
            code |= F_PAYLOAD
        batch.codes.append(code)
        batch.times.append(time)
        batch.counted += 1
        n = len(batch.codes)
        if n >= self.capacity or (
            n >= self.flush_threshold and region.is_scheduling_point
        ):
            self.flush()

    def exit(self, thread_id: int, region: Region, time: float) -> None:
        if not self.enabled:
            return
        if self.filter is not None and not self.filter.measures(region):
            self.filter.note_suppressed()
            return
        batch = self.batch
        batch.codes.append(
            K_EXIT | (thread_id << TID_SHIFT) | (region.handle << RID_SHIFT)
        )
        batch.times.append(time)
        batch.counted += 1
        if len(batch.codes) >= self.capacity:
            self.flush()

    def task_begin(
        self,
        thread_id: int,
        region: Region,
        instance: InstanceId,
        time: float,
        parameter: Optional[tuple] = None,
    ) -> None:
        if not self.enabled:
            return
        batch = self.batch
        code = (
            K_TASK_BEGIN
            | (thread_id << TID_SHIFT)
            | (region.handle << RID_SHIFT)
            | (zigzag(instance) << INST_SHIFT)
        )
        if parameter is not None:
            batch.payloads[len(batch.codes)] = parameter
            code |= F_PAYLOAD
        batch.codes.append(code)
        batch.times.append(time)
        batch.counted += 1
        # task begin is a scheduling boundary: soft-drain here
        if len(batch.codes) >= self.flush_threshold:
            self.flush()

    def task_end(
        self, thread_id: int, region: Region, instance: InstanceId, time: float
    ) -> None:
        if not self.enabled:
            return
        batch = self.batch
        batch.codes.append(
            K_TASK_END
            | (thread_id << TID_SHIFT)
            | (region.handle << RID_SHIFT)
            | (zigzag(instance) << INST_SHIFT)
        )
        batch.times.append(time)
        batch.counted += 1
        # task completion is a scheduling point
        if len(batch.codes) >= self.flush_threshold:
            self.flush()

    def task_switch(self, thread_id: int, instance: InstanceId, time: float) -> None:
        if not self.enabled:
            return
        batch = self.batch
        batch.codes.append(
            K_TASK_SWITCH | (thread_id << TID_SHIFT) | (zigzag(instance) << INST_SHIFT)
        )
        batch.times.append(time)
        batch.counted += 1
        if len(batch.codes) >= self.flush_threshold:
            self.flush()

    def metric(self, thread_id: int, counters: dict, time: float) -> None:
        if not self.enabled:
            return
        batch = self.batch
        batch.payloads[len(batch.codes)] = counters
        batch.codes.append(K_METRIC | (thread_id << TID_SHIFT) | F_PAYLOAD)
        batch.times.append(time)
        if len(batch.codes) >= self.capacity:
            self.flush()

    def phase_begin(self, name: str) -> None:
        if self.enabled:
            self.flush()
            self.listener.on_phase_begin(name)

    def phase_end(self, name: str) -> None:
        if self.enabled:
            self.flush()
            self.listener.on_phase_end(name)

    def finish(self, time: float) -> None:
        if self.enabled:
            self.flush()
            self.listener.on_finish(time)
