"""Columnar event batches: the struct-of-arrays hot-path representation.

The batch is the *only* event path from the runtime to the measurement
substrates.  TASKPROF's lesson (and Score-P's) is that a profiler stays
near-native only if the per-event path is tiny and analysis is
deferred; an :class:`EventBatch` is that deferral: filling one costs one
append per column, and consumers pay one dispatch call per flush
instead of several frames per event.

An event is **one append to each of two flat columns**:

``codes``  (``array('q')``)
    a packed 64-bit integer per event::

        bits  0..2   kind (K_ENTER .. K_METRIC)
        bit   3      payload flag (parameter tuple / counters dict
                     present in the sparse ``payloads`` side table)
        bits  4..13  thread id      (10 bits, < 1024 threads)
        bits 14..33  region id      (20 bits; the *interned*
                     ``Region.handle`` from the process-wide
                     :class:`~repro.events.regions.RegionRegistry` --
                     the same intern table the recorder writes to disk)
        bits 34..    task-instance id, zigzag-encoded (implicit-task
                     ids are negative)

``times``  (``array('d')``)
    the virtual timestamp per event, bit-exact.

Every consumer reads the columns directly: the stats substrate counts
the codes in one C-level pass; the profiler, tracing, validation and the
recorder decode each code in one loop.

Rare payloads (enter parameters, metric counter dicts) live out-of-band
in ``payloads``, a ``{event index -> object}`` dict, keeping the hot
columns fixed-width.

Batches are *reused ring-buffer style*: the instrumentation layer fills
one batch, flushes it through ``SubstrateManager.on_batch`` at
scheduling-point boundaries, then :meth:`clear`\\ s it in place.
Consumers must therefore never retain a reference past the flush call.
"""

from __future__ import annotations

from array import array
from typing import Optional

from repro.events.regions import RegionRegistry

#: Event kinds (bits 0..2 of a packed code).
K_ENTER = 0
K_EXIT = 1
K_TASK_BEGIN = 2
K_TASK_END = 3
K_TASK_SWITCH = 4
K_METRIC = 5

#: Payload-present flag (bit 3).
F_PAYLOAD = 8

KIND_MASK = 7
TID_SHIFT = 4
TID_MASK = 0x3FF  # 10 bits -> max 1023 threads
RID_SHIFT = 14
RID_MASK = 0xFFFFF  # 20 bits -> ~1M interned regions
INST_SHIFT = 34

KIND_NAMES = ("enter", "exit", "task_begin", "task_end", "task_switch", "metric")


def zigzag(value: int) -> int:
    """Map a signed instance id onto a non-negative packable int."""
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


class EventBatch:
    """A reusable struct-of-arrays buffer of packed measurement events.

    Region ids inside the codes column are ``Region.handle`` values from
    :attr:`registry` -- the run's shared intern table -- so consumers
    resolve them with ``registry.lookup`` and the recorder can write
    them to disk without a second interning pass.
    """

    __slots__ = ("registry", "codes", "times", "payloads", "counted")

    def __init__(self, registry: Optional[RegionRegistry] = None) -> None:
        self.registry = registry
        self.codes = array("q")
        self.times = array("d")
        #: sparse {event index -> parameter tuple | counters dict}
        self.payloads = {}
        #: cost-bearing events in the batch (everything except metrics,
        #: which piggy-back on an existing event boundary) -- the number
        #: the manager adds to ``events_delivered`` per flush.
        self.counted = 0

    def __len__(self) -> int:
        return len(self.codes)

    def __repr__(self) -> str:
        return f"<EventBatch {len(self.codes)} events, {self.counted} counted>"

    def clear(self) -> None:
        """Reset in place (the columns keep their allocated capacity)."""
        del self.codes[:]
        del self.times[:]
        if self.payloads:
            self.payloads.clear()
        self.counted = 0

    # -- per-event appenders -------------------------------------------
    # Builders for trace salvage, tests, benchmarks and synthetic streams.
    # The instrumentation layer does NOT call these: it inlines the
    # appends so filling stays one frame per event.
    def add_enter(
        self, thread_id: int, region, time: float, parameter: Optional[tuple] = None
    ) -> None:
        code = K_ENTER | (thread_id << TID_SHIFT) | (region.handle << RID_SHIFT)
        if parameter is not None:
            self.payloads[len(self.codes)] = parameter
            code |= F_PAYLOAD
        self.codes.append(code)
        self.times.append(time)
        self.counted += 1

    def add_exit(self, thread_id: int, region, time: float) -> None:
        self.codes.append(
            K_EXIT | (thread_id << TID_SHIFT) | (region.handle << RID_SHIFT)
        )
        self.times.append(time)
        self.counted += 1

    def add_task_begin(
        self,
        thread_id: int,
        region,
        instance: int,
        time: float,
        parameter: Optional[tuple] = None,
    ) -> None:
        code = (
            K_TASK_BEGIN
            | (thread_id << TID_SHIFT)
            | (region.handle << RID_SHIFT)
            | (zigzag(instance) << INST_SHIFT)
        )
        if parameter is not None:
            self.payloads[len(self.codes)] = parameter
            code |= F_PAYLOAD
        self.codes.append(code)
        self.times.append(time)
        self.counted += 1

    def add_task_end(self, thread_id: int, region, instance: int, time: float) -> None:
        self.codes.append(
            K_TASK_END
            | (thread_id << TID_SHIFT)
            | (region.handle << RID_SHIFT)
            | (zigzag(instance) << INST_SHIFT)
        )
        self.times.append(time)
        self.counted += 1

    def add_task_switch(self, thread_id: int, instance: int, time: float) -> None:
        self.codes.append(
            K_TASK_SWITCH
            | (thread_id << TID_SHIFT)
            | (zigzag(instance) << INST_SHIFT)
        )
        self.times.append(time)
        self.counted += 1

    def add_metric(self, thread_id: int, counters: dict, time: float) -> None:
        self.payloads[len(self.codes)] = counters
        self.codes.append(K_METRIC | (thread_id << TID_SHIFT) | F_PAYLOAD)
        self.times.append(time)
        # metrics are not counted: they add no per-event cost and the
        # manager never tallies them in events_delivered.

