"""The POMP2-style per-event listener protocol.

A listener receives the measurement events the instrumented application
produces, one callback per event.  Only per-event substrates implement
it (tracing, the recorder, third-party substrates): the instrumentation
layer batches events, and the base
:meth:`~repro.substrates.base.Substrate.on_batch` shim turns a batch
back into these calls through :func:`~repro.events.batch.replay`.
Columnar consumers, the task profiler among them, read the batch
directly.
"""

from __future__ import annotations

from typing import Optional, Protocol, runtime_checkable

from repro.events.model import InstanceId
from repro.events.regions import Region


@runtime_checkable
class Pomp2Listener(Protocol):
    """What a per-event consumer implements.  All times are virtual µs."""

    def on_enter(
        self, thread_id: int, region: Region, time: float, parameter: Optional[tuple] = None
    ) -> None: ...

    def on_exit(self, thread_id: int, region: Region, time: float) -> None: ...

    def on_task_begin(
        self,
        thread_id: int,
        region: Region,
        instance: InstanceId,
        time: float,
        parameter: Optional[tuple] = None,
    ) -> None: ...

    def on_task_end(
        self, thread_id: int, region: Region, instance: InstanceId, time: float
    ) -> None: ...

    def on_task_switch(self, thread_id: int, instance: InstanceId, time: float) -> None: ...

    def on_metric(self, thread_id: int, counters: dict, time: float) -> None: ...

    def on_phase_begin(self, name: str) -> None: ...

    def on_phase_end(self, name: str) -> None: ...

    def on_finish(self, time: float) -> None: ...
