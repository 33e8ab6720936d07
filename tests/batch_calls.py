"""Reorder an :class:`EventBatch`'s records into per-event call tuples for test fakes.

Substrates consume only whole batches; a fake that wants to see one
event at a time iterates :func:`batch_calls` inside its ``on_batch``.
"""

from __future__ import annotations

from typing import Iterator

from repro.events.batch import EventBatch


def batch_calls(batch: EventBatch) -> Iterator[tuple]:
    """Yield ``(kind, *args)`` per event, in batch order.

    ``args`` follow the POMP2 argument order, with regions resolved
    through ``batch.registry`` and instance ids unzigzagged -- the
    fields of :meth:`EventBatch.records` with the time moved behind the
    region/instance arguments:

    * ``("enter", thread, region, time, parameter)``
    * ``("exit", thread, region, time)``
    * ``("task_begin", thread, region, instance, time, parameter)``
    * ``("task_end", thread, region, instance, time)``
    * ``("task_switch", thread, instance, time)``
    * ``("metric", thread, counters, time)``
    """
    for kind, tid, time, *args in batch.records():
        split = 2 if kind in ("task_begin", "task_end") else 1
        yield (kind, tid, *args[:split], time, *args[split:])
