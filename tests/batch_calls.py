"""Decode an :class:`EventBatch` into per-event call tuples for test fakes.

Substrates consume only whole batches; a fake that wants to see one
event at a time iterates :func:`batch_calls` inside its ``on_batch``.
"""

from __future__ import annotations

from typing import Iterator

from repro.events.batch import (
    F_PAYLOAD,
    INST_SHIFT,
    K_ENTER,
    K_EXIT,
    K_TASK_BEGIN,
    K_TASK_END,
    K_TASK_SWITCH,
    KIND_MASK,
    KIND_NAMES,
    RID_MASK,
    RID_SHIFT,
    TID_MASK,
    TID_SHIFT,
    EventBatch,
)


def batch_calls(batch: EventBatch) -> Iterator[tuple]:
    """Yield ``(kind, *args)`` per event, in batch order.

    ``args`` follow the POMP2 argument order, with regions resolved
    through ``batch.registry`` and instance ids unzigzagged:

    * ``("enter", thread, region, time, parameter)``
    * ``("exit", thread, region, time)``
    * ``("task_begin", thread, region, instance, time, parameter)``
    * ``("task_end", thread, region, instance, time)``
    * ``("task_switch", thread, instance, time)``
    * ``("metric", thread, counters, time)``
    """
    lookup = batch.registry.lookup
    for i, code in enumerate(batch.codes):
        kind = code & KIND_MASK
        tid = (code >> TID_SHIFT) & TID_MASK
        time = batch.times[i]
        payload = batch.payloads[i] if code & F_PAYLOAD else None
        zz = code >> INST_SHIFT
        instance = (zz >> 1) if not zz & 1 else -((zz + 1) >> 1)
        name = KIND_NAMES[kind]
        if kind == K_ENTER:
            yield name, tid, lookup((code >> RID_SHIFT) & RID_MASK), time, payload
        elif kind == K_EXIT:
            yield name, tid, lookup((code >> RID_SHIFT) & RID_MASK), time
        elif kind == K_TASK_BEGIN:
            region = lookup((code >> RID_SHIFT) & RID_MASK)
            yield name, tid, region, instance, time, payload
        elif kind == K_TASK_END:
            yield name, tid, lookup((code >> RID_SHIFT) & RID_MASK), instance, time
        elif kind == K_TASK_SWITCH:
            yield name, tid, instance, time
        else:
            yield name, tid, payload, time
