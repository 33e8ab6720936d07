"""Decode oracle for the batch's shared decode and its consumers.

``wide_records()`` puts thread ids, region handles and instance ids at
and past every packing limit.  Packed into :class:`EventBatch`\\ es (with
metric rows added) at every split size, through one batch reused after
``clear()`` as the instrumentation layer reuses it,
``EventBatch.records()`` must return exactly those record tuples -- the
same list for every call within one fill, a new one after each refill --
the recorder must append them, and the tracer must store the matching
event objects with each enter/exit attributed to the instance its thread
last began or switched to.
"""

from repro.events.batch import EventBatch
from repro.events.model import (
    EnterEvent,
    ExitEvent,
    TaskBeginEvent,
    TaskEndEvent,
    TaskSwitchEvent,
    implicit_instance_id,
)
from repro.substrates import RecorderSubstrate, TracingSubstrate
from tests.recorder.streams import WIDE_THREAD_IDS, wide_records


class _Regions(dict):
    """handle -> Region, resolved the way ``RegionRegistry.lookup`` does."""

    lookup = dict.__getitem__


class _DecodeProbe:
    """Collects each fill's ``records()``, checking it is decoded once."""

    def __init__(self):
        self.decoded = []
        self.fills = []

    def on_batch(self, batch):
        records = batch.records()
        assert batch.records() is records
        assert all(records is not earlier for earlier in self.fills)
        self.fills.append(records)
        self.decoded.extend(records)


class _AppendLog(RecorderSubstrate):
    """A recorder that keeps each appended record instead of spilling it."""

    def __init__(self):
        super().__init__()
        self.appended = []

    def _append(self, record):
        self.appended.append(record)


def _records_with_metrics():
    """``wide_records()`` plus a metric row after every exit, and an
    enter/exit pair right after every task begin and switch (so the
    tracer's attribution to the current instance is exercised)."""
    records = []
    region = None
    for record in wide_records():
        records.append(record)
        kind, thread_id, time = record[:3]
        if kind == "exit":
            records.append(("metric", thread_id, time, {"count": len(records)}))
        elif kind == "task_begin":
            region = record[3]
        if kind in ("task_begin", "task_switch"):
            records.append(("enter", thread_id, time, region, None))
            records.append(("exit", thread_id, time, region))
    return records


RECORDS = _records_with_metrics()
N_THREADS = max(WIDE_THREAD_IDS) + 1


def _regions(records):
    regions = _Regions()
    for record in records:
        for item in record:
            if hasattr(item, "handle"):
                regions[item.handle] = item
    return regions


def _add(batch, record):
    kind, thread_id, time, *rest = record
    if kind == "enter":
        batch.add_enter(thread_id, rest[0], time, rest[1])
    elif kind == "exit":
        batch.add_exit(thread_id, rest[0], time)
    elif kind == "task_begin":
        batch.add_task_begin(thread_id, rest[0], rest[1], time, rest[2])
    elif kind == "task_end":
        batch.add_task_end(thread_id, rest[0], rest[1], time)
    elif kind == "task_switch":
        batch.add_task_switch(thread_id, rest[0], time)
    else:
        batch.add_metric(thread_id, rest[0], time)


def _feed(consumers, split):
    """Every record through one batch, flushed each ``split`` events."""
    batch = EventBatch(_regions(RECORDS))
    for record in RECORDS:
        _add(batch, record)
        if len(batch) == split:
            for consumer in consumers:
                consumer.on_batch(batch)
            batch.clear()
    if len(batch):
        for consumer in consumers:
            consumer.on_batch(batch)


def _expected_trace():
    """Per-thread events, attributed to the last begun/switched instance."""
    current = {t: implicit_instance_id(t) for t in WIDE_THREAD_IDS}
    streams = {t: [] for t in WIDE_THREAD_IDS}
    for kind, t, time, *rest in RECORDS:
        if kind == "enter":
            event = EnterEvent(t, time, current[t], rest[0], rest[1])
        elif kind == "exit":
            event = ExitEvent(t, time, current[t], rest[0])
        elif kind == "task_begin":
            current[t] = rest[1]
            event = TaskBeginEvent(t, time, rest[1], rest[0], rest[1], rest[2])
        elif kind == "task_end":
            event = TaskEndEvent(t, time, rest[1], rest[0], rest[1])
            current[t] = implicit_instance_id(t)
        elif kind == "task_switch":
            current[t] = rest[0]
            event = TaskSwitchEvent(t, time, rest[0], rest[0])
        else:
            continue
        streams[t].append(event)
    return streams


EXPECTED_TRACE = _expected_trace()


def test_recorder_and_tracer_decode_every_split():
    kinds = {record[0] for record in RECORDS}
    assert kinds == {"enter", "exit", "task_begin", "task_end", "task_switch", "metric"}
    for split in range(1, len(RECORDS) + 1):
        probe = _DecodeProbe()
        recorder = _AppendLog()
        tracing = TracingSubstrate()
        tracing.initialize(_regions(RECORDS), N_THREADS, 0.0)
        _feed([probe, recorder, tracing], split)

        assert probe.decoded == RECORDS, split
        assert len(probe.fills) == -(-len(RECORDS) // split), split
        assert recorder.appended == RECORDS, split
        trace = tracing.artifact()
        for t in range(N_THREADS):
            assert list(trace.stream(t)) == EXPECTED_TRACE.get(t, []), (split, t)

    # A batch grown after it was decoded (the instrumentation layer
    # appends to the columns directly) is decoded afresh.
    batch = EventBatch(_regions(RECORDS))
    _add(batch, RECORDS[0])
    assert batch.records() == RECORDS[:1]
    _add(batch, RECORDS[1])
    assert batch.records() == RECORDS[:2]
