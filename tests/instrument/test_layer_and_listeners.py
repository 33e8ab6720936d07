"""Tests for the instrumentation layer's cost and listener contract."""

from collections import Counter

import pytest

from repro.events import RegionRegistry, RegionType
from repro.events.batch import EventBatch
from repro.instrument import InstrumentationLayer
from repro.substrates.tracing import TracingSubstrate
from tests.instrument.test_batched_layer import CollectingListener


class CountingListener(CollectingListener):
    """Counts drained events and structural markers by kind."""

    @property
    def counts(self):
        return Counter(call[0] for call in self.calls)


@pytest.fixture()
def registry():
    return RegionRegistry()


@pytest.fixture()
def region(registry):
    return registry.register("r", RegionType.FUNCTION)


def test_disabled_layer_is_a_noop(registry, region):
    listener = CountingListener()
    layer = InstrumentationLayer(
        enabled=False, per_event_cost=1.0, listener=listener, registry=registry
    )
    layer.enter(0, region, 0.0)
    layer.exit(0, region, 1.0)
    layer.task_begin(0, region, 1, 2.0)
    layer.finish(3.0)
    assert listener.counts == {}
    assert layer.cost == 0.0
    assert layer.events_dispatched == 0


def test_enabled_layer_dispatches_and_counts(registry, region):
    listener = CountingListener()
    layer = InstrumentationLayer(
        enabled=True, per_event_cost=0.5, listener=listener, registry=registry
    )
    layer.enter(0, region, 0.0)
    layer.exit(0, region, 1.0)
    layer.task_begin(0, region, 1, 2.0)
    layer.task_switch(0, -1, 3.0)
    layer.task_end(0, region, 1, 4.0)
    layer.phase_begin("p")
    layer.phase_end("p")
    layer.finish(5.0)
    assert layer.events_dispatched == 5  # phase/finish are not events
    assert listener.counts["enter"] == 1
    assert listener.counts["task_switch"] == 1
    assert listener.counts["finish"] == 1
    assert layer.cost == 0.5


def test_recording_listener_tracks_current_instance(registry, region):
    """The tracing substrate stamps each event with the executing instance."""
    task = registry.register("t", RegionType.TASK)
    tracing = TracingSubstrate()
    tracing.initialize(registry, 1, 0.0)
    batch = EventBatch(registry)
    batch.add_task_begin(0, task, 1, 1.0)
    batch.add_enter(0, region, 2.0)
    batch.add_exit(0, region, 3.0)
    batch.add_task_end(0, task, 1, 4.0)
    tracing.on_batch(batch)
    trace = tracing.artifact()
    events = list(trace.stream(0))
    assert events[1].executing_instance == 1  # enter inside the task
    # after task_end the implicit task is current again
    batch.clear()
    batch.add_enter(0, region, 5.0)
    tracing.on_batch(batch)
    assert trace.stream(0)[-1].executing_instance == -1
