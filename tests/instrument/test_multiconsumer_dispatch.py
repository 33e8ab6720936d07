"""Multi-consumer dispatch through the instrumentation layer.

The contracts several consumers rely on simultaneously:

* ``events_dispatched`` counts measured events only -- filter-suppressed
  events are tallied on the filter, not the layer,
* metrics piggy-back on an existing event boundary: delivered to every
  substrate but never counted or charged,
* toggling ``enabled`` controls the effective cost without losing the
  configured ``per_event_cost``.
"""

import pytest

from repro.events import RegionRegistry, RegionType
from repro.instrument import InstrumentationLayer
from repro.instrument.filtering import RegionFilter
from repro.substrates import Substrate, SubstrateManager
from tests.batch_calls import batch_calls


class JournalingSubstrate(Substrate):
    """Appends (name, callback) tuples to a shared, order-sensitive log."""

    def __init__(self, name, journal):
        self.name = name
        self.journal = journal

    def on_batch(self, batch):
        for kind, _thread, *args in batch_calls(batch):
            if kind in ("enter", "exit"):
                self.journal.append((self.name, kind, args[0].name))
            elif kind == "task_begin":
                self.journal.append((self.name, kind, args[1]))
            elif kind == "metric":
                self.journal.append((self.name, kind, tuple(args[0])))


@pytest.fixture()
def registry():
    return RegionRegistry()


def _layer(registry, journal, names=("only",), **kwargs):
    manager = SubstrateManager([JournalingSubstrate(n, journal) for n in names])
    return InstrumentationLayer(listener=manager, registry=registry, **kwargs)


def test_dispatched_vs_suppressed_accounting(registry):
    measured = registry.register("hot", RegionType.FUNCTION)
    filtered = registry.register("noise", RegionType.FUNCTION)
    journal = []
    layer = _layer(
        registry, journal, per_event_cost=1.0,
        region_filter=RegionFilter(exclude=("noise",)),
    )

    layer.enter(0, measured, 1.0)
    layer.enter(0, filtered, 2.0)
    layer.exit(0, filtered, 3.0)
    layer.exit(0, measured, 4.0)
    layer.flush()

    # Two events made it through, two were suppressed -- and the split is
    # visible on the right counters.
    assert layer.events_dispatched == 2
    assert layer.filter.suppressed == 2
    assert [entry[2] for entry in journal] == ["hot", "hot"]
    # Suppressed regions also cost nothing; measured ones pay full fare.
    assert layer.region_cost(filtered) == 0.0
    assert layer.region_cost(measured) == 1.0


def test_task_lifecycle_events_bypass_the_filter(registry):
    task = registry.register("noise", RegionType.TASK)
    journal = []
    layer = _layer(registry, journal, region_filter=RegionFilter(exclude=("noise",)))
    # Even though the region name matches the exclude pattern, task
    # lifecycle events are never filtered (Score-P semantics: the task
    # tree must stay consistent).
    layer.task_begin(0, task, 1, 1.0)
    layer.flush()
    assert layer.events_dispatched == 1
    assert journal == [("only", "task_begin", 1)]


def test_metric_piggybacks_no_count_no_cost(registry):
    journal = []
    layer = _layer(registry, journal, names=("a", "b"), per_event_cost=2.0)
    layer.metric(0, {"cache_misses": 41}, 1.0)
    layer.flush()
    # Delivered to every consumer...
    assert journal == [
        ("a", "metric", ("cache_misses",)),
        ("b", "metric", ("cache_misses",)),
    ]
    # ...but neither counted nor charged: it rides an existing boundary.
    assert layer.events_dispatched == 0
    assert layer.listener.events_delivered == 0


def test_enabled_toggle_preserves_configured_cost(registry):
    # Regression: a layer built with enabled=False used to clobber its
    # per_event_cost to 0.0, so enabling it later measured for free.
    layer = InstrumentationLayer(enabled=False, per_event_cost=1.5)
    assert layer.cost == 0.0
    assert layer.per_event_cost == 1.5
    layer.enabled = True
    assert layer.cost == 1.5
    layer.enabled = False
    assert layer.cost == 0.0


def test_disabled_layer_dispatches_nothing(registry):
    func = registry.register("f", RegionType.FUNCTION)
    journal = []
    layer = _layer(registry, journal, enabled=False)
    layer.enter(0, func, 1.0)
    layer.task_begin(0, func, 1, 2.0)
    layer.metric(0, {"c": 1}, 3.0)
    layer.flush()
    assert journal == []
    assert layer.events_dispatched == 0
