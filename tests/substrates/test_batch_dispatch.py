"""Batched substrate dispatch: fan-out, quarantine, accounting.

The columnar event path hands whole :class:`EventBatch`\\ es to
``SubstrateManager.on_batch``.  These tests pin the contract:

* ``events_delivered`` counts individual events per batch, not flushes;
* a non-essential substrate raising mid-batch is quarantined, and an
  essential one aborts the run;
* ``extra_cost_per_event`` is cached at dispatch rebuilds and stays
  stable across a mid-run quarantine.
"""

import pytest

from repro.events.batch import EventBatch
from repro.events.regions import RegionRegistry, RegionType
from repro.substrates.base import Substrate
from repro.substrates.manager import SubstrateManager
from tests.batch_calls import batch_calls


class ProbeSubstrate(Substrate):
    """Records every event of every batch as a ``(kind, *args)`` call."""

    essential = False

    def __init__(self, name="probe", per_event_cost=0.0):
        self.name = name
        self.per_event_cost = per_event_cost
        self.calls = []

    def on_batch(self, batch):
        for call in batch_calls(batch):
            self.consume(call)

    def consume(self, call):
        self.calls.append(call)


class BlowupSubstrate(ProbeSubstrate):
    """Raises at an enter after ``survive`` successful enters."""

    def __init__(self, name="blowup", survive=0, essential=False):
        super().__init__(name=name)
        self.survive = survive
        self.essential = essential

    def consume(self, call):
        if call[0] == "enter" and sum(c[0] == "enter" for c in self.calls) >= self.survive:
            raise RuntimeError("boom")
        super().consume(call)


def _quarantined(manager):
    return [incident.substrate for incident in manager.incidents]


@pytest.fixture
def regions():
    reg = RegionRegistry()
    return reg, {
        "f": reg.register("f", RegionType.FUNCTION),
        "task": reg.register("task", RegionType.TASK),
        "barrier": reg.register("barrier", RegionType.IMPLICIT_BARRIER),
    }


def _mixed_batch(reg, r):
    batch = EventBatch(reg)
    batch.add_enter(0, r["f"], 1.0)
    batch.add_task_begin(1, r["task"], 7, 2.0, parameter=("n", 3))
    batch.add_metric(0, {"cnt": 4}, 2.5)
    batch.add_task_switch(1, -2, 3.0)
    batch.add_task_end(1, r["task"], 7, 4.0)
    batch.add_exit(0, r["f"], 5.0)
    return batch


def test_events_delivered_counts_events_not_flushes(regions):
    reg, r = regions
    manager = SubstrateManager([ProbeSubstrate()])
    manager.initialize(reg, 2, 0.0)
    batch = _mixed_batch(reg, r)
    assert batch.counted == 5  # the metric row is not cost-bearing
    manager.on_batch(batch)
    manager.on_batch(_mixed_batch(reg, r))
    assert manager.events_delivered == 10


# ----------------------------------------------------------------------
# Quarantine semantics
# ----------------------------------------------------------------------
def test_quarantine_mid_batch_spares_other_substrates(regions):
    reg, r = regions
    bad = BlowupSubstrate(survive=0)
    good = ProbeSubstrate("good")
    manager = SubstrateManager([bad, good])
    manager.initialize(reg, 2, 0.0)

    manager.on_batch(_mixed_batch(reg, r))
    assert _quarantined(manager) == ["blowup"]
    [incident] = manager.incidents
    assert incident.callback == "on_batch"
    # batch granularity: the whole batch was accounted before dispatch
    assert incident.events_delivered == 5
    assert len(good.calls) == 6

    # A second batch is delivered to the survivor only.
    manager.on_batch(_mixed_batch(reg, r))
    assert len(good.calls) == 12
    assert manager.events_delivered == 10


def test_essential_substrate_exception_propagates(regions):
    reg, r = regions
    bad = BlowupSubstrate(survive=0, essential=True)
    manager = SubstrateManager([bad])
    manager.initialize(reg, 2, 0.0)
    with pytest.raises(RuntimeError, match="boom"):
        manager.on_batch(_mixed_batch(reg, r))
    assert not manager.incidents


# ----------------------------------------------------------------------
# extra_cost_per_event caching
# ----------------------------------------------------------------------
def test_extra_cost_cached_and_stable_across_quarantine(regions):
    reg, r = regions
    bad = BlowupSubstrate(survive=2)
    bad.per_event_cost = 0.7
    good = ProbeSubstrate("good", per_event_cost=0.3)
    manager = SubstrateManager([bad, good])
    manager.initialize(reg, 2, 0.0)

    assert manager.extra_cost_per_event == pytest.approx(1.0)
    # The property reads the cached field, not a live re-summation.
    assert manager.extra_cost_per_event is manager._extra_cost_per_event

    # Two enters survive, the third quarantines `bad` mid-run...
    for t in (1.0, 2.0, 3.0):
        batch = EventBatch(reg)
        batch.add_enter(0, r["f"], t)
        manager.on_batch(batch)
    assert _quarantined(manager) == ["blowup"]
    # ...and the charge must NOT drop: the cost model is part of the
    # deterministic virtual timeline.
    assert manager.extra_cost_per_event == pytest.approx(1.0)

    # The cache is re-derived (same value) on the quarantine rebuild.
    assert manager._extra_cost_per_event == pytest.approx(1.0)
