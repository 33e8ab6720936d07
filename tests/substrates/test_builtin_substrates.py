"""Unit tests for the built-in substrates and their one consume path."""

import pytest

from repro.events import RegionRegistry, RegionType
from repro.events.batch import EventBatch
from repro.faults.recording import DieAtRecordSubstrate
from repro.substrates import (
    OnlineValidationSubstrate,
    ProfilingSubstrate,
    StatsSubstrate,
    Substrate,
)

EVENT_CALLBACKS = (
    "on_enter", "on_exit", "on_task_begin", "on_task_end", "on_task_switch", "on_metric",
)


def _builtin_substrates(cls=Substrate):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("repro."):
            yield sub
        yield from _builtin_substrates(sub)


# ----------------------------------------------------------------------
# One consume path per substrate
# ----------------------------------------------------------------------
def test_no_builtin_substrate_consumes_both_ways():
    classes = list(_builtin_substrates())
    assert {"TracingSubstrate", "StatsSubstrate", "RecorderSubstrate"} <= {
        c.__name__ for c in classes
    }  # the recorder is imported with DieAtRecordSubstrate above
    for cls in classes:
        native = cls.on_batch is not Substrate.on_batch
        per_event = [
            cb for cb in EVENT_CALLBACKS if getattr(cls, cb) is not getattr(Substrate, cb)
        ]
        assert not (native and per_event), f"{cls.__name__}: on_batch and {per_event}"


@pytest.fixture()
def registry():
    return RegionRegistry()


def test_profiling_substrate_binds_only_the_batch_consume(registry):
    substrate = ProfilingSubstrate()
    substrate.initialize(registry, 1, 0.0, registry.register("i", RegionType.IMPLICIT_TASK))
    assert "on_batch" in vars(substrate)
    assert not set(EVENT_CALLBACKS) & set(vars(substrate))


def test_die_at_record_substrate_overrides_only_append():
    own = {n for n, v in vars(DieAtRecordSubstrate).items() if callable(v)}
    assert own == {"__init__", "_append"}


# ----------------------------------------------------------------------
# StatsSubstrate
# ----------------------------------------------------------------------
def test_stats_counts_per_kind_thread_and_region_type(registry):
    func = registry.register("f", RegionType.FUNCTION)
    task = registry.register("t", RegionType.TASK)
    stats = StatsSubstrate()
    stats.initialize(registry, 2, 0.0)

    batch = EventBatch(registry)
    batch.add_enter(0, func, 1.0)
    batch.add_exit(0, func, 2.0)
    batch.add_task_begin(1, task, 1, 3.0)
    batch.add_task_switch(1, -2, 4.0)
    batch.add_task_end(1, task, 1, 5.0)
    batch.add_metric(0, {"c": 1}, 5.0)
    stats.on_batch(batch)

    artifact = stats.artifact()
    assert artifact["total_events"] == 5  # metric piggybacks, not counted
    assert artifact["per_thread"] == [2, 3]
    assert artifact["per_kind"] == {
        "enter": 1, "exit": 1, "task_begin": 1, "task_end": 1, "task_switch": 1, "metric": 1,
    }
    assert artifact["per_region_type"] == {"function": 1}


# ----------------------------------------------------------------------
# OnlineValidationSubstrate
# ----------------------------------------------------------------------
def _validate(registry, n_threads, fill):
    """Run ``fill(batch)``'s events through a fresh substrate, finalized."""
    sub = OnlineValidationSubstrate()
    sub.initialize(registry, n_threads, 0.0)
    batch = EventBatch(registry)
    fill(batch)
    sub.on_batch(batch)
    sub.finalize(99.0)
    return sub


def test_validation_clean_sequence(registry):
    func = registry.register("f", RegionType.FUNCTION)
    task = registry.register("t", RegionType.TASK)

    def fill(batch):
        batch.add_enter(0, func, 1.0)
        batch.add_exit(0, func, 2.0)
        batch.add_task_begin(0, task, 1, 3.0)
        batch.add_task_end(0, task, 1, 4.0)
        batch.add_metric(0, {"c": 1}, 4.0)  # not an event to check

    artifact = _validate(registry, 1, fill).artifact()
    assert artifact["clean"] is True
    assert artifact["violations"] == 0
    assert artifact["events_checked"] == 4


def test_validation_flags_corrupt_stream_online(registry):
    func = registry.register("f", RegionType.FUNCTION)
    task = registry.register("t", RegionType.TASK)

    def fill(batch):
        batch.add_exit(0, func, 1.0)  # exit with no open region
        batch.add_task_end(0, task, 7, 2.0)  # end of a never-begun instance
        batch.add_enter(0, func, 1.5)  # timestamp going backwards
        batch.add_task_begin(0, task, 1, 3.0)  # begun...

    artifact = _validate(registry, 1, fill).artifact()  # ...but never ended
    assert artifact["clean"] is False
    kinds = artifact["by_kind"]
    assert kinds["exit-unmatched"] == 1
    assert kinds["end-inactive"] == 1
    assert kinds["time-order"] == 1
    assert kinds["end-count"] == 1  # instance 1 begun, ended 0 times
    assert kinds["end-without-begin"] == 1  # instance 7 ended, never begun
    assert artifact["violations"] == sum(kinds.values())
    assert artifact["first"]  # human-readable samples retained


def test_validation_detects_cross_thread_double_begin(registry):
    task = registry.register("t", RegionType.TASK)

    def fill(batch):
        batch.add_task_begin(0, task, 1, 1.0)
        batch.add_task_end(0, task, 1, 2.0)
        batch.add_task_begin(1, task, 1, 3.0)  # same instance begun again elsewhere
        batch.add_task_end(1, task, 1, 4.0)

    artifact = _validate(registry, 2, fill).artifact()
    assert artifact["by_kind"]["begin-count"] == 1
    assert artifact["by_kind"]["end-count"] == 1


def test_validation_allows_untied_migration_between_threads(registry):
    func = registry.register("f", RegionType.FUNCTION)
    task = registry.register("t", RegionType.TASK)

    # Begin on thread 0, open a region, suspend; resume on thread 1, close
    # the region and end there: legal for untied tasks, and the instance
    # table the threads' checkers share proves it live.
    def fill(batch):
        batch.add_task_begin(0, task, 1, 1.0)
        batch.add_enter(0, func, 1.5)
        batch.add_task_switch(0, -1, 2.0)
        batch.add_task_switch(1, 1, 3.0)
        batch.add_exit(1, func, 3.5)
        batch.add_task_end(1, task, 1, 4.0)

    artifact = _validate(registry, 2, fill).artifact()
    assert artifact["clean"] is True, artifact["first"]
    assert artifact["events_checked"] == 6


def test_validation_caps_recorded_but_counts_all(registry):
    func = registry.register("f", RegionType.FUNCTION)
    sub = OnlineValidationSubstrate(max_recorded=3)
    sub.initialize(registry, 1, 0.0)
    batch = EventBatch(registry)
    for i in range(10):
        batch.add_exit(0, func, float(i))  # ten unmatched exits
    sub.on_batch(batch)
    assert sub.total_violations == 10
    assert len(sub.violations) == 3
