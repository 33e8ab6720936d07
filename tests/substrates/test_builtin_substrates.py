"""Unit tests for the built-in substrates and their one consume path."""

import pytest

from repro.events import RegionRegistry, RegionType
from repro.events.batch import EventBatch
from repro.faults.recording import DieAtRecordSubstrate
from repro.substrates import (
    OnlineValidationSubstrate,
    ProfilingSubstrate,
    RecorderSubstrate,
    StatsSubstrate,
    Substrate,
    TracingSubstrate,
)

EVENT_CALLBACKS = (
    "on_enter", "on_exit", "on_task_begin", "on_task_end", "on_task_switch", "on_metric",
)


def _builtin_substrates(cls=Substrate):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("repro."):
            yield sub
        yield from _builtin_substrates(sub)


@pytest.fixture()
def registry():
    return RegionRegistry()


# ----------------------------------------------------------------------
# One consume path per substrate
# ----------------------------------------------------------------------
def test_no_builtin_substrate_consumes_both_ways(registry, tmp_path):
    substrates = [
        ProfilingSubstrate(),
        TracingSubstrate(),
        StatsSubstrate(),
        OnlineValidationSubstrate(),
        RecorderSubstrate(record_dir=str(tmp_path / "recorder")),
        DieAtRecordSubstrate(10**9, record_dir=str(tmp_path / "die")),
    ]
    assert {type(s) for s in substrates} == set(_builtin_substrates())
    # The per-event path is gone: the base offers no per-event callback to
    # override, so on_batch is the one way events reach a substrate.
    assert not [cb for cb in EVENT_CALLBACKS if hasattr(Substrate, cb)]
    implicit = registry.register("i", RegionType.IMPLICIT_TASK)
    for substrate in substrates:
        cls = type(substrate)
        assert cls.on_batch is not Substrate.on_batch, cls.__name__
        per_event = [cb for cb in EVENT_CALLBACKS if hasattr(cls, cb)]
        assert not per_event, f"{cls.__name__}: on_batch and {per_event}"
        substrate.initialize(registry, 1, 0.0, implicit)
        # No hook is rebound onto the instance: the manager's dispatch
        # tables, built from the classes, stay right after initialize.
        bound = [n for n in vars(substrate) if n.startswith("on_")]
        assert not bound, f"{cls.__name__} binds {bound}"
        substrate.finalize(1.0)


def test_profiling_substrate_binds_only_the_batch_consume(registry):
    substrate = ProfilingSubstrate()
    substrate.initialize(registry, 1, 0.0, registry.register("i", RegionType.IMPLICIT_TASK))
    # The batch consume is the class method, delegating to the profiler;
    # nothing (on_batch included) is bound onto the instance.
    assert type(substrate).on_batch is not Substrate.on_batch
    assert substrate.on_batch.__func__ is ProfilingSubstrate.on_batch
    assert not [n for n in vars(substrate) if n.startswith("on_")]
    assert not [cb for cb in EVENT_CALLBACKS if hasattr(substrate, cb)]


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


def _stats_events(registry, case):
    """(kind, thread, region, instance, parameter) rows for one case."""
    func = registry.register("f", RegionType.FUNCTION)
    single = registry.register("s", RegionType.SINGLE, handle=2**14 + 3)
    barrier = registry.register("b", RegionType.IMPLICIT_BARRIER, handle=2**19 + 5)
    task = registry.register("t", RegionType.TASK, handle=2**20 - 1)
    if case == "empty":
        return []
    if case == "no-enters":
        return [
            ("exit", 0, func, None, None),
            ("task_begin", 1023, task, 7, (1,)),
            ("task_switch", 5, None, -3, None),
            ("task_end", 1023, task, 7, None),
            ("metric", 1023, None, None, {"c": 2}),
        ]
    if case == "metrics":
        return [
            ("metric", t, None, None, {"c": t}) for t in (0, 1, 1, 1023)
        ] + [("enter", 1, func, None, None)]
    if case == "parameterised-enters":
        return [
            ("enter", 0, func, None, (1, 2)),
            ("enter", 0, func, None, None),
            ("enter", 3, single, None, ("x",)),
            ("exit", 3, single, None, None),
        ]
    # "wide": every thread-id and region-handle range, instance ids too
    rows = []
    for t in (0, 1, 511, 1022, 1023):
        for region in (func, single, barrier):
            rows.append(("enter", t, region, None, (t,) if t % 2 else None))
            rows.append(("exit", t, region, None, None))
        rows.append(("task_begin", t, task, t * 2**18 + 1, None))
        rows.append(("task_switch", t, None, -(t + 1), None))
        rows.append(("task_end", t, task, t * 2**18 + 1, None))
        rows.append(("metric", t, None, None, {"c": t}))
    return rows


@pytest.mark.parametrize(
    "case", ["empty", "no-enters", "metrics", "parameterised-enters", "wide"]
)
def test_stats_counts_match_a_per_event_fold(registry, case):
    rows = _stats_events(registry, case)
    stats = StatsSubstrate()
    stats.initialize(registry, 1024, 0.0)
    for half in (rows[: len(rows) // 2], rows[len(rows) // 2 :]):
        batch = EventBatch(registry)
        for kind, thread, region, instance, parameter in half:
            if kind == "enter":
                batch.add_enter(thread, region, 1.0, parameter)
            elif kind == "exit":
                batch.add_exit(thread, region, 1.0)
            elif kind == "task_begin":
                batch.add_task_begin(thread, region, instance, 1.0, parameter)
            elif kind == "task_end":
                batch.add_task_end(thread, region, instance, 1.0)
            elif kind == "task_switch":
                batch.add_task_switch(thread, instance, 1.0)
            else:
                batch.add_metric(thread, parameter, 1.0)
        stats.on_batch(batch)

    per_kind = dict.fromkeys(
        ("enter", "exit", "task_begin", "task_end", "task_switch", "metric"), 0
    )
    per_thread = [0] * 1024
    per_region_type = {}
    for kind, thread, region, _instance, _parameter in rows:
        per_kind[kind] += 1
        if kind != "metric":
            per_thread[thread] += 1
        if kind == "enter":
            rtype = region.region_type.value
            per_region_type[rtype] = per_region_type.get(rtype, 0) + 1
    assert stats.artifact() == {
        "total_events": sum(per_thread),
        "per_thread": per_thread,
        "per_kind": per_kind,
        "per_region_type": dict(sorted(per_region_type.items())),
    }


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
