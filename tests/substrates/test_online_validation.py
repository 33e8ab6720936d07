"""The online and offline validators are one checker.

The online-validation substrate reads :class:`EventBatch` columns; the
whole-trace validator reads event objects.  Both drive the same
``TaskStreamChecker`` and ``TraceClosure``, so on any single-thread
stream they must report the same violations.  Across threads both keep
one instance table for all threads, so both follow legal untied
migration: online in dispatch order, offline over the merged trace.
"""

from collections import Counter

import pytest

from repro.cube.export import profile_to_dict
from repro.events import RegionRegistry, RegionType
from repro.events.batch import EventBatch
from repro.events.model import (
    EnterEvent,
    ExitEvent,
    TaskBeginEvent,
    TaskEndEvent,
    TaskSwitchEvent,
    implicit_instance_id,
)
from repro.events.stream import ProgramTrace
from repro.events.validate import collect_trace_violations, validate_program_trace
from repro.faults.campaign import salvage_profile_from_trace
from repro.runtime import RuntimeConfig
from repro.runtime.runtime import run_parallel
from repro.substrates import OnlineValidationSubstrate
from tests.integration.test_feature_interactions import (
    kitchen_sink_child,
    kitchen_sink_region,
)

IMPL = implicit_instance_id(0)

#: Single-thread streams an EventBatch can express, each one corrupt.
#: Steps are (kind, region name or instance, time).
CORRUPT_STREAMS = {
    "unmatched-exit": [("exit", "f", 1.0)],
    "end-inactive": [
        ("begin", 1, 1.0), ("end", 1, 2.0), ("end", 1, 3.0), ("end", 7, 4.0),
    ],
    "double-begin": [("begin", 1, 1.0), ("begin", 1, 2.0), ("end", 1, 3.0)],
    "time-backwards": [("enter", "f", 5.0), ("exit", "f", 4.0)],
    "never-ended": [("begin", 1, 1.0), ("enter", "f", 2.0)],
    "mixed": [
        ("exit", "f", 1.0),
        ("end", 7, 2.0),
        ("enter", "f", 1.5),
        ("begin", 1, 3.0),
        ("switch", 2, 3.5),
        ("exit", "g", 4.0),
    ],
}


def _online_and_offline(steps):
    """Feed ``steps`` to the substrate as a batch and to the offline
    validator as a trace; return both as multisets of (kind, message)."""
    registry = RegionRegistry()
    regions = {
        "f": registry.register("f", RegionType.FUNCTION),
        "g": registry.register("g", RegionType.FUNCTION),
    }
    task = registry.register("t", RegionType.TASK)
    batch = EventBatch(registry)
    trace = ProgramTrace(1, registry)
    current = IMPL  # attributed as the tracing substrate attributes it
    for kind, arg, time in steps:
        if kind == "enter":
            batch.add_enter(0, regions[arg], time)
            event = EnterEvent(0, time, current, regions[arg])
        elif kind == "exit":
            batch.add_exit(0, regions[arg], time)
            event = ExitEvent(0, time, current, regions[arg])
        elif kind == "begin":
            batch.add_task_begin(0, task, arg, time)
            event = TaskBeginEvent(0, time, arg, task, arg)
            current = arg
        elif kind == "end":
            batch.add_task_end(0, task, arg, time)
            event = TaskEndEvent(0, time, arg, task, arg)
            current = IMPL
        else:
            batch.add_task_switch(0, arg, time)
            event = TaskSwitchEvent(0, time, arg, arg)
            current = arg
        trace.streams[0].append_unchecked(event)

    sub = OnlineValidationSubstrate()
    sub.initialize(registry, 1, 0.0)
    sub.on_batch(batch)
    sub.finalize(99.0)
    online = Counter((v.kind, v.message) for v in sub.violations)
    offline = Counter((v.kind, v.message) for v in collect_trace_violations(trace))
    return online, offline


@pytest.mark.parametrize("name", sorted(CORRUPT_STREAMS))
def test_online_and_offline_validators_agree(name):
    online, offline = _online_and_offline(CORRUPT_STREAMS[name])
    assert offline  # every stream here is corrupt
    assert online == offline


def test_agreement_covers_every_named_rule():
    seen = set()
    for steps in CORRUPT_STREAMS.values():
        online, _ = _online_and_offline(steps)
        seen.update(kind for kind, _ in online)
    assert {
        "exit-unmatched", "end-inactive", "begin-twice", "time-order",
        "begin-count", "end-count", "end-without-begin",
    } <= seen


def untied_region(ctx):
    if (yield ctx.single()):
        handles = []
        for _ in range(6):
            handles.append((yield ctx.spawn(kitchen_sink_child, 5, 0, tied=False)))
        yield ctx.taskwait()
        return sum(handle.result for handle in handles)
    return None


@pytest.mark.parametrize("n_threads", [2, 3, 4, 8])
def test_untied_migration_validates_clean_online(n_threads):
    for seed in range(10):
        config = RuntimeConfig(
            n_threads=n_threads,
            allow_untied=True,
            seed=seed,
            substrates=("profiling", "validation"),
        )
        result = run_parallel(untied_region, config=config)
        artifact = result.substrate_artifacts["validation"]
        assert artifact["clean"] is True, (seed, artifact["first"])
        assert artifact["events_checked"] == result.events_dispatched


def _tree_dict(profile):
    """``profile_to_dict`` without what only a live run measures: node
    counters, memory statistics and the salvage report."""
    data = profile_to_dict(profile)
    for key in ("memory_stats", "salvage"):
        data.pop(key, None)

    def strip(node):
        node.pop("counters", None)
        for child in node["children"]:
            strip(child)

    for tree in data["main_trees"]:
        strip(tree)
    for trees in data["task_trees"]:
        for tree in trees:
            strip(tree)
    return data


@pytest.mark.parametrize("allow_untied", [True, False], ids=["untied", "tied"])
@pytest.mark.parametrize("n_threads", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("region", [untied_region, kitchen_sink_region])
def test_untied_migration_validates_clean_offline_and_online(
    region, n_threads, allow_untied
):
    """Both validators accept a clean trace, and salvaging it rebuilds
    the live profile exactly, with nothing repaired: trace repair keeps
    one instance table for all threads, so legal migration is no orphan."""
    for seed in range(20):
        config = RuntimeConfig(
            n_threads=n_threads,
            allow_untied=allow_untied,
            seed=seed,
            substrates=("profiling", "tracing", "validation"),
        )
        result = run_parallel(region, config=config)
        violations = collect_trace_violations(result.trace)
        assert violations == [], (seed, [str(v) for v in violations[:5]])
        validate_program_trace(result.trace)
        artifact = result.substrate_artifacts["validation"]
        assert artifact["clean"] is True, (seed, artifact["first"])
        implicit = result.trace.registry.register("parallel", RegionType.IMPLICIT_TASK)
        salvaged, report = salvage_profile_from_trace(
            result.trace, implicit, finish_time=result.duration
        )
        assert not report.partial, (seed, report.summary(), report.notes[:5])
        assert _tree_dict(salvaged) == _tree_dict(result.profile), seed
