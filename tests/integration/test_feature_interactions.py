"""Feature-interaction matrix: orthogonal features compose correctly.

Each test combines several independently-tested features (filtering,
depth limits, counters, included tasks, taskyield, untied migration,
user regions, parameter instrumentation) in one run and checks both the
functional result and the core profile invariants.
"""

import pytest

from repro.instrument.filtering import RegionFilter
from repro.runtime import RuntimeConfig, ZERO_COST
from repro.runtime.runtime import run_parallel


def stub_equals_task_time(profile):
    stub = sum(
        n.metrics.inclusive_time
        for t in profile.main_trees
        for n in t.walk()
        if n.is_stub
    )
    task = sum(
        t.metrics.durations.total
        for per in profile.task_trees
        for t in per.values()
    )
    assert stub == pytest.approx(task, rel=1e-9, abs=1e-9)


def kitchen_sink_child(ctx, n, depth):
    yield ctx.begin_region("work", parameter=("depth", depth))
    yield ctx.compute(1.0, counters={"units": n})
    yield ctx.end_region("work")
    if depth < 2:
        # mix of deferred, included, and untied children
        a = yield ctx.spawn(kitchen_sink_child, n, depth + 1)
        b = yield ctx.spawn(kitchen_sink_child, n, depth + 1, if_clause=False)
        c = yield ctx.spawn(kitchen_sink_child, n, depth + 1, tied=False)
        yield ctx.taskyield()
        yield ctx.taskwait()
        return a.result + b.result + c.result + 1
    return 1


def kitchen_sink_region(ctx):
    if (yield ctx.single()):
        handle = yield ctx.spawn(kitchen_sink_child, 5, 0)
        yield ctx.taskwait()
        return handle.result
    return None


EXPECTED_NODES = 1 + 3 + 9  # depths 0,1,2 of a 3-ary tree


@pytest.mark.parametrize("n_threads", [1, 3])
@pytest.mark.parametrize("allow_untied", [False, True])
def test_kitchen_sink_program(n_threads, allow_untied):
    config = RuntimeConfig(
        n_threads=n_threads,
        instrument=True,
        costs=ZERO_COST,
        allow_untied=allow_untied,
        seed=3,
    )
    result = run_parallel(kitchen_sink_region, config=config)
    values = [v for v in result.return_values if v is not None]
    assert values == [EXPECTED_NODES]
    assert result.completed_tasks == EXPECTED_NODES
    profile = result.profile
    stub_equals_task_time(profile)
    # counters survived the feature mix (attributed to the user-region
    # nodes the computes executed inside)
    total_units = sum(
        node.metrics.counter("units")
        for per in profile.task_trees
        for tree in per.values()
        for node in tree.walk()
    )
    assert total_units == 5 * EXPECTED_NODES
    # parameter-split user regions exist at every depth
    merged = profile.task_tree("kitchen_sink_child")
    names = {node.display_name() for node in merged.walk()}
    assert {"work[depth=0]", "work[depth=1]", "work[depth=2]"} <= names


def test_kitchen_sink_with_filter_and_depth_limit():
    config = RuntimeConfig(
        n_threads=2,
        instrument=True,
        costs=ZERO_COST,
        seed=1,
        measurement_filter=RegionFilter(exclude=("taskwait", "taskyield")),
        max_call_path_depth=2,
    )
    result = run_parallel(kitchen_sink_region, config=config)
    values = [v for v in result.return_values if v is not None]
    assert values == [EXPECTED_NODES]
    profile = result.profile
    stub_equals_task_time(profile)
    # the filter removed taskwait nodes everywhere
    all_names = {
        node.region.name
        for trees in ([profile.aggregated_main_tree()],)
        for node in trees[0].walk()
    }
    assert "taskwait" not in all_names


def test_kitchen_sink_deterministic_across_identical_runs():
    config = RuntimeConfig(n_threads=3, instrument=True, costs=ZERO_COST, seed=9)
    a = run_parallel(kitchen_sink_region, config=config)
    b = run_parallel(kitchen_sink_region, config=config)
    assert a.duration == b.duration
    assert a.thread_stats == b.thread_stats


def test_kitchen_sink_trace_validates():
    from repro.events.validate import validate_program_trace

    config = RuntimeConfig(
        n_threads=2, instrument=True, costs=ZERO_COST, seed=4,
        substrates=("profiling", "tracing"),
    )
    result = run_parallel(kitchen_sink_region, config=config)
    validate_program_trace(result.trace)
