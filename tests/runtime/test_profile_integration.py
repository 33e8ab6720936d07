"""Integration: instrumented runs produce consistent task-aware profiles.

These tests assert the invariants the paper's design guarantees:

* time conservation: the implicit-task tree spans the region duration,
* stub accounting: per thread, total stub time equals the execution time
  of the task fragments that ran on that thread,
* instance counting: aggregate duration samples == completed tasks,
* recorded event streams pass the task-aware validator,
* the uninstrumented configuration dispatches zero events.
"""

import pytest

from repro.events.validate import validate_program_trace
from repro.runtime import OpenMPRuntime, RuntimeConfig
from repro.runtime.runtime import run_parallel


def fib(ctx, n):
    if n < 2:
        yield ctx.compute(1.0)
        return n
    a = yield ctx.spawn(fib, n - 1)
    b = yield ctx.spawn(fib, n - 2)
    yield ctx.taskwait()
    yield ctx.compute(0.5)
    return a.result + b.result


def fib_region(ctx, n=8):
    if (yield ctx.single()):
        root = yield ctx.spawn(fib, n)
        yield ctx.taskwait()
        return root.result
    return None


@pytest.fixture(params=[1, 2, 4])
def instrumented_run(request):
    config = RuntimeConfig(n_threads=request.param, instrument=True, seed=11)
    result = run_parallel(fib_region, config=config, name="fib-kernel")
    return result


def test_functional_result_unaffected_by_instrumentation(instrumented_run):
    values = [v for v in instrumented_run.return_values if v is not None]
    assert values == [21]  # fib(8)


def test_profile_exists_and_counts_instances(instrumented_run):
    profile = instrumented_run.profile
    assert profile is not None
    agg = profile.task_tree("fib")
    assert agg.metrics.durations.count == instrumented_run.completed_tasks
    # fib(8) spawns 2*F(9)-1 = 67 task instances
    assert instrumented_run.completed_tasks == 67


def test_main_tree_spans_region_duration(instrumented_run):
    profile = instrumented_run.profile
    for t in range(profile.n_threads):
        root = profile.main_tree(t)
        assert root.inclusive_time == pytest.approx(
            instrumented_run.duration, rel=1e-9
        )
        # exclusive times non-negative everywhere (execution-node design)
        for node in root.walk():
            assert node.exclusive_time >= -1e-9


def test_stub_time_equals_executed_fragment_time(instrumented_run):
    """Per-thread invariant linking main tree and task trees."""
    profile = instrumented_run.profile
    total_stub = 0.0
    for t in range(profile.n_threads):
        total_stub += sum(
            node.metrics.inclusive_time for node in profile.stub_nodes(t)
        )
    total_task = sum(
        tree.metrics.durations.total
        for per_thread in profile.task_trees
        for tree in per_thread.values()
    )
    assert total_stub == pytest.approx(total_task, rel=1e-9)


def test_taskwait_and_create_regions_present_in_task_tree(instrumented_run):
    agg = instrumented_run.profile.task_tree("fib")
    names = {node.region.name for node in agg.walk()}
    assert "taskwait" in names
    assert "create@fib" in names


def test_uninstrumented_run_dispatches_no_events():
    config = RuntimeConfig(n_threads=2, instrument=False, seed=11)
    result = run_parallel(fib_region, config=config)
    assert result.events_dispatched == 0
    assert result.profile is None
    assert result.total("instr") == 0.0


def test_instrumented_run_is_slower_single_thread():
    """At one thread there is no shadowing: instrumentation costs time."""
    durations = {}
    for instrument in (False, True):
        config = RuntimeConfig(n_threads=1, instrument=instrument, seed=11)
        durations[instrument] = run_parallel(fib_region, config=config).duration
    assert durations[True] > durations[False]


def test_recorded_trace_is_valid_and_matches_profile():
    config = RuntimeConfig(
        n_threads=2, instrument=True, substrates=("profiling", "tracing"), seed=3
    )
    result = run_parallel(fib_region, config=config)
    trace = result.trace
    assert trace is not None
    validate_program_trace(trace)
    begins = sum(len(s.task_begins()) for s in trace.streams)
    ends = sum(len(s.task_ends()) for s in trace.streams)
    assert begins == ends == result.completed_tasks


def test_concurrency_tracking_reflects_recursion_depth():
    """Table II mechanism: max concurrent instance trees ~ recursion depth."""
    config = RuntimeConfig(n_threads=1, instrument=True, seed=0)
    result = run_parallel(fib_region, config=config)
    max_concurrent = result.profile.max_concurrent_tasks_per_thread()
    # fib(8) depth-first on one thread: at most ~n concurrent instances.
    assert 1 <= max_concurrent <= 8


def test_work_time_identical_instrumented_or_not():
    """Instrumentation adds instr time but never changes useful work."""
    work = {}
    for instrument in (False, True):
        config = RuntimeConfig(n_threads=2, instrument=instrument, seed=9)
        result = run_parallel(fib_region, config=config)
        work[instrument] = result.total("work")
    assert work[True] == pytest.approx(work[False])


def test_region_time_queries():
    config = RuntimeConfig(n_threads=2, instrument=True, seed=5)
    result = run_parallel(fib_region, config=config)
    profile = result.profile
    create_time = profile.region_time("create@fib", "exclusive", "tasks")
    taskwait_time = profile.region_time("taskwait", "exclusive", "everywhere")
    assert create_time > 0.0
    assert taskwait_time > 0.0


def test_single_region_appears_in_main_tree():
    config = RuntimeConfig(n_threads=2, instrument=True, seed=5)
    result = run_parallel(fib_region, config=config)
    merged = result.profile.aggregated_main_tree()
    single = merged.find_one("single")
    assert single.visits == 2  # both threads pass the construct
