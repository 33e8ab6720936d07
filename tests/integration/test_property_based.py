"""Property-based tests (hypothesis): invariants over random task programs.

A random *program shape* is a recursive tree spec: each node is a task
that computes for a drawn amount of virtual time, spawns its children,
optionally taskwaits in the middle, and combines results.  The properties
assert what the paper's design guarantees for ANY program and ANY
schedule seed:

* functional results are schedule-independent,
* enter/exit nesting holds per task instance (recorded streams validate),
* no negative exclusive times anywhere (execution-node attribution),
* per-run: total stub time == total task execution time,
* instance counts in the aggregate trees == completed task count,
* main trees span the region duration on every thread,
* instance-tree node pools fully recycle.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.events.validate import validate_program_trace
from repro.profiling.metrics import StatAccumulator
from repro.runtime import RuntimeConfig
from repro.runtime.runtime import run_parallel


# ----------------------------------------------------------------------
# Program-shape strategy
# ----------------------------------------------------------------------
@st.composite
def tree_specs(draw, max_depth=4, max_children=3):
    """A recursive spec: (compute_us, [children], taskwait_mid: bool)."""
    compute = draw(st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
    depth_budget = draw(st.integers(min_value=0, max_value=max_depth))
    if depth_budget == 0:
        return (compute, [], False)
    n_children = draw(st.integers(min_value=0, max_value=max_children))
    children = [
        draw(tree_specs(max_depth=depth_budget - 1, max_children=max_children))
        for _ in range(n_children)
    ]
    taskwait_mid = draw(st.booleans())
    return (compute, children, taskwait_mid)


def spec_task(ctx, spec):
    """Execute one spec node as a task; returns the subtree node count."""
    compute, children, taskwait_mid = spec
    yield ctx.compute(compute)
    handles = []
    half = len(children) // 2
    for child in children[:half]:
        handles.append((yield ctx.spawn(spec_task, child)))
    if taskwait_mid and handles:
        yield ctx.taskwait()
    for child in children[half:]:
        handles.append((yield ctx.spawn(spec_task, child)))
    yield ctx.taskwait()
    return 1 + sum(h.result for h in handles)


def spec_region(spec):
    def region(ctx):
        if (yield ctx.single()):
            root = yield ctx.spawn(spec_task, spec)
            yield ctx.taskwait()
            return root.result
        return None

    return region


def spec_size(spec) -> int:
    compute, children, _ = spec
    return 1 + sum(spec_size(c) for c in children)


def run_spec(spec, n_threads, seed, substrates=()):
    config = RuntimeConfig(
        n_threads=n_threads,
        instrument=True,
        seed=seed,
        substrates=substrates,
    )
    return run_parallel(spec_region(spec), config=config, name="prop")


COMMON_SETTINGS = settings(max_examples=60, deadline=None)


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@COMMON_SETTINGS
@given(spec=tree_specs(), n_threads=st.integers(1, 4), seed=st.integers(0, 7))
def test_functional_result_schedule_independent(spec, n_threads, seed):
    expected = spec_size(spec)
    result = run_spec(spec, n_threads, seed)
    values = [v for v in result.return_values if v is not None]
    assert values == [expected]
    assert result.completed_tasks == expected


@COMMON_SETTINGS
@given(spec=tree_specs(), n_threads=st.integers(1, 4), seed=st.integers(0, 7))
def test_no_negative_exclusive_times(spec, n_threads, seed):
    profile = run_spec(spec, n_threads, seed).profile
    for tree in profile.main_trees:
        for node in tree.walk():
            assert node.exclusive_time >= -1e-6, node.path_names()
    for per_thread in profile.task_trees:
        for tree in per_thread.values():
            for node in tree.walk():
                assert node.exclusive_time >= -1e-6, node.path_names()


@COMMON_SETTINGS
@given(spec=tree_specs(), n_threads=st.integers(1, 4), seed=st.integers(0, 7))
def test_stub_time_matches_task_time(spec, n_threads, seed):
    profile = run_spec(spec, n_threads, seed).profile
    stub_time = sum(
        node.metrics.inclusive_time
        for tree in profile.main_trees
        for node in tree.walk()
        if node.is_stub
    )
    task_time = sum(
        tree.metrics.durations.total
        for per_thread in profile.task_trees
        for tree in per_thread.values()
    )
    assert math.isclose(stub_time, task_time, rel_tol=1e-9, abs_tol=1e-9)


@COMMON_SETTINGS
@given(spec=tree_specs(), n_threads=st.integers(1, 4), seed=st.integers(0, 7))
def test_main_trees_span_region_duration(spec, n_threads, seed):
    result = run_spec(spec, n_threads, seed)
    for tree in result.profile.main_trees:
        assert math.isclose(tree.inclusive_time, result.duration, rel_tol=1e-9)


@COMMON_SETTINGS
@given(spec=tree_specs(), n_threads=st.integers(1, 4), seed=st.integers(0, 7))
def test_instance_samples_equal_completed_tasks(spec, n_threads, seed):
    result = run_spec(spec, n_threads, seed)
    samples = sum(
        tree.metrics.durations.count
        for per_thread in result.profile.task_trees
        for tree in per_thread.values()
    )
    assert samples == result.completed_tasks


@COMMON_SETTINGS
@given(spec=tree_specs(), n_threads=st.integers(1, 3), seed=st.integers(0, 3))
def test_recorded_streams_validate(spec, n_threads, seed):
    result = run_spec(spec, n_threads, seed, substrates=("profiling", "tracing"))
    validate_program_trace(result.trace)


@COMMON_SETTINGS
@given(spec=tree_specs(), n_threads=st.integers(1, 4), seed=st.integers(0, 7))
def test_node_pools_fully_recycle(spec, n_threads, seed):
    result = run_spec(spec, n_threads, seed)
    for stats in result.profile.memory_stats:
        pool = stats["pool"]
        assert pool["released"] == pool["allocated"] + pool["reused"]
        concurrency = stats["concurrency"]
        assert concurrency["overall_max"] <= concurrency["total_instances"]


@COMMON_SETTINGS
@given(spec=tree_specs(), seed=st.integers(0, 7))
def test_determinism_bitwise(spec, seed):
    a = run_spec(spec, 3, seed)
    b = run_spec(spec, 3, seed)
    assert a.duration == b.duration
    assert a.thread_stats == b.thread_stats
    assert a.pool_stats == b.pool_stats


# ----------------------------------------------------------------------
# StatAccumulator algebra (merge is associative/commutative)
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(
    chunks=st.lists(
        st.lists(st.floats(0.0, 1e6, allow_nan=False), max_size=8), max_size=5
    ),
    order=st.randoms(use_true_random=False),
)
def test_stat_accumulator_merge_order_invariant(chunks, order):
    accumulators = []
    for chunk in chunks:
        acc = StatAccumulator()
        for value in chunk:
            acc.add(value)
        accumulators.append(acc)

    sequential = StatAccumulator()
    for chunk in chunks:
        for value in chunk:
            sequential.add(value)

    shuffled = list(accumulators)
    order.shuffle(shuffled)
    merged = StatAccumulator()
    for acc in shuffled:
        merged.merge(acc)

    assert merged.count == sequential.count
    assert math.isclose(merged.total, sequential.total, rel_tol=1e-12) or (
        merged.total == sequential.total == 0.0
    )
    if sequential.count:
        assert merged.minimum == sequential.minimum
        assert merged.maximum == sequential.maximum


@COMMON_SETTINGS
@given(spec=tree_specs(), n_threads=st.integers(1, 4), seed=st.integers(0, 7))
def test_thread_time_fully_accounted(spec, n_threads, seed):
    """Every thread's accounting buckets sum exactly to the region
    duration: no virtual time is ever unattributed."""
    result = run_spec(spec, n_threads, seed)
    for stats in result.thread_stats:
        assert math.isclose(
            sum(stats.values()), result.duration, rel_tol=1e-9, abs_tol=1e-9
        )
