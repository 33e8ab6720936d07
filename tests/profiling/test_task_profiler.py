"""Unit tests for the Fig. 12 task profiling algorithm.

The central scenario mirrors the paper's Figs. 6-11 walkthrough: one
thread, a task construct A with two instances, the first suspended at a
taskwait while the second executes, both finishing inside the implicit
barrier.
"""

import pytest

from repro.errors import ProfileError
from repro.events import RegionRegistry, RegionType
from repro.events.batch import EventBatch
from repro.events.model import implicit_instance_id
from repro.profiling import TaskProfiler, ThreadTaskProfiler
from repro.profiling.task_profiler import InstanceData


@pytest.fixture()
def reg():
    return RegionRegistry()


@pytest.fixture()
def regions(reg):
    return {
        "impl": reg.register("parallel@example", RegionType.IMPLICIT_TASK),
        "A": reg.register("taskA", RegionType.TASK),
        "B": reg.register("taskB", RegionType.TASK),
        "create": reg.register("create@taskA", RegionType.TASK_CREATE),
        "taskwait": reg.register("taskwait", RegionType.TASKWAIT),
        "barrier": reg.register("barrier", RegionType.IMPLICIT_BARRIER),
        "foo": reg.register("foo", RegionType.FUNCTION),
    }


def make_thread(regions, thread_id=0):
    table = {}
    return ThreadTaskProfiler(thread_id, regions["impl"], table, start_time=0.0)


# ----------------------------------------------------------------------
# The Fig. 6-11 walkthrough
# ----------------------------------------------------------------------
def run_walkthrough(regions):
    p = make_thread(regions)
    # Fig. 7: create two tasks of construct A, then enter the barrier.
    p.enter(regions["create"], 1.0)
    p.exit(regions["create"], 1.5)
    p.enter(regions["create"], 1.5)
    p.exit(regions["create"], 2.0)
    p.enter(regions["barrier"], 4.0)
    # Fig. 8: instance 1 starts executing inside the barrier.
    p.task_begin(regions["A"], 1, 5.0)
    # Fig. 9: instance 1 suspends at a taskwait; instance 2 starts.
    p.enter(regions["taskwait"], 7.0)
    p.task_begin(regions["A"], 2, 8.0)
    # Fig. 10: instance 2 completes without entering other regions.
    p.task_end(regions["A"], 2, 11.0)
    # ... and instance 1 resumes.
    p.task_switch(1, 11.0)
    p.exit(regions["taskwait"], 12.0)
    # Fig. 11: instance 1 completes.
    p.task_end(regions["A"], 1, 13.0)
    p.exit(regions["barrier"], 14.0)
    main = p.finish(15.0)
    return p, main


def test_walkthrough_main_tree_shape(regions):
    p, main = run_walkthrough(regions)
    assert main.inclusive_time == 15.0
    create = main.find_child(regions["create"])
    assert create.visits == 2
    assert create.inclusive_time == 1.0
    barrier = main.find_child(regions["barrier"])
    assert barrier.inclusive_time == 10.0


def test_walkthrough_stub_node_accounting(regions):
    """Section IV-B4: the stub carries in-barrier task time and fragments."""
    p, main = run_walkthrough(regions)
    barrier = main.find_child(regions["barrier"])
    stub = barrier.find_child(regions["A"])
    assert stub.is_stub
    # fragments: inst1 [5,8), inst2 [8,11), inst1 [11,13) -> 3 fragments, 8 us
    assert stub.visits == 3
    assert stub.inclusive_time == 8.0
    # Fig. 5's reading: barrier time not spent in tasks is overhead/idle.
    assert barrier.exclusive_time == 2.0


def test_walkthrough_task_tree_statistics(regions):
    p, main = run_walkthrough(regions)
    agg = p.task_trees[(regions["A"], None)]
    # instance 2 ran 3 us; instance 1 ran 8 us wall minus 3 us suspension.
    assert agg.metrics.durations.count == 2
    assert agg.metrics.durations.minimum == 3.0
    assert agg.metrics.durations.maximum == 5.0
    assert agg.inclusive_time == 8.0
    taskwait = agg.find_child(regions["taskwait"])
    # inst1 held the taskwait [7,12) minus the [8,11) suspension = 2 us.
    assert taskwait.inclusive_time == 2.0
    assert taskwait.visits == 1


def test_walkthrough_invariant_stub_equals_task_time(regions):
    """Per-thread: total stub time == total task execution time."""
    p, main = run_walkthrough(regions)
    stub_time = sum(
        n.metrics.inclusive_time for n in main.walk() if n.is_stub
    )
    task_time = sum(t.metrics.durations.total for t in p.task_trees.values())
    assert stub_time == pytest.approx(task_time)


def test_walkthrough_instance_table_empty_and_pool_recycled(regions):
    p, main = run_walkthrough(regions)
    assert not p._table
    stats = p.pool.stats()
    assert stats["released"] == stats["allocated"] + stats["reused"]
    # Fig. 6-11 uses two instances; the second one's tree reuses the
    # first's nodes when their lifetimes do not overlap -- here they do
    # overlap, so two allocations... instance 2's root is allocated while
    # instance 1 lives, but instance 1's taskwait node is acquired later.
    assert p.concurrency.overall_max == 2
    assert p.concurrency.total_instances == 2
    assert p.concurrency.current == 0


# ----------------------------------------------------------------------
# Suspension/resumption timing details
# ----------------------------------------------------------------------
def test_suspended_time_excluded_from_all_open_regions(regions):
    """Fig. 12 lines 24-25: stop measurement on ALL open regions."""
    p = make_thread(regions)
    p.enter(regions["barrier"], 0.0)
    p.task_begin(regions["A"], 1, 0.0)
    p.enter(regions["foo"], 1.0)
    p.enter(regions["taskwait"], 2.0)
    # suspend 2..10 (8 us), run another instance
    p.task_begin(regions["A"], 2, 2.0)
    p.task_end(regions["A"], 2, 10.0)
    p.task_switch(1, 10.0)
    p.exit(regions["taskwait"], 11.0)
    p.exit(regions["foo"], 12.0)
    p.task_end(regions["A"], 1, 13.0)
    p.exit(regions["barrier"], 13.0)
    p.finish(13.0)

    agg = p.task_trees[(regions["A"], None)]
    # instance 1: wall [0,13) minus suspension [2,10) = 5 us
    # instance 2: [2,10) = 8 us
    assert agg.metrics.durations.maximum == 8.0
    assert agg.metrics.durations.minimum == 5.0
    foo = agg.find_child(regions["foo"])
    # foo open [1,12) minus suspension 8 -> 3
    assert foo.inclusive_time == 3.0
    taskwait = foo.find_child(regions["taskwait"])
    # taskwait [2,11) minus 8 -> 1
    assert taskwait.inclusive_time == 1.0


def test_nested_task_inside_task_uses_implicit_anchor(regions):
    """Stub nodes always hang off the implicit task's current node, even
    when the suspended task is another explicit task (Section IV-C:
    'only the implicit task's call tree contains task nodes')."""
    p = make_thread(regions)
    p.enter(regions["barrier"], 0.0)
    p.task_begin(regions["A"], 1, 0.0)
    p.enter(regions["taskwait"], 1.0)
    p.task_begin(regions["B"], 2, 1.0)  # B runs while A suspended
    p.task_end(regions["B"], 2, 3.0)
    p.task_switch(1, 3.0)
    p.exit(regions["taskwait"], 4.0)
    p.task_end(regions["A"], 1, 5.0)
    p.exit(regions["barrier"], 5.0)
    main = p.finish(5.0)

    barrier = main.find_child(regions["barrier"])
    stub_a = barrier.find_child(regions["A"])
    stub_b = barrier.find_child(regions["B"])
    assert stub_a is not None and stub_a.is_stub
    assert stub_b is not None and stub_b.is_stub
    assert stub_b.parent is barrier  # NOT under A's taskwait
    assert stub_a.inclusive_time == 3.0  # [0,1)+[1,..] fragments: [0,1),[3,5)
    assert stub_b.inclusive_time == 2.0
    # A's aggregate tree has no task child under its taskwait
    agg_a = p.task_trees[(regions["A"], None)]
    taskwait = agg_a.find_child(regions["taskwait"])
    assert taskwait.children == {}


def test_same_construct_instances_merge_into_one_tree(regions):
    p = make_thread(regions)
    p.enter(regions["barrier"], 0.0)
    for i, (begin, end) in enumerate([(0.0, 2.0), (2.0, 5.0), (5.0, 9.0)], start=1):
        p.task_begin(regions["A"], i, begin)
        p.task_end(regions["A"], i, end)
    p.exit(regions["barrier"], 9.0)
    main = p.finish(9.0)
    assert len(p.task_trees) == 1
    agg = p.task_trees[(regions["A"], None)]
    assert agg.metrics.durations.count == 3
    assert agg.metrics.durations.minimum == 2.0
    assert agg.metrics.durations.maximum == 4.0
    assert agg.metrics.durations.mean == 3.0
    stub = main.find_child(regions["barrier"]).find_child(regions["A"])
    assert stub.visits == 3


def test_parameter_instrumentation_splits_task_trees(regions):
    """Table IV mechanism: per-depth sub-trees for one construct."""
    p = make_thread(regions)
    p.enter(regions["barrier"], 0.0)
    p.task_begin(regions["A"], 1, 0.0, parameter=("depth", 0))
    p.task_end(regions["A"], 1, 4.0)
    p.task_begin(regions["A"], 2, 4.0, parameter=("depth", 1))
    p.task_end(regions["A"], 2, 6.0)
    p.task_begin(regions["A"], 3, 6.0, parameter=("depth", 1))
    p.task_end(regions["A"], 3, 9.0)
    p.exit(regions["barrier"], 9.0)
    p.finish(9.0)
    assert (regions["A"], ("depth", 0)) in p.task_trees
    assert (regions["A"], ("depth", 1)) in p.task_trees
    d0 = p.task_trees[(regions["A"], ("depth", 0))]
    d1 = p.task_trees[(regions["A"], ("depth", 1))]
    assert d0.metrics.durations.count == 1
    assert d1.metrics.durations.count == 2
    assert d1.metrics.durations.mean == 2.5


# ----------------------------------------------------------------------
# Error handling
# ----------------------------------------------------------------------
def test_task_end_for_noncurrent_instance_rejected(regions):
    p = make_thread(regions)
    p.enter(regions["barrier"], 0.0)
    p.task_begin(regions["A"], 1, 0.0)
    p.enter(regions["taskwait"], 1.0)
    p.task_begin(regions["A"], 2, 1.0)
    with pytest.raises(ProfileError, match="not current"):
        p.task_end(regions["A"], 1, 2.0)


def test_task_end_with_open_region_rejected(regions):
    p = make_thread(regions)
    p.enter(regions["barrier"], 0.0)
    p.task_begin(regions["A"], 1, 0.0)
    p.enter(regions["foo"], 1.0)
    with pytest.raises(ProfileError, match="open region"):
        p.task_end(regions["A"], 1, 2.0)


def test_duplicate_instance_id_rejected(regions):
    p = make_thread(regions)
    p.enter(regions["barrier"], 0.0)
    p.task_begin(regions["A"], 1, 0.0)
    p.enter(regions["taskwait"], 0.5)
    with pytest.raises(ProfileError, match="already active"):
        p.task_begin(regions["A"], 1, 1.0)


def test_switch_to_unknown_instance_rejected(regions):
    p = make_thread(regions)
    with pytest.raises(ProfileError, match="unknown instance"):
        p.task_switch(42, 1.0)


def test_finish_while_task_current_rejected(regions):
    p = make_thread(regions)
    p.task_begin(regions["A"], 1, 0.0)
    with pytest.raises(ProfileError, match="is current"):
        p.finish(1.0)


def test_exit_root_frame_protected(regions):
    p = make_thread(regions)
    with pytest.raises(ProfileError, match="no open region"):
        p.exit(regions["impl"], 1.0)


# ----------------------------------------------------------------------
# Multi-thread TaskProfiler and untied migration
# ----------------------------------------------------------------------
def test_multithread_profile_and_aggregation(reg, regions):
    tp = TaskProfiler(2, regions["impl"])
    batch = EventBatch(reg)
    for t in (0, 1):
        batch.add_enter(t, regions["barrier"], 1.0)
    batch.add_task_begin(0, regions["A"], 1, 1.0)
    batch.add_task_end(0, regions["A"], 1, 3.0)
    batch.add_task_begin(1, regions["A"], 2, 1.0)
    batch.add_task_end(1, regions["A"], 2, 6.0)
    for t in (0, 1):
        batch.add_exit(t, regions["barrier"], 6.0)
    tp.on_batch(batch)
    tp.on_finish(7.0)
    profile = tp.build_profile()
    assert profile.n_threads == 2
    agg = profile.task_tree("taskA")
    assert agg.metrics.durations.count == 2
    assert agg.metrics.durations.minimum == 2.0
    assert agg.metrics.durations.maximum == 5.0
    merged_main = profile.aggregated_main_tree()
    assert merged_main.visits == 2
    assert merged_main.inclusive_time == 14.0


def test_untied_migration_across_threads(reg, regions):
    """Section IV-D1: the task's data migrates with the task."""
    tp = TaskProfiler(2, regions["impl"])
    batch = EventBatch(reg)
    batch.add_enter(0, regions["barrier"], 0.0)
    batch.add_enter(1, regions["barrier"], 0.0)
    # begins on thread 0, suspends at its taskwait
    batch.add_task_begin(0, regions["A"], 1, 0.0)
    batch.add_enter(0, regions["taskwait"], 1.0)
    batch.add_task_switch(0, implicit_instance_id(0), 2.0)
    # resumes on thread 1 six us later
    batch.add_task_switch(1, 1, 8.0)
    batch.add_exit(1, regions["taskwait"], 9.0)
    batch.add_task_end(1, regions["A"], 1, 10.0)
    batch.add_exit(0, regions["barrier"], 10.0)
    batch.add_exit(1, regions["barrier"], 10.0)
    tp.on_batch(batch)
    tp.on_finish(10.0)
    profile = tp.build_profile()
    agg = profile.task_tree("taskA")
    # executed [0,2) on t0 and [8,10) on t1 -> 4 us total
    assert agg.metrics.durations.total == 4.0
    # stub time split between both threads' barriers
    stub0 = profile.main_tree(0).find_child(regions["barrier"]).find_child(regions["A"])
    stub1 = profile.main_tree(1).find_child(regions["barrier"]).find_child(regions["A"])
    assert stub0.inclusive_time == 2.0
    assert stub1.inclusive_time == 2.0


def test_finish_with_active_instance_rejected(reg, regions):
    tp = TaskProfiler(1, regions["impl"])
    batch = EventBatch(reg)
    batch.add_enter(0, regions["barrier"], 0.0)
    batch.add_task_begin(0, regions["A"], 1, 0.0)
    tp.on_batch(batch)
    with pytest.raises(ProfileError, match="active instances"):
        tp.on_finish(1.0)


def test_build_profile_before_finish_rejected(regions):
    tp = TaskProfiler(1, regions["impl"])
    with pytest.raises(ProfileError, match="before on_finish"):
        tp.build_profile()
