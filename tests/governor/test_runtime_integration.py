"""End-to-end governor behavior: budgeted runs through the full stack.

The acceptance property from the paper angle (Section V-B, Table II):
measurement memory is bounded by *concurrent* task-instance volume,
which the profiled program controls.  The governor closes the hole --
a run whose budget is smaller than its unbounded peak must still
complete, with aggregate task times preserved and every ladder
transition reported.
"""

import pytest

from repro.analysis import run_app
from repro.cube.export import dumps
from repro.cube.query import flat_region_profile
from repro.faults.campaign import run_tolerant
from repro.faults.plan import FAULT_MODES, plan_for_mode
from repro.governor import MemoryBudget

# fib --size test peaks at 4-5 concurrent instance trees per thread
# unbounded (Table II methodology), so a budget of 4 forces the ladder.
BUDGET = 4


@pytest.fixture(scope="module")
def unbounded():
    return run_app("fib", size="test", n_threads=2, seed=0)


@pytest.fixture(scope="module")
def governed():
    return run_app(
        "fib", size="test", n_threads=2, seed=0,
        memory_budget=MemoryBudget(max_live_instances=BUDGET),
    )


def test_budgeted_run_completes_and_verifies(governed):
    assert governed.verified


def test_ladder_walk_is_fully_reported(governed):
    report = governed.parallel.extra["governor"]
    assert [i["level"] for i in report["incidents"]] == [1, 2, 3]
    assert report["level_name"] == "stub-only"
    assert report["degraded"] is True
    # the budget held: live full trees never exceeded the cap
    assert report["peak_live_instances"] <= BUDGET


def test_aggregate_task_times_survive_degradation(governed, unbounded):
    # Stub-only accounting folds interior call paths into the task's
    # root node, so per-region *aggregate* inclusive time and visit
    # counts are preserved exactly -- only instance-level detail is lost.
    want = flat_region_profile(unbounded.profile)
    got = flat_region_profile(governed.profile)
    assert got["fib_task"]["inclusive"] == pytest.approx(
        want["fib_task"]["inclusive"]
    )
    assert got["fib_task"]["visits"] == want["fib_task"]["visits"]
    # no schedule perturbation either: virtual wall time identical
    assert governed.kernel_time == unbounded.kernel_time


def test_nocutoff_fib_completes_under_budget_with_matching_aggregates():
    # The acceptance case: no-cutoff fib (variant "stress") peaks at 9
    # concurrent instance trees per thread unbounded; a budget of 6 is
    # below that peak, yet the run completes (exit-0 path) with every
    # ladder transition reported and aggregate task time preserved.
    unbounded = run_app("fib", size="test", variant="stress", n_threads=2, seed=0)
    assert unbounded.profile.max_concurrent_tasks_per_thread() == 9
    governed = run_app(
        "fib", size="test", variant="stress", n_threads=2, seed=0,
        memory_budget=MemoryBudget(max_live_instances=6),
    )
    assert governed.verified
    report = governed.parallel.extra["governor"]
    assert [i["level"] for i in report["incidents"]] == [1, 2, 3]
    want = flat_region_profile(unbounded.profile)["fib_task"]
    got = flat_region_profile(governed.profile)["fib_task"]
    assert got["inclusive"] == pytest.approx(want["inclusive"])
    assert got["visits"] == want["visits"]
    assert governed.kernel_time == unbounded.kernel_time


def test_degradation_recorded_in_salvage(governed):
    salvage = governed.profile.salvage
    assert salvage is not None
    assert salvage.degraded
    assert len(salvage.pressure_incidents) == 3
    assert "degradation level L3" in salvage.summary()


def test_governor_report_rides_in_extra(governed):
    # The report travels in ``extra`` only: no substrate carries it.
    assert governed.parallel.extra["governor"]["level"] == 3
    assert "governor" not in governed.parallel.substrate_artifacts
    assert "governor" not in governed.parallel.extra["substrates"]


def test_l0_profile_byte_identical_to_ungoverned(unbounded):
    # A budget that never comes under pressure must not change one byte
    # of the exported profile: the governed handlers defer to the
    # original ones and no ladder action ever fires.
    roomy = run_app(
        "fib", size="test", n_threads=2, seed=0,
        memory_budget=MemoryBudget(max_live_instances=10 ** 6),
    )
    assert roomy.parallel.extra["governor"]["level"] == 0
    assert dumps(roomy.profile) == dumps(unbounded.profile)


def test_ungoverned_config_builds_no_governor(unbounded):
    assert "governor" not in unbounded.parallel.extra
    assert "governor" not in unbounded.parallel.substrate_artifacts


def test_stop_policy_salvages_partial_profile():
    outcome = run_tolerant(
        "fib", size="test", n_threads=2, seed=0,
        memory_budget=MemoryBudget(max_live_instances=2, on_pressure="stop"),
    )
    assert outcome.status == "partial"
    assert outcome.profile is not None
    assert outcome.degraded
    assert "MemoryPressureStop" in outcome.error
    report = outcome.governor_report
    assert report["incidents"][-1]["level"] == 4
    assert outcome.salvage is not None and outcome.salvage.degraded


def test_pressure_fault_mode_routes_through_governor():
    assert "pressure" in FAULT_MODES
    plan = plan_for_mode("pressure", seed=0)
    assert plan.pressure_budget == 4
    assert not plan.armed  # drives the governor, not the injector
    outcome = run_tolerant("fib", size="test", n_threads=2, seed=0, plan=plan)
    assert outcome.ok
    assert outcome.degraded
    assert outcome.governor_report["incidents"]


def test_degraded_runs_are_tagged_and_kept_out_of_baselines(tmp_path, unbounded):
    from repro.archive import (
        ArchiveStore,
        latest_baseline,
        meta_for_outcome,
        meta_for_result,
    )
    from repro.errors import ArchiveError

    store = ArchiveStore(tmp_path / "arch")
    healthy = store.put(
        unbounded.profile, meta_for_result(unbounded, size="test")
    )
    outcome = run_tolerant(
        "fib", size="test", n_threads=2, seed=1,
        memory_budget=MemoryBudget(max_live_instances=BUDGET),
    )
    degraded = store.put(
        outcome.profile,
        meta_for_outcome(outcome, size="test", variant="optimized", seed=1),
    )
    assert "degraded" in degraded.tags

    baseline = latest_baseline(store, kernel="fib", size="test", runs=5)
    assert list(baseline.run_ids()) == [healthy.run_id]

    # an archive holding only degraded runs yields no baseline at all
    lonely = ArchiveStore(tmp_path / "lonely")
    lonely.put(
        outcome.profile,
        meta_for_outcome(outcome, size="test", variant="optimized", seed=1),
    )
    with pytest.raises(ArchiveError, match="baseline needs"):
        latest_baseline(lonely, kernel="fib", size="test")


def test_pool_trim_engaged_by_ladder(governed):
    # L1/L2 ladder actions cap the per-thread free lists, so the pools
    # report trimmed nodes and retain none of them (l2_max_free=0).
    pools = [stats["pool"] for stats in governed.profile.memory_stats]
    assert sum(p.get("trimmed", 0) for p in pools) > 0
    assert all(p["free"] == 0 for p in pools)
