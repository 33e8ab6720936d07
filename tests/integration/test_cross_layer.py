"""Cross-layer integration scenarios on real BOTS kernels."""

import pytest

from repro.analysis import run_app
from repro.cube import dumps, loads, render_profile
from repro.events.validate import validate_program_trace
from repro.runtime import RuntimeConfig


@pytest.mark.parametrize("name", ["nqueens", "sort", "health", "sparselu"])
def test_kernel_traces_validate(name):
    """Recorded event streams of real kernels pass the task-aware rules."""
    result = run_app(
        name, size="test", n_threads=4, seed=2, substrates=("profiling", "tracing")
    )
    assert result.verified
    validate_program_trace(result.parallel.trace)


@pytest.mark.parametrize("name", ["fib", "strassen"])
def test_kernel_profiles_roundtrip_and_render(name):
    result = run_app(name, size="test", variant="stress", n_threads=2, seed=0)
    profile = result.profile
    assert dumps(loads(dumps(profile))) == dumps(profile)
    text = render_profile(profile, max_depth=2)
    assert "(stub)" in text


def test_exclusive_time_conservation_across_kernels():
    """For every kernel: region duration * threads == sum of all exclusive
    times in the implicit trees (time is fully attributed, nothing lost,
    nothing double-counted)."""
    for name in ("fib", "sort", "health"):
        result = run_app(name, size="test", variant="stress", n_threads=2, seed=1)
        profile = result.profile
        for tree in profile.main_trees:
            exclusive_sum = sum(
                node.exclusive_time for node in tree.walk()
            )
            assert exclusive_sum == pytest.approx(result.kernel_time, rel=1e-9)


def test_stub_invariant_on_every_kernel():
    for name in ("fib", "nqueens", "sort", "fft", "health", "alignment"):
        result = run_app(name, size="test", variant="stress", n_threads=4, seed=0)
        profile = result.profile
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
        assert stub_time == pytest.approx(task_time, rel=1e-9), name


def test_depth_limited_kernel_run_still_verifies():
    result = run_app(
        "nqueens", size="test", variant="stress", n_threads=2,
        max_call_path_depth=3,
    )
    assert result.verified
    # nqueens task trees would be depth <= 3 anyway (task->create/taskwait);
    # nothing breaks when the limit is active.
    assert result.parallel.extra["truncated_enters"] >= 0


def test_overhead_measurement_is_deterministic():
    from repro.analysis import measure_overhead

    a = measure_overhead("sort", size="test", variant="stress", threads=(2,))
    b = measure_overhead("sort", size="test", variant="stress", threads=(2,))
    assert a[0].instrumented == b[0].instrumented
    assert a[0].uninstrumented == b[0].uninstrumented


def test_instrumentation_does_not_change_schedule_statistics():
    """Same seed: the instrumented run completes the same tasks and steals
    comparably (timing shifts may change individual steals, but the
    functional outcome and task counts are identical)."""
    runs = {}
    for instrument in (False, True):
        result = run_app(
            "health", size="test", variant="stress", n_threads=4, seed=3,
            instrument=instrument,
        )
        runs[instrument] = result
    assert runs[True].result_value == runs[False].result_value
    assert runs[True].parallel.completed_tasks == runs[False].parallel.completed_tasks


def test_events_per_task_is_bounded():
    """Sanity bound on instrumentation volume: roughly a dozen events per
    task instance (enter/exit pairs + task begin/end/switches)."""
    result = run_app("fib", size="test", variant="stress", n_threads=2, seed=0)
    events = result.parallel.events_dispatched
    tasks = result.parallel.completed_tasks
    assert 4 * tasks < events < 20 * tasks
