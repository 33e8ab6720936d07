"""Tests for the trace-based analysis (the paper's Section VII outlook)."""

import pytest

from repro.analysis import run_app
from repro.analysis.traces import (
    management_ratio,
    render_timeline,
    scheduling_latencies,
    sync_point_breakdown,
    task_timeline,
)


@pytest.fixture(scope="module")
def fib_trace():
    result = run_app(
        "fib", size="test", variant="stress", n_threads=4, seed=0,
        substrates=("profiling", "tracing"),
    )
    return result, result.parallel.trace


@pytest.fixture(scope="module")
def strassen_trace():
    result = run_app(
        "strassen", size="test", variant="stress", n_threads=4, seed=0,
        substrates=("profiling", "tracing"),
    )
    return result, result.parallel.trace


def test_breakdown_visits_cover_all_threads(fib_trace):
    _, trace = fib_trace
    visits = sync_point_breakdown(trace)
    assert {v.thread_id for v in visits} == {0, 1, 2, 3}
    for visit in visits:
        assert visit.exit_time >= visit.enter_time
        assert visit.task_execution >= 0
        assert visit.management >= 0
        assert visit.trailing_wait >= 0


def test_breakdown_components_bounded_by_total(fib_trace):
    _, trace = fib_trace
    for visit in sync_point_breakdown(trace):
        parts = visit.task_execution + visit.management + visit.trailing_wait
        assert parts <= visit.total + 1e-6, visit


def test_fragment_time_consistent_with_profile(fib_trace):
    """Trace-derived fragment time == profile's stub accounting."""
    result, trace = fib_trace
    fragments = task_timeline(trace)
    trace_time = sum(f.duration for f in fragments)
    stub_time = sum(
        node.metrics.inclusive_time
        for tree in result.profile.main_trees
        for node in tree.walk()
        if node.is_stub
    )
    assert trace_time == pytest.approx(stub_time, rel=1e-9)


def test_fragment_count_matches_stub_visits(fib_trace):
    result, trace = fib_trace
    fragments = task_timeline(trace)
    stub_fragments = sum(
        node.metrics.visits
        for tree in result.profile.main_trees
        for node in tree.walk()
        if node.is_stub
    )
    assert len(fragments) == stub_fragments


def test_management_ratio_diagnoses_granularity(fib_trace, strassen_trace):
    """Tiny fib tasks: management rivals execution.  Large strassen
    tasks: management is a small fraction -- the ratio the paper wants."""
    _, fib = fib_trace
    _, strassen = strassen_trace
    fib_ratio = management_ratio(fib)["ratio"]
    strassen_ratio = management_ratio(strassen)["ratio"]
    assert fib_ratio > 5 * strassen_ratio
    assert strassen_ratio < 0.2


def test_scheduling_latencies_positive(fib_trace):
    _, trace = fib_trace
    latencies = scheduling_latencies(trace)
    assert latencies
    assert all(l.latency >= 0 for l in latencies)
    assert all(l.region_name in ("barrier", "implicit barrier", "taskwait")
               for l in latencies)


def test_timeline_fragments_non_overlapping_per_thread(fib_trace):
    _, trace = fib_trace
    fragments = task_timeline(trace)
    by_thread = {}
    for fragment in fragments:
        by_thread.setdefault(fragment.thread_id, []).append(fragment)
    for thread_fragments in by_thread.values():
        thread_fragments.sort(key=lambda f: f.start)
        for a, b in zip(thread_fragments, thread_fragments[1:]):
            assert a.end <= b.start + 1e-9, (a, b)


def test_render_timeline_shape(fib_trace):
    _, trace = fib_trace
    text = render_timeline(trace, width=40)
    lines = text.splitlines()
    assert len(lines) == trace.n_threads + 1
    assert all(line.startswith("t") for line in lines[:-1])
    assert "utilization" in lines[-1]


def test_render_timeline_empty_trace():
    from repro.events.stream import ProgramTrace

    assert render_timeline(ProgramTrace(2)) == "(no task fragments)"
