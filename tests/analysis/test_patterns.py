"""Tests for automatic pattern detection (the Scalasca analogue)."""

import pytest

from repro.analysis import run_app
from repro.analysis.patterns import PatternMatch, detect_patterns


@pytest.fixture(scope="module")
def fib_stress():
    return run_app(
        "fib", size="small", variant="stress", n_threads=4, seed=0,
        substrates=("profiling", "tracing"),
    )


@pytest.fixture(scope="module")
def strassen_healthy():
    return run_app("strassen", size="small", variant="optimized", n_threads=4, seed=0)


def names(matches):
    return {m.name for m in matches}


def test_fib_stress_fires_the_expected_patterns(fib_stress):
    matches = detect_patterns(fib_stress)
    found = names(matches)
    assert "small-task-storm" in found
    assert "lock-thrashing" in found
    # trace was recorded, so the trace-based detector ran too
    assert "late-producer" in found
    storm = next(m for m in matches if m.name == "small-task-storm")
    assert storm.severity > 0.5
    assert storm.evidence["instances"] == 3193


def test_healthy_code_is_mostly_quiet(strassen_healthy):
    matches = detect_patterns(strassen_healthy)
    found = names(matches)
    assert "small-task-storm" not in found
    assert "creation-bottleneck" not in found
    # any surviving matches are weak
    assert all(m.severity < 0.5 for m in matches)


def test_single_producer_fires_creation_bottleneck():
    result = run_app("sparselu", size="small", variant="single", n_threads=4, seed=0)
    matches = detect_patterns(result, severity_floor=0.02)
    assert "creation-bottleneck" in names(matches)


def test_matches_sorted_by_severity(fib_stress):
    matches = detect_patterns(fib_stress)
    severities = [m.severity for m in matches]
    assert severities == sorted(severities, reverse=True)


def test_severity_floor_filters(fib_stress):
    all_matches = detect_patterns(fib_stress, severity_floor=0.0)
    strong = detect_patterns(fib_stress, severity_floor=0.5)
    assert len(strong) <= len(all_matches)
    assert all(m.severity >= 0.5 for m in strong)


def test_requires_instrumented_run():
    result = run_app("fib", size="test", n_threads=2, instrument=False)
    with pytest.raises(ValueError, match="instrumented"):
        detect_patterns(result)


def test_no_trace_skips_trace_patterns():
    result = run_app("fib", size="test", variant="stress", n_threads=2)
    matches = detect_patterns(result, severity_floor=0.0)
    assert "late-producer" not in names(matches)


def test_pattern_match_str():
    match = PatternMatch("demo", 0.42, "something happened")
    assert str(match) == "[0.42] demo: something happened"
