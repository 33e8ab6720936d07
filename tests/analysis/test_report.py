"""Tests for the one-stop report generator."""

import pytest

from repro.analysis import run_app
from repro.analysis.report import generate_report
from repro.cli import main


@pytest.fixture(scope="module")
def traced_result():
    return run_app(
        "nqueens", size="test", variant="stress", n_threads=2, seed=0,
        substrates=("profiling", "tracing"),
    )


def test_report_contains_all_sections(traced_result):
    text = generate_report(traced_result, title="unit test")
    for heading in (
        "# Performance report",
        "## Run summary",
        "## Where the threads' time went",
        "## Task constructs",
        "## Scheduling points",
        "## Granularity advisor",
        "## Task creation balance",
        "## Detected patterns",
        "## Profiler memory",
        "## Trace analysis",
    ):
        assert heading in text, heading
    assert "nqueens_task" in text
    assert "unit test" in text


def test_report_without_trace_skips_trace_section():
    result = run_app("fib", size="test", variant="optimized", n_threads=2)
    text = generate_report(result)
    assert "## Trace analysis" not in text
    assert "## Task constructs" in text


def test_report_uninstrumented_is_minimal():
    result = run_app("fib", size="test", n_threads=2, instrument=False)
    text = generate_report(result)
    assert "uninstrumented run" in text
    assert "## Task constructs" not in text


def test_report_time_shares_sum_to_100(traced_result):
    text = generate_report(traced_result)
    section = text.split("## Where the threads' time went")[1]
    section = section.split("##")[0]
    shares = [
        float(line.rsplit(None, 1)[-1].rstrip("%"))
        for line in section.splitlines()
        if line.strip().endswith("%")
    ]
    assert sum(shares) == pytest.approx(100.0, abs=0.5)


def test_cli_report_command(tmp_path, capsys):
    target = tmp_path / "report.md"
    code = main(
        ["report", "fib", "--size", "test", "--variant", "stress",
         "--threads", "2", "--output", str(target)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "# Performance report" in out
    assert target.read_text().startswith("# Performance report")
