"""End-to-end supervisor behavior with process isolation.

Every test runs real worker subprocesses against the stub cells in
:mod:`repro.supervisor.stubs` -- crashes, busy loops, flaky recoveries --
and asserts the acceptance properties: transient outcomes are retried
with bounded backoff, deterministic errors are not, a hung cell is
killed by the wall-clock watchdog without blocking the rest of the
grid, and a journaled grid resumes without re-executing finished cells.
"""

import dataclasses
import time
from types import SimpleNamespace

import pytest

from repro.fabric.breaker import BreakerPolicy
from repro.supervisor import supervisor as supervisor_module
from repro.supervisor import (
    FAST_BACKOFF,
    Supervisor,
    call_cell,
    fault_cell,
    load_journal,
    outcome_table,
    run_supervised,
)


def _stub(name, kwargs=None, cell_id=None, **spec_kw):
    return call_cell(
        f"repro.supervisor.stubs:{name}", kwargs, cell_id=cell_id or name,
        **spec_kw,
    )


def test_grid_completes_in_parallel_preserving_order():
    report = run_supervised(
        [
            _stub("ok_cell", {"value": 1}, cell_id="a"),
            _stub("sleep_cell", {"wall_s": 0.05}, cell_id="b"),
            _stub("ok_cell", {"value": 2}, cell_id="c"),
        ],
        jobs=2,
        backoff=FAST_BACKOFF,
    )
    assert report.ok
    assert [r.cell_id for r in report.results] == ["a", "b", "c"]
    assert all(r.attempts == 1 and not r.cached for r in report.results)


def test_flaky_cell_recovers_via_retry(tmp_path):
    marker = tmp_path / "flaky.marker"
    report = run_supervised(
        [_stub("flaky_cell", {"marker": str(marker)})],
        retries=1,
        backoff=FAST_BACKOFF,
    )
    result = report.results[0]
    assert result.ok and result.outcome == "ok"
    assert result.attempts == 2
    assert result.summary == "recovered on retry"


def test_persistent_crash_exhausts_bounded_retries():
    report = run_supervised(
        [_stub("crash_cell")], retries=2, backoff=FAST_BACKOFF
    )
    result = report.results[0]
    assert result.outcome == "crash" and not result.ok
    assert result.attempts == 3  # 1 + retries, then give up
    assert "SIGKILL" in result.summary


def test_deterministic_error_is_never_retried():
    report = run_supervised(
        [_stub("error_cell", {"message": "same every time"})],
        retries=5,
        backoff=FAST_BACKOFF,
    )
    result = report.results[0]
    assert result.outcome == "error"
    assert result.attempts == 1


def test_hung_cell_times_out_without_blocking_the_grid():
    report = run_supervised(
        [
            _stub("busy_cell", cell_id="hung", wall_timeout_s=0.2),
            _stub("ok_cell", {"value": 1}, cell_id="x"),
            _stub("ok_cell", {"value": 2}, cell_id="y"),
        ],
        jobs=2,
        retries=1,
        backoff=FAST_BACKOFF,
    )
    hung = report.result_for("hung")
    assert hung.outcome == "timeout" and not hung.ok
    assert hung.attempts == 2  # timeouts are transient: retried, bounded
    assert report.result_for("x").ok and report.result_for("y").ok


def test_oom_is_retryable(tmp_path):
    report = run_supervised(
        [_stub("oom_cell")], retries=1, backoff=FAST_BACKOFF
    )
    assert report.results[0].outcome == "oom"
    assert report.results[0].attempts == 2


def test_journal_written_and_resume_skips_completed(tmp_path):
    journal = tmp_path / "journal.jsonl"
    specs = [
        _stub("ok_cell", {"value": 1}, cell_id="a"),
        _stub("ok_cell", {"value": 2}, cell_id="b"),
    ]
    first = run_supervised(specs, journal_path=str(journal))
    assert first.ok
    state = load_journal(str(journal))
    assert state.completed == {"a", "b"}

    second = run_supervised(
        specs, journal_path=str(journal), resume=True
    )
    assert second.ok
    assert all(r.cached for r in second.results)
    # no new attempts were launched for journaled-complete cells
    after = load_journal(str(journal))
    assert after.attempts == state.attempts


def test_resume_reruns_only_failed_cells(tmp_path):
    journal = tmp_path / "journal.jsonl"
    marker = tmp_path / "flaky.marker"
    specs = [
        _stub("ok_cell", {"value": 1}, cell_id="good"),
        _stub("flaky_cell", {"marker": str(marker)}, cell_id="flaky"),
    ]
    # First pass: no retries, so the flaky cell ends as a crash.
    first = run_supervised(
        specs, retries=0, journal_path=str(journal), backoff=FAST_BACKOFF
    )
    assert first.result_for("good").ok
    assert first.result_for("flaky").outcome == "crash"

    second = run_supervised(
        specs, retries=0, journal_path=str(journal), resume=True,
        backoff=FAST_BACKOFF,
    )
    assert second.ok
    assert second.result_for("good").cached  # not re-executed
    flaky = second.result_for("flaky")
    assert not flaky.cached and flaky.attempts == 2  # attempt numbering continues


def test_resume_replays_every_settled_field(tmp_path):
    journal = str(tmp_path / "journal.jsonl")
    specs = [
        _stub("ok_cell", {"value": 1}, cell_id="ok"),
        _stub("error_cell", cell_id="error"),
        fault_cell("fib", "pressure", 0),
        # One class: both crash once, which opens the breaker, so both
        # retries are refused, and crash-c never launches.
        _stub("crash_cell", cell_id="crash-a"),
        _stub("crash_cell", cell_id="crash-b"),
        _stub("crash_cell", cell_id="crash-c"),
    ]
    kwargs = dict(
        journal_path=journal,
        retries=1,
        backoff=FAST_BACKOFF,
        breaker=BreakerPolicy(threshold=2, max_probes=0),
    )
    first = run_supervised(specs, **kwargs)
    assert [r.outcome for r in first.results] == [
        "ok", "error", "degraded", "short_circuited", "short_circuited",
        "short_circuited",
    ]
    assert first.results[-1].attempts == 0
    resumed = run_supervised(specs, resume=True, **kwargs)
    assert all(r.cached for r in resumed.results)
    assert [
        dataclasses.replace(r, cached=False) for r in resumed.results
    ] == first.results


def test_duplicate_cells_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        Supervisor([_stub("ok_cell"), _stub("ok_cell")])


def test_invalid_limits_rejected():
    with pytest.raises(ValueError):
        Supervisor([_stub("ok_cell")], jobs=0)
    with pytest.raises(ValueError):
        Supervisor([_stub("ok_cell")], retries=-1)
    with pytest.raises(ValueError):
        Supervisor([_stub("ok_cell")], timeout_s=0)


def test_outcome_table_mentions_attempts_and_cached(tmp_path):
    journal = tmp_path / "j.jsonl"
    specs = [_stub("ok_cell", {"value": 1}, cell_id="a")]
    run_supervised(specs, journal_path=str(journal))
    report = run_supervised(specs, journal_path=str(journal), resume=True)
    table = outcome_table(report)
    assert "1/1 cells ok" in table
    assert "(cached)" in table
    assert "replayed from journal" in table


def test_result_sent_just_before_exit_is_not_a_crash(monkeypatch):
    """The worker sends its result and exits between the supervisor's
    pipe drain and its liveness check: the cell is ok on attempt 1."""
    monkeypatch.setattr(supervisor_module, "connection_wait", lambda handles, timeout: None)
    polls = iter([False, True])  # the result lands after the first drain
    conn = SimpleNamespace(
        poll=lambda: next(polls), recv=lambda: {"outcome": "ok", "ok": True}, close=lambda: None
    )
    proc = SimpleNamespace(
        is_alive=lambda: False, join=lambda timeout=None: None, exitcode=0, sentinel=None
    )
    spec = _stub("ok_cell", cell_id="late")
    entry = supervisor_module._Running(
        spec=spec, attempt=1, round=1, proc=proc, conn=conn,
        started=time.monotonic(), deadline=None, limit=None,
    )
    results, delayed = {}, []
    Supervisor([spec])._poll([entry], None, results, delayed, {})
    assert not delayed
    assert results["late"].outcome == "ok" and results["late"].ok
    assert results["late"].attempts == 1
