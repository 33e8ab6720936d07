"""Fabric-hardened supervisor: heartbeats, breakers, deadlines, admission.

Process-level integration tests for the PR-6 robustness layers: a
SIGSTOP'd worker is classified ``stuck`` (not ``timeout``), a
perpetually-crashing class is short-circuited with a bounded launch
count, a campaign deadline cancels queued cells resumably, and
admission overload policies journal instead of losing work.
"""

import json

import pytest

from repro.errors import JournalVersionError
from repro.fabric import AdmissionPolicy, BreakerPolicy
from repro.supervisor import (
    FAST_BACKOFF,
    Journal,
    Supervisor,
    call_cell,
    load_journal,
    outcome_table,
    run_supervised,
)


def _stub(name, kwargs=None, cell_id=None, **spec_kw):
    return call_cell(
        f"repro.supervisor.stubs:{name}", kwargs, cell_id=cell_id or name,
        **spec_kw,
    )


# ----------------------------------------------------------------------
# Heartbeats & stuck classification
# ----------------------------------------------------------------------
def test_stopped_worker_is_stuck_not_timeout():
    # SIGSTOP freezes the worker: SIGALRM is never delivered, beats stop,
    # but the process stays alive -- only stall detection catches it.
    report = run_supervised(
        [_stub("stalled_cell")],
        timeout_s=30.0,  # far away: the stall must fire first
        retries=0,
        heartbeat_s=0.1,
        stall_factor=3.0,
    )
    (result,) = report.results
    assert result.outcome == "stuck"
    assert not result.ok
    assert "silent" in result.summary
    assert result.duration_s < 10.0  # classified at the stall window


def test_busy_worker_keeps_beating_and_times_out_instead():
    # A pure-Python busy loop still shares the GIL with the heartbeat
    # thread, so beats keep flowing: the cell is slow, not stuck, and
    # the wall-clock limit is what finally kills it.
    report = run_supervised(
        [_stub("busy_cell", wall_timeout_s=0.5)],
        retries=0,
        heartbeat_s=0.1,
        stall_factor=3.0,
    )
    (result,) = report.results
    assert result.outcome == "timeout"


def test_stuck_is_retryable(tmp_path):
    journal = tmp_path / "j.jsonl"
    report = run_supervised(
        [_stub("stalled_cell")],
        timeout_s=30.0,
        retries=1,
        backoff=FAST_BACKOFF,
        heartbeat_s=0.1,
        stall_factor=3.0,
        journal_path=str(journal),
    )
    (result,) = report.results
    assert result.outcome == "stuck"
    assert result.attempts == 2  # retried like timeout/crash/oom
    state = load_journal(str(journal))
    assert state.attempts["stalled_cell"] == 2


def test_healthy_grid_unaffected_by_heartbeats():
    specs = [_stub("ok_cell", {"value": i}, cell_id=f"c{i}") for i in range(4)]
    report = run_supervised(specs, jobs=2, heartbeat_s=0.05)
    assert report.ok
    assert [r.outcome for r in report.results] == ["ok"] * 4


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
def test_breaker_bounds_launches_of_an_always_crashing_class(tmp_path):
    journal = tmp_path / "grid.jsonl"
    policy = BreakerPolicy(threshold=3, max_probes=2, probe_after=4)
    specs = [
        _stub("crash_cell", {}, cell_id=f"c{i:02d}") for i in range(50)
    ]
    report = run_supervised(
        specs,
        retries=0,
        journal_path=str(journal),
        breaker=policy,
    )
    outcomes = [r.outcome for r in report.results]
    assert outcomes.count("crash") <= policy.threshold + policy.max_probes
    assert outcomes.count("short_circuited") == 50 - outcomes.count("crash")
    assert not report.ok  # deterministically nonzero for CI
    # The journal proves the launch bound: start records == real launches.
    starts = sum(
        1
        for line in journal.read_text().splitlines()
        if json.loads(line).get("type") == "start"
    )
    assert starts <= policy.threshold + policy.max_probes
    assert report.breaker_summary  # class state surfaced on the report
    (state,) = report.breaker_summary.values()
    assert state["state"] in ("open", "half_open")
    assert state["last_failure"] == "crash"


def test_breaker_counts_retries_toward_threshold_and_caps_retry_burn(tmp_path):
    # A single cell's retries open the class by themselves, and once it
    # is open the remaining retry budget is short-circuited too instead
    # of relaunching a known-bad configuration.
    journal = tmp_path / "j.jsonl"
    report = run_supervised(
        [_stub("crash_cell", {})],
        retries=5,
        backoff=FAST_BACKOFF,
        journal_path=str(journal),
        breaker=BreakerPolicy(threshold=3, max_probes=0),
    )
    (result,) = report.results
    assert result.outcome == "short_circuited"  # retry 4 was refused
    starts = sum(
        1
        for line in journal.read_text().splitlines()
        if json.loads(line).get("type") == "start"
    )
    assert starts == 3  # exactly the threshold, not 1 + retries


def test_probe_recloses_a_recovered_class(tmp_path):
    scratch = tmp_path / "attempts"
    specs = [
        _stub(
            "crash_until_attempts",
            {"scratch": str(scratch), "need": 3},
            cell_id=f"c{i}",
        )
        for i in range(8)
    ]
    report = run_supervised(
        specs,
        retries=0,
        breaker=BreakerPolicy(threshold=2, max_probes=3, probe_after=1),
    )
    outcomes = [r.outcome for r in report.results]
    # c0, c1 crash (class opens); a cool-down cell short-circuits; the
    # first probe burns the third attempt and fails; after another
    # cool-down the second probe finds the class recovered and closes
    # it -- every later cell runs normally.
    assert outcomes[:2] == ["crash", "crash"]
    assert outcomes[-1] == "ok"
    assert "ok" in outcomes and "short_circuited" in outcomes
    assert report.breaker_summary  # and the class ended closed
    (state,) = report.breaker_summary.values()
    assert state["state"] == "closed"


def test_short_circuited_is_terminal_on_resume(tmp_path):
    journal = tmp_path / "j.jsonl"
    specs = [_stub("crash_cell", {}, cell_id=f"c{i}") for i in range(6)]
    kwargs = dict(
        retries=0,
        journal_path=str(journal),
        breaker=BreakerPolicy(threshold=2, max_probes=0),
    )
    first = run_supervised(specs, **kwargs)
    assert [r.outcome for r in first.results][2:] == ["short_circuited"] * 4
    second = run_supervised(specs, resume=True, **kwargs)
    # Short-circuited cells replay from the journal; only the crashed
    # ones re-run (and re-open the class).
    for result in second.results:
        if result.outcome == "short_circuited":
            assert result.cached


# ----------------------------------------------------------------------
# Campaign deadline
# ----------------------------------------------------------------------
def test_deadline_cancels_queued_cells_resumably(tmp_path):
    journal = tmp_path / "j.jsonl"
    specs = [
        _stub("sleep_cell", {"wall_s": 0.3}, cell_id=f"s{i}") for i in range(4)
    ]
    report = run_supervised(
        specs, jobs=1, journal_path=str(journal), deadline_s=0.15
    )
    assert report.deadline_hit
    assert not report.ok
    outcomes = [r.outcome for r in report.results]
    # The in-flight cell drains to completion; everything queued is
    # journaled cancelled without launching.
    assert outcomes[0] == "ok"
    assert outcomes[1:] == ["cancelled"] * 3
    assert all(
        "deadline" in r.summary for r in report.results if r.outcome == "cancelled"
    )
    # cancelled is resumable: a second run without a deadline finishes.
    resumed = run_supervised(
        specs, jobs=2, journal_path=str(journal), resume=True
    )
    assert resumed.ok
    assert resumed.results[0].cached  # the completed cell replayed
    assert all(r.outcome == "ok" for r in resumed.results)
    assert not resumed.deadline_hit


def test_deadline_suppresses_retries_of_in_flight_cells(tmp_path):
    journal = tmp_path / "j.jsonl"
    # The cell's own wall limit (0.3 s) fires well after the campaign
    # deadline (0.05 s): the attempt settles post-deadline and must keep
    # its transient outcome without burning the remaining retry budget.
    report = run_supervised(
        [_stub("busy_cell", wall_timeout_s=0.3)],
        retries=5,
        backoff=FAST_BACKOFF,
        journal_path=str(journal),
        deadline_s=0.05,
    )
    (result,) = report.results
    assert result.outcome == "timeout"
    assert result.attempts == 1
    starts = sum(
        1
        for line in journal.read_text().splitlines()
        if json.loads(line).get("type") == "start"
    )
    assert starts == 1


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
def test_block_policy_paces_a_batch_grid_to_completion():
    specs = [_stub("ok_cell", {"value": i}, cell_id=f"c{i}") for i in range(12)]
    report = run_supervised(
        specs,
        jobs=2,
        admission=AdmissionPolicy(max_pending=3, policy="block"),
    )
    assert report.ok
    assert report.admission_stats is not None
    assert report.admission_stats["admitted"] == 12
    assert report.admission_stats["peak_pending"] <= 3


def test_reject_policy_journals_overflow_as_cancelled(tmp_path):
    journal = tmp_path / "j.jsonl"
    specs = [
        _stub("sleep_cell", {"wall_s": 0.2}, cell_id=f"c{i}") for i in range(6)
    ]
    report = run_supervised(
        specs,
        jobs=1,
        journal_path=str(journal),
        admission=AdmissionPolicy(max_pending=2, policy="reject"),
    )
    outcomes = [r.outcome for r in report.results]
    assert outcomes.count("cancelled") == report.admission_stats["rejected"]
    assert outcomes.count("cancelled") >= 1
    assert outcomes.count("ok") == 6 - outcomes.count("cancelled")
    # Rejected cells resume cleanly later.
    resumed = run_supervised(specs, jobs=2, journal_path=str(journal), resume=True)
    assert resumed.ok


def test_shed_policy_evicts_rather_than_grows(tmp_path):
    specs = [
        _stub("sleep_cell", {"wall_s": 0.2}, cell_id=f"c{i}") for i in range(6)
    ]
    report = run_supervised(
        specs,
        jobs=1,
        admission=AdmissionPolicy(max_pending=2, policy="shed"),
    )
    outcomes = [r.outcome for r in report.results]
    assert report.admission_stats["shed"] == outcomes.count("cancelled")
    assert outcomes.count("ok") + outcomes.count("cancelled") == 6
    assert report.admission_stats["peak_pending"] <= 2


def test_ctrl_c_during_a_result_append_keeps_the_finished_cell(
    tmp_path, monkeypatch
):
    # The Ctrl-C lands after the result hit the journal but before the
    # append returned: the partial table must still show the cell ok.
    record = Journal.record

    def interrupted_after_result(self, entry):
        record(self, entry)
        if entry["type"] == "result":
            raise KeyboardInterrupt

    monkeypatch.setattr(Journal, "record", interrupted_after_result)
    report = run_supervised(
        [_stub("ok_cell", cell_id="first"), _stub("ok_cell", cell_id="second")],
        journal_path=str(tmp_path / "j.jsonl"),
    )
    assert report.interrupted
    assert [(r.cell_id, r.outcome) for r in report.results] == [
        ("first", "ok"), ("second", "pending"),
    ]
    assert load_journal(str(tmp_path / "j.jsonl")).completed == {"first"}


# ----------------------------------------------------------------------
# Journal schema version
# ----------------------------------------------------------------------
def test_future_journal_version_is_refused(tmp_path):
    journal = tmp_path / "future.jsonl"
    journal.write_text('{"type":"meta","version":99,"cells":1}\n')
    with pytest.raises(JournalVersionError) as excinfo:
        load_journal(str(journal))
    assert "version 99" in str(excinfo.value)


def test_resume_against_future_journal_fails_up_front(tmp_path):
    journal = tmp_path / "future.jsonl"
    journal.write_text('{"type":"meta","version":99,"cells":1}\n')
    with pytest.raises(JournalVersionError):
        run_supervised(
            [_stub("ok_cell")], journal_path=str(journal), resume=True
        )


def test_current_journals_replay_and_older_metas_load(tmp_path):
    journal = tmp_path / "old.jsonl"
    # A v1 journal (previous format) must keep loading.
    journal.write_text(
        '{"type":"meta","version":1,"cells":1}\n'
        '{"type":"start","cell":"ok_cell","attempt":1}\n'
        '{"type":"result","cell":"ok_cell","attempt":1,"outcome":"ok",'
        '"ok":true,"status":"complete","summary":"done","error":null}\n'
    )
    state = load_journal(str(journal))
    assert state.completed == {"ok_cell"}


# ----------------------------------------------------------------------
# outcome_table surfaces
# ----------------------------------------------------------------------
def test_outcome_table_counts_fabric_outcomes(tmp_path):
    specs = [_stub("crash_cell", {}, cell_id=f"c{i}") for i in range(4)]
    report = run_supervised(
        specs, retries=0, breaker=BreakerPolicy(threshold=1, max_probes=0)
    )
    table = outcome_table(report)
    assert "cells ok" in table  # the historic summary line survives
    assert "3 short_circuited" in table
    assert "breaker:" in table

    deadline_report = run_supervised(
        [
            _stub("sleep_cell", {"wall_s": 0.25}, cell_id="a"),
            _stub("sleep_cell", {"wall_s": 0.25}, cell_id="b"),
        ],
        jobs=1,
        deadline_s=0.1,
    )
    deadline_table = outcome_table(deadline_report)
    assert "1 cancelled" in deadline_table
    assert "campaign deadline hit" in deadline_table
