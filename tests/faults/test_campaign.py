"""System-level salvage: tolerant runs, the watchdog, and the fault grid.

The acceptance property of the robustness work: every cell of the
(mode x seed) grid either yields a full profile or a partial profile
with a non-empty salvage report -- never an unhandled exception --
while strict mode keeps raising the precise error type.
"""

import pytest

from repro.analysis.experiment import run_app
from repro.bots.registry import get_program
from repro.errors import (
    CampaignInterrupted,
    FaultInjectionError,
    ValidationError,
    WatchdogTimeout,
)
from repro.events.validate import validate_program_trace
from repro.faults import plan_for_mode, run_campaign, run_tolerant
from repro.faults.campaign import campaign_table
from repro.runtime.config import RuntimeConfig
from repro.runtime.runtime import OpenMPRuntime
from repro.substrates.base import Substrate


def test_healthy_tolerant_run_is_complete():
    outcome = run_tolerant("fib", size="test", n_threads=2, seed=0)
    assert outcome.status == "complete"
    assert outcome.ok
    assert outcome.verified is True
    assert outcome.profile is not None
    assert outcome.profile.salvage is None
    assert not outcome.profile.is_partial


def test_injected_exception_salvages_partial_profile():
    outcome = run_tolerant(
        "fib", size="test", n_threads=2, seed=0,
        plan=plan_for_mode("task_exception", seed=0),
    )
    assert outcome.status == "partial"
    assert outcome.ok
    assert "FaultInjectionError" in outcome.salvage.run_error
    assert outcome.profile is not None
    assert outcome.profile.is_partial


def test_corrupt_trace_rebuilds_with_accounting():
    outcome = run_tolerant(
        "fib", size="test", n_threads=2, seed=0,
        plan=plan_for_mode("drop_events", seed=0),
    )
    assert outcome.status == "partial" and outcome.ok
    report = outcome.salvage
    assert report.partial
    assert (
        report.events_dropped
        or report.events_repaired
        or report.instances_quarantined
    )
    # the live run itself stayed healthy, so the result is still verified
    assert outcome.verified is True


def test_stuck_task_trips_the_watchdog():
    outcome = run_tolerant(
        "fib", size="test", n_threads=2, seed=0,
        plan=plan_for_mode("stuck_task", seed=0), watchdog_us=1e5,
    )
    assert outcome.status == "partial" and outcome.ok
    assert outcome.salvage.watchdog_fired
    assert "WatchdogTimeout" in outcome.salvage.run_error


@pytest.mark.parametrize(
    "mode,error",
    [("task_exception", FaultInjectionError), ("stuck_task", WatchdogTimeout)],
)
def test_aborted_run_hands_its_pending_events_to_the_substrates(mode, error):
    """Events still in the unflushed batch when a run aborts reach the
    trace, so salvage starts from every event that was measured."""
    program = get_program("fib", size="test")
    runtime = OpenMPRuntime(RuntimeConfig(
        n_threads=2, seed=0, substrates=("profiling", "tracing"), watchdog_us=1e5,
        fault_plan=plan_for_mode(mode, seed=0),
    ))
    with pytest.raises(error):
        runtime.parallel(program.body, name=program.label)
    assert runtime.instr.events_dispatched > 0
    assert runtime.trace.total_events() == runtime.instr.events_dispatched


class _BrokenConsumer(Substrate):
    name = "broken"
    essential = True

    def on_batch(self, batch):
        raise RuntimeError("consumer broke")


def test_abort_flush_failure_does_not_mask_the_run_error():
    program = get_program("fib", size="test")
    runtime = OpenMPRuntime(RuntimeConfig(
        n_threads=2, seed=0, substrates=("profiling", _BrokenConsumer()),
        fault_plan=plan_for_mode("task_exception", seed=0),
    ))
    with pytest.raises(FaultInjectionError, match="plan seed 0"):
        runtime.parallel(program.body, name=program.label)


def test_strict_mode_raises_the_precise_fault_error():
    with pytest.raises(FaultInjectionError, match="plan seed 0"):
        run_app(
            "fib", size="test", n_threads=2, seed=0,
            fault_plan=plan_for_mode("task_exception", seed=0),
        )


def test_strict_watchdog_raises_watchdog_timeout():
    with pytest.raises(WatchdogTimeout, match="watchdog deadline"):
        run_app(
            "fib", size="test", n_threads=2, seed=0,
            fault_plan=plan_for_mode("stuck_task", seed=0),
            watchdog_us=1e5,
        )


def test_generous_watchdog_lets_healthy_runs_finish():
    result = run_app("fib", size="test", n_threads=2, seed=0, watchdog_us=1e9)
    assert result.verified


def test_strict_validation_flags_corrupt_trace():
    result = run_app(
        "fib", size="test", n_threads=2, seed=0,
        substrates=("profiling", "tracing"),
        fault_plan=plan_for_mode("drop_events", seed=0),
    )
    with pytest.raises(ValidationError):
        validate_program_trace(result.parallel.trace)


def test_campaign_grid_degrades_gracefully():
    results = run_campaign(
        apps=("fib",),
        modes=("drop_events", "task_exception", "clock_skew"),
        seeds=(0, 1),
    )
    assert len(results) == 6
    assert all(r.ok for r in results)
    table = campaign_table(results)
    assert "6/6 cells degraded gracefully" in table
    assert "drop_events" in table and "task_exception" in table


def test_keyboard_interrupt_preserves_completed_cells(monkeypatch):
    import repro.faults.campaign as campaign_mod

    real_run_tolerant = campaign_mod.run_tolerant
    calls = {"n": 0}

    def interrupt_on_second(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:
            raise KeyboardInterrupt
        return real_run_tolerant(*args, **kwargs)

    monkeypatch.setattr(campaign_mod, "run_tolerant", interrupt_on_second)
    with pytest.raises(CampaignInterrupted) as excinfo:
        run_campaign(apps=("fib",), modes=("drop_events",), seeds=(0, 1, 2))
    results = excinfo.value.results
    assert len(results) == 1  # the finished cell survived the Ctrl-C
    assert results[0].seed == 0 and results[0].ok
    assert "1 of 3" in str(excinfo.value)
    campaign_table(results)  # partial table renders


def test_supervised_campaign_matches_sequential(tmp_path):
    kwargs = dict(apps=("fib",),
                  modes=("task_exception", "drop_events", "pressure", "none"),
                  seeds=(0,))
    sequential = run_campaign(**kwargs)
    supervised = run_campaign(
        **kwargs,
        supervised=True,
        jobs=2,
        journal_path=str(tmp_path / "journal.jsonl"),
    )
    assert len(supervised) == len(sequential) == 4
    cell = lambda r: (r.app, r.mode, r.seed, r.outcome, r.status, r.ok,
                      r.summary)
    assert sorted(map(cell, supervised)) == sorted(map(cell, sequential))
    assert all(r.attempts == 1 for r in supervised)
    # the same journal resumes to the same table without re-running
    resumed = run_campaign(
        **kwargs,
        supervised=True,
        journal_path=str(tmp_path / "journal.jsonl"),
        resume=True,
    )
    assert sorted(map(cell, resumed)) == sorted(map(cell, sequential))


def test_tolerant_runs_are_deterministic():
    plan = plan_for_mode("duplicate_events", seed=2)
    first = run_tolerant("fib", size="test", n_threads=2, seed=2, plan=plan)
    second = run_tolerant("fib", size="test", n_threads=2, seed=2, plan=plan)
    assert first.status == second.status
    summary_of = lambda o: o.salvage.summary() if o.salvage else None
    assert summary_of(first) == summary_of(second)
