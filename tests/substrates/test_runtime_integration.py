"""Substrates wired through the runtime: the multi-layer contract.

The acceptance bar for the substrate refactor:

* legacy ``instrument=True`` runs and explicit ``substrates=("profiling",)``
  runs export byte-identical cubes,
* one run feeds many consumers (profile + trace + stats + validation),
* a broken third-party substrate is quarantined, noted in the salvage
  report, and the run still completes,
* a substrate's ``per_event_cost`` is charged on the virtual timeline,
* config-level conveniences (normalization, run_tolerant pass-through).
"""

import pytest

from repro.analysis.experiment import run_app
from repro.cube import dumps
from repro.errors import SubstrateError
from repro.faults import run_tolerant
from repro.runtime import RuntimeConfig
from repro.runtime.runtime import run_parallel
from repro.substrates import (
    OnlineValidationSubstrate,
    StatsSubstrate,
    Substrate,
)
from tests.batch_calls import batch_calls


def fib(ctx, n):
    if n < 2:
        yield ctx.compute(1.0)
        return n
    a = yield ctx.spawn(fib, n - 1)
    b = yield ctx.spawn(fib, n - 2)
    yield ctx.taskwait()
    yield ctx.compute(0.5)
    return a.result + b.result


def fib_region(ctx, n=7):
    if (yield ctx.single()):
        root = yield ctx.spawn(fib, n)
        yield ctx.taskwait()
        return root.result
    return None


def run(**overrides):
    config = RuntimeConfig(n_threads=2, seed=3, **overrides)
    return run_parallel(fib_region, config=config, name="fib-kernel")


def test_explicit_profiling_substrate_matches_legacy_byte_for_byte():
    legacy = run(instrument=True)
    explicit = run(instrument=True, substrates=("profiling",))
    assert legacy.duration == explicit.duration
    assert legacy.events_dispatched == explicit.events_dispatched
    assert dumps(legacy.profile) == dumps(explicit.profile)


def test_one_run_feeds_many_consumers():
    result = run(
        instrument=True,
        substrates=("profiling", "tracing", "stats", "validation"),
    )
    # Classic artifacts still surface as first-class fields...
    assert result.profile is not None
    assert result.trace is not None
    # ...and every substrate reports through the artifact map.
    artifacts = result.substrate_artifacts
    assert set(artifacts) == {"profiling", "tracing", "stats", "validation"}
    assert artifacts["profiling"] is result.profile
    assert artifacts["tracing"] is result.trace
    stats = artifacts["stats"]
    assert stats["total_events"] == result.events_dispatched
    assert sum(stats["per_thread"]) == result.events_dispatched
    # The online validator agrees with the post-hoc one: a healthy run.
    assert artifacts["validation"]["clean"] is True
    # Per-substrate overhead report rides in ``extra``.
    report = result.extra["substrates"]
    assert set(report) == {"profiling", "tracing", "stats", "validation"}
    for row in report.values():
        assert row["events"] == result.events_dispatched
        assert row["quarantined"] is False


def test_substrates_do_not_perturb_virtual_time():
    baseline = run(instrument=True)
    loaded = run(
        instrument=True,
        substrates=("profiling", "tracing", "stats", "validation"),
    )
    assert loaded.duration == baseline.duration
    assert loaded.events_dispatched == baseline.events_dispatched


class ExplodingSubstrate(Substrate):
    name = "exploding"
    essential = False

    def __init__(self, fail_after=5):
        self.fail_after = fail_after
        self.seen = 0

    def on_batch(self, batch):
        for call in batch_calls(batch):
            if call[0] == "enter":
                self.seen += 1
                if self.seen > self.fail_after:
                    raise RuntimeError("measurement backend fell over")


def test_broken_substrate_is_quarantined_and_noted_in_salvage():
    exploding = ExplodingSubstrate(fail_after=5)
    result = run(instrument=True, substrates=("profiling", exploding))
    # The run completed and the essential consumer is intact.
    assert result.profile is not None
    assert [v for v in result.return_values if v is not None] == [13]
    report = result.extra["substrates"]
    assert report["exploding"]["quarantined"] is True
    assert "fell over" in report["exploding"]["error"]
    assert report["profiling"]["quarantined"] is False
    # The incident is attributed on the profile's salvage report.
    salvage = result.profile.salvage
    assert salvage is not None
    assert any("exploding" in note for note in salvage.notes)


def test_substrate_per_event_cost_is_charged():
    class CostlySubstrate(Substrate):
        name = "costly"
        per_event_cost = 0.5

    free = run(instrument=True, substrates=("profiling",))
    costly = run(instrument=True, substrates=("profiling", CostlySubstrate()))
    assert costly.duration > free.duration
    assert costly.events_dispatched == free.events_dispatched
    instr_free = sum(s["instr"] for s in free.thread_stats)
    instr_costly = sum(s["instr"] for s in costly.thread_stats)
    # Every dispatched event carries the extra 0.5 us charge.
    assert instr_costly - instr_free == pytest.approx(
        0.5 * costly.events_dispatched
    )
    assert costly.extra["substrates"]["costly"]["charged_us"] == pytest.approx(
        0.5 * costly.events_dispatched
    )


def test_substrate_without_on_batch_reports_no_events_received():
    class CostlySubstrate(Substrate):
        name = "costly"
        per_event_cost = 0.5

    result = run_app(
        "fib", size="test", n_threads=2,
        substrates=("profiling", CostlySubstrate()),
    ).parallel
    report = result.extra["substrates"]
    # The fan-out skips a class that does not override on_batch...
    assert report["costly"]["events"] == 0
    assert report["profiling"]["events"] == result.events_dispatched
    # ...but the timeline still charges its cost on every event.
    assert report["costly"]["charged_us"] == pytest.approx(
        0.5 * result.events_dispatched
    )


def test_quarantined_substrate_row_charges_what_the_timeline_charged():
    class SecondBatchBreaks(Substrate):
        name = "breaks"
        essential = False
        per_event_cost = 0.5

        def __init__(self):
            self.batches = 0

        def on_batch(self, batch):
            self.batches += 1
            if self.batches == 2:
                raise RuntimeError("broke on the second batch")

    kwargs = dict(size="small", n_threads=4)
    free = run_app("fib", substrates=("profiling",), **kwargs).parallel
    result = run_app(
        "fib", substrates=("profiling", SecondBatchBreaks()), **kwargs
    ).parallel
    row = result.extra["substrates"]["breaks"]
    assert row["quarantined"] is True
    # Delivery stopped at the quarantine...
    assert 0 < row["events"] < result.events_dispatched
    # ...but the charge is fixed at attachment: every event paid it.
    charged = sum(s["instr"] for s in result.thread_stats) - sum(
        s["instr"] for s in free.thread_stats
    )
    assert charged == pytest.approx(0.5 * result.events_dispatched)
    assert row["charged_us"] == pytest.approx(charged)


def test_substrates_run_without_instrumentation_cost():
    # ``instrument=False``: substrates still observe events, but the
    # base per-event instrumentation charge stays at zero.
    result = run(instrument=False, substrates=("stats",))
    stats = result.substrate_artifacts["stats"]
    assert stats["total_events"] > 0
    assert result.profile is None
    assert sum(s["instr"] for s in result.thread_stats) == 0.0


def test_config_normalizes_substrate_list_to_tuple():
    config = RuntimeConfig(substrates=["stats", "validation"])
    assert config.substrates == ("stats", "validation")
    derived = config.with_substrates("profiling", StatsSubstrate())
    assert derived.substrates[0] == "profiling"
    assert isinstance(derived.substrates[1], StatsSubstrate)
    assert config.substrates == ("stats", "validation")  # original frozen


def test_unknown_substrate_name_fails_fast():
    with pytest.raises(SubstrateError, match="unknown substrate"):
        run(substrates=("profilng",))


def test_run_tolerant_accepts_extra_substrates():
    # ``profiling`` and ``tracing`` are force-added alongside the request,
    # so the salvage machinery keeps both its inputs.
    outcome = run_tolerant("fib", size="test", n_threads=2, substrates=["stats"])
    assert outcome.status == "complete"
    assert outcome.profile is not None
    assert outcome.verified is not False


def test_substrate_instances_in_config_stay_inspectable():
    # Passing a live instance (rather than a registry name) lets callers
    # keep a handle on the consumer and query it after the run.
    sub = OnlineValidationSubstrate()
    result = run(instrument=True, substrates=("profiling", sub))
    assert sub.clean
    assert sub.events_checked == result.events_dispatched
    assert result.substrate_artifacts["validation"] == sub.artifact()
