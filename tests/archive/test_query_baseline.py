"""Tests for the query layer and baseline aggregation."""

from types import SimpleNamespace

import pytest

from repro.analysis import run_app
from repro.archive import (
    ArchiveStore,
    Baseline,
    baselines_available,
    config_fingerprint,
    find_runs,
    latest_baseline,
    meta_for_outcome,
    meta_for_result,
)
from repro.archive.baseline import MetricStats
from repro.errors import ArchiveError
from repro.runtime.config import RuntimeConfig
from repro.runtime.costs import JUROPA_LIKE
from repro.substrates.recorder import RecorderSubstrate


@pytest.fixture(scope="module")
def results():
    return [
        run_app("fib", size="test", variant="optimized", n_threads=2, seed=seed)
        for seed in (0, 1, 2)
    ]


@pytest.fixture()
def store(tmp_path, results):
    store = ArchiveStore(tmp_path / "arch")
    for result in results:
        store.put(
            result.profile,
            meta_for_result(result, size="test", variant="optimized"),
        )
    return store


# ----------------------------------------------------------------------
# Configuration fingerprints
# ----------------------------------------------------------------------
def test_fingerprint_ignores_seed_but_not_costs():
    base = RuntimeConfig(n_threads=2, seed=0)
    assert config_fingerprint(base) == config_fingerprint(
        RuntimeConfig(n_threads=2, seed=7)
    )
    inflated = RuntimeConfig(
        n_threads=2, costs=JUROPA_LIKE.with_instrumentation_cost(5.0)
    )
    assert config_fingerprint(base) != config_fingerprint(inflated)
    assert config_fingerprint(base) != config_fingerprint(RuntimeConfig(n_threads=4))


_RECORDER = RecorderSubstrate()

# The consumer lists today's callers build (``repro run`` under its
# flags, ``run_tolerant`` plain, with extra substrates and with a
# recorder) and the fingerprint and ``RunMeta.substrates`` each archives
# under.  A list that is exactly the default wiring plus tracing keys the
# way the retired trace flag did, so archived baselines keep grouping.
# The last two list ``tracing`` without asking for a trace; they key like
# the identical configurations that do.
FINGERPRINT_CASES = [
    pytest.param(
        "run", {},
        "2123620841c7702c49866ed2a1a8d2005f886286454b8c0dc9af00e17b6178e7",
        (),
        id="run-default",
    ),
    pytest.param(
        "run", dict(substrates=("profiling", "tracing")),
        "9c604f857071097196411113ed9cc411f0e90b0c6ee100ec7fed6f78b4c78163",
        (),
        id="run-strict",
    ),
    pytest.param(
        "run", dict(instrument=False, substrates=("tracing",)),
        "56962ee76bf9473f498859f5ed12f71a669f48b428bb81b7b5e966114f25a0eb",
        (),
        id="run-no-instrument-strict",
    ),
    pytest.param(
        "run", dict(substrates=("stats",)),
        "4a7ce70daa3764a3439e8b6b9823a7df9935dee5cf7630e04e2222e64b8f3bb7",
        ("stats",),
        id="run-substrate-stats",
    ),
    pytest.param(
        "run", dict(substrates=("stats", "tracing")),
        "fd8e59cd010977be403771ac3e09101c02edae0f2ade5b5ee2ca72d2115f1747",
        ("stats", "tracing"),
        id="run-substrate-stats-strict",
    ),
    pytest.param(
        "run", dict(substrates=("profiling", _RECORDER)),
        "047628419b3ab3e47bdf20067899bf6246379e54d0533ca8d1de93072f307678",
        ("profiling", "recorder"),
        id="run-record",
    ),
    pytest.param(
        "run", dict(substrates=("profiling", "tracing", _RECORDER)),
        "5983d157991faf6a5dabde02ab3a5fd302a3a1042bf4867f915fb266ea6eacc5",
        ("profiling", "tracing", "recorder"),
        id="run-record-strict",
    ),
    pytest.param(
        "run", dict(substrates=("profiling",)),
        "67c39ad6b956169f5302417d7987ae8f48c219c0bca1c4d93d4ed6b5d8085eba",
        ("profiling",),
        id="run-substrate-profiling",
    ),
    pytest.param(
        "tolerant", dict(substrates=("profiling", "tracing")),
        "9c604f857071097196411113ed9cc411f0e90b0c6ee100ec7fed6f78b4c78163",
        (),
        id="tolerant-plain",
    ),
    pytest.param(
        "tolerant", dict(substrates=("stats", "profiling", "tracing")),
        "aa30992b443c30945265661489a2a8fa54ef0fb69d414c9abc021b1f231f96d9",
        ("stats", "profiling", "tracing"),
        id="tolerant-extras",
    ),
    pytest.param(
        "tolerant", dict(substrates=(_RECORDER, "profiling", "tracing")),
        "884dfd589fc028375458867454aab2e1e076f73ed4e5f9086cf1cfb8f65578a4",
        ("recorder", "profiling", "tracing"),
        id="tolerant-recorder",
    ),
    pytest.param(
        "run", dict(substrates=("tracing",)),
        "a396eeeffd9f59df7a3eceb02fd614ee6b3370f13fcaca2513f3069482157e73",
        ("tracing",),
        id="run-substrate-tracing",
    ),
    pytest.param(
        "run", dict(substrates=("profiling", "tracing")),
        "9c604f857071097196411113ed9cc411f0e90b0c6ee100ec7fed6f78b4c78163",
        (),
        id="run-substrate-profiling-tracing",
    ),
]


@pytest.mark.parametrize("source,kwargs,fingerprint,substrates", FINGERPRINT_CASES)
def test_fingerprint_of_each_consumer_list_is_pinned(
    source, kwargs, fingerprint, substrates
):
    config = RuntimeConfig(n_threads=2, **kwargs)
    if source == "run":
        meta = meta_for_result(SimpleNamespace(
            program_label="fib/cutoff", n_threads=2, seed=0, meta={},
            kernel_time=1.0, verified=True, config=config,
        ))
    else:
        meta = meta_for_outcome(
            SimpleNamespace(
                app="fib", status="complete", config=config, duration=1.0,
                verified=True,
            ),
            size="test", variant="optimized", seed=0,
        )
    assert config_fingerprint(config) == fingerprint
    assert meta.config_hash == fingerprint
    assert meta.substrates == substrates


# ----------------------------------------------------------------------
# find_runs
# ----------------------------------------------------------------------
def test_find_runs_filters(store):
    assert len(find_runs(store, kernel="fib")) == 3
    assert len(find_runs(store, kernel="nqueens")) == 0
    assert len(find_runs(store, kernel="fib", seed=1)) == 1
    assert len(find_runs(store, variant="optimized", n_threads=2)) == 3
    assert find_runs(store, tag="baseline") == []


def test_find_runs_limit_keeps_newest(store):
    newest = find_runs(store, kernel="fib", limit=2)
    assert [r.run_id for r in newest] == ["r0002", "r0003"]
    reversed_order = find_runs(store, kernel="fib", limit=2, newest_first=True)
    assert [r.run_id for r in reversed_order] == ["r0003", "r0002"]


def test_find_runs_by_tag_after_tagging(store):
    store.tag("r0001", "baseline")
    assert [r.run_id for r in find_runs(store, tag="baseline")] == ["r0001"]


# ----------------------------------------------------------------------
# latest_baseline
# ----------------------------------------------------------------------
def test_latest_baseline_aggregates_newest_runs(store):
    baseline = latest_baseline(store, kernel="fib", runs=3, min_runs=2)
    assert baseline.n_runs == 3
    assert baseline.run_ids() == ("r0001", "r0002", "r0003")
    assert baseline.region_names()  # flat view is non-empty
    for region in baseline.region_names():
        assert baseline.presence(region) >= 1


def test_latest_baseline_insufficient_runs_is_actionable(store):
    with pytest.raises(ArchiveError, match="repro run --archive"):
        latest_baseline(store, kernel="nqueens", min_runs=2)
    with pytest.raises(ArchiveError, match="found 0"):
        latest_baseline(store, kernel="fib", tag="no-such-tag", min_runs=1)
    with pytest.raises(ArchiveError, match="at least 1"):
        latest_baseline(store, kernel="fib", runs=0)


def test_latest_baseline_excludes_candidate_tagged_runs(store, results):
    # `repro sentinel --archive-candidate` stores candidates tagged
    # 'candidate'; they must never become part of the next baseline.
    store.put(
        results[0].profile,
        meta_for_result(
            results[0], size="test", variant="optimized",
            tags=("candidate",), source="sentinel",
        ),
    )
    baseline = latest_baseline(store, kernel="fib", runs=4)
    assert baseline.run_ids() == ("r0001", "r0002", "r0003")
    # explicit opt-ins still see them
    assert latest_baseline(store, kernel="fib", tag="candidate").run_ids() == (
        "r0004",
    )
    assert latest_baseline(
        store, kernel="fib", runs=4, include_candidates=True
    ).run_ids() == ("r0001", "r0002", "r0003", "r0004")


def test_latest_baseline_warns_and_restricts_on_mixed_fingerprints(
    store, results
):
    import dataclasses as dc

    from repro.errors import ArchiveWarning

    meta = meta_for_result(results[0], size="test", variant="optimized")
    store.put(  # same group, different (newer) configuration fingerprint
        results[0].profile, dc.replace(meta, config_hash="deadbeef", seed=99)
    )
    with pytest.warns(ArchiveWarning, match="fingerprints"):
        baseline = latest_baseline(store, kernel="fib", runs=4)
    assert baseline.run_ids() == ("r0004",)


def test_latest_baseline_clean_group_does_not_warn(store, recwarn):
    latest_baseline(store, kernel="fib", runs=3)
    assert not [w for w in recwarn.list if issubclass(w.category, Warning)]


def test_baselines_available_groups(store):
    groups = baselines_available(store)
    assert groups == [(("fib", "test", "optimized", 2), 3)]


# ----------------------------------------------------------------------
# Baseline statistics
# ----------------------------------------------------------------------
def test_metric_stats_basics():
    stats = MetricStats.from_samples([10.0, 20.0, 30.0])
    assert stats.count == 3
    assert stats.mean == pytest.approx(20.0)
    assert stats.minimum == 10.0 and stats.maximum == 30.0
    assert stats.std == pytest.approx(8.1649, rel=1e-3)
    assert stats.zscore(28.1649) == pytest.approx(1.0, rel=1e-3)
    assert MetricStats.from_samples([]).count == 0


def test_identical_samples_clamp_float_residue_to_zero_std():
    # Repeatable runs must not produce astronomical z-scores from
    # 1e-16-level float residue in the variance sum.
    value = 12345.6789
    stats = MetricStats.from_samples([value] * 5)
    assert stats.std == 0.0
    assert stats.zscore(2 * value) is None


def test_baseline_from_deterministic_profiles_has_zero_std(results):
    baseline = Baseline.from_profiles([r.profile for r in results])
    assert baseline.n_runs == 3
    # fib size=test threads=2 is fully deterministic across seeds
    for region in baseline.region_names():
        for metric in ("exclusive", "inclusive", "visits"):
            stats = baseline.stats(region, metric)
            assert stats is not None and stats.count == 3
            assert stats.std == 0.0
            assert stats.minimum == stats.maximum == pytest.approx(stats.mean)


def test_baseline_to_dict_is_jsonable(store):
    import json

    baseline = latest_baseline(store, kernel="fib")
    data = json.loads(json.dumps(baseline.to_dict()))
    assert data["n_runs"] == 3
    assert data["runs"] == ["r0001", "r0002", "r0003"]
    region = next(iter(data["regions"].values()))
    assert set(region["exclusive"]) == {"count", "mean", "std", "min", "max"}
