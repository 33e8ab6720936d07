"""Tests for the CUBE-style renderer, export/import, queries, and diff."""

import json

import pytest

from repro.analysis import run_app
from repro.cube import (
    diff_profiles,
    dumps,
    flat_region_profile,
    hot_path,
    loads,
    profile_from_dict,
    render_node,
    render_profile,
    top_regions,
)
from repro.cube.diff import summarize_diff
from repro.cube.query import find_task_stub_summary
from repro.events import RegionRegistry, RegionType
from repro.profiling import CallTreeNode


@pytest.fixture(scope="module")
def fib_profile():
    return run_app("fib", size="test", variant="stress", n_threads=2, seed=1).profile


@pytest.fixture(scope="module")
def fib_cutoff_profile():
    return run_app("fib", size="test", variant="optimized", n_threads=2, seed=1).profile


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def test_render_profile_contains_fig5_elements(fib_profile):
    text = render_profile(fib_profile)
    assert "task trees" in text
    assert "main tree" in text
    assert "(stub)" in text  # stub nodes marked, as in Fig. 5
    assert "fib_task" in text
    assert "instances=177" in text


def test_render_node_depth_limit_and_min_time(fib_profile):
    main = fib_profile.aggregated_main_tree()
    shallow = render_node(main, max_depth=1)
    assert "..." in shallow or shallow.count("\n") < render_node(main).count("\n")
    filtered = render_node(main, min_time=1e12)
    assert "below" in filtered


def test_render_per_thread_view(fib_profile):
    text = render_profile(fib_profile, thread_id=0)
    assert "thread 0" in text


def test_render_tree_glyphs():
    reg = RegionRegistry()
    root = CallTreeNode(reg.register("main", RegionType.FUNCTION))
    root.child(reg.register("a", RegionType.FUNCTION)).metrics.record_visit(1.0)
    root.child(reg.register("b", RegionType.FUNCTION)).metrics.record_visit(2.0)
    root.metrics.record_visit(4.0)
    text = render_node(root)
    assert "|- a" in text
    assert "`- b" in text


# ----------------------------------------------------------------------
# Export / import
# ----------------------------------------------------------------------
def test_json_roundtrip_is_lossless_and_canonical(fib_profile):
    blob = dumps(fib_profile)
    restored = loads(blob)
    assert dumps(restored) == blob
    assert restored.n_threads == fib_profile.n_threads
    a = fib_profile.task_tree("fib_task").metrics.durations
    b = restored.task_tree("fib_task").metrics.durations
    assert a == b


def test_export_is_valid_json_with_format_marker(fib_profile):
    data = json.loads(dumps(fib_profile))
    assert data["format"] == 1
    assert data["n_threads"] == 2
    assert isinstance(data["regions"], list)


def test_import_rejects_unknown_format(fib_profile):
    data = json.loads(dumps(fib_profile))
    data["format"] = 99
    with pytest.raises(ValueError, match="unsupported"):
        profile_from_dict(data)


def test_roundtrip_preserves_queries(fib_profile):
    restored = loads(dumps(fib_profile))
    assert top_regions(restored, limit=5) == top_regions(fib_profile, limit=5)
    assert restored.max_concurrent_tasks_per_thread() == (
        fib_profile.max_concurrent_tasks_per_thread()
    )


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------
def test_hot_path_descends_heaviest(fib_profile):
    main = fib_profile.aggregated_main_tree()
    path = hot_path(main)
    assert path[0] is main
    for parent, child in zip(path, path[1:]):
        assert child.parent is parent
        heaviest = max(parent.children.values(), key=lambda c: c.metrics.inclusive_time)
        assert child is heaviest


def test_top_regions_sorted_descending(fib_profile):
    ranked = top_regions(fib_profile, limit=6)
    values = [v for _, v in ranked]
    assert values == sorted(values, reverse=True)
    # For tiny fib tasks, management regions (taskwait) rival the task
    # bodies themselves -- the paper's central observation; the task
    # region must still rank at the top alongside them.
    assert "fib_task" in [name for name, _ in ranked[:2]]


def test_flat_profile_excludes_stub_double_counting(fib_profile):
    flat = flat_region_profile(fib_profile)
    # Stub time is an alternate attribution of fib_task execution; the
    # flat view must count the task region once.
    region_total = flat["fib_task"]["inclusive"]
    agg = fib_profile.task_tree("fib_task")
    assert region_total == pytest.approx(agg.metrics.inclusive_time)


def test_stub_summary_lists_scheduling_points(fib_profile):
    stubs = find_task_stub_summary(fib_profile)
    assert stubs
    anchors = {anchor.split(":")[1] for anchor, _, _, _ in stubs}
    assert any("taskwait" in a or "barrier" in a for a in anchors)
    for _anchor, construct, time_us, fragments in stubs:
        assert construct == "fib_task"
        assert time_us >= 0
        assert fragments >= 1


# ----------------------------------------------------------------------
# Diff
# ----------------------------------------------------------------------
def test_diff_detects_cutoff_improvement(fib_profile, fib_cutoff_profile):
    entries = diff_profiles(fib_profile, fib_cutoff_profile)
    by_region = {e.region: e for e in entries}
    # The cut-off drastically reduces taskwait and creation time.
    assert by_region["taskwait"].ratio < 0.5
    assert by_region["create@fib_task"].ratio < 0.5


def test_diff_identical_profiles_is_empty(fib_profile):
    assert diff_profiles(fib_profile, fib_profile) == []


def test_diff_summary_renders(fib_profile, fib_cutoff_profile):
    text = summarize_diff(diff_profiles(fib_profile, fib_cutoff_profile), limit=3)
    assert "->" in text
    assert summarize_diff([]) == "(no significant changes)"


def test_diff_sort_is_stable_for_appeared_and_vanished(monkeypatch):
    # Appeared/vanished regions are all "infinite" movers; without the
    # name tie-break their order depended on float inf comparisons.
    import repro.cube.diff as diff_mod

    views = [
        {"m": {"exclusive": 10.0}, "gone_b": {"exclusive": 5.0},
         "gone_a": {"exclusive": 5.0}},
        {"m": {"exclusive": 20.0}, "new_b": {"exclusive": 5.0},
         "new_a": {"exclusive": 5.0}},
    ]
    monkeypatch.setattr(diff_mod, "flat_region_profile", lambda p: views[p])
    entries = diff_mod.diff_profiles(0, 1)
    assert [e.region for e in entries] == [
        "gone_a", "gone_b", "new_a", "new_b", "m"
    ]
    # and the order is deterministic across repeated calls
    assert [e.region for e in diff_mod.diff_profiles(0, 1)] == [
        e.region for e in entries
    ]


def test_diff_entry_renders_new_and_gone_markers():
    from repro.cube.diff import DiffEntry

    assert str(DiffEntry("r", "exclusive", 0.0, 5.0)).endswith("[new]")
    assert str(DiffEntry("r", "exclusive", 5.0, 0.0)).endswith("[gone]")
    assert str(DiffEntry("r", "exclusive", 5.0, 10.0)).endswith("(2.00x)")
    assert "inf" not in str(DiffEntry("r", "exclusive", 0.0, 5.0))


# ----------------------------------------------------------------------
# Format errors and byte stability
# ----------------------------------------------------------------------
def test_unknown_format_raises_structured_error(fib_profile):
    from repro.errors import ProfileFormatError, ReproError

    data = json.loads(dumps(fib_profile))
    data["format"] = 99
    with pytest.raises(ProfileFormatError) as excinfo:
        profile_from_dict(data)
    err = excinfo.value
    assert err.found == 99 and err.supported == 1
    assert "version 1" in str(err)
    assert isinstance(err, ReproError) and isinstance(err, ValueError)
    with pytest.raises(ProfileFormatError, match="supports version 1"):
        profile_from_dict({"format": None})


def _assert_export_byte_stable(profile):
    first = dumps(profile)
    second = dumps(profile_from_dict(json.loads(first)))
    assert first == second


def test_export_byte_stable_with_parameters():
    from repro.analysis import run_app

    result = run_app(
        "nqueens", size="test", variant="stress", n_threads=2,
        program_kwargs={"depth_parameter": True},
    )
    assert result.profile.task_trees_by_parameter("nqueens_task")
    _assert_export_byte_stable(result.profile)


def test_export_byte_stable_with_counters():
    from repro.analysis import run_app

    result = run_app("strassen", size="test", n_threads=2)
    _assert_export_byte_stable(result.profile)


def test_export_byte_stable_with_stubs(fib_profile):
    assert find_task_stub_summary(fib_profile)  # stress fib schedules stubs
    _assert_export_byte_stable(fib_profile)


def test_export_byte_stable_with_salvage_report():
    from repro.faults.campaign import run_tolerant
    from repro.faults.plan import plan_for_mode

    outcome = run_tolerant(
        "fib", plan=plan_for_mode("drop_events", seed=1), seed=1
    )
    assert outcome.status == "partial" and outcome.profile is not None
    assert outcome.profile.salvage is not None
    _assert_export_byte_stable(outcome.profile)


# ----------------------------------------------------------------------
# Pinned query values: every float's repr, captured when the per-handle
# sums were numpy ``bincount`` folds, so the dict fold stays bit-identical
# ----------------------------------------------------------------------
#: (app, size) -> flat_region_profile, each value as its repr
GOLDEN_FLAT = {
    ('fib', 'small'): {
        'fib/cutoff': {
            'exclusive': '20.50000000000182',
            'inclusive': '30511.324999999804',
            'visits': '4',
        },
        'single': {
            'exclusive': '8.05',
            'inclusive': '8.05',
            'visits': '4',
        },
        'create@fib_task': {
            'exclusive': '6561.537500000308',
            'inclusive': '6561.537500000308',
            'visits': '1769',
        },
        'taskwait': {
            'exclusive': '9925.40625000017',
            'inclusive': '14064.475000000146',
            'visits': '885',
        },
        'implicit barrier': {
            'exclusive': '10569.581249999908',
            'inclusive': '22863.20624999985',
            'visits': '4',
        },
        'fib_task': {
            'exclusive': '3426.2499999994156',
            'inclusive': '16432.693749999922',
            'visits': '1769',
        },
    },
    ('nqueens', 'medium'): {
        'nqueens/cutoff': {
            'exclusive': '20.50000000000182',
            'inclusive': '16844.774999999958',
            'visits': '4',
        },
        'single': {
            'exclusive': '8.05',
            'inclusive': '8.05',
            'visits': '4',
        },
        'create@nqueens_task': {
            'exclusive': '655.9625000000157',
            'inclusive': '655.9625000000157',
            'visits': '447',
        },
        'taskwait': {
            'exclusive': '501.1874999999872',
            'inclusive': '4368.2374999999765',
            'visits': '84',
        },
        'implicit barrier': {
            'exclusive': '995.9749999999949',
            'inclusive': '12613.293749999968',
            'visits': '4',
        },
        'nqueens_task': {
            'exclusive': '14663.099999999959',
            'inclusive': '15484.368749999961',
            'visits': '447',
        },
    },
    ('sparselu', 'test'): {
        'sparselu/single': {
            'exclusive': '65.8833333333333',
            'inclusive': '992.9833333333327',
            'visits': '4',
        },
        'single': {
            'exclusive': '8.05',
            'inclusive': '8.05',
            'visits': '4',
        },
        'create@fwd_task': {
            'exclusive': '17.349999999999998',
            'inclusive': '17.349999999999998',
            'visits': '5',
        },
        'create@bdiv_task': {
            'exclusive': '16.40000000000001',
            'inclusive': '16.40000000000001',
            'visits': '5',
        },
        'taskwait': {
            'exclusive': '55.29999999999994',
            'inclusive': '133.89999999999992',
            'visits': '8',
        },
        'create@bmod_task': {
            'exclusive': '26.950000000000003',
            'inclusive': '26.950000000000003',
            'visits': '9',
        },
        'implicit barrier': {
            'exclusive': '436.0999999999995',
            'inclusive': '724.4499999999995',
            'visits': '4',
        },
        'bdiv_task': {
            'exclusive': '66.25',
            'inclusive': '66.25',
            'visits': '5',
        },
        'bmod_task': {
            'exclusive': '234.44999999999993',
            'inclusive': '234.44999999999993',
            'visits': '9',
        },
        'fwd_task': {
            'exclusive': '66.25',
            'inclusive': '66.25',
            'visits': '5',
        },
    },
}

#: (app, size) -> top_regions(limit=5), each value as its repr
GOLDEN_TOP5 = {
    ('fib', 'small'): [
        ('implicit barrier', '10569.581249999908'),
        ('taskwait', '9925.40625000017'),
        ('create@fib_task', '6561.537500000308'),
        ('fib_task', '3426.2499999994156'),
        ('fib/cutoff', '20.50000000000182'),
    ],
    ('nqueens', 'medium'): [
        ('nqueens_task', '14663.099999999959'),
        ('implicit barrier', '995.9749999999949'),
        ('create@nqueens_task', '655.9625000000157'),
        ('taskwait', '501.1874999999872'),
        ('nqueens/cutoff', '20.50000000000182'),
    ],
    ('sparselu', 'test'): [
        ('implicit barrier', '436.0999999999995'),
        ('bmod_task', '234.44999999999993'),
        ('bdiv_task', '66.25'),
        ('fwd_task', '66.25'),
        ('sparselu/single', '65.8833333333333'),
    ],
}


@pytest.mark.parametrize("app,size", sorted(GOLDEN_FLAT))
def test_flat_queries_match_pinned_values(app, size):
    profile = run_app(app, size=size, n_threads=4, seed=1).profile
    flat = flat_region_profile(profile)
    assert {
        name: {key: repr(value) for key, value in entry.items()}
        for name, entry in flat.items()
    } == GOLDEN_FLAT[app, size]
    assert list(flat) == list(GOLDEN_FLAT[app, size])  # first-encounter order
    assert [
        (name, repr(value)) for name, value in top_regions(profile, limit=5)
    ] == GOLDEN_TOP5[app, size]
