"""Tests of the end-to-end benchmark itself, on small inputs.

Run from the root of a checkout::

    PYTHONPATH=src python -m pytest -q benchmarks/e2e
"""

from __future__ import annotations

import json

import pytest

from e2e import compare, run, workloads
from e2e.trace import HOOKS, SpanRecorder, installed
from repro.sim.core import Environment

with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

SMALL = {name: workload.smaller() for name, workload in workloads.WORKLOADS.items()}


def _units(metrics):
    return {name: entry["unit"] for name, entry in metrics.items()}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_end_to_end_metric_is_emitted_with_its_unit(name):
    result = run.run_one(SMALL[name], seed=0, seconds=0.05, trace=False, probes=1)
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["problems"]  # error rate 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_emits_every_layer_metric_and_restores_originals(name):
    original = vars(Environment)["run"]
    result = run.run_one(SMALL[name], seed=1, seconds=0.05, trace=True)
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["failed"] == 0, result["problems"]
    assert result["metrics"]["trace_overhead"]["value"] > 0
    assert vars(Environment)["run"] is original


def _hooked_attributes():
    return {
        (hook.target, hook.attr): vars(hook.owner()).get(hook.attr) for hook in HOOKS
    }


def test_untraced_run_installs_no_wrapper(tmp_path):
    before = _hooked_attributes()
    seen = []
    workload = workloads.WORKLOADS["fib-stress"].smaller()
    step = workload.step

    def checking_step(m, i):
        step(m, i)
        seen.append(_hooked_attributes())

    workload.step = checking_step
    workloads.measure(workload, 0, 0.05, str(tmp_path))
    assert seen and all(snapshot == before for snapshot in seen)


def test_installation_wraps_then_restores_every_hook():
    before = _hooked_attributes()
    with installed(SpanRecorder()):
        during = _hooked_attributes()
    assert all(during[key] is not before[key] for key in before)
    assert _hooked_attributes() == before


def test_tampered_profile_counts_the_operation_failed(monkeypatch, tmp_path):
    real_run_app = workloads.run_app

    def tampered_run_app(*args, **kwargs):
        result = real_run_app(*args, **kwargs)
        if result.profile is not None:
            tree = next(iter(result.profile.task_trees[0].values()))
            tree.metrics.durations.count += 1
        return result

    monkeypatch.setattr(workloads, "run_app", tampered_run_app)
    tally = workloads.Tally()
    workload = workloads.ProgramWorkload("fib-stress", "fib", "test", "stress")
    workload.profiled(workloads.Measurement(0, str(tmp_path), tally))
    assert tally.attempted == 1 and tally.failed == 1
    assert "task instances" in tally.problems[0]


def test_drifting_cube_hash_counts_the_operation_failed(tmp_path):
    tally = workloads.Tally()
    workload = workloads.ProgramWorkload("fib-stress", "fib", "test", "stress")
    workload.expected_sha[0] = "0" * 64
    workload.profiled(workloads.Measurement(0, str(tmp_path), tally))
    assert tally.failed == 1 and "cube_sha256" in tally.problems[0]


def test_expected_wrapper_without_calls_fails_the_traced_run(tmp_path):
    before = _hooked_attributes()
    workload = workloads.ProgramWorkload(
        "fib-stress", "fib", "test", "stress", hooks=("bots.serial",)
    )
    with pytest.raises(workloads.TraceError, match="bots.serial"):
        workloads.measure(workload, 0, 0.05, str(tmp_path), trace=True)
    assert _hooked_attributes() == before


def test_self_time_excludes_children_spans_and_leaves():
    recorder = SpanRecorder()
    with recorder.op("run") as op_id:
        outer = recorder.open("outer")
        inner = recorder.open("inner")
        recorder.close(inner)
        recorder.leaf("leaf", 0.25)
        recorder.close(outer)
    spans = {span[1]: span for span in recorder.spans}
    outer_span, inner_span = spans["outer"], spans["inner"]
    assert inner_span[4] == outer_span[0]  # parent id
    duration = outer_span[3] - outer_span[2]
    child = inner_span[3] - inner_span[2]
    assert outer_span[6] == pytest.approx(duration - child - 0.25)
    aggregate = recorder.aggregate(op_id)
    assert aggregate["spans"]["leaf"] == [1, 0.25, 0.25]
    assert aggregate["wall"] >= duration


# ----------------------------------------------------------------------
# compare.py on synthetic results
# ----------------------------------------------------------------------
def _result(values, per_layer=None, failed=0):
    metrics = {
        name: {"value": value, "unit": "tasks/s"} for name, value in values.items()
    }
    for name, (value, unit) in (per_layer or {}).items():
        metrics[name] = {"value": value, "unit": unit}
    return {"workloads": {"w": {"metrics": metrics, "failed": failed, "attempted": 10}}}


BOUNDED = {
    "end_to_end": [
        {"name": "tasks_per_s", "unit": "tasks/s", "better": "higher", "bound": 0.05}
    ],
    "per_layer": [
        {"name": "sim.self_s", "unit": "s", "better": "lower"},
        {"name": "sim.schedules", "unit": "count", "better": "lower"},
    ],
}


def _verdict(parent, change):
    rows = compare.end_to_end_rows(
        [_result({"tasks_per_s": v}) for v in parent],
        [_result({"tasks_per_s": v}) for v in change],
        BOUNDED,
    )
    assert len(rows) == 1
    return rows[0]


def test_compare_within_bound_on_identical_distributions():
    row = _verdict([100, 101, 99, 100, 102], [101, 100, 99, 102, 100])
    assert row["verdict"] == "within bound"


def test_compare_regressed_beyond_bound():
    row = _verdict([100, 101, 99, 100, 102], [90, 91, 89, 90, 92])
    assert row["verdict"] == "regressed" and row["win_fraction"] == 0.0


def test_compare_improved_needs_nine_tenths_wins_and_a_gap():
    assert _verdict([100, 101, 99, 100, 102], [110, 111, 109, 110, 112])["verdict"] == "improved"
    # wins 4 of 5 pairs: not enough for a claim
    assert _verdict([100, 101, 99, 100, 102], [110, 111, 109, 110, 98])["verdict"] == "within bound"


def test_compare_unresolved_when_parent_spread_exceeds_bound():
    row = _verdict([80, 120, 100, 90, 110], [85, 115, 100, 95, 105])
    assert row["verdict"] == "unresolved"
    assert _verdict([80, 120, 100, 90, 110], [130, 140, 135, 131, 150])["verdict"] == "improved"


def test_compare_lower_is_better_direction():
    assert compare.verdict([10, 10, 10], [12, 12, 12], "lower", 0.1)[0] == "regressed"
    assert compare.verdict([10, 10, 10], [12, 12, 12], "higher", 0.1)[0] == "improved"


def test_compare_layer_rows_report_time_change_and_exact_counts():
    parent = [_result({"tasks_per_s": 1}, {"sim.self_s": (2.0, "s"), "sim.schedules": (7, "count")})]
    change = [_result({"tasks_per_s": 1}, {"sim.self_s": (1.5, "s"), "sim.schedules": (7, "count")})]
    rows = {r["metric"]: r for r in compare.layer_rows(parent, change, BOUNDED)}
    assert rows["sim.self_s"]["delta"] == pytest.approx(-0.5)
    assert rows["sim.schedules"]["exact"] is True


def test_compare_exits_nonzero_on_regression_or_more_failures(tmp_path):
    spec = tmp_path / "BENCHMARK.json"
    spec.write_text(json.dumps(BOUNDED))

    def files(side, values, failed=0):
        paths = []
        for i, value in enumerate(values):
            path = tmp_path / f"{side}{i}.json"
            path.write_text(json.dumps(_result({"tasks_per_s": value}, failed=failed)))
            paths.append(str(path))
        return paths

    base = files("p", [100, 101, 99])
    args = ["--benchmark", str(spec), "--parent", *base, "--change"]
    assert compare.main(args + files("same", [100, 100, 101])) == 0
    assert compare.main(args + files("slow", [80, 81, 79])) == 1
    assert compare.main(args + files("bad", [100, 100, 101], failed=1)) == 1
    assert compare.main(["--benchmark", str(spec), "--parent", *base]) == 0
