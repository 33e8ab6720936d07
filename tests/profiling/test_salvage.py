"""Lenient (salvage-mode) TaskProfiler and the SalvageReport ledger."""

import pytest

from repro.errors import ProfileError
from repro.events import RegionRegistry, RegionType
from repro.events.batch import EventBatch
from repro.profiling import SalvageReport, TaskProfiler


@pytest.fixture()
def reg():
    return RegionRegistry()


@pytest.fixture()
def regions(reg):
    return {
        "impl": reg.register("parallel@x", RegionType.IMPLICIT_TASK),
        "A": reg.register("taskA", RegionType.TASK),
        "foo": reg.register("foo", RegionType.FUNCTION),
    }


def test_strict_profiler_rejects_end_for_unknown_instance(reg, regions):
    profiler = TaskProfiler(1, regions["impl"])
    assert profiler.salvage is None
    batch = EventBatch(reg)
    batch.add_task_end(0, regions["A"], 7, 1.0)
    with pytest.raises(ProfileError, match="unknown instance 7"):
        profiler.on_batch(batch)


def test_lenient_profiler_quarantines_instead(reg, regions):
    profiler = TaskProfiler(1, regions["impl"], strict=False)
    batch = EventBatch(reg)
    batch.add_task_end(0, regions["A"], 7, 1.0)
    profiler.on_batch(batch)  # no raise
    profiler.on_finish(2.0)
    report = profiler.salvage
    assert report.partial
    assert report.events_dropped == 1
    assert 7 in report.instances_quarantined
    assert profiler.build_profile().is_partial


def test_clean_lifecycle_counts_completed_instances(reg, regions):
    profiler = TaskProfiler(1, regions["impl"], strict=False)
    batch = EventBatch(reg)
    batch.add_task_begin(0, regions["A"], 1, 1.0)
    batch.add_task_end(0, regions["A"], 1, 2.0)
    profiler.on_batch(batch)
    profiler.on_finish(3.0)
    report = profiler.salvage
    assert report.instances_completed == 1
    assert report.events_seen == 2  # begin + end; finish is not an event
    # a lenient profiler over clean input is indistinguishable from strict
    assert not report.partial
    assert not profiler.build_profile().is_partial


def test_unfinished_instance_is_quarantined_at_finish(reg, regions):
    profiler = TaskProfiler(1, regions["impl"], strict=False)
    batch = EventBatch(reg)
    batch.add_task_begin(0, regions["A"], 1, 1.0)
    batch.add_enter(0, regions["foo"], 1.5)
    profiler.on_batch(batch)
    profiler.on_finish(2.0)
    report = profiler.salvage
    assert 1 in report.instances_quarantined
    assert any("still active at end of measurement" in n for n in report.notes)
    assert profiler.build_profile().is_partial


def test_lenient_switch_to_unknown_instance_is_dropped(reg, regions):
    profiler = TaskProfiler(1, regions["impl"], strict=False)
    batch = EventBatch(reg)
    batch.add_task_switch(0, 42, 1.0)
    profiler.on_batch(batch)  # strict would raise
    profiler.on_finish(2.0)
    assert profiler.salvage.events_dropped == 1
    assert profiler.salvage.partial


def test_salvage_report_roundtrip_and_summary():
    report = SalvageReport(events_seen=10, events_dropped=2, instances_completed=3)
    report.quarantine(5, "unrecoverable")
    data = report.to_dict()
    assert data["partial"] is True
    clone = SalvageReport.from_dict(data)
    assert clone.events_dropped == 2
    assert clone.instances_quarantined == {5}
    assert "quarantined instance 5: unrecoverable" in clone.notes
    assert "partial profile" in clone.summary()
    assert SalvageReport().summary() == "profile complete: no salvage needed"


def test_salvage_finish_closes_a_strict_profiler_mid_run(reg, regions):
    # The lenient finish is public and works on a live strict profiler:
    # in-flight instances are quarantined, open regions force-closed.
    profiler = TaskProfiler(1, regions["impl"])
    batch = EventBatch(reg)
    batch.add_enter(0, regions["foo"], 0.5)
    batch.add_task_begin(0, regions["A"], 1, 1.0)
    profiler.on_batch(batch)
    profiler.salvage_finish(2.0)
    assert profiler.finished and not profiler.instance_table
    assert profiler.salvage.instances_quarantined == {1}
    assert profiler.build_profile().is_partial


def test_lenient_profiler_cannot_be_governed(regions):
    from repro.governor import MemoryBudget, ResourceGovernor

    governor = ResourceGovernor(MemoryBudget(max_live_instances=4))
    with pytest.raises(ValueError, match="cannot be governed"):
        TaskProfiler(1, regions["impl"], strict=False, governor=governor)
    TaskProfiler(1, regions["impl"], governor=governor)  # strict + governed is fine

