"""The recording substrate end-to-end: manifests, checkpoints, warm starts."""

import json
import os

import pytest

from repro.faults.campaign import run_tolerant
from repro.recorder.store import (
    checkpoint_path,
    events_path,
    generation_events_path,
    list_generations,
    load_checkpoint,
    load_manifest,
    rotate_generation,
    update_manifest,
    write_manifest,
)
from repro.recorder.chunks import read_records


def _record_run(record_dir, *, seed=0, checkpoint_every=32):
    return run_tolerant(
        "fib",
        size="test",
        n_threads=2,
        seed=seed,
        record_dir=str(record_dir),
        checkpoint_every=checkpoint_every,
    )


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    record_dir = tmp_path_factory.mktemp("rec") / "run"
    outcome = _record_run(record_dir)
    return record_dir, outcome


# ----------------------------------------------------------------------
# Clean run artifacts
# ----------------------------------------------------------------------
def test_clean_run_seals_a_complete_stream(recorded):
    record_dir, outcome = recorded
    assert outcome.status == "complete"
    stream = read_records(events_path(str(record_dir)))
    assert stream.complete and not stream.torn_bytes
    assert stream.records[0][0] == "init"
    assert stream.records[-1][0] == "fin"


def test_manifest_records_identity_and_live_sha(recorded):
    record_dir, outcome = recorded
    manifest = load_manifest(str(record_dir))
    assert manifest["complete"] is True
    assert manifest["n_threads"] == 2
    assert manifest["records"] > 0 and manifest["chunks"] > 0
    # the tolerant runner stamps the live cube's content hash for verify
    from repro.archive.store import content_hash

    assert manifest["live_sha256"] == content_hash(outcome.profile)


def test_checkpoints_written_with_cursor_and_cube_partial(recorded):
    record_dir, _ = recorded
    checkpoint = load_checkpoint(str(record_dir))
    assert checkpoint is not None
    assert checkpoint["records"] >= 32  # checkpoint_every fired at least once
    cursor = checkpoint["cursor"]
    # cursor counts sealed wire records (incl. the deferred init record),
    # checkpoint["records"] counts dispatched events
    assert 0 < cursor["records"] <= checkpoint["records"] + 1
    assert cursor["chunks"] > 0
    profile = checkpoint["profile"]
    assert profile is not None and profile["regions"]


def test_checkpoint_cursor_points_inside_the_sealed_prefix(recorded):
    record_dir, _ = recorded
    checkpoint = load_checkpoint(str(record_dir))
    stream = read_records(events_path(str(record_dir)))
    assert checkpoint["cursor"]["chunks"] <= stream.chunks
    assert checkpoint["cursor"]["records"] <= len(stream.records)


# ----------------------------------------------------------------------
# Warm start (retry into the same record_dir)
# ----------------------------------------------------------------------
def test_second_attempt_rotates_a_generation(tmp_path):
    record_dir = tmp_path / "run"
    _record_run(record_dir, seed=0)
    first_stream = read_records(events_path(str(record_dir)))
    _record_run(record_dir, seed=0)

    assert list_generations(str(record_dir)) == [0]
    rotated = read_records(generation_events_path(str(record_dir), 0))
    assert len(rotated.records) == len(first_stream.records)
    # the rotated checkpoint travelled with its stream
    assert os.path.exists(checkpoint_path(str(record_dir)) + ".0")
    manifest = load_manifest(str(record_dir))
    assert manifest["warm_start"]["generation"] == 0
    assert manifest["warm_start"]["cursor"]["records"] > 0
    # and the current attempt is itself complete + verifiable
    assert read_records(events_path(str(record_dir))).complete


# ----------------------------------------------------------------------
# Store primitives
# ----------------------------------------------------------------------
def test_rotate_generation_moves_stream_and_checkpoint_together(tmp_path):
    d = str(tmp_path)
    assert rotate_generation(d) is None  # nothing to rotate
    open(events_path(d), "wb").write(b"stream")
    open(checkpoint_path(d), "w").write("{}")
    assert rotate_generation(d) == 0
    assert not os.path.exists(events_path(d))
    assert not os.path.exists(checkpoint_path(d))
    assert os.path.exists(generation_events_path(d, 0))
    assert os.path.exists(checkpoint_path(d) + ".0")
    open(events_path(d), "wb").write(b"stream2")
    assert rotate_generation(d) == 1


def test_update_manifest_merges_or_noops(tmp_path):
    d = str(tmp_path)
    assert update_manifest(d, live_sha256="x") is None  # no manifest yet
    write_manifest(d, {"complete": False})
    merged = update_manifest(d, live_sha256="abc")
    assert merged["live_sha256"] == "abc" and merged["complete"] is False
    assert load_manifest(d)["live_sha256"] == "abc"


def test_stale_checkpoint_version_is_ignored(tmp_path):
    from repro.ioutil import atomic_write

    atomic_write(checkpoint_path(str(tmp_path)), '{"version": 99, "records": 5}')
    assert load_checkpoint(str(tmp_path)) is None


# ----------------------------------------------------------------------
# Checkpoint consistency: profile, time and cursor name one event prefix
# ----------------------------------------------------------------------
def _record_profiling_first(record_dir, checkpoint_every):
    from repro.analysis.experiment import run_app
    from repro.substrates.recorder import RecorderSubstrate

    run_app(
        "fib", size="small", variant="stress", n_threads=4, seed=0,
        substrates=(
            "profiling",
            RecorderSubstrate(record_dir, checkpoint_every=checkpoint_every),
        ),
    )


def _record_recorder_first(record_dir, checkpoint_every):
    run_tolerant(
        "fib", size="small", n_threads=4, seed=0,
        record_dir=record_dir, checkpoint_every=checkpoint_every,
    )


def _without_salvage(profile_dict):
    data = json.loads(json.dumps(profile_dict))
    data.pop("salvage", None)
    return data


@pytest.mark.parametrize("checkpoint_every", [500, 2000])
@pytest.mark.parametrize(
    "record", [_record_profiling_first, _record_recorder_first],
    ids=["profiling-first", "recorder-first"],
)
def test_checkpoint_profile_is_the_rebuild_of_its_prefix(tmp_path, record, checkpoint_every):
    """The snapshot equals a lenient rebuild of exactly the records its
    cursor names, finished at its ``time``, whatever the substrate order."""
    from repro.cube.export import profile_to_dict
    from repro.recorder import rebuild_profile

    record_dir = str(tmp_path / "rec")
    record(record_dir, checkpoint_every)
    checkpoint = load_checkpoint(record_dir)
    cursor = checkpoint["cursor"]["records"]
    prefix = read_records(events_path(record_dir)).records[:cursor]
    assert cursor == checkpoint["records"] + 1  # the init record
    timed = [r for r in prefix if r[0] not in ("init", "phase_begin", "phase_end")]
    assert checkpoint["time"] == timed[-1][2]  # the prefix's last event time
    rebuilt = rebuild_profile(prefix, strict=False, finish_time=checkpoint["time"])
    assert _without_salvage(checkpoint["profile"]) == _without_salvage(
        profile_to_dict(rebuilt)
    )


def test_checkpoints_fire_once_per_batch_at_the_cadence(tmp_path, monkeypatch):
    from repro.governor import MemoryBudget
    from repro.substrates.recorder import RecorderSubstrate

    boundaries, taken = [], []
    after_batch = RecorderSubstrate.after_batch
    checkpoint = RecorderSubstrate._checkpoint

    def spy_after_batch(self, batch):
        boundaries.append(self.records)
        after_batch(self, batch)

    def spy_checkpoint(self, time):
        taken.append(self.records)
        checkpoint(self, time)

    monkeypatch.setattr(RecorderSubstrate, "after_batch", spy_after_batch)
    monkeypatch.setattr(RecorderSubstrate, "_checkpoint", spy_checkpoint)
    run_tolerant(
        "fib", size="small", n_threads=4, seed=0, record_dir=str(tmp_path / "rec"),
        checkpoint_every=2000, memory_budget=MemoryBudget(max_live_instances=8),
    )
    assert taken and set(taken) <= set(boundaries)
    # the first boundary at or past each multiple of the cadence
    expected, mark = [], 2000
    for records in boundaries:
        if records >= mark:
            expected.append(records)
            mark = (records // 2000 + 1) * 2000
    assert taken == expected
    assert load_checkpoint(str(tmp_path / "rec"))["records"] == taken[-1]


def test_governed_checkpoints_pickle_the_profiler(tmp_path, monkeypatch):
    """A governed profiler's snapshot clone leaves the governor behind
    instead of falling back to a deep copy."""
    import copy

    from repro.governor import MemoryBudget

    def no_deepcopy(*args, **kwargs):
        raise AssertionError("checkpoint deep-copied the profiler")

    monkeypatch.setattr(copy, "deepcopy", no_deepcopy)
    record_dir = str(tmp_path / "rec")
    run_tolerant(
        "fib", size="small", n_threads=4, seed=0, record_dir=record_dir,
        checkpoint_every=500, memory_budget=MemoryBudget(max_live_instances=10**6),
    )
    manifest = load_manifest(record_dir)
    assert manifest["checkpoints"] > 0
    assert manifest["checkpoint_errors"] == 0
