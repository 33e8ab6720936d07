"""Salvage preference order: stream replay > checkpoint > generations."""

import shutil

import pytest

from repro.archive.store import content_hash
from repro.faults.campaign import run_tolerant
from repro.recorder import salvage_recording
from repro.recorder.store import (
    checkpoint_path,
    events_path,
    rotate_generation,
)


@pytest.fixture()
def recorded(tmp_path):
    record_dir = tmp_path / "run"
    outcome = run_tolerant(
        "fib",
        size="test",
        n_threads=2,
        seed=0,
        record_dir=str(record_dir),
        checkpoint_every=32,
        chunk_records=32,  # many sealed chunks: a torn tail loses only the last
    )
    assert outcome.status == "complete"
    return str(record_dir)


def _tear(record_dir, nbytes=40):
    path = events_path(record_dir)
    data = open(path, "rb").read()
    open(path, "wb").write(data[: len(data) - nbytes])


def test_torn_stream_salvages_by_replay(recorded):
    _tear(recorded)
    result = salvage_recording(recorded)
    assert result is not None
    assert result.source == "replay" and result.generation is None
    assert result.records > 0 and result.chunks > 0
    assert not result.complete
    assert result.profile.salvage is not None  # lenient replay marks partial


def test_salvage_is_a_pure_function_of_the_recorded_bytes(recorded):
    """Two salvages of the same prefix produce byte-identical cubes --
    what lets `repro verify --against <salvaged run>` re-derive them."""
    _tear(recorded)
    first = salvage_recording(recorded)
    second = salvage_recording(recorded)
    assert content_hash(first.profile) == content_hash(second.profile)


def test_unreadable_stream_falls_back_to_checkpoint(recorded):
    open(events_path(recorded), "wb").write(b"not a chunk stream")
    result = salvage_recording(recorded)
    assert result is not None
    assert result.source == "checkpoint" and result.generation is None
    assert result.records > 0
    assert any("checkpoint" in note for note in result.notes)


def test_dead_retry_falls_back_to_rotated_generation(recorded):
    # A warm-started retry rotated the good attempt aside, then died so
    # early its own stream holds nothing and it never checkpointed.
    generation = rotate_generation(recorded)
    assert generation == 0
    open(events_path(recorded), "wb").write(b"")
    result = salvage_recording(recorded)
    assert result is not None
    assert result.source == "replay" and result.generation == 0
    assert result.records > 0


def test_generation_checkpoint_is_the_last_resort(recorded):
    generation = rotate_generation(recorded)
    # destroy every stream, keep only the rotated checkpoint
    open(events_path(recorded), "wb").write(b"")
    open(f"{events_path(recorded)}.{generation}", "wb").write(b"garbage")
    result = salvage_recording(recorded)
    assert result is not None
    assert result.source == "checkpoint" and result.generation == 0


def test_nothing_recoverable_returns_none(tmp_path):
    assert salvage_recording(str(tmp_path)) is None
    shutil.rmtree(tmp_path)
    assert salvage_recording(str(tmp_path)) is None


def test_describe_is_json_able(recorded):
    import json

    _tear(recorded)
    info = salvage_recording(recorded).describe()
    assert json.loads(json.dumps(info)) == info
    assert info["source"] == "replay"
