"""Replay determinism and byte-identical verification."""

import pytest

from repro.archive.store import content_hash
from repro.cube.export import profile_to_dict
from repro.errors import RecordingError, ReplayDivergence
from repro.faults.campaign import run_tolerant
from repro.governor import MemoryBudget
from repro.recorder import (
    diff_profile_dicts,
    rebuild_profile,
    replay_recording,
    verify_recording,
)
from repro.recorder.chunks import read_records
from repro.recorder.store import events_path, load_manifest
from repro.substrates import RecorderSubstrate

from tests.recorder.streams import random_records


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    record_dir = tmp_path_factory.mktemp("rec") / "run"
    outcome = run_tolerant(
        "fib", size="test", n_threads=2, seed=0,
        record_dir=str(record_dir), checkpoint_every=32, chunk_records=32,
    )
    assert outcome.status == "complete"
    return str(record_dir), outcome


# ----------------------------------------------------------------------
# Clean-run byte identity (the acceptance criterion)
# ----------------------------------------------------------------------
def test_replay_reproduces_live_cube_byte_identically(recorded):
    record_dir, outcome = recorded
    profile, stream = replay_recording(record_dir)
    assert stream.complete
    assert content_hash(profile) == content_hash(outcome.profile)
    assert profile_to_dict(profile) == profile_to_dict(outcome.profile)


def test_replay_is_deterministic(recorded):
    record_dir, _ = recorded
    first, _ = replay_recording(record_dir)
    second, _ = replay_recording(record_dir)
    assert content_hash(first) == content_hash(second)


def test_verify_matches_manifest_expectation(recorded):
    record_dir, _ = recorded
    report = verify_recording(record_dir)
    assert report.usable and report.matched
    assert report.exit_code == 0
    assert report.strict and report.complete
    assert report.expected_sha == load_manifest(record_dir)["live_sha256"]
    assert report.actual_sha == report.expected_sha


def test_recorder_passed_as_a_substrate_gets_a_verification_target(tmp_path):
    record_dir = str(tmp_path / "run")
    outcome = run_tolerant(
        "fib", size="test", n_threads=2, seed=0,
        substrates=[RecorderSubstrate(record_dir)],
    )
    assert outcome.status == "complete"
    assert load_manifest(record_dir)["live_sha256"] == content_hash(outcome.profile)
    report = verify_recording(record_dir)
    assert report.matched and report.exit_code == 0


def test_verify_against_explicit_dict(recorded):
    record_dir, outcome = recorded
    report = verify_recording(
        record_dir, expected_dict=profile_to_dict(outcome.profile)
    )
    assert report.matched and report.exit_code == 0


# ----------------------------------------------------------------------
# Divergence surfaces as a structured report
# ----------------------------------------------------------------------
def test_wrong_expectation_is_a_divergence(recorded):
    record_dir, _ = recorded
    report = verify_recording(record_dir, expected_sha="0" * 64)
    assert report.usable and not report.matched
    assert report.exit_code == 1
    assert any("does not reproduce" in reason for reason in report.reasons)


def test_divergence_can_raise_with_report_attached(recorded):
    record_dir, _ = recorded
    with pytest.raises(ReplayDivergence) as excinfo:
        verify_recording(record_dir, expected_sha="0" * 64,
                         raise_on_divergence=True)
    assert excinfo.value.report.exit_code == 1


def test_divergence_against_dict_lists_differences(recorded):
    record_dir, outcome = recorded
    expected = profile_to_dict(outcome.profile)
    expected["n_threads"] = 99
    report = verify_recording(record_dir, expected_dict=expected)
    assert not report.matched
    assert any("n_threads" in diff for diff in report.differences)


def test_torn_tail_verifies_leniently_and_diverges_from_live(recorded, tmp_path):
    import shutil

    record_dir, _ = recorded
    torn_dir = tmp_path / "torn"
    shutil.copytree(record_dir, torn_dir)
    path = events_path(str(torn_dir))
    data = open(path, "rb").read()
    open(path, "wb").write(data[: len(data) - 40])  # tear off FIN chunk
    report = verify_recording(str(torn_dir))
    assert report.usable and not report.complete and not report.strict
    assert report.exit_code == 1  # partial prefix cannot equal the full cube


# ----------------------------------------------------------------------
# Unusable recordings
# ----------------------------------------------------------------------
def test_empty_dir_is_unusable(tmp_path):
    report = verify_recording(str(tmp_path))
    assert not report.usable and report.exit_code == 2


def test_no_expectation_is_unusable(tmp_path):
    from repro.recorder.chunks import ChunkWriter

    tmp_path.mkdir(exist_ok=True)
    writer = ChunkWriter(events_path(str(tmp_path)), chunk_records=8)
    for record in random_records(0, 20, with_fin=False):
        writer.append(record)
    writer.close(finish_time=50.0)
    report = verify_recording(str(tmp_path))  # no manifest, no --against
    assert not report.usable and report.exit_code == 2
    assert any("no expectation" in reason for reason in report.reasons)


def test_strict_replay_requires_fin(recorded, tmp_path):
    record_dir, _ = recorded
    stream = read_records(events_path(record_dir))
    no_fin = [r for r in stream.records if r[0] != "fin"]
    with pytest.raises(RecordingError):
        rebuild_profile(no_fin, strict=True)
    partial = rebuild_profile(no_fin, strict=False)
    assert partial is not None


def test_replay_recording_raises_on_empty_stream(tmp_path):
    with pytest.raises(RecordingError):
        replay_recording(str(tmp_path))


# ----------------------------------------------------------------------
# diff helper
# ----------------------------------------------------------------------
def test_diff_profile_dicts_is_bounded():
    a = {"k": list(range(40))}
    b = {"k": [v + 1 for v in range(40)]}
    diffs = diff_profile_dicts(a, b, limit=5)
    assert len(diffs) == 6  # 5 entries + truncation marker
    assert diffs[-1].startswith("...")


def test_diff_profile_dicts_names_missing_keys():
    diffs = diff_profile_dicts({"only_live": 1}, {"only_replay": 2})
    assert any("missing in live" in d for d in diffs)
    assert any("missing in replayed" in d for d in diffs)


@pytest.mark.parametrize("budget,level", [(4, 3), (6, 3), (8, 3), (10, 2), (16, 1)])
def test_governed_recording_off_l0_is_unusable(tmp_path, budget, level):
    # Even L1, which leaves the call trees alone, stamps pressure
    # incidents into the live cube that a replay cannot reproduce.
    record_dir = str(tmp_path / "rec")
    outcome = run_tolerant(
        "fib", size="test", n_threads=2, seed=0,
        record_dir=record_dir, memory_budget=MemoryBudget(max_live_instances=budget),
    )
    assert outcome.status == "complete"
    assert outcome.governor_report["level"] == level
    assert load_manifest(record_dir)["governor_level"] == level
    for report in (
        verify_recording(record_dir),
        verify_recording(record_dir, expected_dict=profile_to_dict(outcome.profile)),
    ):
        assert report.exit_code == 2
        assert not report.usable
        assert f"resource governor (ladder level L{level} " in report.reasons[-1]


def test_l0_governed_recording_still_matches(tmp_path):
    record_dir = str(tmp_path / "rec")
    run_tolerant(
        "fib", size="test", n_threads=2, seed=0,
        record_dir=record_dir, memory_budget=MemoryBudget(max_live_instances=100),
    )
    report = verify_recording(record_dir)
    assert report.exit_code == 0 and report.matched
