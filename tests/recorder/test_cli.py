"""CLI surface: `run --record`, `repro replay`, `repro verify`."""

import json

import pytest

from repro.cli import main
from repro.recorder.store import events_path, load_manifest, write_manifest


@pytest.fixture()
def recorded(tmp_path, capsys):
    record_dir = tmp_path / "rec"
    code = main(
        ["run", "fib", "--size", "test", "--threads", "2",
         "--record", str(record_dir), "--checkpoint-every", "32"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "recorded" in out and "chunk(s)" in out
    return record_dir


def _tear(record_dir, nbytes=20):
    """Cut into the last chunk (FIN): the sealed prefix before it stays."""
    path = events_path(str(record_dir))
    data = open(path, "rb").read()
    open(path, "wb").write(data[: len(data) - nbytes])


# ----------------------------------------------------------------------
# run --record
# ----------------------------------------------------------------------
def test_run_record_stamps_live_sha(recorded):
    manifest = load_manifest(str(recorded))
    assert manifest["complete"] is True
    assert len(manifest["live_sha256"]) == 64


def test_run_record_refuses_no_instrument(tmp_path, capsys):
    code = main(
        ["run", "fib", "--size", "test", "--no-instrument",
         "--record", str(tmp_path / "rec")]
    )
    assert code == 2
    assert "--record needs the profiler" in capsys.readouterr().err


def test_tolerant_run_records_too(tmp_path, capsys):
    record_dir = tmp_path / "rec"
    code = main(
        ["run", "fib", "--size", "test", "--threads", "2",
         "--tolerate-errors", "--record", str(record_dir)]
    )
    assert code == 0
    assert "recording:" in capsys.readouterr().out
    assert main(["verify", str(record_dir)]) == 0


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
def test_replay_renders_and_exports(recorded, tmp_path, capsys):
    out_json = tmp_path / "replayed.json"
    code = main(
        ["replay", str(recorded), "--render", "--json", str(out_json)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "stream complete" in out
    data = json.loads(out_json.read_text())
    assert data["regions"]


def test_replay_strict_fails_on_torn_stream(recorded, capsys):
    _tear(recorded)
    assert main(["replay", str(recorded), "--strict"]) == 2
    assert "RecordingError" in capsys.readouterr().err


def test_replay_lenient_salvages_torn_stream(recorded, capsys):
    _tear(recorded)
    assert main(["replay", str(recorded)]) == 0
    out = capsys.readouterr().out
    assert "partial" in out


def test_replay_empty_dir_fails_cleanly(tmp_path, capsys):
    assert main(["replay", str(tmp_path)]) == 2
    assert "repro:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------
def test_verify_clean_run_matches(recorded, capsys):
    assert main(["verify", str(recorded)]) == 0
    assert "MATCH" in capsys.readouterr().out


def test_verify_torn_run_diverges(recorded, capsys):
    _tear(recorded)
    assert main(["verify", str(recorded)]) == 1
    assert "DIVERGED" in capsys.readouterr().out


def test_verify_json_report(recorded, capsys):
    assert main(["verify", str(recorded), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["matched"] is True and report["exit_code"] == 0


def test_verify_unusable_dir(tmp_path, capsys):
    assert main(["verify", str(tmp_path)]) == 2
    assert "UNUSABLE" in capsys.readouterr().out


def test_verify_against_requires_archive(recorded, capsys):
    assert main(["verify", str(recorded), "--against", "r0001"]) == 2
    assert "--archive" in capsys.readouterr().err


def test_verify_against_archived_run(tmp_path, capsys):
    record_dir, arch = tmp_path / "rec", tmp_path / "arch"
    assert main(
        ["run", "fib", "--size", "test", "--threads", "2",
         "--record", str(record_dir), "--archive", str(arch)]
    ) == 0
    capsys.readouterr()
    assert main(
        ["verify", str(record_dir), "--against", "r0001",
         "--archive", str(arch)]
    ) == 0
    assert "MATCH" in capsys.readouterr().out
    # a different run's cube is a divergence, not a crash
    assert main(
        ["run", "fib", "--size", "test", "--threads", "3",
         "--archive", str(arch)]
    ) == 0
    capsys.readouterr()
    assert main(
        ["verify", str(record_dir), "--against", "r0002",
         "--archive", str(arch)]
    ) == 1


def test_verify_against_unknown_ref(recorded, tmp_path, capsys):
    code = main(
        ["verify", str(recorded), "--against", "r9999",
         "--archive", str(tmp_path / "empty-arch")]
    )
    assert code == 2
    assert "repro:" in capsys.readouterr().err


def test_verify_governed_recording_is_unusable(tmp_path, capsys):
    # A budget of 4 walks fib's ladder to L3: the live cube is degraded,
    # the replay rebuilds a full one, so the recording cannot verify it.
    # That is an unusable recording (exit 2), not silent corruption (1).
    record_dir, arch = tmp_path / "rec", tmp_path / "arch"
    assert main(
        ["run", "fib", "--size", "test", "--threads", "2",
         "--memory-budget", "4", "--record", str(record_dir),
         "--archive", str(arch)]
    ) == 0
    capsys.readouterr()
    assert main(["verify", str(record_dir)]) == 2
    out = capsys.readouterr().out
    assert "UNUSABLE" in out and "DIVERGED" not in out
    assert "resource governor (ladder level L3 stub-only)" in out
    # --against reads the level off the archived cube, even when the
    # manifest does not carry it
    manifest = load_manifest(str(record_dir))
    del manifest["governor_level"]
    write_manifest(str(record_dir), manifest)
    assert main(
        ["verify", str(record_dir), "--against", "r0001",
         "--archive", str(arch)]
    ) == 2
    assert "resource governor (ladder level L3" in capsys.readouterr().out


def test_verify_l0_governed_recording_matches(tmp_path, capsys):
    record_dir = tmp_path / "rec"
    assert main(
        ["run", "fib", "--size", "test", "--threads", "2",
         "--memory-budget", "100", "--record", str(record_dir)]
    ) == 0
    capsys.readouterr()
    assert "governor_level" not in load_manifest(str(record_dir))
    assert main(["verify", str(record_dir)]) == 0
    assert "MATCH" in capsys.readouterr().out
