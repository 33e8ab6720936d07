"""The crash-safe journal and the atomic_write helper."""

import json
import os

import pytest

from repro.ioutil import atomic_write
from repro.supervisor.journal import (
    TERMINAL_OUTCOMES,
    Journal,
    load_journal,
)


def _result_payload(outcome="ok", ok=True):
    return {
        "outcome": outcome,
        "ok": ok,
        "status": "complete" if outcome == "ok" else outcome,
        "summary": "s",
        "error": None,
        "duration_s": 0.1,
    }


def test_journal_roundtrip(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = Journal(str(path))
    journal.meta(2)
    journal.start("a", 1)
    journal.result("a", 1, _result_payload())
    journal.start("b", 1)
    journal.result("b", 1, _result_payload("crash", ok=False))
    journal.start("b", 2)
    state = load_journal(str(path))
    assert state.results["a"]["outcome"] == "ok"
    assert state.results["b"]["outcome"] == "crash"
    assert state.attempts == {"a": 1, "b": 2}
    assert state.completed == {"a"}  # crash is not terminal
    assert state.skipped_lines == 0 and not state.interrupted


def test_torn_final_line_is_tolerated(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = Journal(str(path))
    journal.start("a", 1)
    journal.result("a", 1, _result_payload())
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"type":"result","cell":"b","att')  # SIGKILL mid-append
    state = load_journal(str(path))
    assert state.completed == {"a"}
    assert state.skipped_lines == 1
    # A resumed supervisor appends after the tear: the fragment stays one
    # skipped line and the new record is not glued onto it.
    journal.result("c", 1, _result_payload())
    state = load_journal(str(path))
    assert state.completed == {"a", "c"}
    assert state.skipped_lines == 1


def test_interrupt_record_is_replayed(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = Journal(str(path))
    journal.result("a", 1, _result_payload("interrupted", ok=False))
    journal.interrupt(completed=0)
    state = load_journal(str(path))
    assert state.interrupted
    assert state.completed == set()  # interrupted cells re-run on resume


def test_missing_journal_is_empty_state(tmp_path):
    state = load_journal(str(tmp_path / "nope.jsonl"))
    assert state.results == {} and state.attempts == {}


def test_terminal_outcomes_are_the_not_worth_retrying_set():
    assert TERMINAL_OUTCOMES == {
        "ok", "partial", "degraded", "error", "short_circuited"
    }
    # and the retryable/resumable sets never overlap the terminal one
    from repro.supervisor.journal import RESUMABLE_OUTCOMES, RETRYABLE_OUTCOMES

    assert not TERMINAL_OUTCOMES & RETRYABLE_OUTCOMES
    assert not TERMINAL_OUTCOMES & RESUMABLE_OUTCOMES
    assert not RETRYABLE_OUTCOMES & RESUMABLE_OUTCOMES


# ----------------------------------------------------------------------
# atomic_write
# ----------------------------------------------------------------------
def test_atomic_write_creates_and_replaces(tmp_path):
    target = tmp_path / "out" / "profile.json"
    atomic_write(target, '{"v": 1}')
    assert json.loads(target.read_text()) == {"v": 1}
    atomic_write(target, '{"v": 2}')
    assert json.loads(target.read_text()) == {"v": 2}
    # no staging litter left behind
    assert os.listdir(target.parent) == ["profile.json"]


def test_atomic_write_failure_leaves_original_intact(tmp_path, monkeypatch):
    target = tmp_path / "data.json"
    atomic_write(target, "good")

    def explode(_src, _dst):
        raise OSError("disk on fire")

    monkeypatch.setattr(os, "replace", explode)
    with pytest.raises(OSError, match="disk on fire"):
        atomic_write(target, "half-written garbage")
    monkeypatch.undo()
    assert target.read_text() == "good"
    assert os.listdir(tmp_path) == ["data.json"]  # temp file cleaned up


def test_atomic_write_accepts_bytes(tmp_path):
    target = tmp_path / "blob.bin"
    atomic_write(target, b"\x00\x01")
    assert target.read_bytes() == b"\x00\x01"


def test_atomic_write_fsyncs_file_then_rename_then_directory(tmp_path, monkeypatch):
    """Durability order regression test: the *file* is fsync'd before the
    rename (content reaches disk before it becomes visible), and the
    *parent directory* is fsync'd after it (the rename itself survives
    power loss).  Skipping the directory fsync was a real recorder bug
    class: the checkpoint exists in memory-cached metadata but vanishes
    on replay after a crash."""
    import stat

    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def spy_fsync(fd):
        is_dir = stat.S_ISDIR(os.fstat(fd).st_mode)
        calls.append("fsync-dir" if is_dir else "fsync-file")
        return real_fsync(fd)

    def spy_replace(src, dst):
        calls.append("rename")
        return real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", spy_fsync)
    monkeypatch.setattr(os, "replace", spy_replace)
    atomic_write(tmp_path / "checkpoint.json", "{}")
    assert calls == ["fsync-file", "rename", "fsync-dir"]


def test_atomic_write_durable_false_skips_fsync(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(os, "fsync", lambda fd: calls.append("fsync"))
    atomic_write(tmp_path / "scratch.json", "{}", durable=False)
    assert calls == []
    assert (tmp_path / "scratch.json").read_text() == "{}"
