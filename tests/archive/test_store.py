"""Tests for the content-addressed store and its index."""

import gzip
import json
import os

import pytest

from repro.analysis import run_app
from repro.archive import (
    ArchiveStore,
    canonical_profile_bytes,
    content_hash,
    meta_for_result,
)
from repro.errors import ArchiveError


@pytest.fixture(scope="module")
def fib_result():
    return run_app("fib", size="test", variant="optimized", n_threads=2, seed=0)


@pytest.fixture(scope="module")
def stress_result():
    return run_app("fib", size="test", variant="stress", n_threads=2, seed=0)


def _put(store, result, **kwargs):
    kwargs.setdefault("variant", "optimized")
    meta = meta_for_result(result, size="test", **kwargs)
    return store.put(result.profile, meta)


# ----------------------------------------------------------------------
# Content addressing
# ----------------------------------------------------------------------
def test_put_same_content_deduplicates(tmp_path, fib_result):
    store = ArchiveStore(tmp_path / "arch")
    first = _put(store, fib_result)
    second = _put(store, fib_result)
    assert first.sha256 == second.sha256
    assert not first.deduplicated
    assert second.deduplicated
    assert first.run_id == "r0001" and second.run_id == "r0002"
    # exactly one object on disk backs both run records
    objects = [
        name
        for _, _, names in os.walk(tmp_path / "arch" / "objects")
        for name in names
    ]
    assert objects == [first.sha256 + ".json.gz"]


def test_object_bytes_are_pure_function_of_content(tmp_path, fib_result):
    a = ArchiveStore(tmp_path / "a")
    b = ArchiveStore(tmp_path / "b")
    sha_a, _ = a.put_object(fib_result.profile)
    sha_b, _ = b.put_object(fib_result.profile)
    assert sha_a == sha_b
    with open(a.object_path(sha_a), "rb") as fa, open(b.object_path(sha_b), "rb") as fb:
        assert fa.read() == fb.read()  # gzip mtime is zeroed


def test_different_profiles_get_different_hashes(fib_result, stress_result):
    assert content_hash(fib_result.profile) != content_hash(stress_result.profile)


def test_load_round_trips_profile(tmp_path, fib_result):
    store = ArchiveStore(tmp_path / "arch")
    record = _put(store, fib_result)
    loaded = store.load_profile(record.run_id)
    assert canonical_profile_bytes(loaded) == canonical_profile_bytes(
        fib_result.profile
    )


# ----------------------------------------------------------------------
# Corruption and lookup failures
# ----------------------------------------------------------------------
def test_load_missing_object_raises(tmp_path, fib_result):
    store = ArchiveStore(tmp_path / "arch")
    record = _put(store, fib_result)
    os.unlink(store.object_path(record.sha256))
    with pytest.raises(ArchiveError, match="missing"):
        store.load_profile(record.run_id)


def test_load_detects_on_disk_corruption(tmp_path, fib_result):
    store = ArchiveStore(tmp_path / "arch")
    record = _put(store, fib_result)
    tampered = json.loads(canonical_profile_bytes(fib_result.profile))
    tampered["n_threads"] = 99
    blob = gzip.compress(
        json.dumps(tampered, sort_keys=True, separators=(",", ":")).encode(), mtime=0
    )
    with open(store.object_path(record.sha256), "wb") as handle:
        handle.write(blob)
    with pytest.raises(ArchiveError, match="verification"):
        store.load_object(record.sha256)


def test_load_rejects_non_gzip_object(tmp_path, fib_result):
    store = ArchiveStore(tmp_path / "arch")
    record = _put(store, fib_result)
    with open(store.object_path(record.sha256), "wb") as handle:
        handle.write(b"not gzip at all")
    with pytest.raises(ArchiveError, match="gzip"):
        store.load_object(record.sha256)


def test_get_record_by_id_and_hash_prefix(tmp_path, fib_result):
    store = ArchiveStore(tmp_path / "arch")
    record = _put(store, fib_result)
    assert store.get_record("r0001").sha256 == record.sha256
    assert store.get_record(record.sha256[:8]).run_id == record.run_id
    with pytest.raises(ArchiveError, match="recent run ids"):
        store.get_record("r9999")


def test_records_tolerate_torn_index_lines(tmp_path, fib_result):
    store = ArchiveStore(tmp_path / "arch")
    _put(store, fib_result)
    with open(store.index_path, "a", encoding="utf-8") as handle:
        handle.write("garbage line\n")
        handle.write('{"type":"run","run_id":"r00')  # torn mid-write
    _put(store, fib_result)
    records = store.records()
    assert [r.run_id for r in records] == ["r0001", "r0002"]
    assert store.index.read()[1] == 2  # the garbage and the sealed fragment


# ----------------------------------------------------------------------
# Tags
# ----------------------------------------------------------------------
def test_tag_appends_and_folds(tmp_path, fib_result):
    store = ArchiveStore(tmp_path / "arch")
    record = _put(store, fib_result, tags=("nightly",))
    store.tag(record.run_id, "baseline")
    store.tag(record.run_id, "baseline")  # idempotent
    tags = store.records()[0].tags
    assert tags == ["nightly", "baseline"]
    with pytest.raises(ArchiveError):
        store.tag(record.run_id, "")


# ----------------------------------------------------------------------
# Garbage collection
# ----------------------------------------------------------------------
def test_gc_keeps_newest_per_group_and_deletes_objects(
    tmp_path, fib_result, stress_result
):
    store = ArchiveStore(tmp_path / "arch")
    for _ in range(3):
        _put(store, fib_result)  # all dedup to one object
    other = _put(store, stress_result, variant="stress")
    stats = store.gc(keep_last=1)
    assert stats.runs_dropped == 2
    remaining = store.records()
    # one fib run and the stress run survive (different group keys)
    assert {r.meta.variant for r in remaining} == {"optimized", "stress"}
    assert store.has_object(other.sha256)


def test_gc_removes_unreferenced_orphan_objects(tmp_path, fib_result, stress_result):
    store = ArchiveStore(tmp_path / "arch")
    _put(store, fib_result)
    orphan_sha, _ = store.put_object(stress_result.profile)  # no index record
    stats = store.gc()
    assert stats.objects_deleted == 1
    assert stats.bytes_freed > 0
    assert not store.has_object(orphan_sha)


def test_gc_rejects_nonpositive_keep(tmp_path):
    with pytest.raises(ArchiveError, match="keep_last"):
        ArchiveStore(tmp_path / "arch").gc(keep_last=0)


def test_gc_never_reuses_pruned_run_ids(tmp_path, fib_result, stress_result):
    # Regression: ids used to be derived from the surviving-record count,
    # so puts after a gc collided with (and silently shadowed) kept runs.
    store = ArchiveStore(tmp_path / "arch")
    for _ in range(3):
        _put(store, fib_result)  # r0001..r0003
    _put(store, stress_result, variant="stress")  # r0004
    store.gc(keep_last=1)  # keeps r0003 + r0004
    assert _put(store, fib_result).run_id == "r0005"
    assert _put(store, fib_result).run_id == "r0006"
    assert [r.run_id for r in store.records()] == [
        "r0003", "r0004", "r0005", "r0006",
    ]
    # the high-water mark survives a second prune as well
    store.gc(keep_last=1)
    assert _put(store, fib_result).run_id == "r0007"


def test_gc_survives_failing_unlink_with_consistent_index(
    tmp_path, fib_result, stress_result, monkeypatch
):
    # Fault injection: the filesystem refuses deletions mid-prune
    # (ENOSPC-style OSError).  The index -- rewritten, counter record
    # first, *before* any object is deleted -- must stay consistent:
    # surviving records loadable, pruned ids never reused, and the
    # undeleted garbage re-collectable by a later healthy gc.
    store = ArchiveStore(tmp_path / "arch")
    for _ in range(3):
        _put(store, fib_result)  # r0001..r0003, one shared object
    orphan_sha, _ = store.put_object(stress_result.profile)

    real_unlink = os.unlink

    def failing_unlink(path, *args, **kwargs):
        if str(path).endswith(".json.gz"):
            raise OSError(28, "No space left on device", str(path))
        return real_unlink(path, *args, **kwargs)

    monkeypatch.setattr(os, "unlink", failing_unlink)
    stats = store.gc(keep_last=1)
    monkeypatch.setattr(os, "unlink", real_unlink)

    assert stats.runs_dropped == 2
    assert stats.objects_deleted == 0
    assert stats.bytes_freed == 0  # only what was actually unlinked counts
    assert stats.objects_failed == 1  # the orphan we could not remove
    # index is consistent: the surviving record still has its object...
    (record,) = store.records()
    assert record.run_id == "r0003"
    store.load_object(record.sha256)
    # ...and the id high-water counter was written before deletion, so
    # pruned ids are still never handed out again.
    assert _put(store, fib_result).run_id == "r0004"
    # the stranded orphan is garbage a later healthy gc re-collects
    assert store.has_object(orphan_sha)
    retry = store.gc()
    assert retry.objects_deleted == 1 and retry.objects_failed == 0
    assert not store.has_object(orphan_sha)


def test_concurrent_put_and_gc_keep_records_loadable(
    tmp_path, fib_result, stress_result
):
    # put() writes object + index record under the same lock gc holds,
    # so gc can never delete a fresh object as an orphan mid-put.
    import threading

    store = ArchiveStore(tmp_path / "arch")
    _put(store, fib_result)
    failures = []

    def putter():
        try:
            for _ in range(5):
                _put(store, stress_result, variant="stress")
        except Exception as exc:  # pragma: no cover - failure path
            failures.append(exc)

    def collector():
        try:
            for _ in range(5):
                store.gc(keep_last=1)
        except Exception as exc:  # pragma: no cover - failure path
            failures.append(exc)

    threads = [threading.Thread(target=putter), threading.Thread(target=collector)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures
    records = store.records()
    assert records
    for record in records:  # every surviving record's blob must load
        store.load_object(record.sha256)
