"""Crash-consistency harness for the profile archive.

The store promises that a kill -9 at any instruction leaves it
loadable: objects go through atomic temp-file renames and each index
append is one fsync'd write, so the only legal residue of a crash is
an *orphan object* (the object rename landed, the index append did
not).  Promises like that rot unless something keeps trying to break
them -- this module is that something.
It drives real subprocesses doing real ``put()``/``gc()`` work, kills
them with SIGKILL at arbitrary points, and hands the wreckage to
:func:`repro.archive.fsck.fsck` to prove detection and repair.

Two kinds of damage are produced:

* **honest crashes** (:func:`crash_put_cycle`): a child process loops
  ``put()``; the parent SIGKILLs it mid-loop.  Whatever state results
  is, by construction, a state the store can really reach.
* **seeded corruption** (:func:`corrupt_archive`): each of the five
  :data:`CORRUPTION_CLASSES` is injected deterministically -- including
  the classes the store's write paths *prevent* (torn index lines,
  truncated objects), because fsck must also survive damage from
  outside them (disk rot, operator accidents, other tools).

Everything here is deterministic given ``seed`` and importable at
module top level (the subprocess targets must survive pickling under
the ``spawn`` start method).
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import signal
import time
from typing import List, Optional

from repro.archive.meta import RunMeta
from repro.archive.store import ArchiveStore
from repro.events.regions import RegionRegistry, RegionType
from repro.profiling.calltree import CallTreeNode
from repro.profiling.profile import Profile

#: The damage classes fsck must detect and repair.
CORRUPTION_CLASSES = (
    "truncated_object",
    "bad_sha",
    "torn_index",
    "orphan_object",
    "dangling_record",
)


# ----------------------------------------------------------------------
# Synthetic archive content
# ----------------------------------------------------------------------
def synthetic_profile(serial: int) -> Profile:
    """A tiny, valid profile whose content varies with ``serial``.

    Distinct serials produce distinct canonical JSON (the duration
    encodes the serial), so consecutive ``put()`` calls exercise the
    fresh-object path rather than deduplicating into one blob.
    """
    registry = RegionRegistry()
    root = CallTreeNode(registry.register("main", RegionType.FUNCTION))
    root.metrics.record_visit(100.0 + serial)
    child = root.child(registry.register(f"work_{serial % 7}", RegionType.FUNCTION))
    child.metrics.record_visit(10.0 + serial / 8.0)
    return Profile([root], [{}])


def synthetic_meta(serial: int, *, seed: int = 0) -> RunMeta:
    return RunMeta(
        kernel="crashkit",
        size="test",
        variant="synthetic",
        n_threads=1,
        seed=seed,
        config_hash=hashlib.sha256(f"crashkit:{seed}".encode()).hexdigest()[:16],
        wall_time_us=100.0 + serial,
        source="crash-harness",
    )


# ----------------------------------------------------------------------
# Subprocess targets (importable, spawn-safe)
# ----------------------------------------------------------------------
def put_loop(root: str, start: int, count: int, seed: int = 0) -> None:
    """Archive ``count`` synthetic profiles; a kill can land anywhere."""
    store = ArchiveStore(root)
    for serial in range(start, start + count):
        store.put(synthetic_profile(serial), synthetic_meta(serial, seed=seed))


def gc_loop(root: str, passes: int = 3, keep_last: Optional[int] = None) -> None:
    """Run ``passes`` gc cycles; a kill can land mid-prune."""
    store = ArchiveStore(root)
    for _ in range(passes):
        store.gc(keep_last=keep_last)


def crash_put_cycle(
    root: str,
    *,
    cycles: int = 3,
    puts_per_cycle: int = 20,
    seed: int = 0,
    kill_after_s: float = 0.05,
) -> int:
    """SIGKILL a ``put()`` loop mid-flight, ``cycles`` times.

    Each cycle forks a child archiving ``puts_per_cycle`` profiles and
    kills it after a seeded fraction of ``kill_after_s`` -- early kills
    land mid-``put``, late ones between puts, which together cover the
    interesting interleavings.  Returns the number of children that were
    actually killed (rather than finishing first); callers asserting on
    crash residue should check it is nonzero.
    """
    import multiprocessing

    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    )
    killed = 0
    for cycle in range(cycles):
        start = cycle * puts_per_cycle
        proc = ctx.Process(
            target=put_loop, args=(root, start, puts_per_cycle, seed), daemon=True
        )
        proc.start()
        digest = hashlib.sha256(f"{seed}:{cycle}".encode()).digest()
        time.sleep(kill_after_s * (0.2 + 0.8 * digest[0] / 255.0))
        if proc.is_alive():
            os.kill(proc.pid, signal.SIGKILL)
            killed += 1
        proc.join(timeout=10.0)
    return killed


# ----------------------------------------------------------------------
# Seeded corruption injectors
# ----------------------------------------------------------------------
def _object_paths(store: ArchiveStore) -> List[str]:
    paths: List[str] = []
    objects_root = os.path.join(store.root, "objects")
    for dirpath, _dirnames, filenames in os.walk(objects_root):
        for filename in sorted(filenames):
            if filename.endswith(".json.gz"):
                paths.append(os.path.join(dirpath, filename))
    return sorted(paths)


def _pick(items: List[str], seed: int) -> str:
    if not items:
        raise ValueError("archive has no objects to corrupt")
    digest = hashlib.sha256(f"pick:{seed}".encode()).digest()
    return items[digest[0] % len(items)]


def corrupt_archive(root: str, kind: str, *, seed: int = 0) -> dict:
    """Inject one instance of a :data:`CORRUPTION_CLASSES` member.

    Returns a small dict describing what was damaged (paths, shas) so
    tests can assert fsck found *that* damage, not just *some* damage.
    """
    if kind not in CORRUPTION_CLASSES:
        raise ValueError(
            f"kind must be one of {CORRUPTION_CLASSES}, got {kind!r}"
        )
    store = ArchiveStore(root)
    if kind == "truncated_object":
        path = _pick(_object_paths(store), seed)
        size = os.path.getsize(path)
        with open(path, "rb+") as handle:
            handle.truncate(max(3, size // 2))  # keep the magic, tear the body
        return {"kind": kind, "path": path}
    if kind == "bad_sha":
        # Valid gzip, wrong content: only full verification catches it.
        path = _pick(_object_paths(store), seed)
        impostor = json.dumps({"impostor": seed}).encode()
        with open(path, "wb") as handle:
            handle.write(gzip.compress(impostor, mtime=0))
        return {"kind": kind, "path": path}
    if kind == "torn_index":
        with open(store.index_path, "a", encoding="utf-8") as handle:
            handle.write('{"type":"run","run_id":"r99')  # mid-append tear
        return {"kind": kind, "path": store.index_path}
    if kind == "orphan_object":
        # A valid object the index has never heard of -- exactly the
        # residue of dying between put()'s object write and index append.
        sha256, _created = store.put_object(synthetic_profile(90000 + seed))
        return {"kind": kind, "sha256": sha256}
    # dangling_record: a run record whose object never existed.
    ghost_sha = hashlib.sha256(f"ghost:{seed}".encode()).hexdigest()
    record = {
        "type": "run",
        "run_id": f"r9{seed % 100:03d}",
        "sha256": ghost_sha,
        "created": 0.0,
        "meta": synthetic_meta(0, seed=seed).to_dict(),
    }
    store.index.append(record)
    return {"kind": kind, "sha256": ghost_sha, "run_id": record["run_id"]}
