"""The content-addressed profile store.

Layout of an archive directory::

    <root>/
      objects/<aa>/<sha256>.json.gz   # gzip'd canonical profile JSON
      index.jsonl                     # append-only run/tag records
      index.lock                      # the index's advisory lock

**Objects** are immutable and keyed by the sha256 of the *canonical*
profile JSON (sorted keys, compact separators), so re-archiving an
identical profile is free: byte-identical content maps to the same key
and the existing object is reused.  The gzip header is written with a
zeroed mtime, making the object file itself a pure function of the
profile content.

**The index** is a :class:`repro.ioutil.AppendLog`: ``put`` and ``tag``
append to it, and only ``gc`` and ``fsck --repair`` rewrite it.
Corruption never makes the archive refuse to answer; the worst case is
a missing record.

Record types::

    {"type":"run","run_id":"r0001","sha256":...,"created":...,"meta":{...}}
    {"type":"tag","run_id":"r0001","tag":"baseline"}
    {"type":"counter","last_run":7}   # id high-water mark left by gc

Run ids are allocated monotonically: the next id is one past the
highest serial ever recorded, scanning every raw ``run`` line plus the
``counter`` high-water record :meth:`ArchiveStore.gc` writes when it
prunes the index.  Pruned ids are therefore never reused -- a run id
keeps naming the same run for the archive's whole life.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

from repro.cube.export import profile_from_dict, profile_to_dict
from repro.errors import ArchiveError, ArchiveLockTimeout
from repro.ioutil import AppendLog, atomic_write
from repro.archive.meta import RunMeta

INDEX_NAME = "index.jsonl"
LOCK_NAME = "index.lock"
OBJECTS_DIR = "objects"
QUARANTINE_DIR = "quarantine"
GZIP_MAGIC = b"\x1f\x8b"


def _canonical_json(data: dict) -> bytes:
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode("utf-8")


def canonical_profile_bytes(profile) -> bytes:
    """The canonical serialized form content addresses are computed on."""
    return _canonical_json(profile_to_dict(profile))


def profile_dict_hash(data: dict) -> str:
    """Content address of an already-serialized profile dict (the output
    of :func:`profile_to_dict`), for callers that keep the dict."""
    return hashlib.sha256(_canonical_json(data)).hexdigest()


def content_hash(profile) -> str:
    return profile_dict_hash(profile_to_dict(profile))


@dataclass
class ArchiveRecord:
    """One ``run`` record of the index, with its tags folded in."""

    run_id: str
    sha256: str
    created: float
    meta: RunMeta
    #: True when ``put`` found the object already present (same content)
    deduplicated: bool = False
    extra_tags: List[str] = field(default_factory=list)

    @property
    def tags(self) -> List[str]:
        seen = list(self.meta.tags)
        for tag in self.extra_tags:
            if tag not in seen:
                seen.append(tag)
        return seen

    def to_dict(self) -> dict:
        return {
            "type": "run",
            "run_id": self.run_id,
            "sha256": self.sha256,
            "created": self.created,
            "meta": self.meta.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ArchiveRecord":
        return cls(
            run_id=data["run_id"],
            sha256=data["sha256"],
            created=float(data.get("created", 0.0)),
            meta=RunMeta.from_dict(data.get("meta") or {}),
        )


@dataclass
class GcStats:
    """What one :meth:`ArchiveStore.gc` pass removed."""

    runs_dropped: int = 0
    objects_deleted: int = 0
    bytes_freed: int = 0
    #: unreferenced objects that could not be unlinked (OSError); they
    #: stay on disk as garbage a later gc pass can re-collect
    objects_failed: int = 0


class ArchiveStore:
    """A content-addressed archive rooted at one directory.

    ``lock_timeout_s`` bounds how long any index mutation will wait for
    the advisory index lock; past it, :class:`~repro.errors.ArchiveLockTimeout`
    is raised instead of blocking forever.  The default (None) preserves
    the historical block-indefinitely behavior; lease-based callers (the
    campaign gateway) set it below their lease TTL so a wedged lock
    holder surfaces as a structured error, not as a silently forfeited
    lease.
    """

    def __init__(self, root: str, *, lock_timeout_s: Optional[float] = None):
        self.root = os.fspath(root)
        if lock_timeout_s is not None and lock_timeout_s <= 0:
            raise ValueError(
                f"lock_timeout_s must be positive, got {lock_timeout_s!r}"
            )
        self.lock_timeout_s = lock_timeout_s
        self.index = AppendLog(
            os.path.join(self.root, INDEX_NAME),
            lock_path=os.path.join(self.root, LOCK_NAME),
            lock_timeout_s=lock_timeout_s,
        )

    # -- paths ---------------------------------------------------------
    @property
    def index_path(self) -> str:
        return self.index.path

    def object_path(self, sha256: str) -> str:
        return os.path.join(self.root, OBJECTS_DIR, sha256[:2], sha256 + ".json.gz")

    # -- locking -------------------------------------------------------
    @contextlib.contextmanager
    def locked(self) -> Iterator[None]:
        """Hold the index lock, serializing every index mutation."""
        with contextlib.ExitStack() as stack:
            try:
                stack.enter_context(self.index.locked())
            except TimeoutError:
                raise ArchiveLockTimeout(
                    f"could not acquire the archive index lock at "
                    f"{self.index.lock_path!r} within "
                    f"{self.lock_timeout_s:g} s (held by a concurrent "
                    f"writer?)"
                ) from None
            yield

    # -- objects -------------------------------------------------------
    @staticmethod
    def _object_intact(path: str) -> bool:
        """Cheap on-disk sanity: the file starts with the gzip magic.

        A bare ``os.path.exists`` would happily trust a zero-byte or
        truncated-header file (the residue of a crash on a filesystem
        without atomic rename, or of outside interference) and make
        ``put`` dedup against garbage forever.  Reading two bytes rules
        out the empty/torn-header cases; full payload verification
        (decompress + sha256) stays in :meth:`load_object` and
        :func:`~repro.archive.fsck.fsck`, which are the paths that pay
        for reading the whole blob anyway.
        """
        try:
            with open(path, "rb") as handle:
                return handle.read(2) == GZIP_MAGIC
        except OSError:
            return False

    def put_object(self, profile) -> tuple:
        """Store the profile blob; returns ``(sha256, created)``.

        ``created`` is False when an intact object with this content
        already exists -- the content-addressed deduplication path.  An
        existing but non-intact file (empty, truncated header) is
        rewritten rather than trusted.
        """
        payload = canonical_profile_bytes(profile)
        sha256 = hashlib.sha256(payload).hexdigest()
        path = self.object_path(sha256)
        if os.path.exists(path) and self._object_intact(path):
            return sha256, False
        # mtime=0 keeps the compressed object a pure function of content.
        blob = gzip.compress(payload, mtime=0)
        atomic_write(path, blob)
        return sha256, True

    def has_object(self, sha256: str) -> bool:
        path = self.object_path(sha256)
        return os.path.exists(path) and self._object_intact(path)

    def load_object(self, sha256: str):
        """Load and verify one object back into a ``Profile``.

        Raises :class:`ArchiveError` when the object is missing or its
        bytes no longer hash to their name;
        :class:`~repro.errors.ProfileFormatError` propagates untouched
        when the entry was written by an incompatible format version.
        """
        path = self.object_path(sha256)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except FileNotFoundError:
            raise ArchiveError(
                f"archive object {sha256[:12]}… is missing from {self.root!r} "
                f"(was it gc'd or the directory pruned?)"
            ) from None
        try:
            payload = gzip.decompress(blob)
        except OSError as exc:
            raise ArchiveError(
                f"archive object {sha256[:12]}… is not valid gzip: {exc}"
            ) from exc
        actual = hashlib.sha256(payload).hexdigest()
        if actual != sha256:
            raise ArchiveError(
                f"archive object {sha256[:12]}… fails verification: content "
                f"hashes to {actual[:12]}… (on-disk corruption)"
            )
        return profile_from_dict(json.loads(payload.decode("utf-8")))

    # -- index ---------------------------------------------------------
    def records(self) -> List[ArchiveRecord]:
        """All run records, oldest first, with ``tag`` records folded in."""
        records: Dict[str, ArchiveRecord] = {}
        order: List[str] = []
        for entry in self.index.read()[0]:
            kind = entry.get("type")
            if kind == "run":
                try:
                    record = ArchiveRecord.from_dict(entry)
                except (KeyError, TypeError, ValueError):
                    continue
                if record.run_id not in records:
                    order.append(record.run_id)
                records[record.run_id] = record
            elif kind == "tag":
                record = records.get(entry.get("run_id"))
                tag = entry.get("tag")
                if record is not None and tag and tag not in record.extra_tags:
                    record.extra_tags.append(tag)
        return [records[run_id] for run_id in order]

    @staticmethod
    def _max_run_serial(entries: Iterable[dict]) -> int:
        """The highest run-id serial the index entries have ever allocated.

        Scans every raw ``run`` entry (not the deduplicated
        :meth:`records` view, which keeps one entry per id) and any
        ``counter`` high-water records gc leaves behind when it prunes,
        so ids stay monotonic even after the records that carried them
        are gone from the index.
        """
        highest = 0
        for entry in entries:
            kind = entry.get("type")
            if kind == "run":
                run_id = entry.get("run_id")
                if isinstance(run_id, str) and run_id[:1] == "r":
                    try:
                        highest = max(highest, int(run_id[1:]))
                    except ValueError:
                        continue
            elif kind == "counter":
                try:
                    highest = max(highest, int(entry.get("last_run", 0)))
                except (TypeError, ValueError):
                    continue
        return highest

    def get_record(self, ref: str) -> ArchiveRecord:
        """Resolve a run id, full hash, or unambiguous hash prefix."""
        records = self.records()
        for record in records:
            if record.run_id == ref:
                return record
        if len(ref) >= 6:
            matches = [r for r in records if r.sha256.startswith(ref)]
            unique_shas = {r.sha256 for r in matches}
            if len(unique_shas) == 1:
                return matches[-1]
            if len(unique_shas) > 1:
                raise ArchiveError(
                    f"hash prefix {ref!r} is ambiguous "
                    f"({len(unique_shas)} distinct objects match)"
                )
        known = ", ".join(r.run_id for r in records[-8:]) or "none archived yet"
        raise ArchiveError(
            f"no archived run matches {ref!r} (recent run ids: {known})"
        )

    # -- high-level API ------------------------------------------------
    def put(self, profile, meta: RunMeta) -> ArchiveRecord:
        """Archive one run: store the blob, append an index record.

        Both the object write and the index append happen under the
        index lock, so a concurrent :meth:`gc` can never observe the
        fresh object before its record exists and delete it as an
        orphan.  Objects are small (gzip'd profile JSON); holding the
        lock across the write is cheap.
        """
        with self.locked():
            sha256, created = self.put_object(profile)
            serial = self._max_run_serial(self.index.read()[0])
            record = ArchiveRecord(
                run_id=f"r{serial + 1:04d}",
                sha256=sha256,
                created=time.time(),
                meta=meta,
                deduplicated=not created,
            )
            self.index.append(record.to_dict())
        return record

    def load_profile(self, ref: str):
        return self.load_object(self.get_record(ref).sha256)

    def tag(self, ref: str, tag: str) -> ArchiveRecord:
        """Append a tag to an existing run record."""
        if not tag:
            raise ArchiveError("tag must be a non-empty string")
        with self.locked():
            record = self.get_record(ref)
            if tag not in record.tags:
                self.index.append(
                    {"type": "tag", "run_id": record.run_id, "tag": tag}
                )
                record.extra_tags.append(tag)
        return record

    def gc(self, keep_last: Optional[int] = None) -> GcStats:
        """Prune the archive.

        With ``keep_last=N``, only the newest N runs of each
        configuration group (:meth:`RunMeta.group_key`) survive in the
        index.  Objects no longer referenced by any surviving record --
        including orphans from runs that crashed between the object
        write and the index append -- are deleted.
        """
        stats = GcStats()
        with self.locked():
            records = self.records()
            keep = records
            if keep_last is not None:
                if keep_last < 1:
                    raise ArchiveError(f"keep_last must be >= 1, got {keep_last}")
                by_group: Dict[tuple, List[ArchiveRecord]] = {}
                for record in records:
                    by_group.setdefault(record.meta.group_key(), []).append(record)
                survivors = set()
                for group in by_group.values():
                    survivors.update(id(r) for r in group[-keep_last:])
                keep = [r for r in records if id(r) in survivors]
                stats.runs_dropped = len(records) - len(keep)
                # Preserve the id high-water mark across the rewrite so
                # ids of pruned runs are never handed out again.  The
                # index -- counter record first -- is written *before*
                # any object is deleted: an OSError (ENOSPC,
                # permissions) mid-prune then leaves a consistent index
                # whose surviving records all still have their objects;
                # undeleted garbage is re-collectable by a later gc.
                entries: List[dict] = [{
                    "type": "counter",
                    "last_run": self._max_run_serial(self.index.read()[0]),
                }]
                for record in keep:
                    entries.append(record.to_dict())
                    for tag in record.extra_tags:
                        entries.append(
                            {"type": "tag", "run_id": record.run_id, "tag": tag}
                        )
                self.index.rewrite(entries)
            referenced = {record.sha256 for record in keep}
            objects_root = os.path.join(self.root, OBJECTS_DIR)
            for dirpath, _dirnames, filenames in os.walk(objects_root):
                for filename in filenames:
                    if not filename.endswith(".json.gz"):
                        continue
                    sha256 = filename[: -len(".json.gz")]
                    if sha256 in referenced:
                        continue
                    path = os.path.join(dirpath, filename)
                    try:
                        size = os.path.getsize(path)
                        os.unlink(path)
                    except OSError:
                        # Racing deletion or a failing filesystem: skip
                        # the object (and its stats -- only what was
                        # actually unlinked is counted) and keep pruning.
                        stats.objects_failed += 1
                        continue
                    stats.bytes_freed += size
                    stats.objects_deleted += 1
        return stats
