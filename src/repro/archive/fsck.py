"""Archive integrity checking and repair (``repro archive fsck``).

The store's writes are individually crash-safe -- objects go through
:func:`repro.ioutil.atomic_write`, the index is a durable
:class:`repro.ioutil.AppendLog` -- but *crash-safe* is not
*damage-proof*.  A kill -9 between an object write and its index
append leaves an orphan object; disks flip bits under
content-addressed names; operators truncate files; other tools append
torn lines.  ``fsck`` is the auditor for all of it: every check
re-derives an invariant the store relies on, and ``--repair`` restores
each one without ever deleting the only copy of plausibly-real data
(corrupt objects are quarantined, not unlinked).

Issue kinds and their repairs:

======================  ==============================================
kind                    detection / repair
======================  ==============================================
``corrupt_object``      bad gzip magic, truncated stream, or payload
                        hashing differently from its filename; moved
                        to ``<root>/quarantine/`` on repair
``orphan_object``       valid object no run record references (the
                        crash-between-put-steps residue); deleted on
                        repair, exactly as ``gc`` would
``dangling_record``     run record whose object is missing or was just
                        quarantined, or tag record naming an unknown
                        run; dropped from the rebuilt index
``torn_index_line``     unparsable index line; rewritten away
======================  ==============================================

Repairs that touch the index rewrite it the way ``gc`` does: counter
high-water record first (run-id monotonicity survives even when the
records carrying the highest ids are dropped), then surviving run and
tag records, all under the index lock so concurrent ``put``/``gc``
serialize against the repair.
"""

from __future__ import annotations

import gzip
import hashlib
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.archive.store import (
    GZIP_MAGIC,
    OBJECTS_DIR,
    QUARANTINE_DIR,
    ArchiveStore,
)

#: Every issue kind fsck can report, in severity order.
FSCK_ISSUE_KINDS = (
    "corrupt_object",
    "dangling_record",
    "orphan_object",
    "torn_index_line",
)


@dataclass
class FsckIssue:
    """One integrity violation, and what (if anything) was done about it."""

    kind: str
    detail: str
    sha256: Optional[str] = None
    run_id: Optional[str] = None
    repaired: bool = False
    #: ``quarantined`` | ``deleted`` | ``dropped`` | ``rewritten``
    action: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "detail": self.detail,
            "sha256": self.sha256,
            "run_id": self.run_id,
            "repaired": self.repaired,
            "action": self.action,
        }


@dataclass
class FsckReport:
    """Everything one fsck pass found (and repaired)."""

    root: str
    repair: bool
    issues: List[FsckIssue] = field(default_factory=list)
    objects_checked: int = 0
    records_checked: int = 0
    index_rewritten: bool = False

    @property
    def clean(self) -> bool:
        return not self.issues

    @property
    def unrepaired(self) -> List[FsckIssue]:
        return [issue for issue in self.issues if not issue.repaired]

    def counts(self) -> Dict[str, int]:
        by_kind: Dict[str, int] = {}
        for issue in self.issues:
            by_kind[issue.kind] = by_kind.get(issue.kind, 0) + 1
        return by_kind

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "repair": self.repair,
            "clean": self.clean,
            "objects_checked": self.objects_checked,
            "records_checked": self.records_checked,
            "index_rewritten": self.index_rewritten,
            "counts": self.counts(),
            "issues": [issue.to_dict() for issue in self.issues],
        }


# ----------------------------------------------------------------------
def _verify_object(path: str, expected_sha: str) -> Optional[str]:
    """None when the object is sound, else a human-readable defect."""
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        return f"unreadable: {exc}"
    if not blob:
        return "empty file"
    if blob[:2] != GZIP_MAGIC:
        return "missing gzip magic (torn or foreign write)"
    try:
        payload = gzip.decompress(blob)
    except (OSError, EOFError) as exc:
        return f"truncated/corrupt gzip stream: {exc}"
    actual = hashlib.sha256(payload).hexdigest()
    if actual != expected_sha:
        return f"content hashes to {actual[:12]}… (bit rot or tampering)"
    return None


def _quarantine(store: ArchiveStore, path: str, sha256: str) -> str:
    """Move a corrupt object aside; returns the quarantine path."""
    quarantine_root = os.path.join(store.root, QUARANTINE_DIR)
    os.makedirs(quarantine_root, exist_ok=True)
    target = os.path.join(quarantine_root, os.path.basename(path))
    serial = 0
    while os.path.exists(target):  # keep every distinct corpse
        serial += 1
        target = os.path.join(
            quarantine_root, f"{sha256}.{serial}.json.gz"
        )
    os.replace(path, target)
    return target


def _scan_objects(store: ArchiveStore) -> Tuple[Dict[str, str], List[Tuple[str, str, str]]]:
    """Walk objects/: returns ({sha: path} valid, [(sha, path, defect)])."""
    valid: Dict[str, str] = {}
    corrupt: List[Tuple[str, str, str]] = []
    objects_root = os.path.join(store.root, OBJECTS_DIR)
    for dirpath, _dirnames, filenames in os.walk(objects_root):
        for filename in sorted(filenames):
            if not filename.endswith(".json.gz"):
                continue
            sha256 = filename[: -len(".json.gz")]
            path = os.path.join(dirpath, filename)
            defect = _verify_object(path, sha256)
            if defect is None:
                valid[sha256] = path
            else:
                corrupt.append((sha256, path, defect))
    return valid, corrupt


def fsck(store: ArchiveStore, *, repair: bool = False) -> FsckReport:
    """Audit (and with ``repair=True`` restore) one archive's invariants.

    Runs entirely under the index lock so a concurrent ``put`` or
    ``gc`` serializes against the audit instead of racing it.
    """
    report = FsckReport(root=store.root, repair=repair)
    with store.locked():
        valid_objects, corrupt_objects = _scan_objects(store)
        report.objects_checked = len(valid_objects) + len(corrupt_objects)

        for sha256, path, defect in corrupt_objects:
            issue = FsckIssue(
                kind="corrupt_object",
                detail=f"object {sha256[:12]}… {defect}",
                sha256=sha256,
            )
            if repair:
                target = _quarantine(store, path, sha256)
                issue.repaired = True
                issue.action = "quarantined"
                issue.detail += f"; moved to {os.path.relpath(target, store.root)}"
            report.issues.append(issue)

        # ------------------------------------------------------------------
        # Index pass: raw entries, so torn lines and dangling records are
        # visible (store.records() silently skips both).
        entries, torn = store.index.read()
        highest_serial = ArchiveStore._max_run_serial(entries)
        torn_details = ["index line is not valid JSON"] * torn
        run_entries: List[dict] = []
        tag_entries: List[dict] = []
        for entry in entries:
            kind = entry.get("type")
            if kind == "run":
                if not isinstance(entry.get("run_id"), str) or not isinstance(
                    entry.get("sha256"), str
                ):
                    torn_details.append("run record missing run_id/sha256")
                    continue
                run_entries.append(entry)
            elif kind == "tag":
                tag_entries.append(entry)
        for detail in torn_details:
            issue = FsckIssue(kind="torn_index_line", detail=detail)
            if repair:
                issue.repaired = True
                issue.action = "rewritten"
            report.issues.append(issue)
        report.records_checked = len(run_entries) + len(tag_entries)

        surviving_runs: List[dict] = []
        dropped_records = 0
        for entry in run_entries:
            if entry["sha256"] in valid_objects:
                surviving_runs.append(entry)
                continue
            dropped_records += 1
            if any(entry["sha256"] == sha for sha, _, _ in corrupt_objects):
                reason = (
                    "its object was quarantined as corrupt"
                    if repair
                    else "its object is corrupt"
                )
            else:
                reason = "its object is missing"
            issue = FsckIssue(
                kind="dangling_record",
                detail=f"run {entry['run_id']} references "
                f"{entry['sha256'][:12]}… but {reason}",
                sha256=entry["sha256"],
                run_id=entry["run_id"],
            )
            if repair:
                issue.repaired = True
                issue.action = "dropped"
            report.issues.append(issue)

        surviving_ids = {entry["run_id"] for entry in surviving_runs}
        surviving_tags: List[dict] = []
        for entry in tag_entries:
            if entry.get("run_id") in surviving_ids:
                surviving_tags.append(entry)
                continue
            dropped_records += 1
            issue = FsckIssue(
                kind="dangling_record",
                detail=f"tag record {entry.get('tag')!r} names unknown run "
                f"{entry.get('run_id')!r}",
                run_id=entry.get("run_id"),
            )
            if repair:
                issue.repaired = True
                issue.action = "dropped"
            report.issues.append(issue)

        referenced = {entry["sha256"] for entry in surviving_runs}
        for sha256 in sorted(valid_objects):
            if sha256 in referenced:
                continue
            issue = FsckIssue(
                kind="orphan_object",
                detail=f"object {sha256[:12]}… is referenced by no run "
                f"record (crash between object write and index append?)",
                sha256=sha256,
            )
            if repair:
                try:
                    os.unlink(valid_objects[sha256])
                    issue.repaired = True
                    issue.action = "deleted"
                except OSError as exc:  # pragma: no cover - fs failure
                    issue.detail += f"; delete failed: {exc}"
            report.issues.append(issue)

        if repair and (torn_details or dropped_records):
            # Rebuild the index like gc does: counter record first, so
            # run-id monotonicity survives dropping the newest records.
            store.index.rewrite(
                [{"type": "counter", "last_run": highest_serial}]
                + surviving_runs
                + surviving_tags
            )
            report.index_rewritten = True
    return report
