"""Replay a recorded stream into a profile; verify it byte-identically.

The replay engine is deliberately independent of the live measurement
path: it feeds decoded records straight into a fresh
:class:`~repro.profiling.task_profiler.TaskProfiler` (phases and
metrics included -- concurrency phase maxima and metric counters are
part of the canonical cube, so skipping them would break byte
identity).  Region identity holds because the decoder interns regions
in its own registry, and canonical export reindexes regions by
(name, type, file, line), so registry handle numbering never matters.

``verify`` is the trust anchor: replay the stream *alone*, canonicalize
the rebuilt profile, and compare content hashes against what the live
run archived.  A mismatch on a complete stream is silent corruption or
nondeterminism -- surfaced as a structured :class:`DivergenceReport`
(and optionally raised as :class:`~repro.errors.ReplayDivergence`),
with sentinel-style exit semantics in the CLI: 0 match, 1 divergence,
2 unusable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import ProfileError, RecordingError, ReplayDivergence
from repro.governor import LEVEL_NAMES
from repro.profiling.task_profiler import DROPPABLE_KINDS, TaskProfiler
from repro.recorder.chunks import RecoveredStream, read_records
from repro.recorder.store import events_path, load_manifest


# ----------------------------------------------------------------------
# Stream -> profile
# ----------------------------------------------------------------------
def find_init(records: List[tuple]) -> Optional[tuple]:
    for record in records:
        if record[0] == "init":
            return record
    return None


def rebuild_profiler(
    records: List[tuple],
    *,
    strict: bool = True,
    finish_time: Optional[float] = None,
) -> TaskProfiler:
    """Drive a fresh profiler with the recorded callbacks.

    ``strict=True`` demands a complete stream (FIN record) and lets any
    inconsistency raise -- the verification mode.  ``strict=False`` is
    the salvage mode: inconsistencies and in-flight instances at the
    (possibly synthesized) end of stream are quarantined into the
    profile's salvage report instead.  Records go straight to the
    per-thread handlers; a failed one goes to the profiler's
    :meth:`~repro.profiling.task_profiler.TaskProfiler.event_failed`,
    exactly as in its batch loop.
    """
    init = find_init(records)
    if init is None:
        raise RecordingError(
            "recorded stream has no init record; nothing to replay"
        )
    _, n_threads, start_time, implicit_region, depth = init
    profiler = TaskProfiler(
        n_threads,
        implicit_region,
        start_time=start_time,
        max_call_path_depth=depth,
        strict=strict,
    )
    threads = profiler.threads
    time = start_time
    fin_time: Optional[float] = None
    region = instance = None
    for record in records:
        kind = record[0]
        try:
            if kind == "enter":
                _, thread_id, time, region, parameter = record
                threads[thread_id].enter(region, time, parameter)
            elif kind == "exit":
                _, thread_id, time, region = record
                threads[thread_id].exit(region, time)
            elif kind == "task_begin":
                _, thread_id, time, region, instance, parameter = record
                threads[thread_id].task_begin(region, instance, time, parameter)
            elif kind == "task_end":
                _, thread_id, time, region, instance = record
                if strict:
                    threads[thread_id].task_end(region, instance, time)
                else:
                    profiler.end_task(threads[thread_id], region, instance, time)
            elif kind == "task_switch":
                _, thread_id, time, instance = record
                threads[thread_id].task_switch(instance, time)
            elif kind == "metric":
                _, thread_id, time, counters = record
                threads[thread_id].metric(counters)
            elif kind == "phase_begin":
                profiler.on_phase_begin(record[1])
            elif kind == "phase_end":
                profiler.on_phase_end(record[1])
            elif kind == "fin":
                fin_time = record[1]
            elif kind != "init":  # pragma: no cover - decoder only emits known kinds
                raise RecordingError(f"unknown record kind {kind!r} in replay")
        except ProfileError as exc:
            profiler.event_failed(kind, region, instance, time, exc)
    if fin_time is None and strict:
        raise RecordingError(
            "recorded stream is incomplete (no FIN record); strict replay "
            "requires a complete stream -- use lenient replay to salvage"
        )
    if not strict:
        profiler.salvage.events_seen += sum(r[0] in DROPPABLE_KINDS for r in records)
    end = fin_time if fin_time is not None else finish_time
    # with neither, the stream ends at its last event
    profiler.on_finish(time if end is None else end)
    return profiler


def rebuild_profile(
    records: List[tuple],
    *,
    strict: bool = True,
    finish_time: Optional[float] = None,
):
    return rebuild_profiler(
        records, strict=strict, finish_time=finish_time
    ).build_profile()


def replay_recording(record_dir: str, *, strict: Optional[bool] = None):
    """Load + replay a recording directory.

    Returns ``(profile, stream)``.  When ``strict`` is not forced, a
    complete stream replays strictly and an incomplete one leniently --
    what a human asking "show me what this recording holds" wants.
    """
    stream = read_records(events_path(record_dir))
    if not stream.records:
        raise RecordingError(
            f"no recoverable records in {events_path(record_dir)!r}: "
            + ("; ".join(stream.notes) or "empty stream")
        )
    if strict is None:
        strict = stream.complete
    profile = rebuild_profile(stream.records, strict=strict)
    return profile, stream


# ----------------------------------------------------------------------
# Divergence reporting
# ----------------------------------------------------------------------
@dataclass
class DivergenceReport:
    """Outcome of cross-checking a replayed profile against the live cube."""

    usable: bool
    matched: bool
    expected_sha: Optional[str] = None
    actual_sha: Optional[str] = None
    records: int = 0
    chunks: int = 0
    complete: bool = False
    strict: bool = True
    reasons: List[str] = field(default_factory=list)
    differences: List[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        """Sentinel-style: 0 match, 1 divergence, 2 unusable."""
        if not self.usable:
            return 2
        return 0 if self.matched else 1

    def to_dict(self) -> dict:
        return {
            "usable": self.usable,
            "matched": self.matched,
            "expected_sha": self.expected_sha,
            "actual_sha": self.actual_sha,
            "records": self.records,
            "chunks": self.chunks,
            "complete": self.complete,
            "strict": self.strict,
            "reasons": list(self.reasons),
            "differences": list(self.differences),
            "exit_code": self.exit_code,
        }


def diff_profile_dicts(expected, actual, *, limit: int = 12) -> List[str]:
    """Bounded, human-readable diff of two canonical profile dicts."""
    out: List[str] = []

    def walk(a, b, path):
        if len(out) >= limit:
            return
        if isinstance(a, dict) and isinstance(b, dict):
            for key in sorted(set(a) | set(b)):
                if len(out) >= limit:
                    return
                if key not in a:
                    out.append(f"{path}.{key}: missing in live profile")
                elif key not in b:
                    out.append(f"{path}.{key}: missing in replayed profile")
                else:
                    walk(a[key], b[key], f"{path}.{key}")
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                out.append(f"{path}: length {len(a)} != {len(b)}")
                return
            for index, (item_a, item_b) in enumerate(zip(a, b)):
                if len(out) >= limit:
                    return
                walk(item_a, item_b, f"{path}[{index}]")
        elif a != b:
            out.append(f"{path}: {a!r} != {b!r}")

    walk(expected, actual, "$")
    if len(out) >= limit:
        out.append("... (diff truncated)")
    return out


def governor_level(pressure_incidents) -> int:
    """Worst ladder level among pressure-incident dicts; 0 if none."""
    return max((i.get("level", 0) for i in pressure_incidents), default=0)


def verify_recording(
    record_dir: str,
    *,
    expected_sha: Optional[str] = None,
    expected_dict: Optional[dict] = None,
    raise_on_divergence: bool = False,
) -> DivergenceReport:
    """Replay ``record_dir`` and cross-check against the live cube.

    The expectation comes from, in order: ``expected_sha`` /
    ``expected_dict`` (e.g. an archived run supplied via ``--against``),
    else the ``live_sha256`` the tolerant runner stamped into the
    manifest after a clean run.  A complete stream replays strictly; an
    incomplete (salvaged) one replays leniently, which verifies a
    salvaged partial against what its salvage replay produced.

    A run the resource governor moved off L0 is unusable: its live cube
    carries pressure incidents and, from L2 on, merged or folded call
    paths, while replay rebuilds the full-fidelity cube from the events.
    """
    from repro.archive.store import profile_dict_hash
    from repro.cube.export import profile_to_dict

    report = DivergenceReport(usable=False, matched=False)
    stream: RecoveredStream = read_records(events_path(record_dir))
    report.records = len(stream.records)
    report.chunks = stream.chunks
    report.complete = stream.complete
    report.reasons.extend(stream.notes)
    if not stream.records:
        report.reasons.append("no recoverable records in stream")
        return report
    report.strict = stream.complete
    manifest = load_manifest(record_dir) or {}
    level = manifest.get("governor_level", 0)
    if expected_dict is not None:
        level = max(level, governor_level(
            expected_dict.get("salvage", {}).get("pressure_incidents", ())
        ))
    if level:
        report.reasons.append(
            f"recorded run was degraded by the resource governor (ladder "
            f"level L{level} {LEVEL_NAMES.get(level, '')}); replay rebuilds "
            f"the full-fidelity cube and cannot reproduce it"
        )
        return report
    if expected_dict is not None and expected_sha is None:
        expected_sha = profile_dict_hash(expected_dict)
    if expected_sha is None:
        expected_sha = manifest.get("live_sha256")
        if expected_sha is None:
            report.reasons.append(
                "no expectation to verify against: manifest has no "
                "live_sha256 (run did not finish cleanly?) and no "
                "--against reference was given"
            )
            return report
    report.expected_sha = expected_sha
    try:
        profile = rebuild_profile(stream.records, strict=report.strict)
    except (ProfileError, RecordingError) as exc:
        report.usable = True  # we had records and an expectation...
        report.reasons.append(f"replay failed: {exc}")
        report.matched = False
        if raise_on_divergence:
            raise ReplayDivergence(str(exc), report=report) from exc
        return report
    actual = profile_to_dict(profile)
    report.actual_sha = profile_dict_hash(actual)
    report.usable = True
    report.matched = report.actual_sha == report.expected_sha
    if not report.matched:
        report.reasons.append(
            "replayed profile does not reproduce the recorded cube"
        )
        if expected_dict is not None:
            report.differences = diff_profile_dicts(expected_dict, actual)
        if raise_on_divergence:
            raise ReplayDivergence(
                f"replay of {record_dir!r} diverged: expected "
                f"{report.expected_sha[:12]}, got {report.actual_sha[:12]}",
                report=report,
            )
    return report
