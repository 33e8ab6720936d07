"""The recording substrate: durable spill of the measurement event stream.

Every event of every :class:`~repro.events.batch.EventBatch` the
manager hands over is appended -- as its plain record tuple from
:meth:`~repro.events.batch.EventBatch.records`, no encoding on the hot
path -- to a :class:`ChunkWriter` that seals batches into
CRC32-checksummed, sequence-numbered chunks in
``<record_dir>/events.chunks``.
Periodically (see ``checkpoint_every``) the substrate fsyncs the sealed
prefix and writes ``checkpoint.json``: a canonical-JSON cube partial
snapshot of the live profiler plus the stream cursor, via
``atomic_write``.  A checkpoint is taken only after the manager's
fan-out of a batch (:meth:`RecorderSubstrate.after_batch`), when the
profiler and the recorder have both consumed exactly the same event
prefix, so its profile, ``time`` and cursor all describe that prefix.

The contract this buys:

* a SIGKILL at any instruction loses at most the unsealed record buffer
  (and nothing at all up to the last checkpoint's fsync barrier);
* the sealed prefix alone reconstructs a valid partial profile
  (:mod:`repro.recorder.replay`), and the checkpoint is a ready-made
  fallback if even the stream is unreadable;
* a retry pointed at the same ``record_dir`` *warm-starts*: the
  previous attempt's stream and checkpoint are rotated aside as a
  generation (never clobbered -- they remain salvageable) and the prior
  checkpoint is surfaced in the new manifest as ``warm_start``.

The substrate is deliberately **non-essential**: if recording itself
fails mid-run the manager quarantines it and the measured run finishes
normally -- losing durability must never lose the run.
"""

from __future__ import annotations

import os
from typing import Any, Optional

from repro.errors import SubstrateError
from repro.events.batch import EventBatch
from repro.events.regions import Region, RegionRegistry
from repro.recorder.chunks import ChunkWriter
from repro.recorder.store import (
    events_path,
    load_checkpoint,
    rotate_generation,
    write_checkpoint,
    write_manifest,
)
from repro.substrates.base import Substrate


class RecorderSubstrate(Substrate):
    """Spills the event stream to sealed chunks + periodic checkpoints.

    Must be constructed with a ``record_dir``; the registry entry exists
    so the name resolves, but an unconfigured instance refuses to
    initialize rather than silently recording nowhere.  The runtime
    injects the live :class:`~repro.profiling.task_profiler.TaskProfiler`
    (``self.profiler``) after substrate setup so checkpoints can
    snapshot real profiling state; without it, checkpoints still record
    the stream cursor.

    ``checkpoint_every`` is a cadence in records: a checkpoint fires at
    the first batch boundary at or past each multiple of it, at most
    once per batch.  Its ``time`` is the last event time of the batch.
    """

    name = "recorder"
    essential = False

    def __init__(
        self,
        record_dir: Optional[str] = None,
        *,
        chunk_records: int = 512,
        # The sealed stream is the primary durable artifact (flushed
        # every `chunk_records` appends); checkpoints only speed up
        # salvage and cover a corrupt-beyond-CRC stream, so their
        # cadence is coarse: a snapshot costs a few ms, and every 8192
        # events keeps the amortized cost under a microsecond per event.
        checkpoint_every: int = 8192,
        per_event_cost: float = 0.0,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.record_dir = record_dir
        self.chunk_records = chunk_records
        self.checkpoint_every = checkpoint_every
        self.per_event_cost = per_event_cost
        self.profiler = None  # injected by the runtime after initialize
        self.writer: Optional[ChunkWriter] = None
        self._pending: Optional[list] = None  # the writer's live buffer
        self.records = 0
        self.checkpoints = 0
        self.checkpoint_errors = 0
        self.warm_start: Optional[dict] = None
        self._init_pending: Optional[tuple] = None
        self._next_checkpoint = checkpoint_every
        self._finish_time: Optional[float] = None

    # -- lifecycle ------------------------------------------------------
    def initialize(
        self,
        registry: RegionRegistry,
        n_threads: int,
        start_time: float,
        implicit_region: Optional[Region] = None,
    ) -> None:
        if self.record_dir is None:
            raise SubstrateError(
                "recorder substrate needs a record_dir; construct it as "
                "RecorderSubstrate(record_dir=...) or pass --record on the CLI"
            )
        if implicit_region is None:
            raise SubstrateError("recorder substrate needs an implicit region")
        os.makedirs(self.record_dir, exist_ok=True)
        # Warm start: never clobber a previous attempt's salvageable
        # state -- rotate it aside and remember where that attempt stood.
        previous = load_checkpoint(self.record_dir)
        generation = rotate_generation(self.record_dir)
        if previous is not None:
            self.warm_start = {
                "generation": generation,
                "time": previous.get("time"),
                "cursor": previous.get("cursor"),
            }
        self.writer = ChunkWriter(
            events_path(self.record_dir), chunk_records=self.chunk_records
        )
        # The writer's buffer is identity-stable (seal() clears it in
        # place), so `_append` appends to it without a method call per
        # record.
        self._pending = self.writer.buffer
        # The INIT record needs the profiler's depth limit, which is
        # injected after manager initialization -- defer it to first use.
        self._init_pending = (n_threads, start_time, implicit_region)
        write_manifest(
            self.record_dir,
            {
                "complete": False,
                "n_threads": n_threads,
                "start_time": start_time,
                "chunk_records": self.chunk_records,
                "checkpoint_every": self.checkpoint_every,
                "warm_start": self.warm_start,
            },
        )

    def _ensure_init(self) -> None:
        if self._init_pending is None:
            return
        n_threads, start_time, implicit_region = self._init_pending
        self._init_pending = None
        depth = None
        profiler = self.profiler
        if profiler is not None and profiler.threads:
            depth = profiler.threads[0].max_call_path_depth
        self.writer.append(("init", n_threads, start_time, implicit_region, depth))

    def _append(self, record: tuple) -> None:
        if self._init_pending is not None:
            self._ensure_init()
        pending = self._pending
        pending.append(record)
        if len(pending) >= self.chunk_records:
            self.writer.seal()
        self.records += 1

    def after_batch(self, batch) -> None:
        """Checkpoint once the stream crossed the next cadence mark.

        Runs after every substrate consumed ``batch``, so the recorded
        stream and the live profiler end at the same event.
        """
        if self.records >= self._next_checkpoint:
            self._checkpoint(batch.times[-1])

    def _checkpoint(self, time: float) -> None:
        """Seal + fsync the stream, then snapshot profiler state.

        Checkpoint failures are recorded but never raised: losing a
        checkpoint degrades recovery, it must not abort measurement.
        """
        every = self.checkpoint_every
        self._next_checkpoint = (self.records // every + 1) * every
        try:
            self.writer.sync()
            data = {
                "time": time,
                "records": self.records,
                "cursor": self.writer.cursor(),
                "profile": None,
            }
            if self.profiler is not None:
                from repro.profiling.snapshot import snapshot_profile_dict

                data["profile"] = snapshot_profile_dict(self.profiler, time)
            write_checkpoint(self.record_dir, data)
            self.checkpoints += 1
        except Exception:
            self.checkpoint_errors += 1

    def finalize(self, time: float) -> None:
        if self.writer is None or self.writer.closed:
            return
        self._ensure_init()
        self._finish_time = time
        self.writer.close(finish_time=time)
        write_manifest(
            self.record_dir,
            {
                "complete": True,
                "n_threads": self._manifest_field("n_threads"),
                "start_time": self._manifest_field("start_time"),
                "chunk_records": self.chunk_records,
                "checkpoint_every": self.checkpoint_every,
                "warm_start": self.warm_start,
                "finish_time": time,
                "records": self.records,
                "chunks": self.writer.sealed_chunks,
                "checkpoints": self.checkpoints,
                "checkpoint_errors": self.checkpoint_errors,
            },
        )

    def _manifest_field(self, key: str):
        from repro.recorder.store import load_manifest

        manifest = load_manifest(self.record_dir) or {}
        return manifest.get(key)

    def artifact(self) -> Any:
        return {
            "record_dir": self.record_dir,
            "records": self.records,
            "chunks": self.writer.sealed_chunks if self.writer else 0,
            "checkpoints": self.checkpoints,
            "checkpoint_errors": self.checkpoint_errors,
            "complete": self._finish_time is not None,
            "finish_time": self._finish_time,
            "warm_start": self.warm_start,
        }

    # -- event consumption ----------------------------------------------
    # Every record funnels through `_append`, which is also the hook a
    # subclass overrides to observe each record (DieAtRecordSubstrate).
    def on_batch(self, batch: EventBatch) -> None:
        """Append the batch's record tuples, metric rows included."""
        append = self._append
        for record in batch.records():
            append(record)

    def on_phase_begin(self, name: str) -> None:
        self._append(("phase_begin", name))

    def on_phase_end(self, name: str) -> None:
        self._append(("phase_end", name))
