"""Durable event recording, checkpointed salvage, and replay verification.

The recording substrate (:class:`repro.substrates.recorder.RecorderSubstrate`)
spills every measurement event to sealed CRC32-checksummed chunks and
periodically checkpoints the live profiler as a canonical-JSON cube
partial.  This package holds everything around that stream:

* :mod:`~repro.recorder.codec` / :mod:`~repro.recorder.chunks` -- the
  compact binary framing and torn-tail-tolerant recovery;
* :mod:`~repro.recorder.store` -- the on-disk layout (manifest,
  checkpoint, warm-start generations);
* :mod:`~repro.recorder.replay` -- stream -> profile reconstruction and
  byte-identical verification against the live cube;
* :mod:`~repro.recorder.salvage` -- best-effort recovery of a partial
  profile from whatever a dead run left behind.
"""

from repro.recorder.chunks import (
    ChunkWriter,
    RecoveredStream,
    read_records,
    recover_chunks,
)
from repro.recorder.codec import RecordDecoder, RecordEncoder
from repro.recorder.replay import (
    DivergenceReport,
    diff_profile_dicts,
    governor_level,
    rebuild_profile,
    rebuild_profiler,
    replay_recording,
    verify_recording,
)
from repro.recorder.salvage import SalvageResult, salvage_recording
from repro.recorder.store import (
    checkpoint_path,
    events_path,
    list_generations,
    load_checkpoint,
    load_manifest,
    manifest_path,
    update_manifest,
)


def record_live_profile(record_dir: str, profile) -> None:
    """Stamp the live cube's content hash into the recording manifest.

    Called by the tolerant runner after a clean run: the recorder
    finalizes *before* the profile artifact exists, so the verification
    target is added post-hoc.  ``repro verify`` compares its replayed
    hash against this value.  A run the resource governor degraded also
    gets its worst ladder level as ``governor_level``: replay cannot
    reproduce that cube, and verify reports the recording unusable.
    """
    from repro.archive.store import content_hash

    fields = {"live_sha256": content_hash(profile)}
    level = governor_level(profile.salvage.pressure_incidents if profile.salvage else ())
    if level:
        fields["governor_level"] = level
    update_manifest(record_dir, **fields)


__all__ = [
    "ChunkWriter",
    "RecoveredStream",
    "read_records",
    "recover_chunks",
    "RecordDecoder",
    "RecordEncoder",
    "DivergenceReport",
    "diff_profile_dicts",
    "rebuild_profile",
    "rebuild_profiler",
    "replay_recording",
    "verify_recording",
    "SalvageResult",
    "salvage_recording",
    "checkpoint_path",
    "events_path",
    "list_generations",
    "load_checkpoint",
    "load_manifest",
    "manifest_path",
    "update_manifest",
    "record_live_profile",
]
