"""Kill-mid-record harness: prove recordings survive SIGKILL anywhere.

The recorder promises that a SIGKILL at *any* instruction leaves a
recoverable stream: sealed chunks replay into a valid partial profile
and a torn tail is truncated, never misread.  This module attacks that
promise the same way :mod:`repro.faults.crash` attacks the archive's:

* **exact-point kills** (:func:`record_until_killed`): a subclassed
  recording substrate SIGKILLs its own process the instant record
  number ``die_after_records`` is appended -- deterministic down to the
  event, so a seeded sweep covers chunk boundaries, checkpoint
  boundaries, and everything between.
* **honest wall-clock kills** (:func:`crash_recorded_run`): a child
  records real runs in a loop and the parent SIGKILLs it after a seeded
  delay -- kills land wherever they land, including inside OS writes.
* **seeded corruption** (:func:`corrupt_recording`): bit flips,
  truncation, and garbage appends past the CRC's write path, because
  recovery must also survive damage the writer itself can never
  produce.

Everything is deterministic given ``seed`` and importable at module top
level (subprocess targets must survive ``spawn`` pickling).
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from typing import Optional

from repro.substrates.recorder import RecorderSubstrate

#: Corruption classes recovery must reduce to a clean prefix.
RECORDING_CORRUPTION_CLASSES = ("flip_byte", "truncate", "garbage_append")


class DieAtRecordSubstrate(RecorderSubstrate):
    """A recorder that SIGKILLs its own process at an exact record count.

    Registered under the same ``"recorder"`` name so everything else
    (runtime injection, salvage discovery) treats it identically.
    """

    def __init__(self, die_after_records: int, **kwargs) -> None:
        super().__init__(**kwargs)
        self.die_after_records = die_after_records

    def _append(self, record: tuple) -> None:
        super()._append(record)
        if self.records == self.die_after_records:
            os.kill(os.getpid(), signal.SIGKILL)


def record_until_killed(
    record_dir: str,
    *,
    die_after_records: int = 1500,
    app: str = "fib",
    size: str = "small",
    seed: int = 0,
    n_threads: int = 2,
    chunk_records: int = 256,
    checkpoint_every: int = 512,
    archive_dir: Optional[str] = None,
) -> dict:
    """Run a recorded kernel and SIGKILL the process mid-record.

    The kill fires deterministically when record ``die_after_records``
    is appended; if the run is too small to ever reach it, the process
    SIGKILLs itself after the (complete) run instead, so the caller
    always observes a worker dead from signal 9 with salvageable state
    on disk.  ``archive_dir`` is accepted (and ignored here) so call
    cells can carry it for the supervisor's salvage step to find.

    Never returns under normal operation.
    """
    from repro.faults.campaign import run_tolerant

    recorder = DieAtRecordSubstrate(
        die_after_records,
        record_dir=record_dir,
        chunk_records=chunk_records,
        checkpoint_every=checkpoint_every,
    )
    run_tolerant(
        app,
        size=size,
        seed=seed,
        n_threads=n_threads,
        substrates=[recorder],
    )
    os.kill(os.getpid(), signal.SIGKILL)
    return {}  # pragma: no cover - unreachable


def _record_loop(record_dir: str, app: str, size: str, seed: int, cycles: int) -> None:
    """Child target: keep recording runs so a kill always lands mid-work."""
    from repro.faults.campaign import run_tolerant

    for _cycle in range(cycles):
        run_tolerant(
            app,
            size=size,
            seed=seed,
            record_dir=record_dir,
            chunk_records=64,
            checkpoint_every=256,
        )


def crash_recorded_run(
    record_dir: str,
    *,
    cycles: int = 3,
    seed: int = 0,
    kill_after_s: float = 0.15,
    app: str = "fib",
    size: str = "small",
) -> int:
    """SIGKILL real recording children mid-flight, ``cycles`` times.

    Each cycle records into its own subdirectory (``cycle<N>``) and is
    killed after a seeded fraction of ``kill_after_s``, so kills land at
    different stream offsets.  Returns how many children were actually
    killed rather than finishing first; callers asserting on crash
    residue should check it is nonzero.
    """
    import multiprocessing

    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    )
    killed = 0
    for cycle in range(cycles):
        cycle_dir = os.path.join(record_dir, f"cycle{cycle}")
        proc = ctx.Process(
            target=_record_loop,
            args=(cycle_dir, app, size, seed, 50),
            daemon=True,
        )
        proc.start()
        digest = hashlib.sha256(f"{seed}:{cycle}".encode()).digest()
        time.sleep(kill_after_s * (0.2 + 0.8 * digest[0] / 255.0))
        if proc.is_alive():
            os.kill(proc.pid, signal.SIGKILL)
            killed += 1
        proc.join(timeout=10.0)
    return killed


def corrupt_recording(record_dir: str, kind: str, *, seed: int = 0) -> dict:
    """Damage a recorded stream in one seeded, described way.

    Returns a dict naming what was damaged so tests can assert recovery
    found *that* defect.  ``flip_byte`` flips one bit in the chunk
    region (past the file header), ``truncate`` tears the tail,
    ``garbage_append`` writes noise after the last sealed chunk.
    """
    from repro.recorder.chunks import HEADER
    from repro.recorder.store import events_path

    if kind not in RECORDING_CORRUPTION_CLASSES:
        raise ValueError(
            f"kind must be one of {RECORDING_CORRUPTION_CLASSES}, got {kind!r}"
        )
    path = events_path(record_dir)
    size = os.path.getsize(path)
    body = size - len(HEADER)
    if body <= 0:
        raise ValueError(f"stream {path!r} has no chunks to corrupt")
    digest = hashlib.sha256(f"{kind}:{seed}".encode()).digest()
    if kind == "flip_byte":
        offset = len(HEADER) + int.from_bytes(digest[:4], "big") % body
        with open(path, "rb+") as handle:
            handle.seek(offset)
            byte = handle.read(1)[0]
            handle.seek(offset)
            handle.write(bytes([byte ^ (1 << (digest[4] % 8))]))
        return {"kind": kind, "offset": offset}
    if kind == "truncate":
        keep = len(HEADER) + int.from_bytes(digest[:4], "big") % body
        with open(path, "rb+") as handle:
            handle.truncate(keep)
        return {"kind": kind, "size": keep}
    # garbage_append
    noise = hashlib.sha256(f"noise:{seed}".encode()).digest() * 4
    with open(path, "ab") as handle:
        handle.write(noise)
    return {"kind": kind, "appended": len(noise)}
