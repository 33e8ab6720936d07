"""Deliberately misbehaving cells for supervisor self-tests.

The fault-injection framework (:mod:`repro.faults`) breaks *simulated*
runs; these stubs break the *host process* -- the failure modes only a
process-isolated supervisor can contain.  They are ``call``-kind spec
targets (``repro.supervisor.stubs:<name>``) used by the test suite and
the CI kill-and-resume smoke job; none of them is imported by
production code paths.
"""

from __future__ import annotations

import os
import signal
import time


def ok_cell(value: int = 0) -> dict:
    """Completes immediately."""
    return {"summary": f"ok (value={value})"}


def pid_cell() -> dict:
    """Completes immediately, reporting the worker process that ran it."""
    return {"pid": os.getpid()}


def sleep_cell(wall_s: float = 0.2) -> dict:
    """Completes after ``wall_s`` real seconds (resume-test pacing)."""
    time.sleep(wall_s)
    return {"summary": f"slept {wall_s:g} s"}


def busy_cell() -> dict:  # pragma: no cover - killed by the watchdog
    """A kernel stuck in host Python: burns CPU, never advances virtual
    time, so only the wall-clock watchdog can stop it."""
    while True:
        pass


def crash_cell(sig: int = signal.SIGKILL) -> dict:  # pragma: no cover
    """Dies by signal without reporting -- the parent classifies it."""
    os.kill(os.getpid(), sig)
    time.sleep(60)  # never reached; belt for non-fatal signals
    return {"summary": "unreachable"}


def error_cell(message: str = "deterministic failure") -> dict:
    """Raises the same exception every attempt (must NOT be retried)."""
    raise ValueError(message)


def oom_cell() -> dict:
    """Simulates an allocation failure (retryable ``oom`` outcome)."""
    raise MemoryError("simulated allocation failure")


def stalled_cell(grace_s: float = 60.0) -> dict:  # pragma: no cover
    """Alive but silent: SIGSTOPs itself.

    A stopped process defeats every cooperative watchdog -- SIGALRM is
    queued but never delivered, heartbeat threads freeze with the rest
    of the process -- yet ``is_alive()`` stays True.  Only the parent's
    heartbeat-stall detection can classify this as ``stuck``, and only
    SIGKILL (which needs no handler to run) can clear it.
    """
    os.kill(os.getpid(), signal.SIGSTOP)
    time.sleep(grace_s)  # reached only if something SIGCONTs us
    return {"summary": "resumed from SIGSTOP"}


def crash_while_missing(marker: str) -> dict:
    """Crashes until ``marker`` exists -- a whole *class* gone bad.

    Unlike :func:`flaky_cell` (one cell, transient), every cell calling
    this with the same marker crashes until the file appears: the shape
    a circuit breaker opens on, and -- once a test creates the marker --
    the shape a half-open probe re-closes on.
    """
    if os.path.exists(marker):
        return {"summary": "class recovered"}
    os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(60)  # pragma: no cover - never reached
    return {"summary": "unreachable"}  # pragma: no cover


def crash_until_attempts(scratch: str, need: int = 3) -> dict:
    """Crashes until ``need`` attempts have been burned on the class.

    Every attempt drops a unique file into ``scratch`` before
    SIGKILLing itself; once the directory holds ``need`` corpses the
    class "recovers".  Lets a test script the exact launch count at
    which a half-open probe will find the class healthy again.
    """
    import tempfile

    os.makedirs(scratch, exist_ok=True)
    if len(os.listdir(scratch)) >= need:
        return {"summary": "class recovered"}
    fd, _path = tempfile.mkstemp(dir=scratch)
    os.close(fd)
    os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(60)  # pragma: no cover - never reached
    return {"summary": "unreachable"}  # pragma: no cover


def flaky_cell(marker: str) -> dict:
    """Crashes on the first attempt, succeeds on the next.

    ``marker`` is a scratch-file path: its absence means "first
    attempt", in which case the cell leaves the marker and SIGKILLs
    itself -- exactly the transient-failure shape retry-with-backoff
    exists for.
    """
    if os.path.exists(marker):
        return {"summary": "recovered on retry"}
    with open(marker, "w", encoding="utf-8") as handle:
        handle.write(str(os.getpid()))
    os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(60)  # pragma: no cover - never reached
    return {"summary": "unreachable"}  # pragma: no cover
