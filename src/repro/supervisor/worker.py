"""The supervised worker: run :class:`RunSpec` cells in a child process.

The worker is the isolation boundary.  One worker process serves one
job slot of one :meth:`~repro.supervisor.supervisor.Supervisor.run`:
:func:`worker_loop` receives ``(spec_dict, wall_timeout_s)`` over a
duplex pipe, runs the cell, sends the payload back and waits for the
next spec, so a warm process is not forked (and its copy-on-write heap
not re-faulted) per cell.  The parent retires the worker after any
outcome that is not a completed cell (``ok``/``partial``/``degraded``);
every retry therefore still runs in a fresh process.

The worker enforces the *wall-clock*
watchdog (``RuntimeConfig.wall_timeout_s`` / ``RunSpec.wall_timeout_s``)
with ``SIGALRM``, which the in-process runtime cannot do -- a kernel
busy-looping in host Python never advances virtual time, so the
virtual-time ``watchdog_us`` never fires, and only a signal (or the
parent killing the process) gets control back.  Every failure is folded
into a small JSON-able payload with an ``outcome``:

====================  =============================================
outcome               meaning
====================  =============================================
``ok``                cell completed, healthy
``partial``           cell completed degraded (salvaged profile)
``degraded``          cell completed under memory pressure (governor
                      ladder engaged; deterministic, never retried)
``error``             deterministic failure -- never retried
``timeout``           wall-clock limit hit, heartbeats still flowing
                      (slow, not dead; retried)
``oom``               ``MemoryError`` (retried)
``crash``             the process died; classified by the *parent*
``stuck``             alive but heartbeats stopped; classified by the
                      *parent*, escalated SIGTERM then SIGKILL
                      (retried)
``short_circuited``   never launched: an open circuit breaker refused
                      the cell's class (terminal; parent-side)
``cancelled``         never launched: the campaign deadline expired
                      (parent-side; re-run with ``--resume``)
====================  =============================================

Heartbeats: when the parent asks for them (``heartbeat_s``), a daemon
thread sends a tiny ``{"type": "heartbeat"}`` record over the result
pipe every interval.  The SIGALRM watchdog above can be defeated by
native or signal-masked code; heartbeats cannot be *faked* by such
code, only stopped -- which is exactly the signal the parent needs to
tell a wedged worker from a slow one.

``degraded`` is deliberately distinct from ``oom``: an out-of-memory
*kill* is transient (another attempt may fit), while a governor-degraded
run is the deterministic product of its memory budget -- retrying it
would only reproduce the same ladder walk, so the partial-but-honest
profile is kept and no retry is consumed.
"""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager
from typing import Any, Dict

from repro.errors import ReproError, WallClockTimeout
from repro.supervisor.spec import RunSpec, spec_from_dict


@contextmanager
def wall_clock_guard(seconds):
    """Raise :class:`WallClockTimeout` after ``seconds`` of real time.

    A no-op when ``seconds`` is None/0, when ``SIGALRM`` does not exist
    (Windows), or off the main thread (signals cannot be delivered
    there); the parent-side kill remains the backstop in those cases.
    """
    usable = (
        seconds
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _fire(_signum, _frame):
        raise WallClockTimeout(
            f"wall-clock limit of {seconds:g} s exceeded (virtual-time "
            f"watchdog cannot catch a kernel stuck without advancing "
            f"virtual µs)"
        )

    previous = signal.signal(signal.SIGALRM, _fire)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------
# Spec dispatch
# ----------------------------------------------------------------------
def _run_fault_cell(params: Dict[str, Any]) -> dict:
    from repro.faults.campaign import DEFAULT_WATCHDOG_US, run_tolerant
    from repro.faults.plan import plan_for_mode

    mode = params.get("mode", "none")
    plan = None if mode in (None, "none") else plan_for_mode(mode, seed=params["seed"])
    watchdog_us = params.get("watchdog_us")
    outcome = run_tolerant(
        params["app"],
        size=params.get("size", "test"),
        n_threads=params.get("n_threads", 2),
        seed=params.get("seed", 0),
        plan=plan,
        watchdog_us=DEFAULT_WATCHDOG_US if watchdog_us is None else watchdog_us,
        substrates=params.get("substrates"),
        record_dir=params.get("record_dir"),
        checkpoint_every=params.get("checkpoint_every"),
    )
    summary = (
        outcome.salvage.summary()
        if outcome.salvage is not None
        else "profile complete: no salvage needed"
    )
    if outcome.degraded:
        kind = "degraded"
    elif outcome.status == "complete":
        kind = "ok"
    else:
        kind = "partial"
    payload = {
        "outcome": kind,
        "ok": outcome.ok,
        "status": outcome.status,
        "summary": summary,
        "error": outcome.error,
    }
    archive_dir = params.get("archive_dir")
    if archive_dir and outcome.profile is not None:
        payload["archive"] = _archive_outcome(archive_dir, outcome, params)
    return payload


def _archive_outcome(archive_dir: str, outcome, params: Dict[str, Any]) -> dict:
    """Archive a fault cell's profile; never fails the cell itself.

    The store's index writes are lock-serialized, so parallel workers
    (``--jobs``) archiving simultaneously is safe.  An archive failure
    is reported in the payload but does not change the cell outcome --
    losing a profile copy must not look like losing the run.
    """
    from repro.archive import ArchiveStore, meta_for_outcome

    mode = params.get("mode", "none")
    tags = (f"mode:{mode}",) if mode not in (None, "none") else ()
    tags += tuple(params.get("archive_tags") or ())
    try:
        record = ArchiveStore(archive_dir).put(
            outcome.profile,
            meta_for_outcome(
                outcome,
                size=params.get("size", "test"),
                variant=params.get("variant", "optimized"),
                seed=params.get("seed", 0),
                tags=tags,
                source="supervisor",
            ),
        )
    except Exception as exc:  # pragma: no cover - disk-full etc.
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {
        "run_id": record.run_id,
        "sha256": record.sha256,
        "deduplicated": record.deduplicated,
    }


def _run_call_cell(params: Dict[str, Any]) -> dict:
    import importlib

    target = params["target"]
    module_name, _, attr = target.partition(":")
    if not module_name or not attr:
        raise ValueError(
            f"call target must look like 'pkg.module:function', got {target!r}"
        )
    fn = getattr(importlib.import_module(module_name), attr)
    value = fn(**params.get("kwargs", {}))
    payload = {
        "outcome": "ok",
        "ok": True,
        "status": "complete",
        "summary": f"{target} returned",
        "error": None,
    }
    if isinstance(value, dict):
        payload.update(value)
    return payload


_DISPATCH = {"fault": _run_fault_cell, "call": _run_call_cell}


def execute_spec(spec: RunSpec, wall_timeout_s=None) -> dict:
    """Run one spec to a result payload; never raises (except Ctrl-C).

    ``wall_timeout_s`` is the effective limit (the spec's own, or the
    supervisor default the parent passed down).
    """
    try:
        with wall_clock_guard(wall_timeout_s):
            return _DISPATCH[spec.kind](spec.params)
    except WallClockTimeout as exc:
        return {
            "outcome": "timeout",
            "ok": False,
            "status": "timeout",
            "summary": str(exc),
            "error": f"WallClockTimeout: {exc}",
        }
    except MemoryError as exc:
        return {
            "outcome": "oom",
            "ok": False,
            "status": "oom",
            "summary": "worker ran out of memory",
            "error": f"MemoryError: {exc}",
        }
    except KeyboardInterrupt:
        raise
    except (ReproError, Exception) as exc:  # deterministic: not retried
        return {
            "outcome": "error",
            "ok": False,
            "status": "error",
            "summary": f"{type(exc).__name__}: {exc}",
            "error": f"{type(exc).__name__}: {exc}",
        }


def _start_heartbeats(conn, send_lock, interval_s):
    """Start the heartbeat daemon thread; returns its stop event.

    The thread shares the result pipe with the main thread, so every
    send -- beats here, the final payload in :func:`_run_cell` --
    holds ``send_lock``; ``Connection.send`` is not atomic across
    threads and an interleaved pickle would tear the stream.
    """
    from repro.fabric.heartbeat import heartbeat_message

    stop = threading.Event()

    def _pulse() -> None:
        seq = 0
        while not stop.wait(interval_s):
            seq += 1
            try:
                with send_lock:
                    if stop.is_set():  # result already sent; pipe is done
                        return
                    conn.send(heartbeat_message(seq))
            except (BrokenPipeError, OSError):  # parent died; nothing to tell
                return

    thread = threading.Thread(target=_pulse, name="repro-heartbeat", daemon=True)
    thread.start()
    return stop


def worker_loop(conn, parent_conn, heartbeat_s=None) -> None:
    """Subprocess entry point: run specs from ``conn`` until EOF or ``None``.

    ``parent_conn`` is the supervisor's end of the same pipe; a forked
    child inherits it and closes it first, so that once the supervisor
    is gone (even SIGKILLed) the next ``recv`` sees EOF and the worker
    exits after its current cell instead of waiting forever.

    SIGINT is ignored so a terminal Ctrl-C (delivered to the whole
    process group) reaches only the supervisor, which then drains its
    workers deliberately via SIGTERM and journals the partial state.
    """
    parent_conn.close()
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        # A forked worker inherits the supervisor's SIGTERM drain
        # handler; restore the default so the parent's drain TERM kills
        # the worker cleanly instead of raising the parent's sentinel.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):  # supervisor closed or died
            return
        if job is None:
            return
        spec_dict, wall_timeout_s = job
        if not _run_cell(conn, spec_dict, wall_timeout_s, heartbeat_s):
            return


def _run_cell(conn, spec_dict: dict, wall_timeout_s, heartbeat_s) -> bool:
    """Run one spec and send its payload; False when the pipe is gone.

    When ``heartbeat_s`` is set, a daemon thread pulses liveness records
    over the pipe while the spec runs; the final result is sent under
    the same lock, tagged ``{"type": "result", ...}`` so the parent can
    split the streams.  The thread stops before the result is sent, so
    no beat of this cell can trail its result into the next one.
    """
    send_lock = threading.Lock()
    stop = _start_heartbeats(conn, send_lock, heartbeat_s) if heartbeat_s else None
    payload = execute_spec(spec_from_dict(spec_dict), wall_timeout_s)
    try:
        with send_lock:
            if stop is not None:
                stop.set()
                payload = dict(payload, type="result")
            conn.send(payload)
    except (BrokenPipeError, OSError):  # parent died
        return False
    return True
