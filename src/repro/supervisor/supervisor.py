"""The crash-safe run supervisor.

Executes a grid of :class:`~repro.supervisor.spec.RunSpec` cells in
isolated worker subprocesses (``--jobs`` at a time), each under a
wall-clock deadline enforced twice -- ``SIGALRM`` inside the worker,
kill-from-parent as the backstop -- with bounded retry + exponential
backoff for transient outcomes (``crash``/``timeout``/``oom``/``stuck``;
a deterministic ``error`` is never retried), journaling every attempt
write-ahead to an fsync'd JSONL file so that a SIGKILL of any worker
*or of the supervisor itself* loses at most the in-flight cells:
``resume=True`` replays the journal, emits completed cells from it, and
re-runs only the rest.  ``KeyboardInterrupt`` drains workers, flushes
the journal, and returns the partial results instead of losing them.

A cell's outcome has one shape and one settle path.  Every outcome,
whether the worker classified it or the parent did (``crash``,
``stuck``, a parent-side ``timeout``, a breaker refusal, a cancel, an
interrupt), is a :func:`~repro.supervisor.journal.cell_payload`.  A
retried attempt's payload is only journaled; a cell's final one goes
through :meth:`Supervisor._settle`, which puts the cell's
:class:`CellResult` in the result table and then journals the payload,
in that order on every path.  Resume rebuilds the result from the
journaled record with :meth:`CellResult.from_record`.

Workers are forked once per job slot and reused for the cells of one
:meth:`Supervisor.run`, so a cell does not pay for a fresh fork and a
cold copy-on-write heap.  A worker that reports a completed cell
(``ok``/``partial``/``degraded``) goes back to the idle set; any other
outcome, a crash, a stall or a kill retires it, so the next cell -- and
every retry -- gets a fresh process.  Idle workers are sent an exit
sentinel and joined when ``run()`` ends, on every path out of it.
Kernels load lazily (:mod:`repro.bots.registry`), so ``run()`` imports
the kernel of each fault cell before the first fork, and no worker pays
for that import (numpy, for some) on its first cell.

On top of that crash-safety core sit the fabric layers
(:mod:`repro.fabric`), each optional and inert by default:

* **heartbeats** (``heartbeat_s``): workers pulse liveness records over
  the result pipe; a worker whose beats stop while its process lives is
  classified ``stuck`` (vs ``timeout`` for slow-but-beating) and
  escalated SIGTERM then SIGKILL.
* **circuit breakers** (``breaker=BreakerPolicy(...)``): cells sharing
  a :meth:`~repro.supervisor.spec.RunSpec.class_key` that fail
  ``threshold`` times consecutively are short-circuited -- journaled
  terminal ``short_circuited`` without launching -- until a half-open
  probe cell proves the class healthy again.
* **admission control** (``admission=AdmissionPolicy(...)``): the
  backlog drains through a bounded queue with block/reject/shed
  overload policies and per-tag quotas; rejected or shed cells are
  journaled ``cancelled`` (resumable), not lost.
* **campaign deadline** (``deadline_s``): when the budget expires the
  supervisor stops launching, lets running cells finish, and journals
  everything still queued as ``cancelled`` -- the grid stays
  ``--resume``-able.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from typing import Dict, List, Optional, Sequence

from repro.fabric.admission import AdmissionController, AdmissionPolicy
from repro.fabric.breaker import BreakerPolicy, CircuitBreaker
from repro.fabric.heartbeat import (
    DEFAULT_STALL_FACTOR,
    LivenessTracker,
    is_heartbeat,
)
from repro.supervisor.backoff import BackoffPolicy
from repro.supervisor.journal import (
    RETRYABLE_OUTCOMES,
    TERMINAL_OUTCOMES,
    Journal,
    JournalState,
    cell_payload,
    load_journal,
)
from repro.supervisor.spec import RunSpec, check_unique_cell_ids
from repro.supervisor.worker import worker_loop

#: outcomes of a cell that ran to completion in its worker; only these
#: hand the worker back for the next cell
_COMPLETED_OUTCOMES = frozenset({"ok", "partial", "degraded"})


@dataclass
class CellResult:
    """Final word on one cell, after retries and/or resume."""

    cell_id: str
    #: ok | partial | degraded | error | timeout | crash | oom | stuck |
    #: short_circuited | cancelled | interrupted | pending
    outcome: str
    ok: bool
    status: str
    summary: str
    attempts: int = 1
    error: Optional[str] = None
    duration_s: float = 0.0
    #: True when replayed from the journal instead of re-executed
    cached: bool = False

    @classmethod
    def from_record(
        cls, cell_id: str, record: dict, attempts: int, cached: bool = False
    ) -> "CellResult":
        """The result a :func:`~repro.supervisor.journal.cell_payload`
        (or the journal ``result`` record built from one) describes."""
        return cls(
            cell_id=cell_id,
            outcome=record.get("outcome", "ok"),
            ok=bool(record.get("ok", False)),
            status=record.get("status", ""),
            summary=record.get("summary", ""),
            attempts=attempts,
            error=record.get("error"),
            duration_s=float(record.get("duration_s", 0.0)),
            cached=cached,
        )


class _SigtermDrain(BaseException):
    """Raised by the supervisor's SIGTERM handler to enter the drain path.

    Derives from ``BaseException`` (like ``KeyboardInterrupt``) so no
    ``except Exception`` in the launch loop can swallow it: a SIGTERM
    must always reach the drain logic that journals the partial state.
    """


@dataclass
class SupervisorReport:
    """Everything one supervisor invocation produced."""

    results: List[CellResult] = field(default_factory=list)
    interrupted: bool = False
    #: True when the interrupt was a SIGTERM (orchestrator-initiated
    #: drain) rather than a Ctrl-C; callers exit 143 instead of 130
    terminated: bool = False
    #: True when the campaign deadline expired and queued cells were
    #: journaled as ``cancelled``
    deadline_hit: bool = False
    #: per-class circuit-breaker state at the end of the run
    breaker_summary: Dict[str, dict] = field(default_factory=dict)
    #: admission-controller counters (None when admission was off)
    admission_stats: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return not self.interrupted and all(r.ok for r in self.results)

    def result_for(self, cell_id: str) -> Optional[CellResult]:
        for result in self.results:
            if result.cell_id == cell_id:
                return result
        return None


@dataclass
class _Running:
    spec: RunSpec
    attempt: int  # global attempt number (monotone across resumes)
    round: int  # attempt number within THIS invocation's retry budget
    proc: object
    conn: object
    started: float
    deadline: Optional[float]
    limit: Optional[float]
    #: this launch is a half-open circuit-breaker probe
    probe: bool = False


class Supervisor:
    """Run a spec grid to completion, surviving everything short of the
    journal's filesystem disappearing."""

    def __init__(
        self,
        specs: Sequence[RunSpec],
        *,
        jobs: int = 1,
        timeout_s: Optional[float] = None,
        retries: int = 1,
        backoff: Optional[BackoffPolicy] = None,
        journal_path: Optional[str] = None,
        resume: bool = False,
        start_method: Optional[str] = None,
        heartbeat_s: Optional[float] = None,
        stall_factor: float = DEFAULT_STALL_FACTOR,
        deadline_s: Optional[float] = None,
        breaker: Optional[BreakerPolicy] = None,
        admission: Optional[AdmissionPolicy] = None,
    ):
        self.specs = list(specs)
        check_unique_cell_ids(self.specs)
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {timeout_s!r}")
        if heartbeat_s is not None and heartbeat_s <= 0:
            raise ValueError(f"heartbeat_s must be positive, got {heartbeat_s!r}")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, got {deadline_s!r}")
        self.jobs = jobs
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self.journal_path = journal_path
        self.resume = resume
        self.heartbeat_s = heartbeat_s
        self.stall_factor = stall_factor
        self.deadline_s = deadline_s
        self.breaker_policy = breaker
        self.admission_policy = admission
        if start_method is None:
            start_method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else None
            )
        self._ctx = multiprocessing.get_context(start_method)
        #: ``(proc, conn)`` of live workers waiting for their next cell
        self._idle: List[tuple] = []

    # ------------------------------------------------------------------
    def run(self) -> SupervisorReport:
        journal = Journal(self.journal_path) if self.journal_path else None
        state = (
            load_journal(self.journal_path)
            if self.resume and self.journal_path
            else JournalState()
        )
        _preload_kernels(
            spec for spec in self.specs if spec.cell_id not in state.completed
        )
        results: Dict[str, CellResult] = {}
        attempts_seen: Dict[str, int] = dict(state.attempts)
        backlog = deque()  # fresh cells awaiting admission
        pending = deque()  # (spec, global_attempt, round): ready to launch
        delayed: List[tuple] = []  # (due_monotonic, spec, global_attempt, round)
        running: List[_Running] = []
        interrupted = False
        terminated = False
        deadline_hit = False

        # SIGTERM parity with Ctrl-C: drain workers, journal the partial
        # table, stay resumable.  An orchestrator (systemd, a container
        # runtime, the campaign gateway) stopping a supervised run must
        # not lose more than the in-flight cells.  Installable only from
        # the main thread; elsewhere the parent-kill path still applies.
        previous_sigterm = None
        sigterm_installed = False
        if threading.current_thread() is threading.main_thread():
            def _on_sigterm(_signum, _frame):
                raise _SigtermDrain()

            try:
                previous_sigterm = signal.signal(signal.SIGTERM, _on_sigterm)
                sigterm_installed = True
            except (ValueError, OSError):  # pragma: no cover - exotic host
                pass

        breaker = (
            CircuitBreaker(self.breaker_policy) if self.breaker_policy else None
        )
        admission = (
            AdmissionController(self.admission_policy)
            if self.admission_policy
            else None
        )
        liveness = (
            LivenessTracker(self.heartbeat_s, self.stall_factor)
            if self.heartbeat_s
            else None
        )
        deadline_at = (
            time.monotonic() + self.deadline_s if self.deadline_s else None
        )

        completed = state.completed
        for spec in self.specs:
            if spec.cell_id in completed:
                # A cell with no ``start`` record never launched (the
                # breaker or a cancel settled it): it replays 0 attempts.
                results[spec.cell_id] = CellResult.from_record(
                    spec.cell_id,
                    state.results[spec.cell_id],
                    attempts_seen.get(spec.cell_id, 0),
                    cached=True,
                )
            else:
                item = (spec, attempts_seen.get(spec.cell_id, 0) + 1, 1)
                (backlog if admission is not None else pending).append(item)

        if journal is not None:
            journal.meta(len(self.specs))
        try:
            while backlog or pending or delayed or running or (
                admission is not None and len(admission)
            ):
                now = time.monotonic()
                if deadline_at is not None and not deadline_hit and now >= deadline_at:
                    deadline_hit = True
                    self._cancel_queued(
                        journal,
                        results,
                        self._drain_queues(backlog, pending, delayed, admission),
                        f"campaign deadline of {self.deadline_s:g} s expired "
                        f"before this cell started (re-run with --resume)",
                    )
                if delayed:
                    due = [entry for entry in delayed if entry[0] <= now]
                    delayed = [entry for entry in delayed if entry[0] > now]
                    for _, spec, attempt, rnd in due:
                        pending.append((spec, attempt, rnd))
                if admission is not None:
                    self._feed_admission(admission, backlog, journal, results)
                while len(running) < self.jobs:
                    item = self._take_next(pending, admission)
                    if item is None:
                        break
                    spec, attempt, rnd = item
                    decision = (
                        breaker.admit(spec.class_key()) if breaker else "run"
                    )
                    if decision == "short_circuit":
                        self._finalize_short_circuit(
                            journal, results, breaker, spec, attempt
                        )
                        continue
                    entry = self._launch(
                        journal, spec, attempt, rnd, probe=decision == "probe"
                    )
                    running.append(entry)
                    attempts_seen[spec.cell_id] = attempt
                    if liveness is not None:
                        liveness.started(spec.cell_id, now=entry.started)
                if not running:
                    if delayed:
                        next_due = min(entry[0] for entry in delayed)
                        time.sleep(min(0.05, max(0.0, next_due - time.monotonic())))
                    elif backlog or (admission is not None and len(admission)):
                        time.sleep(0.005)  # admission hysteresis re-check
                    continue
                self._poll(
                    running,
                    journal,
                    results,
                    delayed,
                    attempts_seen,
                    liveness=liveness,
                    breaker=breaker,
                    no_retries=deadline_hit,
                )
        except (KeyboardInterrupt, _SigtermDrain) as exc:
            interrupted = True
            terminated = isinstance(exc, _SigtermDrain)
            self._drain(running, journal, results, terminated=terminated)
        finally:
            if sigterm_installed:
                signal.signal(signal.SIGTERM, previous_sigterm)
            while self._idle:
                self._reap(*self._idle.pop())

        if interrupted:
            for spec in self.specs:
                if spec.cell_id not in results:
                    results[spec.cell_id] = CellResult.from_record(
                        spec.cell_id,
                        cell_payload(
                            "pending",
                            "not started before the interrupt "
                            "(re-run with --resume)",
                        ),
                        attempts_seen.get(spec.cell_id, 0),
                    )
        ordered = [
            results[spec.cell_id] for spec in self.specs if spec.cell_id in results
        ]
        return SupervisorReport(
            results=ordered,
            interrupted=interrupted,
            terminated=terminated,
            deadline_hit=deadline_hit,
            breaker_summary=breaker.summary() if breaker is not None else {},
            admission_stats=(
                admission.stats.to_dict() if admission is not None else None
            ),
        )

    # ------------------------------------------------------------------
    # Queue plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _take_next(pending: deque, admission: Optional[AdmissionController]):
        """Next launchable item: retries first, then the admitted queue."""
        if pending:
            return pending.popleft()
        if admission is not None:
            popped = admission.pop()
            if popped is not None:
                return popped[0]
        return None

    def _feed_admission(
        self,
        admission: AdmissionController,
        backlog: deque,
        journal: Optional[Journal],
        results: Dict[str, CellResult],
    ) -> None:
        """Drain the backlog through the admission controller.

        ``deferred`` items stay in the backlog (the block policy applied
        to a batch grid is pure pacing -- they are re-offered once the
        queue drains past the low watermark); ``rejected`` and shed
        items become resumable ``cancelled`` results, not lost cells.
        """
        leftover = deque()
        while backlog:
            item = backlog.popleft()
            verdict, shed = admission.offer(item, tag=item[0].admission_tag)
            if verdict == "deferred":
                leftover.append(item)
            elif verdict == "rejected":
                self._cancel_queued(
                    journal,
                    results,
                    [item],
                    "rejected by admission control: pending queue at its "
                    "high watermark (re-run with --resume)",
                )
            for victim, _tag in shed:
                self._cancel_queued(
                    journal,
                    results,
                    [victim],
                    "shed by admission control to admit fresher work "
                    "(re-run with --resume)",
                )
        backlog.extend(leftover)

    @staticmethod
    def _drain_queues(
        backlog: deque,
        pending: deque,
        delayed: List[tuple],
        admission: Optional[AdmissionController],
    ) -> List[tuple]:
        """Empty every not-yet-running queue; returns the drained items."""
        items = list(backlog) + list(pending)
        backlog.clear()
        pending.clear()
        items.extend((spec, attempt, rnd) for _, spec, attempt, rnd in delayed)
        delayed.clear()
        if admission is not None:
            while True:
                popped = admission.pop()
                if popped is None:
                    break
                items.append(popped[0])
        return items

    def _cancel_queued(
        self,
        journal: Optional[Journal],
        results: Dict[str, CellResult],
        items: Sequence[tuple],
        reason: str,
    ) -> None:
        """Journal queued-but-never-launched cells as ``cancelled``.

        ``cancelled`` is resumable, not terminal: a later ``--resume``
        re-runs exactly these cells and replays everything else.
        """
        for spec, attempt, _rnd in items:
            payload = cell_payload("cancelled", reason, duration_s=0.0)
            # this attempt never launched
            self._settle(journal, results, spec, attempt, payload, attempt - 1)

    def _finalize_short_circuit(
        self,
        journal: Optional[Journal],
        results: Dict[str, CellResult],
        breaker: CircuitBreaker,
        spec: RunSpec,
        attempt: int,
    ) -> None:
        """Refuse a cell of an open class without launching a worker."""
        state = breaker.state_of(spec.class_key())
        reason = (
            f"short-circuited: class {spec.class_key()} is open after "
            f"{state.consecutive_failures} consecutive "
            f"{state.last_failure or 'failure'}(s); no worker launched"
        )
        payload = cell_payload(
            "short_circuited",
            reason,
            f"ShortCircuited: {state.last_failure or 'failure'}",
            duration_s=0.0,
        )
        # refused before launching
        self._settle(journal, results, spec, attempt, payload, attempt - 1)

    @staticmethod
    def _settle(
        journal: Optional[Journal],
        results: Dict[str, CellResult],
        spec: RunSpec,
        attempt: int,
        payload: dict,
        attempts: int,
    ) -> None:
        """Settle a cell: its final result first, then its journal record.

        The result table is filled before the append, so a Ctrl-C
        landing inside the append cannot drop a settled cell from the
        partial table.  ``attempt`` numbers the journal record;
        ``attempts`` is the count the result reports (one less than
        ``attempt`` for a cell refused before launching).
        """
        results[spec.cell_id] = CellResult.from_record(
            spec.cell_id, payload, attempts
        )
        if journal is not None:
            journal.result(spec.cell_id, attempt, payload)

    # ------------------------------------------------------------------
    def _launch(
        self,
        journal: Optional[Journal],
        spec: RunSpec,
        attempt: int,
        rnd: int,
        probe: bool = False,
    ) -> _Running:
        limit = spec.wall_timeout_s if spec.wall_timeout_s is not None else self.timeout_s
        if journal is not None:
            journal.start(spec.cell_id, attempt)  # write-ahead
        started = time.monotonic()
        proc, conn = self._hand_off((spec.to_dict(), limit))
        # The parent-side deadline is a backstop behind the worker's own
        # SIGALRM, so it gets a grace period on top of the limit.
        deadline = None
        if limit is not None:
            deadline = started + limit + max(0.5, 0.25 * limit)
        return _Running(
            spec=spec,
            attempt=attempt,
            round=rnd,
            proc=proc,
            conn=conn,
            started=started,
            deadline=deadline,
            limit=limit,
            probe=probe,
        )

    def _hand_off(self, job: tuple) -> tuple:
        """Send ``job`` to an idle live worker, forking one if none is left.

        Returns the worker's ``(proc, conn)``.  An idle worker that died
        while waiting (an OOM kill, a stray signal) is reaped here rather
        than charged to the cell it would have run.
        """
        while self._idle:
            proc, conn = self._idle.pop()
            if proc.is_alive():
                try:
                    conn.send(job)
                    return proc, conn
                except OSError:
                    pass
            self._reap(proc, conn)
        conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=worker_loop,
            args=(child_conn, conn, self.heartbeat_s),
            name="repro-worker",
            daemon=True,
        )
        proc.start()
        child_conn.close()  # child's end; keeping it open would mask EOF
        try:
            conn.send(job)
        except OSError:  # died at birth: the poll classifies the crash
            pass
        return proc, conn

    def _poll(
        self,
        running: List[_Running],
        journal: Optional[Journal],
        results: Dict[str, CellResult],
        delayed: List[tuple],
        attempts_seen: Dict[str, int],
        liveness: Optional[LivenessTracker] = None,
        breaker: Optional[CircuitBreaker] = None,
        no_retries: bool = False,
    ) -> None:
        now = time.monotonic()
        wait_s = 0.1
        for entry in running:
            if entry.deadline is not None:
                wait_s = min(wait_s, max(0.0, entry.deadline - now))
        handles = [r.conn for r in running] + [r.proc.sentinel for r in running]
        connection_wait(handles, timeout=wait_s)
        now = time.monotonic()

        finished: List[tuple] = []
        for entry in running:
            payload = self._receive(entry, liveness, now)
            if payload is not None:
                if (
                    payload.get("outcome") in _COMPLETED_OUTCOMES
                    and entry.proc.is_alive()
                ):
                    self._idle.append((entry.proc, entry.conn))
                else:
                    self._reap(entry.proc, entry.conn)
                finished.append((entry, payload))
            elif not entry.proc.is_alive():
                # The worker may have sent its result and exited between
                # the drain above and this liveness check: drain once
                # more before declaring a crash.
                payload = self._receive(entry, liveness, now)
                self._reap(entry.proc, entry.conn)
                finished.append(
                    (entry, payload if payload is not None else self._crash_payload(entry))
                )
            elif (
                liveness is not None
                and liveness.stalled(entry.spec.cell_id, now)
            ):
                silent = liveness.silent_for(entry.spec.cell_id, now)
                self._kill(entry)  # SIGTERM first, SIGKILL if ignored
                finished.append(
                    (
                        entry,
                        cell_payload(
                            "stuck",
                            f"worker alive but silent for {silent:.1f} s "
                            f"(heartbeat interval {self.heartbeat_s:g} s); "
                            f"escalated SIGTERM then SIGKILL",
                            "WorkerStuck: heartbeats stopped",
                        ),
                    )
                )
            elif entry.deadline is not None and now >= entry.deadline:
                self._kill(entry)
                finished.append(
                    (
                        entry,
                        cell_payload(
                            "timeout",
                            f"worker exceeded its wall-clock limit of "
                            f"{entry.limit:g} s and was killed",
                            "WallClockTimeout: killed by supervisor",
                        ),
                    )
                )

        for entry, payload in finished:
            running.remove(entry)
            if liveness is not None:
                liveness.forget(entry.spec.cell_id)
            payload = dict(payload)
            payload.pop("type", None)  # worker tags results when beating
            payload.setdefault("outcome", "error")
            payload.setdefault("ok", False)
            payload.setdefault("status", payload["outcome"])
            payload.setdefault("summary", "")
            payload.setdefault("error", None)
            payload["duration_s"] = round(time.monotonic() - entry.started, 6)
            retryable = payload["outcome"] in RETRYABLE_OUTCOMES
            will_retry = (
                retryable and not no_retries and entry.round < self.retries + 1
            )
            if will_retry:
                # A retried attempt is journaled, not settled: the cell
                # stays open until its last attempt.
                if journal is not None:
                    journal.result(entry.spec.cell_id, entry.attempt, payload)
                delay = self.backoff.delay(entry.round, key=entry.spec.cell_id)
                delayed.append(
                    (
                        time.monotonic() + delay,
                        entry.spec,
                        entry.attempt + 1,
                        entry.round + 1,
                    )
                )
            else:
                # Terminal failure of a worker that died without handing
                # back a profile: salvage what its recording preserved.
                from repro.supervisor.salvage import (
                    SALVAGEABLE_OUTCOMES,
                    attempt_cell_salvage,
                )

                if payload["outcome"] in SALVAGEABLE_OUTCOMES:
                    salvage = attempt_cell_salvage(
                        entry.spec, payload["outcome"]
                    )
                    if salvage is not None:
                        payload["salvage"] = salvage
                        if "error" not in salvage:
                            payload["summary"] = (
                                f"{payload['summary']}; salvaged "
                                f"{salvage['records']} recorded events "
                                f"from {salvage['source']}"
                            ).lstrip("; ")
                self._settle(
                    journal, results, entry.spec, entry.attempt, payload,
                    entry.attempt,
                )
            if breaker is not None:
                breaker.record(
                    entry.spec.class_key(), payload["outcome"], probe=entry.probe
                )

    @staticmethod
    def _receive(
        entry: _Running, liveness: Optional[LivenessTracker], now: float
    ) -> Optional[dict]:
        """Drain the pipe: fold heartbeats into liveness, return a result.

        Heartbeats and the final payload share one pipe, so several
        records may be queued by the time we poll; everything that is
        not a heartbeat is the worker's result.
        """
        try:
            while entry.conn.poll():
                message = entry.conn.recv()
                if is_heartbeat(message):
                    if liveness is not None:
                        liveness.beat(entry.spec.cell_id, now=now)
                    continue
                return message
        except (EOFError, OSError):
            pass
        return None

    @staticmethod
    def _crash_payload(entry: _Running) -> dict:
        code = entry.proc.exitcode
        if code is not None and code < 0:
            try:
                reason = f"signal {signal.Signals(-code).name}"
            except ValueError:  # pragma: no cover - unknown signal number
                reason = f"signal {-code}"
        else:
            reason = f"exit code {code}"
        return cell_payload(
            "crash",
            f"worker died ({reason}) without reporting a result",
            f"WorkerCrash: {reason}",
        )

    @staticmethod
    def _reap(proc, conn) -> None:
        """Retire a worker: send a live one the exit sentinel, then join."""
        if proc.is_alive():
            try:
                conn.send(None)
            except OSError:  # already gone
                pass
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass
        proc.join(timeout=5.0)
        if proc.is_alive():  # pragma: no cover - wedged after result
            proc.kill()
            proc.join(timeout=5.0)

    @staticmethod
    def _kill(entry: _Running) -> None:
        entry.proc.terminate()
        entry.proc.join(timeout=0.5)
        if entry.proc.is_alive():
            entry.proc.kill()
            entry.proc.join(timeout=5.0)
        try:
            entry.conn.close()
        except OSError:  # pragma: no cover
            pass

    def _drain(
        self,
        running: List[_Running],
        journal: Optional[Journal],
        results: Dict[str, CellResult],
        terminated: bool = False,
    ) -> None:
        """Ctrl-C/SIGTERM: stop workers, journal partial state, keep results."""
        previous = None
        previous_term = None
        in_main = threading.current_thread() is threading.main_thread()
        if in_main:  # a second Ctrl-C/SIGTERM must not break the cleanup
            previous = signal.signal(signal.SIGINT, signal.SIG_IGN)
            try:
                previous_term = signal.signal(signal.SIGTERM, signal.SIG_IGN)
            except (ValueError, OSError):  # pragma: no cover - exotic host
                previous_term = None
        cause = "SIGTERM" if terminated else "KeyboardInterrupt"
        try:
            for entry in running:
                self._kill(entry)
                payload = cell_payload(
                    "interrupted",
                    f"killed by {cause} mid-attempt (re-run with --resume)",
                    cause,
                    duration_s=round(time.monotonic() - entry.started, 6),
                )
                self._settle(
                    journal, results, entry.spec, entry.attempt, payload,
                    entry.attempt,
                )
            running.clear()
            if journal is not None:
                completed = sum(
                    1 for r in results.values() if r.outcome in TERMINAL_OUTCOMES
                )
                journal.interrupt(completed)
        finally:
            if in_main:
                signal.signal(signal.SIGINT, previous)
                if previous_term is not None:
                    signal.signal(signal.SIGTERM, previous_term)


def _preload_kernels(specs) -> None:
    """Import the kernel of every fault cell here, before the first fork.

    Forked workers, and every later cell of a reused one, inherit the
    module (and numpy, for the kernels that use it) instead of each fresh
    worker importing it on its first cell.  An unknown app is skipped: it
    fails inside its own cell as an ``error`` result.  ``call`` targets
    are still imported inside the worker.
    """
    from repro.bots.registry import list_programs, load_kernel

    known = list_programs()
    for spec in specs:
        app = spec.params.get("app") if spec.kind == "fault" else None
        if app in known:
            load_kernel(app)


def run_supervised(specs: Sequence[RunSpec], **kwargs) -> SupervisorReport:
    """One-shot convenience: build a :class:`Supervisor` and run it."""
    return Supervisor(specs, **kwargs).run()


def outcome_table(report: SupervisorReport) -> str:
    """Fixed-width per-cell outcome table (attempts, salvage status)."""
    lines = [
        f"{'cell':<28} {'outcome':<12} {'att':>3}  summary",
        "-" * 78,
    ]
    for r in report.results:
        cached = " (cached)" if r.cached else ""
        lines.append(
            f"{r.cell_id:<28} {r.outcome:<12} {r.attempts:>3}  {r.summary}{cached}"
        )
    ok = sum(1 for r in report.results if r.ok)
    cached = sum(1 for r in report.results if r.cached)
    retried = sum(1 for r in report.results if not r.cached and r.attempts > 1)
    lines.append("-" * 78)
    lines.append(
        f"{ok}/{len(report.results)} cells ok "
        f"({cached} replayed from journal, {retried} retried)"
    )
    fabric_counts = [
        f"{count} {name}"
        for name in ("short_circuited", "cancelled", "stuck")
        if (count := sum(1 for r in report.results if r.outcome == name))
    ]
    if fabric_counts:
        lines.append("fabric: " + ", ".join(fabric_counts))
    open_classes = {
        key: state
        for key, state in report.breaker_summary.items()
        if state.get("state") in ("open", "half_open")
    }
    if open_classes:
        lines.append(
            "breaker: "
            + "; ".join(
                f"{key} {state['state']} "
                f"(last failure: {state.get('last_failure') or '?'})"
                for key, state in sorted(open_classes.items())
            )
        )
    if report.deadline_hit:
        lines.append(
            "campaign deadline hit: queued cells journaled as cancelled; "
            "re-run with --resume to finish the grid"
        )
    if report.interrupted:
        cause = "terminated (SIGTERM)" if report.terminated else "interrupted"
        lines.append(
            f"campaign {cause}: completed cells are journaled; "
            "re-run with --resume to finish the grid"
        )
    return "\n".join(lines)
