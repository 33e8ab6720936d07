"""The crash-safe campaign journal: a write-ahead :class:`~repro.ioutil.AppendLog`.

The supervisor appends one record *before* the action it describes
takes effect: a ``start`` record before a worker launches, a ``result``
record as soon as its outcome is known.  Replay (:func:`load_journal`)
is what makes ``--resume`` safe after a crash of the supervisor itself.

Record types::

    {"type":"meta","version":2,"cells":N}
    {"type":"start","cell":ID,"attempt":K}
    {"type":"result","cell":ID,"attempt":K,"outcome":...,"ok":...,
     "status":...,"summary":...,"error":...,"duration_s":...}
    {"type":"interrupt","completed":N}

The ``meta`` record doubles as the schema-version header: replaying a
journal whose declared version is *newer* than this build raises
:class:`~repro.errors.JournalVersionError` up front, so ``--resume``
against a future-format journal fails with one clear message instead
of a ``KeyError`` halfway through records it cannot interpret.  Older
versions load fine (the format only ever gains record types and
outcome values).

Only the supervisor process writes the journal; workers report through
a pipe, so an orphaned worker can never corrupt it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.errors import JournalVersionError
from repro.ioutil import AppendLog

#: Version 2 added the fabric outcomes (``short_circuited``,
#: ``cancelled``, ``stuck``) and made the meta record an enforced
#: schema-version header.
JOURNAL_VERSION = 2

#: Outcomes that settle a cell: re-running cannot improve on them.
#: ``ok``/``partial`` degraded gracefully; ``degraded`` completed under
#: a memory budget (deterministic ladder, so a retry would only degrade
#: again); ``error`` is a deterministic failure that would reproduce;
#: ``short_circuited`` was refused by an open circuit breaker whose
#: class already failed deterministically often enough to prove itself.
TERMINAL_OUTCOMES = frozenset({"ok", "partial", "degraded", "error",
                               "short_circuited"})
#: Transient outcomes worth retrying (and re-running on resume).
#: ``stuck`` -- alive but silent past the heartbeat stall window -- is
#: transient like ``timeout``: the wedge may be a scheduling accident.
RETRYABLE_OUTCOMES = frozenset({"crash", "timeout", "oom", "stuck"})
#: Outcomes that mean "the campaign stopped, not the cell": never
#: retried in-run, re-run by ``--resume``.
RESUMABLE_OUTCOMES = frozenset({"interrupted", "cancelled", "pending"})


def cell_payload(
    outcome: str,
    summary: str,
    error: Optional[str] = None,
    *,
    ok: bool = False,
    status: Optional[str] = None,
    **extra,
) -> dict:
    """The outcome of one cell, as a worker reports it and a ``result`` logs it.

    Every settled cell is described by this one shape, whichever side
    classified it: the worker (a completed run, ``timeout``, ``oom``,
    ``error``) or the supervisor (``crash``, ``stuck``, a parent-side
    ``timeout``, ``short_circuited``, ``cancelled``, ``interrupted``,
    ``pending``).  ``status`` defaults to ``outcome``; ``extra`` keys
    (``duration_s``, ``archive``, ...) follow the five fixed ones.
    """
    return {
        "outcome": outcome,
        "ok": ok,
        "status": outcome if status is None else status,
        "summary": summary,
        "error": error,
        **extra,
    }


class Journal(AppendLog):
    """Append-only writer.  Every record hits the disk before we act."""

    def record(self, entry: dict) -> None:
        self.append(entry)

    # Convenience constructors for the record types -------------------
    def meta(self, n_cells: int) -> None:
        self.record({"type": "meta", "version": JOURNAL_VERSION, "cells": n_cells})

    def start(self, cell_id: str, attempt: int) -> None:
        self.record({"type": "start", "cell": cell_id, "attempt": attempt})

    def result(self, cell_id: str, attempt: int, payload: dict) -> None:
        entry = {"type": "result", "cell": cell_id, "attempt": attempt}
        entry.update(payload)
        self.record(entry)

    def interrupt(self, completed: int) -> None:
        self.record({"type": "interrupt", "completed": completed})


@dataclass
class JournalState:
    """What a replayed journal says about each cell."""

    #: cell -> its most recent ``result`` record
    results: Dict[str, dict] = field(default_factory=dict)
    #: cell -> number of ``start`` records (attempts ever launched)
    attempts: Dict[str, int] = field(default_factory=dict)
    #: lines that failed to parse (a crash mid-append leaves at most 1)
    skipped_lines: int = 0
    interrupted: bool = False

    @property
    def completed(self) -> Set[str]:
        """Cells whose latest outcome is terminal -- skipped on resume."""
        return {
            cell
            for cell, record in self.results.items()
            if record.get("outcome") in TERMINAL_OUTCOMES
        }


def load_journal(path: str) -> JournalState:
    """Replay a journal; torn or corrupt lines count in ``skipped_lines``.

    Corruption never makes resume refuse to run -- the worst case is
    re-running a cell.  The one deliberate refusal is a ``meta`` header
    declaring a *newer* schema version than this build writes: that
    raises :class:`~repro.errors.JournalVersionError` instead of
    guessing at records this code predates.
    """
    entries, skipped = AppendLog(path).read()
    state = JournalState(skipped_lines=skipped)
    for entry in entries:
        kind = entry.get("type")
        if kind == "meta":
            version = entry.get("version")
            if not isinstance(version, int) or version > JOURNAL_VERSION:
                raise JournalVersionError(version, JOURNAL_VERSION)
        elif kind == "start":
            cell = entry.get("cell")
            state.attempts[cell] = max(
                state.attempts.get(cell, 0), int(entry.get("attempt", 0))
            )
        elif kind == "result":
            cell = entry.get("cell")
            state.results[cell] = entry
        elif kind == "interrupt":
            state.interrupted = True
    return state
