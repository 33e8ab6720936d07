"""The online-validation substrate: stream checks *during* execution.

The post-hoc validators (:mod:`repro.events.validate`) need a recorded
trace; this substrate runs the same task-aware consistency rules
*streaming*, feeding the records of each
:class:`~repro.events.batch.EventBatch` (the batch's one shared decode,
:meth:`~repro.events.batch.EventBatch.records`) into the
:class:`~repro.events.validate.TraceClosure` the whole-trace validator
walks too: per-thread checkers over one shared instance table,
as the task profiler keeps it, so an untied instance may open a region on
one thread and close it after resuming on another; per-thread time order;
one TaskBegin and one TaskEnd per instance.  No trace is retained -- memory
stays O(active instances), which is exactly why real measurement systems
validate online instead of post-mortem.
"""
from __future__ import annotations

from collections import Counter
from typing import List, Optional

from repro.events.batch import EventBatch
from repro.events.model import implicit_instance_id
from repro.events.regions import Region, RegionRegistry
from repro.events.validate import TraceClosure, Violation
from repro.substrates.base import Substrate


class OnlineValidationSubstrate(Substrate):
    """Task-aware stream validation, online.  Artifact: a violations report.

    ``max_recorded`` bounds how many violations are *kept* (memory guard
    for a badly corrupted run); all of them are still counted per kind.
    """

    name = "validation"
    essential = False

    def __init__(self, max_recorded: int = 200, per_event_cost: float = 0.0) -> None:
        self.max_recorded = max_recorded
        self.per_event_cost = per_event_cost
        self.violations: List[Violation] = []
        self.violation_counts: Counter = Counter()
        self.events_checked = 0
        self._closure = TraceClosure(0)
        self._current: List[int] = []

    def initialize(
        self,
        registry: RegionRegistry,
        n_threads: int,
        start_time: float,
        implicit_region: Optional[Region] = None,
    ) -> None:
        self._closure = TraceClosure(n_threads)
        self._current = [implicit_instance_id(t) for t in range(n_threads)]

    # ------------------------------------------------------------------
    def _note(self, violations) -> None:
        for violation in violations:
            self.violation_counts[violation.kind] += 1
            if len(self.violations) < self.max_recorded:
                self.violations.append(violation)

    def on_batch(self, batch: EventBatch) -> None:
        """Feed each of the batch's records into the checks.

        An enter/exit is attributed to the instance its thread last began
        or switched to, as the tracing substrate records it.  Metric rows
        carry no task structure and are skipped.
        """
        feed = self._closure.feed
        checkers = self._closure.checkers
        current = self._current
        for rec in batch.records():
            kind = rec[0]
            if kind == "enter" or kind == "exit":
                tid = rec[1]
                violations = feed(checkers[tid], rec[2], kind, rec[3], 0, current[tid])
            elif kind == "metric":
                continue
            else:
                tid = rec[1]
                instance = rec[3] if kind == "task_switch" else rec[4]
                violations = feed(checkers[tid], rec[2], kind, None, instance, instance)
                current[tid] = implicit_instance_id(tid) if kind == "task_end" else instance
            if violations:
                self._note(violations)
        self.events_checked += batch.counted

    # ------------------------------------------------------------------
    def finalize(self, time: float) -> None:
        """Cross-thread closure checks (begin/end counts program-wide)."""
        self._note(self._closure.finish())

    @property
    def total_violations(self) -> int:
        return sum(self.violation_counts.values())

    @property
    def clean(self) -> bool:
        return self.total_violations == 0

    def artifact(self) -> dict:
        return {
            "events_checked": self.events_checked,
            "violations": self.total_violations,
            "by_kind": dict(sorted(self.violation_counts.items())),
            "first": [str(v) for v in self.violations[:20]],
            "clean": self.clean,
        }
