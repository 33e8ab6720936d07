"""The statistics substrate: cheap per-type / per-thread event counts.

The lightest useful substrate: it keeps counters, nothing else.  Its
artifact feeds the overhead analysis
(:func:`repro.analysis.overhead.event_cost_attribution`): once you know
how many events of each kind each thread produced, a per-event cost
turns directly into an attributable per-kind / per-thread overhead
breakdown (paper Section V).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional

from repro.events.batch import (
    INST_SHIFT,
    K_ENTER,
    K_METRIC,
    KIND_MASK,
    KIND_NAMES,
    RID_MASK,
    RID_SHIFT,
    TID_MASK,
    TID_SHIFT,
    EventBatch,
)
from repro.events.regions import Region, RegionRegistry
from repro.substrates.base import Substrate

#: Keeps a packed code's kind, payload flag, thread and region bits: the
#: task-instance id above them never changes a count.
_KEY_MASK = (1 << INST_SHIFT) - 1


class StatsSubstrate(Substrate):
    """Counts events per kind, per thread, and enters per region type."""

    name = "stats"
    essential = False

    def __init__(self, per_event_cost: float = 0.0) -> None:
        self.per_event_cost = per_event_cost
        self.n_threads = 0
        self.per_thread: List[int] = []
        self.per_kind: Dict[str, int] = dict.fromkeys(KIND_NAMES, 0)
        #: enter events per region type (the exit mirrors the enter, so
        #: counting one side keeps region visits un-double-counted)
        self.per_region_type: Dict[str, int] = {}

    def initialize(
        self,
        registry: RegionRegistry,
        n_threads: int,
        start_time: float,
        implicit_region: Optional[Region] = None,
    ) -> None:
        self.n_threads = n_threads
        self.per_thread = [0] * n_threads

    # -- native columnar consume ----------------------------------------
    def on_batch(self, batch: EventBatch) -> None:
        """Native batch consume: one counting pass, no per-event Python.

        ``Counter`` tallies the codes with the instance bits masked off in
        one C-level pass; the few distinct (kind, payload flag, thread,
        region) keys then fold into the per-kind, per-thread (metric rows
        excluded -- metrics piggyback on an existing event boundary and
        are not per-thread traffic) and enter per-region-type counts.
        """
        per_kind = self.per_kind
        per_thread = self.per_thread
        per_region_type = self.per_region_type
        for key, count in Counter(map(_KEY_MASK.__and__, batch.codes)).items():
            kind = key & KIND_MASK
            per_kind[KIND_NAMES[kind]] += count
            if kind == K_METRIC:
                continue
            per_thread[(key >> TID_SHIFT) & TID_MASK] += count
            if kind == K_ENTER:
                region = batch.registry.lookup((key >> RID_SHIFT) & RID_MASK)
                rtype = region.region_type.value
                per_region_type[rtype] = per_region_type.get(rtype, 0) + count

    # ------------------------------------------------------------------
    @property
    def total_events(self) -> int:
        """Cost-bearing events (everything except piggybacked metrics)."""
        return sum(
            count for kind, count in self.per_kind.items() if kind != "metric"
        )

    def artifact(self) -> dict:
        return {
            "total_events": self.total_events,
            "per_thread": list(self.per_thread),
            "per_kind": dict(self.per_kind),
            "per_region_type": dict(sorted(self.per_region_type.items())),
        }
