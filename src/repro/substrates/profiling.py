"""The profiling substrate: the paper's Fig. 12 profiler as a substrate.

Wraps :class:`~repro.profiling.task_profiler.TaskProfiler`, built at
:meth:`initialize`; each batch and phase marker is passed straight to
the profiler's own columnar consume.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import SubstrateError
from repro.events.batch import EventBatch
from repro.events.regions import Region, RegionRegistry
from repro.profiling.profile import Profile
from repro.profiling.task_profiler import TaskProfiler
from repro.substrates.base import Substrate


class ProfilingSubstrate(Substrate):
    """Task-aware call-path profiling (the run's ``profile`` artifact).

    Essential and strict: a :class:`~repro.errors.ProfileError` from an
    inconsistent event stream aborts the run.  Damaged runs are salvaged
    offline by a lenient profiler (:mod:`repro.faults.campaign`,
    :mod:`repro.recorder.salvage`), never live.
    """

    name = "profiling"
    essential = True

    def __init__(
        self,
        max_call_path_depth: Optional[int] = None,
        per_event_cost: float = 0.0,
        governor=None,
    ) -> None:
        self.max_call_path_depth = max_call_path_depth
        self.per_event_cost = per_event_cost
        #: armed :class:`~repro.governor.ResourceGovernor`; the runtime
        #: injects its own when a memory budget is configured
        self.governor = governor
        self.profiler: Optional[TaskProfiler] = None
        self._profile: Optional[Profile] = None

    def initialize(
        self,
        registry: RegionRegistry,
        n_threads: int,
        start_time: float,
        implicit_region: Optional[Region] = None,
    ) -> None:
        if implicit_region is None:
            raise SubstrateError(
                "profiling substrate needs the run's implicit region handle"
            )
        profiler = TaskProfiler(
            n_threads,
            implicit_region,
            start_time=start_time,
            max_call_path_depth=self.max_call_path_depth,
            governor=self.governor,
        )
        self.profiler = profiler

    def on_batch(self, batch: EventBatch) -> None:
        self.profiler.on_batch(batch)

    def on_phase_begin(self, name: str) -> None:
        self.profiler.on_phase_begin(name)

    def on_phase_end(self, name: str) -> None:
        self.profiler.on_phase_end(name)

    def finalize(self, time: float) -> None:
        if self.profiler is not None:
            self.profiler.on_finish(time)

    def artifact(self) -> Optional[Profile]:
        """The built :class:`~repro.profiling.profile.Profile` (cached)."""
        if self._profile is None and self.profiler is not None and self.profiler.finished:
            self._profile = self.profiler.build_profile()
        return self._profile
