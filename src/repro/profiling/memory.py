"""Concurrent task-instance accounting (paper Section V-B, Table II).

"we maintain a counter for the current number of task trees per thread and
store the counter's maximum value for each parallel region."

:class:`ConcurrencyTracker` is that counter.  The runtime notifies it of
parallel-region boundaries (phases); the task profiler notifies it when an
instance tree is created (task begins execution -- *not* when the task is
created) and when it is merged away (task completes).
"""

from __future__ import annotations

from typing import Dict, Optional

#: Synthetic phase name instances begun outside any parallel region are
#: attributed to, so ``phase_max`` never under-reads ``overall_max``.
NO_PHASE = "<no-phase>"


class ConcurrencyTracker:
    """Per-thread counter of live task-instance trees with per-phase maxima."""

    __slots__ = ("current", "overall_max", "_phase", "phase_max", "total_instances")

    def __init__(self) -> None:
        #: number of instance trees currently alive on this thread
        self.current: int = 0
        #: maximum ever observed
        self.overall_max: int = 0
        self._phase: Optional[str] = None
        #: phase name -> maximum concurrent instance trees within the phase
        self.phase_max: Dict[str, int] = {}
        #: total instances ever begun on this thread
        self.total_instances: int = 0

    # ------------------------------------------------------------------
    def start_phase(self, name: str) -> None:
        """Begin a measurement phase (one parallel region)."""
        self._phase = name
        self.phase_max.setdefault(name, 0)

    def end_phase(self) -> None:
        self._phase = None

    # ------------------------------------------------------------------
    def instance_created(self) -> None:
        self.current += 1
        self.total_instances += 1
        if self.current > self.overall_max:
            self.overall_max = self.current
        # Outside a phase the maximum is still recorded, under a synthetic
        # name: max(phase_max.values()) must never under-read overall_max
        # (governor watermarks are computed from it).
        phase = self._phase if self._phase is not None else NO_PHASE
        if self.current > self.phase_max.get(phase, 0):
            self.phase_max[phase] = self.current

    def instance_completed(self) -> None:
        if self.current <= 0:
            raise ValueError("instance_completed with no live instances")
        self.current -= 1

    def as_dict(self) -> dict:
        return {
            "overall_max": self.overall_max,
            "total_instances": self.total_instances,
            "phase_max": dict(self.phase_max),
        }
