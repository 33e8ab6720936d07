"""Salvage accounting: how complete is a profile built from damaged input?

When the measurement stack runs in lenient mode it keeps going where the
strict paper algorithm would abort, but it must never *silently* present
a partial profile as a complete one.  :class:`SalvageReport` is the
ledger of everything the lenient path did -- events dropped, events
repaired, task instances quarantined -- and travels with the resulting
:class:`~repro.profiling.profile.Profile` through export and rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set


@dataclass
class SalvageReport:
    """Completeness ledger attached to a profile built in lenient mode."""

    #: listener events delivered to the lenient profiler
    events_seen: int = 0
    #: events the lenient profiler had to discard (inconsistent state)
    events_dropped: int = 0
    #: events synthesized or rewritten by :func:`repro.events.repair.repair_streams`
    events_repaired: int = 0
    #: task instances that ended cleanly and were merged into the profile
    instances_completed: int = 0
    #: task instances evicted because their event history was unrecoverable
    instances_quarantined: Set[int] = field(default_factory=set)
    #: human-readable notes, one per incident (violations, repairs, faults)
    notes: List[str] = field(default_factory=list)
    #: the run was stopped by the deadlock watchdog
    watchdog_fired: bool = False
    #: description of the fault plan that was armed, if any
    fault_summary: Optional[str] = None
    #: the error that aborted the live run, if it did not complete
    run_error: Optional[str] = None
    #: resource-governor ladder transitions (PressureIncident dicts, in
    #: order); non-empty whenever a memory budget forced degradation
    pressure_incidents: List[dict] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """True once the governor reduced fidelity (L2 aggregates-only+).

        L1 (eager pool release) changes only allocator behavior, not the
        numbers, so it does not mark the profile degraded.
        """
        return any(i.get("level", 0) >= 2 for i in self.pressure_incidents)

    @property
    def partial(self) -> bool:
        """True unless the profile is indistinguishable from a strict one."""
        return bool(
            self.events_dropped
            or self.events_repaired
            or self.instances_quarantined
            or self.watchdog_fired
            or self.run_error
            or self.degraded
        )

    def note(self, message: str) -> None:
        self.notes.append(message)

    def quarantine(self, instance: int, reason: str) -> None:
        self.instances_quarantined.add(instance)
        self.notes.append(f"quarantined instance {instance}: {reason}")

    def absorb_repair(self, log) -> None:
        """Fold a :class:`~repro.events.repair.RepairLog` into this report."""
        self.events_dropped += log.dropped
        self.events_repaired += log.synthesized + log.clamped
        self.instances_quarantined |= log.quarantined
        self.notes.extend(log.notes)

    # ------------------------------------------------------------------
    def summary(self) -> str:
        if not self.partial:
            return "profile complete: no salvage needed"
        bits = [
            f"{self.events_seen} events seen",
            f"{self.events_dropped} dropped",
            f"{self.events_repaired} repaired",
            f"{self.instances_completed} instances completed",
            f"{len(self.instances_quarantined)} quarantined",
        ]
        if self.watchdog_fired:
            bits.append("watchdog fired")
        if self.pressure_incidents:
            worst = max(i.get("level", 0) for i in self.pressure_incidents)
            bits.append(
                f"{len(self.pressure_incidents)} pressure incident(s), "
                f"degradation level L{worst}"
            )
        if self.run_error:
            bits.append(f"run aborted: {self.run_error}")
        return "partial profile (" + ", ".join(bits) + ")"

    # ------------------------------------------------------------------
    # Export round-trip (consumed by cube/export.py)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        out = {
            "events_seen": self.events_seen,
            "events_dropped": self.events_dropped,
            "events_repaired": self.events_repaired,
            "instances_completed": self.instances_completed,
            "instances_quarantined": sorted(self.instances_quarantined),
            "notes": list(self.notes),
            "watchdog_fired": self.watchdog_fired,
            "fault_summary": self.fault_summary,
            "run_error": self.run_error,
            "partial": self.partial,
        }
        # Conditional so exports from ungoverned runs stay byte-identical
        # to earlier builds.
        if self.pressure_incidents:
            out["pressure_incidents"] = [dict(i) for i in self.pressure_incidents]
            out["degraded"] = self.degraded
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SalvageReport":
        return cls(
            events_seen=data.get("events_seen", 0),
            events_dropped=data.get("events_dropped", 0),
            events_repaired=data.get("events_repaired", 0),
            instances_completed=data.get("instances_completed", 0),
            instances_quarantined=set(data.get("instances_quarantined", ())),
            notes=list(data.get("notes", ())),
            watchdog_fired=data.get("watchdog_fired", False),
            fault_summary=data.get("fault_summary"),
            run_error=data.get("run_error"),
            pressure_incidents=[dict(i) for i in data.get("pressure_incidents", ())],
        )
