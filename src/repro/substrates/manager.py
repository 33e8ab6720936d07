"""The substrate manager: one listener fanning out to many substrates.

The :class:`~repro.instrument.layer.InstrumentationLayer` hands every
flushed :class:`~repro.events.batch.EventBatch` to *one* listener, and
that listener is the manager driving every attached substrate (the
Score-P substrate architecture): :meth:`SubstrateManager.on_batch`
fans each batch out, ``on_phase_*`` the phase markers, and
:meth:`SubstrateManager.on_finish` finalizes.

Two responsibilities beyond fan-out:

* **Graceful degradation.**  An exception from a non-essential
  substrate's callback does not kill the run: the substrate is
  *quarantined* (detached from further dispatch) and the incident is
  recorded as a :class:`SubstrateIncident` -- the runtime surfaces those
  through the PR-1 salvage machinery (`profile.salvage` notes).
  Essential substrates (the profiler, the tracer) keep the historical
  strict behavior: their exceptions propagate.

* **Per-consumer overhead accounting.**  Each substrate declares its own
  ``per_event_cost``; :attr:`extra_cost_per_event` is the sum the
  instrumentation layer charges on top of its base cost, and
  :meth:`report` breaks the charged virtual time down per substrate
  (paper Section V made attributable per consumer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Type

from repro.errors import SubstrateError
from repro.events.regions import Region, RegionRegistry
from repro.substrates.base import Substrate


@dataclass(frozen=True)
class SubstrateIncident:
    """One quarantine event: which substrate broke, where, and how."""

    substrate: str
    callback: str
    error: str
    #: how many events the manager had delivered when the substrate broke
    events_delivered: int

    def __str__(self) -> str:
        return (
            f"substrate {self.substrate!r} quarantined in {self.callback} "
            f"after {self.events_delivered} event(s): {self.error}"
        )


def _overrides(substrate: Substrate, hook: str) -> bool:
    """Whether ``substrate``'s class replaces the base no-op ``hook``."""
    return getattr(type(substrate), hook) is not getattr(Substrate, hook)


class SubstrateManager:
    """Drives a set of substrates through one run (the layer's listener)."""

    def __init__(self, substrates: Sequence[Substrate]) -> None:
        names = [s.name for s in substrates]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SubstrateError(
                f"duplicate substrate name(s) in one manager: {', '.join(dupes)}"
            )
        #: every attached substrate, in attachment order (fixed for life)
        self.substrates: List[Substrate] = list(substrates)
        #: the substrates still receiving events (shrinks on quarantine)
        self._active: List[Substrate] = list(self.substrates)
        self.incidents: List[SubstrateIncident] = []
        #: events fanned out so far (enter/exit/task lifecycle; metrics and
        #: phase markers piggyback and are not counted, mirroring
        #: ``InstrumentationLayer.events_dispatched``)
        self.events_delivered = 0
        self._finalized = False
        self._rebuild_dispatch()

    def _rebuild_dispatch(self) -> None:
        """Target lists for each dispatch, skipping inherited no-ops.

        Substrates never rebind their hooks, so the tables are built from
        the classes at construction and rebuilt only after a quarantine.
        """
        active = self._active
        self._targets_on_batch = [s for s in active if _overrides(s, "on_batch")]
        self._targets_after_batch = [s for s in active if _overrides(s, "after_batch")]
        self._targets_on_phase_begin = [
            s for s in active if _overrides(s, "on_phase_begin")
        ]
        self._targets_on_phase_end = [
            s for s in active if _overrides(s, "on_phase_end")
        ]
        # The per-event charge is cached here and re-derived on any
        # dispatch rebuild (construction, quarantine).  The sum
        # spans *all attached* substrates -- per the documented contract a
        # quarantine invalidates the cache but never lowers the charge.
        self._extra_cost_per_event = float(
            sum(s.per_event_cost for s in self.substrates)
        )

    # ------------------------------------------------------------------
    @property
    def extra_cost_per_event(self) -> float:
        """Summed per-event cost of all attached substrates.

        Fixed at attachment time (quarantining a substrate does not
        retroactively lower the charge -- the cost model is part of the
        virtual timeline and must stay deterministic).  The value is
        cached by :meth:`_rebuild_dispatch`; reading it is a field load,
        not a per-event re-summation.
        """
        return self._extra_cost_per_event

    def find(self, cls: Type[Substrate]) -> Optional[Substrate]:
        """The first attached substrate of this class, or ``None``."""
        for substrate in self.substrates:
            if isinstance(substrate, cls):
                return substrate
        return None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def initialize(
        self,
        registry: RegionRegistry,
        n_threads: int,
        start_time: float,
        implicit_region: Optional[Region] = None,
    ) -> None:
        """Initialize every substrate.  Initialization errors always
        propagate -- a substrate that cannot even start is a configuration
        problem, not a mid-run measurement glitch to degrade around."""
        for substrate in self._active:
            substrate.initialize(registry, n_threads, start_time, implicit_region)

    def artifacts(self) -> Dict[str, Any]:
        """``{name: artifact}`` for every attached substrate.

        Quarantined substrates are asked too (their partial artifact can
        still be useful); an artifact() that itself raises yields ``None``.
        """
        out: Dict[str, Any] = {}
        for substrate in self.substrates:
            try:
                out[substrate.name] = substrate.artifact()
            except Exception:
                out[substrate.name] = None
        return out

    def report(self) -> Dict[str, dict]:
        """Per-substrate dispatch/overhead accounting.

        ``events`` is how many events the substrate actually received:
        none when its class does not override ``on_batch`` (the fan-out
        skips it), the count at quarantine for a quarantined one.
        ``charged_us`` is the virtual time its declared
        ``per_event_cost`` charged to the run: every delivered event pays
        it, since the charge is fixed at attachment and never drops.
        """
        by_name = {i.substrate: i for i in self.incidents}
        out: Dict[str, dict] = {}
        for substrate in self.substrates:
            incident = by_name.get(substrate.name)
            if not _overrides(substrate, "on_batch"):
                events = 0
            elif incident is not None:
                events = incident.events_delivered
            else:
                events = self.events_delivered
            out[substrate.name] = {
                "events": events,
                "per_event_cost": substrate.per_event_cost,
                "charged_us": self.events_delivered * substrate.per_event_cost,
                "essential": substrate.essential,
                "quarantined": incident is not None,
                "error": incident.error if incident is not None else None,
            }
        return out

    # ------------------------------------------------------------------
    def _quarantine(self, substrate: Substrate, callback: str, exc: Exception) -> None:
        self.incidents.append(
            SubstrateIncident(
                substrate=substrate.name,
                callback=callback,
                error=f"{type(exc).__name__}: {exc}",
                events_delivered=self.events_delivered,
            )
        )
        # Rebuild rather than remove-in-place: dispatch loops iterate a
        # snapshot of the old lists, so this is safe mid-fan-out.
        self._active = [s for s in self._active if s is not substrate]
        self._rebuild_dispatch()

    # ------------------------------------------------------------------
    # Listener protocol of the instrumentation layer
    # ------------------------------------------------------------------
    def on_phase_begin(self, name: str) -> None:
        for substrate in self._targets_on_phase_begin:
            try:
                substrate.on_phase_begin(name)
            except Exception as exc:
                if substrate.essential:
                    raise
                self._quarantine(substrate, "on_phase_begin", exc)

    def on_phase_end(self, name: str) -> None:
        for substrate in self._targets_on_phase_end:
            try:
                substrate.on_phase_end(name)
            except Exception as exc:
                if substrate.essential:
                    raise
                self._quarantine(substrate, "on_phase_end", exc)

    def on_batch(self, batch) -> None:
        """Fan one columnar batch out to every consuming substrate.

        One dispatch call per *flush*, with each substrate consuming the
        whole batch through its own ``on_batch``.
        Every substrate observes every event in stream order; the
        interleaving *between* substrates is per batch.  Once all have
        consumed the batch, ``after_batch`` runs: there, whatever the
        attachment order, every substrate has seen the same prefix.

        Quarantine semantics: an exception from a non-essential
        substrate quarantines it.  The incident's ``events_delivered`` is
        the post-batch count -- the batch is the granularity at which
        delivery is accounted.
        """
        self.events_delivered += batch.counted
        for substrate in self._targets_on_batch:
            try:
                substrate.on_batch(batch)
            except Exception as exc:
                if substrate.essential:
                    raise
                self._quarantine(substrate, "on_batch", exc)
        for substrate in self._targets_after_batch:
            try:
                substrate.after_batch(batch)
            except Exception as exc:
                if substrate.essential:
                    raise
                self._quarantine(substrate, "after_batch", exc)

    def on_finish(self, time: float) -> None:
        """End of measurement: finalize the still-active substrates.

        Quarantined substrates are *not* finalized -- they broke mid
        stream and their finalize would see inconsistent state; their
        incident record says why their artifact is partial.
        """
        if self._finalized:
            return
        self._finalized = True
        for substrate in self._active:
            try:
                substrate.finalize(time)
            except Exception as exc:
                if substrate.essential:
                    raise
                self._quarantine(substrate, "finalize", exc)
