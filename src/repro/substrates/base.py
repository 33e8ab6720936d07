"""The measurement-substrate lifecycle contract.

Score-P routes every measurement event through pluggable *substrates*
(the profiling substrate, the tracing substrate, plugin substrates);
event production is thereby decoupled from event consumption.  A
:class:`Substrate` is our analogue: a named consumer with a three-stage
lifecycle --

1. :meth:`initialize` -- called once, before the team starts, with the
   run's region registry, team size, virtual start time, and the implicit
   region handle.
2. event consumption -- the manager hands every flushed
   :class:`~repro.events.batch.EventBatch` to :meth:`on_batch`, events
   in virtual-time order per thread; that is the only way a substrate
   receives events, and it reads the batch's one shared decode,
   :meth:`~repro.events.batch.EventBatch.records`.  Phase
   markers arrive as :meth:`on_phase_begin` / :meth:`on_phase_end`;
   after every substrate has consumed a batch, each gets
   :meth:`after_batch`.
3. :meth:`finalize` -- called once with the region's virtual end time;
   afterwards :meth:`artifact` must return whatever the substrate
   produced (a :class:`~repro.profiling.profile.Profile`, a
   :class:`~repro.events.stream.ProgramTrace`, a statistics dict, ...).

Every hook defaults to a no-op, so a substrate overrides only what it
uses.  Substrates are attached to a run through
``RuntimeConfig(substrates=[...])`` (names resolved via the registry in
:mod:`repro.substrates.registry`, or instances passed directly) and are
driven by the :class:`~repro.substrates.manager.SubstrateManager`.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.events.batch import EventBatch
from repro.events.regions import Region, RegionRegistry


class Substrate:
    """Base class for measurement substrates (every hook defaults to a no-op).

    Class attributes subclasses are expected to override:

    ``name``
        Unique identifier; also the registry key and the key under which
        the substrate's artifact and overhead figures are reported.
    ``essential``
        If True, an exception from this substrate's callbacks aborts the
        run (like the built-in profiler always did); if False -- the
        default -- the manager *quarantines* the substrate: it stops
        receiving events, the incident is recorded, and the run finishes
        with every other substrate intact (PR-1 graceful degradation).
    ``per_event_cost``
        Extra virtual µs the executing thread pays per dispatched event
        *for this substrate*, on top of the base instrumentation cost.
        This is what makes overhead attributable per consumer (paper
        Section V): the manager sums the active substrates' costs into
        the instrumentation layer's per-event charge and reports the
        per-substrate share.
    """

    name: str = "substrate"
    essential: bool = False
    per_event_cost: float = 0.0

    # -- lifecycle ------------------------------------------------------
    def initialize(
        self,
        registry: RegionRegistry,
        n_threads: int,
        start_time: float,
        implicit_region: Optional[Region] = None,
    ) -> None:
        """Called once before the team starts executing."""

    def finalize(self, time: float) -> None:
        """Called once with the region's virtual end time."""

    def artifact(self) -> Any:
        """The substrate's product after :meth:`finalize` (or ``None``)."""
        return None

    # -- event consumption ----------------------------------------------
    def on_batch(self, batch: EventBatch) -> None:
        """Consume one columnar :class:`~repro.events.batch.EventBatch`.

        The one way a substrate receives events: read
        ``batch.records()``, the decode every consumer of the flush shares
        (:class:`~repro.substrates.validation.OnlineValidationSubstrate`
        walks it), and never mutate that list.  Only the task profiler (an
        inline loop a benchmark gates) and
        :class:`~repro.substrates.stats.StatsSubstrate` (one C-level
        counting pass) read the packed codes.  The base method is a
        no-op, and the manager skips a substrate that does not override
        it.  Exceptions escape to the manager, which quarantines or
        aborts per ``essential``.
        """

    def on_phase_begin(self, name: str) -> None:
        pass

    def on_phase_end(self, name: str) -> None:
        pass

    def after_batch(self, batch: EventBatch) -> None:
        """Called once every substrate has consumed ``batch``.

        All substrates then stand at the same event prefix, so a
        substrate that reads another's state (the recorder's checkpoint
        snapshots the profiler) does it here.
        """

    def __repr__(self) -> str:
        flags = []
        if self.essential:
            flags.append("essential")
        if self.per_event_cost:
            flags.append(f"cost={self.per_event_cost:g}us")
        suffix = f" ({', '.join(flags)})" if flags else ""
        return f"<{type(self).__name__} {self.name!r}{suffix}>"
