"""Executes a :class:`~repro.faults.plan.FaultPlan` against one run.

Two independent attack surfaces, mirroring how real measurement stacks
fail:

* **Task faults** hit the simulated application: a victim task body
  raises :class:`~repro.errors.FaultInjectionError` mid-execution, or
  computes for a huge (virtual) duration so the region never finishes
  on time -- the bait for ``RuntimeConfig.watchdog_us``.
* **Stream faults** hit the recorded trace: events are dropped,
  duplicated, emitted out of order, time-shifted, or cut off entirely,
  while the live run itself stays healthy.  This models trace-buffer
  overruns and clock drift, and is applied at record time by the
  :class:`~repro.substrates.tracing.TracingSubstrate` the runtime hands
  the injector to.

Both surfaces draw from child RNGs of the plan seed, so the same plan
perturbs the same run identically every time.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Tuple

from repro.errors import FaultInjectionError
from repro.events.model import AnyEvent
from repro.faults.plan import FaultPlan
from repro.sim.rng import DeterministicRNG

#: Integer RNG salts (strings hash nondeterministically across processes).
_TASK_SALT = 101
_STREAM_SALT = 202


class FaultInjector:
    """One run's worth of seeded fault decisions."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        root = DeterministicRNG(plan.seed)
        self._task_rng = root.spawn(_TASK_SALT)
        self._stream_rng = root.spawn(_STREAM_SALT)
        self._task_faults = 0
        self._recorded = 0
        #: per-thread event withheld for reordering (emitted one event late)
        self._held: Dict[int, AnyEvent] = {}
        self.stats = {
            "tasks_failed": 0,
            "tasks_stuck": 0,
            "events_dropped": 0,
            "events_duplicated": 0,
            "events_reordered": 0,
            "events_skewed": 0,
            "events_truncated": 0,
        }

    # ------------------------------------------------------------------
    # Task faults (called by OpenMPRuntime.new_task / WorkerThread)
    # ------------------------------------------------------------------
    def on_new_task(self, task) -> None:
        """Decide this instance's fate; sets ``task.injected_fault``."""
        plan = self.plan
        if self._task_faults >= plan.max_task_faults:
            return
        roll = self._task_rng.uniform(0.0, 1.0)
        if roll < plan.task_exception_rate:
            task.injected_fault = "exception"
            self._task_faults += 1
        elif roll < plan.task_exception_rate + plan.stuck_task_rate:
            task.injected_fault = "stuck"
            self._task_faults += 1

    def faulty_body(self, ctx, task):
        """Replacement generator body for a victim task instance."""
        if task.injected_fault == "stuck":
            self.stats["tasks_stuck"] += 1
            # One enormous (but finite) compute: the simulation never
            # wall-clock-hangs, the watchdog deadline simply passes first.
            yield ctx.compute(self.plan.stuck_duration_us)
            return
        self.stats["tasks_failed"] += 1
        yield ctx.compute(1.0)
        raise FaultInjectionError(
            f"injected failure in task instance {task.instance_id} "
            f"({task.region.name!r}), plan seed {self.plan.seed}"
        )

    # ------------------------------------------------------------------
    # Stream faults (called by the tracing substrate)
    # ------------------------------------------------------------------
    def on_record(self, event: AnyEvent) -> Tuple[AnyEvent, ...]:
        """Map one recorded event to the events actually stored."""
        plan = self.plan
        rng = self._stream_rng
        thread_id = event.thread_id
        self._recorded += 1
        if plan.truncate_after is not None and self._recorded > plan.truncate_after:
            self.stats["events_truncated"] += 1
            # A truncated stream also abandons any held events.
            self._held.pop(thread_id, None)
            return ()
        out: List[AnyEvent] = []
        held = self._held.pop(thread_id, None)
        if plan.drop_rate and rng.uniform(0.0, 1.0) < plan.drop_rate:
            self.stats["events_dropped"] += 1
        else:
            if plan.clock_skew_rate and rng.uniform(0.0, 1.0) < plan.clock_skew_rate:
                skew = rng.uniform(-plan.clock_skew_us, plan.clock_skew_us)
                event = replace(event, time=max(0.0, event.time + skew))
                self.stats["events_skewed"] += 1
            if (
                held is None
                and plan.reorder_rate
                and rng.uniform(0.0, 1.0) < plan.reorder_rate
            ):
                # Withhold this event; it re-emerges after the thread's
                # next event, i.e. the two swap places in the stream.
                self._held[thread_id] = event
                self.stats["events_reordered"] += 1
                event = None
            if event is not None:
                out.append(event)
                if plan.duplicate_rate and rng.uniform(0.0, 1.0) < plan.duplicate_rate:
                    out.append(event)
                    self.stats["events_duplicated"] += 1
        if held is not None:
            out.append(held)
        return tuple(out)

    def drain(self) -> List[AnyEvent]:
        """Events still withheld for reordering at end of run."""
        held = [self._held[k] for k in sorted(self._held)]
        self._held.clear()
        return held

    # ------------------------------------------------------------------
    def summary(self) -> str:
        touched = {k: v for k, v in self.stats.items() if v}
        if not touched:
            return f"{self.plan.describe()}: nothing fired"
        body = ", ".join(f"{k}={v}" for k, v in sorted(touched.items()))
        return f"{self.plan.describe()}: {body}"
