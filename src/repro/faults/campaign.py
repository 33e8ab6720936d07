"""The salvage pipeline and seeded fault campaigns.

``run_tolerant`` is the graceful-degradation entry point: run a BOTS
kernel with (optionally) a fault plan armed, and *always* come back with
a profile -- the live one when the run was healthy, or a partial profile
rebuilt offline (repair the recorded event streams, feed them as one
event batch to a lenient
:class:`~repro.profiling.task_profiler.TaskProfiler`) when the
run crashed, hung, or produced a corrupt trace.  The attached
:class:`~repro.profiling.salvage.SalvageReport` says exactly how much
was lost.

``run_campaign`` sweeps corruption modes x seeds x kernels, asserting
the system-level property the paper's robustness argument needs: no
fault in the campaign grid ever produces an unhandled exception in
lenient mode.  In-process or supervised, it runs each cell of the
:func:`~repro.supervisor.spec.fault_grid` through
:func:`~repro.supervisor.worker.run_fault_cell` and builds each row
with :meth:`CampaignResult.of`, so the two paths agree cell by cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.bots.registry import get_program
from repro.errors import CampaignInterrupted, ReproError, WatchdogTimeout
from repro.events.batch import EventBatch
from repro.events.model import (
    EnterEvent,
    ExitEvent,
    TaskBeginEvent,
    TaskCreateBeginEvent,
    TaskCreateEndEvent,
    TaskEndEvent,
    TaskSwitchEvent,
)
from repro.events.regions import RegionType
from repro.events.repair import repair_streams
from repro.events.stream import ProgramTrace
from repro.events.validate import collect_trace_violations
from repro.faults.plan import FAULT_MODES, FaultPlan
from repro.profiling.profile import Profile
from repro.profiling.salvage import SalvageReport
from repro.profiling.task_profiler import TaskProfiler
from repro.runtime.config import RuntimeConfig
from repro.runtime.runtime import OpenMPRuntime

#: Default virtual watchdog for fault runs: generous for test-size
#: kernels (which finish in ~1e4 µs) yet far below a stuck task's 1e9.
DEFAULT_WATCHDOG_US = 1e6


def salvage_profile_from_trace(
    trace: ProgramTrace,
    implicit_region,
    start_time: float = 0.0,
    finish_time: Optional[float] = None,
) -> Tuple[Profile, SalvageReport]:
    """Repair a (possibly corrupt, possibly truncated) trace and rebuild.

    The per-thread streams are repaired offline in one walk over the
    merged trace, and the repaired events are packed, in walk order, into
    one :class:`~repro.events.batch.EventBatch`, which a lenient profiler
    consumes exactly as it would a live batch (task-creation brackets
    become plain enter/exit, as the live path records them).  The
    profiler then finishes at ``finish_time``, or else at the latest
    event time.  Returns the partial profile and its salvage report (also
    reachable as ``profile.salvage``).
    """
    events, repair_log = repair_streams({s.thread_id: s for s in trace.streams})
    batch = EventBatch(trace.registry)
    for event in events:
        if isinstance(event, EnterEvent):
            batch.add_enter(event.thread_id, event.region, event.time, event.parameter)
        elif isinstance(event, (ExitEvent, TaskCreateEndEvent)):
            batch.add_exit(event.thread_id, event.region, event.time)
        elif isinstance(event, TaskCreateBeginEvent):
            batch.add_enter(event.thread_id, event.region, event.time)
        elif isinstance(event, TaskBeginEvent):
            batch.add_task_begin(
                event.thread_id, event.region, event.instance, event.time,
                event.parameter,
            )
        elif isinstance(event, TaskEndEvent):
            batch.add_task_end(event.thread_id, event.region, event.instance, event.time)
        elif isinstance(event, TaskSwitchEvent):
            batch.add_task_switch(event.thread_id, event.instance, event.time)
    profiler = TaskProfiler(
        trace.n_threads, implicit_region, start_time=start_time, strict=False
    )
    profiler.salvage.absorb_repair(repair_log)
    profiler.on_batch(batch)
    if finish_time is None:
        finish_time = max((event.time for event in events), default=0.0)
    profiler.on_finish(finish_time)
    return profiler.build_profile(), profiler.salvage


@dataclass
class SalvageOutcome:
    """What one tolerant run produced."""

    app: str
    #: 'complete' (healthy run) or 'partial' (salvaged)
    status: str
    profile: Optional[Profile]
    salvage: Optional[SalvageReport]
    #: live result when the run completed (even if its trace was corrupt)
    duration: Optional[float] = None
    verified: Optional[bool] = None
    error: Optional[str] = None
    #: the configuration the run used (for archive fingerprinting)
    config: Optional[RuntimeConfig] = None
    #: the resource governor's final report, when one was armed
    governor_report: Optional[dict] = None

    @property
    def ok(self) -> bool:
        """A full profile, or a partial one with a non-empty report."""
        if self.profile is None:
            return False
        if self.status == "complete":
            return True
        return self.salvage is not None and self.salvage.partial

    @property
    def degraded(self) -> bool:
        """The governor reduced measurement fidelity during the run."""
        return self.salvage is not None and self.salvage.degraded


def _fold_governor(report: Optional[SalvageReport], runtime) -> Optional[dict]:
    """Copy the governor's incidents into ``report``; return its report.

    Idempotent: the runtime folds incidents itself on the healthy path,
    so this only fills reports built offline (salvage reconstruction).
    """
    governor = runtime.governor
    if governor is None:
        return None
    if (
        report is not None
        and not report.pressure_incidents
        and governor.incidents
    ):
        report.pressure_incidents.extend(i.to_dict() for i in governor.incidents)
    return governor.report()


def _fault_summary(runtime) -> Optional[str]:
    injector = runtime.fault_injector
    return injector.summary() if injector is not None else None


def _salvage(
    app: str,
    runtime,
    implicit_region,
    config: RuntimeConfig,
    exc: Optional[ReproError] = None,
    violations: Sequence = (),
    duration: Optional[float] = None,
    verified: Optional[bool] = None,
) -> SalvageOutcome:
    """The partial outcome rebuilt from ``runtime``'s recorded trace.

    ``exc`` is the error that aborted the run; ``violations`` are the
    trace violations of a run that completed (the first 20 become report
    notes), ``duration`` and ``verified`` its live results.  With no
    trace recorded there is nothing to rebuild: the outcome carries the
    report alone.
    """
    profile: Optional[Profile] = None
    if runtime.trace is None:
        report = SalvageReport()
    else:
        profile, report = salvage_profile_from_trace(
            runtime.trace, implicit_region, finish_time=runtime.env.now
        )
    report.fault_summary = _fault_summary(runtime)
    if exc is not None:
        report.run_error = f"{type(exc).__name__}: {exc}"
        report.watchdog_fired = isinstance(exc, WatchdogTimeout)
    for violation in violations[:20]:
        report.note(f"trace violation: {violation.message}")
    return SalvageOutcome(
        app=app, status="partial", profile=profile, salvage=report,
        duration=duration, verified=verified, error=report.run_error,
        config=config, governor_report=_fold_governor(report, runtime),
    )


def run_tolerant(
    name: str,
    size: str = "test",
    n_threads: int = 2,
    seed: int = 0,
    plan: Optional[FaultPlan] = None,
    watchdog_us: Optional[float] = DEFAULT_WATCHDOG_US,
    variant: str = "optimized",
    wall_timeout_s: Optional[float] = None,
    substrates: Optional[Sequence] = None,
    costs=None,
    memory_budget=None,
    record_dir: Optional[str] = None,
    checkpoint_every: Optional[int] = None,
    chunk_records: Optional[int] = None,
) -> SalvageOutcome:
    """Run a kernel, salvaging a partial profile from whatever survives.

    ``wall_timeout_s`` is carried into the config for supervised workers
    (:mod:`repro.supervisor`), which enforce it with ``SIGALRM``; plain
    in-process calls cannot interrupt a non-yielding kernel.

    ``substrates`` optionally names extra measurement substrates to
    attach; ``profiling`` and ``tracing`` are always ensured -- salvage
    needs a live profile *and* the recorded trace to reconstruct from.

    ``memory_budget`` arms the resource governor (an int, dict, or
    :class:`~repro.governor.MemoryBudget`); a plan with
    ``pressure_budget`` set (the ``pressure`` fault mode) arms it too.

    ``record_dir`` attaches the durable recording substrate
    (:mod:`repro.recorder`): the event stream is spilled to sealed
    chunks there, checkpointed every ``checkpoint_every`` records, and
    on a clean run the manifest is stamped with the live cube's content
    hash so ``repro verify`` can replay-check it byte-identically.
    """
    recorder = None
    substrate_list = list(substrates) if substrates else []
    if record_dir is not None:
        from repro.substrates.recorder import RecorderSubstrate

        recorder_kwargs = {"record_dir": record_dir}
        if checkpoint_every is not None:
            recorder_kwargs["checkpoint_every"] = checkpoint_every
        if chunk_records is not None:
            recorder_kwargs["chunk_records"] = chunk_records
        recorder = RecorderSubstrate(**recorder_kwargs)
        # A configured instance supersedes any bare "recorder" name.
        substrate_list = [s for s in substrate_list if s != "recorder"]
        substrate_list.append(recorder)
    for required in ("profiling", "tracing"):
        if required not in substrate_list:
            substrate_list.append(required)
    program = get_program(name, size=size, variant=variant)
    if memory_budget is None and plan is not None and plan.pressure_budget is not None:
        memory_budget = plan.pressure_budget
    config_kwargs = dict(
        n_threads=n_threads,
        instrument=True,
        seed=seed,
        fault_plan=plan if plan is not None and plan.armed else None,
        watchdog_us=watchdog_us,
        wall_timeout_s=wall_timeout_s,
        substrates=tuple(substrate_list),
        memory_budget=memory_budget,
    )
    if costs is not None:
        config_kwargs["costs"] = costs
    config = RuntimeConfig(**config_kwargs)
    runtime = OpenMPRuntime(config)
    implicit_region = runtime.registry.register(
        program.label, RegionType.IMPLICIT_TASK
    )
    try:
        result = runtime.parallel(program.body, name=program.label)
    except ReproError as exc:
        # The live run died (injected exception, watchdog, deadlock...).
        # Whatever events made it into the trace are the salvage input.
        return _salvage(name, runtime, implicit_region, config, exc=exc)

    # The run completed.  If the recorded trace is inconsistent (stream
    # faults fired), the *live* profile is fine but trace-derived tooling
    # is not -- rebuild from the repaired trace so profile and trace agree
    # and the damage is accounted for.
    trace = runtime.trace
    violations = collect_trace_violations(trace) if trace is not None else []
    if violations:
        return _salvage(
            name, runtime, implicit_region, config,
            violations=violations,
            duration=result.duration,
            verified=program.verify(result),
        )

    fault_summary = _fault_summary(runtime)
    profile = result.profile
    if profile is not None and profile.salvage is None and fault_summary:
        profile.salvage = SalvageReport(fault_summary=fault_summary)
    if recorder is not None and profile is not None:
        # Stamp the verification target: repro verify replays the
        # recorded stream and must reproduce exactly this cube.
        from repro.recorder import record_live_profile

        try:
            record_live_profile(record_dir, profile)
        except OSError:
            pass  # recording is best-effort; never fail a healthy run
    return SalvageOutcome(
        app=name,
        status="complete",
        profile=profile,
        salvage=profile.salvage if profile is not None else None,
        duration=result.duration,
        verified=program.verify(result),
        config=config,
        governor_report=_fold_governor(
            profile.salvage if profile is not None else None, runtime
        ),
    )


@dataclass
class CampaignResult:
    """One cell of the mode x seed x app grid."""

    app: str
    mode: str
    seed: int
    status: str
    ok: bool
    summary: str
    error: Optional[str] = None
    #: cell outcome class (``ok``/``partial``/``degraded``/``error``/
    #: ``timeout``/``crash``/``oom``/...), as the cell payload names it
    outcome: str = ""
    #: how many worker attempts this cell took (1 = no retries)
    attempts: int = 1

    @classmethod
    def of(cls, params: Mapping, cell: Mapping, attempts: int) -> "CampaignResult":
        """The row for a fault cell's ``params`` and its settled ``cell``
        (a :func:`~repro.supervisor.journal.cell_payload`)."""
        return cls(
            app=params["app"],
            mode=params["mode"],
            seed=params["seed"],
            status=cell["status"],
            ok=cell["ok"],
            summary=cell["summary"],
            error=cell["error"],
            outcome=cell["outcome"],
            attempts=attempts,
        )


def run_campaign(
    apps: Sequence[str] = ("fib", "nqueens"),
    modes: Sequence[str] = FAULT_MODES,
    seeds: Sequence[int] = (0, 1, 2),
    size: str = "test",
    n_threads: int = 2,
    watchdog_us: float = DEFAULT_WATCHDOG_US,
    *,
    supervised: bool = False,
    jobs: int = 1,
    wall_timeout_s: Optional[float] = None,
    retries: int = 1,
    journal_path: Optional[str] = None,
    resume: bool = False,
) -> List[CampaignResult]:
    """Sweep the fault grid in lenient mode; never raises per-cell.

    The grid is :func:`~repro.supervisor.spec.fault_grid`'s, and every
    cell runs through :func:`~repro.supervisor.worker.run_fault_cell`:
    here, one after another, or with ``supervised=True`` in isolated
    worker subprocesses via :class:`repro.supervisor.Supervisor`:
    ``jobs`` workers in parallel, per-cell wall-clock timeouts,
    retry-with-backoff for transient failures, and (with
    ``journal_path``) a crash-safe journal that ``resume=True`` replays
    so completed cells are not re-executed.

    Either way, a ``KeyboardInterrupt`` raises
    :class:`~repro.errors.CampaignInterrupted` carrying the cells that
    finished, instead of discarding them.
    """
    from repro.supervisor import Supervisor, fault_grid, run_fault_cell

    specs = fault_grid(
        apps, modes, seeds,
        size=size, n_threads=n_threads, watchdog_us=watchdog_us,
        wall_timeout_s=wall_timeout_s,
    )
    results: List[CampaignResult] = []
    if supervised:
        report = Supervisor(
            specs,
            jobs=jobs,
            timeout_s=wall_timeout_s,
            retries=retries,
            journal_path=journal_path,
            resume=resume,
        ).run()
        by_cell = {spec.cell_id: spec for spec in specs}
        for cell in report.results:
            if report.interrupted and cell.outcome in ("interrupted", "pending"):
                continue  # unfinished cells are not campaign results
            results.append(
                CampaignResult.of(
                    by_cell[cell.cell_id].params, vars(cell), cell.attempts
                )
            )
        interrupted = report.interrupted
    else:
        interrupted = False
        try:
            for spec in specs:
                results.append(
                    CampaignResult.of(spec.params, run_fault_cell(spec.params), 1)
                )
        except KeyboardInterrupt:
            interrupted = True
    if interrupted:
        raise CampaignInterrupted(
            f"campaign interrupted after {len(results)} of {len(specs)} cells",
            results,
        )
    return results


def campaign_table(results: Sequence[CampaignResult]) -> str:
    """Fixed-width text rendering of a campaign grid."""
    lines = [
        f"{'app':<12} {'mode':<18} {'seed':>4} {'att':>3}  {'status':<9} summary",
        "-" * 78,
    ]
    for r in results:
        lines.append(
            f"{r.app:<12} {r.mode:<18} {r.seed:>4} {r.attempts:>3}  "
            f"{r.status:<9} {r.summary}"
        )
    ok = sum(1 for r in results if r.ok)
    lines.append("-" * 78)
    lines.append(f"{ok}/{len(results)} cells degraded gracefully")
    return "\n".join(lines)
