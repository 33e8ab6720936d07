"""Trace-based task analysis (the paper's Section VII outlook, built).

The profile alone cannot distinguish, inside a synchronization point,
*management* time (the runtime shuffling tasks) from *waiting* time (no
task available).  The paper proposes trace analysis: "the time between
the enter of the last synchronization point and the task switch event
would be of interest.  In this way it would be possible to calculate the
ratio of overall management time to exclusive execution time for tasks."

Given a recorded :class:`~repro.events.stream.ProgramTrace`
(``RuntimeConfig(substrates=("profiling", "tracing"))``), this module
computes:

* :func:`scheduling_latencies` -- the enter(scheduling point) -> first
  task event gaps, and the between-task gaps, per thread;
* :func:`sync_point_breakdown` -- for every scheduling-point visit:
  task execution vs. dispatch/management vs. trailing wait;
* :func:`management_ratio` -- the paper's proposed metric: overall
  management time at scheduling points / exclusive task execution time;
* :func:`task_timeline` / :func:`render_timeline` -- per-thread task
  fragment intervals, the Vampir-style view of Schmidl et al. [16],
  rendered as ASCII.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.events.model import (
    EnterEvent,
    ExitEvent,
    TaskBeginEvent,
    TaskEndEvent,
    TaskSwitchEvent,
    is_implicit,
)
from repro.events.stream import EventStream, ProgramTrace


@dataclass
class SyncPointVisit:
    """One visit of one thread to one scheduling-point region."""

    thread_id: int
    region_name: str
    enter_time: float
    exit_time: float
    #: time spent executing task fragments inside the visit
    task_execution: float = 0.0
    #: gaps between entering/finishing tasks: dispatch & bookkeeping
    management: float = 0.0
    #: trailing gap after the last task fragment until the exit
    trailing_wait: float = 0.0
    fragments: int = 0

    @property
    def total(self) -> float:
        return self.exit_time - self.enter_time


def sync_point_breakdown(
    trace: ProgramTrace,
    region_names: Tuple[str, ...] = ("barrier", "implicit barrier", "taskwait"),
) -> List[SyncPointVisit]:
    """Decompose every scheduling-point visit of the *implicit* tasks.

    Only top-level visits are analyzed (a taskwait inside an executing
    explicit task belongs to that task's time, not the thread's wait).
    Within a visit, intervals where an explicit task is current count as
    task execution; the remaining time before/between fragments is
    management, and the gap after the last fragment until the region
    exit is the trailing wait (idle + final barrier release).
    """
    visits: List[SyncPointVisit] = []
    for stream in trace.streams:
        visits.extend(_analyze_stream(stream, region_names))
    return visits


def _analyze_stream(
    stream: EventStream, region_names: Tuple[str, ...]
) -> List[SyncPointVisit]:
    visits: List[SyncPointVisit] = []
    current_visit: Optional[SyncPointVisit] = None
    visit_depth = 0  # region nesting inside the visit
    in_task = False
    fragment_start = 0.0
    last_boundary = 0.0  # last time the non-task clock started counting

    for event in stream:
        if current_visit is None:
            if (
                isinstance(event, EnterEvent)
                and event.region.name in region_names
                and is_implicit(event.executing_instance)
            ):
                current_visit = SyncPointVisit(
                    thread_id=stream.thread_id,
                    region_name=event.region.name,
                    enter_time=event.time,
                    exit_time=event.time,
                )
                visit_depth = 1
                in_task = False
                last_boundary = event.time
            continue

        # inside a visit ------------------------------------------------
        if isinstance(event, TaskBeginEvent) or (
            isinstance(event, TaskSwitchEvent) and not is_implicit(event.instance)
        ):
            if not in_task:
                current_visit.management += event.time - last_boundary
                in_task = True
                fragment_start = event.time
                current_visit.fragments += 1
        elif isinstance(event, TaskEndEvent) or (
            isinstance(event, TaskSwitchEvent) and is_implicit(event.instance)
        ):
            if in_task:
                current_visit.task_execution += event.time - fragment_start
                in_task = False
                last_boundary = event.time
        elif isinstance(event, EnterEvent):
            if not in_task and is_implicit(event.executing_instance):
                visit_depth += 1
        elif isinstance(event, ExitEvent):
            if not in_task and is_implicit(event.executing_instance):
                visit_depth -= 1
                if visit_depth == 0:
                    current_visit.exit_time = event.time
                    current_visit.trailing_wait = event.time - last_boundary
                    # trailing wait was counted fresh; management holds the
                    # pre/between-fragment gaps only
                    visits.append(current_visit)
                    current_visit = None
    return visits


@dataclass
class SchedulingLatency:
    """Gap between arriving at a scheduling point and the first task."""

    thread_id: int
    region_name: str
    latency: float


def scheduling_latencies(
    trace: ProgramTrace,
    region_names: Tuple[str, ...] = ("barrier", "implicit barrier", "taskwait"),
) -> List[SchedulingLatency]:
    """Enter(sync point) -> first task-begin/switch gaps, per visit.

    The quantity the paper singles out: "the time between the enter of
    the last synchronization point and the task switch event".
    """
    out: List[SchedulingLatency] = []
    for visit in sync_point_breakdown(trace, region_names):
        if visit.fragments > 0:
            # management before the first fragment IS that latency for
            # the first task; approximated by the first management gap.
            out.append(
                SchedulingLatency(
                    thread_id=visit.thread_id,
                    region_name=visit.region_name,
                    latency=visit.management / visit.fragments,
                )
            )
    return out


def management_ratio(trace: ProgramTrace) -> Dict[str, float]:
    """The paper's proposed metric: management time vs task execution.

    Returns totals over all scheduling-point visits of all threads:
    ``{"task_execution", "management", "waiting", "ratio"}`` where ratio
    is management / task_execution (inf if no task executed).
    """
    totals = {"task_execution": 0.0, "management": 0.0, "waiting": 0.0}
    for visit in sync_point_breakdown(trace):
        totals["task_execution"] += visit.task_execution
        totals["management"] += visit.management
        totals["waiting"] += visit.trailing_wait
    execution = totals["task_execution"]
    totals["ratio"] = (totals["management"] / execution) if execution > 0 else float("inf")
    return totals


# ----------------------------------------------------------------------
# Timelines (the Vampir-style view of Schmidl et al. [16])
# ----------------------------------------------------------------------
@dataclass
class Fragment:
    """One executed task fragment on one thread."""

    thread_id: int
    instance: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def task_timeline(trace: ProgramTrace) -> List[Fragment]:
    """All task fragments of all threads, in start order."""
    fragments: List[Fragment] = []
    for stream in trace.streams:
        current: Optional[Tuple[int, float]] = None
        for event in stream:
            if isinstance(event, TaskBeginEvent):
                current = (event.instance, event.time)
            elif isinstance(event, TaskSwitchEvent):
                if current is not None and (
                    is_implicit(event.instance) or event.instance != current[0]
                ):
                    fragments.append(
                        Fragment(stream.thread_id, current[0], current[1], event.time)
                    )
                    current = None
                if not is_implicit(event.instance) and current is None:
                    current = (event.instance, event.time)
            elif isinstance(event, TaskEndEvent):
                if current is not None:
                    fragments.append(
                        Fragment(stream.thread_id, current[0], current[1], event.time)
                    )
                    current = None
    fragments.sort(key=lambda f: (f.start, f.thread_id))
    return fragments


def render_timeline(trace: ProgramTrace, width: int = 72) -> str:
    """ASCII per-thread timeline: '#' task execution, '.' everything else."""
    fragments = task_timeline(trace)
    if not fragments:
        return "(no task fragments)"
    t_end = max(f.end for f in fragments)
    t_start = min(
        (s[0].time for s in trace.streams if len(s)), default=0.0
    )
    span = max(t_end - t_start, 1e-9)
    lines = []
    for stream in trace.streams:
        row = ["."] * width
        for fragment in fragments:
            if fragment.thread_id != stream.thread_id:
                continue
            lo = int((fragment.start - t_start) / span * (width - 1))
            hi = int((fragment.end - t_start) / span * (width - 1))
            for i in range(lo, max(hi, lo) + 1):
                row[i] = "#"
        lines.append(f"t{stream.thread_id} |{''.join(row)}|")
    busy = sum(f.duration for f in fragments)
    lines.append(
        f"task execution: {busy:.1f} us over {len(fragments)} fragments, "
        f"span {span:.1f} us, utilization "
        f"{100 * busy / (span * trace.n_threads):.0f}%"
    )
    return "\n".join(lines)
