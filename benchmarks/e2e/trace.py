"""Span recorder and wrapper registry for the traced benchmark run.

Spans are recorded from outside the program: the wrappers in
:data:`HOOKS` replace public functions of each layer for the duration
of a traced run and are removed afterwards.  Each wrapper is installed
where its caller looks the function up -- a class attribute, or the
module global a caller reads at call time -- so a ``from x import f``
alias the registry missed shows up as a wrapper that never fired
(:func:`missing_calls`), not as a silently short layer.

Wrapper kinds:

* ``span``  -- a full span record (name, start, end, parent span, op);
  with ``outermost`` only the outermost of recursive calls;
* ``leaf``  -- a call with no traced callees, too frequent to record one
  by one: its count and time aggregate per op, and its time counts as
  child time of the enclosing span;
* ``count`` -- a call count only;
* ``cell``  -- a supervised cell, run as one op in its forked worker.

A layer's self time is its span's duration minus the time its child
spans and leaves cover.  Calls on one thread nest, so that union is the
sum of the direct children's durations.

Forked supervisor workers inherit the installed wrappers.  The wrapped
``repro.supervisor.worker.execute_spec`` runs the cell as its own op and
adds that op's totals to the cell's result payload under
:data:`CHILD_KEY`; the parent reads them back from the campaign journal.
"""

from __future__ import annotations

import importlib
import itertools
import os
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

#: result-payload key carrying a forked cell's span totals
CHILD_KEY = "bench_trace"

_MISSING = object()


class SpanRecorder:
    """Spans, leaf totals and counters kept in memory for one traced run."""

    def __init__(self) -> None:
        #: the process that installed the wrappers (forked workers differ)
        self.pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        """Forget everything (a forked worker starts from a clean slate)."""
        #: finished spans: (id, name, start, end, parent id, op id, self s)
        self.spans: List[tuple] = []
        #: op id -> {"kind", "leaves": {name: [n, s]}, "counters": Counter}
        self.ops: Dict[int, dict] = {}
        #: every wrapper call by name, inside an op or not
        self.calls: Counter = Counter()
        self.op_id: Optional[int] = None
        self._outside = {"kind": None, "leaves": {}, "counters": Counter()}
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- spans ---------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        self.calls[name] += 1
        frame = [next(self._ids), name, time.perf_counter(), 0.0]
        self._stack().append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame[2]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append(
            (
                frame[0],
                frame[1],
                frame[2],
                end,
                parent[0] if parent is not None else None,
                self.op_id,
                duration - frame[3],
            )
        )

    def _current(self) -> dict:
        return self.ops[self.op_id] if self.op_id is not None else self._outside

    def leaf(self, name: str, seconds: float) -> None:
        self.calls[name] += 1
        stack = self._stack()
        if stack:
            stack[-1][3] += seconds
        totals = self._current()["leaves"].setdefault(name, [0, 0.0])
        totals[0] += 1
        totals[1] += seconds

    def count(self, name: str) -> None:
        self.calls[name] += 1
        totals = self._current()["leaves"].setdefault(name, [0, 0.0])
        totals[0] += 1

    def add(self, name: str, value: float, op_id: Optional[int] = None) -> None:
        """Add to a counter of op ``op_id`` (default: the current op)."""
        op = self.ops[op_id] if op_id is not None else self._current()
        op["counters"][name] += value

    # -- operations ----------------------------------------------------
    @contextmanager
    def op(self, kind: str):
        """Attribute everything recorded inside to one op of ``kind``."""
        op_id = next(self._ids)
        self.ops[op_id] = {"kind": kind, "leaves": {}, "counters": Counter()}
        previous, self.op_id = self.op_id, op_id
        frame = self.open("op." + kind)
        try:
            yield op_id
        finally:
            self.close(frame)
            self.op_id = previous

    def aggregate(self, op_id: int) -> dict:
        """One op's totals: wall, ``{name: [calls, total s, self s]}``, counters."""
        op = self.ops[op_id]
        spans: Dict[str, list] = {}
        wall = 0.0
        for _sid, name, start, end, _parent, span_op, self_s in self.spans:
            if span_op != op_id:
                continue
            totals = spans.setdefault(name, [0, 0.0, 0.0])
            totals[0] += 1
            totals[1] += end - start
            totals[2] += self_s
            if name == "op." + op["kind"]:
                wall = end - start
        for name, (n, seconds) in op["leaves"].items():
            spans[name] = [n, seconds, seconds]
        return {
            "kind": op["kind"],
            "wall": wall,
            "spans": spans,
            "counters": dict(op["counters"]),
        }

    def aggregates(self) -> List[dict]:
        return [self.aggregate(op_id) for op_id in self.ops]

    def merge_child(self, aggregate: dict) -> None:
        """Count a forked cell's calls toward the zero-call check."""
        for name, (n, _total, _self) in aggregate["spans"].items():
            if not name.startswith("op."):
                self.calls[name] += n

    def to_json(self) -> dict:
        return {
            "spans": [
                {
                    "id": sid,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "op": op,
                    "self_s": self_s,
                }
                for sid, name, start, end, parent, op, self_s in self.spans
            ],
            "calls": dict(self.calls),
        }


class NullTracer:
    """The untraced stand-in: ops and counters cost nothing."""

    @contextmanager
    def op(self, kind: str):
        yield None

    def add(self, name: str, value: float, op_id: Optional[int] = None) -> None:
        pass


NULL_TRACER = NullTracer()


# ----------------------------------------------------------------------
# Wrapper registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Hook:
    """One wrapped public function.

    ``target`` is ``"module"`` or ``"module:Class"``; ``attr`` the name
    looked up there.  ``on_result(recorder, args, result)`` may add
    counters from what the call returned.
    """

    name: str
    target: str
    attr: str
    kind: str = "span"
    on_result: Optional[Callable] = None
    outermost: bool = False

    def owner(self):
        module_name, _, class_name = self.target.partition(":")
        owner = importlib.import_module(module_name)
        return getattr(owner, class_name) if class_name else owner


def _count_batch(recorder, args, _result):
    recorder.add("events", args[1].counted)


def _count_steal(recorder, _args, result):
    if result is not None:
        recorder.add("steal_hits", 1)


def _count_parallel(recorder, _args, result):
    recorder.add("tasks", result.completed_tasks)
    recorder.add("lock_acquisitions", result.lock_stats["acquisitions"])
    recorder.add("lock_contended", result.lock_stats["contended"])


def _count_put(recorder, _args, result):
    if result.deduplicated:
        recorder.add("dedup", 1)


#: Every wrapped call, by layer.  ``TaskProfiler.on_batch`` stands for
#: ``ProfilingSubstrate.on_batch``: the substrate binds the profiler's
#: method onto itself at initialize, so that is where dispatch looks.
HOOKS = (
    Hook("sim.run", "repro.sim.core:Environment", "run"),
    Hook("sim.schedule", "repro.sim.core:Environment", "schedule", "count"),
    Hook("runtime.parallel", "repro.runtime.runtime:OpenMPRuntime", "parallel",
         on_result=_count_parallel),
    Hook("runtime.push", "repro.runtime.queues:TaskPool", "push", "leaf"),
    Hook("runtime.pop_local", "repro.runtime.queues:TaskPool", "pop_local", "leaf"),
    Hook("runtime.steal", "repro.runtime.queues:TaskPool", "steal", "leaf",
         on_result=_count_steal),
    Hook("substrates.dispatch", "repro.substrates.manager:SubstrateManager",
         "on_batch", on_result=_count_batch),
    Hook("substrates.tracing", "repro.substrates.tracing:TracingSubstrate", "on_batch"),
    Hook("substrates.stats", "repro.substrates.stats:StatsSubstrate", "on_batch"),
    Hook("substrates.validation",
         "repro.substrates.validation:OnlineValidationSubstrate", "on_batch"),
    Hook("profiling.consume", "repro.profiling.task_profiler:TaskProfiler", "on_batch"),
    Hook("profiling.finalize", "repro.substrates.profiling:ProfilingSubstrate", "finalize"),
    Hook("profiling.artifact", "repro.substrates.profiling:ProfilingSubstrate", "artifact"),
    Hook("recorder.consume", "repro.substrates.recorder:RecorderSubstrate", "on_batch"),
    Hook("recorder.checkpoint", "repro.substrates.recorder", "write_checkpoint"),
    Hook("recorder.read", "repro.recorder.replay", "read_records"),
    Hook("recorder.rebuild", "repro.recorder.replay", "rebuild_profile"),
    Hook("bots.serial", "repro.bots.nqueens", "solve_serial", outermost=True),
    Hook("cube.export", "repro.cube.export", "profile_to_dict"),
    Hook("cube.export", "repro.archive.store", "profile_to_dict"),
    Hook("archive.put", "repro.archive.store:ArchiveStore", "put", on_result=_count_put),
    Hook("archive.records", "repro.archive.store:ArchiveStore", "records"),
    Hook("supervisor.run", "repro.supervisor.supervisor:Supervisor", "run"),
    Hook("supervisor.journal", "repro.supervisor.journal:Journal", "record"),
    Hook("supervisor.execute_spec", "repro.supervisor.worker", "execute_spec", "cell"),
    Hook("service.submit", "repro.service.gateway:Gateway", "submit"),
    Hook("service.serve", "repro.service.gateway:Gateway", "serve"),
    Hook("service.execute", "repro.service.gateway:Gateway", "execute"),
    Hook("service.refresh", "repro.service.gateway:Gateway", "refresh"),
    Hook("service.ledger_append", "repro.service.ledger:Ledger", "append"),
)


def _wrap(hook: Hook, fn, recorder: SpanRecorder):
    name, on_result = hook.name, hook.on_result
    if hook.kind == "count":
        def wrapper(*args, **kwargs):
            recorder.count(name)
            return fn(*args, **kwargs)
    elif hook.kind == "leaf":
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.leaf(name, time.perf_counter() - start)
            if on_result is not None:
                on_result(recorder, args, result)
            return result
    elif hook.kind == "cell":
        def wrapper(*args, **kwargs):
            # In a forked worker, drop the parent's inherited spans and
            # open stack first; then run the cell as one op and ship
            # that op's totals back in the payload.
            if os.getpid() != recorder.pid:
                recorder.reset()
            with recorder.op("run") as op_id:
                frame = recorder.open(name)
                try:
                    payload = fn(*args, **kwargs)
                finally:
                    recorder.close(frame)
            return dict(payload, **{CHILD_KEY: recorder.aggregate(op_id)})
    elif hook.outermost:
        active = threading.local()

        def wrapper(*args, **kwargs):
            if getattr(active, "depth", 0):
                return fn(*args, **kwargs)
            active.depth = 1
            frame = recorder.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.close(frame)
                active.depth = 0
    else:
        def wrapper(*args, **kwargs):
            frame = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(frame)
            if on_result is not None:
                on_result(recorder, args, result)
            return result
    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", hook.attr)
    return wrapper


@contextmanager
def installed(recorder: SpanRecorder, hooks: Iterable[Hook] = HOOKS):
    """Install the wrappers for the ``with`` body, then put the originals back."""
    saved: List[tuple] = []
    try:
        for hook in hooks:
            owner = hook.owner()
            fn = getattr(owner, hook.attr)
            saved.append((owner, hook.attr, vars(owner).get(hook.attr, _MISSING)))
            setattr(owner, hook.attr, _wrap(hook, fn, recorder))
        yield recorder
    finally:
        for owner, attr, own in reversed(saved):
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)


def missing_calls(recorder: SpanRecorder, expected: Iterable[str]) -> List[str]:
    """Expected wrapper names that recorded zero calls."""
    return sorted(name for name in set(expected) if recorder.calls[name] == 0)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
#: name -> unit of every per-layer metric, in ``BENCHMARK.json`` order.
#: Layers a workload bypasses report shares, ratios and counts (0 there),
#: never absolute times, so every time metric is measured on every
#: workload.
LAYER_UNITS = {
    "sim.self_s": "s",
    "sim.bare_self_s": "s",
    "sim.schedules": "count",
    "sim.schedules_per_task": "ratio",
    "runtime.pool_ops": "count",
    "runtime.pool_s": "s",
    "runtime.steal_success": "fraction",
    "runtime.lock_contention": "fraction",
    "instrument.events": "count",
    "instrument.flushes": "count",
    "instrument.events_per_flush": "ratio",
    "instrument.fill_s": "s",
    "substrates.dispatch_s": "s",
    "substrates.dispatch_self_s": "s",
    "substrates.tracing.share": "fraction",
    "substrates.stats.share": "fraction",
    "substrates.validation.share": "fraction",
    "profiling.consume_s": "s",
    "profiling.ns_per_event": "ns",
    "profiling.finalize_s": "s",
    "profiling.pool_reuse": "fraction",
    "recorder.consume_share": "fraction",
    "recorder.checkpoints": "count",
    "recorder.checkpoint_share": "fraction",
    "recorder.bytes": "bytes",
    "recorder.read_share": "fraction",
    "recorder.rebuild_share": "fraction",
    "bots.serial_calls": "count",
    "bots.serial_share": "fraction",
    "cube.export_s": "s",
    "cube.bytes": "bytes",
    "archive.put_ms": "ms",
    "archive.puts": "count",
    "archive.dedup_ratio": "fraction",
    "supervisor.self_share": "fraction",
    "supervisor.journal_writes": "count",
    "supervisor.journal_share": "fraction",
    "supervisor.cell_overhead_share": "fraction",
    "supervisor.attempts": "count",
    "service.submit_share": "fraction",
    "service.ledger_appends": "count",
    "service.ledger_share": "fraction",
    "service.refresh_share": "fraction",
    "service.idle_share": "fraction",
    "trace_overhead": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(aggregates: List[dict], trace_overhead: float) -> Dict[str, float]:
    """Per-layer metrics from the op aggregates of one traced run.

    Op kinds: ``run`` (a profiled or recorded run; a campaign cell, from
    its worker), ``bare`` (an uninstrumented run), ``replay`` (a replay
    check) and ``round`` (a campaign round).  Times and counts are means
    per op of the kind they belong to.
    """
    by_kind: Dict[str, List[dict]] = {}
    for agg in aggregates:
        by_kind.setdefault(agg["kind"], []).append(agg)
    runs = by_kind.get("run", [])
    bares = by_kind.get("bare", [])
    replays = by_kind.get("replay", [])
    rounds = by_kind.get("round", [])

    def total(ops, name, field=1):
        return sum(op["spans"].get(name, (0, 0.0, 0.0))[field] for op in ops)

    def calls(ops, name):
        return total(ops, name, 0)

    def counter(ops, name):
        return sum(op["counters"].get(name, 0) for op in ops)

    def mean(ops, value):
        return _ratio(value, len(ops))

    def wall(ops):
        return sum(op["wall"] for op in ops)

    pool_calls = ("runtime.push", "runtime.pop_local", "runtime.steal")
    events = counter(runs, "events")
    put_ms = sorted(
        op["spans"]["archive.put"][1] / op["spans"]["archive.put"][0] * 1e3
        for op in runs
        if op["spans"].get("archive.put", (0,))[0]
    )
    sim_self = mean(runs, total(runs, "sim.run", 2))
    sim_bare = mean(bares, total(bares, "sim.run", 2))
    dispatch = total(runs, "substrates.dispatch")
    serve = total(rounds, "service.serve")
    return {
        "sim.self_s": sim_self,
        "sim.bare_self_s": sim_bare,
        "sim.schedules": mean(runs, calls(runs, "sim.schedule")),
        "sim.schedules_per_task": _ratio(
            calls(runs, "sim.schedule"), counter(runs, "tasks")
        ),
        "runtime.pool_ops": mean(runs, sum(calls(runs, n) for n in pool_calls)),
        "runtime.pool_s": mean(runs, sum(total(runs, n) for n in pool_calls)),
        "runtime.steal_success": _ratio(
            counter(runs, "steal_hits"), calls(runs, "runtime.steal")
        ),
        "runtime.lock_contention": _ratio(
            counter(runs, "lock_contended"), counter(runs, "lock_acquisitions")
        ),
        "instrument.events": mean(runs, events),
        "instrument.flushes": mean(runs, calls(runs, "substrates.dispatch")),
        "instrument.events_per_flush": _ratio(
            events, calls(runs, "substrates.dispatch")
        ),
        "instrument.fill_s": sim_self - sim_bare,
        "substrates.dispatch_s": mean(runs, dispatch),
        "substrates.dispatch_self_s": mean(runs, total(runs, "substrates.dispatch", 2)),
        "substrates.tracing.share": _ratio(total(runs, "substrates.tracing"), dispatch),
        "substrates.stats.share": _ratio(total(runs, "substrates.stats"), dispatch),
        "substrates.validation.share": _ratio(
            total(runs, "substrates.validation"), dispatch
        ),
        "profiling.consume_s": mean(runs, total(runs, "profiling.consume")),
        "profiling.ns_per_event": _ratio(total(runs, "profiling.consume") * 1e9, events),
        "profiling.finalize_s": mean(
            runs,
            total(runs, "profiling.finalize") + total(runs, "profiling.artifact"),
        ),
        "profiling.pool_reuse": _ratio(
            counter(aggregates, "pool_reused"),
            counter(aggregates, "pool_reused") + counter(aggregates, "pool_allocated"),
        ),
        "recorder.consume_share": _ratio(total(runs, "recorder.consume"), wall(runs)),
        "recorder.checkpoints": mean(runs, calls(runs, "recorder.checkpoint")),
        "recorder.checkpoint_share": _ratio(
            total(runs, "recorder.checkpoint"), wall(runs)
        ),
        "recorder.bytes": _ratio(
            counter(aggregates, "record_bytes"), counter(aggregates, "recordings")
        ),
        "recorder.read_share": _ratio(total(replays, "recorder.read"), wall(replays)),
        "recorder.rebuild_share": _ratio(
            total(replays, "recorder.rebuild"), wall(replays)
        ),
        "bots.serial_calls": mean(runs, calls(runs, "bots.serial")),
        "bots.serial_share": _ratio(total(runs, "bots.serial"), wall(runs)),
        "cube.export_s": mean(runs, total(runs, "cube.export")),
        "cube.bytes": _ratio(counter(aggregates, "cube_bytes"), counter(aggregates, "cubes")),
        "archive.put_ms": put_ms[len(put_ms) // 2] if put_ms else 0.0,
        "archive.puts": mean(runs, calls(runs, "archive.put")),
        "archive.dedup_ratio": _ratio(counter(runs, "dedup"), calls(runs, "archive.put")),
        "supervisor.self_share": _ratio(total(rounds, "supervisor.run", 2), wall(rounds)),
        "supervisor.journal_writes": mean(rounds, calls(rounds, "supervisor.journal")),
        "supervisor.journal_share": _ratio(
            total(rounds, "supervisor.journal"), wall(rounds)
        ),
        "supervisor.cell_overhead_share": _ratio(
            counter(rounds, "cell_overhead_s"), counter(rounds, "cell_duration_s")
        ),
        "supervisor.attempts": mean(rounds, counter(rounds, "attempts")),
        "service.submit_share": _ratio(total(rounds, "service.submit"), wall(rounds)),
        "service.ledger_appends": mean(rounds, calls(rounds, "service.ledger_append")),
        "service.ledger_share": _ratio(
            total(rounds, "service.ledger_append"), wall(rounds)
        ),
        "service.refresh_share": _ratio(total(rounds, "service.refresh"), wall(rounds)),
        "service.idle_share": _ratio(serve - total(rounds, "service.execute"), serve),
        "trace_overhead": trace_overhead,
    }
