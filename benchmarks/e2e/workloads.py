"""The four workloads: generated inputs, closed-loop operations, checks.

Every workload is a closed loop with one client: the next operation
starts only after the previous one returns.  The seed sets the runtime's
steal RNG and the campaign's seed list; the program only receives the
inputs generated from it.  Each operation is checked, and a failed check
counts the operation as failed.
"""

from __future__ import annotations

import gc
import gzip
import os
import shutil
import tempfile
import time
from contextlib import contextmanager
from statistics import median
from typing import Dict, List, Optional

# The `repro` CLI that serves campaigns has imported the fault-campaign
# runner by the time it forks a cell; importing it here gives the forked
# cells of the campaign workload the same inherited modules.
import repro.faults.campaign  # noqa: F401
from repro.analysis.experiment import run_app
from repro.archive import store as archive_store
from repro.archive.meta import meta_for_result
from repro.cube import export as cube_export
from repro.recorder import replay as recorder_replay
from repro.recorder.store import events_path
from repro.service import CampaignSpec, Gateway
from repro.substrates.recorder import RecorderSubstrate
from repro.supervisor.journal import load_journal

from e2e.trace import (
    CHILD_KEY,
    NULL_TRACER,
    SpanRecorder,
    installed,
    layer_metrics,
    missing_calls,
)


class TraceError(RuntimeError):
    """A wrapper the workload must exercise recorded zero calls."""


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, label: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(f"{label}: {p}" for p in problems)


class Measurement:
    """Samples of one measurement window, its checks, and its tracer."""

    def __init__(self, seed: int, tmp_root: str, tally: Tally, tracer=NULL_TRACER):
        self.seed = seed
        self.tmp_root = tmp_root
        self.tally = tally
        self.tracer = tracer
        self.traced = tracer is not NULL_TRACER
        self.samples: Dict[str, List[float]] = {}
        #: span totals of forked campaign cells, read back from journals
        self.children: List[dict] = []

    def tmpdir(self) -> str:
        return tempfile.mkdtemp(dir=self.tmp_root)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    @contextmanager
    def op(self, kind: str, sample: Optional[str] = None):
        """Time one operation from a collected heap; yield its trace op id."""
        gc.collect()
        with self.tracer.op(kind) as op_id:
            start = time.perf_counter()
            yield op_id
            elapsed = time.perf_counter() - start
        if sample is not None:
            self.sample(sample, elapsed)


def task_instances(profile) -> int:
    """Task instances the profile recorded, summed over every thread."""
    return sum(
        tree.metrics.durations.count
        for per_thread in profile.task_trees
        for tree in per_thread.values()
    )


def profile_problems(result, sha256: str, expected_sha: str) -> List[str]:
    """What is wrong with one profiled run; empty when it is correct."""
    problems = []
    if not result.verified:
        problems.append("program.verify failed")
    instances = task_instances(result.profile)
    if instances != result.parallel.completed_tasks:
        problems.append(
            f"profile counts {instances} task instances, the runtime "
            f"completed {result.parallel.completed_tasks}"
        )
    if sha256 != expected_sha:
        problems.append(
            f"cube_sha256 {sha256[:12]} differs from {expected_sha[:12]} "
            f"at the same seed"
        )
    return problems


def _pool_counters(tracer, op_id, memory_stats) -> None:
    for stats in memory_stats:
        pool = stats.get("pool", {})
        tracer.add("pool_reused", pool.get("reused", 0), op_id)
        tracer.add("pool_allocated", pool.get("allocated", 0), op_id)


def _cube_counters(tracer, op_id, store_root: str, sha256: str) -> None:
    path = archive_store.ArchiveStore(store_root).object_path(sha256)
    with open(path, "rb") as handle:
        tracer.add("cube_bytes", len(gzip.decompress(handle.read())), op_id)
    tracer.add("cubes", 1, op_id)


#: wrappers every profiled run exercises
RUN_HOOKS = (
    "sim.run",
    "sim.schedule",
    "runtime.parallel",
    "runtime.push",
    "runtime.pop_local",
    "runtime.steal",
    "substrates.dispatch",
    "profiling.consume",
    "profiling.finalize",
    "profiling.artifact",
    "cube.export",
    "archive.put",
)


class ProgramWorkload:
    """Profiled and uninstrumented runs of one BOTS program, interleaved.

    The profiled operation is what a user of the profiler waits for: the
    instrumented run, the cube export, and the archive put into a fresh
    store.  The uninstrumented run of the same program is the paper's
    Section V baseline.
    """

    threads = 4
    primary = "run_s"
    forks = False

    def __init__(self, name: str, app: str, size: str, variant: str, hooks=()):
        self.name = name
        self.app = app
        self.size = size
        self.variant = variant
        self.hooks = tuple(hooks)
        self.expected_hooks = RUN_HOOKS + self.hooks
        #: seed -> cube hash of the first profiled run; later reps must match
        self.expected_sha: Dict[int, str] = {}
        self.tasks = 0
        self.events = 0

    def smaller(self) -> "ProgramWorkload":
        """The same workload on the program's test-size input."""
        return ProgramWorkload(self.name, self.app, "test", self.variant, self.hooks)

    def warm_up(self, m: Measurement) -> None:
        self.smaller().step(m, 0)

    def step(self, m: Measurement, i: int) -> None:
        ops = (self.profiled, self.bare) if i % 2 == 0 else (self.bare, self.profiled)
        for op in ops:
            op(m)

    def _run(self, **config):
        return run_app(
            self.app,
            size=self.size,
            variant=self.variant,
            n_threads=self.threads,
            **config,
        )

    def _profiled_op(self, m: Measurement, store: str, **config):
        """Run, export, archive: one profiled operation, timed as ``run``."""
        with m.op("run", "run_s") as op_id:
            result = self._run(seed=m.seed, **config)
            cube_export.profile_to_dict(result.profile)
            record = archive_store.ArchiveStore(store).put(
                result.profile,
                meta_for_result(result, size=self.size, variant=self.variant),
            )
        expected = self.expected_sha.setdefault(m.seed, record.sha256)
        problems = profile_problems(result, record.sha256, expected)
        m.tally.check(f"{self.app} profiled run", problems)
        self.tasks = result.parallel.completed_tasks
        self.events = result.parallel.events_dispatched
        if m.traced:
            _pool_counters(m.tracer, op_id, result.profile.memory_stats)
            _cube_counters(m.tracer, op_id, store, record.sha256)
        return record, op_id

    def profiled(self, m: Measurement) -> None:
        store = m.tmpdir()
        try:
            self._profiled_op(m, store)
        finally:
            shutil.rmtree(store)

    def bare(self, m: Measurement) -> None:
        with m.op("bare", "bare_s"):
            result = self._run(seed=m.seed, instrument=False)
        m.tally.check(
            f"{self.app} uninstrumented run",
            [] if result.verified else ["program.verify failed"],
        )

    def summarize(self, m: Measurement):
        runs, bares = m.samples["run_s"], m.samples["bare_s"]
        run, bare = min(runs), min(bares)
        metrics = {
            "tasks_per_s": self.tasks / run,
            "bare_tasks_per_s": self.tasks / bare,
            "op_ms": run * 1e3,
        }
        info = {
            "op": "profiled run: run, export, archive put",
            "profiled_runs": len(runs),
            "bare_runs": len(bares),
            "median_op_ms": median(runs) * 1e3,
            "median_bare_ms": median(bares) * 1e3,
            "tasks": self.tasks,
            "events": self.events,
            "overhead_ratio": run / bare,
            "measure_us_per_event": (run - bare) / self.events * 1e6,
            "cube_sha256": self.expected_sha.get(m.seed),
        }
        return metrics, info


class RecordReplayWorkload(ProgramWorkload):
    """A recorded run fanned out to five consumers, then replayed.

    The recorded run attaches the profiling, tracing, stats and
    validation substrates plus a recorder spilling to disk; the replay
    check (``verify_recording``) reads the recording back and must
    rebuild the live cube byte for byte.
    """

    SUBSTRATES = ("profiling", "tracing", "stats", "validation")

    def __init__(
        self, name: str, app: str, size: str, variant: str, hooks=(), checkpoint_every=None
    ):
        super().__init__(name, app, size, variant, hooks)
        #: None keeps the recorder's default cadence
        self.checkpoint_every = checkpoint_every
        self.records = 0

    def smaller(self) -> "RecordReplayWorkload":
        """Test-size input, checkpointing often enough to still checkpoint."""
        return RecordReplayWorkload(
            self.name, self.app, "test", self.variant, self.hooks, checkpoint_every=256
        )

    def step(self, m: Measurement, i: int) -> None:
        if i % 2 == 0:
            self.recorded(m)
            self.bare(m)
        else:
            self.bare(m)
            self.recorded(m)

    def recorded(self, m: Measurement) -> None:
        workdir = m.tmpdir()
        try:
            record_dir = os.path.join(workdir, "recording")
            store = os.path.join(workdir, "archive")
            recorder = (
                RecorderSubstrate(record_dir)
                if self.checkpoint_every is None
                else RecorderSubstrate(record_dir, checkpoint_every=self.checkpoint_every)
            )
            record, op_id = self._profiled_op(
                m, store, substrates=self.SUBSTRATES + (recorder,)
            )
            with m.op("replay", "replay_s"):
                report = recorder_replay.verify_recording(
                    record_dir, expected_sha=record.sha256
                )
            matched = report.usable and report.matched
            m.tally.check("replay check", [] if matched else report.reasons or ["DIVERGED"])
            self.records = report.records
            if m.traced:
                size = os.path.getsize(events_path(record_dir))
                m.tracer.add("record_bytes", size, op_id)
                m.tracer.add("recordings", 1, op_id)
        finally:
            shutil.rmtree(workdir)

    def summarize(self, m: Measurement):
        metrics, info = super().summarize(m)
        replays = m.samples["replay_s"]
        metrics["op_ms"] = min(replays) * 1e3
        info.update(
            op="replay check: verify_recording against the live cube hash",
            replays=len(replays),
            median_op_ms=median(replays) * 1e3,
            records=self.records,
            replay_events_per_s=self.records / min(replays),
            recorded_run_ms=min(m.samples["run_s"]) * 1e3,
            median_recorded_run_ms=median(m.samples["run_s"]) * 1e3,
        )
        return metrics, info


class CampaignWorkload:
    """Two identical fault campaigns served by a fresh gateway, per round.

    The campaigns use different idempotency keys, so the second reruns
    the first: its cells' archive puts take the dedup path.  Before each
    round the same programs run in process, uninstrumented, as the
    reference for task counts and for ``bare_tasks_per_s``.
    """

    primary = "round_s"
    forks = True
    size = "test"
    #: forked supervisor workers: nproc of the 2-core calibration machine
    jobs = 2
    #: the gateway's default team size for fault cells
    threads = 2

    def __init__(self, name: str, apps=("fib", "nqueens", "sparselu"), n_seeds: int = 5):
        self.name = name
        self.apps = tuple(apps)
        self.n_seeds = n_seeds
        self.expected_hooks = RUN_HOOKS + (
            "substrates.tracing",
            "supervisor.run",
            "supervisor.journal",
            "supervisor.execute_spec",
            "service.submit",
            "service.serve",
            "service.execute",
            "service.refresh",
            "service.ledger_append",
        ) + (("bots.serial",) if "nqueens" in self.apps else ())
        #: (app, seed) -> task instances of the uninstrumented reference
        self.reference_tasks: Dict[tuple, int] = {}

    @property
    def cells(self) -> int:
        return len(self.apps) * self.n_seeds

    def smaller(self) -> "CampaignWorkload":
        return CampaignWorkload(self.name, apps=("fib",), n_seeds=1)

    def warm_up(self, m: Measurement) -> None:
        self.smaller().step(m, 0)

    def step(self, m: Measurement, i: int) -> None:
        self.reference(m)
        self.round(m)

    def seeds(self, m: Measurement):
        return tuple(range(m.seed, m.seed + self.n_seeds))

    def reference(self, m: Measurement) -> None:
        wall = 0.0
        for app in self.apps:
            for seed in self.seeds(m):
                with m.op("bare"):
                    start = time.perf_counter()
                    result = run_app(
                        app,
                        size=self.size,
                        n_threads=self.threads,
                        instrument=False,
                        seed=seed,
                    )
                    wall += time.perf_counter() - start
                m.tally.check(
                    f"{app} reference run",
                    [] if result.verified else ["program.verify failed"],
                )
                self.reference_tasks[(app, seed)] = result.parallel.completed_tasks
        m.sample("reference_s", wall)

    def round(self, m: Measurement) -> None:
        home = m.tmpdir()
        try:
            spec = CampaignSpec(
                kind="fault",
                apps=self.apps,
                modes=("none",),
                seeds=self.seeds(m),
                size=self.size,
                n_threads=self.threads,
            )
            gateway = Gateway(home, jobs=self.jobs)
            with m.op("round", "round_s") as op_id:
                first, _ = gateway.submit(spec, idempotency_key="first")
                rerun, _ = gateway.submit(spec, idempotency_key="rerun")
                gateway.serve(run_until_idle=True)
            attempts = self._check_cells(m, gateway, (first, rerun), op_id)
            self._check_archive(m, gateway, (first, rerun), attempts, op_id)
        finally:
            shutil.rmtree(home)

    def _check_cells(self, m: Measurement, gateway: Gateway, campaigns, op_id) -> int:
        """Check states and cell outcomes; return the cell attempts launched."""
        gateway.refresh()
        attempts = 0
        durations = []
        for campaign in campaigns:
            cid = campaign.campaign_id
            state = gateway.campaign(cid).state
            m.tally.check(
                f"campaign {cid}",
                [] if state == "archived" else [f"state {state!r}, not archived"],
            )
            journal = load_journal(os.path.join(gateway.journals_dir, f"{cid}.jsonl"))
            for cell, record in journal.results.items():
                m.tally.check(
                    f"cell {cell}",
                    [] if record.get("outcome") == "ok"
                    else [f"outcome {record.get('outcome')!r}: {record.get('error')}"],
                )
                durations.append(record["duration_s"])
                child = record.get(CHILD_KEY)
                if child is not None:
                    m.children.append(child)
                    execute = child["spans"]["supervisor.execute_spec"][1]
                    m.tracer.add("cell_duration_s", record["duration_s"], op_id)
                    m.tracer.add(
                        "cell_overhead_s", record["duration_s"] - execute, op_id
                    )
            attempts += sum(journal.attempts.values())
        m.samples.setdefault("cell_s", []).extend(durations)
        m.sample("retried_cells", attempts - 2 * self.cells)
        m.tracer.add("attempts", attempts, op_id)
        return attempts

    def _check_archive(self, m: Measurement, gateway: Gateway, campaigns, attempts, op_id):
        """Every cell archived once per finished attempt, with a correct profile.

        A cell the supervisor retried after it had already archived (its
        poll can read a worker that exited after reporting as crashed)
        leaves one more record; that costs time, which the metrics show,
        but every record still holds a correct profile.
        """
        store = archive_store.ArchiveStore(gateway.archive_dir)
        records = store.records()
        problems = []
        if len(records) != attempts:
            problems.append(f"{len(records)} archive records for {attempts} cell attempts")
        expected_cells = {
            (f"campaign:{campaign.campaign_id}", app, seed)
            for campaign in campaigns
            for app in self.apps
            for seed in self.seeds(m)
        }
        archived_cells = {
            (tag, record.meta.kernel, record.meta.seed)
            for record in records
            for tag in record.tags
            if tag.startswith("campaign:")
        }
        if archived_cells != expected_cells:
            problems.append(
                f"{len(expected_cells - archived_cells)} cell(s) not archived, "
                f"{len(archived_cells - expected_cells)} unexpected"
            )
        checked = set()
        for record in records:
            if not record.meta.verified:
                problems.append(f"{record.run_id}: program.verify failed")
            if record.sha256 in checked:
                continue
            checked.add(record.sha256)
            profile = store.load_object(record.sha256)
            expected = self.reference_tasks.get((record.meta.kernel, record.meta.seed))
            instances = task_instances(profile)
            if instances != expected:
                problems.append(
                    f"{record.run_id}: profile counts {instances} task instances, "
                    f"the uninstrumented reference completed {expected}"
                )
            if m.traced:
                _pool_counters(m.tracer, op_id, profile.memory_stats)
                _cube_counters(m.tracer, op_id, gateway.archive_dir, record.sha256)
        m.tally.check("campaign archive", problems)

    def summarize(self, m: Measurement):
        """Rounds and cells report medians, the in-process reference its best.

        A round's time also depends on how the two workers and the
        supervisor happen to interleave, which varies both ways, so its
        fastest sample is a lucky interleaving rather than the cost floor.
        """
        tasks = sum(self.reference_tasks.values())
        rounds = m.samples["round_s"]
        cells = sorted(m.samples["cell_s"])
        metrics = {
            "tasks_per_s": 2 * tasks / median(rounds),
            "bare_tasks_per_s": tasks / min(m.samples["reference_s"]),
            "op_ms": median(cells) * 1e3,
        }
        info = {
            "op": "campaign cell, launch to result (journal duration_s)",
            "rounds": len(rounds),
            "cells": len(cells),
            "tasks_per_round": 2 * tasks,
            "cells_per_s": 2 * self.cells / median(rounds),
            "best_round_cells_per_s": 2 * self.cells / min(rounds),
            "cell_p80_ms": cells[int(0.8 * len(cells))] * 1e3,
            "fastest_cell_ms": cells[0] * 1e3,
            "retried_cells": sum(m.samples["retried_cells"]),
        }
        return metrics, info


#: The benchmark's workloads, by name.
WORKLOADS = {
    "fib-stress": ProgramWorkload("fib-stress", "fib", "small", "stress"),
    "nqueens-cutoff": ProgramWorkload(
        "nqueens-cutoff", "nqueens", "medium", "optimized", hooks=("bots.serial",)
    ),
    "record-replay": RecordReplayWorkload(
        "record-replay",
        "fib",
        "small",
        "stress",
        hooks=(
            "substrates.tracing",
            "substrates.stats",
            "substrates.validation",
            "recorder.consume",
            "recorder.checkpoint",
            "recorder.read",
            "recorder.rebuild",
        ),
    ),
    "campaign": CampaignWorkload("campaign"),
}


def closed_loop(step, seconds: float) -> int:
    """Run ``step(i)`` back to back while the next one fits in the window."""
    start = time.perf_counter()
    steps, last = 0, 0.0
    while steps == 0 or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        step(steps)
        last = time.perf_counter() - began
        steps += 1
    return steps


def measure(workload, seed: int, seconds: float, tmp_root: str, trace: bool = False) -> dict:
    """Warm up, then measure one workload for ``seconds``.

    Untraced, returns the workload's end-to-end metrics.  Traced, each
    step runs once plain and once with the wrappers installed, and the
    per-layer metrics come from the traced half.
    """
    tally = Tally()
    workload.warm_up(Measurement(seed, tmp_root, tally))
    if not trace:
        m = Measurement(seed, tmp_root, tally)
        closed_loop(lambda i: workload.step(m, i), seconds)
        metrics, info = workload.summarize(m)
        return {"tally": tally, "metrics": metrics, "info": info}

    recorder = SpanRecorder()
    plain = Measurement(seed, tmp_root, tally)
    traced = Measurement(seed, tmp_root, tally, recorder)

    def step(i: int) -> None:
        workload.step(plain, i)
        with installed(recorder):
            workload.step(traced, i)

    closed_loop(step, seconds)
    for child in traced.children:
        recorder.merge_child(child)
    missing = missing_calls(recorder, workload.expected_hooks)
    if missing:
        raise TraceError(
            f"{workload.name}: wrappers recorded zero calls: {', '.join(missing)}"
        )
    overhead = min(traced.samples[workload.primary]) / min(
        plain.samples[workload.primary]
    )
    aggregates = recorder.aggregates() + traced.children
    return {
        "tally": tally,
        "metrics": layer_metrics(aggregates, overhead),
        "info": workload.summarize(traced)[1],
        "trace": dict(recorder.to_json(), ops=aggregates),
    }
