"""The run-level profile container.

After a measured run the profile holds, per thread, the *main* (implicit
task) call tree and the aggregate *task trees* -- "the profile contains
the call tree of the implicit tasks and a call tree for each task
construct which merges the statistics about the execution of all instances
of this task construct" (Section IV-C, Fig. 11).

Aggregation helpers combine per-thread trees into program-wide views, the
form in which the paper's tables quote numbers (e.g. Table III sums
exclusive times over threads).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import ProfileError
from repro.events.regions import Region, RegionType
from repro.profiling.calltree import CallTreeNode
from repro.profiling.metrics import StatAccumulator

TaskTreeKey = Tuple[Region, Optional[tuple]]


class Profile:
    """A finished measurement: per-thread main trees + task trees."""

    def __init__(
        self,
        main_trees: List[CallTreeNode],
        task_trees: List[Dict[TaskTreeKey, CallTreeNode]],
        memory_stats: Optional[List[dict]] = None,
        salvage=None,
    ) -> None:
        if len(main_trees) != len(task_trees):
            raise ProfileError("main_trees and task_trees length mismatch")
        self.main_trees = main_trees
        self.task_trees = task_trees
        self.memory_stats = memory_stats or [{} for _ in main_trees]
        #: :class:`~repro.profiling.salvage.SalvageReport` when the profile
        #: was built in lenient mode; ``None`` for strict (complete) runs.
        self.salvage = salvage

    # ------------------------------------------------------------------
    @classmethod
    def from_task_profiler(cls, profiler) -> "Profile":
        main = [t.implicit_root for t in profiler.threads]
        tasks = [dict(t.task_trees) for t in profiler.threads]
        memory = [
            {
                "pool": t.pool.stats(),
                "concurrency": t.concurrency.as_dict(),
            }
            for t in profiler.threads
        ]
        return cls(main, tasks, memory, salvage=getattr(profiler, "salvage", None))

    # ------------------------------------------------------------------
    @property
    def is_partial(self) -> bool:
        """True when a salvage report says the profile is incomplete."""
        return self.salvage is not None and self.salvage.partial

    # ------------------------------------------------------------------
    @property
    def n_threads(self) -> int:
        return len(self.main_trees)

    def main_tree(self, thread_id: int) -> CallTreeNode:
        return self.main_trees[thread_id]

    def thread_task_trees(self, thread_id: int) -> Dict[TaskTreeKey, CallTreeNode]:
        return self.task_trees[thread_id]

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def aggregated_main_tree(self) -> CallTreeNode:
        """Merge all threads' implicit-task trees into one fresh tree."""
        first = self.main_trees[0]
        merged = CallTreeNode(first.region, first.parameter)
        for tree in self.main_trees:
            merged.merge(tree)
        return merged

    def aggregated_task_trees(self) -> Dict[TaskTreeKey, CallTreeNode]:
        """Merge every thread's per-construct task trees program-wide."""
        merged: Dict[TaskTreeKey, CallTreeNode] = {}
        for per_thread in self.task_trees:
            for key, tree in per_thread.items():
                target = merged.get(key)
                if target is None:
                    target = CallTreeNode(tree.region, tree.parameter)
                    merged[key] = target
                target.merge(tree)
        return merged

    def task_tree(self, region_name: str) -> CallTreeNode:
        """The program-wide aggregate tree of the named task construct.

        When parameter instrumentation split the construct into several
        trees, they are merged for this view; use
        :meth:`task_trees_by_parameter` for the split form.
        """
        merged: Optional[CallTreeNode] = None
        for key, tree in self.aggregated_task_trees().items():
            region, _parameter = key
            if region.name != region_name:
                continue
            if merged is None:
                merged = CallTreeNode(region, None)
            clone = tree.deep_copy()
            clone.parameter = None
            merged.merge(clone)
        if merged is None:
            raise KeyError(f"no task tree for construct {region_name!r}")
        return merged

    def task_trees_by_parameter(self, region_name: str) -> Dict[Optional[tuple], CallTreeNode]:
        """Parameter-value -> aggregate tree, for one task construct."""
        out: Dict[Optional[tuple], CallTreeNode] = {}
        for (region, parameter), tree in self.aggregated_task_trees().items():
            if region.name == region_name:
                out[parameter] = tree
        if not out:
            raise KeyError(f"no task tree for construct {region_name!r}")
        return out

    # ------------------------------------------------------------------
    # Queries used by the analysis layer
    # ------------------------------------------------------------------
    def task_instance_stats(self, region_name: str) -> StatAccumulator:
        """Per-instance duration statistics of a task construct.

        The aggregate tree root's duration accumulator holds exactly one
        sample per completed instance (mean/min/max task runtime --
        Section III's required measurement).
        """
        return self.task_tree(region_name).metrics.durations

    def total_task_instances(self) -> int:
        """Completed task instances program-wide (all constructs)."""
        return sum(
            tree.metrics.durations.count
            for per_thread in self.task_trees
            for tree in per_thread.values()
        )

    def region_time(
        self,
        region_name: str,
        metric: str = "exclusive",
        where: str = "everywhere",
    ) -> float:
        """Total time of all nodes with this region name.

        ``metric`` is ``'exclusive'`` or ``'inclusive'``; ``where`` selects
        ``'main'`` (implicit trees), ``'tasks'`` (aggregate task trees), or
        ``'everywhere'``.  Sums over threads, matching how the paper quotes
        region times (Table III).
        """
        if metric not in ("exclusive", "inclusive"):
            raise ValueError(f"unknown metric {metric!r}")
        roots: List[CallTreeNode] = []
        if where in ("main", "everywhere"):
            roots.extend(self.main_trees)
        if where in ("tasks", "everywhere"):
            roots.extend(
                tree for per_thread in self.task_trees for tree in per_thread.values()
            )
        if where not in ("main", "tasks", "everywhere"):
            raise ValueError(f"unknown scope {where!r}")
        total = 0.0
        for root in roots:
            for node in root.walk():
                if node.region.name == region_name and not node.is_stub:
                    total += (
                        node.exclusive_time if metric == "exclusive" else node.inclusive_time
                    )
        return total

    def flat_metric_columns(
        self, include_stubs: bool = False
    ) -> Tuple[List[int], Dict[int, Region], List[float], List[float], List[int]]:
        """Columnar flat view: one row per call-tree node, handle-keyed.

        Walks every tree (main + task aggregates) once, in the same
        deterministic order the dict-based flat queries use, and returns
        parallel columns ``(handles, regions, exclusive, inclusive,
        visits)`` where ``regions`` maps each handle to its
        :class:`~repro.events.regions.Region` in first-encounter order.
        The flat cube queries (:mod:`repro.cube.query`) fold them per
        handle in row order.
        """
        handles: List[int] = []
        regions: Dict[int, Region] = {}
        exclusive: List[float] = []
        inclusive: List[float] = []
        visits: List[int] = []
        roots: List[CallTreeNode] = list(self.main_trees)
        for per_thread in self.task_trees:
            roots.extend(per_thread.values())
        for root in roots:
            for node in root.walk():
                if node.is_stub and not include_stubs:
                    continue
                region = node.region
                handle = region.handle
                if handle not in regions:
                    regions[handle] = region
                handles.append(handle)
                exclusive.append(node.exclusive_time)
                inclusive.append(node.metrics.inclusive_time)
                visits.append(node.metrics.visits)
        return handles, regions, exclusive, inclusive, visits

    def stub_nodes(self, thread_id: Optional[int] = None) -> List[CallTreeNode]:
        """All stub nodes, optionally restricted to one thread's main tree."""
        trees = (
            self.main_trees if thread_id is None else [self.main_trees[thread_id]]
        )
        return [node for tree in trees for node in tree.walk() if node.is_stub]

    def scheduling_point_idle_time(self, thread_id: int) -> float:
        """Time inside scheduling points *not* spent executing tasks.

        Fig. 5's analysis: barrier inclusive time minus the stub nodes'
        task-execution time is "overhead caused by task management and/or
        idle time".
        """
        idle = 0.0
        for node in self.main_trees[thread_id].walk():
            if node.region.region_type in (
                RegionType.BARRIER,
                RegionType.IMPLICIT_BARRIER,
                RegionType.TASKWAIT,
                RegionType.TASKYIELD,
            ):
                stub_time = sum(
                    c.metrics.inclusive_time for c in node.children.values() if c.is_stub
                )
                idle += node.metrics.inclusive_time - stub_time
        return idle

    def max_concurrent_tasks_per_thread(self) -> int:
        """Table II's metric for this run."""
        maxima = [
            stats.get("concurrency", {}).get("overall_max", 0)
            for stats in self.memory_stats
        ]
        return max(maxima, default=0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        constructs = {key[0].name for per in self.task_trees for key in per}
        return (
            f"<Profile threads={self.n_threads} "
            f"task_constructs={sorted(constructs)}>"
        )
