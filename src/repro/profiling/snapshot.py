"""Mid-run snapshots of a live :class:`TaskProfiler`.

The recorder's checkpoints need a *consistent* cube partial while the
measured run is still mutating the profiler.  The approach: clone the
whole profiler (call trees, instance table, pools, concurrency
trackers), then force-finish the **copy** with
:meth:`~repro.profiling.task_profiler.TaskProfiler.salvage_finish` so
in-flight task instances are quarantined instead of crashing the
snapshot.  The live profiler is left as it was.  The simulated runtime
is single-threaded per run, so there is no torn-state race either.
"""

from __future__ import annotations

import pickle

from repro.profiling.salvage import SalvageReport
from repro.profiling.task_profiler import TaskProfiler


def _clone_profiler(profiler: TaskProfiler) -> TaskProfiler:
    """A consistent private copy of the live profiler.

    Checkpoints run on the measured run's clock, so the copy is the
    snapshot's whole cost: a ``pickle`` round-trip is several times
    faster than ``copy.deepcopy`` on real call trees and produces the
    same object graph.  The copy comes without the governor
    (:meth:`TaskProfiler.__getstate__`), which finishing and packaging
    it never consult.
    """
    return pickle.loads(pickle.dumps(profiler, protocol=pickle.HIGHEST_PROTOCOL))


def snapshot_profiler(profiler: TaskProfiler, time: float):
    """Return a finished :class:`~repro.profiling.profile.Profile`
    reflecting the profiler's state at ``time``, without disturbing it.

    In-flight task instances in the copy are quarantined by the salvage
    finish, so the snapshot's ``salvage`` section records exactly how
    partial the partial is.
    """
    clone = _clone_profiler(profiler)
    if clone.salvage is None:
        clone.salvage = SalvageReport()
    clone.salvage.note(f"checkpoint snapshot at t={time:g}")
    clone.salvage_finish(time)
    return clone.build_profile()


def snapshot_profile_dict(profiler: TaskProfiler, time: float) -> dict:
    """Snapshot as a canonical profile dictionary (cube partial).

    The clone is a large, short-lived object graph full of reference
    cycles (call-tree parent links), which makes it pure poison for the
    generational collector: a threshold collection mid-snapshot scans
    the whole transient graph, and afterwards the cyclic garbage sits
    in gen2 taxing every later collection of the measured run.  So the
    collector is paused for the snapshot's lifetime and the cycles are
    reclaimed eagerly once the dict is out.
    """
    import gc

    from repro.cube.export import profile_to_dict

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        result = profile_to_dict(snapshot_profiler(profiler, time))
    finally:
        if gc_was_enabled:
            gc.enable()
    # With the collector paused above, the clone was never promoted: its
    # cycles all sit in generation 0, so a young-only collection frees
    # them without scanning the measured run's whole live heap.
    gc.collect(0)
    return result


__all__ = ["snapshot_profiler", "snapshot_profile_dict"]
