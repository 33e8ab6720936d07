"""Metric queries over profiles: hot paths, top regions, flat views."""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.profiling.calltree import CallTreeNode
from repro.profiling.profile import Profile


def _flat_by_handle(profile: Profile, include_stubs: bool):
    """Sum the profile's flat metric columns per region handle.

    Returns ``(regions, exclusive, inclusive, visits)`` where ``regions``
    is handle -> Region in first-encounter order and the three dicts map
    each handle to its sum, folded row by row in row order.  Returns
    ``None`` for an empty profile.
    """
    handles, regions, exclusive, inclusive, visits = profile.flat_metric_columns(
        include_stubs
    )
    if not handles:
        return None
    excl = dict.fromkeys(regions, 0.0)
    incl = dict.fromkeys(regions, 0.0)
    vis = dict.fromkeys(regions, 0)
    for handle, e, i, v in zip(handles, exclusive, inclusive, visits):
        excl[handle] += e
        incl[handle] += i
        vis[handle] += v
    return regions, excl, incl, vis


def hot_path(node: CallTreeNode) -> List[CallTreeNode]:
    """Follow the heaviest-inclusive child from ``node`` to a leaf.

    The classic CUBE "hot path" expansion: at each level descend into the
    child with the largest inclusive time, stopping when the node's own
    exclusive time exceeds every child.
    """
    path = [node]
    current = node
    while current.children:
        heaviest = max(
            current.children.values(), key=lambda c: c.metrics.inclusive_time
        )
        if heaviest.metrics.inclusive_time <= current.exclusive_time:
            break
        path.append(heaviest)
        current = heaviest
    return path


def top_regions(
    profile: Profile,
    metric: str = "exclusive",
    limit: int = 10,
    include_stubs: bool = False,
) -> List[Tuple[str, float]]:
    """Program-wide region ranking by summed exclusive (or inclusive) time.

    The per-handle sums fold the profile's flat metric columns; names
    combine handle subtotals in first-encounter order.
    """
    if metric not in ("exclusive", "inclusive"):
        raise ValueError(f"unknown metric {metric!r}")
    grouped = _flat_by_handle(profile, include_stubs)
    if grouped is None:
        return []
    regions, excl, incl, _vis = grouped
    column = excl if metric == "exclusive" else incl
    totals: Dict[str, float] = {}
    for handle, region in regions.items():
        totals[region.name] = totals.get(region.name, 0.0) + column[handle]
    ranked = sorted(totals.items(), key=lambda kv: kv[1], reverse=True)
    return ranked[:limit]


def flat_region_profile(profile: Profile) -> Dict[str, Dict[str, float]]:
    """Flat (call-path-collapsed) per-region metrics.

    Returns ``region name -> {exclusive, inclusive, visits}`` summed over
    every occurrence in every tree (stub nodes excluded, since their time
    is an alternate attribution of task execution), folded from the
    profile's flat metric columns.
    """
    flat: Dict[str, Dict[str, float]] = {}
    grouped = _flat_by_handle(profile, include_stubs=False)
    if grouped is None:
        return flat
    regions, excl, incl, vis = grouped
    for handle, region in regions.items():
        entry = flat.setdefault(
            region.name, {"exclusive": 0.0, "inclusive": 0.0, "visits": 0}
        )
        entry["exclusive"] += excl[handle]
        entry["inclusive"] += incl[handle]
        entry["visits"] += vis[handle]
    return flat


def find_task_stub_summary(profile: Profile) -> List[Tuple[str, str, float, int]]:
    """All stub nodes: (thread/scheduling point, task construct, time, fragments).

    The Fig. 5 reading aid: how much task execution happened inside each
    scheduling point.
    """
    out = []
    for thread_id in range(profile.n_threads):
        for node in profile.main_trees[thread_id].walk():
            if node.is_stub:
                anchor = node.parent.path_names() if node.parent else "<root>"
                out.append(
                    (
                        f"t{thread_id}:{anchor}",
                        node.region.name,
                        node.metrics.inclusive_time,
                        node.metrics.visits,
                    )
                )
    return out
