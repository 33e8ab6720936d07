"""Source-code region handles and the registry that interns them.

In Score-P every measured entity -- a function, an OpenMP construct, a
user-defined phase -- is a *region* identified by a handle.  OPARI2
registers one handle per instrumented construct; compiler instrumentation
registers one per function.  Metrics in the call-path profile are keyed by
region handles, so handles must be interned: the same construct always maps
to the same handle no matter how many times it executes.

We reproduce that scheme: :class:`RegionRegistry` interns
:class:`Region` objects by ``(name, region_type, file, line)``.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, Optional, Tuple


class RegionType(enum.Enum):
    """Classification of a source region, mirroring POMP2 region types."""

    FUNCTION = "function"
    PARALLEL = "parallel"
    IMPLICIT_TASK = "implicit_task"
    TASK = "task"
    TASK_CREATE = "task_create"
    TASKWAIT = "taskwait"
    TASKYIELD = "taskyield"
    BARRIER = "barrier"
    IMPLICIT_BARRIER = "implicit_barrier"
    SINGLE = "single"
    MASTER = "master"
    CRITICAL = "critical"
    ATOMIC = "atomic"
    PARAMETER = "parameter"
    PHASE = "phase"

    def is_scheduling_point(self) -> bool:
        """True for region types at which tasks may be scheduled.

        OpenMP 3.0 defines task scheduling points at task creation,
        taskwait, barriers (explicit and implicit), and task completion.
        Only region types — not completion — are represented here.
        """
        return self in _SCHEDULING_POINTS

    def __repr__(self) -> str:
        return f"RegionType.{self.name}"


_SCHEDULING_POINTS = frozenset(
    {
        RegionType.TASK_CREATE,
        RegionType.TASKWAIT,
        RegionType.TASKYIELD,
        RegionType.BARRIER,
        RegionType.IMPLICIT_BARRIER,
    }
)


class Region:
    """An interned handle for one source-code region.

    Instances are created only through :meth:`RegionRegistry.register`;
    identity comparison (`is`) is therefore valid between handles from the
    same registry, and handles are hashable dict keys in call trees.
    """

    __slots__ = ("handle", "name", "region_type", "file", "line")

    def __init__(
        self,
        handle: int,
        name: str,
        region_type: RegionType,
        file: Optional[str] = None,
        line: Optional[int] = None,
    ) -> None:
        self.handle = handle
        self.name = name
        self.region_type = region_type
        self.file = file
        self.line = line

    @property
    def is_scheduling_point(self) -> bool:
        return self.region_type.is_scheduling_point()

    def location(self) -> str:
        """Human-readable source location, e.g. ``fib.py:12``."""
        if self.file is None:
            return "<unknown>"
        if self.line is None:
            return self.file
        return f"{self.file}:{self.line}"

    def __repr__(self) -> str:
        return f"<Region #{self.handle} {self.region_type.value} {self.name!r}>"

    def __str__(self) -> str:
        return self.name


RegionKey = Tuple[str, RegionType, Optional[str], Optional[int]]


class RegionRegistry:
    """Interning factory for :class:`Region` handles.

    The registry hands out consecutive integer handles, mirroring the
    handle tables OPARI2 generates.  Lookup by name is provided for tests
    and the profile query layer.
    """

    def __init__(self) -> None:
        self._by_key: Dict[RegionKey, Region] = {}
        self._by_handle: Dict[int, Region] = {}
        self._next_handle = 1

    def register(
        self,
        name: str,
        region_type: RegionType,
        file: Optional[str] = None,
        line: Optional[int] = None,
        handle: Optional[int] = None,
    ) -> Region:
        """Return the unique region for this key, creating it on first use.

        ``handle`` pins the new region to a specific handle value: the
        record-stream decoder uses this so a replayed registry agrees
        with the live one about region ids (the recorder writes live
        handles to the wire -- one shared intern table end to end).
        Pinning an occupied or stale handle raises ``ValueError``.
        """
        key: RegionKey = (name, region_type, file, line)
        region = self._by_key.get(key)
        if region is None:
            if handle is None:
                handle = self._next_handle
            elif handle in self._by_handle:
                raise ValueError(
                    f"region handle {handle} already registered "
                    f"({self._by_handle[handle]!r})"
                )
            region = Region(handle, name, region_type, file, line)
            self._by_key[key] = region
            self._by_handle[handle] = region
            self._next_handle = max(self._next_handle, handle + 1)
        elif handle is not None and region.handle != handle:
            raise ValueError(
                f"region {name!r} already interned as handle "
                f"{region.handle}, cannot re-pin to {handle}"
            )
        return region

    def lookup(self, handle: int) -> Region:
        """Resolve a handle back to its region; raises ``KeyError`` if unknown."""
        return self._by_handle[handle]

    def find(self, name: str, region_type: Optional[RegionType] = None) -> Region:
        """Find the unique region with this name (and type if given).

        Raises ``KeyError`` if no region matches and ``ValueError`` if the
        name is ambiguous.
        """
        matches = [
            r
            for r in self._by_handle.values()
            if r.name == name and (region_type is None or r.region_type is region_type)
        ]
        if not matches:
            raise KeyError(f"no region named {name!r}")
        if len(matches) > 1:
            raise ValueError(f"region name {name!r} is ambiguous ({len(matches)} matches)")
        return matches[0]

    def __iter__(self) -> Iterator[Region]:
        return iter(self._by_handle.values())

    def __len__(self) -> int:
        return len(self._by_handle)

    def __contains__(self, region: Region) -> bool:
        return self._by_handle.get(region.handle) is region
