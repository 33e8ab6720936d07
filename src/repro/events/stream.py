"""Per-thread event streams and whole-program traces.

Score-P translates each thread's event stream into a profile on the fly;
for testing, debugging, and the paper's Fig. 1/2/4 examples we also support
*recording* the stream.  :class:`EventStream` is an append-only log with
query helpers; :class:`ProgramTrace` bundles one stream per thread plus the
region registry.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Type

from repro.events.model import (
    AnyEvent,
    EnterEvent,
    Event,
    ExitEvent,
    TaskBeginEvent,
    TaskEndEvent,
)
from repro.events.regions import Region, RegionRegistry


class EventStream:
    """Append-only event log of a single simulated thread."""

    __slots__ = ("thread_id", "_events")

    def __init__(self, thread_id: int) -> None:
        self.thread_id = thread_id
        self._events: List[AnyEvent] = []

    # ------------------------------------------------------------------
    def append(self, event: AnyEvent) -> None:
        if event.thread_id != self.thread_id:
            raise ValueError(
                f"event from thread {event.thread_id} appended to stream of "
                f"thread {self.thread_id}"
            )
        if self._events and event.time < self._events[-1].time:
            raise ValueError(
                f"event timestamps must be monotone: {event.time} < "
                f"{self._events[-1].time}"
            )
        self._events.append(event)

    def append_unchecked(self, event: AnyEvent) -> None:
        """Append without consistency checks.

        Only stream faults use this (the tracing substrate stores an
        injector's output through it): injected clock skew and reordering
        deliberately violate the monotonicity that :meth:`append`
        enforces, and the salvage pipeline repairs the stream afterwards.
        """
        self._events.append(event)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[AnyEvent]:
        return iter(self._events)

    def __getitem__(self, index):
        return self._events[index]

    # ------------------------------------------------------------------
    def of_type(self, event_type: Type[Event]) -> List[AnyEvent]:
        """All events of the given class, in order."""
        return [e for e in self._events if isinstance(e, event_type)]

    def for_region(self, region: Region) -> List[AnyEvent]:
        """All events referring to ``region`` (enter/exit/task events)."""
        return [e for e in self._events if getattr(e, "region", None) is region]

    def filter(self, predicate: Callable[[AnyEvent], bool]) -> List[AnyEvent]:
        return [e for e in self._events if predicate(e)]

    def enters(self) -> List[EnterEvent]:
        return self.of_type(EnterEvent)  # type: ignore[return-value]

    def exits(self) -> List[ExitEvent]:
        return self.of_type(ExitEvent)  # type: ignore[return-value]

    def task_begins(self) -> List[TaskBeginEvent]:
        return self.of_type(TaskBeginEvent)  # type: ignore[return-value]

    def task_ends(self) -> List[TaskEndEvent]:
        return self.of_type(TaskEndEvent)  # type: ignore[return-value]

    def pretty(self, limit: Optional[int] = None) -> str:
        """Multi-line human-readable rendering (used in examples/tests)."""
        events = self._events if limit is None else self._events[:limit]
        lines = [str(e) for e in events]
        if limit is not None and len(self._events) > limit:
            lines.append(f"... ({len(self._events) - limit} more)")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<EventStream thread={self.thread_id} events={len(self._events)}>"


class ProgramTrace:
    """All per-thread streams of one run plus the shared region registry."""

    def __init__(self, n_threads: int, registry: Optional[RegionRegistry] = None) -> None:
        self.registry = registry if registry is not None else RegionRegistry()
        self.streams: List[EventStream] = [EventStream(t) for t in range(n_threads)]

    @property
    def n_threads(self) -> int:
        return len(self.streams)

    def stream(self, thread_id: int) -> EventStream:
        return self.streams[thread_id]

    def record(self, event: AnyEvent) -> None:
        self.streams[event.thread_id].append(event)

    def total_events(self) -> int:
        return sum(len(s) for s in self.streams)

    def merged(self) -> List[AnyEvent]:
        """All events of all threads in global timestamp order."""
        return merge_streams(self.streams)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ProgramTrace threads={self.n_threads} events={self.total_events()}>"


def merge_streams(streams: Iterable[Iterable[AnyEvent]]) -> List[AnyEvent]:
    """The events of per-thread ``streams`` in global timestamp order.

    Ties are broken by thread id, then position within the stream, which
    is deterministic because per-stream order is already total.  This is
    the order of :meth:`ProgramTrace.merged`.
    """
    indexed: List[tuple] = []
    for stream in streams:
        for position, event in enumerate(stream):
            indexed.append((event.time, event.thread_id, position, event))
    indexed.sort(key=lambda item: (item[0], item[1], item[2]))
    return [item[3] for item in indexed]


def stream_from_events(events: Sequence[AnyEvent], thread_id: int = 0) -> EventStream:
    """Build a stream from a literal event list (test/example helper)."""
    stream = EventStream(thread_id)
    for event in events:
        stream.append(event)
    return stream
