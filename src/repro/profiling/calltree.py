"""The call-tree data structure.

A node represents one call path position: a region, optionally qualified
by a parameter value (parameter instrumentation, used for the paper's
Table IV per-recursion-depth statistics).  Children are keyed by
``(region, parameter)`` so re-entering the same construct reuses the same
node, exactly as in Score-P's profile tree.

Stub nodes (paper Section IV-B4) are ordinary nodes flagged ``is_stub``;
they appear under scheduling-point nodes of implicit tasks and carry the
task's contribution to the time measured there.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.events.regions import Region
from repro.profiling.metrics import NodeMetrics

#: Children are keyed by region plus an optional (name, value) parameter.
NodeKey = Tuple[Region, Optional[tuple]]


class CallTreeNode:
    """One node of a call-path profile tree."""

    # __weakref__ keeps nodes weak-referenceable so reclaimability of
    # trimmed pool nodes is testable without sacrificing the slots layout.
    __slots__ = (
        "region",
        "parameter",
        "parent",
        "children",
        "metrics",
        "is_stub",
        "__weakref__",
    )

    def __init__(
        self,
        region: Region,
        parameter: Optional[tuple] = None,
        parent: Optional["CallTreeNode"] = None,
        is_stub: bool = False,
    ) -> None:
        self.region = region
        self.parameter = parameter
        self.parent = parent
        self.children: Dict[NodeKey, CallTreeNode] = {}
        self.metrics = NodeMetrics()
        self.is_stub = is_stub

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def key(self) -> NodeKey:
        return (self.region, self.parameter)

    def child(
        self,
        region: Region,
        parameter: Optional[tuple] = None,
        is_stub: bool = False,
        factory: Optional[Callable[..., "CallTreeNode"]] = None,
    ) -> "CallTreeNode":
        """Get-or-create the child for ``(region, parameter)``.

        ``factory`` lets the node pool inject recycled nodes.
        """
        key = (region, parameter)
        node = self.children.get(key)
        if node is None:
            if factory is not None:
                node = factory(region, parameter, self, is_stub)
            else:
                node = CallTreeNode(region, parameter, parent=self, is_stub=is_stub)
            self.children[key] = node
        return node

    def find_child(
        self, region: Region, parameter: Optional[tuple] = None
    ) -> Optional["CallTreeNode"]:
        """Lookup without creation."""
        return self.children.get((region, parameter))

    def depth(self) -> int:
        """Distance from the tree root (root has depth 0)."""
        depth = 0
        node = self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    def path(self) -> List["CallTreeNode"]:
        """Root-to-this-node path."""
        nodes: List[CallTreeNode] = []
        node: Optional[CallTreeNode] = self
        while node is not None:
            nodes.append(node)
            node = node.parent
        nodes.reverse()
        return nodes

    def path_names(self) -> str:
        """``main/parallel/barrier``-style path string (for messages)."""
        return "/".join(n.display_name() for n in self.path())

    def display_name(self) -> str:
        name = self.region.name
        if self.parameter is not None:
            pname, pvalue = self.parameter
            name = f"{name}[{pname}={pvalue}]"
        if self.is_stub:
            name = f"{name} (stub)"
        return name

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def walk(self) -> Iterator["CallTreeNode"]:
        """Pre-order traversal of the subtree rooted here.

        Children are visited in insertion order, which the deterministic
        simulation makes reproducible.
        """
        stack: List[CallTreeNode] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(list(node.children.values())))

    def node_count(self) -> int:
        return sum(1 for _ in self.walk())

    def find(
        self,
        name: Optional[str] = None,
        predicate: Optional[Callable[["CallTreeNode"], bool]] = None,
    ) -> List["CallTreeNode"]:
        """All descendants (including self) matching name and/or predicate."""
        out = []
        for node in self.walk():
            if name is not None and node.region.name != name:
                continue
            if predicate is not None and not predicate(node):
                continue
            out.append(node)
        return out

    def find_one(self, name: str) -> "CallTreeNode":
        """The unique descendant with this region name.

        Raises ``KeyError``/``ValueError`` on zero/multiple matches.
        """
        matches = self.find(name=name)
        if not matches:
            raise KeyError(f"no node named {name!r} under {self.display_name()!r}")
        if len(matches) > 1:
            raise ValueError(f"node name {name!r} is ambiguous ({len(matches)} matches)")
        return matches[0]

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    @property
    def inclusive_time(self) -> float:
        return self.metrics.inclusive_time

    @property
    def exclusive_time(self) -> float:
        """Inclusive time minus the inclusive time of all children.

        The paper derives exclusive times this way (Section IV-A); the
        whole point of Fig. 3 is that with execution-node task attribution
        this quantity stays non-negative and meaningful.
        """
        return self.metrics.inclusive_time - sum(
            c.metrics.inclusive_time for c in self.children.values()
        )

    @property
    def visits(self) -> int:
        return self.metrics.visits

    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------
    def merge(self, other: "CallTreeNode") -> None:
        """Recursively fold ``other``'s metrics and children into this tree.

        Used (a) when a completed task-instance tree is merged into the
        aggregate tree of its task construct and (b) when per-thread
        profiles are aggregated.  ``other`` is left untouched.
        """
        if other.region is not self.region or other.parameter != self.parameter:
            raise ValueError(
                f"cannot merge node for {other.display_name()!r} into "
                f"{self.display_name()!r}"
            )
        self.metrics.merge(other.metrics)
        for key, other_child in other.children.items():
            mine = self.children.get(key)
            if mine is None:
                mine = CallTreeNode(
                    other_child.region,
                    other_child.parameter,
                    parent=self,
                    is_stub=other_child.is_stub,
                )
                self.children[key] = mine
            mine.merge(other_child)

    def deep_copy(self) -> "CallTreeNode":
        """Structural copy with copied metrics (used by profile snapshots)."""
        clone = CallTreeNode(self.region, self.parameter, is_stub=self.is_stub)
        clone.metrics.merge(self.metrics)
        for child in self.children.values():
            child_clone = child.deep_copy()
            child_clone.parent = clone
            clone.children[child_clone.key] = child_clone
        return clone

    def __repr__(self) -> str:
        return (
            f"<CallTreeNode {self.display_name()!r} "
            f"incl={self.metrics.inclusive_time:.3f} visits={self.metrics.visits} "
            f"children={len(self.children)}>"
        )
