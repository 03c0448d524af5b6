"""Resource hierarchy: the spatial dimension ``H(S)`` of the trace model.

The paper (Section III.A) structures the spatial dimension as a *hierarchy*:
a set of subsets of the resource set ``S`` that contains ``S`` itself, every
singleton, and in which any two parts are either disjoint or nested.  Such a
hierarchy is equivalent to a rooted tree whose leaves are the microscopic
resources (e.g. MPI processes bound to cores) and whose internal nodes are
machines, clusters and sites.

This module provides :class:`HierarchyNode` and :class:`Hierarchy`.  Leaves
are indexed by a depth-first traversal so that **every node covers a
contiguous range of leaf indices** ``[leaf_start, leaf_end)``.  This property
is what lets the aggregation algorithms compute node-level sums as
differences of prefix sums over the resource axis (see
:mod:`repro.core.criteria`).

A frozen hierarchy also carries its :class:`HeightPlan`: the nodes grouped
by *height* (leaves are height 0, a parent is one above its tallest child),
which is the unit the gain/loss tables and the Algorithm 1 tables are
stored and computed in — one ``(N, T, T)`` slab per height.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np


__all__ = ["HierarchyNode", "Hierarchy", "HierarchyError", "HeightLevel", "HeightPlan"]


class HierarchyError(ValueError):
    """Raised when an invalid hierarchy is constructed or queried."""


@dataclass(eq=False)
class HierarchyNode:
    """A node of the platform hierarchy.

    Parameters
    ----------
    name:
        Name of this node (e.g. ``"graphene-12"`` or ``"rank-3"``).  Leaf
        names must be unique within a hierarchy; internal node names must be
        unique among siblings.
    children:
        Child nodes.  A node without children is a leaf, i.e. a microscopic
        resource.

    Attributes
    ----------
    parent:
        Parent node, or ``None`` for the root.  Set by :class:`Hierarchy`.
    depth:
        Distance from the root (root has depth ``0``).  Set by
        :class:`Hierarchy`.
    leaf_start, leaf_end:
        Half-open range of leaf indices covered by this node.  Set by
        :class:`Hierarchy`.
    index:
        Position of the node in the post-order traversal of the tree.  Set by
        :class:`Hierarchy`; used as a stable identifier for array storage.
    """

    name: str
    children: list["HierarchyNode"] = field(default_factory=list)
    parent: "HierarchyNode | None" = field(default=None, repr=False)
    depth: int = 0
    leaf_start: int = -1
    leaf_end: int = -1
    index: int = -1

    # ------------------------------------------------------------------ #
    # Basic structure queries
    # ------------------------------------------------------------------ #
    @property
    def is_leaf(self) -> bool:
        """``True`` when the node has no children (a microscopic resource)."""
        return not self.children

    @property
    def n_leaves(self) -> int:
        """Number of microscopic resources covered by the node (``|S_k|``)."""
        return self.leaf_end - self.leaf_start

    @property
    def path(self) -> tuple[str, ...]:
        """Names from the root (excluded) down to this node (included)."""
        parts: list[str] = []
        node: HierarchyNode | None = self
        while node is not None and node.parent is not None:
            parts.append(node.name)
            node = node.parent
        return tuple(reversed(parts))

    @property
    def full_name(self) -> str:
        """Slash-joined path, e.g. ``"nancy/graphene/graphene-1/rank-4"``."""
        path = self.path
        return "/".join(path) if path else self.name

    def add_child(self, child: "HierarchyNode") -> "HierarchyNode":
        """Append ``child`` and return it (parent links are fixed on freeze)."""
        self.children.append(child)
        return child

    def iter_subtree(self, order: str = "pre") -> Iterator["HierarchyNode"]:
        """Iterate over the subtree rooted at this node.

        Parameters
        ----------
        order:
            ``"pre"`` for pre-order (node before children) or ``"post"`` for
            post-order (children before node, the order used by the
            aggregation recursion).
        """
        if order not in ("pre", "post"):
            raise HierarchyError(f"unknown traversal order: {order!r}")
        if order == "pre":
            yield self
        for child in self.children:
            yield from child.iter_subtree(order)
        if order == "post":
            yield self

    def iter_leaves(self) -> Iterator["HierarchyNode"]:
        """Iterate over the leaves of this subtree in leaf-index order."""
        if self.is_leaf:
            yield self
        else:
            for child in self.children:
                yield from child.iter_leaves()

    def contains(self, other: "HierarchyNode") -> bool:
        """Whether ``other`` is in the subtree rooted at this node."""
        return (
            self.leaf_start <= other.leaf_start
            and other.leaf_end <= self.leaf_end
            and other.leaf_start >= 0
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        kind = "leaf" if self.is_leaf else f"{len(self.children)} children"
        return f"HierarchyNode({self.name!r}, {kind}, leaves=[{self.leaf_start}:{self.leaf_end}))"


#: One child-merge step of a height: ``(parents, source_height, children)``.
#: ``parents`` are row positions in the height's slab, ``children`` the rows
#: of their children in the slab of ``source_height``; a parent appears at
#: most once per step.  Both increase: rows follow post-order, and so do the
#: children of the same rank of successive parents.
Merge = tuple[np.ndarray, int, np.ndarray]


@dataclass(frozen=True)
class HeightLevel:
    """The nodes of one height that one slab pass computes together.

    Attributes
    ----------
    nodes:
        The nodes, in post-order.
    slots:
        Their rows in the height's slab of the whole hierarchy, or ``None``
        when the level is the whole height (row ``n`` is ``nodes[n]``).
    merges:
        The child-merge steps, by child rank (first children, then second
        children, ...) and, within a rank, by source height.  Applying them
        in order to a zero start adds every parent's children in their
        order: the steps of one rank touch distinct parents.
    """

    nodes: tuple[HierarchyNode, ...]
    slots: "np.ndarray | None"
    merges: tuple[Merge, ...]


@dataclass(frozen=True)
class HeightPlan:
    """The nodes of a hierarchy grouped by height, and where each one is stored.

    ``levels[h]`` lists the nodes of height ``h``; ``height[k]`` and
    ``slot[k]`` give the height and the slab row of the node with index
    ``k``.  A node only reads its children, which all sit at lower heights,
    so every level can be computed at once once the levels below are done.
    """

    levels: tuple[HeightLevel, ...]
    height: tuple[int, ...]
    slot: tuple[int, ...]

    @classmethod
    def build(cls, nodes: Sequence[HierarchyNode]) -> "HeightPlan":
        """The plan of a whole hierarchy, from its nodes in post-order."""
        height = [0] * len(nodes)
        slot = [0] * len(nodes)
        members: list[list[HierarchyNode]] = []
        for node in nodes:
            h = 1 + max((height[child.index] for child in node.children), default=-1)
            height[node.index] = h
            if h == len(members):
                members.append([])
            slot[node.index] = len(members[h])
            members[h].append(node)
        levels = tuple(
            HeightLevel(tuple(level), None, _merges(level, height, slot)) for level in members
        )
        return cls(levels, tuple(height), tuple(slot))

    def restrict(self, nodes: Iterable[HierarchyNode]) -> "HeightPlan":
        """The same plan over a subset of its nodes, given in post-order.

        Each level keeps the rows of the whole plan in ``slots``.  Children
        outside the subset must be computed before the subset is.
        """
        members: list[list[HierarchyNode]] = [[] for _ in self.levels]
        for node in nodes:
            members[self.height[node.index]].append(node)
        levels = tuple(
            HeightLevel(
                tuple(level),
                np.array([self.slot[node.index] for node in level], dtype=np.intp),
                _merges(level, self.height, self.slot),
            )
            for level in members
        )
        return HeightPlan(levels, self.height, self.slot)


def _merges(
    parents: Sequence[HierarchyNode], height: Sequence[int], slot: Sequence[int]
) -> tuple[Merge, ...]:
    """The merge steps of ``parents``, by child rank, then source height."""
    groups: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
    for position, parent in enumerate(parents):
        for rank, child in enumerate(parent.children):
            rows = groups.setdefault((rank, height[child.index]), ([], []))
            rows[0].append(position)
            rows[1].append(slot[child.index])
    return tuple(
        (np.array(rows[0], dtype=np.intp), source, np.array(rows[1], dtype=np.intp))
        for (_, source), rows in sorted(groups.items())
    )


class Hierarchy:
    """A frozen resource hierarchy ``H(S)`` with indexed leaves.

    The constructor takes the root of a node tree, freezes the structure
    (parent pointers, depths, leaf ranges and node indices) and validates
    that leaf names are unique.

    Examples
    --------
    >>> root = HierarchyNode("site")
    >>> cl = root.add_child(HierarchyNode("cluster0"))
    >>> _ = cl.add_child(HierarchyNode("p0")); _ = cl.add_child(HierarchyNode("p1"))
    >>> h = Hierarchy(root)
    >>> h.n_leaves
    2
    >>> h.leaf_names
    ('p0', 'p1')
    """

    def __init__(self, root: HierarchyNode):
        if not isinstance(root, HierarchyNode):
            raise HierarchyError("root must be a HierarchyNode")
        self._root = root
        self._freeze()

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_paths(
        cls,
        paths: Iterable[Sequence[str]],
        root_name: str = "root",
    ) -> "Hierarchy":
        """Build a hierarchy from leaf paths.

        Each path is a sequence of names from the level below the root down
        to the leaf, e.g. ``("nancy", "graphene", "graphene-1", "rank-4")``.
        Intermediate nodes are created on demand; the order of first
        appearance defines the leaf order.

        Raises
        ------
        HierarchyError
            If a path is empty, duplicated, or if a name is reused both as a
            leaf and as an internal node under the same parent.
        """
        root = HierarchyNode(root_name)
        index: dict[tuple[str, ...], HierarchyNode] = {}
        seen_paths: set[tuple[str, ...]] = set()
        for raw_path in paths:
            path = tuple(raw_path)
            if not path:
                raise HierarchyError("empty path in hierarchy description")
            if path in seen_paths:
                raise HierarchyError(f"duplicated leaf path: {path!r}")
            seen_paths.add(path)
            parent = root
            for i, name in enumerate(path):
                key = path[: i + 1]
                node = index.get(key)
                if node is None:
                    node = parent.add_child(HierarchyNode(name))
                    index[key] = node
                elif i == len(path) - 1:
                    raise HierarchyError(
                        f"leaf path {path!r} collides with an internal node"
                    )
                parent = node
        if not root.children:
            raise HierarchyError("cannot build a hierarchy with no leaves")
        return cls(root)

    @classmethod
    def flat(cls, leaf_names: Sequence[str], root_name: str = "root") -> "Hierarchy":
        """Build a two-level hierarchy: a root with ``leaf_names`` children."""
        return cls.from_paths([(name,) for name in leaf_names], root_name=root_name)

    @classmethod
    def balanced(
        cls,
        n_leaves: int,
        fanout: int = 2,
        root_name: str = "root",
        leaf_prefix: str = "r",
    ) -> "Hierarchy":
        """Build a balanced hierarchy over ``n_leaves`` synthetic resources.

        Groups of ``fanout`` leaves are wrapped into intermediate nodes, and
        groups of groups recursively, until a single root remains.  Useful
        for synthetic workloads and scaling benchmarks.
        """
        if n_leaves <= 0:
            raise HierarchyError("n_leaves must be positive")
        if fanout < 2:
            raise HierarchyError("fanout must be at least 2")
        nodes: list[HierarchyNode] = [
            HierarchyNode(f"{leaf_prefix}{i}") for i in range(n_leaves)
        ]
        level = 0
        while len(nodes) > 1:
            grouped: list[HierarchyNode] = []
            for start in range(0, len(nodes), fanout):
                group = nodes[start : start + fanout]
                if len(group) == 1:
                    grouped.append(group[0])
                else:
                    parent = HierarchyNode(f"g{level}_{start // fanout}")
                    for child in group:
                        parent.add_child(child)
                    grouped.append(parent)
            nodes = grouped
            level += 1
        root = nodes[0]
        if root.is_leaf:
            # A single resource: still give it a distinct root so that the
            # hierarchy has the whole set *and* the singleton.
            wrapper = HierarchyNode(root_name)
            wrapper.add_child(root)
            root = wrapper
        else:
            root.name = root_name
        return cls(root)

    # ------------------------------------------------------------------ #
    # Freezing / validation
    # ------------------------------------------------------------------ #
    def _freeze(self) -> None:
        leaf_names: list[str] = []
        nodes: list[HierarchyNode] = []
        leaves: list[HierarchyNode] = []

        def visit(node: HierarchyNode, parent: HierarchyNode | None, depth: int) -> None:
            node.parent = parent
            node.depth = depth
            child_names = [c.name for c in node.children]
            if len(set(child_names)) != len(child_names):
                raise HierarchyError(
                    f"duplicate child names under node {node.name!r}: {child_names}"
                )
            if node.is_leaf:
                node.leaf_start = len(leaves)
                leaves.append(node)
                leaf_names.append(node.name)
                node.leaf_end = len(leaves)
            else:
                node.leaf_start = len(leaves)
                for child in node.children:
                    visit(child, node, depth + 1)
                node.leaf_end = len(leaves)
            node.index = len(nodes)
            nodes.append(node)

        visit(self._root, None, 0)
        if len(set(leaf_names)) != len(leaf_names):
            dupes = sorted({n for n in leaf_names if leaf_names.count(n) > 1})
            raise HierarchyError(f"duplicate leaf names: {dupes}")
        self._nodes: tuple[HierarchyNode, ...] = tuple(nodes)
        self._leaves: tuple[HierarchyNode, ...] = tuple(leaves)
        self._leaf_names: tuple[str, ...] = tuple(leaf_names)
        self._leaf_index: dict[str, int] = {n: i for i, n in enumerate(leaf_names)}
        self._node_by_full_name: dict[str, HierarchyNode] = {}
        for node in nodes:
            self._node_by_full_name.setdefault(node.full_name, node)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def root(self) -> HierarchyNode:
        """Root node, covering the whole resource set ``S``."""
        return self._root

    @property
    def n_leaves(self) -> int:
        """Number of microscopic resources ``|S|``."""
        return len(self._leaves)

    @property
    def n_nodes(self) -> int:
        """Total number of nodes (``|H(S)|`` minus nothing: every node counts)."""
        return len(self._nodes)

    @property
    def leaves(self) -> tuple[HierarchyNode, ...]:
        """Leaves in index order."""
        return self._leaves

    @property
    def leaf_names(self) -> tuple[str, ...]:
        """Names of the leaves in index order."""
        return self._leaf_names

    @property
    def depth(self) -> int:
        """Maximum depth of the tree (root is depth 0)."""
        return max(node.depth for node in self._nodes)

    @cached_property
    def height_plan(self) -> HeightPlan:
        """The nodes grouped by height (computed once; see :class:`HeightPlan`)."""
        return HeightPlan.build(self._nodes)

    def leaf_index(self, name: str) -> int:
        """Index of the leaf called ``name``.

        Raises
        ------
        HierarchyError
            If no leaf has this name.
        """
        try:
            return self._leaf_index[name]
        except KeyError:
            raise HierarchyError(f"unknown resource: {name!r}") from None

    def leaf(self, name: str) -> HierarchyNode:
        """The leaf node called ``name``."""
        return self._leaves[self.leaf_index(name)]

    def node_by_full_name(self, full_name: str) -> HierarchyNode:
        """Look a node up by its slash-joined path name."""
        try:
            return self._node_by_full_name[full_name]
        except KeyError:
            raise HierarchyError(f"unknown node: {full_name!r}") from None

    def iter_nodes(self, order: str = "pre") -> Iterator[HierarchyNode]:
        """Iterate over every node of the hierarchy in ``pre`` or ``post`` order."""
        return self._root.iter_subtree(order)

    def nodes_at_depth(self, depth: int) -> list[HierarchyNode]:
        """All nodes at a given depth (0 = root)."""
        return [node for node in self._nodes if node.depth == depth]

    def level_partition(self, depth: int) -> list[HierarchyNode]:
        """Hierarchy-consistent partition obtained by cutting at ``depth``.

        Returns the nodes at exactly ``depth`` plus any leaf shallower than
        ``depth`` (so that the result always covers the whole resource set).
        """
        if depth < 0:
            raise HierarchyError("depth must be non-negative")
        parts: list[HierarchyNode] = []

        def visit(node: HierarchyNode) -> None:
            if node.depth == depth or (node.is_leaf and node.depth < depth):
                parts.append(node)
            elif node.depth < depth:
                for child in node.children:
                    visit(child)

        visit(self._root)
        return parts

    def ancestors(self, node: HierarchyNode) -> list[HierarchyNode]:
        """Ancestors of ``node`` from its parent up to the root."""
        result: list[HierarchyNode] = []
        current = node.parent
        while current is not None:
            result.append(current)
            current = current.parent
        return result

    def validate_partition(self, nodes: Iterable[HierarchyNode]) -> bool:
        """Whether ``nodes`` form a hierarchy-consistent partition of ``S``.

        The nodes must be pairwise disjoint and their leaf ranges must cover
        ``[0, n_leaves)``.
        """
        ranges = sorted((n.leaf_start, n.leaf_end) for n in nodes)
        if not ranges:
            return False
        position = 0
        for start, end in ranges:
            if start != position or end <= start:
                return False
            position = end
        return position == self.n_leaves

    def map_leaves(self, func: Callable[[HierarchyNode], object]) -> list[object]:
        """Apply ``func`` to every leaf in index order and collect the results."""
        return [func(leaf) for leaf in self._leaves]

    def subtree_sizes(self) -> dict[str, int]:
        """Mapping ``full_name -> number of covered leaves`` for every node."""
        return {node.full_name: node.n_leaves for node in self._nodes}

    def __contains__(self, name: str) -> bool:
        return name in self._leaf_index

    def __len__(self) -> int:
        return self.n_leaves

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Hierarchy(n_leaves={self.n_leaves}, n_nodes={self.n_nodes}, "
            f"depth={self.depth})"
        )

    def describe(self, max_depth: int | None = None) -> str:
        """Human-readable indented description of the tree."""
        lines: list[str] = []

        def visit(node: HierarchyNode) -> None:
            if max_depth is not None and node.depth > max_depth:
                return
            marker = "*" if node.is_leaf else "+"
            lines.append(f"{'  ' * node.depth}{marker} {node.name} [{node.n_leaves}]")
            for child in node.children:
                visit(child)

        visit(self._root)
        return "\n".join(lines)
