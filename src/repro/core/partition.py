"""Spatiotemporal aggregates and partitions (Section III.B).

A *spatiotemporal aggregate* is the Cartesian product of a hierarchy node and
a time interval, ``(S_k, T_(i,j))``.  A *partition* is a set of aggregates
that are pairwise disjoint and cover the whole ``S x T`` grid; when every
aggregate is hierarchy-and-order consistent the partition belongs to the
search space ``A(S x T)`` of the aggregation algorithms.

:class:`Partition` is the common output type of every aggregator in
:mod:`repro.core` and the input of the visualization and analysis layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .criteria import IntervalStatistics
from .hierarchy import Hierarchy, HierarchyNode
from .microscopic import MicroscopicModel
from .operators import pic

__all__ = ["Aggregate", "Partition", "PartitionError"]


class PartitionError(ValueError):
    """Raised when an invalid partition is constructed or queried."""


@dataclass(frozen=True)
class Aggregate:
    """One spatiotemporal aggregate ``(S_k, T_(i,j))``.

    Attributes
    ----------
    node:
        The hierarchy node ``S_k``.
    i, j:
        Inclusive slice indices bounding the time interval ``T_(i,j)``.
    """

    node: HierarchyNode
    i: int
    j: int

    def __post_init__(self) -> None:
        if self.j < self.i:
            raise PartitionError(f"invalid aggregate interval: j={self.j} < i={self.i}")
        if self.i < 0:
            raise PartitionError(f"invalid aggregate interval: i={self.i} < 0")

    @property
    def n_resources(self) -> int:
        """``|S_k|``."""
        return self.node.n_leaves

    @property
    def n_slices(self) -> int:
        """``|T_(i,j)|``."""
        return self.j - self.i + 1

    @property
    def n_cells(self) -> int:
        """Number of microscopic cells covered."""
        return self.n_resources * self.n_slices

    @property
    def is_microscopic(self) -> bool:
        """Whether the aggregate is a single microscopic cell."""
        return self.n_cells == 1

    @property
    def resource_range(self) -> tuple[int, int]:
        """Half-open leaf index range covered by the aggregate."""
        return (self.node.leaf_start, self.node.leaf_end)

    @property
    def key(self) -> tuple[int, int, int, int]:
        """Hashable identity ``(leaf_start, leaf_end, i, j)`` (node-shape based)."""
        return (self.node.leaf_start, self.node.leaf_end, self.i, self.j)

    def covers(self, resource_index: int, slice_index: int) -> bool:
        """Whether the microscopic cell ``(resource_index, slice_index)`` is inside."""
        return (
            self.node.leaf_start <= resource_index < self.node.leaf_end
            and self.i <= slice_index <= self.j
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Aggregate({self.node.name!r}, T({self.i},{self.j}))"


class Partition:
    """A set of spatiotemporal aggregates covering ``S x T``.

    Parameters
    ----------
    aggregates:
        The aggregates.  Validity (disjoint cover of the grid) is checked at
        construction unless ``validate=False``.
    model:
        The microscopic model the partition refers to.
    p:
        The gain/loss trade-off used to produce the partition, when produced
        by an optimizer (informational).
    stats:
        Optional pre-computed :class:`IntervalStatistics`; when absent one is
        created lazily with the paper's default operator for metric queries.
    """

    def __init__(
        self,
        aggregates: Iterable[Aggregate],
        model: MicroscopicModel,
        p: float | None = None,
        stats: IntervalStatistics | None = None,
        validate: bool = True,
    ):
        self._aggregates: tuple[Aggregate, ...] = tuple(
            sorted(aggregates, key=lambda a: (a.node.leaf_start, a.i, a.node.leaf_end, a.j))
        )
        self._model = model
        self._p = p
        self._stats = stats
        self._totals: "tuple[float, float] | None" = None
        if validate:
            self._validate()

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def _validate(self) -> None:
        if not self._aggregates:
            raise PartitionError("a partition must contain at least one aggregate")
        n_resources = self._model.n_resources
        n_slices = self._model.n_slices
        coverage = np.zeros((n_resources, n_slices), dtype=np.int32)
        for aggregate in self._aggregates:
            a, b = aggregate.resource_range
            if not (0 <= a < b <= n_resources):
                raise PartitionError(f"aggregate {aggregate} outside the resource range")
            if aggregate.j >= n_slices:
                raise PartitionError(f"aggregate {aggregate} outside the time range")
            coverage[a:b, aggregate.i : aggregate.j + 1] += 1
        if np.any(coverage > 1):
            raise PartitionError("aggregates overlap")
        if np.any(coverage == 0):
            raise PartitionError("aggregates do not cover the whole S x T grid")

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def aggregates(self) -> tuple[Aggregate, ...]:
        """The aggregates, sorted by (leaf range, time interval)."""
        return self._aggregates

    @property
    def model(self) -> MicroscopicModel:
        """The microscopic model the partition covers."""
        return self._model

    @property
    def hierarchy(self) -> Hierarchy:
        """The resource hierarchy."""
        return self._model.hierarchy

    @property
    def p(self) -> float | None:
        """The gain/loss trade-off used to build the partition, if any."""
        return self._p

    @property
    def size(self) -> int:
        """Number of aggregates (the representation complexity)."""
        return len(self._aggregates)

    @property
    def stats(self) -> IntervalStatistics:
        """Interval statistics used for metric queries (created lazily)."""
        if self._stats is None:
            self._stats = IntervalStatistics(self._model)
        return self._stats

    def __len__(self) -> int:
        return len(self._aggregates)

    def __iter__(self) -> Iterator[Aggregate]:
        return iter(self._aggregates)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return {a.key for a in self._aggregates} == {a.key for a in other._aggregates}

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Partition(size={self.size}, p={self._p})"

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
    def _gain_loss(self) -> tuple[float, float]:
        """Total gain and loss, gathered once (see ``IntervalStatistics.gain_loss_totals``)."""
        if self._totals is None:
            gain, loss = self.stats.gain_loss_totals(self._aggregates)
            self._totals = (float(gain), float(loss))
        return self._totals

    def gain(self) -> float:
        """Total data-reduction gain of the partition."""
        return self._gain_loss()[0]

    def loss(self) -> float:
        """Total information loss of the partition."""
        return self._gain_loss()[1]

    def pic(self, p: float | None = None) -> float:
        """Total parametrized information criterion at trade-off ``p``."""
        if p is None:
            p = self._p
        if p is None:
            raise PartitionError("no trade-off p given and none stored on the partition")
        return float(pic(self.gain(), self.loss(), p))

    def complexity_reduction(self) -> float:
        """Fraction of microscopic cells saved: ``1 - size / |S x T|``."""
        return 1.0 - self.size / self._model.n_cells

    def normalized_loss(self) -> float:
        """Loss normalized by the total microscopic Shannon information.

        Returns 0 when the microscopic information is itself 0 (degenerate
        single-state traces).
        """
        reference = self.stats.microscopic_information()
        if reference <= 0:
            return 0.0
        return self.loss() / reference

    # ------------------------------------------------------------------ #
    # Structure queries
    # ------------------------------------------------------------------ #
    def label_matrix(self) -> np.ndarray:
        """Matrix of shape ``(R, T)`` mapping each microscopic cell to an aggregate index."""
        labels = np.full((self._model.n_resources, self._model.n_slices), -1, dtype=np.int64)
        for index, aggregate in enumerate(self._aggregates):
            a, b = aggregate.resource_range
            labels[a:b, aggregate.i : aggregate.j + 1] = index
        return labels

    def aggregate_at(self, resource_index: int, slice_index: int) -> Aggregate:
        """The aggregate covering the microscopic cell ``(resource_index, slice_index)``."""
        for aggregate in self._aggregates:
            if aggregate.covers(resource_index, slice_index):
                return aggregate
        raise PartitionError(
            f"no aggregate covers cell ({resource_index}, {slice_index})"
        )

    def temporal_cut_points(self) -> set[int]:
        """Slice indices where at least one aggregate starts (excluding 0)."""
        return {a.i for a in self._aggregates if a.i > 0}

    def aggregates_of_node(self, node: HierarchyNode) -> list[Aggregate]:
        """Aggregates whose node is exactly ``node``."""
        return [a for a in self._aggregates if a.node is node]

    def aggregates_overlapping_slice(self, slice_index: int) -> list[Aggregate]:
        """Aggregates whose interval contains ``slice_index``."""
        return [a for a in self._aggregates if a.i <= slice_index <= a.j]

    def is_consistent(self) -> bool:
        """Whether every aggregate's node belongs to the hierarchy (always true
        for partitions built through the library, provided for external data)."""
        nodes = set(id(n) for n in self.hierarchy.iter_nodes())
        return all(id(a.node) in nodes for a in self._aggregates)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def microscopic(cls, model: MicroscopicModel, stats: IntervalStatistics | None = None) -> "Partition":
        """The finest partition: one aggregate per microscopic cell."""
        aggregates = [
            Aggregate(leaf, t, t)
            for leaf in model.hierarchy.leaves
            for t in range(model.n_slices)
        ]
        return cls(aggregates, model, stats=stats, validate=False)

    @classmethod
    def full(cls, model: MicroscopicModel, stats: IntervalStatistics | None = None) -> "Partition":
        """The coarsest partition: the root node over the whole time span."""
        aggregate = Aggregate(model.hierarchy.root, 0, model.n_slices - 1)
        return cls([aggregate], model, stats=stats, validate=False)

    @classmethod
    def from_products(
        cls,
        model: MicroscopicModel,
        nodes: Sequence[HierarchyNode],
        intervals: Sequence[tuple[int, int]],
        p: float | None = None,
        stats: IntervalStatistics | None = None,
    ) -> "Partition":
        """Cartesian-product partition ``P(S) x P(T)`` from 1-D partitions."""
        aggregates = [Aggregate(node, i, j) for node in nodes for (i, j) in intervals]
        return cls(aggregates, model, p=p, stats=stats)
