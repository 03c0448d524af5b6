"""Spatial-only aggregation (the Viva algorithm, Section III.D).

The spatial algorithm works on the *temporally-aggregated* trace
``S x {T}``: every resource is described by its state proportions integrated
over the whole observation window, and the algorithm searches the
hierarchy-consistent partition of ``S`` that maximizes the pIC.  An optimal
partition is found by a depth-first search of the hierarchy in linear time
``O(|S|)``: a node is kept aggregated when its own pIC is at least the sum of
its children's optimal pICs, and split otherwise.

This module is both a baseline (the paper's Table I row "Treemap/Topology,
Viva") and one half of the Cartesian-product baseline of Figure 3.c.
"""

from __future__ import annotations

from dataclasses import dataclass

from .criteria import IntervalStatistics
from .hierarchy import HierarchyNode
from .microscopic import MicroscopicModel
from .operators import AggregationOperator, get_operator
from .partition import Aggregate, Partition
from .timeslicing import TimeSlicing

__all__ = [
    "SpatialAggregator",
    "aggregate_spatial",
    "optimal_nodes",
    "time_integrated_model",
]


def time_integrated_model(model: MicroscopicModel) -> MicroscopicModel:
    """The temporally-aggregated trace ``S x {T}`` as a one-slice model.

    Every resource keeps its per-state durations summed over the whole
    observation window; the single slice spans the full trace.
    """
    durations = model.durations.sum(axis=1, keepdims=True)
    slicing = TimeSlicing.regular(model.slicing.start, model.slicing.end, 1)
    return MicroscopicModel(durations, model.hierarchy, slicing, model.states)


@dataclass(frozen=True)
class _NodeDecision:
    pic: float
    split: bool


class SpatialAggregator:
    """Optimal hierarchy-consistent partition of the resource dimension.

    Parameters
    ----------
    model:
        The microscopic model; it is reduced to its time-integrated form
        internally.
    operator:
        Aggregation operator (paper default: mean).
    """

    #: Minimum improvement required to split a node (see SpatiotemporalAggregator).
    EPSILON = 1e-9

    def __init__(
        self,
        model: MicroscopicModel,
        operator: "AggregationOperator | str | None" = None,
    ):
        self._model = model
        self._operator = get_operator(operator)
        reduced = time_integrated_model(model)
        self._stats = IntervalStatistics(reduced, self._operator)
        self._reduced = reduced

    @property
    def model(self) -> MicroscopicModel:
        """The original (un-reduced) microscopic model."""
        return self._model

    @property
    def stats(self) -> IntervalStatistics:
        """Interval statistics of the reduced model used for the optimization."""
        return self._stats

    # ------------------------------------------------------------------ #
    # Optimization
    # ------------------------------------------------------------------ #
    def optimal_nodes(self, p: float) -> list[HierarchyNode]:
        """Nodes of the optimal hierarchy-consistent partition at trade-off ``p``."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        last = self._reduced.n_slices - 1
        decisions: dict[int, _NodeDecision] = {}
        for node in self._model.hierarchy.iter_nodes("post"):
            own = self._stats.pic(node, 0, last, p)
            if node.children:
                children_sum = float(sum(decisions[c.index].pic for c in node.children))
                if children_sum > own + self.EPSILON:
                    decisions[node.index] = _NodeDecision(pic=children_sum, split=True)
                    continue
            decisions[node.index] = _NodeDecision(pic=own, split=False)

        parts: list[HierarchyNode] = []
        stack = [self._model.hierarchy.root]
        while stack:
            node = stack.pop()
            if decisions[node.index].split:
                stack.extend(node.children)
            else:
                parts.append(node)
        parts.sort(key=lambda n: n.leaf_start)
        return parts

    def optimal_pic(self, p: float) -> float:
        """pIC of the optimal spatial partition (on the reduced data)."""
        nodes = self.optimal_nodes(p)
        last = self._reduced.n_slices - 1
        return float(sum(self._stats.pic(node, 0, last, p) for node in nodes))

    def run(self, p: float) -> Partition:
        """Optimal spatial partition expressed over the full time span.

        The returned partition covers ``S x T`` with one aggregate per chosen
        node spanning all slices, i.e. the shape drawn by Viva's treemap when
        projected on the paper's spatiotemporal canvas.
        """
        nodes = self.optimal_nodes(p)
        aggregates = [Aggregate(node, 0, self._model.n_slices - 1) for node in nodes]
        return Partition(aggregates, self._model, p=p, validate=False)


def optimal_nodes(
    model: MicroscopicModel,
    p: float,
    operator: "AggregationOperator | str | None" = None,
) -> list[HierarchyNode]:
    """Convenience wrapper returning the optimal spatial partition's nodes."""
    return SpatialAggregator(model, operator=operator).optimal_nodes(p)


def aggregate_spatial(
    model: MicroscopicModel,
    p: float,
    operator: "AggregationOperator | str | None" = None,
) -> Partition:
    """Convenience wrapper returning the optimal spatial partition."""
    return SpatialAggregator(model, operator=operator).run(p)
