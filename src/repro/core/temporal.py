"""Temporal-only aggregation (the Ocelotl timeline algorithm, Section III.D).

The temporal algorithm works on the *spatially-aggregated* trace
``{S} x T``: every time slice is described by the state proportions averaged
(or summed, depending on the operator) over all resources, and the algorithm
searches the order-consistent partition of ``T`` — a segmentation into
intervals — that maximizes the pIC.  The optimum is found by dynamic
programming in ``O(|T|^2)`` (Jackson et al. optimal interval partitioning).

This module is both a baseline (the paper's Table I row "Timeline, Ocelotl")
and the second half of the Cartesian-product baseline of Figure 3.c.
"""

from __future__ import annotations

import numpy as np

from .criteria import IntervalStatistics
from .hierarchy import Hierarchy
from .microscopic import MicroscopicModel
from .operators import AggregationOperator, MeanOperator, get_operator
from .partition import Aggregate, Partition

__all__ = [
    "TemporalAggregator",
    "aggregate_temporal",
    "optimal_intervals",
    "space_integrated_model",
]


def space_integrated_model(
    model: MicroscopicModel,
    operator: "AggregationOperator | str | None" = None,
) -> MicroscopicModel:
    """The spatially-aggregated trace ``{S} x T`` as a one-resource model.

    With the paper's mean operator the per-slice durations are averaged over
    the resources (so that the reduced proportions are the resource-averaged
    proportions of Eq. 1); with the sum operator they are summed.
    """
    op = get_operator(operator)
    if isinstance(op, MeanOperator):
        durations = model.durations.mean(axis=0, keepdims=True)
    else:
        durations = model.durations.sum(axis=0, keepdims=True)
        # Summed durations may exceed the slice length; scale the slice capacity
        # back into proportions by dividing by the resource count so that the
        # model invariant (duration <= slice duration) still holds.
        durations = durations / model.n_resources
    hierarchy = Hierarchy.flat(["all"])
    return MicroscopicModel(durations, hierarchy, model.slicing, model.states)


class TemporalAggregator:
    """Optimal order-consistent segmentation of the time dimension.

    Parameters
    ----------
    model:
        The microscopic model; it is reduced to its spatially-aggregated form
        internally.
    operator:
        Aggregation operator.
    """

    def __init__(
        self,
        model: MicroscopicModel,
        operator: "AggregationOperator | str | None" = None,
    ):
        self._model = model
        self._operator = get_operator(operator)
        reduced = space_integrated_model(model, self._operator)
        self._reduced = reduced
        self._stats = IntervalStatistics(reduced, self._operator)

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
    def optimal_intervals(self, p: float) -> list[tuple[int, int]]:
        """Intervals ``(i, j)`` of the optimal segmentation at trade-off ``p``."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        root = self._reduced.hierarchy.root
        pic_table = self._stats.pic_table(root, p)
        n_slices = self._reduced.n_slices

        # best[j] = optimal pIC of a segmentation of slices 0..j-1 (best[0] = 0).
        best = np.full(n_slices + 1, -np.inf)
        best[0] = 0.0
        last_cut = np.zeros(n_slices + 1, dtype=np.int64)
        for j in range(1, n_slices + 1):
            candidates = best[:j] + pic_table[np.arange(j), j - 1]
            i = int(np.argmax(candidates))
            best[j] = candidates[i]
            last_cut[j] = i

        intervals: list[tuple[int, int]] = []
        j = n_slices
        while j > 0:
            i = int(last_cut[j])
            intervals.append((i, j - 1))
            j = i
        intervals.reverse()
        self._last_optimal_value = float(best[n_slices])
        return intervals

    def optimal_pic(self, p: float) -> float:
        """pIC of the optimal segmentation (on the reduced data)."""
        self.optimal_intervals(p)
        return self._last_optimal_value

    def run(self, p: float) -> Partition:
        """Optimal temporal partition expressed over the full resource set.

        The returned partition covers ``S x T`` with one aggregate per chosen
        interval spanning the whole hierarchy root, i.e. the shape drawn by
        the Ocelotl timeline on the paper's spatiotemporal canvas.
        """
        intervals = self.optimal_intervals(p)
        root = self._model.hierarchy.root
        aggregates = [Aggregate(root, i, j) for (i, j) in intervals]
        return Partition(aggregates, self._model, p=p, validate=False)


def optimal_intervals(
    model: MicroscopicModel,
    p: float,
    operator: "AggregationOperator | str | None" = None,
) -> list[tuple[int, int]]:
    """Convenience wrapper returning the optimal segmentation's intervals."""
    return TemporalAggregator(model, operator=operator).optimal_intervals(p)


def aggregate_temporal(
    model: MicroscopicModel,
    p: float,
    operator: "AggregationOperator | str | None" = None,
) -> Partition:
    """Convenience wrapper returning the optimal temporal partition."""
    return TemporalAggregator(model, operator=operator).run(p)
