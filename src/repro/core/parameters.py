"""Exploration of the gain/loss trade-off parameter ``p``.

The paper leaves the choice of ``p`` to the analyst, who "can easily choose
several levels of details by sliding the aggregation strength among a set of
significant values".  This module provides:

* :func:`quality_curve` — gain, loss and partition size for a sweep of ``p``
  values (the data behind Ocelotl's quality curves);
* :func:`find_significant_parameters` — the dichotomic search for the ``p``
  values at which the optimal partition actually changes, so the interactive
  slider only exposes distinct representations;
* :func:`significant_points` — the same search, returning the quality of the
  partition it solved at each significant value (the sweep's curve without a
  second DP per value).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .microscopic import MicroscopicModel
from .operators import AggregationOperator
from .spatiotemporal import SpatiotemporalAggregator

__all__ = [
    "QualityPoint",
    "quality_curve",
    "find_significant_parameters",
    "significant_points",
]


@dataclass(frozen=True)
class QualityPoint:
    """Quality of the optimal partition at one trade-off value."""

    p: float
    size: int
    gain: float
    loss: float

    @property
    def pic(self) -> float:
        """pIC of the optimal partition at this point."""
        return self.p * self.gain - (1.0 - self.p) * self.loss


def quality_curve(
    aggregator: "SpatiotemporalAggregator | MicroscopicModel",
    ps: Sequence[float] | None = None,
    operator: "AggregationOperator | str | None" = None,
) -> list[QualityPoint]:
    """Gain/loss/size of the optimal partition for every ``p`` in ``ps``.

    Parameters
    ----------
    aggregator:
        A ready :class:`SpatiotemporalAggregator` or a raw model (an
        aggregator is then built with ``operator``).
    ps:
        Trade-off values to evaluate (default: 21 evenly spaced values).
    """
    if isinstance(aggregator, MicroscopicModel):
        aggregator = SpatiotemporalAggregator(aggregator, operator=operator)
    if ps is None:
        ps = np.linspace(0.0, 1.0, 21)
    points: list[QualityPoint] = []
    for p in ps:
        partition = aggregator.run(float(p))
        points.append(
            QualityPoint(
                p=float(p),
                size=partition.size,
                gain=partition.gain(),
                loss=partition.loss(),
            )
        )
    return points


def find_significant_parameters(
    aggregator: "SpatiotemporalAggregator | MicroscopicModel",
    operator: "AggregationOperator | str | None" = None,
    tolerance: float = 1e-9,
    max_depth: int = 12,
) -> list[float]:
    """Trade-off values at which the optimal partition changes.

    A dichotomic search over ``[0, 1]``: an interval is bisected while its two
    endpoints yield different optimal partitions (compared by their gain and
    loss totals) and the recursion depth allows; the returned list contains
    the left endpoint of every maximal sub-interval with a constant optimum,
    i.e. one representative ``p`` per distinct representation.

    Notes
    -----
    This reproduces the behaviour of Ocelotl's parameter slider: the analyst
    is only offered values that produce genuinely different overviews.
    """
    points = significant_points(aggregator, operator, tolerance, max_depth)
    return [point.p for point in points]


def significant_points(
    aggregator: "SpatiotemporalAggregator | MicroscopicModel",
    operator: "AggregationOperator | str | None" = None,
    tolerance: float = 1e-9,
    max_depth: int = 12,
) -> list[QualityPoint]:
    """The search of :func:`find_significant_parameters`, with its partitions' quality.

    One point per significant value, in increasing ``p`` order, carrying the
    unrounded size, gain and loss of the optimal partition the search solved
    at that value — equal to ``quality_curve(aggregator, ps=significant)``
    without running the DP again for every value.
    """
    if isinstance(aggregator, MicroscopicModel):
        aggregator = SpatiotemporalAggregator(aggregator, operator=operator)

    solved: dict[float, QualityPoint] = {}

    def signature(p: float) -> tuple[float, float, int]:
        point = solved.get(p)
        if point is None:
            partition = aggregator.run(p)
            point = QualityPoint(
                p=p, size=partition.size, gain=partition.gain(), loss=partition.loss()
            )
            solved[p] = point
        return (round(point.gain, 9), round(point.loss, 9), point.size)

    boundaries: set[float] = {0.0, 1.0}

    def explore(lo: float, hi: float, depth: int) -> None:
        if depth >= max_depth or hi - lo <= tolerance:
            return
        if signature(lo) == signature(hi):
            return
        mid = (lo + hi) / 2.0
        boundaries.add(mid)
        explore(lo, mid, depth + 1)
        explore(mid, hi, depth + 1)

    explore(0.0, 1.0, 0)

    # Keep one representative per distinct signature, in increasing p order.
    significant: list[QualityPoint] = []
    last_signature: tuple[float, float, int] | None = None
    for p in sorted(boundaries):
        sig = signature(p)
        if sig != last_signature:
            significant.append(solved[p])
            last_signature = sig
    return significant
