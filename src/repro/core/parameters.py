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

The search is breadth-first: every bisection depth's new midpoints are
solved together by the aggregator's batch evaluator
(:meth:`~repro.core.spatiotemporal.SpatiotemporalAggregator.quality`), which
runs Algorithm 1 once per batch of values whose tables fit
:data:`repro.core.kernels.SWEEP_BATCH_BYTES` — a short window solves a whole
depth at once, a large model one value at a time.  Whether an interval is
split depends only on the signatures of its two endpoints, so this visits
exactly the values a depth-first recursion visits, and returns the same
points.  An object with only a ``run(p)`` method (returning a
:class:`~repro.core.partition.Partition`) is searched one value at a time.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .microscopic import MicroscopicModel
from .operators import AggregationOperator
from .spatiotemporal import QualityPoint, SpatiotemporalAggregator

__all__ = [
    "QualityPoint",
    "quality_curve",
    "find_significant_parameters",
    "significant_points",
]

#: A batch evaluator: the :class:`QualityPoint` of every ``p`` given, in order.
Evaluator = Callable[[Sequence[float]], "list[QualityPoint]"]


def _evaluator(aggregator: object) -> Evaluator:
    """``aggregator.quality``, or one ``aggregator.run(p)`` per value."""
    quality = getattr(aggregator, "quality", None)
    if quality is not None:
        return quality

    def per_p(ps: Sequence[float]) -> list[QualityPoint]:
        points = []
        for p in ps:
            partition = aggregator.run(p)  # type: ignore[attr-defined]
            points.append(
                QualityPoint(p=p, size=partition.size, gain=partition.gain(), loss=partition.loss())
            )
        return points

    return per_p


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
    return _evaluator(aggregator)([float(p) for p in ps])


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
    evaluate = _evaluator(aggregator)
    solved: dict[float, QualityPoint] = {}
    # Each solved value's (rounded gain, rounded loss, size), computed once.
    signature: dict[float, tuple[float, float, int]] = {}

    def solve(ps: Sequence[float]) -> None:
        new = [p for p in dict.fromkeys(ps) if p not in solved]
        if not new:
            return
        for point in evaluate(new):
            solved[point.p] = point
            signature[point.p] = (round(point.gain, 9), round(point.loss, 9), point.size)

    # Breadth-first bisection: each depth splits the intervals whose
    # endpoints differ and solves all their midpoints in one batch.
    solve([0.0, 1.0])
    intervals = [(0.0, 1.0)]
    for _ in range(max_depth):
        split = [
            (lo, hi)
            for lo, hi in intervals
            if hi - lo > tolerance and signature[lo] != signature[hi]
        ]
        if not split:
            break
        mids = [(lo + hi) / 2.0 for lo, hi in split]
        solve(mids)
        intervals = [
            half for (lo, hi), mid in zip(split, mids) for half in ((lo, mid), (mid, hi))
        ]

    # Keep one representative per distinct signature, in increasing p order.
    significant: list[QualityPoint] = []
    last_signature: tuple[float, float, int] | None = None
    for p in sorted(solved):
        if signature[p] != last_signature:
            significant.append(solved[p])
            last_signature = signature[p]
    return significant
