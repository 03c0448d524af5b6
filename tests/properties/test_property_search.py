"""Differential tests of the batched significant-p search against the per-p search.

:func:`~repro.core.parameters.significant_points` and
:func:`~repro.core.parameters.quality_curve` solve their trade-off values in
batches through :meth:`SpatiotemporalAggregator.quality`: one Algorithm 1
pass over ``(P, N, T, T)`` slabs per batch, with each value's size, gain and
loss read straight from the cut tables, and the search bisects
breadth-first.  The oracle is the depth-first recursive search the
breadth-first one replaced (kept below), run through a wrapper that only
has ``run(p)`` — one DP and one :class:`~repro.core.partition.Partition`
per value.  Both must agree bit for bit: ``p``, size, gain and loss (floats
compared through ``float.hex``, so ``-0.0`` against ``0.0`` fails), and the
serialized sweep payload byte for byte.

Covered: the mean, sum, max and min operators; random, tie-heavy and
homogeneous models on balanced and uneven hierarchies; both kernel tiers;
a process pool (``jobs=2``); budgets that force batches of one, two and
three values; and the set of values each path solves.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.hierarchy import Hierarchy
from repro.core.kernels import available_kernels
from repro.core.microscopic import MicroscopicModel
from repro.core.parameters import QualityPoint, quality_curve, significant_points
from repro.core.spatiotemporal import SpatiotemporalAggregator
from repro.pipeline.payloads import serialize_payload, sweep_payload
from repro.trace.states import StateRegistry

from test_property_engine import _tree

_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_OPERATORS = st.sampled_from(["mean", "sum", "max", "min"])
_TIERS = st.sampled_from(available_kernels())

#: Bytes of one trade-off value's tables per cell (pIC, cut, count).
_VALUE_CELL_BYTES = 16


class RunOnly:
    """An aggregator seen through ``run(p)`` alone, recording every value solved."""

    def __init__(self, aggregator: SpatiotemporalAggregator) -> None:
        self._aggregator = aggregator
        self.solved: list[float] = []

    def run(self, p: float):
        self.solved.append(p)
        return self._aggregator.run(p)


def depth_first_points(aggregator, tolerance: float = 1e-9, max_depth: int = 12):
    """The depth-first recursive search, one ``run(p)`` per value: the oracle."""
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

    boundaries = {0.0, 1.0}

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
    significant, last = [], None
    for p in sorted(boundaries):
        if signature(p) != last:
            significant.append(solved[p])
            last = signature(p)
    return significant


def model_strategy(max_resources: int = 8, max_slices: int = 8, max_states: int = 3):
    """Random, tie-heavy or homogeneous models on balanced or uneven hierarchies.

    Tie-heavy proportions take four levels only, so many aggregates share
    their gain and loss exactly; homogeneous ones are one constant.
    """
    shapes = st.recursive(
        st.none(), lambda sub: st.lists(sub, min_size=1, max_size=3), max_leaves=max_resources
    )

    @st.composite
    def build(draw):
        if draw(st.booleans()):
            n_resources = draw(st.integers(min_value=2, max_value=max_resources))
            hierarchy = Hierarchy.balanced(n_resources, fanout=draw(st.sampled_from([2, 3])))
        else:
            hierarchy = _tree(draw(shapes))
        n_slices = draw(st.integers(min_value=1, max_value=max_slices))
        n_states = draw(st.integers(min_value=1, max_value=max_states))
        shape = (hierarchy.n_leaves, n_slices, n_states)
        seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
        rng = np.random.default_rng(seed)
        kind = draw(st.sampled_from(["random", "ties", "homogeneous"]))
        if kind == "random":
            raw = rng.random(shape)
        elif kind == "ties":
            raw = rng.integers(0, 4, size=shape) / 4.0
        else:
            raw = np.full(shape, draw(st.sampled_from([0.0, 0.25, 0.5])))
        totals = raw.sum(axis=2, keepdims=True)
        rho = raw / np.where(totals > 1.0, totals, 1.0)
        states = StateRegistry([f"s{i}" for i in range(n_states)])
        return MicroscopicModel.from_proportions(rho, hierarchy, states)

    return build()


def _bits(points) -> list[tuple[str, int, str, str]]:
    return [(point.p.hex(), point.size, point.gain.hex(), point.loss.hex()) for point in points]


def _payload(points) -> str:
    significant = [point.p for point in points]
    return serialize_payload(sweep_payload({}, {"operator": "x"}, significant, points))


def _assert_same_search(batched, oracle) -> None:
    assert all(isinstance(point.size, int) for point in batched)
    assert _bits(batched) == _bits(oracle)
    assert _payload(batched) == _payload(oracle)


def _value_bytes(model: MicroscopicModel) -> int:
    return model.hierarchy.n_nodes * model.n_slices**2 * _VALUE_CELL_BYTES


class TestBatchedSearch:
    @_SETTINGS
    @given(
        model=model_strategy(),
        operator=_OPERATORS,
        kernel=_TIERS,
        max_depth=st.integers(min_value=0, max_value=12),
        tolerance=st.sampled_from([1e-9, 1e-3, 2.0**-7, 0.2, 0.25]),
    )
    def test_search_equals_depth_first_per_p_search(
        self, model, operator, kernel, max_depth, tolerance
    ):
        batched = significant_points(
            SpatiotemporalAggregator(model, operator=operator, kernel=kernel),
            tolerance=tolerance,
            max_depth=max_depth,
        )
        oracle = depth_first_points(
            RunOnly(SpatiotemporalAggregator(model, operator=operator, kernel=kernel)),
            tolerance,
            max_depth,
        )
        _assert_same_search(batched, oracle)

    @_SETTINGS
    @given(
        model=model_strategy(),
        operator=_OPERATORS,
        ps=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12),
    )
    def test_explicit_ps_equal_per_p_curve(self, model, operator, ps):
        aggregator = SpatiotemporalAggregator(model, operator=operator)
        batched = quality_curve(aggregator, ps=ps)
        oracle = quality_curve(RunOnly(SpatiotemporalAggregator(model, operator=operator)), ps=ps)
        _assert_same_search(batched, oracle)
        partitions = aggregator.run_many(ps)
        assert list(partitions) == list(dict.fromkeys(ps))
        for p, partition in partitions.items():
            alone = aggregator.run(p)
            assert partition.p == p
            assert [a.key for a in partition] == [a.key for a in alone]

    @pytest.mark.parametrize("per_batch", [1, 2, 3])
    @settings(max_examples=8, deadline=None, suppress_health_check=list(HealthCheck))
    @given(model=model_strategy(), operator=_OPERATORS)
    def test_forced_batch_sizes(self, per_batch, model, operator):
        aggregator = SpatiotemporalAggregator(model, operator=operator)
        asked: list[int] = []
        solved: list[int] = []
        quality, compute = aggregator.quality, aggregator._compute

        def spy_quality(ps):
            asked.append(len(ps))
            return quality(ps)

        def spy_compute(ps, jobs):
            solved.append(len(ps))
            return compute(ps, jobs)

        budget = per_batch * _value_bytes(model)
        with mock.patch.object(kernels, "SWEEP_BATCH_BYTES", budget), mock.patch.object(
            aggregator, "quality", spy_quality
        ), mock.patch.object(aggregator, "_compute", spy_compute):
            batched = significant_points(aggregator)
        oracle = depth_first_points(RunOnly(SpatiotemporalAggregator(model, operator=operator)))
        _assert_same_search(batched, oracle)
        # Every request is cut into full batches of `per_batch` values and a rest.
        expected = [
            size
            for n in asked
            for size in [per_batch] * (n // per_batch) + [n % per_batch] * (n % per_batch > 0)
        ]
        assert solved == expected

    @_SETTINGS
    @given(model=model_strategy(), operator=_OPERATORS)
    def test_every_path_solves_the_depth_first_values(self, model, operator):
        """Batched, breadth-first ``run``-only and depth-first: one set, each value once."""
        aggregator = SpatiotemporalAggregator(model, operator=operator)
        asked: list[float] = []
        quality = aggregator.quality

        def spy(ps):
            asked.extend(ps)
            return quality(ps)

        with mock.patch.object(aggregator, "quality", spy):
            significant_points(aggregator)
        run_only = RunOnly(SpatiotemporalAggregator(model, operator=operator))
        _assert_same_search(
            significant_points(run_only),
            depth_first_points(RunOnly(SpatiotemporalAggregator(model, operator=operator))),
        )
        depth_first = RunOnly(SpatiotemporalAggregator(model, operator=operator))
        depth_first_points(depth_first)
        for solved in (asked, run_only.solved):
            assert len(solved) == len(set(solved))
            assert sorted(solved) == sorted(depth_first.solved)


class TestBatchedSearchInPool:
    @pytest.mark.parametrize("operator", ["mean", "max"])
    def test_jobs_2_equals_serial_per_p_search(self, operator):
        rng = np.random.default_rng(3)
        rho = rng.integers(0, 3, size=(9, 6, 2)) / 4.0
        model = MicroscopicModel.from_proportions(
            rho, Hierarchy.balanced(9, fanout=3), StateRegistry(["a", "b"])
        )
        pooled = SpatiotemporalAggregator(model, operator=operator, jobs=2)
        batched = significant_points(pooled, max_depth=5)
        oracle = depth_first_points(
            RunOnly(SpatiotemporalAggregator(model, operator=operator)), max_depth=5
        )
        _assert_same_search(batched, oracle)
        ps = [0.0, 0.3, 0.7, 1.0]
        _assert_same_search(
            pooled.quality(ps),
            quality_curve(RunOnly(SpatiotemporalAggregator(model, operator=operator)), ps=ps),
        )


def test_batch_tables_stay_within_the_budget():
    """A batch holds as many values as fit the budget; a value too big runs alone."""
    rng = np.random.default_rng(5)
    model = MicroscopicModel.from_proportions(
        rng.random((8, 6, 2)) / 2.0, Hierarchy.balanced(8, fanout=2), StateRegistry(["a", "b"])
    )
    aggregator = SpatiotemporalAggregator(model)
    value_bytes = _value_bytes(model)
    ps = list(np.linspace(0.0, 1.0, 11))
    for budget, expected in [(value_bytes * 4 + 1, [4, 4, 3]), (value_bytes - 1, [1] * 11)]:
        with mock.patch.object(kernels, "SWEEP_BATCH_BYTES", budget):
            batches = list(aggregator._batches(ps))
        assert [len(values) for values, _ in batches] == expected
        for values, tables in batches:
            table_bytes = sum(
                slab.nbytes for slabs in (tables.pic, tables.cut, tables.count) for slab in slabs
            )
            assert table_bytes == len(values) * value_bytes
            assert table_bytes <= budget or len(values) == 1


def test_out_of_range_p_is_rejected_before_any_solve():
    rng = np.random.default_rng(1)
    model = MicroscopicModel.from_proportions(
        rng.random((4, 3, 2)) / 2.0, Hierarchy.balanced(4), StateRegistry(["a", "b"])
    )
    aggregator = SpatiotemporalAggregator(model)
    with mock.patch.object(aggregator, "_compute") as compute:
        with pytest.raises(ValueError, match=r"p must be in \[0, 1\], got 1.5"):
            aggregator.quality([0.2, 1.5])
    compute.assert_not_called()
