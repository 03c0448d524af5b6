"""Property-based tests for the incremental interval-statistics engine.

The engine answers interval statistics two ways: vectorized ``(T, T)``
tables (broadcast prefix subtraction over state-major chunks of a height's
nodes) and O(1) scalar point queries (two prefix lookups).  Both must be
*bit-for-bit* identical — compared as int64 bit patterns, so a ``-0.0``
where ``0.0`` belongs fails — for every registered operator, from 1 to 12
states (past the 8 where numpy's contiguous state sum turns pairwise), on
balanced and uneven hierarchies, whatever the chunking of the table build.
The vectorized dynamic program must also be bit-for-bit identical to the
per-cell reference implementation — that guarantee is what lets the
benchmarks claim the speedup describes the same computation.
"""

from __future__ import annotations

import itertools
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import criteria, kernels
from repro.core.criteria import IntervalStatistics
from repro.core.hierarchy import Hierarchy, HierarchyNode
from repro.core.microscopic import MicroscopicModel
from repro.core.operators import available_operators
from repro.core.spatiotemporal import SpatiotemporalAggregator
from repro.trace.states import StateRegistry

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _tree(shape) -> Hierarchy:
    """A hierarchy from a drawn shape: a leaf (``None``) or a list of subtrees."""
    names = (f"n{i}" for i in itertools.count())

    def node(sub) -> HierarchyNode:
        if sub is None:
            return HierarchyNode(next(names))
        return HierarchyNode(next(names), [node(child) for child in sub])

    return Hierarchy(node(shape))


def model_strategy(max_resources: int = 8, max_slices: int = 10, max_states: int = 12):
    """Random microscopic models over balanced or uneven hierarchies.

    Uneven trees put leaves at different depths and make single-child
    chains, so the nodes of one height have different leaf counts.
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
        raw = draw(
            arrays(
                dtype=np.float64,
                shape=(hierarchy.n_leaves, n_slices, n_states),
                elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            )
        )
        # Normalize so per-cell totals stay within [0, 1].
        totals = raw.sum(axis=2, keepdims=True)
        scale = np.where(totals > 1.0, totals, 1.0)
        rho = raw / scale
        states = StateRegistry([f"s{i}" for i in range(n_states)])
        return MicroscopicModel.from_proportions(rho, hierarchy, states)

    return build()


_OPERATORS = st.sampled_from(list(available_operators()))


def _point_tables(stats: IntervalStatistics, node) -> tuple[np.ndarray, np.ndarray]:
    """``(T, T)`` gain and loss tables of ``node`` from O(1) point queries only."""
    n_slices = stats.n_slices
    gain, loss = np.zeros((n_slices, n_slices)), np.zeros((n_slices, n_slices))
    for i in range(n_slices):
        for j in range(i, n_slices):
            gain[i, j], loss[i, j] = stats.gain_loss_at(node, i, j)
    return gain, loss


def _assert_same_bits(actual: np.ndarray, expected: np.ndarray, label=None) -> None:
    assert actual.shape == expected.shape, label
    assert np.array_equal(
        np.ascontiguousarray(actual).view(np.int64), np.ascontiguousarray(expected).view(np.int64)
    ), label


class TestPointQueriesMatchTables:
    @_SETTINGS
    @given(model=model_strategy(), operator=_OPERATORS)
    def test_scalar_gain_loss_bitwise_identical_to_tables(self, model, operator):
        """O(1) point queries == table entries, bit for bit (lower triangles +0.0).

        Two engine instances over the same model: one serves full tables,
        the other only ever answers per-cell scalar queries (so its table
        cache never exists and the prefix-lookup path is exercised).
        """
        table_stats = IntervalStatistics(model, operator)
        point_stats = IntervalStatistics(model, operator)
        for node in model.hierarchy.iter_nodes():
            tables = table_stats.tables(node)
            for table, points in zip(tables, _point_tables(point_stats, node)):
                _assert_same_bits(table, points, node.name)

    @_SETTINGS
    @given(
        model=model_strategy(),
        operator=_OPERATORS,
        split=st.sampled_from(["nodes", "rows"]),
    )
    def test_chunked_and_row_split_fills_bitwise_identical(self, model, operator, split):
        """Tables built under a budget that chunks a height's nodes two at a
        time, or splits every node into blocks of start rows, equal the
        point queries bit for bit."""
        n_slices, n_states = model.n_slices, model.n_states
        row_bytes = n_slices * (n_states * criteria._STATE_CELL_BYTES + criteria._CELL_BYTES)
        rows = max(1, (n_slices - 1) // 2)
        budget = 2 * n_slices * row_bytes if split == "nodes" else rows * row_bytes
        table_stats = IntervalStatistics(model, operator)
        point_stats = IntervalStatistics(model, operator)
        with mock.patch.object(kernels, "SWEEP_BATCH_BYTES", budget):
            assert table_stats._chunking() == ((2, n_slices) if split == "nodes" else (1, rows))
            for height, level in enumerate(model.hierarchy.height_plan.levels):
                table_stats.height_tables(height, level.nodes)
        for node in model.hierarchy.iter_nodes():
            for table, points in zip(table_stats.tables(node), _point_tables(point_stats, node)):
                _assert_same_bits(table, points, node.name)

    @_SETTINGS
    @given(
        model=model_strategy(),
        operator=_OPERATORS,
        p=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_scalar_pic_bitwise_identical_to_pic_table(self, model, operator, p):
        table_stats = IntervalStatistics(model, operator)
        point_stats = IntervalStatistics(model, operator)
        root = model.hierarchy.root
        table = table_stats.pic_table(root, p)
        points = np.zeros_like(table)
        for i in range(model.n_slices):
            for j in range(i, model.n_slices):
                points[i, j] = point_stats.pic(root, i, j, p)
        upper = np.triu(np.ones(table.shape, dtype=bool))
        _assert_same_bits(table[upper], points[upper])

    @_SETTINGS
    @given(model=model_strategy(), operator=_OPERATORS)
    def test_macro_proportions_match_interval_sums(self, model, operator):
        """The O(1) macro proportions equal the broadcast table's entries."""
        stats = IntervalStatistics(model, operator)
        for node in (model.hierarchy.root, model.hierarchy.leaves[0]):
            sums = stats.interval_sums(node)
            table = stats.operator.macro_proportions(sums)
            for i in range(model.n_slices):
                for j in range(i, model.n_slices):
                    point = stats.macro_proportions(node, i, j)
                    _assert_same_bits(point, table[i, j])


class TestVectorizedDynamicProgram:
    @_SETTINGS
    @given(
        model=model_strategy(),
        operator=_OPERATORS,
        p=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_bitwise_identical_to_reference(self, model, operator, p):
        """Anti-diagonal sweep == per-cell reference, table for table."""
        aggregator = SpatiotemporalAggregator(model, operator=operator)
        reference = aggregator.compute_tables_reference(p)
        vectorized = aggregator.compute_tables(p)
        assert reference.keys() == vectorized.keys()
        for key in reference:
            assert np.array_equal(reference[key].pic, vectorized[key].pic)
            assert np.array_equal(reference[key].cut, vectorized[key].cut)
            assert np.array_equal(reference[key].count, vectorized[key].count)

    @_SETTINGS
    @given(model=model_strategy(), p=st.floats(min_value=0.0, max_value=1.0))
    def test_identical_partitions(self, model, p):
        """Recovered partitions are identical, not merely equally scored."""
        aggregator = SpatiotemporalAggregator(model)
        reference = aggregator._recover(aggregator.compute_tables_reference(p))
        vectorized = aggregator.run(p)
        assert sorted(a.key for a in reference) == sorted(a.key for a in vectorized)


class TestParallelAggregation:
    def test_jobs_equal_serial_partition(self):
        """--jobs N must return exactly the serial partition and tables."""
        rng = np.random.default_rng(7)
        hierarchy = Hierarchy.balanced(16, fanout=2)
        states = StateRegistry(["a", "b", "c"])
        rho = rng.dirichlet(np.ones(4), size=(16, 12))[:, :, :3]
        model = MicroscopicModel.from_proportions(rho, hierarchy, states)
        for operator in ("mean", "sum"):
            aggregator = SpatiotemporalAggregator(model, operator=operator)
            serial_tables = aggregator.compute_tables(0.4)
            parallel_tables = aggregator.compute_tables(0.4, jobs=3)
            assert serial_tables.keys() == parallel_tables.keys()
            for key in serial_tables:
                assert np.array_equal(serial_tables[key].pic, parallel_tables[key].pic)
                assert np.array_equal(serial_tables[key].cut, parallel_tables[key].cut)
            assert aggregator.run(0.4) == aggregator.run(0.4, jobs=3)

    def test_jobs_one_stays_serial(self):
        """jobs=1 (and jobs=None) must not spawn any process pool."""
        from unittest import mock

        rng = np.random.default_rng(3)
        hierarchy = Hierarchy.balanced(4, fanout=2)
        states = StateRegistry(["a"])
        rho = rng.dirichlet(np.ones(2), size=(4, 5))[:, :, :1]
        model = MicroscopicModel.from_proportions(rho, hierarchy, states)
        aggregator = SpatiotemporalAggregator(model)
        with mock.patch(
            "repro.core.spatiotemporal.ProcessPoolExecutor",
            side_effect=AssertionError("pool must not be created"),
        ):
            aggregator.compute_tables(0.5)
            aggregator.compute_tables(0.5, jobs=1)
