"""Property-based tests for the incremental interval-statistics engine.

The engine answers interval statistics two ways: vectorized ``(T, T)``
tables (broadcast prefix subtraction over state-major chunks of a height's
nodes) and O(1) scalar point queries (two prefix lookups).  Both must be
*bit-for-bit* identical — compared as int64 bit patterns, so a ``-0.0``
where ``0.0`` belongs fails — for every registered operator, on balanced
and uneven hierarchies, whatever the chunking of the table build, and on
both table fills: the numpy fill and, wherever the ``c`` tier builds, the
compiled ``mean`` fill (``kernels.mean_tables_c``).  The drawn models have
1 to 12 states and 127, 128, 129, 200 or 257 (every branch of numpy's
contiguous state sum: sequential below 8, eight accumulators up to 128,
halves above), states that never occur (the dead-cell path), idle and
near-zero-length slices, and windows of larger models.  The compiled fill
is also diffed against the numpy operator on crafted time prefixes that a
valid model cannot produce: signed zeros, zero and negative denominators,
a zero macro proportion beside positive proportion sums.

The vectorized dynamic program must also be bit-for-bit identical to the
per-cell reference implementation — that guarantee is what lets the
benchmarks claim the speedup describes the same computation.
"""

from __future__ import annotations

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import criteria, kernels
from repro.core.criteria import IntervalStatistics
from repro.core.hierarchy import Hierarchy, HierarchyNode
from repro.core.microscopic import MicroscopicModel
from repro.core.operators import IntervalSums, MeanOperator, available_operators
from repro.core.spatiotemporal import SpatiotemporalAggregator
from repro.core.timeslicing import TimeSlicing
from repro.trace.states import StateRegistry

#: Every table fill runnable here: numpy, and the compiled one wherever c builds.
TIERS = kernels.available_kernels()

needs_c = pytest.mark.skipif("c" not in TIERS, reason="no C compiler: the c tier is unavailable")

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


#: State counts of the drawn models: 1 to 12, and around numpy's pairwise
#: sum's 128-value block and its halving (127, 128, 129, 200, 257).
_STATE_COUNTS = st.one_of(
    st.integers(min_value=1, max_value=12), st.sampled_from([127, 128, 129, 200, 257])
)

#: Slice widths: regular, irregular and near zero (``TimeSlicing`` refuses
#: zero-length slices).
_WIDTHS = st.sampled_from([1.0, 0.25, 7.5, 1e-12])


def model_strategy(max_resources: int = 8, max_slices: int = 10):
    """Random microscopic models over balanced or uneven hierarchies.

    Uneven trees put leaves at different depths and make single-child
    chains, so the nodes of one height have different leaf counts.  Up to
    three states never occur and up to two slices are idle (no state at
    all); slices have drawn widths; a model may be a window of a larger one,
    its prefix tables built before the window or after.
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
        n_states = draw(_STATE_COUNTS)
        shape = (hierarchy.n_leaves, n_slices, n_states)
        if n_states <= 12:
            raw = draw(
                arrays(
                    dtype=np.float64,
                    shape=shape,
                    elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                )
            )
        else:
            raw = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(shape)
        raw[:, :, draw(st.lists(st.integers(0, n_states - 1), max_size=3))] = 0.0
        raw[:, draw(st.lists(st.integers(0, n_slices - 1), max_size=2)), :] = 0.0
        # Normalize so per-cell totals stay within [0, 1].
        totals = raw.sum(axis=2, keepdims=True)
        scale = np.where(totals > 1.0, totals, 1.0)
        rho = raw / scale
        widths = draw(st.lists(_WIDTHS, min_size=n_slices, max_size=n_slices))
        slicing = TimeSlicing(np.concatenate([[0.0], np.cumsum(widths)]))
        states = StateRegistry([f"s{i}" for i in range(n_states)])
        model = MicroscopicModel(
            rho * slicing.durations[None, :, None], hierarchy, slicing, states
        )
        if n_slices > 1 and draw(st.booleans()):
            if draw(st.booleans()):
                model.cumulative_tables()
            start = draw(st.integers(0, n_slices - 2))
            model = model.window(start, draw(st.integers(start + 1, n_slices)))
        return model

    return build()


_OPERATORS = st.sampled_from(list(available_operators()))


def _many_macro_model() -> MicroscopicModel:
    """A 16 x 24 model of 9 states: some 84 000 macro proportions.

    numpy's vectorized ``log2`` and the C library's round apart on about one
    input in 3500, so a fill that took its logarithms from the C library
    differs from the point queries on this model, whatever hypothesis draws.
    """
    rng = np.random.default_rng(7)
    rho = rng.dirichlet(np.ones(10), size=(16, 24))[:, :, :9]
    states = StateRegistry([f"s{i}" for i in range(9)])
    return MicroscopicModel.from_proportions(rho, Hierarchy.balanced(16, fanout=2), states)


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
    @pytest.mark.parametrize("kernel", TIERS)
    @_SETTINGS
    @given(model=model_strategy(), operator=_OPERATORS)
    @example(model=_many_macro_model(), operator="mean")
    def test_scalar_gain_loss_bitwise_identical_to_tables(self, kernel, model, operator):
        """O(1) point queries == table entries, bit for bit (lower triangles +0.0).

        Two engine instances over the same model: one serves full tables
        from the ``kernel`` tier's fill, the other only ever answers
        per-cell scalar queries (so its table cache never exists and the
        prefix-lookup path is exercised).
        """
        table_stats = IntervalStatistics(model, operator, kernel=kernel)
        point_stats = IntervalStatistics(model, operator, kernel="numpy")
        for node in model.hierarchy.iter_nodes():
            tables = table_stats.tables(node)
            for table, points in zip(tables, _point_tables(point_stats, node)):
                _assert_same_bits(table, points, node.name)

    @pytest.mark.parametrize("kernel", TIERS)
    @_SETTINGS
    @given(
        model=model_strategy(),
        operator=_OPERATORS,
        split=st.sampled_from(["nodes", "rows"]),
    )
    def test_chunked_and_row_split_fills_bitwise_identical(self, kernel, model, operator, split):
        """Tables built under a budget that chunks a height's nodes two at a
        time, or splits every node into blocks of start rows (``lo > 0``
        from the second block on), equal the point queries bit for bit."""
        n_slices = model.n_slices
        rows = max(1, (n_slices - 1) // 2)
        table_stats = IntervalStatistics(model, operator, kernel=kernel)
        point_stats = IntervalStatistics(model, operator, kernel="numpy")
        row_bytes = table_stats._row_bytes()
        budget = 2 * n_slices * row_bytes if split == "nodes" else rows * row_bytes
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


#: Crafted prefix and duration values: signed zeros (half of the draws, so
#: that a cell often meets one in every state), negatives, and magnitudes far
#: from any proportion, none overflowing.
_CRAFTED = [0.0, -0.0] * 3 + [0.5, 1.0, 3.0, -0.75, 1e-3, 250.0]


def _mean_tables_numpy(prefixes, durations, n_leaves, lo, hi):
    """The numpy fill of ``_chunk_tables`` on given time prefixes (mean operator)."""
    n_slices = durations.shape[0]
    sums = IntervalSums(
        sum_durations=criteria._interval_table(prefixes[0], lo, hi),
        total_duration=durations[None, lo:hi, lo:],
        n_resources=n_leaves[:, None, None],
        sum_rho=criteria._interval_table(prefixes[1], lo, hi),
        sum_rho_log_rho=criteria._interval_table(prefixes[2], lo, hi),
        n_cells=0,  # the mean operator does not read it
    )
    gain, loss = MeanOperator().gain_loss(sums)
    lower = np.tri(hi - lo, n_slices - lo, -1, dtype=bool)
    return np.where(lower, 0.0, gain), np.where(lower, 0.0, loss)


@st.composite
def crafted_prefixes(draw):
    """``(prefixes, durations, n_leaves, lo, hi)`` with values from ``_CRAFTED``.

    The three ``(X, c, T + 1)`` prefixes, the ``(T, T)`` durations and the
    leaf counts (zero and negative included) are arbitrary, not the sums
    of any model: zero and negative denominators, ``-0.0`` interval sums,
    a zero macro proportion beside a positive proportion sum.  Half the
    cases repeat one state's prefixes in every state, so a cell can hold
    the same signed zero in all of them.
    """
    n_states = draw(_STATE_COUNTS)
    n_nodes = draw(st.integers(1, 3))
    n_slices = draw(st.integers(1, 6))
    shape = (n_states, n_nodes, n_slices + 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    states = 1 if draw(st.booleans()) else n_states
    prefixes = [
        np.broadcast_to(rng.choice(_CRAFTED, size=(states,) + shape[1:]), shape).copy()
        for _ in range(3)
    ]
    durations = rng.choice(_CRAFTED, size=(n_slices, n_slices))
    n_leaves = rng.choice([0.0, 1.0, 3.0, -1.0], size=n_nodes)
    lo = draw(st.integers(0, n_slices - 1))
    return prefixes, durations, n_leaves, lo, draw(st.integers(lo + 1, n_slices))


@needs_c
class TestCompiledMeanFill:
    @settings(max_examples=200, deadline=None)
    @given(case=crafted_prefixes())
    def test_crafted_prefixes_bitwise_identical_to_the_numpy_operator(self, case):
        prefixes, *rest = case
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = _mean_tables_numpy(prefixes, *rest)
        for table, reference in zip(kernels.mean_tables_c(*prefixes, *rest), expected):
            _assert_same_bits(table, reference)


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
