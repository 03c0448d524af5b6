"""Property-based tests for the aggregation-operator registry.

Every registered operator — not just the paper's ``mean`` — must satisfy the
repo's differential-testing convention with **bit-identity**, never
tolerances:

* the O(1)-style scalar point queries and the broadcast ``(T, T)`` tables of
  :class:`IntervalStatistics` agree per cell;
* a model reached through every construction path — ``from_trace``,
  ``from_columns``, ``extend`` over an appended tail, ``window`` over a
  slice range — yields the same gain/loss tables and the same optimal
  partition, because the operators only read quantities that are themselves
  bit-identical across those paths.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.criteria import IntervalStatistics
from repro.core.hierarchy import Hierarchy
from repro.core.microscopic import MicroscopicModel
from repro.core.operators import available_operators, get_operator
from repro.core.spatiotemporal import SpatiotemporalAggregator
from repro.trace.events import StateInterval
from repro.trace.synthetic import block_trace
from repro.trace.trace import Trace

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_RESOURCES = ("r0", "r1", "r2", "r3")
_STATES = ("send", "recv", "wait")

_piece_strategy = st.tuples(
    st.sampled_from(_RESOURCES),
    st.sampled_from(_STATES),
    st.floats(min_value=0.001, max_value=10.0, allow_nan=False),  # busy width
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),     # idle gap
)

_OPERATOR_NAMES = st.sampled_from(available_operators())


@st.composite
def split_trace_strategy(draw, min_size=4, max_size=40):
    """A trace plus a split point (prefix exists, tail arrives live)."""
    pieces = draw(st.lists(_piece_strategy, min_size=min_size, max_size=max_size))
    cursors = {name: 0.0 for name in _RESOURCES}
    intervals = []
    for resource, state, width, gap in pieces:
        start = cursors[resource] + gap
        end = start + width
        cursors[resource] = end
        intervals.append(StateInterval(start=start, end=end, resource=resource, state=state))
    hierarchy = Hierarchy.from_paths(
        [("g0", "r0"), ("g0", "r1"), ("g1", "r2"), ("g1", "r3")]
    )
    trace = Trace(intervals, hierarchy)
    split = draw(st.integers(min_value=1, max_value=trace.n_intervals - 1))
    return trace, split


def _assert_same_tables(
    got: IntervalStatistics, want: IntervalStatistics, hierarchy: Hierarchy
) -> None:
    for node in hierarchy.iter_nodes("post"):
        got_gain, got_loss = got.tables(node)
        want_gain, want_loss = want.tables(node)
        assert np.array_equal(got_gain, want_gain), node.name
        assert np.array_equal(got_loss, want_loss), node.name


class TestRegistry:
    def test_ships_the_paper_operator_plus_at_least_two_new(self):
        names = set(available_operators())
        assert "mean" in names and "sum" in names
        assert len(names - {"mean", "sum"}) >= 2  # the new registry entries

    def test_unknown_name_is_rejected_with_the_vocabulary(self):
        try:
            get_operator("median")
        except ValueError as exc:
            assert "median" in str(exc)
            for name in available_operators():
                assert name in str(exc)
        else:  # pragma: no cover - defensive
            raise AssertionError("get_operator('median') should raise")

    def test_default_operator_resolves_through_the_registry(self):
        from repro.core.operators import _REGISTRY, MeanOperator, register_operator

        class LoudMean(MeanOperator):
            pass

        original = _REGISTRY["mean"]
        try:
            register_operator(LoudMean, name="mean")
            # The None default must honour the override, exactly like the
            # explicit spelling (register_operator's documented contract).
            assert isinstance(get_operator(None), LoudMean)
            assert isinstance(get_operator("mean"), LoudMean)
        finally:
            register_operator(original, name="mean")
        assert type(get_operator(None)) is MeanOperator


class TestLossIsNonNegative:
    @_SETTINGS
    @given(case=split_trace_strategy(),
           operator=st.sampled_from(["max", "min", "std"]),
           n_slices=st.integers(min_value=2, max_value=7))
    def test_representative_operators_never_report_negative_loss(
        self, case, operator, n_slices
    ):
        """The magnitude-mismatch loss keeps the pIC trade-off meaningful.

        A signed loss would let ``p`` *reward* destroying information (and
        push ``normalized_loss`` below 0); real traces hit this constantly
        through idle cells (``rho = 0``), so it is gated as a property.
        """
        trace, _ = case
        model = MicroscopicModel.from_trace(trace, n_slices=n_slices)
        stats = IntervalStatistics(model, operator)
        for node in model.hierarchy.iter_nodes("post"):
            _, loss = stats.tables(node)
            assert (loss >= 0.0).all(), (operator, node.name)

    def test_min_does_not_collapse_on_traces_with_idle_cells(self):
        # Regression: with the signed loss, any zero cell made `min` report
        # macro=0 / loss<=0 and the optimal partition collapsed to one
        # aggregate regardless of content.
        trace = block_trace(n_resources=8, n_slices=12, n_blocks_time=3, seed=11)
        model = MicroscopicModel.from_trace(trace, n_slices=12)
        partition = SpatiotemporalAggregator(model, operator="min").run(0.7)
        assert partition.loss() >= 0.0
        payload_loss = partition.normalized_loss()
        assert payload_loss >= 0.0
        assert partition.size > 1


class TestScalarVsTables:
    @_SETTINGS
    @given(case=split_trace_strategy(), operator=_OPERATOR_NAMES,
           n_slices=st.integers(min_value=2, max_value=7))
    def test_point_queries_match_tables_bitwise(self, case, operator, n_slices):
        trace, _ = case
        model = MicroscopicModel.from_trace(trace, n_slices=n_slices)
        scalar_first = IntervalStatistics(model, operator)
        table_first = IntervalStatistics(model, operator)
        for node in model.hierarchy.iter_nodes("post"):
            gain, loss = table_first.tables(node)
            for i in range(model.n_slices):
                for j in range(i, model.n_slices):
                    point = scalar_first.gain_loss_at(node, i, j)
                    assert point == (float(gain[i, j]), float(loss[i, j])), (
                        operator, node.name, i, j,
                    )


class TestConstructionPathBitIdentity:
    @_SETTINGS
    @given(case=split_trace_strategy(), operator=_OPERATOR_NAMES,
           n_slices=st.integers(min_value=2, max_value=7))
    def test_from_columns_matches_from_trace(self, case, operator, n_slices):
        trace, _ = case
        reference = MicroscopicModel.from_trace(trace, n_slices=n_slices)
        columns = trace.columns()
        columnar = MicroscopicModel.from_columns(
            columns.starts, columns.ends, columns.resource_ids, columns.state_ids,
            trace.hierarchy, trace.states, n_slices=n_slices,
        )
        _assert_same_tables(
            IntervalStatistics(columnar, operator),
            IntervalStatistics(reference, operator),
            trace.hierarchy,
        )

    @_SETTINGS
    @given(case=split_trace_strategy(), operator=_OPERATOR_NAMES,
           n_slices=st.integers(min_value=2, max_value=7))
    def test_extend_matches_one_shot_discretization(self, case, operator, n_slices):
        trace, split = case
        columns = trace.columns()
        prefix = columns.slice(0, split)
        tail = columns.slice(split, columns.n_rows)
        base = MicroscopicModel.from_columns(
            prefix.starts, prefix.ends, prefix.resource_ids, prefix.state_ids,
            trace.hierarchy, trace.states, n_slices=n_slices,
        )
        # extended_to grows the axis by whole slices of the *prefix* width; a
        # tiny prefix span under a long tail can explode the axis, and the
        # (T, T) table comparison below is quadratic in it — skip those draws.
        assume(
            base.slicing.extended_to(float(columns.ends.max())).n_slices <= 64
        )
        base.cumulative_tables()
        extended = base.extend(tail)
        reference = MicroscopicModel.from_columns(
            columns.starts, columns.ends, columns.resource_ids, columns.state_ids,
            trace.hierarchy, trace.states,
            slicing=base.slicing.extended_to(float(columns.ends.max())),
        )
        _assert_same_tables(
            IntervalStatistics(extended, operator),
            IntervalStatistics(reference, operator),
            trace.hierarchy,
        )

    @_SETTINGS
    @given(case=split_trace_strategy(), operator=_OPERATOR_NAMES,
           n_slices=st.integers(min_value=3, max_value=7),
           window=st.tuples(st.integers(min_value=0, max_value=5),
                            st.integers(min_value=1, max_value=6)))
    def test_window_matches_windowed_rebuild(self, case, operator, n_slices, window):
        trace, _ = case
        a = min(window[0], n_slices - 1)
        b = min(max(window[1], a + 1), n_slices)
        model = MicroscopicModel.from_trace(trace, n_slices=n_slices)
        model.cumulative_tables()
        windowed = model.window(a, b)
        from repro.core.timeslicing import TimeSlicing

        rebuilt = MicroscopicModel(
            model.durations[:, a:b, :],
            model.hierarchy,
            TimeSlicing(model.slicing.edges[a : b + 1]),
            model.states,
        )
        _assert_same_tables(
            IntervalStatistics(windowed, operator),
            IntervalStatistics(rebuilt, operator),
            trace.hierarchy,
        )


class TestPartitionsAgree:
    @_SETTINGS
    @given(case=split_trace_strategy(), operator=_OPERATOR_NAMES,
           p=st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    def test_partition_identical_across_construction_paths(self, case, operator, p):
        trace, _ = case
        reference = MicroscopicModel.from_trace(trace, n_slices=6)
        columns = trace.columns()
        columnar = MicroscopicModel.from_columns(
            columns.starts, columns.ends, columns.resource_ids, columns.state_ids,
            trace.hierarchy, trace.states, n_slices=6,
        )
        got = SpatiotemporalAggregator(columnar, operator=operator).run(p)
        want = SpatiotemporalAggregator(reference, operator=operator).run(p)
        assert [(x.node.index, x.i, x.j) for x in got.aggregates] == [
            (x.node.index, x.i, x.j) for x in want.aggregates
        ]
        assert got.pic() == want.pic()
