"""Differential property tests for streaming ingestion.

The streaming subsystem has a fast path and a reference path for everything
it does (the repo-wide convention — see ``tests/README.md``):

* ``StoreWriter.append`` (fast) vs re-converting the concatenated trace with
  ``save_store`` (reference) — columns, digests and manifests must agree;
* ``MicroscopicModel.extend`` (fast) vs ``MicroscopicModel.from_columns``
  over all rows with the extended slicing (reference) — durations and all
  three cumulative prefix tables must agree;
* ``RollingColumnsDigest`` (fast) vs ``columns_digest`` (reference).

Every assertion is **bit-identity** (``np.array_equal`` on float arrays,
string equality on digests) — no tolerances — because the service's cache
keys and the CLI/service byte-identity guarantee both collapse if the
incremental path drifts by even one ulp.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.hierarchy import Hierarchy
from repro.core.microscopic import MicroscopicModel
from repro.store import (
    RollingColumnsDigest,
    StoreWriter,
    columns_digest,
    open_store,
    save_store,
)
from repro.trace.events import StateInterval
from repro.trace.trace import Trace

_SETTINGS = settings(
    max_examples=25,
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


@st.composite
def split_trace_strategy(draw, min_size=2, max_size=50):
    """A trace plus a split point: rows before it exist, rows after arrive live.

    Intervals are non-overlapping per resource; the split is taken on the
    *canonical* (start, end)-sorted order, which is exactly the order an
    append-only tracer produces.
    """
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


def _prefix_trace(trace: Trace, split: int) -> Trace:
    return Trace(
        trace.intervals[:split], trace.hierarchy, trace.states.copy(), trace.metadata
    )


class TestWriterAppendDifferential:
    @_SETTINGS
    @given(case=split_trace_strategy())
    def test_append_bit_identical_to_full_convert(self, tmp_path_factory, case):
        trace, split = case
        base = tmp_path_factory.mktemp("wr")
        streamed_path = base / "streamed.rtz"
        save_store(_prefix_trace(trace, split), streamed_path, chunk_rows=16)
        columns = trace.columns()
        writer = StoreWriter(streamed_path)
        writer.append(columns.slice(split, columns.n_rows))

        reference = save_store(trace, base / "reference.rtz", chunk_rows=16)
        streamed = open_store(streamed_path)
        assert streamed.digest == reference.digest
        assert streamed.n_intervals == reference.n_intervals
        assert streamed.start == reference.start
        assert streamed.end == reference.end
        got, want = streamed.columns(), reference.columns()
        for field in ("starts", "ends", "resource_ids", "state_ids"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
        # Digest-stable summaries: identical except the append counter.
        streamed_summary = streamed.summary()
        reference_summary = reference.summary()
        assert streamed_summary.pop("generation") == 1
        assert reference_summary.pop("generation") == 0
        assert streamed_summary == reference_summary

    @_SETTINGS
    @given(case=split_trace_strategy(min_size=3), second=st.integers(min_value=1, max_value=48))
    def test_two_appends_equal_one(self, tmp_path_factory, case, second):
        trace, split = case
        columns = trace.columns()
        mid = split + 1 + second % max(columns.n_rows - split - 1, 1) if split + 1 < columns.n_rows else split
        base = tmp_path_factory.mktemp("wr2")
        save_store(_prefix_trace(trace, split), base / "a.rtz", chunk_rows=8)
        writer = StoreWriter(base / "a.rtz")
        writer.append(columns.slice(split, mid))
        writer.append(columns.slice(mid, columns.n_rows))
        reference = save_store(trace, base / "b.rtz", chunk_rows=8)
        streamed = open_store(base / "a.rtz")
        assert streamed.digest == reference.digest
        got = streamed.columns()
        for field in ("starts", "ends", "resource_ids", "state_ids"):
            assert np.array_equal(getattr(got, field), getattr(reference.columns(), field))


class TestExtendDifferential:
    @_SETTINGS
    @given(case=split_trace_strategy(), n_slices=st.integers(min_value=1, max_value=17))
    def test_extend_bit_identical_to_from_columns(self, case, n_slices):
        trace, split = case
        columns = trace.columns()
        prefix = columns.slice(0, split)
        tail = columns.slice(split, columns.n_rows)
        base = MicroscopicModel.from_columns(
            prefix.starts, prefix.ends, prefix.resource_ids, prefix.state_ids,
            trace.hierarchy, trace.states.copy(), n_slices=n_slices,
        )
        base.cumulative_tables()  # warm, so extend takes the incremental path
        extended = base.extend(tail)
        reference = MicroscopicModel.from_columns(
            columns.starts, columns.ends, columns.resource_ids, columns.state_ids,
            trace.hierarchy, trace.states.copy(), slicing=extended.slicing,
        )
        assert np.array_equal(extended.slicing.edges, reference.slicing.edges)
        assert np.array_equal(extended.durations, reference.durations)
        for fast, scratch in zip(
            extended.cumulative_tables(), reference.cumulative_tables()
        ):
            assert np.array_equal(fast, scratch)

    @_SETTINGS
    @given(case=split_trace_strategy(), n_slices=st.integers(min_value=1, max_value=17))
    def test_extend_without_warm_tables_matches_too(self, case, n_slices):
        trace, split = case
        columns = trace.columns()
        base = MicroscopicModel.from_columns(
            columns.starts[:split], columns.ends[:split],
            columns.resource_ids[:split], columns.state_ids[:split],
            trace.hierarchy, trace.states.copy(), n_slices=n_slices,
        )
        extended = base.extend(columns.slice(split, columns.n_rows))
        reference = MicroscopicModel.from_columns(
            columns.starts, columns.ends, columns.resource_ids, columns.state_ids,
            trace.hierarchy, trace.states.copy(), slicing=extended.slicing,
        )
        assert np.array_equal(extended.durations, reference.durations)
        for fast, scratch in zip(
            extended.cumulative_tables(), reference.cumulative_tables()
        ):
            assert np.array_equal(fast, scratch)

    @_SETTINGS
    @given(case=split_trace_strategy(min_size=4), n_slices=st.integers(min_value=1, max_value=11))
    def test_chained_extends_equal_one_rebuild(self, case, n_slices):
        trace, split = case
        columns = trace.columns()
        mid = (split + columns.n_rows) // 2
        base = MicroscopicModel.from_columns(
            columns.starts[:split], columns.ends[:split],
            columns.resource_ids[:split], columns.state_ids[:split],
            trace.hierarchy, trace.states.copy(), n_slices=n_slices,
        )
        base.cumulative_tables()
        chained = base.extend(columns.slice(split, mid)).extend(
            columns.slice(mid, columns.n_rows)
        )
        reference = MicroscopicModel.from_columns(
            columns.starts, columns.ends, columns.resource_ids, columns.state_ids,
            trace.hierarchy, trace.states.copy(), slicing=chained.slicing,
        )
        assert np.array_equal(chained.durations, reference.durations)
        for fast, scratch in zip(
            chained.cumulative_tables(), reference.cumulative_tables()
        ):
            assert np.array_equal(fast, scratch)


class TestWindowDifferential:
    @_SETTINGS
    @given(
        case=split_trace_strategy(),
        n_slices=st.integers(min_value=2, max_value=17),
        data=st.data(),
    )
    def test_window_tables_equal_windowed_rebuild(self, case, n_slices, data):
        trace, _ = case
        columns = trace.columns()
        model = MicroscopicModel.from_columns(
            columns.starts, columns.ends, columns.resource_ids, columns.state_ids,
            trace.hierarchy, trace.states.copy(), n_slices=n_slices,
        )
        model.cumulative_tables()
        a = data.draw(st.integers(min_value=0, max_value=n_slices - 1))
        b = data.draw(st.integers(min_value=a + 1, max_value=n_slices))
        windowed = model.window(a, b)
        scratch = MicroscopicModel(
            model.durations[:, a:b, :], trace.hierarchy,
            windowed.slicing, trace.states.copy(),
        )
        assert np.array_equal(windowed.durations, scratch.durations)
        for fast, rebuilt in zip(
            windowed.cumulative_tables(), scratch.cumulative_tables()
        ):
            assert np.array_equal(fast, rebuilt)


class TestRollingDigest:
    @_SETTINGS
    @given(case=split_trace_strategy())
    def test_rolling_digest_matches_columns_digest(self, case):
        trace, split = case
        columns = trace.columns()
        leaf_paths = [leaf.path for leaf in trace.hierarchy.leaves]
        rolling = RollingColumnsDigest(leaf_paths, trace.states.names, trace.metadata)
        rolling.extend(columns.slice(0, split))
        assert rolling.hexdigest() == columns_digest(
            columns.slice(0, split), leaf_paths, trace.states.names, trace.metadata
        )
        rolling.extend(columns.slice(split, columns.n_rows))
        assert rolling.hexdigest() == columns_digest(
            columns, leaf_paths, trace.states.names, trace.metadata
        )
