"""Property-based tests for trace-format round-trips and the columnar model.

Three invariants over synthetic traces:

* CSV → store → CSV reproduces the original CSV bytes exactly (the store is
  lossless for everything the CSV carries);
* CSV → Pajé → CSV reproduces the traces' intervals (the event-replay path
  agrees with the interval path);
* the vectorized columnar discretization is bit-identical to the per-interval
  reference (``MicroscopicModel.from_columns`` vs ``from_trace``) — the
  invariant behind the service/CLI byte-identity guarantee.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.hierarchy import Hierarchy
from repro.core.microscopic import MicroscopicModel
from repro.store import open_store, save_store, trace_digest
from repro.trace.events import StateInterval
from repro.trace.io import read_csv, read_paje, write_csv, write_paje
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
def trace_strategy(draw, min_size=1, max_size=50):
    """Non-overlapping per-resource traces over a two-level hierarchy."""
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
    return Trace(intervals, hierarchy)


class TestFormatRoundTrips:
    @_SETTINGS
    @given(trace=trace_strategy())
    def test_csv_store_csv_is_byte_identical(self, tmp_path_factory, trace):
        base = tmp_path_factory.mktemp("rt")
        first = base / "first.csv"
        write_csv(trace, first)
        loaded = read_csv(first)
        store = save_store(loaded, base / "trace.rtz", chunk_rows=16)
        reloaded = open_store(base / "trace.rtz").load_trace()
        assert reloaded.intervals == loaded.intervals
        second = base / "second.csv"
        write_csv(reloaded, second)
        assert second.read_bytes() == first.read_bytes()

    @_SETTINGS
    @given(trace=trace_strategy())
    def test_csv_paje_csv_preserves_intervals(self, tmp_path_factory, trace):
        base = tmp_path_factory.mktemp("paje")
        first = base / "first.csv"
        write_csv(trace, first)
        loaded = read_csv(first)
        paje = base / "trace.paje"
        write_paje(loaded, paje)
        replayed = read_paje(paje, hierarchy=loaded.hierarchy)
        assert sorted(replayed.intervals) == list(loaded.intervals)
        second = base / "second.csv"
        write_csv(replayed, second)
        assert second.read_bytes() == first.read_bytes()

    @_SETTINGS
    @given(trace=trace_strategy())
    def test_store_digest_is_stable_across_round_trips(self, tmp_path_factory, trace):
        base = tmp_path_factory.mktemp("digest")
        store = save_store(trace, base / "a.rtz")
        reloaded = store.load_trace()
        assert trace_digest(reloaded) == store.digest
        again = save_store(reloaded, base / "b.rtz", chunk_rows=5)
        assert again.digest == store.digest


class TestColumnarModel:
    @_SETTINGS
    @given(trace=trace_strategy(), n_slices=st.integers(min_value=1, max_value=23))
    def test_from_columns_bit_identical_to_from_trace(self, trace, n_slices):
        reference = MicroscopicModel.from_trace(trace, n_slices=n_slices)
        columns = trace.columns()
        vectorized = MicroscopicModel.from_columns(
            columns.starts,
            columns.ends,
            columns.resource_ids,
            columns.state_ids,
            trace.hierarchy,
            trace.states.copy(),
            n_slices=n_slices,
        )
        assert np.array_equal(reference.durations, vectorized.durations)
        assert np.array_equal(reference.slicing.edges, vectorized.slicing.edges)

    @_SETTINGS
    @given(trace=trace_strategy(), chunk_rows=st.integers(min_value=1, max_value=64))
    def test_from_columns_chunking_invariant(self, trace, chunk_rows):
        columns = trace.columns()
        whole = MicroscopicModel.from_columns(
            columns.starts, columns.ends, columns.resource_ids, columns.state_ids,
            trace.hierarchy, trace.states.copy(), n_slices=9,
        )
        chunked = MicroscopicModel.from_columns(
            columns.starts, columns.ends, columns.resource_ids, columns.state_ids,
            trace.hierarchy, trace.states.copy(), n_slices=9, chunk_rows=chunk_rows,
        )
        assert np.array_equal(whole.durations, chunked.durations)
