"""Tests for repro.core.microscopic."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import kernels, microscopic
from repro.core.hierarchy import Hierarchy
from repro.core.microscopic import MicroscopicModel, MicroscopicModelError
from repro.core.timeslicing import TimeSlicing
from repro.trace.events import StateInterval
from repro.trace.states import StateRegistry
from repro.trace.synthetic import figure3_proportions, figure3_trace
from repro.trace.trace import Trace


def simple_trace() -> Trace:
    hierarchy = Hierarchy.flat(["a", "b"])
    intervals = [
        StateInterval(0.0, 2.0, "a", "work"),
        StateInterval(2.0, 4.0, "a", "wait"),
        StateInterval(0.0, 4.0, "b", "work"),
    ]
    return Trace(intervals, hierarchy)


class TestFromTrace:
    def test_shapes(self):
        model = MicroscopicModel.from_trace(simple_trace(), n_slices=4)
        assert model.n_resources == 2
        assert model.n_slices == 4
        assert model.n_states == 2
        assert model.n_cells == 8

    def test_durations_are_projected_correctly(self):
        model = MicroscopicModel.from_trace(simple_trace(), n_slices=4)
        work = model.states.index("work")
        wait = model.states.index("wait")
        a = model.hierarchy.leaf_index("a")
        b = model.hierarchy.leaf_index("b")
        assert model.durations[a, 0, work] == pytest.approx(1.0)
        assert model.durations[a, 1, work] == pytest.approx(1.0)
        assert model.durations[a, 2, work] == pytest.approx(0.0)
        assert model.durations[a, 2, wait] == pytest.approx(1.0)
        assert np.allclose(model.durations[b, :, work], 1.0)

    def test_total_time_is_preserved(self):
        trace = simple_trace()
        model = MicroscopicModel.from_trace(trace, n_slices=7)
        assert model.durations.sum() == pytest.approx(
            sum(iv.duration for iv in trace.intervals)
        )

    def test_proportions_in_unit_range(self):
        model = MicroscopicModel.from_trace(figure3_trace(), n_slices=20)
        rho = model.proportions
        assert np.all(rho >= 0)
        assert np.all(rho.sum(axis=2) <= 1 + 1e-9)

    def test_figure3_roundtrip(self):
        """Slicing the synthetic Figure 3 trace recovers its designed proportions."""
        model = MicroscopicModel.from_trace(figure3_trace(), n_slices=20)
        expected = figure3_proportions()
        a_index = model.states.index("A")
        assert np.allclose(model.proportions[:, :, a_index], expected, atol=1e-9)

    def test_empty_span_rejected(self):
        hierarchy = Hierarchy.flat(["a"])
        trace = Trace([], hierarchy)
        with pytest.raises(MicroscopicModelError):
            MicroscopicModel.from_trace(trace, n_slices=4)

    def test_explicit_slicing_zoom(self):
        trace = simple_trace()
        slicing = TimeSlicing.regular(0.0, 2.0, 2)
        model = MicroscopicModel.from_trace(trace, slicing=slicing)
        assert model.n_slices == 2
        # Only the first half of the trace is described.
        assert model.durations.sum() == pytest.approx(4.0)

    def test_shared_state_registry(self):
        registry = StateRegistry(["idle", "work", "wait"])
        model = MicroscopicModel.from_trace(simple_trace(), n_slices=2, states=registry)
        assert model.states.index("idle") == 0
        assert model.n_states == 3


class TestValidation:
    def test_rejects_wrong_resource_count(self):
        hierarchy = Hierarchy.flat(["a", "b"])
        slicing = TimeSlicing.regular(0, 1, 2)
        states = StateRegistry(["x"])
        with pytest.raises(MicroscopicModelError):
            MicroscopicModel(np.zeros((3, 2, 1)), hierarchy, slicing, states)

    def test_rejects_wrong_slice_count(self):
        hierarchy = Hierarchy.flat(["a"])
        slicing = TimeSlicing.regular(0, 1, 2)
        states = StateRegistry(["x"])
        with pytest.raises(MicroscopicModelError):
            MicroscopicModel(np.zeros((1, 3, 1)), hierarchy, slicing, states)

    def test_rejects_wrong_state_count(self):
        hierarchy = Hierarchy.flat(["a"])
        slicing = TimeSlicing.regular(0, 1, 2)
        states = StateRegistry(["x", "y"])
        with pytest.raises(MicroscopicModelError):
            MicroscopicModel(np.zeros((1, 2, 1)), hierarchy, slicing, states)

    def test_rejects_negative_durations(self):
        hierarchy = Hierarchy.flat(["a"])
        slicing = TimeSlicing.regular(0, 1, 2)
        states = StateRegistry(["x"])
        with pytest.raises(MicroscopicModelError):
            MicroscopicModel(np.full((1, 2, 1), -0.1), hierarchy, slicing, states)

    def test_rejects_duration_exceeding_slice(self):
        hierarchy = Hierarchy.flat(["a"])
        slicing = TimeSlicing.regular(0, 1, 2)  # slices of 0.5
        states = StateRegistry(["x"])
        with pytest.raises(MicroscopicModelError):
            MicroscopicModel(np.full((1, 2, 1), 0.7), hierarchy, slicing, states)

    def test_rejects_wrong_ndim(self):
        hierarchy = Hierarchy.flat(["a"])
        slicing = TimeSlicing.regular(0, 1, 2)
        states = StateRegistry(["x"])
        with pytest.raises(MicroscopicModelError):
            MicroscopicModel(np.zeros((1, 2)), hierarchy, slicing, states)


class TestAccessors:
    def test_node_durations_sum_leaves(self, figure3_model):
        hierarchy = figure3_model.hierarchy
        cluster = hierarchy.node_by_full_name("SA")
        direct = figure3_model.durations[cluster.leaf_start : cluster.leaf_end].sum(axis=0)
        assert np.allclose(figure3_model.node_durations(cluster), direct)

    def test_resource_durations(self, figure3_model):
        row = figure3_model.resource_durations("s1")
        assert row.shape == (20, 2)

    def test_state_totals(self, figure3_model):
        totals = figure3_model.state_totals()
        assert set(totals) == {"A", "B"}
        assert totals["A"] > 0

    def test_active_proportion(self, figure3_model):
        active = figure3_model.active_proportion()
        assert np.allclose(active, 1.0)

    def test_from_proportions(self):
        hierarchy = Hierarchy.flat(["a", "b"])
        states = StateRegistry(["x", "y"])
        rho = np.full((2, 3, 2), 0.25)
        model = MicroscopicModel.from_proportions(rho, hierarchy, states, slice_duration=2.0)
        assert model.slicing.span == pytest.approx(6.0)
        assert np.allclose(model.proportions, 0.25)


class TestExtend:
    """Unit tests for the streaming extend/window paths; the bit-identity
    differential properties live in tests/properties/test_property_stream.py."""

    def _base(self):
        trace = simple_trace()
        model = MicroscopicModel.from_trace(trace, n_slices=4)
        return trace, model

    def test_empty_batch_returns_self(self):
        _, model = self._base()
        empty = np.empty(0)
        assert model.extend(empty, empty, empty.astype(int), empty.astype(int)) is model

    def test_extend_grows_whole_slices_with_fixed_width(self):
        _, model = self._base()
        extended = model.extend(
            np.array([4.0]), np.array([6.5]), np.array([0]), np.array([0])
        )
        assert extended is not model
        assert extended.n_slices == 7  # 4 old + ceil(2.5 / 1.0) new
        assert np.array_equal(extended.slicing.edges[:5], model.slicing.edges)
        assert np.allclose(np.diff(extended.slicing.edges), 1.0)
        # Old cells untouched, new duration landed in the tail slices.
        assert np.array_equal(extended.durations[:, :4, :], model.durations)
        assert extended.durations[0, 4:, 0].sum() == pytest.approx(2.5)

    def test_extend_accepts_a_columns_object(self):
        _, model = self._base()

        class Columns:
            starts = np.array([4.0])
            ends = np.array([5.0])
            resource_ids = np.array([1])
            state_ids = np.array([0])

        extended = model.extend(Columns())
        assert extended.n_slices == 5

    def test_extend_updates_cells_in_old_slices(self):
        _, model = self._base()
        before = model.durations[1, 3, 0]
        extended = model.extend(
            np.array([3.5]), np.array([4.0]), np.array([1]), np.array([1])
        )
        assert extended.n_slices == 4  # still covered: no new slices
        assert extended.durations[1, 3, 1] == pytest.approx(0.5)
        assert extended.durations[1, 3, 0] == before

    def test_extend_validates_lengths_and_ids(self):
        _, model = self._base()
        with pytest.raises(MicroscopicModelError, match="same length"):
            model.extend(np.array([1.0]), np.array([2.0, 3.0]), np.array([0]), np.array([0]))
        with pytest.raises(MicroscopicModelError, match="out of range"):
            model.extend(np.array([4.0]), np.array([5.0]), np.array([9]), np.array([0]))
        with pytest.raises(MicroscopicModelError, match="out of range"):
            model.extend(np.array([4.0]), np.array([5.0]), np.array([0]), np.array([-1]))

    def test_window_slices_durations_and_edges(self):
        _, model = self._base()
        window = model.window(1, 3)
        assert window.n_slices == 2
        assert np.array_equal(window.slicing.edges, model.slicing.edges[1:4])
        assert np.array_equal(window.durations, model.durations[:, 1:3, :])

    def test_window_carries_cumulative_tables(self):
        _, model = self._base()
        tables = model.cumulative_tables()
        window = model.window(1, 3)
        for fast, parent in zip(window.cumulative_tables(), tables):
            assert np.array_equal(fast, parent[:, 1:3, :])

    def test_window_bounds_validated(self):
        _, model = self._base()
        for start, stop in [(-1, 2), (2, 2), (3, 2), (0, 5)]:
            with pytest.raises(MicroscopicModelError, match="window"):
                model.window(start, stop)


class TestChunkedDiscretization:
    """Discretization works in chunks of interval rows; the chunking must
    not change a bit, and the default chunk keeps the scratch in budget."""

    @staticmethod
    def _columns(n_resources=8, per_resource=150, n_states=4, seed=3):
        # Back-to-back random intervals per resource, in canonical order.
        rng = np.random.default_rng(seed)
        starts, ends, resources = [], [], []
        for r in range(n_resources):
            edges = np.cumsum(rng.random(2 * per_resource))
            starts.append(edges[0::2])
            ends.append(edges[1::2])
            resources.append(np.full(per_resource, r))
        starts, ends, resources = map(np.concatenate, (starts, ends, resources))
        order = np.lexsort((ends, starts))
        states = rng.integers(0, n_states, starts.size)
        return starts[order], ends[order], resources[order], states

    @pytest.mark.parametrize("n_slices", [5, 64])
    def test_chunking_is_bitwise_invisible(self, n_slices):
        starts, ends, resources, states = self._columns()
        hierarchy = Hierarchy.balanced(8, fanout=2)
        registry = StateRegistry(["a", "b", "c", "d"])
        k = 2 * starts.size // 3

        def build(chunk_rows):
            whole = MicroscopicModel.from_columns(
                starts, ends, resources, states, hierarchy, registry,
                n_slices=n_slices, chunk_rows=chunk_rows,
            )
            head = MicroscopicModel.from_columns(
                starts[:k], ends[:k], resources[:k], states[:k], hierarchy, registry,
                n_slices=n_slices, chunk_rows=chunk_rows,
            )
            tail = head.extend(starts[k:], ends[k:], resources[k:], states[k:], chunk_rows)
            return whole.durations.tobytes(), tail.durations.tobytes()

        one_chunk = build(starts.size)
        for chunk_rows in (1, 7, None):
            assert build(chunk_rows) == one_chunk, chunk_rows

    def test_default_chunk_scratch_stays_within_budget(self, monkeypatch):
        for n_slices in (1, 30, 128, 5000):
            rows = microscopic._chunk_rows(n_slices)
            assert rows * n_slices * 8 <= kernels.SWEEP_BATCH_BYTES
            assert (rows + 1) * n_slices * 8 > kernels.SWEEP_BATCH_BYTES
        monkeypatch.setattr(kernels, "SWEEP_BATCH_BYTES", 0)
        assert microscopic._chunk_rows(30) == 1
