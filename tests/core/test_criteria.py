"""Tests for repro.core.criteria (per-node interval gain/loss tables)."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.criteria import IntervalStatistics
from repro.core.hierarchy import Hierarchy
from repro.core.microscopic import MicroscopicModel
from repro.core.operators import MeanOperator, xlogx
from repro.core.spatiotemporal import SpatiotemporalAggregator
from repro.trace.states import StateRegistry


class TestTables:
    def test_tables_shape(self, figure3_model):
        stats = IntervalStatistics(figure3_model)
        gain, loss = stats.tables(figure3_model.hierarchy.root)
        assert gain.shape == (20, 20)
        assert loss.shape == (20, 20)

    def test_lower_triangle_is_zero(self, figure3_model):
        stats = IntervalStatistics(figure3_model)
        gain, loss = stats.tables(figure3_model.hierarchy.root)
        lower = np.tril_indices(20, k=-1)
        assert np.all(gain[lower] == 0)
        assert np.all(loss[lower] == 0)

    def test_tables_cached(self, figure3_model):
        stats = IntervalStatistics(figure3_model)
        root = figure3_model.hierarchy.root
        first = stats.tables(root)
        second = stats.tables(root)
        assert first[0] is second[0]

    def test_leaf_singleton_cells_have_zero_gain_and_loss(self, figure3_model):
        stats = IntervalStatistics(figure3_model)
        leaf = figure3_model.hierarchy.leaves[0]
        gain, loss = stats.tables(leaf)
        diagonal = np.arange(figure3_model.n_slices)
        assert np.allclose(gain[diagonal, diagonal], 0.0, atol=1e-9)
        assert np.allclose(loss[diagonal, diagonal], 0.0, atol=1e-9)

    def test_matches_direct_computation(self, random_model):
        """The vectorized tables must equal a naive per-cell evaluation."""
        stats = IntervalStatistics(random_model)
        operator = MeanOperator()
        rho = random_model.proportions
        durations = random_model.durations
        slice_durations = random_model.slice_durations
        node = random_model.hierarchy.root
        a, b = node.leaf_start, node.leaf_end
        for i in range(0, random_model.n_slices, 3):
            for j in range(i, random_model.n_slices, 2):
                cells_rho = rho[a:b, i : j + 1, :]
                sum_d = durations[a:b, i : j + 1, :].sum(axis=(0, 1))
                total_duration = slice_durations[i : j + 1].sum()
                macro = sum_d / ((b - a) * total_duration)
                expected_gain = 0.0
                expected_loss = 0.0
                for x in range(random_model.n_states):
                    expected_gain += xlogx(macro[x]) - xlogx(cells_rho[:, :, x]).sum()
                    if macro[x] > 0:
                        expected_loss += (
                            xlogx(cells_rho[:, :, x]).sum()
                            - cells_rho[:, :, x].sum() * np.log2(macro[x])
                        )
                assert stats.gain(node, i, j) == pytest.approx(expected_gain, abs=1e-9)
                assert stats.loss(node, i, j) == pytest.approx(expected_loss, abs=1e-9)

    def test_pic_consistency(self, figure3_model):
        stats = IntervalStatistics(figure3_model)
        node = figure3_model.hierarchy.node_by_full_name("SA")
        for p in (0.0, 0.3, 1.0):
            expected = p * stats.gain(node, 2, 7) - (1 - p) * stats.loss(node, 2, 7)
            assert stats.pic(node, 2, 7, p) == pytest.approx(expected)
        table = stats.pic_table(node, 0.5)
        assert table[2, 7] == pytest.approx(stats.pic(node, 2, 7, 0.5))

    def test_invalid_interval_rejected(self, figure3_model):
        stats = IntervalStatistics(figure3_model)
        root = figure3_model.hierarchy.root
        with pytest.raises(ValueError):
            stats.gain(root, 3, 2)
        with pytest.raises(ValueError):
            stats.loss(root, 0, 20)


class TestMacroProportions:
    def test_macro_matches_eq1(self, figure3_model):
        """Eq. 1 on a known homogeneous region of the Figure 3 trace."""
        stats = IntervalStatistics(figure3_model)
        sa = figure3_model.hierarchy.node_by_full_name("SA")
        # Slices 2-4: SA is homogeneous at rho_A = 0.8.
        macro = stats.macro_proportions(sa, 2, 4)
        assert macro[figure3_model.states.index("A")] == pytest.approx(0.8, abs=1e-9)
        assert macro[figure3_model.states.index("B")] == pytest.approx(0.2, abs=1e-9)

    def test_macro_of_full_trace_matches_global_average(self, figure3_model):
        stats = IntervalStatistics(figure3_model)
        root = figure3_model.hierarchy.root
        macro = stats.macro_proportions(root, 0, figure3_model.n_slices - 1)
        expected = figure3_model.proportions.mean(axis=(0, 1))
        assert np.allclose(macro, expected, atol=1e-9)

    def test_microscopic_information_positive(self, figure3_model):
        stats = IntervalStatistics(figure3_model)
        assert stats.microscopic_information() > 0


class TestConcurrentFirstUse:
    """Threads sharing one aggregator never read a half-written slab row."""

    def test_reader_gets_complete_tables_while_a_filler_is_held(self, monkeypatch):
        rng = np.random.default_rng(3)
        model = MicroscopicModel.from_proportions(
            rng.random((6, 5, 2)) / 2.0, Hierarchy.balanced(6, fanout=2), StateRegistry(["a", "b"])
        )
        reference = SpatiotemporalAggregator(model).compute_tables_reference(0.5)
        shared = SpatiotemporalAggregator(model)

        # The filler thread stops inside its first row fill: the row's values
        # are computed but not yet in the slab.  A row published before it is
        # written would hand the reader the slab's uninitialized memory.
        held, release = threading.Event(), threading.Event()
        compute = IntervalStatistics._node_tables

        def hooked(self, node):
            tables = compute(self, node)
            if threading.current_thread().name == "filler" and not held.is_set():
                held.set()
                release.wait(timeout=30)
            return tables

        monkeypatch.setattr(IntervalStatistics, "_node_tables", hooked)
        results = {}

        def run(name):
            results[name] = shared.compute_tables(0.5)

        filler = threading.Thread(target=run, args=("filler",), name="filler")
        filler.start()
        try:
            assert held.wait(timeout=30)
            run("reader")
        finally:
            release.set()
            filler.join(timeout=30)
        assert not filler.is_alive()
        for name in ("reader", "filler"):
            tables = results[name]
            assert tables.keys() == reference.keys()
            for key in reference:
                assert np.array_equal(tables[key].pic, reference[key].pic), (name, key)
                assert np.array_equal(tables[key].cut, reference[key].cut), (name, key)
                assert np.array_equal(tables[key].count, reference[key].count), (name, key)
