"""Tests for repro.core.criteria (per-node interval gain/loss tables)."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core.criteria import IntervalStatistics
from repro.core.hierarchy import Hierarchy
from repro.core.kernels import available_kernels
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


class TestExtremaTables:
    @pytest.mark.parametrize("operator", ["max", "min"])
    def test_tables_equal_those_built_from_the_proportions_cube(
        self, random_model, monkeypatch, operator
    ):
        # Each node's per-slice extrema divide only the node's rows of the
        # durations cube; they must give the bytes of slicing the whole
        # ``model.proportions`` cube, table by table.
        fast = IntervalStatistics(random_model, operator)
        fast_tables = {n.index: fast.tables(n) for n in random_model.hierarchy.iter_nodes()}

        def from_cube(self, node):
            props = self._model.proportions[node.leaf_start : node.leaf_end]
            return props.max(axis=0), props.min(axis=0)

        monkeypatch.setattr(IntervalStatistics, "_node_extrema", from_cube)
        cube = IntervalStatistics(random_model, operator)
        for node in random_model.hierarchy.iter_nodes():
            for got, expected in zip(fast_tables[node.index], cube.tables(node)):
                assert got.tobytes() == expected.tobytes(), node.name


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


@pytest.mark.parametrize("kernel", available_kernels())
class TestConcurrentFirstUse:
    """Threads sharing one statistics engine never read a half-written slab row.

    On every table fill: the held filler hooks ``_chunk_tables``, which runs
    the numpy fill or the compiled ``mean`` fill.
    """

    @staticmethod
    def _model():
        rng = np.random.default_rng(3)
        return MicroscopicModel.from_proportions(
            rng.random((6, 5, 2)) / 2.0, Hierarchy.balanced(6, fanout=2), StateRegistry(["a", "b"])
        )

    @staticmethod
    def _beside_held_filler(monkeypatch, fill, read):
        """Run ``read()`` while a "filler" thread running ``fill()`` is held.

        The filler stops inside its first chunk fill, with the chunk's values
        computed but not yet in the slab: a row published before it is
        written would hand the reader the slab's uninitialized memory.
        Returns both results.
        """
        held, release = threading.Event(), threading.Event()
        compute = IntervalStatistics._chunk_tables

        def hooked(self, nodes, lo, hi):
            tables = compute(self, nodes, lo, hi)
            if threading.current_thread().name == "filler" and not held.is_set():
                held.set()
                release.wait(timeout=30)
            return tables

        monkeypatch.setattr(IntervalStatistics, "_chunk_tables", hooked)
        results = {}

        def run():
            results["filler"] = fill()

        filler = threading.Thread(target=run, name="filler")
        filler.start()
        try:
            assert held.wait(timeout=30)
            results["reader"] = read()
        finally:
            release.set()
            filler.join(timeout=30)
        assert not filler.is_alive()
        return results

    def test_reader_gets_complete_tables_while_a_filler_is_held(self, monkeypatch, kernel):
        model = self._model()
        reference = SpatiotemporalAggregator(model, kernel="numpy").compute_tables_reference(0.5)
        shared = SpatiotemporalAggregator(model, kernel=kernel)
        results = self._beside_held_filler(
            monkeypatch, lambda: shared.compute_tables(0.5), lambda: shared.compute_tables(0.5)
        )
        for name in ("reader", "filler"):
            tables = results[name]
            assert tables.keys() == reference.keys()
            for key in reference:
                assert np.array_equal(tables[key].pic, reference[key].pic), (name, key)
                assert np.array_equal(tables[key].cut, reference[key].cut), (name, key)
                assert np.array_equal(tables[key].count, reference[key].count), (name, key)

    def test_threads_touching_different_nodes_of_one_height(self, monkeypatch, kernel):
        # Both first touches fill the same height: the reader's node is in
        # the chunk the filler is held in.
        model = self._model()
        first, last = model.hierarchy.leaves[0], model.hierarchy.leaves[-1]
        reference = IntervalStatistics(model, kernel="numpy")
        shared = IntervalStatistics(model, kernel=kernel)

        def copied_tables(node):
            return lambda: tuple(np.array(table) for table in shared.tables(node))

        results = self._beside_held_filler(monkeypatch, copied_tables(first), copied_tables(last))
        for name, node in (("filler", first), ("reader", last)):
            for got, want in zip(results[name], reference.tables(node)):
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), name

    def test_many_threads_first_touch_under_fast_switching(self, kernel):
        # More threads than cores, each first touching one node of a fresh
        # shared engine, with the interpreter switching threads as often as
        # it can: every copy taken must equal an unshared engine's tables.
        rng = np.random.default_rng(5)
        model = MicroscopicModel.from_proportions(
            rng.random((16, 12, 3)) / 3.0, Hierarchy.balanced(16, fanout=2), StateRegistry(list("abc"))
        )
        nodes = list(model.hierarchy.iter_nodes())
        reference = IntervalStatistics(model, kernel="numpy")
        expected = {node.index: reference.tables(node) for node in nodes}
        n_threads = 8
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(5):
                shared = IntervalStatistics(model, kernel=kernel)
                barrier = threading.Barrier(n_threads, timeout=30)
                results, errors = {}, []

                def run(k, shared=shared, barrier=barrier, results=results, errors=errors):
                    try:
                        barrier.wait()
                        node = nodes[(7 * k + round_) % len(nodes)]
                        results[k] = (node.index, [np.array(t) for t in shared.tables(node)])
                    except Exception as exc:  # reported below with the others
                        errors.append(exc)

                threads = [threading.Thread(target=run, args=(k,)) for k in range(n_threads)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert not errors, errors
                assert len(results) == n_threads
                for index, tables in results.values():
                    for got, want in zip(tables, expected[index]):
                        assert np.array_equal(got.view(np.int64), want.view(np.int64)), index
        finally:
            sys.setswitchinterval(interval)
