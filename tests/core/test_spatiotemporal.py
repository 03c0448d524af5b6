"""Tests for the spatiotemporal aggregation algorithm (Algorithm 1)."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.criteria import IntervalStatistics
from repro.core.exhaustive import brute_force_optimum
from repro.core.hierarchy import Hierarchy
from repro.core.microscopic import MicroscopicModel
from repro.core.partition import Partition
from repro.core.spatiotemporal import (
    SpatiotemporalAggregator,
    _empty_tables,
    aggregate_spatiotemporal,
)
from repro.trace.states import StateRegistry
from repro.trace.synthetic import random_trace


class TestBasicBehaviour:
    def test_partition_is_valid_cover(self, figure3_model):
        aggregator = SpatiotemporalAggregator(figure3_model)
        for p in (0.0, 0.3, 0.8, 1.0):
            partition = aggregator.run(p)
            # Re-validate explicitly (run() skips validation for speed).
            Partition(partition.aggregates, figure3_model)

    def test_tables_refuse_models_whose_counts_overflow_int32(self):
        # The int32 cut/count tables hold at most |S| * |T| aggregates.
        model = SimpleNamespace(
            n_resources=2**16, n_slices=2**15, hierarchy=Hierarchy.flat(["a", "b"])
        )
        with pytest.raises(ValueError, match="int32"):
            _empty_tables(model)
        model.n_slices -= 1
        assert len(_empty_tables(model)) == 3

    def test_p_one_yields_full_aggregation(self, figure3_model):
        partition = aggregate_spatiotemporal(figure3_model, 1.0)
        assert partition.size == 1
        assert partition.aggregates[0].node is figure3_model.hierarchy.root

    def test_p_zero_has_zero_loss(self, figure3_model):
        partition = aggregate_spatiotemporal(figure3_model, 0.0)
        assert partition.loss() == pytest.approx(0.0, abs=1e-6)

    def test_size_decreases_with_p(self, figure3_model):
        aggregator = SpatiotemporalAggregator(figure3_model)
        sizes = [aggregator.run(p).size for p in (0.1, 0.4, 0.7, 1.0)]
        assert sizes[0] >= sizes[-1]
        assert sizes == sorted(sizes, reverse=True)

    def test_loss_increases_with_p(self, figure3_model):
        aggregator = SpatiotemporalAggregator(figure3_model)
        losses = [aggregator.run(p).loss() for p in (0.1, 0.5, 0.9)]
        assert losses == sorted(losses)

    def test_invalid_p_rejected(self, figure3_model):
        aggregator = SpatiotemporalAggregator(figure3_model)
        with pytest.raises(ValueError):
            aggregator.run(1.5)
        with pytest.raises(ValueError):
            aggregator.run(-0.1)

    def test_run_many_shares_tables(self, figure3_model):
        aggregator = SpatiotemporalAggregator(figure3_model)
        results = aggregator.run_many([0.2, 0.6])
        assert set(results) == {0.2, 0.6}
        assert results[0.2].size >= results[0.6].size

    def test_partition_records_p_and_stats(self, figure3_model):
        stats = IntervalStatistics(figure3_model)
        aggregator = SpatiotemporalAggregator(figure3_model, stats=stats)
        partition = aggregator.run(0.42)
        assert partition.p == 0.42
        assert partition.stats is stats

    def test_optimal_pic_matches_partition_pic(self, figure3_model):
        aggregator = SpatiotemporalAggregator(figure3_model)
        for p in (0.2, 0.5, 0.8):
            partition = aggregator.run(p)
            assert aggregator.optimal_pic(p) == pytest.approx(partition.pic(p), abs=1e-6)


class TestKnownStructures:
    def test_homogeneous_block_structure_is_recovered(self, blocky_model):
        """The two-group, two-halves block model must be recovered exactly.

        Group g0 switches proportion at mid-time, group g1 is constant; an
        intermediate p must produce the 3-aggregate partition
        {g0 x [0,2], g0 x [3,5], g1 x [0,5]}.
        """
        partition = aggregate_spatiotemporal(blocky_model, 0.5)
        assert partition.size == 3
        names = sorted((a.node.name, a.i, a.j) for a in partition)
        assert names == [("g0", 0, 2), ("g0", 3, 5), ("g1", 0, 5)]
        assert partition.loss() == pytest.approx(0.0, abs=1e-9)

    def test_homogeneous_model_is_fully_aggregated_even_at_low_p(self):
        hierarchy = Hierarchy.balanced(4, fanout=2)
        states = StateRegistry(["x", "y"])
        rho = np.full((4, 6, 2), 0.5)
        model = MicroscopicModel.from_proportions(rho, hierarchy, states)
        partition = aggregate_spatiotemporal(model, 0.05)
        assert partition.size == 1

    def test_figure3_nested_structure(self, figure3_model):
        """Structure checks corresponding to the paper's Figure 3.d description."""
        partition = aggregate_spatiotemporal(figure3_model, 0.25)
        labels = partition.label_matrix()
        # Slice 7 is fully homogeneous: a single aggregate must cover all
        # resources there (possibly extended in time).
        assert len(np.unique(labels[:, 7])) == 1
        # Slices 5-6 are homogeneous at the cluster level: no aggregate may
        # span two different clusters there, and each cluster must not be
        # split spatially.
        for column in (5, 6):
            for cluster in ("SA", "SB", "SC"):
                node = figure3_model.hierarchy.node_by_full_name(cluster)
                values = np.unique(labels[node.leaf_start : node.leaf_end, column])
                assert len(values) == 1
        # SB is homogeneous in space and time over slices 8-19: one aggregate.
        sb = figure3_model.hierarchy.node_by_full_name("SB")
        assert len(np.unique(labels[sb.leaf_start : sb.leaf_end, 8:20])) == 1

    def test_coarser_than_microscopic_and_finer_than_full(self, figure3_model):
        partition = aggregate_spatiotemporal(figure3_model, 0.4)
        assert 1 < partition.size < figure3_model.n_cells


class TestOptimality:
    @pytest.mark.parametrize("p", [0.0, 0.2, 0.5, 0.8, 1.0])
    def test_matches_brute_force_on_tiny_instance(self, tiny_model, p):
        aggregator = SpatiotemporalAggregator(tiny_model, epsilon=0.0)
        best_value, _ = brute_force_optimum(tiny_model, p)
        assert aggregator.optimal_pic(p) == pytest.approx(best_value, abs=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_brute_force_on_random_instances(self, seed):
        trace = random_trace(n_resources=4, n_slices=4, n_states=2, seed=seed)
        model = MicroscopicModel.from_trace(trace, n_slices=4)
        aggregator = SpatiotemporalAggregator(model, epsilon=0.0)
        for p in (0.3, 0.7):
            best_value, _ = brute_force_optimum(model, p)
            assert aggregator.optimal_pic(p) == pytest.approx(best_value, abs=1e-9)

    def test_sum_operator_optimality(self, tiny_model):
        aggregator = SpatiotemporalAggregator(tiny_model, operator="sum", epsilon=0.0)
        for p in (0.25, 0.75):
            best_value, _ = brute_force_optimum(tiny_model, p, operator="sum")
            assert aggregator.optimal_pic(p) == pytest.approx(best_value, abs=1e-9)

    def test_beats_or_matches_any_level_partition(self, figure3_model):
        """The optimum must dominate every uniform grid partition."""
        from repro.core.baselines import grid_partition

        stats = IntervalStatistics(figure3_model)
        aggregator = SpatiotemporalAggregator(figure3_model, stats=stats)
        p = 0.5
        optimal = aggregator.optimal_pic(p)
        for depth in (0, 1, 2):
            for n_intervals in (1, 2, 5, 10, 20):
                grid = grid_partition(figure3_model, depth, n_intervals)
                value = sum(
                    p * stats.gain(a.node, a.i, a.j) - (1 - p) * stats.loss(a.node, a.i, a.j)
                    for a in grid
                )
                assert optimal >= value - 1e-9


class TestTieBreaking:
    def test_prefers_coarse_partition_on_ties(self):
        """A perfectly homogeneous region must never be fragmented."""
        hierarchy = Hierarchy.balanced(8, fanout=2)
        states = StateRegistry(["x", "y"])
        rho1 = np.full((8, 12), 0.5)
        rho1[:, 8:] = 0.9  # one genuine temporal change
        rho = np.stack([rho1, 1.0 - rho1], axis=2)
        model = MicroscopicModel.from_proportions(rho, hierarchy, states)
        partition = aggregate_spatiotemporal(model, 0.5)
        assert partition.size == 2
        cuts = partition.temporal_cut_points()
        assert cuts == {8}
