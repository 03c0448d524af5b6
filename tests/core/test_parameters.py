"""Tests for repro.core.parameters (quality curves and significant p values)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.parameters import (
    find_significant_parameters,
    quality_curve,
    significant_points,
)
from repro.core.spatiotemporal import SpatiotemporalAggregator


class TestQualityCurve:
    def test_curve_from_model(self, figure3_model):
        points = quality_curve(figure3_model, ps=[0.0, 0.5, 1.0])
        assert [point.p for point in points] == [0.0, 0.5, 1.0]
        assert points[0].size >= points[-1].size
        assert points[-1].size == 1

    def test_curve_from_aggregator(self, figure3_model):
        aggregator = SpatiotemporalAggregator(figure3_model)
        points = quality_curve(aggregator, ps=np.linspace(0, 1, 5))
        assert len(points) == 5

    def test_default_ps(self, random_model):
        points = quality_curve(random_model)
        assert len(points) == 21

    def test_loss_monotone_along_curve(self, figure3_model):
        points = quality_curve(figure3_model, ps=np.linspace(0, 1, 9))
        losses = [point.loss for point in points]
        assert all(b >= a - 1e-9 for a, b in zip(losses, losses[1:]))

    def test_pic_property(self, figure3_model):
        points = quality_curve(figure3_model, ps=[0.3])
        point = points[0]
        assert point.pic == pytest.approx(0.3 * point.gain - 0.7 * point.loss)


class TestSignificantParameters:
    def test_endpoints_always_present(self, figure3_model):
        values = find_significant_parameters(figure3_model, max_depth=4)
        assert values[0] == 0.0
        assert 0.0 <= values[-1] <= 1.0

    def test_values_sorted_and_unique(self, figure3_model):
        values = find_significant_parameters(figure3_model, max_depth=5)
        assert values == sorted(values)
        assert len(values) == len(set(values))

    def test_successive_values_give_distinct_partitions(self, figure3_model):
        aggregator = SpatiotemporalAggregator(figure3_model)
        values = find_significant_parameters(aggregator, max_depth=5)
        signatures = []
        for p in values:
            partition = aggregator.run(p)
            signatures.append((round(partition.gain(), 6), round(partition.loss(), 6)))
        assert len(set(signatures)) == len(signatures)

    def test_homogeneous_model_has_single_representation(self):
        import numpy as np

        from repro.core.hierarchy import Hierarchy
        from repro.core.microscopic import MicroscopicModel
        from repro.trace.states import StateRegistry

        rho = np.full((4, 5, 2), 0.5)
        model = MicroscopicModel.from_proportions(
            rho, Hierarchy.balanced(4), StateRegistry(["x", "y"])
        )
        values = find_significant_parameters(model, max_depth=4)
        assert values == [0.0]


class TestSignificantPoints:
    def test_points_equal_the_curve_at_the_significant_values(self, random_model):
        aggregator = SpatiotemporalAggregator(random_model)
        points = significant_points(aggregator, max_depth=6)
        values = find_significant_parameters(aggregator, max_depth=6)
        assert [point.p for point in points] == values
        assert points == quality_curve(aggregator, ps=values)
