"""Core of the reproduction: the spatiotemporal aggregation algorithm.

This subpackage implements the paper's primary contribution (Section III):
the trace microscopic model, the information-theoretic aggregation criteria,
the unidimensional (spatial / temporal) aggregation algorithms of previous
work, the spatiotemporal aggregation algorithm (Algorithm 1), the comparison
baselines and the trade-off parameter exploration.
"""

from .baselines import aggregate_cartesian, compare_partitions, grid_partition
from .criteria import IntervalStatistics
from .hierarchy import Hierarchy, HierarchyError, HierarchyNode
from .microscopic import MicroscopicModel, MicroscopicModelError
from .operators import MeanOperator, SumOperator, get_operator, pic, xlogx
from .parameters import (
    QualityPoint,
    find_significant_parameters,
    quality_curve,
    significant_points,
)
from .partition import Aggregate, Partition, PartitionError
from .spatial import SpatialAggregator, aggregate_spatial
from .spatiotemporal import (
    AggregationWorkerError,
    SpatiotemporalAggregator,
    aggregate_spatiotemporal,
)
from .temporal import TemporalAggregator, aggregate_temporal
from .timeslicing import TimeSlicing, TimeSlicingError

__all__ = [
    "Hierarchy",
    "HierarchyNode",
    "HierarchyError",
    "TimeSlicing",
    "TimeSlicingError",
    "MicroscopicModel",
    "MicroscopicModelError",
    "MeanOperator",
    "SumOperator",
    "get_operator",
    "pic",
    "xlogx",
    "IntervalStatistics",
    "Aggregate",
    "Partition",
    "PartitionError",
    "SpatialAggregator",
    "aggregate_spatial",
    "TemporalAggregator",
    "aggregate_temporal",
    "SpatiotemporalAggregator",
    "AggregationWorkerError",
    "aggregate_spatiotemporal",
    "grid_partition",
    "aggregate_cartesian",
    "compare_partitions",
    "QualityPoint",
    "quality_curve",
    "find_significant_parameters",
    "significant_points",
]
