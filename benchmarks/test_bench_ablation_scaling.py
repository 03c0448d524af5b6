"""Ablation A3 — algorithmic complexity scaling.

Section III.E derives an ``O(|S| |T|^3)`` time and ``O(|S| |T|^2)`` space
complexity for the spatiotemporal algorithm.  This ablation measures the
wall-clock cost of the optimization while growing |S| (at fixed |T|) and |T|
(at fixed |S|) on random synthetic models, and checks the growth trends.
"""

from __future__ import annotations

import time

import pytest
from bench_utils import write_result

from repro.core.microscopic import MicroscopicModel
from repro.core.spatiotemporal import SpatiotemporalAggregator
from repro.trace.synthetic import random_trace

RESOURCE_SWEEP = [8, 16, 32, 64]
SLICE_SWEEP = [10, 20, 40]


def _model(n_resources: int, n_slices: int) -> MicroscopicModel:
    trace = random_trace(n_resources=n_resources, n_slices=n_slices, n_states=3, seed=11, fanout=4)
    return MicroscopicModel.from_trace(trace, n_slices=n_slices)


def _measure(n_resources: int, n_slices: int) -> float:
    aggregator = SpatiotemporalAggregator(_model(n_resources, n_slices))
    start = time.perf_counter()
    aggregator.run(0.5)
    return time.perf_counter() - start


def test_scaling_in_resources(benchmark, timings_dir):
    """Cost grows roughly linearly with |S| at fixed |T| (per the O(|S||T|^3) bound)."""
    benchmark.pedantic(_measure, args=(RESOURCE_SWEEP[-1], 20), rounds=1, iterations=1)
    timings = {r: _measure(r, 20) for r in RESOURCE_SWEEP}
    lines = [f"|S|={r:4d}, |T|=20: {t * 1e3:8.2f} ms" for r, t in timings.items()]
    write_result(timings_dir, "ablation_scaling_resources.txt", "\n".join(lines))
    # Growing |S| by 8x must not grow the runtime more than ~32x (linear bound
    # with generous constant-factor headroom for Python overheads).
    assert timings[RESOURCE_SWEEP[-1]] < 32 * max(timings[RESOURCE_SWEEP[0]], 1e-4)
    # And the cost must actually grow.
    assert timings[RESOURCE_SWEEP[-1]] > timings[RESOURCE_SWEEP[0]]


def test_scaling_in_slices(benchmark, timings_dir):
    """Cost grows superlinearly with |T| at fixed |S| but stays within O(|T|^3)."""
    benchmark.pedantic(_measure, args=(16, SLICE_SWEEP[-1]), rounds=1, iterations=1)
    timings = {t: _measure(16, t) for t in SLICE_SWEEP}
    lines = [f"|S|=16, |T|={t:4d}: {value * 1e3:8.2f} ms" for t, value in timings.items()]
    write_result(timings_dir, "ablation_scaling_slices.txt", "\n".join(lines))
    assert timings[SLICE_SWEEP[-1]] > timings[SLICE_SWEEP[0]]
    # Growing |T| by 4x must not exceed the cubic bound by more than 2x slack.
    assert timings[SLICE_SWEEP[-1]] < 2 * (4 ** 3) * max(timings[SLICE_SWEEP[0]], 1e-4)


@pytest.mark.parametrize("n_resources", RESOURCE_SWEEP)
def test_aggregation_cost_by_resources(benchmark, n_resources):
    """pytest-benchmark series: cost of one optimization vs |S| (|T| = 20)."""
    aggregator = SpatiotemporalAggregator(_model(n_resources, 20))
    benchmark.pedantic(aggregator.run, args=(0.5,), rounds=2, iterations=1)


@pytest.mark.parametrize("n_slices", SLICE_SWEEP)
def test_aggregation_cost_by_slices(benchmark, n_slices):
    """pytest-benchmark series: cost of one optimization vs |T| (|S| = 16)."""
    aggregator = SpatiotemporalAggregator(_model(16, n_slices))
    benchmark.pedantic(aggregator.run, args=(0.5,), rounds=2, iterations=1)
