"""Memory bound of the slab passes of Algorithm 1 and of its gain/loss tables.

Stacking every node of one hierarchy height into one slab must not let the
temporaries grow with the number of nodes: the base tables
``p * gain - (1 - p) * loss``, the children's merge and spatial-cut test,
and the ``numpy`` tier's per-length sweep all split the node axis into
chunks within :data:`repro.core.kernels.SWEEP_BATCH_BYTES`.  Beyond the
tables it returns, ``compute_tables`` may therefore allocate at most that
budget more than the same passes run one node at a time (a budget of 0
bytes: one-node chunks).  Fanout 8 makes the sweep the largest slab
temporary; fanout 2, with 128 parents at height 1, the merge.

The gain/loss tables ``build_tables`` fills obey the same bound beyond their
slabs: the interval sums and operator temporaries of a height are built one
chunk of nodes at a time, and a node too big for the budget one block of
start rows at a time (a budget of 0 bytes: one start row of one node).  The
bound holds on both table fills: on the ``c`` tier the compiled ``mean``
fill's time prefixes, packed macro proportions and their ``log2`` are numpy
arrays, so tracemalloc counts them.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core import kernels
from repro.core.hierarchy import Hierarchy
from repro.core.kernels import available_kernels
from repro.core.microscopic import MicroscopicModel
from repro.core.spatiotemporal import SpatiotemporalAggregator
from repro.trace.states import StateRegistry


def _peak_beyond_tables(aggregator: SpatiotemporalAggregator, p: float) -> int:
    """tracemalloc peak of ``compute_tables`` minus the bytes of its tables."""
    tracemalloc.start()
    try:
        tables = aggregator.compute_tables(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table_bytes = sum(t.pic.nbytes + t.cut.nbytes + t.count.nbytes for t in tables.values())
    return peak - table_bytes


@pytest.mark.parametrize("n_leaves, fanout", [(512, 8), (256, 2)])
def test_batched_peak_within_per_node_peak_plus_budget(monkeypatch, n_leaves, fanout):
    rng = np.random.default_rng(7)
    rho = rng.random((n_leaves, 64, 2)) / 2.0
    model = MicroscopicModel.from_proportions(
        rho, Hierarchy.balanced(n_leaves, fanout=fanout), StateRegistry(["a", "b"])
    )
    aggregator = SpatiotemporalAggregator(model, kernel="numpy")
    # Warm the gain/loss tables so both measurements see only the DP.
    aggregator.compute_tables(0.5)

    budget = kernels.SWEEP_BATCH_BYTES
    batched = _peak_beyond_tables(aggregator, 0.5)
    monkeypatch.setattr(kernels, "SWEEP_BATCH_BYTES", 0)
    per_node = _peak_beyond_tables(aggregator, 0.5)
    assert batched <= per_node + budget, (batched, per_node, budget)
    # One-node chunks hold a few one-node tables at a time, never a slab:
    # this fails if a pass ignores the budget, which the first bound cannot
    # see (both runs would then allocate the whole slab).
    node_bytes = 64 * 64 * (8 + 4 + 4)
    assert per_node <= 16 * node_bytes, (per_node, node_bytes)


def _build_peak_beyond_slabs(model: MicroscopicModel, kernel: str) -> int:
    """tracemalloc peak of ``build_tables`` minus the bytes of the gain/loss slabs."""
    aggregator = SpatiotemporalAggregator(model, kernel=kernel)
    tracemalloc.start()
    try:
        aggregator.build_tables()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    levels = enumerate(model.hierarchy.height_plan.levels)
    slabs = [aggregator.stats.height_tables(height, level.nodes) for height, level in levels]
    return peak - sum(gain.nbytes + loss.nbytes for gain, loss in slabs)


@pytest.mark.parametrize("kernel", available_kernels())
@pytest.mark.parametrize("n_leaves, n_slices", [(64, 32), (4, 160)])
def test_table_build_peak_within_per_node_peak_plus_budget(
    monkeypatch, n_leaves, n_slices, kernel
):
    # 64 x 32: a height is several chunks of whole nodes; 4 x 160: one
    # node's tables exceed the budget, so the default budget splits rows.
    rng = np.random.default_rng(11)
    rho = rng.random((n_leaves, n_slices, 2)) / 2.0
    model = MicroscopicModel.from_proportions(
        rho, Hierarchy.balanced(n_leaves, fanout=4), StateRegistry(["a", "b"])
    )
    model.cumulative_tables()  # shared by every engine over the model

    budget = kernels.SWEEP_BATCH_BYTES
    batched = _build_peak_beyond_slabs(model, kernel)
    monkeypatch.setattr(kernels, "SWEEP_BATCH_BYTES", 0)
    per_node = _build_peak_beyond_slabs(model, kernel)
    assert batched <= per_node + budget, (batched, per_node, budget)
    # One start row of one node at a time holds far less than the four
    # one-node tables' worth below, plus up to 256 KiB the interpreter keeps
    # (freelists, the published row views); a whole node's interval sums
    # and operator temporaries take about fifteen.  This fails if a fill
    # ignores the budget, which the first bound cannot see (both runs would
    # then hold as much).
    node_bytes = n_slices * n_slices * 8
    assert per_node <= 4 * node_bytes + 2**18, (per_node, node_bytes)
