"""Memory bound of the height-batched Algorithm 1 sweep.

Stacking every node of one hierarchy height into one slab must not let the
sweep's per-length temporaries grow with the number of nodes: the ``numpy``
tier splits the node axis into chunks within
:data:`repro.core.kernels.SWEEP_BATCH_BYTES`.  Beyond the tables it returns,
``compute_tables`` may therefore allocate at most that budget more than the
same sweep run one node at a time (a budget of 0 bytes: one-node chunks).
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.core import kernels
from repro.core.hierarchy import Hierarchy
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


def test_batched_peak_within_per_node_peak_plus_budget(monkeypatch):
    rng = np.random.default_rng(7)
    rho = rng.random((512, 64, 2)) / 2.0
    model = MicroscopicModel.from_proportions(
        rho, Hierarchy.balanced(512, fanout=8), StateRegistry(["a", "b"])
    )
    aggregator = SpatiotemporalAggregator(model, kernel="numpy")
    # Warm the gain/loss tables so both measurements see only the DP.
    aggregator.compute_tables(0.5)

    budget = kernels.SWEEP_BATCH_BYTES
    batched = _peak_beyond_tables(aggregator, 0.5)
    monkeypatch.setattr(kernels, "SWEEP_BATCH_BYTES", 0)
    per_node = _peak_beyond_tables(aggregator, 0.5)
    assert batched <= per_node + budget, (batched, per_node, budget)
