"""The spatiotemporal aggregation algorithm (Section III.E, Algorithm 1).

Given the microscopic model, the algorithm computes the hierarchy-and-order
consistent partition of ``S x T`` that maximizes the parametrized information
criterion ``pIC = p * gain - (1 - p) * loss``.

The data structure is the paper's *tree of upper-triangular matrices*: every
hierarchy node stores, for every time interval ``T_(i,j)``, the pIC of an
optimal partition of the area ``(S_k, T_(i,j))`` together with a *cut* value:

* ``cut[i, j] == j`` — no cut, the area is kept as a single aggregate;
* ``cut[i, j] == -1`` — spatial cut, the area is split between the node's
  children;
* ``cut[i, j] == c`` with ``i <= c < j`` — temporal cut after slice ``c``.

The recursion over children nested in the iteration over cells reproduces
Algorithm 1, reorganized in two ways that keep the arithmetic of every cell
exactly the per-cell recurrence — same additions, same maxima, same
tie-breaking — so the result is bit-for-bit identical to the reference
per-cell implementation (kept as :meth:`compute_tables_reference` and checked
by the property tests):

* **One sweep per height, not per node.**  A node only reads its children's
  final tables, so all nodes of one *height* (leaves are height 0, a parent
  is one above its tallest child) are independent.  Their base tables (the
  better of "no cut" and "spatial cut", built node by node) are stacked into
  ``(N, T, T)`` slabs and the temporal-cut recurrence runs once over the
  whole slab: a balanced hierarchy costs ``depth + 1`` sweeps instead of
  ``|S|``.
* **Anti-diagonal sweeps.**  Instead of visiting the ``O(|T|^2)`` cells one
  by one, a sweep handles all intervals of the same length at once: strided
  views expose, for every node and every start ``i`` simultaneously, the
  candidate values ``best[n, i, i+k] + best[n, i+k+1, j]`` of every cut
  position ``k``, so one interval length costs a constant number of
  vectorized operations for the whole height.

The ``(nodes, starts, cuts)`` temporaries of one length are bounded by
:data:`repro.core.kernels.SWEEP_BATCH_BYTES` (the node axis is split into
chunks that fit), so batching adds at most that budget to the memory of the
tables themselves.  The sweep itself is pluggable (:mod:`repro.core.kernels`):
the ``numpy`` tier, a cache-``blocked`` transpose-buffered tier and an
optional compiled ``numba`` tier all evaluate the same recurrence and return
bit-identical tables — selected via ``REPRO_KERNEL`` / ``--kernel``.

Independent hierarchy subtrees only interact at their common ancestors, so
the per-subtree table computations are embarrassingly parallel; passing
``jobs > 1`` distributes them over a process pool (each worker runs the same
height-batched routine on its subtree) and merges the per-subtree results in
the parent, whose remaining ancestors are batched by height the same way
(exposed as ``repro analyze --jobs``).

The optimal partition is recovered by replaying the cuts from the root and
the whole time span.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .criteria import IntervalStatistics
from .hierarchy import HierarchyNode
from .kernels import resolve_kernel, temporal_cuts
from .microscopic import MicroscopicModel
from .operators import AggregationOperator
from .partition import Aggregate, Partition

__all__ = [
    "SpatiotemporalAggregator",
    "AggregationWorkerError",
    "aggregate_spatiotemporal",
    "NodeTables",
]


class AggregationWorkerError(RuntimeError):
    """A parallel aggregation worker died before returning its subtree.

    Raised instead of the pool's bare :class:`BrokenProcessPool` so callers
    (the CLI, the batch runner) can report *which computation* failed and
    exit cleanly rather than dumping a ``multiprocessing`` traceback.  The
    original pool failure is kept as ``__cause__``.
    """

#: Sentinel cut value meaning "spatial cut" (split between children).
SPATIAL_CUT = -1

_INT64_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True)
class NodeTables:
    """The per-node output of the dynamic program.

    Attributes
    ----------
    pic:
        ``(T, T)`` table; ``pic[i, j]`` is the pIC of an optimal partition of
        the area ``(S_k, T_(i,j))`` (upper triangle only).
    cut:
        ``(T, T)`` integer table with the optimal cut of each area (see the
        module docstring for the encoding).
    count:
        ``(T, T)`` integer table with the number of aggregates of the chosen
        optimal partition of each area.  Used as a secondary criterion: among
        partitions whose pIC ties (within epsilon), the coarsest one is kept,
        so homogeneous regions are never fragmented arbitrarily.
    """

    pic: np.ndarray
    cut: np.ndarray
    count: np.ndarray


def _no_cut(n_slices: int) -> np.ndarray:
    """The "no cut" default cut table: ``j`` on the upper triangle, 0 below."""
    return np.triu(np.arange(n_slices, dtype=np.int64))


def _find_node(root: HierarchyNode, index: int) -> HierarchyNode:
    for node in root.iter_subtree("post"):
        if node.index == index:
            return node
    raise ValueError(f"no hierarchy node with index {index}")


#: Per-worker aggregator, installed once by the pool initializer so that the
#: model (and its cumulative prefix tables) is serialized once per worker
#: process rather than once per submitted subtree.
_WORKER_AGGREGATOR: "SpatiotemporalAggregator | None" = None


def _init_worker(
    model: MicroscopicModel,
    operator: "AggregationOperator | str | None",
    epsilon: float,
    kernel: "str | None" = None,
) -> None:
    global _WORKER_AGGREGATOR
    _WORKER_AGGREGATOR = SpatiotemporalAggregator(
        model, operator=operator, epsilon=epsilon, kernel=kernel
    )


def _subtree_worker(p: float, node_index: int) -> dict[int, NodeTables]:
    """Process-pool entry point: full tables of one hierarchy subtree."""
    aggregator = _WORKER_AGGREGATOR
    assert aggregator is not None, "worker used before _init_worker ran"
    subtree_root = _find_node(aggregator.model.hierarchy.root, node_index)
    tables: dict[int, NodeTables] = {}
    aggregator._solve(list(subtree_root.iter_subtree("post")), p, tables)
    return tables


def _select_frontier(root: HierarchyNode, jobs: int) -> list[HierarchyNode]:
    """Independent subtrees to distribute over ``jobs`` workers.

    Starting from the root, repeatedly expands the widest frontier node until
    at least ``jobs`` subtrees are available (or only leaves remain); wider
    subtrees dominate the work, so expanding them first balances the pool.
    """
    frontier = [root]
    while len(frontier) < jobs:
        expandable = [node for node in frontier if node.children]
        if not expandable:
            break
        widest = max(expandable, key=lambda node: node.n_leaves)
        frontier.remove(widest)
        frontier.extend(widest.children)
    return frontier


class SpatiotemporalAggregator:
    """Optimal spatiotemporal aggregation of a microscopic model.

    Parameters
    ----------
    model:
        The microscopic model to aggregate.
    operator:
        Aggregation operator (paper's mean operator by default, or ``"sum"``).
    stats:
        Optional pre-computed :class:`IntervalStatistics` to share across
        aggregators.
    jobs:
        Default process-pool width for :meth:`compute_tables`; ``None``/``0``/
        ``1`` keep the computation serial.  Parallel and serial runs return
        identical tables.
    kernel:
        DP sweep tier (see :mod:`repro.core.kernels`): ``"numpy"``,
        ``"blocked"``, ``"numba"`` or ``None``/``"auto"`` for the process
        default (``REPRO_KERNEL`` / auto-detection).  Every tier returns
        bit-identical tables; the choice only affects speed.

    Notes
    -----
    The gain/loss tables only depend on the data, not on ``p``; they are
    computed once (lazily, per node) and re-used by every call to
    :meth:`run`, which is what gives the "instantaneous interaction to get
    the visualization at a given aggregation level" behaviour reported in the
    paper's conclusion.
    """

    #: Minimum improvement required to prefer a cut over "no cut".  Perfectly
    #: homogeneous areas have gain = loss = 0 for every candidate; without a
    #: tolerance, accumulated floating-point noise (~1e-13) would break those
    #: ties arbitrarily and fragment regions that should stay aggregated.
    EPSILON = 1e-9

    def __init__(
        self,
        model: MicroscopicModel,
        operator: "AggregationOperator | str | None" = None,
        stats: IntervalStatistics | None = None,
        epsilon: float | None = None,
        jobs: int | None = None,
        kernel: "str | None" = None,
    ):
        self._model = model
        self._stats = stats if stats is not None else IntervalStatistics(model, operator)
        # Resolved operator instance (picklable) — what the process-pool
        # workers re-instantiate their own statistics engine with.
        self._operator = self._stats.operator
        self._epsilon = self.EPSILON if epsilon is None else float(epsilon)
        self._jobs = jobs
        self._kernel = resolve_kernel(kernel, n_slices=model.n_slices)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def model(self) -> MicroscopicModel:
        """The microscopic model."""
        return self._model

    @property
    def stats(self) -> IntervalStatistics:
        """The shared gain/loss tables."""
        return self._stats

    @property
    def kernel(self) -> str:
        """The resolved DP sweep tier in use."""
        return self._kernel

    # ------------------------------------------------------------------ #
    # Dynamic program
    # ------------------------------------------------------------------ #
    def _fill_base_tables(
        self,
        node: HierarchyNode,
        p: float,
        tables: Mapping[int, NodeTables],
        best: np.ndarray,
        cut: np.ndarray,
        count: np.ndarray,
    ) -> None:
        """Write the no-cut tables of ``node``, spatial cut applied, in place.

        ``best``/``cut``/``count`` are ``(T, T)`` buffers; ``cut`` and
        ``count`` must already hold the no-cut defaults (:func:`_no_cut`
        and ones).
        """
        gain, loss = self._stats.tables(node)
        np.subtract(p * gain, (1.0 - p) * loss, out=best)

        if node.children:
            children_sum = np.zeros_like(best)
            children_count = np.zeros_like(count)
            for child in node.children:
                children_sum = children_sum + tables[child.index].pic
                children_count = children_count + tables[child.index].count
            spatial_better = (children_sum > best + self._epsilon) | (
                (children_sum > best - self._epsilon) & (children_count < count)
            )
            np.copyto(best, children_sum, where=spatial_better)
            np.copyto(cut, SPATIAL_CUT, where=spatial_better)
            np.copyto(count, children_count, where=spatial_better)

    def _solve(
        self, nodes: Sequence[HierarchyNode], p: float, tables: dict[int, NodeTables]
    ) -> None:
        """Add the optimal tables of ``nodes`` to ``tables``, one sweep per height.

        ``nodes`` is in post-order and every child of a node is either listed
        before it or already in ``tables``.  Heights count from the nodes
        whose children are all in ``tables`` (leaves, or the ancestors of
        finished subtrees), so every height only reads final tables.
        """
        heights: dict[int, int] = {}
        levels: list[list[HierarchyNode]] = []
        for node in nodes:
            height = 1 + max((heights.get(c.index, -1) for c in node.children), default=-1)
            heights[node.index] = height
            if height == len(levels):
                levels.append([])
            levels[height].append(node)
        n_slices = self._model.n_slices
        no_cut = _no_cut(n_slices)
        for level in levels:
            shape = (len(level), n_slices, n_slices)
            best = np.empty(shape)
            cut = np.broadcast_to(no_cut, shape).copy()
            count = np.ones(shape, dtype=np.int64)
            for slot, node in enumerate(level):
                self._fill_base_tables(node, p, tables, best[slot], cut[slot], count[slot])
            temporal_cuts(best, cut, count, self._epsilon, kernel=self._kernel)
            for slot, node in enumerate(level):
                tables[node.index] = NodeTables(pic=best[slot], cut=cut[slot], count=count[slot])

    def compute_tables(self, p: float, jobs: int | None = None) -> Mapping[int, NodeTables]:
        """Run Algorithm 1 and return the per-node pIC / cut tables.

        The mapping is keyed by ``node.index``.  ``jobs`` overrides the
        constructor default; any value above 1 computes independent hierarchy
        subtrees in a process pool before merging at their ancestors.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        jobs = self._jobs if jobs is None else jobs
        if jobs is not None and jobs > 1:
            return self._compute_tables_parallel(p, int(jobs))
        tables: dict[int, NodeTables] = {}
        self._solve(list(self._model.hierarchy.iter_nodes("post")), p, tables)
        return tables

    def _compute_tables_parallel(self, p: float, jobs: int) -> Mapping[int, NodeTables]:
        """Distribute independent subtrees over a process pool, merge ancestors."""
        root = self._model.hierarchy.root
        frontier = _select_frontier(root, jobs)
        if len(frontier) <= 1:
            return self.compute_tables(p, jobs=1)
        tables: dict[int, NodeTables] = {}
        try:
            with ProcessPoolExecutor(
                max_workers=min(jobs, len(frontier)),
                initializer=_init_worker,
                initargs=(self._model, self._operator, self._epsilon, self._kernel),
            ) as pool:
                futures = [pool.submit(_subtree_worker, p, node.index) for node in frontier]
                for future in futures:
                    tables.update(future.result())
        except BrokenProcessPool as exc:
            raise AggregationWorkerError(
                f"a parallel aggregation worker crashed (jobs={jobs}, "
                f"{len(frontier)} subtrees in flight); rerun with jobs=1 for a "
                "serial aggregation of the same partition"
            ) from exc
        # The remaining nodes are the frontier's strict ancestors; their
        # frontier children are all in ``tables`` already.
        ancestors = [
            node
            for node in self._model.hierarchy.iter_nodes("post")
            if node.index not in tables
        ]
        self._solve(ancestors, p, tables)
        return tables

    def compute_tables_reference(self, p: float) -> Mapping[int, NodeTables]:
        """Per-cell reference implementation of Algorithm 1.

        Visits every cell ``(i, j)`` of every node in an explicit Python loop,
        exactly as the paper describes.  Kept as the correctness oracle for
        the vectorized sweep (the property tests assert bit-identical tables)
        and as the "before" leg of ``benchmarks/bench_spatiotemporal.py``.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        n_slices = self._model.n_slices
        epsilon = self._epsilon
        no_cut = _no_cut(n_slices)
        tables: dict[int, NodeTables] = {}
        for node in self._model.hierarchy.iter_nodes("post"):
            best = np.empty((n_slices, n_slices))
            cut = no_cut.copy()
            count = np.ones((n_slices, n_slices), dtype=np.int64)
            self._fill_base_tables(node, p, tables, best, cut, count)
            # Temporal cuts: rows from the last slice upwards, columns left to
            # right, so that every sub-interval referenced is already optimal.
            for i in range(n_slices - 1, -1, -1):
                row = best[i]
                row_count = count[i]
                for j in range(i + 1, n_slices):
                    values = row[i:j] + best[i + 1 : j + 1, j]
                    counts = row_count[i:j] + count[i + 1 : j + 1, j]
                    top = values.max()
                    eligible = values >= top - epsilon
                    k = int(np.where(eligible, counts, _INT64_MAX).argmin())
                    value = values[k]
                    cut_count = int(counts[k])
                    if value > row[j] + epsilon or (
                        value > row[j] - epsilon and cut_count < row_count[j]
                    ):
                        row[j] = value
                        row_count[j] = cut_count
                        cut[i, j] = i + k
            tables[node.index] = NodeTables(pic=best, cut=cut, count=count)
        return tables

    def optimal_pic(self, p: float) -> float:
        """pIC of the optimal partition of the whole trace at trade-off ``p``."""
        tables = self.compute_tables(p)
        root = self._model.hierarchy.root
        return float(tables[root.index].pic[0, self._model.n_slices - 1])

    # ------------------------------------------------------------------ #
    # Partition recovery
    # ------------------------------------------------------------------ #
    def run(self, p: float, jobs: int | None = None) -> Partition:
        """Compute and return the optimal partition at trade-off ``p``."""
        tables = self.compute_tables(p, jobs=jobs)
        aggregates = self._recover(tables)
        return Partition(
            aggregates,
            self._model,
            p=p,
            stats=self._stats,
            validate=False,
        )

    def run_many(self, ps: Sequence[float]) -> dict[float, Partition]:
        """Run the aggregation for several trade-off values (tables are shared)."""
        return {p: self.run(p) for p in ps}

    def _recover(self, tables: Mapping[int, NodeTables]) -> list[Aggregate]:
        """Replay the cut sequence from the root over the whole time span."""
        n_slices = self._model.n_slices
        root = self._model.hierarchy.root
        aggregates: list[Aggregate] = []
        stack: list[tuple[HierarchyNode, int, int]] = [(root, 0, n_slices - 1)]
        while stack:
            node, i, j = stack.pop()
            cut = int(tables[node.index].cut[i, j])
            if cut == j:
                aggregates.append(Aggregate(node, i, j))
            elif cut == SPATIAL_CUT:
                for child in node.children:
                    stack.append((child, i, j))
            else:
                if not i <= cut < j:  # pragma: no cover - defensive
                    raise RuntimeError(
                        f"invalid cut value {cut} for interval ({i}, {j}) on node {node.name!r}"
                    )
                stack.append((node, i, cut))
                stack.append((node, cut + 1, j))
        return aggregates


def aggregate_spatiotemporal(
    model: MicroscopicModel,
    p: float,
    operator: "AggregationOperator | str | None" = None,
    jobs: int | None = None,
) -> Partition:
    """One-shot convenience wrapper around :class:`SpatiotemporalAggregator`."""
    return SpatiotemporalAggregator(model, operator=operator, jobs=jobs).run(p)
