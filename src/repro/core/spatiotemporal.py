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

* **One slab pass per height, not per node.**  A node only reads its
  children's final tables, so all nodes of one *height* (leaves are height
  0, a parent is one above its tallest child; see
  :class:`~repro.core.hierarchy.HeightPlan`) are independent.  Every step
  runs on the height's ``(N, T, T)`` slabs at once: the base tables
  ``p * gain - (1 - p) * loss`` over the gain/loss slabs of
  :class:`~repro.core.criteria.IntervalStatistics`, the children's merge —
  one child rank at a time from a zero start, so every parent sums its
  children in their order — with the spatial-cut test, and the temporal-cut
  sweep.  A DP run costs ``O(heights x max fanout)`` numpy calls instead of
  ``O(|S|)`` Python calls.
* **Anti-diagonal sweeps.**  Instead of visiting the ``O(|T|^2)`` cells one
  by one, a sweep handles all intervals of the same length at once: strided
  views expose, for every node and every start ``i`` simultaneously, the
  candidate values ``best[n, i, i+k] + best[n, i+k+1, j]`` of every cut
  position ``k``, so one interval length costs a constant number of
  vectorized operations for the whole height.

The tables are kept per height too (:class:`HeightTables`): ``pic`` as
float64, ``cut`` and ``count`` as int32 (a count is at most the ``|S| |T|``
microscopic cells, checked on allocation), 16 bytes per cell.  Every slab
temporary — the base tables and merge of a node chunk, the
``(nodes, starts, cuts)`` candidates of one sweep length — is bounded by
:data:`repro.core.kernels.SWEEP_BATCH_BYTES` (the node axis is split into
chunks that fit), so batching adds at most that budget to the memory of the
tables themselves.  The sweep itself is pluggable (:mod:`repro.core.kernels`):
the vectorized ``numpy`` tier and the compiled ``c`` tier (``sweep.c``, built
on first use; the default when a C compiler is available) evaluate the same
recurrence and return bit-identical tables — selected via ``REPRO_KERNEL`` /
``--kernel``.

Independent hierarchy subtrees only interact at their common ancestors, so
the per-subtree table computations are embarrassingly parallel; passing
``jobs > 1`` distributes them over a process pool (each worker runs the same
slab passes on its subtree's nodes) and stores the per-subtree rows in the
parent's slabs, whose remaining ancestors are solved by height the same way
(exposed as ``repro analyze --jobs``).

Several trade-off values solve together: the slabs then carry a leading
``p`` axis, ``(P, N, T, T)``, and every step runs on all ``P`` values of a
height at once (the sweep sees ``P * N`` rows).  Each value's cells get the
same operations as when it is solved alone, so batching changes no bit;
:meth:`SpatiotemporalAggregator.quality` and
:meth:`~SpatiotemporalAggregator.run_many` split their values into batches
whose tables fit :data:`repro.core.kernels.SWEEP_BATCH_BYTES` (at least one
value per batch), and :meth:`~SpatiotemporalAggregator.compute_tables` is
the one-value case.

The optimal partition is recovered by replaying the cuts, read from the
per-height ``cut`` slabs, from the root and the whole time span.  The replay
follows the aggregator's kernel tier: the ``c`` tier walks every value of a
batch in compiled code (``walk_int32`` in ``sweep.c``), the ``numpy`` tier
runs the Python stack walk :meth:`SpatiotemporalAggregator._walk`, its
reference.  Both only move integers (cuts, node indices, slice bounds) and
list the aggregates in the same order, so the tier changes no bit.
"""

from __future__ import annotations

from collections.abc import Mapping
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from . import kernels
from .criteria import IntervalStatistics
from .hierarchy import HeightPlan, Hierarchy, HierarchyNode, Merge
from .kernels import resolve_kernel
from .microscopic import MicroscopicModel
from .operators import AggregationOperator
from .partition import Aggregate, Partition

__all__ = [
    "SpatiotemporalAggregator",
    "AggregationWorkerError",
    "aggregate_spatiotemporal",
    "HeightTables",
    "NodeTables",
    "QualityPoint",
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

#: dtype of the ``cut`` and ``count`` tables: a count is at most the
#: ``|S| * |T|`` microscopic cells (checked when the tables are allocated).
TABLE_DTYPE = np.int32

#: Bytes the base-table pass holds per cell of a node chunk: the children's
#: pIC and count sums, the gathered child rows and the spatial-cut test's
#: shifted tables and masks.  Chunks stay within ``kernels.SWEEP_BATCH_BYTES``.
_MERGE_CELL_BYTES = 48

#: Bytes of the tables per cell of one node at one trade-off value: the
#: float64 pIC, the cut and the count.  A batch of values is as many as fit
#: ``kernels.SWEEP_BATCH_BYTES`` (at least one).
_TABLE_CELL_BYTES = 8 + 2 * np.dtype(TABLE_DTYPE).itemsize


@dataclass(frozen=True)
class QualityPoint:
    """Quality of the optimal partition at one trade-off value."""

    p: float
    size: int
    gain: float
    loss: float

    @property
    def pic(self) -> float:
        """pIC of the optimal partition at this point."""
        return self.p * self.gain - (1.0 - self.p) * self.loss


@dataclass(frozen=True)
class NodeTables:
    """The per-node output of the dynamic program.

    Attributes
    ----------
    pic:
        ``(T, T)`` table; ``pic[i, j]`` is the pIC of an optimal partition of
        the area ``(S_k, T_(i,j))`` (upper triangle only).
    cut:
        ``(T, T)`` int32 table with the optimal cut of each area (see the
        module docstring for the encoding).
    count:
        ``(T, T)`` int32 table with the number of aggregates of the chosen
        optimal partition of each area.  Used as a secondary criterion: among
        partitions whose pIC ties (within epsilon), the coarsest one is kept,
        so homogeneous regions are never fragmented arbitrarily.
    """

    pic: np.ndarray
    cut: np.ndarray
    count: np.ndarray


class HeightTables(Mapping):
    """Algorithm 1's tables: one ``(P, N, T, T)`` slab triple per hierarchy height.

    ``pic[h]``, ``cut[h]`` and ``count[h]`` hold the tables of the nodes of
    height ``h`` at the ``P = n_ps`` trade-off values solved together:
    ``[q, n]`` is the node in slot ``n`` of ``plan`` at the ``q``-th value.
    :meth:`at` gives the tables of one value.  As a mapping (one value),
    ``tables[node.index]`` is that node's :class:`NodeTables` — views of its
    rows, never a copy.
    """

    def __init__(self, plan: HeightPlan, n_slices: int, n_ps: int = 1):
        self.plan = plan
        self.n_slices = n_slices
        self.n_ps = n_ps
        self.pic: list["np.ndarray | None"] = [None] * len(plan.levels)
        self.cut: list["np.ndarray | None"] = [None] * len(plan.levels)
        self.count: list["np.ndarray | None"] = [None] * len(plan.levels)

    def store(
        self,
        height: int,
        slots: "np.ndarray | None",
        pic: np.ndarray,
        cut: np.ndarray,
        count: np.ndarray,
    ) -> None:
        """Keep the tables of ``height``'s rows ``slots`` (``None``: all, as given)."""
        if slots is None:
            self.pic[height], self.cut[height], self.count[height] = pic, cut, count
            return
        if self.pic[height] is None:
            shape = (
                self.n_ps, len(self.plan.levels[height].nodes), self.n_slices, self.n_slices
            )
            self.pic[height] = np.empty(shape)
            self.cut[height] = np.empty(shape, dtype=TABLE_DTYPE)
            self.count[height] = np.empty(shape, dtype=TABLE_DTYPE)
        self.pic[height][:, slots] = pic
        self.cut[height][:, slots] = cut
        self.count[height][:, slots] = count

    def at(self, q: int) -> "HeightTables":
        """The one-value tables of the ``q``-th trade-off value (views)."""
        tables = HeightTables(self.plan, self.n_slices)
        for mine, theirs in zip((tables.pic, tables.cut, tables.count), (self.pic, self.cut, self.count)):
            mine[:] = [None if slab is None else slab[q : q + 1] for slab in theirs]
        return tables

    def __getitem__(self, index: int) -> NodeTables:
        if self.n_ps != 1:
            raise TypeError(f"tables of {self.n_ps} trade-off values: select one with at(q)")
        if not 0 <= index < len(self.plan.height):
            raise KeyError(index)
        height, slot = self.plan.height[index], self.plan.slot[index]
        return NodeTables(
            pic=self.pic[height][0, slot],
            cut=self.cut[height][0, slot],
            count=self.count[height][0, slot],
        )

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self.plan.height)))

    def __len__(self) -> int:
        return len(self.plan.height)


def _empty_tables(model: MicroscopicModel, n_ps: int = 1) -> HeightTables:
    """Empty DP tables for ``model``, whose counts must fit :data:`TABLE_DTYPE`."""
    if model.n_resources * model.n_slices >= np.iinfo(TABLE_DTYPE).max:
        raise ValueError(
            f"|S| * |T| = {model.n_resources * model.n_slices} cells exceed the "
            f"{np.dtype(TABLE_DTYPE).name} aggregate counts of the DP tables"
        )
    return HeightTables(model.hierarchy.height_plan, model.n_slices, n_ps)


def _trade_offs(ps: Sequence[float]) -> np.ndarray:
    """``ps`` as a float64 array, every value checked to lie in ``[0, 1]``."""
    values = np.array([float(p) for p in ps], dtype=np.float64)
    for p in values.tolist():
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
    return values


def _no_cut(n_slices: int) -> np.ndarray:
    """The "no cut" default cut table: ``j`` on the upper triangle, 0 below."""
    return np.triu(np.arange(n_slices, dtype=TABLE_DTYPE))


def _rows(index: np.ndarray, a: int, b: int, offset: int = 0) -> "slice | np.ndarray":
    """``index[a:b] - offset``, increasing, as a slice when the rows are consecutive.

    Slicing reads and updates views, where an index array would copy.
    """
    first, last = index.item(a) - offset, index.item(b - 1) - offset
    if last - first == b - a - 1:
        return slice(first, last + 1)
    return index[a:b] - offset


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


def _subtree_worker(
    ps: np.ndarray, node_index: int
) -> list[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Process-pool entry point: the tables of one hierarchy subtree at ``ps``.

    Returns ``(height, slots, pic, cut, count)`` per height of the subtree,
    ready for :meth:`HeightTables.store` in the parent.
    """
    aggregator = _WORKER_AGGREGATOR
    assert aggregator is not None, "worker used before _init_worker ran"
    model = aggregator.model
    subtree_root = _find_node(model.hierarchy.root, node_index)
    plan = model.hierarchy.height_plan.restrict(subtree_root.iter_subtree("post"))
    tables = _empty_tables(model, len(ps))
    aggregator._solve(plan, ps, tables)
    return [
        (
            height,
            level.slots,
            tables.pic[height][:, level.slots],
            tables.cut[height][:, level.slots],
            tables.count[height][:, level.slots],
        )
        for height, level in enumerate(plan.levels)
        if level.nodes
    ]


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
        DP sweep tier (see :mod:`repro.core.kernels`): ``"numpy"``, ``"c"``
        or ``None``/``"auto"`` for the process default (``REPRO_KERNEL`` /
        auto-detection: ``c`` when it builds, else ``numpy``).  Every tier returns
        bit-identical tables; the choice only affects speed.  The statistics
        engine the aggregator builds fills its gain/loss tables on the same
        tier (a shared ``stats`` keeps its own).

    Notes
    -----
    The gain/loss tables only depend on the data, not on ``p``; they are
    computed once (lazily, per node) and re-used by every call to
    :meth:`run`, which is what gives the "instantaneous interaction to get
    the visualization at a given aggregation level" behaviour reported in the
    paper's conclusion.  :meth:`run` is the three layers :meth:`build_tables`
    (gain/loss tables), :meth:`compute_tables` (the DP sweep) and
    :meth:`partition` (cut recovery), which callers may time one by one.
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
        self._kernel = resolve_kernel(kernel)
        self._stats = (
            stats if stats is not None else IntervalStatistics(model, operator, kernel=self._kernel)
        )
        # Resolved operator instance (picklable) — what the process-pool
        # workers re-instantiate their own statistics engine with.
        self._operator = self._stats.operator
        self._epsilon = self.EPSILON if epsilon is None else float(epsilon)
        self._jobs = jobs

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
    def _split(self, jobs: int | None) -> tuple[list[HierarchyNode], HeightPlan]:
        """The subtrees for the process pool and the plan this process solves.

        Serially (or when the hierarchy offers a single subtree) the pool
        gets nothing and this process solves the whole hierarchy; otherwise
        it solves the subtrees' ancestors once the pool has returned.
        """
        plan = self._model.hierarchy.height_plan
        if jobs is None or jobs <= 1:
            return [], plan
        frontier = _select_frontier(self._model.hierarchy.root, jobs)
        if len(frontier) <= 1:
            return [], plan
        pooled = {node.index for subtree in frontier for node in subtree.iter_subtree()}
        ancestors = (
            node for node in self._model.hierarchy.iter_nodes("post") if node.index not in pooled
        )
        return frontier, plan.restrict(ancestors)

    def build_tables(self, jobs: int | None = None) -> None:
        """Build the gain/loss tables :meth:`compute_tables` reads in this process.

        Every node's serially; with ``jobs > 1`` only those of the pooled
        subtrees' ancestors (each worker builds its own subtree's).
        """
        _, plan = self._split(self._jobs if jobs is None else jobs)
        for height, level in enumerate(plan.levels):
            if level.nodes:
                self._stats.height_tables(height, level.nodes)

    def _solve(self, plan: HeightPlan, ps: np.ndarray, tables: HeightTables) -> None:
        """Add the optimal tables of the nodes of ``plan`` at ``ps`` to ``tables``.

        One pass per height, each over the ``(P, N, T, T)`` slabs of the
        height's nodes at the ``P`` values: base tables ``p * gain - (1 - p)
        * loss``, the children's merge and spatial-cut test, then the
        temporal-cut sweep over all ``P * N`` rows.  Children outside
        ``plan`` must already be in ``tables``.
        """
        n_slices = self._model.n_slices
        n_ps = len(ps)
        weights = ps.reshape(n_ps, 1, 1, 1)
        no_cut = _no_cut(n_slices)
        cell_bytes = n_ps * n_slices * n_slices * _MERGE_CELL_BYTES
        chunk = max(1, kernels.SWEEP_BATCH_BYTES // cell_bytes)
        for height, level in enumerate(plan.levels):
            n_nodes = len(level.nodes)
            if not n_nodes:
                continue
            gain, loss = self._stats.height_tables(height, level.nodes)
            shape = (n_ps, n_nodes, n_slices, n_slices)
            best = np.empty(shape)
            cut = np.empty(shape, dtype=TABLE_DTYPE)
            cut[...] = no_cut
            count = np.ones(shape, dtype=TABLE_DTYPE)
            for lo in range(0, n_nodes, chunk):
                hi = min(lo + chunk, n_nodes)
                rows = slice(lo, hi) if level.slots is None else level.slots[lo:hi]
                np.multiply(gain[rows], weights, out=best[:, lo:hi])
                np.subtract(best[:, lo:hi], (1.0 - weights) * loss[rows], out=best[:, lo:hi])
                if level.merges:
                    self._spatial_cuts(
                        level.merges,
                        lo,
                        hi,
                        tables,
                        best[:, lo:hi],
                        cut[:, lo:hi],
                        count[:, lo:hi],
                    )
            sweep_shape = (n_ps * n_nodes, n_slices, n_slices)
            kernels.temporal_cuts(
                best.reshape(sweep_shape),
                cut.reshape(sweep_shape),
                count.reshape(sweep_shape),
                self._epsilon,
                kernel=self._kernel,
            )
            tables.store(height, level.slots, best, cut, count)

    def _spatial_cuts(
        self,
        merges: Sequence[Merge],
        lo: int,
        hi: int,
        tables: HeightTables,
        best: np.ndarray,
        cut: np.ndarray,
        count: np.ndarray,
    ) -> None:
        """Apply the spatial cut to the parents ``lo:hi`` of a level, in place.

        ``best``/``cut``/``count`` are those parents' ``(P, c, T, T)`` rows,
        holding the no-cut tables.  The children's sums start from zero and
        add one child rank at a time, so every parent gets ``((0 + c1) + c2)
        + ...`` in the order of its children, at every value.
        """
        children_sum = np.zeros(best.shape)
        children_count = np.zeros(count.shape, dtype=count.dtype)
        for parents, source, children in merges:
            a, b = np.searchsorted(parents, (lo, hi)).tolist()
            if a == b:
                continue
            at, rows = _rows(parents, a, b, lo), _rows(children, a, b)
            children_sum[:, at] += tables.pic[source][:, rows]
            children_count[:, at] += tables.count[source][:, rows]
        epsilon = self._epsilon
        spatial_better = (children_sum > best + epsilon) | (
            (children_sum > best - epsilon) & (children_count < count)
        )
        np.copyto(best, children_sum, where=spatial_better)
        np.copyto(cut, SPATIAL_CUT, where=spatial_better)
        np.copyto(count, children_count, where=spatial_better)

    def compute_tables(self, p: float, jobs: int | None = None) -> HeightTables:
        """Run Algorithm 1 and return the pIC / cut / count tables of every node.

        The result maps ``node.index`` to the node's :class:`NodeTables` and
        keeps them as per-height slabs.  ``jobs`` overrides the constructor
        default; any value above 1 computes independent hierarchy subtrees
        in a process pool before merging at their ancestors.
        """
        return self._compute(_trade_offs([p]), jobs)

    def _compute(self, ps: np.ndarray, jobs: int | None) -> HeightTables:
        """The tables of every node at the checked values ``ps``, solved together."""
        jobs = self._jobs if jobs is None else jobs
        frontier, plan = self._split(jobs)
        tables = _empty_tables(self._model, len(ps))
        if frontier:
            self._solve_subtrees(frontier, ps, int(jobs), tables)
        self._solve(plan, ps, tables)
        return tables

    def _batches(self, ps: Sequence[float]) -> Iterator[tuple[np.ndarray, HeightTables]]:
        """``(values, tables)`` of ``ps`` in order, as many values per solve as fit.

        A batch holds as many values as keep its tables within
        :data:`repro.core.kernels.SWEEP_BATCH_BYTES`, and at least one.
        """
        values = _trade_offs(ps)
        n_nodes = len(self._model.hierarchy.height_plan.height)
        value_bytes = n_nodes * self._model.n_slices**2 * _TABLE_CELL_BYTES
        size = max(1, kernels.SWEEP_BATCH_BYTES // value_bytes)
        for lo in range(0, len(values), size):
            batch = values[lo : lo + size]
            yield batch, self._compute(batch, None)

    def _solve_subtrees(
        self, frontier: Sequence[HierarchyNode], ps: np.ndarray, jobs: int, tables: HeightTables
    ) -> None:
        """Solve the ``frontier`` subtrees at ``ps`` over a process pool into ``tables``."""
        try:
            with ProcessPoolExecutor(
                max_workers=min(jobs, len(frontier)),
                initializer=_init_worker,
                initargs=(self._model, self._operator, self._epsilon, self._kernel),
            ) as pool:
                futures = [pool.submit(_subtree_worker, ps, node.index) for node in frontier]
                for future in futures:
                    for rows in future.result():
                        tables.store(*rows)
        except BrokenProcessPool as exc:
            raise AggregationWorkerError(
                f"a parallel aggregation worker crashed (jobs={jobs}, "
                f"{len(frontier)} subtrees in flight); rerun with jobs=1 for a "
                "serial aggregation of the same partition"
            ) from exc

    def compute_tables_reference(self, p: float) -> HeightTables:
        """Per-cell reference implementation of Algorithm 1.

        Builds every node's base tables on their own and visits every cell
        ``(i, j)`` of every node in an explicit Python loop, exactly as the
        paper describes.  Kept as the correctness oracle for the slab passes
        (the property tests assert bit-identical tables) and as the "before"
        leg of ``benchmarks/bench_spatiotemporal.py``.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        n_slices = self._model.n_slices
        epsilon = self._epsilon
        sentinel = np.iinfo(TABLE_DTYPE).max
        tables = _empty_tables(self._model)
        for height, level in enumerate(tables.plan.levels):
            shape = (1, len(level.nodes), n_slices, n_slices)
            tables.store(
                height,
                None,
                np.empty(shape),
                np.empty(shape, dtype=TABLE_DTYPE),
                np.empty(shape, dtype=TABLE_DTYPE),
            )
        no_cut = _no_cut(n_slices)
        for node in self._model.hierarchy.iter_nodes("post"):
            table = tables[node.index]
            best, cut, count = table.pic, table.cut, table.count
            gain, loss = self._stats.tables(node)
            np.subtract(p * gain, (1.0 - p) * loss, out=best)
            cut[...] = no_cut
            count[...] = 1
            if node.children:
                children_sum = np.zeros_like(best)
                children_count = np.zeros_like(count)
                for child in node.children:
                    children_sum = children_sum + tables[child.index].pic
                    children_count = children_count + tables[child.index].count
                spatial_better = (children_sum > best + epsilon) | (
                    (children_sum > best - epsilon) & (children_count < count)
                )
                np.copyto(best, children_sum, where=spatial_better)
                np.copyto(cut, SPATIAL_CUT, where=spatial_better)
                np.copyto(count, children_count, where=spatial_better)
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
                    k = int(np.where(eligible, counts, sentinel).argmin())
                    value = values[k]
                    cut_count = int(counts[k])
                    if value > row[j] + epsilon or (
                        value > row[j] - epsilon and cut_count < row_count[j]
                    ):
                        row[j] = value
                        row_count[j] = cut_count
                        cut[i, j] = i + k
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
        return self.partition(self.compute_tables(p, jobs=jobs), p)

    def partition(self, tables: HeightTables, p: float) -> Partition:
        """The optimal partition encoded in ``tables``, computed at trade-off ``p``."""
        return Partition(
            self._recover(tables),
            self._model,
            p=p,
            stats=self._stats,
            validate=False,
        )

    def run_many(self, ps: Sequence[float]) -> dict[float, Partition]:
        """The optimal partition at every ``p`` of ``ps``, solved in batches."""
        ps = list(ps)
        solved = (tables.at(q) for _, tables in self._batches(ps) for q in range(tables.n_ps))
        return {p: self.partition(tables, p) for p, tables in zip(ps, solved)}

    def quality(self, ps: Sequence[float]) -> list[QualityPoint]:
        """Size, gain and loss of the optimal partition at every ``p`` of ``ps``.

        Equal, bit for bit, to each ``run(p)``'s ``size``, ``gain()`` and
        ``loss()``, but solved in batches and read from the cut tables
        without building partitions: each value's aggregates are sorted as
        :class:`~repro.core.partition.Partition` sorts them and totalled by
        the same :meth:`~repro.core.criteria.IntervalStatistics.gain_loss_totals`
        summation.
        """
        points: list[QualityPoint] = []
        leaf_start, leaf_end = self._node_arrays.leaf_start, self._node_arrays.leaf_end
        for values, tables in self._batches(ps):
            value, node, i, j = self._replay(tables)
            order = np.lexsort((j, leaf_end[node], i, leaf_start[node], value))
            value, node, i, j = value[order], node[order], i[order], j[order]
            gains, losses = self._stats.gain_loss_cells(node, i, j)
            gains, losses = gains.tolist(), losses.tolist()
            bounds = np.searchsorted(value, np.arange(len(values) + 1)).tolist()
            for q, p in enumerate(values.tolist()):
                a, b = bounds[q], bounds[q + 1]
                points.append(
                    QualityPoint(p=p, size=b - a, gain=sum(gains[a:b]), loss=sum(losses[a:b]))
                )
        return points

    @cached_property
    def _node_arrays(self) -> "_NodeArrays":
        return _NodeArrays(self._model.hierarchy)

    @cached_property
    def _cut_replay(self) -> kernels.CutReplay:
        """The ``c`` tier's replay over the hierarchy's height plan, which all tables use."""
        hierarchy = self._model.hierarchy
        plan = hierarchy.height_plan
        return kernels.CutReplay(
            hierarchy.root.index,
            [len(level.nodes) for level in plan.levels],
            plan.height,
            plan.slot,
            self._node_arrays.children,
        )

    def _recover(self, tables: HeightTables) -> list[Aggregate]:
        """Replay the cut sequence from the root over the whole time span."""
        nodes = self._node_arrays.nodes
        _, node, i, j = (row.tolist() for row in self._replay(tables))
        return [Aggregate(nodes[k], a, b) for k, a, b in zip(node, i, j)]

    def _replay(self, tables: HeightTables) -> np.ndarray:
        """:meth:`_walk`'s aggregates as a ``(4, size)`` intp array, in its order.

        The rows are the value, node, start and end of every aggregate.  The
        ``c`` tier replays in compiled code, the ``numpy`` tier runs
        :meth:`_walk`; a bad cut raises the same error on both.
        """
        if self._kernel != "c":
            return np.array(self._walk(tables), dtype=np.intp).reshape(-1, 4).T
        found, bad = self._cut_replay(tables.cut)
        if bad is not None:
            _, node, i, j, cut = bad
            raise RuntimeError(self._invalid_cut(cut, i, j, node))
        return found

    def _invalid_cut(self, cut: int, i: int, j: int, node: int) -> str:
        return (
            f"invalid cut value {cut} for interval ({i}, {j}) on node "
            f"{self._node_arrays.nodes[node].name!r}"
        )

    def _walk(self, tables: HeightTables) -> list[tuple[int, int, int, int]]:
        """The aggregates of every value of ``tables``, as ``(value, node, i, j)``.

        Replays each value's cut sequence from the root over the whole time
        span: an area kept whole is an aggregate, a spatial cut replaces it
        by its children's areas, a temporal cut by its two halves.  The
        ``numpy`` tier's replay and the reference of the ``c`` tier's.
        """
        height, slot = tables.plan.height, tables.plan.slot
        children = self._node_arrays.children
        cuts = tables.cut
        root, last = self._model.hierarchy.root.index, self._model.n_slices - 1
        found: list[tuple[int, int, int, int]] = []
        for q in range(tables.n_ps):
            stack = [(root, 0, last)]
            while stack:
                node, i, j = stack.pop()
                cut = cuts[height[node]].item(q, slot[node], i, j)
                if cut == j:
                    found.append((q, node, i, j))
                elif cut == SPATIAL_CUT:
                    stack.extend((child, i, j) for child in children[node])
                else:
                    if not i <= cut < j:
                        raise RuntimeError(self._invalid_cut(cut, i, j, node))
                    stack.append((node, i, cut))
                    stack.append((node, cut + 1, j))
        return found


class _NodeArrays:
    """The hierarchy indexed by node index, for recovering aggregates from cuts.

    ``nodes[k]`` is the node with index ``k``, ``children[k]`` its
    children's indices in order, and ``leaf_start``/``leaf_end`` the leaf
    ranges as arrays.
    """

    def __init__(self, hierarchy: Hierarchy):
        nodes = sorted(hierarchy.iter_nodes(), key=lambda node: node.index)
        self.nodes: tuple[HierarchyNode, ...] = tuple(nodes)
        self.children = tuple(tuple(child.index for child in node.children) for node in nodes)
        self.leaf_start = np.array([node.leaf_start for node in nodes], dtype=np.intp)
        self.leaf_end = np.array([node.leaf_end for node in nodes], dtype=np.intp)


def aggregate_spatiotemporal(
    model: MicroscopicModel,
    p: float,
    operator: "AggregationOperator | str | None" = None,
    jobs: int | None = None,
) -> Partition:
    """One-shot convenience wrapper around :class:`SpatiotemporalAggregator`."""
    return SpatiotemporalAggregator(model, operator=operator, jobs=jobs).run(p)
