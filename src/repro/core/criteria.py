"""Incremental per-node, per-interval statistics engine (the algorithm's "Data Input").

The spatiotemporal algorithm needs, for every node ``S_k`` of the hierarchy
and every time interval ``T_(i,j)``, the information gain and loss of the
corresponding aggregate.  The paper computes these by iterating over the
cells of per-node upper-triangular matrices nested in a tree recursion, in
``O(|S| |T|^2)`` time.

:class:`IntervalStatistics` implements the same computation with two layers
of prefix sums:

* a prefix sum over the *resource* axis (cached on the model, see
  :meth:`~repro.core.microscopic.MicroscopicModel.cumulative_tables`) gives
  node-level per-slice sums in constant time per node thanks to the
  contiguous leaf ranges of :class:`~repro.core.hierarchy.Hierarchy`;
* a prefix sum over the *time* axis (``(T + 1, X)`` per node) answers the
  pre-reduced sums of **any** interval ``(i, j)`` in O(1) — two table
  lookups — through :meth:`interval_sums_at`, and yields the interval tables
  of every ``(i, j)`` pair at once by broadcasting the very same subtraction.

The resulting ``(T, T)`` gain and loss tables (upper triangle valid, lower
triangle zero) are stored as one ``(N, T, T)`` slab pair per hierarchy height
(the :class:`~repro.core.hierarchy.HeightPlan` of the model's hierarchy), so
Algorithm 1 reads a whole height's tables as one array while
:meth:`IntervalStatistics.tables` still hands out one node's ``(T, T)``
views.  Both go through one fill, which computes the missing rows of a
height one chunk of nodes at a time:

* one gather of resource-prefix rows (``cum[b] - cum[a]`` for every node of
  the chunk) and one time-axis ``cumsum`` give the chunk's time prefixes;
* the interval sums are laid out **state-major**: the memory is
  ``(X, c, rows, columns)`` and the operator gets the logical
  ``(c, rows, columns, X)`` views of :class:`~repro.core.operators.IntervalSums`,
  so every per-state step of an operator is one contiguous pass over the
  chunk and the reduction over states
  (:func:`~repro.core.operators.state_sum`) adds whole state slices in the
  order numpy's contiguous pairwise ``add.reduce`` uses;
* one operator call scores the chunk.

On the ``c`` kernel tier the built-in ``mean`` operator (Eq. 1-3) scores its
chunks through the compiled fill, :func:`repro.core.kernels.mean_tables_c`,
instead: two passes of ``sweep.c`` around numpy's ``log2``, from the same
time prefixes, with the same IEEE operations in the same order (the sum
over states in :func:`~repro.core.operators.state_sum`'s order), so both
fills store the same bits.  The logarithm stays in numpy because numpy's
vectorized float64 ``log2`` (its AVX-512 build, for one) does not round
like the C library's ``log2`` on every input, and the numpy fill takes its
logarithms from numpy.  Every other operator, and every operator on the
``numpy`` tier, runs the numpy fill.

Chunks are sized so the fill's working set stays within
:data:`repro.core.kernels.SWEEP_BATCH_BYTES` (the compiled fill holds less
per cell, so its chunks hold more nodes); a node whose working set alone
exceeds it is split by start rows under the same budget (a block of start
rows ``[lo, hi)`` computes only the end columns ``j >= lo``; the others are
lower triangle).  Chunking cannot change any float: every table entry sees
the same operations on the same values whatever the chunk.  Because the
scalar O(1) path and the table path evaluate exactly the same floating-point
operations on the same prefix values, their results are bit-for-bit
identical (a property the test suite asserts).

The slabs are shared by the spatial, temporal and spatiotemporal aggregators
as well as by the partition quality metrics
(:meth:`IntervalStatistics.gain_loss_totals` gathers a partition's entries
from the slabs in one pass); the scalar path serves point queries (partition
scoring of nodes without tables, brute-force oracles, viz tooltips) without
materializing any quadratic table.

A chunk's rows are published (marked filled) only after they are written,
and the slab of a height is allocated under a lock, so threads sharing one
statistics engine never read a half-written row: a thread that finds a row
unpublished computes it itself (identical bytes).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import kernels
from .hierarchy import HierarchyNode
from .microscopic import MicroscopicModel
from .operators import (
    AggregationOperator,
    IntervalSums,
    MeanOperator,
    get_operator,
    operator_requires,
    pic,
    xlogx,
)

__all__ = ["IntervalStatistics", "NodePrefixes"]

#: Bytes a table fill holds per ``(node, i, j)`` cell and state: the
#: operator's per-state inputs and temporaries.
_STATE_CELL_BYTES = 64

#: Bytes a table fill holds per ``(node, i, j)`` cell beyond the per-state
#: arrays: the state-summed gain and loss, their state-sum accumulators and
#: the operator's per-cell denominators.
_CELL_BYTES = 128

#: The same two figures for the compiled ``mean`` fill, which holds per cell
#: and state the packed macro proportion, its ``log2`` and the ``log2`` mask
#: (17 bytes, upper-triangle cells only) and the chunk's time prefixes, and
#: per cell the gain and loss it returns.
_COMPILED_STATE_CELL_BYTES = 24
_COMPILED_CELL_BYTES = 16


def _extrema_table(
    per_slice: Sequence[np.ndarray], ufunc: np.ufunc, lo: int, hi: int
) -> np.ndarray:
    """Interval extrema of per-node per-slice ``(T, X)`` arrays, start rows ``[lo, hi)``.

    ``table[n, i - lo, j - lo] = ufunc.reduce(per_slice[n][i..j])`` via one
    running accumulate per start row over the whole chunk, in state-major
    memory like the interval sums; the lower triangle (``j < i``) is left at
    zero, matching the masked lower triangles of the sum-based interval
    tables.  Extrema are exactly associative, so each entry is bit-identical
    to the scalar ``per_slice[i:j + 1]`` reduction of
    :meth:`IntervalStatistics.interval_sums_at`.
    """
    series = np.stack(per_slice).transpose(2, 0, 1)  # (X, c, T)
    n_states, n_nodes, n_slices = series.shape
    table = np.zeros((n_states, n_nodes, hi - lo, n_slices - lo))
    for i in range(lo, hi):
        ufunc.accumulate(series[..., i:], axis=-1, out=table[:, :, i - lo, i - lo :])
    return np.moveaxis(table, 0, -1)


def _interval_table(prefix: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Interval sums of the start rows ``[lo, hi)`` from ``(X, c, T + 1)`` time prefixes.

    ``table[x, n, i - lo, j - lo] = prefix[x, n, j + 1] - prefix[x, n, i]``
    for ``lo <= j < T`` (lower triangle included), returned as the logical
    ``(c, hi - lo, T - lo, X)`` view of that state-major memory.
    """
    table = np.empty(prefix.shape[:2] + (hi - lo, prefix.shape[2] - 1 - lo))
    np.subtract(prefix[:, :, None, lo + 1 :], prefix[:, :, lo:hi, None], out=table)
    return np.moveaxis(table, 0, -1)


@dataclass(frozen=True)
class NodePrefixes:
    """Time-axis prefix sums of one hierarchy node (each ``(T + 1, X)``).

    ``prefix[j + 1] - prefix[i]`` is the sum over slices ``i..j`` — the O(1)
    building block for every interval statistic of the node.
    """

    durations: np.ndarray
    rho: np.ndarray
    rho_log_rho: np.ndarray


class IntervalStatistics:
    """Incremental gain/loss/pIC evaluation for hierarchy nodes x time intervals.

    Parameters
    ----------
    model:
        The microscopic model.
    operator:
        Aggregation operator (``"mean"`` — the paper's Eq. 1-3 — by default,
        or ``"sum"`` for the canonical criterion).
    kernel:
        Kernel tier of the table fill (see :mod:`repro.core.kernels`):
        ``"numpy"``, ``"c"`` or ``None``/``"auto"`` for the process default.
        On ``c`` the built-in ``mean`` operator's tables are filled by the
        compiled fill; every other operator, and every operator on ``numpy``,
        by the numpy fill.  Both fills store the same bits.
    """

    def __init__(
        self,
        model: MicroscopicModel,
        operator: "AggregationOperator | str | None" = None,
        kernel: "str | None" = None,
    ):
        self._model = model
        self._operator = get_operator(operator)
        # An exact type check: a subclass or an embedder's operator registered
        # as "mean" may change the arithmetic the compiled fill hard-codes.
        self._compiled_fill = (
            kernels.resolve_kernel(kernel) == "c" and type(self._operator) is MeanOperator
        )
        (
            self._prefix_durations,
            self._prefix_rho,
            self._prefix_rho_log_rho,
        ) = model.cumulative_tables()

        # Interval total durations: cumulative d(t) so that the duration of
        # slices i..j is cumulative[j + 1] - cumulative[i] (O(1) per query).
        slice_durations = model.slice_durations
        self._cumulative_slice_durations = np.concatenate(
            [[0.0], np.cumsum(slice_durations)]
        )
        cumulative = self._cumulative_slice_durations
        self._interval_durations = cumulative[None, 1:] - cumulative[:-1, None]
        # Interval lengths (number of slices), shape (T, T).
        indices = np.arange(model.n_slices)
        self._interval_lengths = indices[None, :] - indices[:, None] + 1

        self._prefix_cache: dict[int, NodePrefixes] = {}
        # Gain/loss slabs, one (N, T, T) pair per height, allocated on first
        # use under the lock; a node's row counts only once it is published.
        self._plan = model.hierarchy.height_plan
        n_heights = len(self._plan.levels)
        self._gain_slabs: list["np.ndarray | None"] = [None] * n_heights
        self._loss_slabs: list["np.ndarray | None"] = [None] * n_heights
        # node index -> (gain, loss) row views, and the same as a mask: both
        # set once the rows are written.
        self._published: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._filled = np.zeros(len(self._plan.height), dtype=bool)
        self._heights = np.array(self._plan.height, dtype=np.intp)
        self._slots = np.array(self._plan.slot, dtype=np.intp)
        self._complete = [False] * n_heights
        self._slab_lock = threading.Lock()
        self._point_cache: dict[tuple[int, int, int], tuple[float, float]] = {}

        # Optional quantities beyond the paper's six sums, supplied only when
        # the operator's `requires` attribute asks for them (std, max, min).
        self._requires = frozenset(operator_requires(self._operator))
        self._prefix_sq: "np.ndarray | None" = None  # (R + 1, T, X) cum rho^2
        self._sq_prefix_cache: dict[int, np.ndarray] = {}  # per-node (T + 1, X)
        self._extrema_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def model(self) -> MicroscopicModel:
        """The underlying microscopic model."""
        return self._model

    @property
    def operator(self) -> AggregationOperator:
        """The aggregation operator in use."""
        return self._operator

    @property
    def n_slices(self) -> int:
        """``|T|``."""
        return self._model.n_slices

    # ------------------------------------------------------------------ #
    # Node-level prefix tables
    # ------------------------------------------------------------------ #
    def node_prefixes(self, node: HierarchyNode) -> NodePrefixes:
        """Cached time-prefix tables of ``node`` (three ``(T + 1, X)`` arrays).

        Computing them is O(|T| |X|) per node — one resource-prefix lookup
        plus one cumulative sum — after which any interval statistic of the
        node is answered in O(1).
        """
        cached = self._prefix_cache.get(node.index)
        if cached is not None:
            return cached
        a, b = node.leaf_start, node.leaf_end
        if not 0 <= a < b <= self._model.n_resources:
            raise ValueError(f"node {node.name!r} has an invalid leaf range [{a}, {b})")

        def time_prefix(cumulative: np.ndarray) -> np.ndarray:
            per_slice = cumulative[b] - cumulative[a]  # (T, X)
            zeros = np.zeros((1, per_slice.shape[1]))
            return np.concatenate([zeros, np.cumsum(per_slice, axis=0)])

        prefixes = NodePrefixes(
            durations=time_prefix(self._prefix_durations),
            rho=time_prefix(self._prefix_rho),
            rho_log_rho=time_prefix(self._prefix_rho_log_rho),
        )
        self._prefix_cache[node.index] = prefixes
        return prefixes

    def _squares_prefix(self) -> np.ndarray:
        """Resource-axis prefix sums of ``rho^2``, ``(R + 1, T, X)``, built on first use."""
        if self._prefix_sq is None:
            proportions = self._model.proportions
            zeros = np.zeros((1,) + proportions.shape[1:])
            self._prefix_sq = np.concatenate(
                [zeros, np.cumsum(proportions * proportions, axis=0)]
            )
        return self._prefix_sq

    def _node_sq_prefix(self, node: HierarchyNode) -> np.ndarray:
        """Cached ``(T + 1, X)`` time prefix of ``sum_s rho^2`` for ``node``."""
        cached = self._sq_prefix_cache.get(node.index)
        if cached is not None:
            return cached
        prefix_sq = self._squares_prefix()
        a, b = node.leaf_start, node.leaf_end
        per_slice = prefix_sq[b] - prefix_sq[a]  # (T, X)
        zeros = np.zeros((1, per_slice.shape[1]))
        prefix = np.concatenate([zeros, np.cumsum(per_slice, axis=0)])
        self._sq_prefix_cache[node.index] = prefix
        return prefix

    def _node_extrema(self, node: HierarchyNode) -> tuple[np.ndarray, np.ndarray]:
        """Cached per-slice ``(max, min)`` of ``rho`` over ``node``'s leaves.

        Two ``(T, X)`` arrays.  Extrema are not prefix-summable, but they are
        exactly associative (the maximum of an area is the maximum of its
        per-slice maxima), so the scalar point path and the running-extrema
        table path below are bit-identical by construction.
        """
        cached = self._extrema_cache.get(node.index)
        if cached is not None:
            return cached
        # The node's rows of ``model.proportions``, divided here: the property
        # divides the whole (R, T, X) cube on every access.
        a, b = node.leaf_start, node.leaf_end
        props = self._model.durations[a:b] / self._model.slice_durations[None, :, None]
        extrema = (props.max(axis=0), props.min(axis=0))
        self._extrema_cache[node.index] = extrema
        return extrema

    def interval_sums_at(self, node: HierarchyNode, i: int, j: int) -> IntervalSums:
        """Pre-reduced quantities of the single aggregate ``(node, T_(i,j))``.

        O(1): every field is the difference of two prefix-table rows (the
        optional extrema fields of min/max operators are O(|T_(i,j)|)).  The
        per-state arrays have shape ``(X,)``.
        """
        self._check_interval(i, j)
        prefixes = self.node_prefixes(node)
        cumulative = self._cumulative_slice_durations
        extras: dict[str, np.ndarray] = {}
        if "sum_sq_rho" in self._requires:
            sq = self._node_sq_prefix(node)
            extras["sum_sq_rho"] = sq[j + 1] - sq[i]
        if "minmax_rho" in self._requires:
            per_max, per_min = self._node_extrema(node)
            extras["max_rho"] = per_max[i : j + 1].max(axis=0)
            extras["min_rho"] = per_min[i : j + 1].min(axis=0)
        return IntervalSums(
            sum_durations=prefixes.durations[j + 1] - prefixes.durations[i],
            total_duration=cumulative[j + 1] - cumulative[i],
            n_resources=node.n_leaves,
            sum_rho=prefixes.rho[j + 1] - prefixes.rho[i],
            sum_rho_log_rho=prefixes.rho_log_rho[j + 1] - prefixes.rho_log_rho[i],
            n_cells=node.n_leaves * (j - i + 1),
            **extras,
        )

    def interval_sums(self, node: HierarchyNode) -> IntervalSums:
        """All pre-reduced quantities of ``node`` for every interval at once.

        The per-state arrays have shape ``(T, T, X)`` (first axis ``i``,
        second axis ``j``); only the upper triangle ``j >= i`` is meaningful.
        They are the node's part of the state-major sums a table fill hands
        the operator: the broadcast form of the same prefix subtraction used
        by :meth:`interval_sums_at`.
        """
        sums = self._chunk_sums([node], 0, self.n_slices)
        per_node = {}
        for field in fields(IntervalSums):
            value = getattr(sums, field.name)
            per_node[field.name] = None if value is None else value[0]
        return IntervalSums(**per_node)

    def _chunk_sums(self, nodes: Sequence[HierarchyNode], lo: int, hi: int) -> IntervalSums:
        """Pre-reduced sums of ``nodes`` for the start rows ``[lo, hi)``.

        The intervals are ``(i, j)`` with ``lo <= i < hi`` and ``lo <= j < T``.
        Every field has a leading node axis; the per-state arrays are logical
        ``(c, hi - lo, T - lo, X)`` views of state-major ``(X, c, ...)``
        memory, so an operator's per-state passes run over contiguous state
        slices.
        """

        def interval_table(cumulative: np.ndarray) -> np.ndarray:
            return _interval_table(self._chunk_prefix(cumulative, nodes), lo, hi)

        extras: dict[str, np.ndarray] = {}
        if "sum_sq_rho" in self._requires:
            extras["sum_sq_rho"] = interval_table(self._squares_prefix())
        if "minmax_rho" in self._requires:
            per_max, per_min = zip(*(self._node_extrema(node) for node in nodes))
            extras["max_rho"] = _extrema_table(per_max, np.maximum, lo, hi)
            extras["min_rho"] = _extrema_table(per_min, np.minimum, lo, hi)
        n_leaves = np.array([node.n_leaves for node in nodes])[:, None, None]
        return IntervalSums(
            sum_durations=interval_table(self._prefix_durations),
            total_duration=self._interval_durations[None, lo:hi, lo:],
            n_resources=n_leaves,
            sum_rho=interval_table(self._prefix_rho),
            sum_rho_log_rho=interval_table(self._prefix_rho_log_rho),
            n_cells=n_leaves * self._interval_lengths[lo:hi, lo:],
            **extras,
        )

    def _chunk_prefix(self, cumulative: np.ndarray, nodes: Sequence[HierarchyNode]) -> np.ndarray:
        """Each node's time prefix of its per-slice sums, state-major ``(X, c, T + 1)``.

        ``cumulative`` is a resource-axis prefix table ``(R + 1, T, X)``;
        ``prefix[x, n, t]`` sums node ``n``'s slices before ``t``.
        """
        first = np.array([node.leaf_start for node in nodes], dtype=np.intp)
        last = np.array([node.leaf_end for node in nodes], dtype=np.intp)
        prefix = np.empty((self._model.n_states, len(nodes), self.n_slices + 1))
        prefix[..., 0] = 0.0
        per_slice = cumulative[last] - cumulative[first]  # (c, T, X)
        np.cumsum(per_slice, axis=1, out=np.moveaxis(prefix[..., 1:], 0, -1))
        return prefix

    # ------------------------------------------------------------------ #
    # Gain / loss / pIC tables
    # ------------------------------------------------------------------ #
    def tables(self, node: HierarchyNode) -> tuple[np.ndarray, np.ndarray]:
        """``(gain, loss)`` tables of shape ``(T, T)`` for ``node``.

        Only the upper triangle (``j >= i``) is meaningful; the lower triangle
        is zero.  Results are cached: the two arrays are views of the node's
        rows in its height's slabs, and the first call for a node fills the
        rows of every node of its height still missing.
        """
        views = self._published.get(node.index)
        if views is None:
            height = self._plan.height[node.index]
            self.height_tables(height, self._plan.levels[height].nodes)
            views = self._published[node.index]
        return views

    def height_tables(
        self, height: int, nodes: Sequence[HierarchyNode]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``(N, T, T)`` gain and loss slabs of ``height``.

        Row ``n`` belongs to the node in slot ``n`` of the height (see
        :class:`~repro.core.hierarchy.HeightPlan`).  The rows of ``nodes``,
        all of that height, are filled first.
        """
        if not self._complete[height]:
            self._fill(height, [node for node in nodes if node.index not in self._published])
            self._complete[height] = len(nodes) == len(self._plan.levels[height].nodes)
        return self._gain_slabs[height], self._loss_slabs[height]

    def _fill(self, height: int, nodes: Sequence[HierarchyNode]) -> None:
        """Compute, write and publish the slab rows of ``nodes``, chunk by chunk.

        A chunk's rows are computed aside and written in whole before its
        nodes are published, so a concurrent reader of a published row never
        sees it half-written; two threads filling the same row write
        identical bytes.
        """
        if self._gain_slabs[height] is None:
            with self._slab_lock:
                if self._gain_slabs[height] is None:
                    shape = (len(self._plan.levels[height].nodes), self.n_slices, self.n_slices)
                    self._loss_slabs[height] = np.empty(shape)
                    self._gain_slabs[height] = np.empty(shape)
        gain_slab, loss_slab = self._gain_slabs[height], self._loss_slabs[height]
        n_slices = self.n_slices
        n_chunk, n_rows = self._chunking()
        for start in range(0, len(nodes), n_chunk):
            chunk = nodes[start : start + n_chunk]
            slots = np.array([self._plan.slot[node.index] for node in chunk], dtype=np.intp)
            for lo in range(0, n_slices, n_rows):
                hi = min(lo + n_rows, n_slices)
                gain, loss = self._chunk_tables(chunk, lo, hi)
                for slab, values in ((gain_slab, gain), (loss_slab, loss)):
                    slab[slots, lo:hi, :lo] = 0.0
                    slab[slots, lo:hi, lo:] = values
            for node, slot in zip(chunk, slots.tolist()):
                self._published.setdefault(node.index, (gain_slab[slot], loss_slab[slot]))
                self._filled[node.index] = True

    def _chunking(self) -> tuple[int, int]:
        """Nodes per chunk and start rows per block of a fill.

        Whole nodes while one fits :data:`repro.core.kernels.SWEEP_BATCH_BYTES`
        (as many as fit, at least one); otherwise one node at a time, split
        into blocks of start rows that fit (at least one row).
        """
        n_slices = self.n_slices
        row_bytes = self._row_bytes()
        budget = kernels.SWEEP_BATCH_BYTES
        if n_slices * row_bytes <= budget:
            return budget // (n_slices * row_bytes), n_slices
        return 1, max(1, budget // row_bytes)

    def _row_bytes(self) -> int:
        """Bytes the fill holds per start row of one node."""
        state_bytes, cell_bytes = (
            (_COMPILED_STATE_CELL_BYTES, _COMPILED_CELL_BYTES)
            if self._compiled_fill
            else (_STATE_CELL_BYTES, _CELL_BYTES)
        )
        return self.n_slices * (self._model.n_states * state_bytes + cell_bytes)

    def _chunk_tables(
        self, nodes: Sequence[HierarchyNode], lo: int, hi: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(gain, loss)`` of ``nodes`` for the start rows ``[lo, hi)``.

        Both ``(c, hi - lo, T - lo)``: the end columns ``j >= lo`` of the
        rows, with the lower-triangle entries (``j < i``) zero.  The compiled
        ``mean`` fill (:func:`repro.core.kernels.mean_tables_c`) starts from
        the same time prefixes as the numpy fill and stores the same bits.
        """
        if self._compiled_fill:
            cumulatives = (self._prefix_durations, self._prefix_rho, self._prefix_rho_log_rho)
            return kernels.mean_tables_c(
                *(self._chunk_prefix(cumulative, nodes) for cumulative in cumulatives),
                self._interval_durations,
                np.array([node.n_leaves for node in nodes], dtype=float),
                lo,
                hi,
            )
        gain, loss = self._operator.gain_loss(self._chunk_sums(nodes, lo, hi))
        lower = np.tri(hi - lo, self.n_slices - lo, -1, dtype=bool)
        return np.where(lower, 0.0, gain), np.where(lower, 0.0, loss)

    def gain_loss_at(self, node: HierarchyNode, i: int, j: int) -> tuple[float, float]:
        """``(gain, loss)`` of the single aggregate ``(node, T_(i,j))`` in O(1).

        Uses the node's ``(T, T)`` tables when they already exist; otherwise
        evaluates the operator on the O(1) scalar sums, which is bit-for-bit
        identical to the corresponding table entry.
        """
        views = self._published.get(node.index)
        if views is not None:
            self._check_interval(i, j)
            return float(views[0][i, j]), float(views[1][i, j])
        key = (node.index, i, j)
        point = self._point_cache.get(key)
        if point is None:
            sums = self.interval_sums_at(node, i, j)
            gain, loss = self._operator.gain_loss(sums)
            point = (float(gain), float(loss))
            self._point_cache[key] = point
        return point

    def gain_loss_totals(self, aggregates: Sequence) -> tuple[float, float]:
        """Total ``(gain, loss)`` of ``aggregates`` (objects with ``node``, ``i``, ``j``).

        Equal, bit for bit, to summing :meth:`gain_loss_at` over the
        aggregates in their order with the builtin ``sum``: the entries of
        nodes whose tables exist are gathered from the slabs, one indexing
        call per height, and the others take the O(1) point path.
        """
        gains, losses = self.gain_loss_cells(
            np.array([a.node.index for a in aggregates], dtype=np.intp),
            np.array([a.i for a in aggregates], dtype=np.intp),
            np.array([a.j for a in aggregates], dtype=np.intp),
        )
        return sum(gains.tolist()), sum(losses.tolist())

    def gain_loss_cells(
        self, index: np.ndarray, starts: np.ndarray, ends: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gain and loss arrays of the aggregates ``(index[k], starts[k], ends[k])``.

        ``index`` holds node indices.  Entries of nodes whose tables exist
        are gathered from the slabs, one indexing call per height; the
        others take the O(1) point path (:meth:`gain_loss_at`).
        """
        gains = np.zeros(len(index))
        losses = np.zeros(len(index))
        heights = self._heights[index]
        slots = self._slots[index]
        gathered = self._filled[index] & (ends < self.n_slices)
        for height in np.unique(heights[gathered]).tolist():
            at = np.flatnonzero(gathered & (heights == height))
            cells = (slots[at], starts[at], ends[at])
            gains[at] = self._gain_slabs[height][cells]
            losses[at] = self._loss_slabs[height][cells]
        for position in np.flatnonzero(~gathered).tolist():
            height, slot = int(heights[position]), int(slots[position])
            gains[position], losses[position] = self.gain_loss_at(
                self._plan.levels[height].nodes[slot], int(starts[position]), int(ends[position])
            )
        return gains, losses

    def gain(self, node: HierarchyNode, i: int, j: int) -> float:
        """Gain of the aggregate ``(node, T_(i,j))``."""
        return self.gain_loss_at(node, i, j)[0]

    def loss(self, node: HierarchyNode, i: int, j: int) -> float:
        """Loss of the aggregate ``(node, T_(i,j))``."""
        return self.gain_loss_at(node, i, j)[1]

    def pic(self, node: HierarchyNode, i: int, j: int, p: float) -> float:
        """pIC of the aggregate ``(node, T_(i,j))`` at trade-off ``p``."""
        gain, loss = self.gain_loss_at(node, i, j)
        return float(pic(gain, loss, p))

    def pic_table(self, node: HierarchyNode, p: float) -> np.ndarray:
        """Full ``(T, T)`` pIC table of ``node`` at trade-off ``p``."""
        gain, loss = self.tables(node)
        return np.asarray(pic(gain, loss, p))

    # ------------------------------------------------------------------ #
    # Aggregated proportions (used by the visualization layer)
    # ------------------------------------------------------------------ #
    def macro_proportions(self, node: HierarchyNode, i: int, j: int) -> np.ndarray:
        """Aggregated per-state proportions ``rho_x(S_k, T_(i,j))`` (Eq. 1)."""
        sums = self.interval_sums_at(node, i, j)
        return np.asarray(self._operator.macro_proportions(sums))

    # ------------------------------------------------------------------ #
    # Totals over the microscopic partition
    # ------------------------------------------------------------------ #
    def microscopic_information(self) -> float:
        """Total Shannon information ``-sum rho log2 rho`` of the microscopic model.

        This is the quantity against which gains and losses can be normalized
        to report "complexity reduction" and "information loss" percentages to
        the analyst (criterion G5).
        """
        return float(-xlogx(self._model.proportions).sum())

    def _check_interval(self, i: int, j: int) -> None:
        if not (0 <= i <= j < self.n_slices):
            raise ValueError(
                f"invalid interval ({i}, {j}) for |T| = {self.n_slices}"
            )
