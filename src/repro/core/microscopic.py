"""The trace microscopic model (Section III.A).

The microscopic model is a pre-aggregation of the raw trace: the continuous
time axis is divided into ``|T|`` slices and, for every microscopic
spatiotemporal area ``(s, t)`` and state ``x``, the model stores the time
``d_x(s, t)`` spent by resource ``s`` in state ``x`` during slice ``t``.
State proportions are ``rho_x(s, t) = d_x(s, t) / d(t)``.

:class:`MicroscopicModel` is the single input of every aggregation algorithm
in :mod:`repro.core`.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..trace.states import StateRegistry
from ..trace.trace import Trace
from . import kernels
from .hierarchy import Hierarchy, HierarchyNode
from .timeslicing import TimeSlicing

__all__ = ["MicroscopicModel", "MicroscopicModelError"]


class MicroscopicModelError(ValueError):
    """Raised when an inconsistent microscopic model is constructed."""


def _chunk_rows(n_slices: int) -> int:
    """Interval rows per discretization chunk.

    Each ``(rows, T)`` float scratch array of a chunk (the clipped slice
    bounds and their overlaps) stays within
    :data:`repro.core.kernels.SWEEP_BATCH_BYTES`, so the scratch is a few
    budget-sized arrays whatever the trace size.
    """
    return max(1, kernels.SWEEP_BATCH_BYTES // (8 * n_slices))


def _reconstruct_from_handle(handle: Any) -> "MicroscopicModel":
    """Unpickle hook for handle-backed models (see ``__reduce_ex__``)."""
    model = handle.load()
    if not isinstance(model, MicroscopicModel):  # pragma: no cover - defensive
        raise MicroscopicModelError(
            f"model handle {handle!r} loaded {type(model).__name__}, "
            "expected MicroscopicModel"
        )
    return model


class MicroscopicModel:
    """The ``d_x(s, t)`` cube together with its dimensions.

    Parameters
    ----------
    durations:
        Array of shape ``(n_resources, n_slices, n_states)`` with the time
        spent by each resource in each state during each slice.
    hierarchy:
        Spatial dimension; its leaf order matches the first axis.
    slicing:
        Temporal dimension; its slices match the second axis.
    states:
        State dimension; its indices match the third axis.
    """

    def __init__(
        self,
        durations: np.ndarray,
        hierarchy: Hierarchy,
        slicing: TimeSlicing,
        states: StateRegistry,
    ):
        durations = np.asarray(durations, dtype=float)
        if durations.ndim != 3:
            raise MicroscopicModelError(
                "durations must have shape (n_resources, n_slices, n_states)"
            )
        n_resources, n_slices, n_states = durations.shape
        if n_resources != hierarchy.n_leaves:
            raise MicroscopicModelError(
                f"durations describe {n_resources} resources, hierarchy has {hierarchy.n_leaves}"
            )
        if n_slices != slicing.n_slices:
            raise MicroscopicModelError(
                f"durations describe {n_slices} slices, slicing has {slicing.n_slices}"
            )
        if n_states != len(states):
            raise MicroscopicModelError(
                f"durations describe {n_states} states, registry has {len(states)}"
            )
        if np.any(durations < -1e-12):
            raise MicroscopicModelError("durations must be non-negative")
        # Tolerate tiny excesses (timestamp rounding in trace files, the
        # minimum-duration floor of the tracer) by clipping to the slice
        # duration; larger excesses indicate genuinely inconsistent data.
        max_per_state = np.broadcast_to(
            slicing.durations[None, :, None], durations.shape
        )
        excess = durations - max_per_state
        if np.any(excess > 1e-6 + 1e-6 * max_per_state):
            raise MicroscopicModelError(
                "a state duration exceeds the duration of its time slice"
            )
        durations = np.where(excess > 0, max_per_state, durations)
        self._durations = np.clip(durations, 0.0, None)
        self._hierarchy = hierarchy
        self._slicing = slicing
        self._states = states
        self._cumulatives: "tuple[np.ndarray, np.ndarray, np.ndarray] | None" = None
        self._handle: Any = None

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_trusted_arrays(
        cls,
        durations: np.ndarray,
        hierarchy: Hierarchy,
        slicing: TimeSlicing,
        states: StateRegistry,
        cumulatives: "tuple[np.ndarray, np.ndarray, np.ndarray] | None" = None,
    ) -> "MicroscopicModel":
        """Wrap already-validated arrays without copying them.

        The regular constructor's consistency checks run ``np.where`` /
        ``np.clip`` over the cube, materializing a private copy — which would
        defeat a memory-mapped, page-cache-shared ``durations``.  This path
        skips them and adopts the arrays as-is (read-only memmaps included),
        so it must only be fed data that went through the validating
        constructor before being persisted — e.g. the digest-verified store
        model cache (:mod:`repro.store.modelcache`).
        """
        if durations.ndim != 3:
            raise MicroscopicModelError(
                "durations must have shape (n_resources, n_slices, n_states)"
            )
        model = cls.__new__(cls)
        model._durations = durations
        model._hierarchy = hierarchy
        model._slicing = slicing
        model._states = states
        model._cumulatives = cumulatives
        model._handle = None
        return model

    def __reduce_ex__(self, protocol: int) -> Any:
        # A model backed by a store's mmap cache pickles as its O(1) handle:
        # the receiving process re-opens the store and maps the shared cache
        # files instead of receiving the arrays through the pipe.
        if self._handle is not None:
            return (_reconstruct_from_handle, (self._handle,))
        return super().__reduce_ex__(protocol)

    @classmethod
    def from_trace(
        cls,
        trace: Trace,
        n_slices: int = 30,
        slicing: TimeSlicing | None = None,
        states: StateRegistry | None = None,
    ) -> "MicroscopicModel":
        """Discretize ``trace`` into a microscopic model.

        Parameters
        ----------
        trace:
            Input trace.
        n_slices:
            Number of regular slices (the paper uses 30).  Ignored when an
            explicit ``slicing`` is given.
        slicing:
            Explicit time slicing (e.g. to zoom on a sub-interval).
        states:
            Explicit state registry (e.g. to share indices across traces).
            Defaults to the trace's own registry.
        """
        if slicing is None:
            if trace.duration <= 0:
                raise MicroscopicModelError(
                    "cannot slice a trace with an empty time span"
                )
            slicing = TimeSlicing.regular(trace.start, trace.end, n_slices)
        registry = (states or trace.states).copy()
        for name in trace.states.names:
            registry.add(name)
        hierarchy = trace.hierarchy
        durations = np.zeros((hierarchy.n_leaves, slicing.n_slices, len(registry)))
        for interval in trace.intervals:
            resource_index = hierarchy.leaf_index(interval.resource)
            state_index = registry.index(interval.state)
            for slice_index, overlap in slicing.overlaps(interval.start, interval.end):
                durations[resource_index, slice_index, state_index] += overlap
        return cls(durations, hierarchy, slicing, registry)

    @classmethod
    def from_columns(
        cls,
        starts: np.ndarray,
        ends: np.ndarray,
        resource_ids: np.ndarray,
        state_ids: np.ndarray,
        hierarchy: Hierarchy,
        states: StateRegistry,
        n_slices: int = 30,
        slicing: TimeSlicing | None = None,
        chunk_rows: int | None = None,
    ) -> "MicroscopicModel":
        """Discretize columnar interval arrays without materializing a trace.

        Semantically equivalent to :meth:`from_trace` on the same intervals —
        bit-for-bit: each interval's per-slice overlaps are computed with the
        same min/max arithmetic as :meth:`TimeSlicing.overlaps` and
        accumulated in the same (row, then slice) order, so a store-backed
        service returns exactly the partitions a CSV batch run produces.  The
        rows must be in the canonical trace order (sorted by start, end), as
        written by :func:`repro.store.save_store`.

        Works in chunks of ``chunk_rows`` rows (by default as many as keep
        each scratch array within :data:`repro.core.kernels.SWEEP_BATCH_BYTES`)
        so the scratch overlap matrix stays small regardless of the trace
        size; ``np.add.at`` applies the rows in order, so the chunking cannot
        change any float.
        """
        starts = np.ascontiguousarray(starts, dtype=float)
        ends = np.ascontiguousarray(ends, dtype=float)
        resource_ids = np.ascontiguousarray(resource_ids, dtype=np.int64)
        state_ids = np.ascontiguousarray(state_ids, dtype=np.int64)
        n_rows = starts.size
        if not (ends.size == resource_ids.size == state_ids.size == n_rows):
            raise MicroscopicModelError("column arrays must have the same length")
        if n_rows and (
            resource_ids.min() < 0
            or resource_ids.max() >= hierarchy.n_leaves
            or state_ids.min() < 0
            or state_ids.max() >= len(states)
        ):
            raise MicroscopicModelError("resource or state id out of range")
        if slicing is None:
            if n_rows == 0 or not ends.max() > starts.min():
                raise MicroscopicModelError(
                    "cannot slice a trace with an empty time span"
                )
            slicing = TimeSlicing.regular(float(starts.min()), float(ends.max()), n_slices)
        edges = slicing.edges
        n_slices = slicing.n_slices
        durations = np.zeros((hierarchy.n_leaves, n_slices, len(states)))
        flat = durations.reshape(-1)
        if chunk_rows is None:
            chunk_rows = _chunk_rows(n_slices)
        for chunk_start in range(0, n_rows, max(1, chunk_rows)):
            sl = slice(chunk_start, chunk_start + chunk_rows)
            lo = np.maximum(starts[sl], edges[0])[:, None]
            hi = np.minimum(ends[sl], edges[-1])[:, None]
            # overlap[i, t] = min(hi, edges[t+1]) - max(lo, edges[t]); <= 0
            # outside the touched slice range, exactly as TimeSlicing.overlaps.
            overlap = np.minimum(hi, edges[None, 1:]) - np.maximum(lo, edges[None, :-1])
            rows, cols = np.nonzero(overlap > 0)
            cell = (
                resource_ids[sl][rows] * n_slices + cols
            ) * len(states) + state_ids[sl][rows]
            np.add.at(flat, cell, overlap[rows, cols])
        return cls(durations, hierarchy, slicing, states)

    def extend(
        self,
        starts: "np.ndarray | Any",
        ends: "np.ndarray | None" = None,
        resource_ids: "np.ndarray | None" = None,
        state_ids: "np.ndarray | None" = None,
        chunk_rows: int | None = None,
    ) -> "MicroscopicModel":
        """A new model covering this one plus appended interval columns.

        The streaming counterpart of :meth:`from_columns`: the time axis grows
        by whole slices of the existing width (see
        :meth:`~repro.core.timeslicing.TimeSlicing.extended_to`) and only the
        tail work is done — O(new intervals) discretization plus a prefix-sum
        recomputation restricted to the slice columns the new rows touch.  The
        result is **bit-identical** (durations and all three cumulative
        tables) to ``from_columns`` over the concatenated rows with the
        extended slicing, because

        * ``np.add.at`` accumulates contributions one row at a time in row
          order, so "old totals + tail contributions" is the same left-fold
          as a single pass over all rows, and
        * the resource-axis ``cumsum`` of :meth:`cumulative_tables` is
          independent per time column, so untouched columns can be copied
          from the cached tables verbatim.

        Accepts either four column arrays or a single object exposing
        ``starts`` / ``ends`` / ``resource_ids`` / ``state_ids`` attributes
        (e.g. :class:`repro.store.TraceColumns`).  Rows must continue the
        canonical trace order (sorted by start, then end).  The receiver is
        left untouched; cached cumulative tables are carried forward, updated,
        when present.
        """
        if ends is None and hasattr(starts, "starts"):
            columns = starts
            starts, ends, resource_ids, state_ids = (
                columns.starts, columns.ends, columns.resource_ids, columns.state_ids,
            )
        starts = np.ascontiguousarray(starts, dtype=float)
        ends = np.ascontiguousarray(ends, dtype=float)
        resource_ids = np.ascontiguousarray(resource_ids, dtype=np.int64)
        state_ids = np.ascontiguousarray(state_ids, dtype=np.int64)
        n_rows = starts.size
        if not (ends.size == resource_ids.size == state_ids.size == n_rows):
            raise MicroscopicModelError("column arrays must have the same length")
        if n_rows == 0:
            return self
        if (
            resource_ids.min() < 0
            or resource_ids.max() >= self.n_resources
            or state_ids.min() < 0
            or state_ids.max() >= self.n_states
        ):
            raise MicroscopicModelError("resource or state id out of range")

        slicing = self._slicing.extended_to(float(ends.max()))
        edges = slicing.edges
        n_old = self.n_slices
        n_slices = slicing.n_slices
        n_states = self.n_states
        durations = np.zeros((self.n_resources, n_slices, n_states))
        durations[:, :n_old, :] = self._durations
        flat = durations.reshape(-1)
        touched = np.zeros(n_slices, dtype=bool)
        touched[n_old:] = True
        if chunk_rows is None:
            chunk_rows = _chunk_rows(n_slices)
        for chunk_start in range(0, n_rows, max(1, chunk_rows)):
            sl = slice(chunk_start, chunk_start + chunk_rows)
            lo = np.maximum(starts[sl], edges[0])[:, None]
            hi = np.minimum(ends[sl], edges[-1])[:, None]
            overlap = np.minimum(hi, edges[None, 1:]) - np.maximum(lo, edges[None, :-1])
            rows, cols = np.nonzero(overlap > 0)
            cell = (
                resource_ids[sl][rows] * n_slices + cols
            ) * n_states + state_ids[sl][rows]
            np.add.at(flat, cell, overlap[rows, cols])
            touched[cols] = True

        model = MicroscopicModel(durations, self._hierarchy, slicing, self._states)
        if self._cumulatives is not None:
            model._cumulatives = self._extended_cumulatives(model, touched, n_old)
        return model

    def _extended_cumulatives(
        self,
        extended: "MicroscopicModel",
        touched: np.ndarray,
        n_old: int,
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Cumulative tables of ``extended``, recomputing only touched columns."""
        from .operators import xlogx  # local import: operators imports nothing from here

        assert self._cumulatives is not None
        dirty = np.flatnonzero(touched)
        shape = (self.n_resources + 1, extended.n_slices, self.n_states)
        tables = tuple(np.empty(shape) for _ in range(3))
        for table, old in zip(tables, self._cumulatives):
            table[:, :n_old, :] = old
        sub_durations = extended._durations[:, dirty, :]
        sub_proportions = sub_durations / extended.slice_durations[dirty][None, :, None]
        zeros = np.zeros((1,) + sub_durations.shape[1:])
        for table, sub in zip(
            tables, (sub_durations, sub_proportions, xlogx(sub_proportions))
        ):
            table[:, dirty, :] = np.concatenate([zeros, np.cumsum(sub, axis=0)])
        return tables

    def window(self, start: int, stop: int) -> "MicroscopicModel":
        """The sub-model restricted to the slice range ``[start, stop)``.

        Durations are the corresponding column slice of the cube and the
        slicing keeps the absolute slice edges, so reported times stay in
        trace coordinates.  Cached cumulative tables are sliced along the
        time axis — the per-column resource prefix sums are unaffected by
        dropping other columns — so a windowed query over a warmed-up model
        pays no prefix recomputation.
        """
        start = int(start)
        stop = int(stop)
        if not 0 <= start < stop <= self.n_slices:
            raise MicroscopicModelError(
                f"invalid slice window [{start}, {stop}) for |T| = {self.n_slices}"
            )
        slicing = TimeSlicing(self._slicing.edges[start : stop + 1])
        model = MicroscopicModel(
            self._durations[:, start:stop, :], self._hierarchy, slicing, self._states
        )
        if self._cumulatives is not None:
            model._cumulatives = tuple(
                table[:, start:stop, :] for table in self._cumulatives
            )
        return model

    @classmethod
    def from_proportions(
        cls,
        proportions: np.ndarray,
        hierarchy: Hierarchy,
        states: StateRegistry,
        slice_duration: float = 1.0,
        start: float = 0.0,
    ) -> "MicroscopicModel":
        """Build a model directly from a ``(R, T, X)`` proportion array."""
        rho = np.asarray(proportions, dtype=float)
        if rho.ndim != 3:
            raise MicroscopicModelError("proportions must be a 3-D array")
        n_slices = rho.shape[1]
        slicing = TimeSlicing.regular(start, start + n_slices * slice_duration, n_slices)
        durations = rho * slice_duration
        return cls(durations, hierarchy, slicing, states)

    # ------------------------------------------------------------------ #
    # Dimensions
    # ------------------------------------------------------------------ #
    @property
    def hierarchy(self) -> Hierarchy:
        """The spatial dimension ``H(S)``."""
        return self._hierarchy

    @property
    def slicing(self) -> TimeSlicing:
        """The temporal dimension ``T``."""
        return self._slicing

    @property
    def states(self) -> StateRegistry:
        """The state dimension ``X``."""
        return self._states

    @property
    def n_resources(self) -> int:
        """``|S|``."""
        return self._durations.shape[0]

    @property
    def n_slices(self) -> int:
        """``|T|``."""
        return self._durations.shape[1]

    @property
    def n_states(self) -> int:
        """``|X|``."""
        return self._durations.shape[2]

    @property
    def n_cells(self) -> int:
        """``|S x T|`` — the number of microscopic spatiotemporal areas."""
        return self.n_resources * self.n_slices

    # ------------------------------------------------------------------ #
    # Data access
    # ------------------------------------------------------------------ #
    @property
    def durations(self) -> np.ndarray:
        """The ``d_x(s, t)`` cube, shape ``(R, T, X)``."""
        return self._durations

    @property
    def slice_durations(self) -> np.ndarray:
        """The ``d(t)`` vector, shape ``(T,)``."""
        return self._slicing.durations

    @property
    def proportions(self) -> np.ndarray:
        """The ``rho_x(s, t)`` cube, shape ``(R, T, X)``."""
        return self._durations / self.slice_durations[None, :, None]

    def cumulative_tables(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Resource-axis prefix sums shared by every interval-statistics engine.

        Returns three ``(R + 1, T, X)`` arrays — cumulative ``d_x(s, t)``,
        cumulative ``rho_x(s, t)`` and cumulative ``rho log2 rho`` — such that
        the per-slice sums of any hierarchy node (a contiguous leaf range
        ``[a, b)``) are ``table[b] - table[a]``.  Computed once per model and
        cached, so every :class:`~repro.core.criteria.IntervalStatistics`
        built over the same model shares them.
        """
        if self._cumulatives is None:
            from .operators import xlogx  # local import: operators imports nothing from here
            from ..obs.tracing import span  # local import: obs is a leaf package

            with span("prefix.tables", shape=str(self._durations.shape)):
                durations = self._durations
                proportions = self.proportions
                zeros = np.zeros((1,) + durations.shape[1:])
                self._cumulatives = (
                    np.concatenate([zeros, np.cumsum(durations, axis=0)]),
                    np.concatenate([zeros, np.cumsum(proportions, axis=0)]),
                    np.concatenate([zeros, np.cumsum(xlogx(proportions), axis=0)]),
                )
        return self._cumulatives

    def resource_durations(self, resource: str) -> np.ndarray:
        """``d_x(s, t)`` for a single resource, shape ``(T, X)``."""
        return self._durations[self._hierarchy.leaf_index(resource)]

    def node_durations(self, node: HierarchyNode) -> np.ndarray:
        """Summed durations over the leaves of ``node``, shape ``(T, X)``."""
        return self._durations[node.leaf_start : node.leaf_end].sum(axis=0)

    def active_proportion(self) -> np.ndarray:
        """Per-cell total state proportion (``<= 1``; the rest is idle time)."""
        return self.proportions.sum(axis=2)

    def state_totals(self) -> Mapping[str, float]:
        """Total time per state, summed over resources and slices."""
        totals = self._durations.sum(axis=(0, 1))
        return {self._states.name(i): float(totals[i]) for i in range(self.n_states)}

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"MicroscopicModel(R={self.n_resources}, T={self.n_slices}, "
            f"X={self.n_states})"
        )
