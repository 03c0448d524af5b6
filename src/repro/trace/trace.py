"""Trace container.

A :class:`Trace` bundles the state intervals of an execution with the
platform hierarchy that produced them and the registry of observed states.
It is the hand-off point between the trace substrate (simulation, readers,
synthetic generators) and the analysis core (microscopic model +
aggregation).

Internally a trace is :class:`~repro.trace.columns.TraceColumns`.  A trace
built from interval objects (the simulator, the adapters, the filters)
encodes them on the first :meth:`Trace.columns` call; a trace built from
columns (the CSV reader, the store) creates interval objects only when
:attr:`Trace.intervals` is first read.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from ..core.hierarchy import Hierarchy
from .columns import TraceColumns
from .events import StateInterval
from .states import StateRegistry

__all__ = ["Trace", "TraceError", "TraceStatistics"]


class TraceError(ValueError):
    """Raised for inconsistent traces."""


#: Guards the lazy builds of :meth:`Trace.columns` and :attr:`Trace.intervals`,
#: so threads sharing a trace all see one object.  One lock serves every
#: trace: a lock held per trace would make traces unpicklable.
_LAZY_LOCK = threading.Lock()


@dataclass(frozen=True)
class TraceStatistics:
    """Summary statistics of a trace (used by Table II style reports)."""

    n_intervals: int
    n_resources: int
    n_states: int
    start: float
    end: float
    total_busy_time: float
    intervals_per_state: Mapping[str, int]

    @property
    def duration(self) -> float:
        """Observed span of the trace."""
        return self.end - self.start

    @property
    def n_events(self) -> int:
        """Number of punctual events (each interval is an enter + a leave)."""
        return 2 * self.n_intervals


class Trace:
    """A set of state intervals over a resource hierarchy.

    Parameters
    ----------
    intervals:
        State intervals (any iteration order; they are sorted on ingestion).
    hierarchy:
        Resource hierarchy whose leaves produced the intervals.
    states:
        Optional state registry.  Missing states are registered on the fly so
        the registry always covers every state appearing in the trace.
    metadata:
        Free-form description of the run (application, class, site, ...).
    """

    def __init__(
        self,
        intervals: Iterable[StateInterval],
        hierarchy: Hierarchy,
        states: StateRegistry | None = None,
        metadata: Mapping[str, Any] | None = None,
    ):
        registry = states.copy() if states is not None else StateRegistry()
        sorted_intervals = sorted(intervals)
        for interval in sorted_intervals:
            if interval.resource not in hierarchy:
                raise TraceError(
                    f"interval resource {interval.resource!r} is not a leaf of the hierarchy"
                )
            registry.add(interval.state)
        self._adopt(hierarchy, registry, metadata, tuple(sorted_intervals), None)

    def _adopt(
        self,
        hierarchy: Hierarchy,
        states: StateRegistry,
        metadata: Mapping[str, Any] | None,
        intervals: "tuple[StateInterval, ...] | None",
        columns: "TraceColumns | None",
    ) -> None:
        self._hierarchy = hierarchy
        self._states = states
        self._metadata: dict[str, Any] = dict(metadata or {})
        self._intervals = intervals
        self._columns = columns

    # ------------------------------------------------------------------ #
    # Trusted constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_columns(
        cls,
        columns: TraceColumns,
        hierarchy: Hierarchy,
        states: StateRegistry,
        metadata: Mapping[str, Any] | None = None,
    ) -> "Trace":
        """Build a trace around validated columns, without interval objects.

        The caller guarantees that the rows are in the canonical order and
        that every id indexes ``hierarchy``'s leaves and ``states`` — what
        :func:`repro.trace.io.parse_csv` builds and what
        :func:`repro.store.open_store` re-reads from a digest-checked store.
        The trace adopts ``states`` without copying it.
        """
        trace = cls.__new__(cls)
        trace._adopt(hierarchy, states, metadata, None, columns)
        return trace

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    def columns(self) -> TraceColumns:
        """The intervals as columns, in the canonical order (built once)."""
        columns = self._columns
        if columns is None:
            with _LAZY_LOCK:
                if self._columns is None:
                    self._columns = TraceColumns.encode(
                        self._intervals, self._hierarchy.leaf_names, self._states.names
                    )
                columns = self._columns
        return columns

    @property
    def intervals(self) -> tuple[StateInterval, ...]:
        """State intervals in the canonical order (start, end, resource, state)."""
        intervals = self._intervals
        if intervals is None:
            with _LAZY_LOCK:
                if self._intervals is None:
                    self._intervals = self._columns.decode(
                        self._hierarchy.leaf_names, self._states.names
                    )
                intervals = self._intervals
        return intervals

    @property
    def hierarchy(self) -> Hierarchy:
        """The resource hierarchy ``H(S)``."""
        return self._hierarchy

    @property
    def states(self) -> StateRegistry:
        """Registry of every state appearing in the trace."""
        return self._states

    @property
    def metadata(self) -> dict[str, Any]:
        """Free-form run description (mutable copy owned by the trace)."""
        return self._metadata

    @property
    def n_intervals(self) -> int:
        """Number of state intervals."""
        intervals = self._intervals
        return len(intervals) if intervals is not None else self._columns.n_rows

    @property
    def n_events(self) -> int:
        """Number of punctual events (2 per state interval, as in Table II)."""
        return 2 * self.n_intervals

    @property
    def start(self) -> float:
        """Earliest interval start (0.0 for an empty trace)."""
        if self._columns is None:
            return min((iv.start for iv in self._intervals), default=0.0)
        starts = self._columns.starts
        return float(starts[starts.argmin()]) if starts.size else 0.0

    @property
    def end(self) -> float:
        """Latest interval end (0.0 for an empty trace)."""
        if self._columns is None:
            return max((iv.end for iv in self._intervals), default=0.0)
        ends = self._columns.ends
        return float(ends[ends.argmax()]) if ends.size else 0.0

    @property
    def duration(self) -> float:
        """Observed span ``end - start``."""
        return self.end - self.start

    def __len__(self) -> int:
        return self.n_intervals

    def __iter__(self) -> Iterator[StateInterval]:
        return iter(self.intervals)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Trace(n_intervals={self.n_intervals}, n_resources={self._hierarchy.n_leaves}, "
            f"n_states={len(self._states)}, span=[{self.start:g}, {self.end:g}])"
        )

    # ------------------------------------------------------------------ #
    # Views and filters
    # ------------------------------------------------------------------ #
    def intervals_of(self, resource: str) -> list[StateInterval]:
        """All intervals produced by ``resource`` (sorted by start)."""
        if resource not in self._hierarchy:
            raise TraceError(f"unknown resource: {resource!r}")
        return [iv for iv in self.intervals if iv.resource == resource]

    def intervals_by_resource(self) -> dict[str, list[StateInterval]]:
        """Mapping resource name -> its intervals, for every leaf (possibly empty)."""
        result: dict[str, list[StateInterval]] = {
            name: [] for name in self._hierarchy.leaf_names
        }
        for interval in self.intervals:
            result[interval.resource].append(interval)
        return result

    def filter(
        self,
        predicate: Callable[[StateInterval], bool],
    ) -> "Trace":
        """A new trace keeping only the intervals for which ``predicate`` holds."""
        return Trace(
            (iv for iv in self.intervals if predicate(iv)),
            hierarchy=self._hierarchy,
            states=self._states,
            metadata=self._metadata,
        )

    def time_window(self, start: float, end: float) -> "Trace":
        """A new trace clipped to ``[start, end)``."""
        if end <= start:
            raise TraceError(f"empty time window [{start}, {end})")
        clipped = []
        for interval in self.intervals:
            part = interval.clipped(start, end)
            if part is not None:
                clipped.append(part)
        return Trace(clipped, self._hierarchy, self._states, self._metadata)

    def restricted_to_states(self, names: Sequence[str]) -> "Trace":
        """A new trace keeping only intervals in the given states."""
        wanted = set(names)
        return self.filter(lambda iv: iv.state in wanted)

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def statistics(self) -> TraceStatistics:
        """Summary statistics of the trace."""
        per_state: dict[str, int] = defaultdict(int)
        busy = 0.0
        for interval in self.intervals:
            per_state[interval.state] += 1
            busy += interval.duration
        return TraceStatistics(
            n_intervals=self.n_intervals,
            n_resources=self._hierarchy.n_leaves,
            n_states=len(self._states),
            start=self.start,
            end=self.end,
            total_busy_time=busy,
            intervals_per_state=dict(per_state),
        )

    def state_durations(self) -> dict[str, float]:
        """Total time spent in every state, summed over resources."""
        totals: dict[str, float] = defaultdict(float)
        for interval in self.intervals:
            totals[interval.state] += interval.duration
        return dict(totals)

    def check_non_overlapping(self, tolerance: float = 1e-9) -> None:
        """Raise :class:`TraceError` if any resource has overlapping intervals.

        The microscopic model tolerates overlaps (durations simply add up) but
        traces produced by a well-formed tracer should not contain any; this
        check is used by the simulation tests.
        """
        by_resource = self.intervals_by_resource()
        for resource, intervals in by_resource.items():
            previous_end = None
            for interval in sorted(intervals):
                if previous_end is not None and interval.start < previous_end - tolerance:
                    raise TraceError(
                        f"overlapping intervals on {resource!r} around t={interval.start:g}"
                    )
                previous_end = max(previous_end or interval.end, interval.end)

    # ------------------------------------------------------------------ #
    # Combination
    # ------------------------------------------------------------------ #
    def merged_with(self, other: "Trace") -> "Trace":
        """Union of two traces sharing the same hierarchy."""
        if other.hierarchy is not self._hierarchy and (
            other.hierarchy.leaf_names != self._hierarchy.leaf_names
        ):
            raise TraceError("cannot merge traces with different hierarchies")
        states = self._states.copy()
        for name in other.states.names:
            states.add(name, other.states.color(name))
        metadata = dict(self._metadata)
        metadata.update(other.metadata)
        return Trace(
            list(self.intervals) + list(other.intervals),
            hierarchy=self._hierarchy,
            states=states,
            metadata=metadata,
        )
