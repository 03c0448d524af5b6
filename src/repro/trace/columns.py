"""Columnar form of a trace's state intervals.

:class:`TraceColumns` is the internal form of a :class:`~repro.trace.Trace`:
four parallel arrays — ``float64`` starts and ends, ``int32`` resource and
state ids — in the canonical trace order (``StateInterval`` order: start,
end, resource name, state name).  The CSV reader builds them directly, the
``.rtz`` store writes and reads them chunk by chunk, and
:meth:`repro.core.MicroscopicModel.from_columns` discretizes them, so none of
these steps creates per-interval Python objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .events import StateInterval

__all__ = ["TraceColumns"]


@dataclass(frozen=True)
class TraceColumns:
    """The columnar representation of a trace's intervals.

    Rows are in the canonical trace order, the order :class:`repro.trace.Trace`
    maintains, so round-trips through the store preserve interval order
    exactly.  Ids index the trace's hierarchy leaves and state registry.
    """

    starts: np.ndarray
    ends: np.ndarray
    resource_ids: np.ndarray
    state_ids: np.ndarray

    def __post_init__(self) -> None:
        n = self.starts.size
        if not (self.ends.size == self.resource_ids.size == self.state_ids.size == n):
            raise ValueError("trace columns must have the same length")

    @property
    def n_rows(self) -> int:
        """Number of state intervals."""
        return int(self.starts.size)

    @classmethod
    def encode(
        cls,
        intervals: Sequence[StateInterval],
        leaf_names: Sequence[str],
        state_names: Sequence[str],
    ) -> "TraceColumns":
        """Encode sorted intervals against leaf and state names, in row order."""
        n = len(intervals)
        starts = np.empty(n, dtype="<f8")
        ends = np.empty(n, dtype="<f8")
        resource_ids = np.empty(n, dtype="<i4")
        state_ids = np.empty(n, dtype="<i4")
        leaf_index = {name: i for i, name in enumerate(leaf_names)}
        state_index = {name: i for i, name in enumerate(state_names)}
        for row, interval in enumerate(intervals):
            starts[row] = interval.start
            ends[row] = interval.end
            resource_ids[row] = leaf_index[interval.resource]
            state_ids[row] = state_index[interval.state]
        return cls(starts, ends, resource_ids, state_ids)

    def decode(
        self, leaf_names: Sequence[str], state_names: Sequence[str]
    ) -> "tuple[StateInterval, ...]":
        """The rows as :class:`StateInterval` objects, in row order."""
        resources = [leaf_names[i] for i in self.resource_ids.tolist()]
        states = [state_names[i] for i in self.state_ids.tolist()]
        return tuple(
            map(StateInterval, self.starts.tolist(), self.ends.tolist(), resources, states)
        )

    def slice(self, start: int, stop: int) -> "TraceColumns":
        """Row slice ``[start, stop)`` (used to write chunk files)."""
        return TraceColumns(
            self.starts[start:stop],
            self.ends[start:stop],
            self.resource_ids[start:stop],
            self.state_ids[start:stop],
        )

    @classmethod
    def concatenate(cls, parts: Sequence["TraceColumns"]) -> "TraceColumns":
        """Reassemble chunked columns in chunk order."""
        if not parts:
            empty_f = np.empty(0, dtype="<f8")
            empty_i = np.empty(0, dtype="<i4")
            return cls(empty_f, empty_f.copy(), empty_i, empty_i.copy())
        return cls(
            np.concatenate([p.starts for p in parts]),
            np.concatenate([p.ends for p in parts]),
            np.concatenate([p.resource_ids for p in parts]),
            np.concatenate([p.state_ids for p in parts]),
        )
