"""Trace resolution: one source protocol over CSV, Pajé, ``.rtz`` and memory.

Every frontend used to decide for itself how a trace path becomes a model —
the CLI read CSVs, the service pinned stores, the batch runner had corpus
entries, streaming sessions refreshed store handles.  :class:`TraceSource`
is the one protocol they all speak now:

* :class:`StoreSource` — a chunked binary ``.rtz`` store; models come from
  (and are persisted to) the store's on-disk model cache, appends bump the
  ``generation``;
* :class:`MemorySource` — an in-memory :class:`~repro.trace.Trace` (parsed
  CSV/Pajé, synthetic, simulated); models are built per slice count, the
  content digest is computed once, the generation is always 0.

:func:`resolve_path` maps a user-supplied path to a source (``.rtz`` store
directory, ``.paje`` file, JSON files sniffed as Chrome/OTLP/OAR dumps,
anything else parsed as CSV; an explicit ``format=`` overrides sniffing) and
:func:`as_source` wraps already loaded objects (corpus members, pinned
traces); every source renders its canonical payload ``trace`` block via
:meth:`TraceSource.trace_block`.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Dict, Optional, Protocol, Union, runtime_checkable

from ..core.microscopic import MicroscopicModel
from ..store.format import trace_digest
from ..store.store import TraceStore, is_store, open_store
from ..trace.adapters import ADAPTER_READERS, looks_like_json, read_adapter_auto
from ..trace.io import read_csv, read_paje
from ..trace.trace import Trace
from .errors import PipelineError
from .payloads import trace_summary

__all__ = [
    "TraceSource",
    "StoreSource",
    "MemorySource",
    "TRACE_FORMATS",
    "as_source",
    "resolve_path",
]

#: Explicit ``--format`` names accepted by :func:`resolve_path`, beyond the
#: sniffed defaults (``store`` directories are always auto-detected).
_FORMAT_READERS = {"csv": read_csv, "paje": read_paje, **ADAPTER_READERS}
TRACE_FORMATS = tuple(sorted(_FORMAT_READERS))


@runtime_checkable
class TraceSource(Protocol):
    """What the pipeline needs from a trace, wherever it lives."""

    @property
    def digest(self) -> str:
        """Content digest of the trace."""
        ...

    @property
    def generation(self) -> int:
        """Append generation (0 for immutable sources)."""
        ...

    @property
    def n_intervals(self) -> int:
        """Number of state intervals."""
        ...

    def model(self, slices: int) -> MicroscopicModel:
        """The microscopic model at ``slices`` regular slices."""
        ...

    def load_trace(self) -> Trace:
        """The full trace object (interval-level consumers: reports, stores)."""
        ...

    def summary(self) -> Dict[str, Any]:
        """JSON-friendly description (``GET /v1/traces``)."""
        ...

    def trace_block(self) -> Dict[str, Any]:
        """The canonical ``trace`` section of analysis payloads."""
        ...


class StoreSource:
    """A :class:`TraceSource` over a chunked binary ``.rtz`` store."""

    kind = "store"

    def __init__(self, store: TraceStore) -> None:
        self._store = store

    @property
    def store(self) -> TraceStore:
        """The underlying store handle (streaming consumers append to it)."""
        return self._store

    def reopen(self) -> None:
        """Replace the handle after an on-disk rewrite (bumped generation)."""
        self._store = open_store(self._store.path)

    @property
    def digest(self) -> str:
        """Content digest from the store manifest."""
        return str(self._store.digest)

    @property
    def generation(self) -> int:
        """The store's append generation."""
        return int(self._store.generation)

    @property
    def n_intervals(self) -> int:
        """Number of state intervals in the store."""
        return int(self._store.n_intervals)

    def model(self, slices: int) -> MicroscopicModel:
        """Columnar fast path: the store's cached (or vectorized) model."""
        return self._store.model(slices)

    def load_trace(self) -> Trace:
        """Materialize the full trace from the store columns."""
        return self._store.load_trace()

    def summary(self) -> Dict[str, Any]:
        """The store summary plus the source marker."""
        info = dict(self._store.summary())
        info["source"] = "store"
        return info

    def trace_block(self) -> Dict[str, Any]:
        """Canonical ``trace`` section built from the store manifest."""
        store = self._store
        return trace_summary(
            store.digest,
            store.n_intervals,
            store.hierarchy.n_leaves,
            len(store.states),
            store.start,
            store.end,
            store.metadata,
            generation=store.generation,
        )


class MemorySource:
    """A :class:`TraceSource` over an in-memory :class:`Trace` (immutable)."""

    kind = "memory"

    def __init__(self, trace: Trace, digest: Optional[str] = None) -> None:
        self._trace = trace
        self._digest = digest if digest is not None else trace_digest(trace)

    @property
    def trace(self) -> Trace:
        """The wrapped trace."""
        return self._trace

    @property
    def digest(self) -> str:
        """Content digest, computed once from the trace's columns."""
        return self._digest

    @property
    def generation(self) -> int:
        """Always 0: in-memory traces are frozen."""
        return 0

    @property
    def n_intervals(self) -> int:
        """Number of state intervals."""
        return int(self._trace.n_intervals)

    def model(self, slices: int) -> MicroscopicModel:
        """Discretize the trace's columns at ``slices`` regular slices."""
        columns = self._trace.columns()
        return MicroscopicModel.from_columns(
            columns.starts,
            columns.ends,
            columns.resource_ids,
            columns.state_ids,
            self._trace.hierarchy,
            self._trace.states.copy(),
            n_slices=slices,
        )

    def load_trace(self) -> Trace:
        """The wrapped trace itself."""
        return self._trace

    def summary(self) -> Dict[str, Any]:
        """JSON-friendly description mirroring the store summary's keys."""
        trace = self._trace
        return {
            "digest": self._digest,
            "generation": 0,
            "n_intervals": trace.n_intervals,
            "n_resources": trace.hierarchy.n_leaves,
            "n_states": len(trace.states),
            "states": list(trace.states.names),
            "start": trace.start,
            "end": trace.end,
            "metadata": dict(trace.metadata),
            "source": "memory",
        }

    def trace_block(self) -> Dict[str, Any]:
        """Canonical ``trace`` section built from the parsed trace."""
        trace = self._trace
        return trace_summary(
            self._digest,
            trace.n_intervals,
            trace.hierarchy.n_leaves,
            len(trace.states),
            trace.start,
            trace.end,
            trace.metadata,
        )


def as_source(obj: "Union[TraceSource, TraceStore, Trace]") -> "TraceSource":
    """Wrap an already loaded trace object into a :class:`TraceSource`.

    Accepts a source (returned unchanged), a :class:`TraceStore` or a
    :class:`Trace` — i.e. exactly what corpus entries and pinned-session
    constructors produce today.
    """
    if isinstance(obj, (StoreSource, MemorySource)):
        return obj
    if isinstance(obj, TraceStore):
        return StoreSource(obj)
    if isinstance(obj, Trace):
        return MemorySource(obj)
    raise PipelineError(f"unsupported session source: {type(obj).__name__}")


def resolve_path(
    path: "Union[str, os.PathLike[str]]", format: "Optional[str]" = None
) -> "TraceSource":
    """Resolve a user-supplied trace path into a :class:`TraceSource`.

    With ``format=None`` the format is sniffed: ``.rtz`` store directories
    open as :class:`StoreSource`; ``.paje`` files parse as Pajé dumps;
    ``.csv`` files as the CSV interval format; any other file whose content
    starts like a JSON document goes through the adapter auto-dispatch
    (Chrome trace-event / OTLP-Jaeger / OAR); everything else parses as CSV.
    An explicit ``format`` (one of :data:`TRACE_FORMATS`) bypasses sniffing.
    I/O and format errors propagate (``FileNotFoundError``,
    ``IsADirectoryError``, :class:`~repro.trace.io.TraceIOError`, ...) so
    each frontend keeps its own phrasing.
    """
    if format is not None:
        try:
            reader = _FORMAT_READERS[format]
        except KeyError:
            raise PipelineError(
                f"unknown trace format {format!r}; expected one of "
                f"{list(TRACE_FORMATS)}"
            ) from None
        return MemorySource(reader(path))
    if is_store(path):
        return StoreSource(open_store(path))
    suffix = Path(path).suffix.lower()
    if suffix == ".paje":
        return MemorySource(read_paje(path))
    if suffix != ".csv" and looks_like_json(path):
        return MemorySource(read_adapter_auto(path))
    return MemorySource(read_csv(path))
