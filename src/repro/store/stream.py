"""Synchronize a growing trace source with an ``.rtz`` store (``repro stream``).

Live monitoring tails a trace file that is still being written.  Each
:func:`sync_store` call reconciles the *current* parsed trace with the store
on disk:

* no store yet → :func:`~repro.store.save_store` creates it (``created``);
* the store's columns are a prefix of the new canonical columns **and** the
  dimensions (hierarchy, states, metadata) are unchanged → the suffix is
  appended through :class:`~repro.store.StoreWriter` (``appended``) — the
  cheap steady-state path a well-behaved tracer hits on every poll;
* anything else (new resources or states, rewritten history, changed
  metadata) → the store is rebuilt from scratch with a bumped generation so
  serving sessions notice the content moved on (``rebuilt``);
* identical content → nothing is written (``unchanged``).

CSV sources append naturally in canonical order, so they take the appended
path; Pajé event dumps may close an earlier interval with a late pop line —
reordering history — and then fall back to the rebuild path.  Either way the
resulting store is byte-identical to a one-shot ``repro convert`` of the same
file (plus the generation counter), which is what the differential tests
assert.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core.hierarchy import Hierarchy
from ..trace.io import TraceIOError, parse_csv, parse_paje, scan_csv
from ..trace.states import StateRegistry
from ..trace.trace import Trace
from .format import DEFAULT_CHUNK_ROWS, TraceColumns
from .store import TraceStore, is_store, open_store, save_store
from .writer import StoreWriter

__all__ = ["SyncResult", "read_live_source", "sync_store"]


def read_live_source(
    path: "str | os.PathLike[str]",
    source_format: str = "csv",
    hierarchy: "Hierarchy | None" = None,
    states: "StateRegistry | None" = None,
) -> Trace:
    """Parse a CSV/Pajé source that may still be growing, tail-safely.

    A tracer that is mid-write at poll time leaves a truncated final line in
    the file.  Naively re-reading it either fails (half a row) or — worse —
    parses *successfully* with a wrong value (``"3."`` is valid ``3.0`` for a
    timestamp that will finish as ``3.5``), which makes the next poll see
    rewritten history and needlessly rebuild the store.  This reader parses
    only the newline-terminated prefix; a partial trailing line is picked up
    by a later poll once the producer terminates it.

    The prefix is UTF-8.  A CSV prefix goes as bytes to the compiled scan of
    the ``c`` tier (:func:`repro.trace.io.scan_csv`); one it declines, and
    every prefix on the ``numpy`` tier, is decoded and parsed by
    :func:`repro.trace.io.parse_csv`, which reports any error.
    """
    source = Path(os.fspath(path))
    data = source.read_bytes()
    cut = data.rfind(b"\n") + 1
    if source_format != "paje":
        trace = scan_csv(source, io.BytesIO(data[:cut]), hierarchy=hierarchy, states=states)
        if trace is not None:
            return trace
    try:
        text = data[:cut].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceIOError(f"{source}: not valid UTF-8 text: {exc}") from exc
    parser = parse_paje if source_format == "paje" else parse_csv
    return parser(source, io.StringIO(text), hierarchy=hierarchy, states=states)


@dataclass(frozen=True)
class SyncResult:
    """Outcome of one :func:`sync_store` reconciliation.

    ``writer`` is the (possibly reused) :class:`StoreWriter` when the store
    is in append steady state — pass it back into the next :func:`sync_store`
    call so a follow loop does not re-read and re-hash the whole store on
    every poll.  ``None`` after a create or rebuild (the next call opens one).
    """

    action: str  #: ``created`` | ``appended`` | ``rebuilt`` | ``unchanged``
    appended_rows: int
    n_intervals: int
    generation: int
    writer: "StoreWriter | None" = None


def _dimensions_match(store: TraceStore, trace: Trace) -> bool:
    return (
        [leaf.path for leaf in store.hierarchy.leaves]
        == [leaf.path for leaf in trace.hierarchy.leaves]
        and list(store.states.names) == list(trace.states.names)
        and store.metadata == dict(trace.metadata)
    )


def _is_prefix(old: TraceColumns, new: TraceColumns) -> bool:
    n = old.n_rows
    if n > new.n_rows:
        return False
    return (
        np.array_equal(old.starts, new.starts[:n])
        and np.array_equal(old.ends, new.ends[:n])
        and np.array_equal(old.resource_ids, new.resource_ids[:n])
        and np.array_equal(old.state_ids, new.state_ids[:n])
    )


def sync_store(
    trace: Trace,
    path: "str | os.PathLike[str]",
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    writer: "StoreWriter | None" = None,
) -> SyncResult:
    """Reconcile ``trace`` (the full re-parsed source) with the store at ``path``.

    Pass the ``writer`` of the previous :class:`SyncResult` to keep the
    append steady state cheap: opening a fresh :class:`StoreWriter` re-reads
    and digest-verifies every chunk, while a reused one only compares the
    in-memory prefix and hashes the appended rows.
    """
    if not is_store(path):
        store = save_store(trace, path, chunk_rows=chunk_rows)
        return SyncResult("created", store.n_intervals, store.n_intervals, store.generation)

    columns = trace.columns()
    if writer is not None and writer.path != Path(os.fspath(path)):
        writer = None
    store_view = writer.store if writer is not None else open_store(path)
    if _dimensions_match(store_view, trace):
        if writer is None:
            writer = StoreWriter(path)
        old = writer.columns()
        if _is_prefix(old, columns):
            if columns.n_rows == old.n_rows:
                return SyncResult(
                    "unchanged", 0, writer.n_intervals, writer.generation, writer
                )
            tail = columns.slice(old.n_rows, columns.n_rows)
            generation = writer.append(tail)
            return SyncResult(
                "appended", tail.n_rows, writer.n_intervals, generation, writer
            )
    # The writer's generation is authoritative after its own appends; a fresh
    # store view is authoritative otherwise.
    generation = (writer.generation if writer is not None else store_view.generation) + 1
    store = save_store(trace, path, chunk_rows=chunk_rows, generation=generation)
    return SyncResult("rebuilt", store.n_intervals, store.n_intervals, store.generation)
