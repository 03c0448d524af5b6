"""On-disk format of the ``.rtz`` trace store.

A store is a directory with a small JSON manifest, two JSON side-cars for the
dimensions, the interval data as chunked columnar ``.npz`` files, and an
optional cache of discretized microscopic models:

.. code-block:: text

    trace.rtz/
        manifest.json        format version, content digest, chunk index
        hierarchy.json       leaf paths (slash-free, as JSON arrays)
        states.json          state names + display colours, in index order
        chunks/chunk-00000.npz   starts, ends, resource_ids, state_ids
        models/slices-30/        cached MicroscopicModel as raw .npy sidecars
                                 (mmap-shared across processes; see
                                 repro.store.modelcache)

The columnar layout (four parallel arrays per chunk: ``float64`` starts and
ends, ``int32`` resource and state ids) is what the analysis engine consumes
directly — :meth:`repro.core.MicroscopicModel.from_columns` never
materializes per-interval Python objects.  The **content digest** is a
SHA-256 over the canonical little-endian bytes of the columns plus the
dimension side-cars; it identifies the trace *content* independently of the
container, so a CSV file and its converted store hash identically and can
share result-cache entries.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping, Sequence

import numpy as np

from ..trace.columns import TraceColumns
from ..trace.io import TraceIOError
from ..trace.trace import Trace

__all__ = [
    "FORMAT",
    "STORE_SUFFIX",
    "MANIFEST_FILE",
    "HIERARCHY_FILE",
    "STATES_FILE",
    "CHUNK_DIR",
    "MODEL_DIR",
    "DEFAULT_CHUNK_ROWS",
    "StoreError",
    "StoreIntegrityError",
    "StoreRewrittenError",
    "TraceColumns",
    "RollingColumnsDigest",
    "columns_digest",
    "trace_digest",
]

#: Format identifier written to (and required from) every manifest.
FORMAT = "rtz/1"
#: Conventional store directory suffix (informational; not enforced).
STORE_SUFFIX = ".rtz"
MANIFEST_FILE = "manifest.json"
HIERARCHY_FILE = "hierarchy.json"
STATES_FILE = "states.json"
CHUNK_DIR = "chunks"
MODEL_DIR = "models"
#: Default rows per chunk file (~2 MB of columnar data).
DEFAULT_CHUNK_ROWS = 65536


class StoreError(TraceIOError):
    """Raised when a trace store is missing, malformed or unreadable."""


class StoreIntegrityError(StoreError):
    """Raised when store contents do not match the manifest digest."""


class StoreRewrittenError(StoreError):
    """Raised by :meth:`~repro.store.TraceStore.refresh` when the store on
    disk is no longer an append-only continuation of the opened one (e.g. a
    full re-convert replaced it); the caller must reopen from scratch."""


def _canonical_json(value: Any) -> bytes:
    return json.dumps(value, sort_keys=True, default=str).encode("utf-8")


def columns_digest(
    columns: TraceColumns,
    leaf_paths: Sequence[Sequence[str]],
    state_names: Sequence[str],
    metadata: Mapping[str, Any],
) -> str:
    """SHA-256 content digest of a trace in columnar form.

    The digest covers the dimension descriptions and the canonical
    little-endian bytes of the four columns, so it is independent of chunking
    and container format.
    """
    digest = hashlib.sha256()
    digest.update(FORMAT.encode("ascii") + b"\n")
    digest.update(_canonical_json([list(path) for path in leaf_paths]) + b"\n")
    digest.update(_canonical_json(list(state_names)) + b"\n")
    digest.update(_canonical_json(dict(metadata)) + b"\n")
    digest.update(np.ascontiguousarray(columns.starts, dtype="<f8").tobytes())
    digest.update(np.ascontiguousarray(columns.ends, dtype="<f8").tobytes())
    digest.update(np.ascontiguousarray(columns.resource_ids, dtype="<i4").tobytes())
    digest.update(np.ascontiguousarray(columns.state_ids, dtype="<i4").tobytes())
    return digest.hexdigest()


class RollingColumnsDigest:
    """Incrementally maintained content digest of append-only growing columns.

    Produces exactly :func:`columns_digest` of the concatenated columns.  The
    digest's byte stream is ``header ‖ starts ‖ ends ‖ resource_ids ‖
    state_ids``: appended rows extend every column section, but the sections
    before ``ends`` form a resumable prefix — the header-plus-starts hash
    context is carried forward and fed only the **new** start bytes on each
    append, while the three remaining columns are retained (canonical dtype,
    ~16 bytes/row) and re-hashed at finalization.  Re-deriving the digest
    after an append therefore costs O(total) *hashing* but zero file reads
    and zero array concatenations, which is what makes
    :class:`~repro.store.StoreWriter.append` cheap on large stores.
    """

    def __init__(
        self,
        leaf_paths: Sequence[Sequence[str]],
        state_names: Sequence[str],
        metadata: Mapping[str, Any],
    ):
        self._prefix = hashlib.sha256()
        self._prefix.update(FORMAT.encode("ascii") + b"\n")
        self._prefix.update(_canonical_json([list(path) for path in leaf_paths]) + b"\n")
        self._prefix.update(_canonical_json(list(state_names)) + b"\n")
        self._prefix.update(_canonical_json(dict(metadata)) + b"\n")
        self._ends: list[np.ndarray] = []
        self._resource_ids: list[np.ndarray] = []
        self._state_ids: list[np.ndarray] = []

    def extend(self, columns: TraceColumns) -> None:
        """Fold an appended batch of rows into the digest state."""
        self._prefix.update(np.ascontiguousarray(columns.starts, dtype="<f8").tobytes())
        self._ends.append(np.ascontiguousarray(columns.ends, dtype="<f8"))
        self._resource_ids.append(np.ascontiguousarray(columns.resource_ids, dtype="<i4"))
        self._state_ids.append(np.ascontiguousarray(columns.state_ids, dtype="<i4"))

    def copy(self) -> "RollingColumnsDigest":
        """An independent clone of the digest state.

        :class:`~repro.store.StoreWriter` folds an append into a *clone*
        first and only adopts it once the new manifest is published, so a
        failed commit leaves the writer's digest state untouched and the
        append can be retried safely.
        """
        clone = object.__new__(RollingColumnsDigest)
        clone._prefix = self._prefix.copy()
        clone._ends = list(self._ends)
        clone._resource_ids = list(self._resource_ids)
        clone._state_ids = list(self._state_ids)
        return clone

    def hexdigest(self) -> str:
        """Digest of everything folded in so far (the state stays reusable)."""
        digest = self._prefix.copy()
        for parts in (self._ends, self._resource_ids, self._state_ids):
            for array in parts:
                digest.update(array.tobytes())
        return digest.hexdigest()


def trace_digest(trace: Trace) -> str:
    """Content digest of an in-memory trace.

    Equal to the digest of the store :func:`repro.store.save_store` would
    write for this trace — the service uses it to key result caches so batch
    (CSV) and served (store) runs of the same content share entries.
    """
    return columns_digest(
        trace.columns(),
        [leaf.path for leaf in trace.hierarchy.leaves],
        trace.states.names,
        trace.metadata,
    )
