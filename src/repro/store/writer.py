"""Append-only growth of ``.rtz`` stores: :class:`StoreWriter`.

The store written by :func:`~repro.store.save_store` is immutable per chunk;
streaming ingestion exploits that: appending rows only ever **adds** chunk
files and atomically replaces the manifest (temp file + ``os.replace``), so a
reader holding the old manifest keeps a consistent view and
:meth:`~repro.store.TraceStore.refresh` picks up exactly the new chunks.

Commit protocol of one :meth:`StoreWriter.append`:

1. validate the batch (shapes, id ranges, finite ordered timestamps,
   canonical ``(start, end)`` order continuing the existing rows);
2. re-read the manifest and compare it to the writer's view — a digest or
   generation mismatch means the store changed underneath the writer
   (another writer, tampering, bit rot) and raises
   :class:`~repro.store.StoreIntegrityError` before anything is written;
3. write the new chunk file (temp + rename);
4. fold the rows into the incrementally maintained content digest
   (:class:`~repro.store.format.RollingColumnsDigest`);
5. drop the now-stale model caches;
6. publish the new manifest (bumped ``generation``, extended chunk list,
   new digest) with an atomic replace.

A crash between steps leaves either the old manifest (orphan chunk files are
overwritten by the next append) or the new one — never a torn store.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .format import (
    CHUNK_DIR,
    MANIFEST_FILE,
    MODEL_DIR,
    RollingColumnsDigest,
    StoreError,
    StoreIntegrityError,
    TraceColumns,
)
from .store import TraceStore, _read_json, _validate_manifest, open_store

__all__ = ["StoreWriter"]


class StoreWriter:
    """Grows an existing ``.rtz`` store chunk-by-chunk.

    Opening a writer loads (and digest-verifies) the current columns once;
    afterwards every :meth:`append` costs O(batch) discretization-side work
    plus O(total) in-memory hashing — no old chunk is ever re-read.

    Single-writer: two concurrent writers on one store are detected by the
    pre-commit manifest check and fail with
    :class:`~repro.store.StoreIntegrityError` rather than corrupting data.
    """

    def __init__(self, path: "str | os.PathLike[str]"):
        self._store = open_store(path)
        self._path = Path(path)
        columns = self._store.columns()  # digest-verified full read, once
        self._leaf_paths = [leaf.path for leaf in self._store.hierarchy.leaves]
        self._leaf_index = {
            name: i for i, name in enumerate(self._store.hierarchy.leaf_names)
        }
        self._state_index = {
            name: i for i, name in enumerate(self._store.states.names)
        }
        self._digest = RollingColumnsDigest(
            self._leaf_paths, self._store.states.names, self._store.metadata
        )
        self._digest.extend(columns)
        self._columns = columns
        self._manifest = {
            "format": self._store._manifest["format"],
            "digest": self._store.digest,
            "generation": self._store.generation,
            "n_intervals": self._store.n_intervals,
            "chunk_rows": self._store._manifest.get("chunk_rows"),
            "chunks": list(self._store._manifest.get("chunks", [])),
            "start": self._store._manifest.get("start"),
            "end": self._store._manifest.get("end"),
            "metadata": dict(self._store.metadata),
        }

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def path(self) -> Path:
        """Store directory."""
        return self._path

    @property
    def store(self) -> TraceStore:
        """The underlying (writer-private) store view."""
        return self._store

    @property
    def digest(self) -> str:
        """Content digest after the last committed append."""
        return str(self._manifest["digest"])

    @property
    def generation(self) -> int:
        """Append generation after the last committed append."""
        return int(self._manifest["generation"])

    @property
    def n_intervals(self) -> int:
        """Total committed rows."""
        return int(self._manifest["n_intervals"])

    def columns(self) -> TraceColumns:
        """All committed columns (used for append-vs-rebuild prefix checks)."""
        return self._columns

    # ------------------------------------------------------------------ #
    # Appending
    # ------------------------------------------------------------------ #
    def append_intervals(
        self, intervals: Iterable[Sequence[Any]]
    ) -> int:
        """Append ``(start, end, resource, state)`` rows by name.

        Resources and states are resolved against the store's side-cars; an
        unknown name raises :class:`~repro.store.StoreError` (the dimensions
        of a store are fixed at creation — re-convert to grow them).
        Returns the new generation (or the current one for an empty batch).
        """
        rows = list(intervals)
        starts = np.empty(len(rows), dtype="<f8")
        ends = np.empty(len(rows), dtype="<f8")
        resource_ids = np.empty(len(rows), dtype="<i4")
        state_ids = np.empty(len(rows), dtype="<i4")
        for index, row in enumerate(rows):
            try:
                start, end, resource, state = row
            except (TypeError, ValueError):
                raise StoreError(
                    f"append row {index} must be (start, end, resource, state), got {row!r}"
                ) from None
            try:
                starts[index] = float(start)
                ends[index] = float(end)
            except (TypeError, ValueError):
                raise StoreError(f"append row {index} has non-numeric timestamps") from None
            resource_id = self._leaf_index.get(str(resource))
            if resource_id is None:
                raise StoreError(
                    f"append row {index}: unknown resource {resource!r} "
                    "(store dimensions are fixed; re-convert to add resources)"
                )
            state_id = self._state_index.get(str(state))
            if state_id is None:
                raise StoreError(
                    f"append row {index}: unknown state {state!r} "
                    "(store dimensions are fixed; re-convert to add states)"
                )
            resource_ids[index] = resource_id
            state_ids[index] = state_id
        return self.append(starts, ends, resource_ids, state_ids)

    def append(
        self,
        starts: "np.ndarray | TraceColumns",
        ends: "np.ndarray | None" = None,
        resource_ids: "np.ndarray | None" = None,
        state_ids: "np.ndarray | None" = None,
    ) -> int:
        """Append one batch of rows as a new chunk; returns the new generation.

        Accepts four column arrays or a single :class:`TraceColumns`.  The
        batch must continue the canonical ``(start, end)`` order of the
        existing rows.  An empty batch is a no-op.
        """
        if ends is None and isinstance(starts, TraceColumns):
            columns = starts
        else:
            arrays = (
                np.ascontiguousarray(starts, dtype="<f8"),
                np.ascontiguousarray(ends, dtype="<f8"),
                np.ascontiguousarray(resource_ids, dtype="<i4"),
                np.ascontiguousarray(state_ids, dtype="<i4"),
            )
            if len({array.size for array in arrays}) != 1:
                raise StoreError("append batch columns must have the same length")
            columns = TraceColumns(*arrays)
        if columns.n_rows == 0:
            return self.generation
        self._validate_batch(columns)
        self._check_unchanged_on_disk()

        chunk_index = len(self._manifest["chunks"])
        name = f"{CHUNK_DIR}/chunk-{chunk_index:05d}.npz"
        chunk_path = self._path / name
        temp = chunk_path.with_suffix(".tmp.npz")
        chunk_path.parent.mkdir(parents=True, exist_ok=True)
        try:
            np.savez(
                temp,
                starts=columns.starts,
                ends=columns.ends,
                resource_ids=columns.resource_ids,
                state_ids=columns.state_ids,
            )
            temp.replace(chunk_path)
        except OSError as exc:
            temp.unlink(missing_ok=True)
            raise StoreError(f"{chunk_path}: cannot write chunk {chunk_index}: {exc}") from exc

        # Fold the batch into a clone of the digest state: the writer only
        # adopts it after the manifest publish succeeds, so a failed commit
        # leaves the writer consistent and retryable.
        trial_digest = self._digest.copy()
        trial_digest.extend(columns)
        was_empty = self.n_intervals == 0
        manifest = dict(self._manifest)
        manifest["digest"] = trial_digest.hexdigest()
        manifest["generation"] = self.generation + 1
        manifest["n_intervals"] = self.n_intervals + columns.n_rows
        manifest["chunks"] = self._manifest["chunks"] + [
            {"file": name, "rows": columns.n_rows}
        ]
        batch_end = float(columns.ends.max())
        manifest["end"] = batch_end if was_empty else max(float(manifest["end"] or 0.0), batch_end)
        if was_empty:
            manifest["start"] = float(columns.starts[0])

        # Cached models describe the pre-append columns; drop them before the
        # new manifest becomes visible so no reader pairs new metadata with a
        # stale model (the loader's digest check is the second line of
        # defence).
        shutil.rmtree(self._path / MODEL_DIR, ignore_errors=True)

        manifest_path = self._path / MANIFEST_FILE
        manifest_temp = manifest_path.with_suffix(".json.tmp")
        try:
            manifest_temp.write_text(json.dumps(manifest, indent=2, sort_keys=True))
            os.replace(manifest_temp, manifest_path)
        except OSError as exc:
            manifest_temp.unlink(missing_ok=True)
            raise StoreError(f"{manifest_path}: cannot publish manifest: {exc}") from exc

        self._digest = trial_digest
        self._manifest = manifest
        self._columns = TraceColumns.concatenate([self._columns, columns])
        return self.generation

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def _validate_batch(self, columns: TraceColumns) -> None:
        starts, ends = columns.starts, columns.ends
        if not (np.all(np.isfinite(starts)) and np.all(np.isfinite(ends))):
            raise StoreError("append batch has non-finite timestamps")
        if np.any(ends < starts):
            raise StoreError("append batch has an interval with end < start")
        n_resources = len(self._leaf_index)
        n_states = len(self._state_index)
        if columns.resource_ids.size and (
            columns.resource_ids.min() < 0 or columns.resource_ids.max() >= n_resources
        ):
            raise StoreError(
                f"append batch resource id out of range [0, {n_resources})"
            )
        if columns.state_ids.size and (
            columns.state_ids.min() < 0 or columns.state_ids.max() >= n_states
        ):
            raise StoreError(f"append batch state id out of range [0, {n_states})")
        # Canonical (start, end) order, within the batch and at the join with
        # the last committed row — what keeps store columns equal to the
        # canonical order of the concatenated trace.
        batch_sorted = np.all(
            (starts[1:] > starts[:-1])
            | ((starts[1:] == starts[:-1]) & (ends[1:] >= ends[:-1]))
        )
        if not batch_sorted:
            raise StoreError("append batch is not in canonical (start, end) order")
        if self._columns.n_rows:
            last_start = float(self._columns.starts[-1])
            last_end = float(self._columns.ends[-1])
            first_start = float(starts[0])
            first_end = float(ends[0])
            if (first_start, first_end) < (last_start, last_end):
                raise StoreError(
                    f"append batch starts at ({first_start:g}, {first_end:g}), before the "
                    f"store's last row ({last_start:g}, {last_end:g}); appends must be "
                    "in canonical order — re-convert for out-of-order data"
                )

    def _check_unchanged_on_disk(self) -> None:
        """Pre-commit guard: the manifest on disk must match the writer's view."""
        manifest = _read_json(self._path / MANIFEST_FILE, "store manifest")
        _validate_manifest(self._path, manifest)
        if (
            str(manifest.get("digest")) != self.digest
            or int(manifest.get("generation", 0)) != self.generation
        ):
            raise StoreIntegrityError(
                f"{self._path}: store changed underneath the writer "
                f"(disk digest {str(manifest.get('digest'))[:12]}… generation "
                f"{manifest.get('generation', 0)}, writer expected "
                f"{self.digest[:12]}… generation {self.generation}); "
                "reopen a writer on the current store"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"StoreWriter({str(self._path)!r}, n_intervals={self.n_intervals}, "
            f"generation={self.generation})"
        )
