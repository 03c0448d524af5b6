"""Persistent ``.rtz`` trace stores: :func:`save_store` / :func:`open_store`.

The store is the persistence layer between the trace substrate and the
analysis service: a CSV trace is converted once (``repro convert``) and every
later session loads columnar arrays straight into numpy — an order of
magnitude faster than re-parsing CSV — while the microscopic-model cache
makes a reopened trace skip model construction (and even the prefix-sum
warm-up of the interval-statistics engine) entirely.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from ..core.microscopic import MicroscopicModel
from ..core.hierarchy import Hierarchy
from ..trace.states import StateRegistry
from ..trace.trace import Trace
from .modelcache import ModelHandle, load_model_cache, write_model_cache
from .format import (
    CHUNK_DIR,
    DEFAULT_CHUNK_ROWS,
    FORMAT,
    HIERARCHY_FILE,
    MANIFEST_FILE,
    MODEL_DIR,
    STATES_FILE,
    StoreError,
    StoreIntegrityError,
    StoreRewrittenError,
    TraceColumns,
    columns_digest,
)

__all__ = [
    "TraceStore",
    "save_store",
    "open_store",
    "is_store",
    "model_cache_stats",
]

_CHUNK_KEYS = ("starts", "ends", "resource_ids", "state_ids")

# Process-wide model-cache load counters, exported to /v1/metrics as
# repro_model_cache_loads_total{result="warm"|"cold"}.  Plain counters under
# a lock so the store layer needs no import of (or opinion about) repro.obs.
_cache_stats_lock = threading.Lock()
_cache_stats = {"warm": 0, "cold": 0}


def _record_model_load(outcome: str) -> None:
    with _cache_stats_lock:
        _cache_stats[outcome] += 1


def model_cache_stats() -> "dict[str, int]":
    """Process-wide counts of warm (cache) vs cold (rebuilt) model loads."""
    with _cache_stats_lock:
        return dict(_cache_stats)


def is_store(path: "str | os.PathLike[str]") -> bool:
    """Whether ``path`` looks like a trace store (a dir with a manifest)."""
    return Path(path).is_dir() and (Path(path) / MANIFEST_FILE).is_file()


def _read_json(path: Path, what: str) -> dict:
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        raise StoreError(f"{path}: missing {what}") from None
    except (OSError, json.JSONDecodeError) as exc:
        raise StoreError(f"{path}: unreadable {what}: {exc}") from exc
    if not isinstance(payload, dict):
        raise StoreError(f"{path}: {what} must be a JSON object")
    return payload


def _validate_manifest(target: Path, manifest: Mapping[str, Any]) -> None:
    if manifest.get("format") != FORMAT:
        raise StoreError(
            f"{target}: unsupported store format {manifest.get('format')!r} "
            f"(expected {FORMAT!r})"
        )
    for key in ("digest", "n_intervals", "chunks"):
        if key not in manifest:
            raise StoreError(f"{target}: manifest is missing {key!r}")


def _load_chunk(store_path: Path, entry: Mapping[str, Any], index: int) -> TraceColumns:
    """Read and row-count-check one chunk file listed in a manifest."""
    chunk_path = store_path / str(entry["file"])
    try:
        with np.load(chunk_path) as data:
            part = TraceColumns(*(np.ascontiguousarray(data[k]) for k in _CHUNK_KEYS))
    except FileNotFoundError:
        raise StoreError(f"{chunk_path}: missing chunk file (chunk {index})") from None
    except Exception as exc:  # np.load raises a zoo: OSError, zipfile, pickle…
        raise StoreError(f"{chunk_path}: unreadable chunk {index}: {exc}") from exc
    if part.n_rows != int(entry.get("rows", part.n_rows)):
        raise StoreIntegrityError(
            f"{chunk_path}: chunk {index} has {part.n_rows} rows, "
            f"manifest says {entry.get('rows')}"
        )
    return part


class TraceStore:
    """An opened ``.rtz`` store.

    Cheap to open — only the manifest and dimension side-cars are read; the
    interval columns are loaded (and digest-verified) on first access and the
    microscopic model comes from the on-disk cache when available.
    """

    def __init__(
        self,
        path: Path,
        manifest: Mapping[str, Any],
        hierarchy: Hierarchy,
        states: StateRegistry,
    ):
        self._path = path
        self._manifest = dict(manifest)
        self._hierarchy = hierarchy
        self._states = states
        self._columns: TraceColumns | None = None
        self._trace: Trace | None = None
        self._models: dict[int, MicroscopicModel] = {}

    # ------------------------------------------------------------------ #
    # Manifest accessors
    # ------------------------------------------------------------------ #
    @property
    def path(self) -> Path:
        """Store directory."""
        return self._path

    @property
    def digest(self) -> str:
        """Content digest recorded in the manifest."""
        return str(self._manifest["digest"])

    @property
    def n_intervals(self) -> int:
        """Number of state intervals."""
        return int(self._manifest["n_intervals"])

    @property
    def generation(self) -> int:
        """Append generation: 0 at creation, +1 per committed append.

        Pre-streaming stores have no ``generation`` manifest key and read as
        generation 0.  The service keys its result caches on this counter so
        entries computed against an older content snapshot are evicted, never
        served.
        """
        return int(self._manifest.get("generation", 0))

    @property
    def hierarchy(self) -> Hierarchy:
        """The resource hierarchy, rebuilt from the side-car."""
        return self._hierarchy

    @property
    def states(self) -> StateRegistry:
        """State registry (names and display colours) from the side-car."""
        return self._states

    @property
    def start(self) -> float:
        """Earliest interval start recorded at save time."""
        return float(self._manifest.get("start", 0.0))

    @property
    def end(self) -> float:
        """Latest interval end recorded at save time."""
        return float(self._manifest.get("end", 0.0))

    @property
    def metadata(self) -> dict[str, Any]:
        """Free-form trace metadata recorded at save time."""
        return dict(self._manifest.get("metadata", {}))

    def summary(self) -> dict[str, Any]:
        """JSON-friendly description used by ``GET /v1/traces``."""
        return {
            "digest": self.digest,
            "generation": self.generation,
            "n_intervals": self.n_intervals,
            "n_resources": self._hierarchy.n_leaves,
            "n_states": len(self._states),
            "states": list(self._states.names),
            "start": self._manifest.get("start"),
            "end": self._manifest.get("end"),
            "metadata": self.metadata,
            "cached_model_slices": self.cached_model_slices(),
        }

    # ------------------------------------------------------------------ #
    # Column access
    # ------------------------------------------------------------------ #
    def columns(self) -> TraceColumns:
        """All interval columns, concatenated from the chunk files.

        The first call reads every chunk, verifies the row counts and the
        content digest against the manifest, and caches the result.

        Raises
        ------
        StoreError
            When a chunk file is missing or malformed.
        StoreIntegrityError
            When the loaded content does not hash to the manifest digest.
        """
        if self._columns is not None:
            return self._columns
        parts = [
            _load_chunk(self._path, entry, index)
            for index, entry in enumerate(self._manifest.get("chunks", []))
        ]
        columns = TraceColumns.concatenate(parts)
        if columns.n_rows != self.n_intervals:
            raise StoreIntegrityError(
                f"{self._path}: {columns.n_rows} rows in chunks, "
                f"manifest says {self.n_intervals}"
            )
        actual = columns_digest(
            columns,
            [leaf.path for leaf in self._hierarchy.leaves],
            self._states.names,
            self.metadata,
        )
        if actual != self.digest:
            raise StoreIntegrityError(
                f"{self._path}: content digest {actual[:12]}… does not match "
                f"manifest digest {self.digest[:12]}…"
            )
        self._columns = columns
        return columns

    def refresh(self) -> "TraceColumns | None":
        """Pick up rows appended by a :class:`~repro.store.StoreWriter`.

        Re-reads the manifest and, when the store grew, loads **only the new
        chunk files** — already-loaded columns are reused, the appended tail
        is digest-verified as part of the full content hash (in-memory bytes,
        no re-read of old chunks) — then drops the derived caches (trace,
        models) that describe the old content.

        Returns the appended tail as :class:`TraceColumns` (what
        :meth:`~repro.core.MicroscopicModel.extend` consumes), or ``None``
        when nothing changed.

        Raises
        ------
        StoreError
            When the store was deleted out from under the session or a new
            chunk is missing/unreadable.
        StoreRewrittenError
            When the on-disk store is no longer an append-only continuation
            of the opened one (chunk list shrank or diverged) — reopen it.
        StoreIntegrityError
            When the grown content does not hash to the new manifest digest.
        """
        manifest = _read_json(self._path / MANIFEST_FILE, "store manifest")
        _validate_manifest(self._path, manifest)
        if (
            manifest.get("digest") == self.digest
            and int(manifest.get("generation", 0)) == self.generation
            and int(manifest["n_intervals"]) == self.n_intervals
        ):
            return None
        old_chunks = list(self._manifest.get("chunks", []))
        new_chunks = list(manifest.get("chunks", []))
        grown = (
            len(new_chunks) >= len(old_chunks)
            and new_chunks[: len(old_chunks)] == old_chunks
            and int(manifest["n_intervals"]) >= self.n_intervals
        )
        if not grown:
            raise StoreRewrittenError(
                f"{self._path}: store was rewritten, not appended "
                f"(generation {self.generation} -> {manifest.get('generation', 0)}); "
                "reopen it"
            )
        old_rows = self.n_intervals
        old_manifest = self._manifest
        if self._columns is None:
            # Nothing cached yet: adopt the new manifest and do a plain cold
            # load (which digest-verifies the current content), then confirm
            # the first old_rows rows still hash to the *old* digest — a
            # rebuild that happens to reuse the chunk layout must not be
            # absorbed as an append.
            self._manifest = dict(manifest)
            try:
                columns = self.columns()
            except StoreError:
                self._manifest = old_manifest
                raise
            prefix_digest = columns_digest(
                columns.slice(0, old_rows),
                [leaf.path for leaf in self._hierarchy.leaves],
                self._states.names,
                dict(old_manifest.get("metadata", {})),
            )
            if prefix_digest != str(old_manifest["digest"]):
                self._manifest = old_manifest
                self._columns = None
                raise StoreRewrittenError(
                    f"{self._path}: rows before the append point no longer hash "
                    f"to the previous digest — store was rewritten, not appended; "
                    "reopen it"
                )
        else:
            parts = [self._columns] + [
                _load_chunk(self._path, entry, index)
                for index, entry in enumerate(new_chunks[len(old_chunks):], start=len(old_chunks))
            ]
            columns = TraceColumns.concatenate(parts)
            if columns.n_rows != int(manifest["n_intervals"]):
                raise StoreIntegrityError(
                    f"{self._path}: {columns.n_rows} rows in chunks, "
                    f"manifest says {manifest['n_intervals']}"
                )
            actual = columns_digest(
                columns,
                [leaf.path for leaf in self._hierarchy.leaves],
                self._states.names,
                dict(manifest.get("metadata", {})),
            )
            if actual != str(manifest["digest"]):
                # The cached prefix is known-good (digest-verified at load),
                # so either the tail/manifest is corrupt or the whole store
                # was rebuilt under a coincidentally identical chunk layout.
                # Treat it as a rewrite: reopening re-verifies from disk and
                # surfaces genuine corruption as StoreIntegrityError there.
                raise StoreRewrittenError(
                    f"{self._path}: content digest {actual[:12]}… does not match "
                    f"manifest digest {str(manifest['digest'])[:12]}… after refresh "
                    "— store was rewritten or corrupted; reopen it"
                )
            self._manifest = dict(manifest)
            self._columns = columns
        self._trace = None
        self._models.clear()
        return columns.slice(old_rows, columns.n_rows)

    def load_trace(self) -> Trace:
        """The store's :class:`~repro.trace.Trace`, backed by :meth:`columns`.

        Interval objects are created only if the caller reads
        ``intervals`` (re-serialization, filtering); the analysis path goes
        straight from :meth:`columns` to :meth:`model`.
        """
        if self._trace is None:
            self._trace = Trace.from_columns(
                self.columns(), self._hierarchy, self._states.copy(), self.metadata
            )
        return self._trace

    # ------------------------------------------------------------------ #
    # Model cache
    # ------------------------------------------------------------------ #
    def model_cache_path(self, n_slices: int) -> Path:
        """On-disk location of the cached model for ``n_slices`` slices.

        A v2 directory of raw ``.npy`` sidecars (see
        :mod:`repro.store.modelcache`) that readers open with
        ``np.load(mmap_mode="r")`` so concurrent processes share the tables
        through the OS page cache.
        """
        return self._path / MODEL_DIR / f"slices-{int(n_slices)}"

    def _legacy_model_cache_path(self, n_slices: int) -> Path:
        """The v1 single-``.npz`` cache location (not mmap-able; regenerated)."""
        return self._path / MODEL_DIR / f"slices-{int(n_slices)}.npz"

    def cached_model_slices(self) -> list[int]:
        """Slice counts with a persisted v2 model cache, in increasing order."""
        model_dir = self._path / MODEL_DIR
        found: list[int] = []
        if model_dir.is_dir():
            for entry in model_dir.glob("slices-*"):
                if not entry.is_dir():
                    continue
                try:
                    found.append(int(entry.name.split("-", 1)[1]))
                except ValueError:
                    continue
        return sorted(found)

    def model(self, n_slices: int = 30, persist: bool = True) -> MicroscopicModel:
        """The microscopic model at ``n_slices`` slices.

        Resolution order: in-memory cache, then the on-disk model cache
        (durations *and* the prefix-sum tables of the interval-statistics
        engine, so no per-query warm-up remains), then a fresh vectorized
        discretization of the columns — which is persisted back to the store
        unless ``persist=False`` (write failures on read-only stores are
        ignored; the model is still returned).
        """
        n_slices = int(n_slices)
        model = self._models.get(n_slices)
        if model is not None:
            return model
        model = self._load_cached_model(n_slices)
        if model is not None:
            _record_model_load("warm")
            model._handle = ModelHandle(str(self._path), n_slices, self.digest)
        else:
            _record_model_load("cold")
            columns = self.columns()
            model = MicroscopicModel.from_columns(
                columns.starts,
                columns.ends,
                columns.resource_ids,
                columns.state_ids,
                self._hierarchy,
                self._states,
                n_slices=n_slices,
            )
            model.cumulative_tables()
            if persist and self._save_cached_model(n_slices, model):
                # The on-disk entry now exists, so pools can pickle this
                # model as an O(1) handle and mmap the shared sidecars.
                model._handle = ModelHandle(str(self._path), n_slices, self.digest)
        self._models[n_slices] = model
        return model

    def _load_cached_model(self, n_slices: int) -> MicroscopicModel | None:
        """The persisted model, mmap-backed, or ``None`` on any miss *or* damage.

        The model cache is derived data, always reproducible from the
        (digest-verified) columns, so it fails open: an unreadable or
        shape-mismatched entry is treated as a miss and rebuilt — unlike the
        chunks, where corruption is a hard :class:`StoreIntegrityError`.
        Legacy v1 ``.npz`` entries (not mmap-able) are also misses; the next
        :meth:`model` call transparently regenerates them in the v2 layout.
        """
        return load_model_cache(
            self.model_cache_path(n_slices),
            self.digest,
            self._hierarchy,
            self._states,
            n_slices,
        )

    def _save_cached_model(self, n_slices: int, model: MicroscopicModel) -> bool:
        """Atomically persist the v2 cache entry; ``True`` when it published."""
        try:
            write_model_cache(self.model_cache_path(n_slices), model, self.digest)
        except OSError:
            return False  # read-only store: serve from memory
        legacy = self._legacy_model_cache_path(n_slices)
        try:
            legacy.unlink(missing_ok=True)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"TraceStore({str(self._path)!r}, n_intervals={self.n_intervals}, "
            f"digest={self.digest[:12]}…)"
        )


# --------------------------------------------------------------------------- #
# Writing
# --------------------------------------------------------------------------- #
def save_store(
    trace: Trace,
    path: "str | os.PathLike[str]",
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    generation: int = 0,
) -> TraceStore:
    """Write ``trace`` as an ``.rtz`` store directory and return it opened.

    ``path`` must not exist, be an empty directory, or be an existing store
    (which is then replaced atomically enough for single-writer use: side-cars
    first, manifest last, stale model caches removed).  ``generation`` seeds
    the append counter — :func:`repro.store.sync_store` passes the replaced
    store's generation + 1 when it has to rebuild, so service sessions still
    notice the content moved on.
    """
    if chunk_rows < 1:
        raise StoreError("chunk_rows must be at least 1")
    target = Path(path)
    if target.exists():
        if not target.is_dir():
            raise StoreError(f"{target}: exists and is not a directory")
        if any(target.iterdir()) and not is_store(target):
            raise StoreError(f"{target}: refusing to overwrite a non-store directory")
        shutil.rmtree(target)
    columns = trace.columns()
    leaf_paths = [leaf.path for leaf in trace.hierarchy.leaves]
    digest = columns_digest(columns, leaf_paths, trace.states.names, trace.metadata)

    (target / CHUNK_DIR).mkdir(parents=True)
    chunks = []
    for index, start in enumerate(range(0, max(columns.n_rows, 1), chunk_rows)):
        part = columns.slice(start, start + chunk_rows)
        name = f"{CHUNK_DIR}/chunk-{index:05d}.npz"
        np.savez(
            target / name,
            starts=part.starts,
            ends=part.ends,
            resource_ids=part.resource_ids,
            state_ids=part.state_ids,
        )
        chunks.append({"file": name, "rows": part.n_rows})

    (target / HIERARCHY_FILE).write_text(
        json.dumps(
            {
                "root": trace.hierarchy.root.name,
                "leaf_paths": [list(p) for p in leaf_paths],
            },
            indent=2,
        )
    )
    (target / STATES_FILE).write_text(
        json.dumps(
            {
                "names": list(trace.states.names),
                "colors": list(trace.states.colors),
            },
            indent=2,
        )
    )
    manifest = {
        "format": FORMAT,
        "digest": digest,
        "generation": int(generation),
        "n_intervals": columns.n_rows,
        "chunk_rows": chunk_rows,
        "chunks": chunks,
        "start": trace.start,
        "end": trace.end,
        "metadata": dict(trace.metadata),
    }
    (target / MANIFEST_FILE).write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return open_store(target)


# --------------------------------------------------------------------------- #
# Reading
# --------------------------------------------------------------------------- #
def open_store(path: "str | os.PathLike[str]") -> TraceStore:
    """Open an ``.rtz`` store directory written by :func:`save_store`.

    Only the manifest and side-cars are read here; columns and models load
    lazily.  Raises :class:`StoreError` (a :class:`~repro.trace.TraceIOError`)
    when the directory is not a valid store.
    """
    target = Path(path)
    if not target.is_dir():
        raise StoreError(f"{target}: not a trace store directory")
    manifest = _read_json(target / MANIFEST_FILE, "store manifest")
    _validate_manifest(target, manifest)

    hierarchy_doc = _read_json(target / HIERARCHY_FILE, "hierarchy side-car")
    leaf_paths = hierarchy_doc.get("leaf_paths")
    if not isinstance(leaf_paths, list) or not leaf_paths:
        raise StoreError(f"{target}: hierarchy side-car has no leaf paths")
    try:
        hierarchy = Hierarchy.from_paths(
            [tuple(p) for p in leaf_paths], root_name=str(hierarchy_doc.get("root", "root"))
        )
    except ValueError as exc:
        raise StoreError(f"{target}: invalid hierarchy side-car: {exc}") from exc

    states_doc = _read_json(target / STATES_FILE, "state side-car")
    names = states_doc.get("names")
    if not isinstance(names, list):
        raise StoreError(f"{target}: state side-car has no names")
    colors = states_doc.get("colors") or []
    try:
        registry = StateRegistry()
        for index, name in enumerate(names):
            registry.add(str(name), colors[index] if index < len(colors) else None)
    except ValueError as exc:
        raise StoreError(f"{target}: invalid state side-car: {exc}") from exc

    return TraceStore(target, manifest, hierarchy, registry)
