"""Tests for the .rtz trace store (save/open, digests, corruption)."""

from __future__ import annotations

import json
import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.store import (
    StoreError,
    StoreIntegrityError,
    StoreWriter,
    TraceColumns,
    is_store,
    open_store,
    save_store,
    trace_digest,
)
from repro.store.format import MANIFEST_FILE
from repro.trace.io import TraceIOError, read_csv, write_csv
from repro.trace.synthetic import phased_trace, random_trace


@pytest.fixture(scope="module")
def trace():
    return phased_trace(
        n_resources=16,
        perturbed_resources=(3, 4),
        perturbation_window=(4.0, 6.0),
    )


@pytest.fixture()
def store(trace, tmp_path):
    return save_store(trace, tmp_path / "t.rtz")


class TestRoundTrip:
    def test_reopened_trace_equals_original(self, trace, tmp_path):
        save_store(trace, tmp_path / "t.rtz")
        reopened = open_store(tmp_path / "t.rtz")
        loaded = reopened.load_trace()
        assert loaded.intervals == trace.intervals
        assert loaded.hierarchy.leaf_names == trace.hierarchy.leaf_names
        assert loaded.states.names == trace.states.names
        assert loaded.states.colors == trace.states.colors
        # Metadata is JSON-normalized by the round-trip (tuples become lists).
        assert loaded.metadata == json.loads(json.dumps(trace.metadata))

    def test_digest_matches_in_memory_digest(self, trace, store):
        assert store.digest == trace_digest(trace)

    def test_digest_matches_csv_loaded_trace(self, trace, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(trace, path)
        loaded = read_csv(path)
        store = save_store(loaded, tmp_path / "t.rtz")
        assert store.digest == trace_digest(loaded)

    def test_chunking_preserves_content(self, trace, tmp_path):
        coarse = save_store(trace, tmp_path / "one.rtz", chunk_rows=10**6)
        fine = save_store(trace, tmp_path / "many.rtz", chunk_rows=7)
        assert len(fine._manifest["chunks"]) > 1
        assert fine.digest == coarse.digest
        assert fine.load_trace().intervals == coarse.load_trace().intervals

    def test_is_store(self, store, tmp_path):
        assert is_store(store.path)
        assert not is_store(tmp_path)
        assert not is_store(tmp_path / "nope")

    def test_summary_fields(self, trace, store):
        summary = store.summary()
        assert summary["n_intervals"] == trace.n_intervals
        assert summary["n_resources"] == 16
        assert summary["digest"] == store.digest
        assert summary["metadata"] == json.loads(json.dumps(trace.metadata))

    def test_save_refuses_non_store_directory(self, trace, tmp_path):
        target = tmp_path / "occupied"
        target.mkdir()
        (target / "precious.txt").write_text("do not delete")
        with pytest.raises(StoreError, match="refusing to overwrite"):
            save_store(trace, target)
        assert (target / "precious.txt").exists()

    def test_save_replaces_existing_store(self, trace, tmp_path):
        target = tmp_path / "t.rtz"
        save_store(trace, target)
        other = random_trace(n_resources=4, n_slices=6, seed=5)
        replaced = save_store(other, target)
        assert replaced.digest == trace_digest(other)
        assert open_store(target).load_trace().intervals == other.intervals


class TestModelCache:
    def test_model_persisted_and_reloaded(self, trace, store):
        model = store.model(20)
        assert store.model_cache_path(20).is_dir()
        assert (store.model_cache_path(20) / "model.json").is_file()
        reopened = open_store(store.path)
        cached = reopened.model(20)
        assert np.array_equal(cached.durations, model.durations)
        assert np.array_equal(cached.slicing.edges, model.slicing.edges)
        # The prefix-sum tables come back too: no recomputation marker —
        # and they come back *memory-mapped*, so worker processes share the
        # pages through the OS page cache instead of private copies.
        assert cached._cumulatives is not None
        assert isinstance(cached.durations, np.memmap)
        for left, right in zip(cached.cumulative_tables(), model.cumulative_tables()):
            assert isinstance(left, np.memmap)
            assert np.array_equal(left, right)

    def test_cached_model_slices_listing(self, store):
        assert store.cached_model_slices() == []
        store.model(10)
        store.model(25)
        assert store.cached_model_slices() == [10, 25]

    def test_model_not_persisted_when_disabled(self, store):
        store.model(12, persist=False)
        assert not store.model_cache_path(12).exists()

    def test_corrupt_model_cache_fails_open(self, store):
        """Derived data: a damaged cache entry is rebuilt, not a hard error."""
        reference = store.model(15)
        (store.model_cache_path(15) / "durations.npy").write_bytes(b"garbage")
        reopened = open_store(store.path)
        rebuilt = reopened.model(15)
        assert np.array_equal(rebuilt.durations, reference.durations)
        # The rebuild also repaired the on-disk entry.
        repaired = np.load(store.model_cache_path(15) / "durations.npy", mmap_mode="r")
        assert repaired.shape == reference.durations.shape

    def test_legacy_npz_cache_is_regenerated(self, trace, store):
        """A v1 single-file .npz entry is treated as a miss and replaced."""
        reference = store.model(18)
        legacy = store._legacy_model_cache_path(14)
        legacy.parent.mkdir(exist_ok=True)
        np.savez(legacy, durations=np.zeros((1, 1, 1)))
        reopened = open_store(store.path)
        assert 14 not in reopened.cached_model_slices()
        model = reopened.model(14)
        assert model.n_slices == 14
        assert reopened.model_cache_path(14).is_dir()
        assert not legacy.exists()
        assert 14 in reopened.cached_model_slices()
        assert reference.n_slices == 18  # unrelated entries untouched


def _torn_cache_writer(store_path: str, n_slices: int) -> None:
    """Child process: start persisting a model cache, die mid-write.

    SIGKILLs itself on the second array file of the cache entry — after the
    tmp sidecar directory exists and holds real data, but before the atomic
    ``os.replace`` publish — the exact torn-write window the tmp + fsync +
    rename protocol must make unobservable.
    """
    from repro.store import open_store

    original_save = np.save
    state = {"saves": 0}

    def killing_save(file, arr, *args, **kwargs):
        state["saves"] += 1
        if state["saves"] >= 2:
            os.kill(os.getpid(), signal.SIGKILL)
        return original_save(file, arr, *args, **kwargs)

    np.save = killing_save
    open_store(store_path).model(n_slices)


class TestTornModelCacheWrites:
    def test_killed_writer_leaves_no_torn_cache(self, trace, tmp_path):
        """A writer killed mid-cache never publishes a partial entry."""
        from repro.store import open_store

        store = save_store(trace, tmp_path / "t.rtz")
        ctx = multiprocessing.get_context("fork")
        writer = ctx.Process(target=_torn_cache_writer, args=(str(store.path), 9))
        writer.start()
        writer.join(60)
        assert writer.exitcode == -signal.SIGKILL

        # The torn attempt never published: no cache entry is visible, only
        # an inert tmp sidecar proving the kill landed mid-write.
        reopened = open_store(store.path)
        assert not store.model_cache_path(9).exists()
        assert 9 not in reopened.cached_model_slices()
        debris = list((store.path / "models").glob("slices-9.tmp-*"))
        assert debris

        # Fails open: the next reader rebuilds and publishes atomically, and
        # the mmap-backed reload round-trips.
        model = reopened.model(9)
        assert model.n_slices == 9
        assert store.model_cache_path(9).is_dir()
        assert 9 in reopened.cached_model_slices()
        warm = open_store(store.path).model(9)
        assert np.array_equal(warm.durations, model.durations)


class TestCorruption:
    def test_open_missing_directory(self, tmp_path):
        with pytest.raises(StoreError, match="not a trace store"):
            open_store(tmp_path / "missing.rtz")

    def test_open_directory_without_manifest(self, tmp_path):
        (tmp_path / "empty.rtz").mkdir()
        with pytest.raises(StoreError, match="missing store manifest"):
            open_store(tmp_path / "empty.rtz")

    def test_manifest_invalid_json(self, store):
        (store.path / MANIFEST_FILE).write_text("{not json")
        with pytest.raises(StoreError, match="unreadable store manifest"):
            open_store(store.path)

    def test_manifest_wrong_format(self, store):
        manifest = json.loads((store.path / MANIFEST_FILE).read_text())
        manifest["format"] = "rtz/999"
        (store.path / MANIFEST_FILE).write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="unsupported store format"):
            open_store(store.path)

    def test_missing_chunk_file(self, store):
        chunk = next((store.path / "chunks").glob("*.npz"))
        chunk.unlink()
        with pytest.raises(StoreError, match="missing chunk"):
            open_store(store.path).columns()

    def test_garbage_chunk_file(self, store):
        chunk = next((store.path / "chunks").glob("*.npz"))
        chunk.write_bytes(b"not an npz")
        with pytest.raises(StoreError, match="unreadable chunk"):
            open_store(store.path).columns()

    def test_tampered_chunk_fails_digest(self, store):
        chunk = next((store.path / "chunks").glob("*.npz"))
        with np.load(chunk) as data:
            arrays = {key: data[key].copy() for key in data.files}
        arrays["starts"][0] += 0.125
        np.savez(chunk, **arrays)
        with pytest.raises(StoreIntegrityError, match="digest"):
            open_store(store.path).columns()

    def test_row_count_mismatch(self, store):
        manifest = json.loads((store.path / MANIFEST_FILE).read_text())
        manifest["n_intervals"] += 1
        (store.path / MANIFEST_FILE).write_text(json.dumps(manifest))
        with pytest.raises(StoreIntegrityError, match="rows"):
            open_store(store.path).columns()

    def test_broken_hierarchy_sidecar(self, store):
        (store.path / "hierarchy.json").write_text(json.dumps({"leaf_paths": []}))
        with pytest.raises(StoreError, match="hierarchy"):
            open_store(store.path)

    def test_store_errors_are_trace_io_errors(self, tmp_path):
        with pytest.raises(TraceIOError):
            open_store(tmp_path / "missing.rtz")


class TestColumns:
    def test_columns_match_trace(self, trace, store):
        columns = store.columns()
        assert columns.n_rows == trace.n_intervals
        leaf_names = trace.hierarchy.leaf_names
        state_names = trace.states.names
        for row, interval in enumerate(trace.intervals):
            assert columns.starts[row] == interval.start
            assert columns.ends[row] == interval.end
            assert leaf_names[columns.resource_ids[row]] == interval.resource
            assert state_names[columns.state_ids[row]] == interval.state

    def test_mismatched_column_lengths_rejected(self, store):
        with pytest.raises(ValueError, match="same length"):
            TraceColumns(
                np.zeros(3),
                np.zeros(3),
                np.zeros(2, dtype="<i4"),
                np.zeros(3, dtype="<i4"),
            )
        # Store-side columns of unequal length are a store error: an append
        # batch, and a chunk file whose arrays disagree.
        with pytest.raises(StoreError, match="same length"):
            StoreWriter(store.path).append(
                np.zeros(3), np.zeros(3), np.zeros(2), np.zeros(3)
            )
        chunk = next((store.path / "chunks").glob("*.npz"))
        with np.load(chunk) as data:
            arrays = {key: data[key] for key in data.files}
        arrays["ends"] = arrays["ends"][:-1]
        np.savez(chunk, **arrays)
        with pytest.raises(StoreError, match="same length"):
            open_store(store.path).columns()
