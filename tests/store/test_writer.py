"""Unit tests for StoreWriter, TraceStore.refresh and sync_store.

The negative-path sweep asserts that every way a store can go bad under a
live writer or reader raises the *specific* store exception with a usable
message (chunk index included) — never a bare ``OSError``/``KeyError``.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.store import (
    StoreError,
    StoreIntegrityError,
    StoreRewrittenError,
    StoreWriter,
    open_store,
    save_store,
    sync_store,
)
from repro.trace.events import StateInterval
from repro.trace.trace import Trace
from repro.trace.synthetic import random_trace


@pytest.fixture(scope="module")
def full_trace():
    return random_trace(n_resources=4, n_slices=12, n_states=3, seed=5)


@pytest.fixture()
def split(full_trace):
    intervals = list(full_trace.intervals)
    cut = int(len(intervals) * 0.8)
    prefix = Trace(
        intervals[:cut], full_trace.hierarchy, full_trace.states.copy(),
        full_trace.metadata,
    )
    tail = [(i.start, i.end, i.resource, i.state) for i in intervals[cut:]]
    return prefix, tail


@pytest.fixture()
def store_path(tmp_path, split):
    prefix, _ = split
    save_store(prefix, tmp_path / "t.rtz", chunk_rows=64)
    return tmp_path / "t.rtz"


class TestAppend:
    def test_append_grows_store_and_generation(self, store_path, split):
        _, tail = split
        writer = StoreWriter(store_path)
        before = writer.n_intervals
        assert writer.generation == 0
        assert writer.append_intervals(tail) == 1
        assert writer.n_intervals == before + len(tail)
        reopened = open_store(store_path)
        assert reopened.generation == 1
        assert reopened.n_intervals == before + len(tail)
        reopened.columns()  # digest-verifies the grown content

    def test_empty_batch_is_a_noop(self, store_path):
        writer = StoreWriter(store_path)
        manifest_before = (store_path / "manifest.json").read_bytes()
        assert writer.append_intervals([]) == 0
        assert (store_path / "manifest.json").read_bytes() == manifest_before

    def test_out_of_order_batch_rejected(self, store_path):
        writer = StoreWriter(store_path)
        with pytest.raises(StoreError, match="canonical"):
            writer.append_intervals([(0.0, 0.5, "r0", "state0")])

    def test_internally_unsorted_batch_rejected(self, store_path, split):
        _, tail = split
        scrambled = [tail[-1]] + tail[:-1]
        if scrambled == tail:
            pytest.skip("tail too short to scramble")
        with pytest.raises(StoreError, match="canonical"):
            StoreWriter(store_path).append_intervals(scrambled)

    def test_unknown_resource_rejected(self, store_path, split):
        _, tail = split
        start, end, _, state = tail[0]
        with pytest.raises(StoreError, match="unknown resource 'ghost'"):
            StoreWriter(store_path).append_intervals([(start, end, "ghost", state)])

    def test_unknown_state_rejected(self, store_path, split):
        _, tail = split
        start, end, resource, _ = tail[0]
        with pytest.raises(StoreError, match="unknown state 'ghost'"):
            StoreWriter(store_path).append_intervals([(start, end, resource, "ghost")])

    def test_non_finite_timestamps_rejected(self, store_path, split):
        _, tail = split
        _, _, resource, state = tail[0]
        with pytest.raises(StoreError, match="non-finite"):
            StoreWriter(store_path).append_intervals(
                [(float("inf"), float("inf"), resource, state)]
            )

    def test_end_before_start_rejected(self, store_path, split):
        _, tail = split
        start, _, resource, state = tail[-1]
        with pytest.raises(StoreError, match="end < start"):
            StoreWriter(store_path).append_intervals(
                [(start + 5.0, start + 1.0, resource, state)]
            )

    def test_model_cache_dropped_and_guarded(self, store_path, split):
        _, tail = split
        store = open_store(store_path)
        store.model(6)
        assert store.cached_model_slices() == [6]
        stale_entry = {
            f.name: f.read_bytes() for f in store.model_cache_path(6).iterdir()
        }

        StoreWriter(store_path).append_intervals(tail)
        grown = open_store(store_path)
        assert grown.cached_model_slices() == []

        # Even if a stale cache entry reappears (backup restore, copy race),
        # the loader's digest check refuses it and rebuilds from columns.
        grown.model_cache_path(6).mkdir(parents=True, exist_ok=True)
        for name, payload in stale_entry.items():
            (grown.model_cache_path(6) / name).write_bytes(payload)
        model = open_store(store_path).model(6)
        assert model.slicing.end == grown.end


class TestAppendConflicts:
    def test_digest_tamper_detected_mid_append(self, store_path, split):
        _, tail = split
        writer = StoreWriter(store_path)
        manifest = json.loads((store_path / "manifest.json").read_text())
        manifest["digest"] = "0" * 64
        (store_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreIntegrityError, match="changed underneath"):
            writer.append_intervals(tail)

    def test_concurrent_writer_detected(self, store_path, split):
        _, tail = split
        first = StoreWriter(store_path)
        second = StoreWriter(store_path)
        first.append_intervals(tail[: len(tail) // 2 or 1])
        with pytest.raises(StoreIntegrityError, match="changed underneath"):
            second.append_intervals(tail)


class TestNegativePaths:
    def test_truncated_chunk_names_its_index(self, store_path, split):
        _, tail = split
        StoreWriter(store_path).append_intervals(tail)
        chunks = sorted((store_path / "chunks").glob("chunk-*.npz"))
        chunks[-1].write_bytes(chunks[-1].read_bytes()[:20])
        with pytest.raises(StoreError, match=f"chunk {len(chunks) - 1}"):
            open_store(store_path).columns()

    def test_truncated_chunk_during_refresh(self, store_path, split):
        _, tail = split
        store = open_store(store_path)
        store.columns()
        StoreWriter(store_path).append_intervals(tail)
        chunks = sorted((store_path / "chunks").glob("chunk-*.npz"))
        chunks[-1].write_bytes(b"not a zip")
        with pytest.raises(StoreError, match=f"chunk {len(chunks) - 1}"):
            store.refresh()

    def test_row_count_mismatch_names_its_chunk(self, store_path):
        manifest = json.loads((store_path / "manifest.json").read_text())
        manifest["chunks"][0]["rows"] += 1
        manifest["n_intervals"] += 1
        (store_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreIntegrityError, match="chunk 0"):
            open_store(store_path).columns()

    def test_digest_mismatch_is_integrity_error(self, store_path):
        manifest = json.loads((store_path / "manifest.json").read_text())
        manifest["digest"] = "0" * 64
        (store_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreIntegrityError, match="does not match"):
            open_store(store_path).columns()

    def test_refresh_on_deleted_store(self, store_path):
        store = open_store(store_path)
        store.columns()
        shutil.rmtree(store_path)
        with pytest.raises(StoreError, match="missing store manifest"):
            store.refresh()

    def test_refresh_on_rewritten_store(self, store_path, full_trace):
        store = open_store(store_path)
        store.columns()
        save_store(full_trace, store_path, chunk_rows=32, generation=7)
        with pytest.raises(StoreRewrittenError, match="rewritten"):
            store.refresh()

    def test_refresh_digest_mismatch_after_append(self, store_path, split):
        _, tail = split
        store = open_store(store_path)
        store.columns()
        StoreWriter(store_path).append_intervals(tail)
        manifest = json.loads((store_path / "manifest.json").read_text())
        manifest["digest"] = "f" * 64
        (store_path / "manifest.json").write_text(json.dumps(manifest))
        # The known-good prefix rules out local corruption of old chunks, so
        # refresh reports a rewrite; reopening re-verifies from disk and
        # surfaces the damaged manifest as the integrity error it is.
        with pytest.raises(StoreRewrittenError, match="after refresh"):
            store.refresh()
        with pytest.raises(StoreIntegrityError, match="does not match"):
            open_store(store_path).columns()

    def test_refresh_detects_same_layout_rebuild_without_cached_columns(
        self, store_path, split, full_trace
    ):
        prefix, _ = split
        store = open_store(store_path)  # columns never loaded
        # Rebuild with identical chunk layout (same rows, same chunking) but
        # different content: shift every timestamp.
        shifted = Trace(
            [StateInterval(i.start + 0.125, i.end + 0.125, i.resource, i.state)
             for i in prefix.intervals],
            prefix.hierarchy, prefix.states.copy(), prefix.metadata,
        )
        save_store(shifted, store_path, chunk_rows=64, generation=1)
        with pytest.raises(StoreRewrittenError, match="rewritten"):
            store.refresh()

    def test_failed_manifest_publish_leaves_writer_retryable(
        self, store_path, split, monkeypatch
    ):
        _, tail = split
        writer = StoreWriter(store_path)
        import repro.store.writer as writer_module

        real_replace = writer_module.os.replace
        calls = {"n": 0}

        def flaky_replace(src, dst):
            # Match the filename only — the pytest tmp dir of this very test
            # contains the substring "manifest" in its path.
            if Path(dst).name == "manifest.json" and calls["n"] == 0:
                calls["n"] += 1
                raise OSError("disk full")
            return real_replace(src, dst)

        monkeypatch.setattr(writer_module.os, "replace", flaky_replace)
        with pytest.raises(StoreError, match="cannot publish manifest"):
            writer.append_intervals(tail)
        # The failed commit must not have poisoned the rolling digest: the
        # retry succeeds and the store verifies end to end.
        assert writer.append_intervals(tail) == 1
        open_store(store_path).columns()


class TestRefresh:
    def test_refresh_returns_exact_tail(self, store_path, split):
        _, tail = split
        store = open_store(store_path)
        before = store.columns().n_rows
        StoreWriter(store_path).append_intervals(tail)
        got = store.refresh()
        assert got.n_rows == len(tail)
        assert store.n_intervals == before + len(tail)
        assert np.array_equal(got.starts, np.array([row[0] for row in tail]))
        assert store.refresh() is None

    def test_refresh_without_loaded_columns(self, store_path, split):
        _, tail = split
        store = open_store(store_path)  # columns never touched
        StoreWriter(store_path).append_intervals(tail)
        got = store.refresh()
        assert got.n_rows == len(tail)
        assert store.columns().n_rows == store.n_intervals

    def test_refresh_invalidates_models(self, store_path, split):
        _, tail = split
        store = open_store(store_path)
        old_model = store.model(5)
        StoreWriter(store_path).append_intervals(tail)
        store.refresh()
        new_model = store.model(5)
        assert new_model is not old_model
        assert new_model.slicing.end >= max(row[1] for row in tail)


class TestSyncStore:
    def test_create_append_unchanged_rebuild_cycle(self, tmp_path, full_trace):
        intervals = list(full_trace.intervals)
        cut = len(intervals) // 2
        prefix = Trace(
            intervals[:cut], full_trace.hierarchy, full_trace.states.copy(),
            full_trace.metadata,
        )
        path = tmp_path / "s.rtz"
        assert sync_store(prefix, path).action == "created"
        assert sync_store(prefix, path).action == "unchanged"
        result = sync_store(full_trace, path)
        assert result.action == "appended"
        assert result.appended_rows == len(intervals) - cut
        assert result.generation == 1
        # Content identical to a one-shot convert.
        reference = save_store(full_trace, tmp_path / "ref.rtz")
        assert open_store(path).digest == reference.digest

    def test_new_resource_triggers_rebuild_with_bumped_generation(self, tmp_path, full_trace):
        path = tmp_path / "s.rtz"
        sync_store(full_trace, path)
        last = full_trace.intervals[-1]
        from repro.core.hierarchy import Hierarchy

        paths = [leaf.path for leaf in full_trace.hierarchy.leaves]
        grown_hierarchy = Hierarchy.from_paths(paths + [("extra", "r_new")])
        grown = Trace(
            list(full_trace.intervals)
            + [StateInterval(last.end + 1.0, last.end + 2.0, "r_new", "state0")],
            grown_hierarchy,
            full_trace.states.copy(),
            full_trace.metadata,
        )
        result = sync_store(grown, path)
        assert result.action == "rebuilt"
        assert result.generation == 1
        assert open_store(path).n_intervals == full_trace.n_intervals + 1

    def test_rewritten_history_triggers_rebuild(self, tmp_path, full_trace):
        intervals = list(full_trace.intervals)
        path = tmp_path / "s.rtz"
        sync_store(full_trace, path)
        edited = Trace(
            [StateInterval(intervals[0].start, intervals[0].end + 0.25,
                           intervals[0].resource, intervals[0].state)]
            + intervals[1:],
            full_trace.hierarchy, full_trace.states.copy(), full_trace.metadata,
        )
        result = sync_store(edited, path)
        assert result.action == "rebuilt"
        assert result.generation == 1

    def test_writer_reuse_across_polls(self, tmp_path, full_trace):
        intervals = list(full_trace.intervals)
        cut1, cut2 = len(intervals) // 3, 2 * len(intervals) // 3

        def prefix(n):
            return Trace(
                intervals[:n], full_trace.hierarchy, full_trace.states.copy(),
                full_trace.metadata,
            )

        path = tmp_path / "s.rtz"
        first = sync_store(prefix(cut1), path)
        assert first.action == "created" and first.writer is None
        second = sync_store(prefix(cut2), path, writer=first.writer)
        assert second.action == "appended" and second.writer is not None
        third = sync_store(full_trace, path, writer=second.writer)
        assert third.action == "appended"
        assert third.writer is second.writer  # the steady state reuses it
        assert sync_store(full_trace, path, writer=third.writer).action == "unchanged"
        reference = save_store(full_trace, tmp_path / "ref.rtz")
        assert open_store(path).digest == reference.digest

    def test_rebuilt_store_columns_match_trace(self, tmp_path, full_trace):
        path = tmp_path / "s.rtz"
        sync_store(full_trace, path)
        meta_changed = Trace(
            list(full_trace.intervals), full_trace.hierarchy,
            full_trace.states.copy(), {"run": "second"},
        )
        assert sync_store(meta_changed, path).action == "rebuilt"
        store = open_store(path)
        got = store.columns()
        want = meta_changed.columns()
        assert np.array_equal(got.starts, want.starts)
        assert store.metadata == {"run": "second"}
