"""Engine recovery when the backing store is rewritten underneath it.

Long-lived consumers (the service session, the watch loop) must survive a
``StoreRewrittenError`` raised by the refresh that follows an append — the
rows are durably written, the *rebuild* raced the refresh — by reopening at
the bumped generation instead of answering a 500.
"""

from __future__ import annotations

import pytest

from repro.pipeline import AnalysisRequest
from repro.pipeline.executor import AnalysisEngine
from repro.store import StoreRewrittenError, save_store
from repro.trace.synthetic import random_trace
from repro.trace.trace import Trace


@pytest.fixture()
def trace():
    return random_trace(n_resources=6, n_slices=12, n_states=2, seed=9)


@pytest.fixture()
def parts(trace):
    intervals = list(trace.intervals)
    cut = int(len(intervals) * 0.7)
    prefix = Trace(
        intervals[:cut], trace.hierarchy, trace.states.copy(), trace.metadata
    )
    tail = [(i.start, i.end, i.resource, i.state) for i in intervals[cut:]]
    return prefix, tail


class TestAppendRecovery:
    def test_append_survives_rewrite_race(self, tmp_path, parts, monkeypatch):
        prefix, tail = parts
        store = save_store(prefix, tmp_path / "t.rtz")
        engine = AnalysisEngine(store, name="live")
        # Warm the cache so recovery has something stale to purge.
        request = AnalysisRequest(p=0.7, slices=8)
        before = engine.execute(request)

        real_refresh = store.refresh
        calls = {"n": 0}

        def racing_refresh():
            if calls["n"] == 0:
                calls["n"] += 1
                raise StoreRewrittenError("rebuilt by an external writer")
            return real_refresh()

        monkeypatch.setattr(store, "refresh", racing_refresh)
        receipt = engine.append(tail)

        # The append answered instead of raising; the engine reopened at
        # the on-disk state, which has every row (prefix + our append).
        assert receipt["n_intervals"] == len(prefix.intervals) + len(tail)
        assert engine.generation == receipt["generation"]
        after = engine.execute(request)
        assert after != before  # the stale pre-append result did not survive
        assert engine.execute(request) == after  # and the engine still serves

    def test_refresh_recovery_unchanged(self, tmp_path, parts):
        # The pre-existing refresh() path: full rewrite on disk, refresh
        # absorbs it via reopen (regression guard around the shared helper).
        prefix, _ = parts
        store = save_store(prefix, tmp_path / "t.rtz")
        engine = AnalysisEngine(store, name="live")
        engine.execute(AnalysisRequest(p=0.7, slices=8))
        replacement = random_trace(n_resources=6, n_slices=5, n_states=2, seed=2)
        save_store(replacement, tmp_path / "t.rtz", generation=3)
        receipt = engine.refresh()
        assert receipt["generation"] == 3
        assert receipt["n_intervals"] == len(replacement.intervals)
