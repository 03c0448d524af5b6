"""Hammer tests for :class:`SessionRegistry` LRU eviction under concurrency.

The registry opens corpus members lazily outside its lock and settles the
race under it.  The invariants hammered here:

* **no double-open of the same digest** — at most one session per name is
  ever *retained*; a thread that lost the open race is handed the winner's
  session, and every returned session answers with the member's manifest
  digest;
* **the LRU bound holds** — resident corpus sessions never exceed
  ``max_sessions``, and the ``opened`` / ``evicted`` counters reconcile with
  residency;
* **no serving of an evicted session's stale cache** — a member evicted and
  then grown on disk is reopened at the new generation; its payloads quote
  the new digest, never the pre-append snapshot.
"""

from __future__ import annotations

import threading
from collections import defaultdict

import pytest

from repro.batch import load_corpus
from repro.pipeline import AnalysisRequest
from repro.service import SessionRegistry
from repro.store import StoreWriter, open_store, save_store
from repro.trace.synthetic import block_trace


@pytest.fixture()
def corpus_of_stores(tmp_path):
    """Six single-trace stores in one corpus directory, digests recorded."""
    digests = {}
    for index in range(6):
        trace = block_trace(
            n_resources=4, n_slices=8, n_blocks_time=2, seed=100 + index
        )
        store = save_store(trace, tmp_path / f"m{index}.rtz")
        digests[f"m{index}"] = store.digest
    return load_corpus(tmp_path), digests


class TestHammer:
    def test_concurrent_opens_respect_digests_and_the_lru_bound(
        self, corpus_of_stores
    ):
        corpus, digests = corpus_of_stores
        registry = SessionRegistry(corpus=corpus, max_sessions=2)
        names = sorted(digests)
        errors: list[BaseException] = []
        seen: "defaultdict[str, set[str]]" = defaultdict(set)
        seen_lock = threading.Lock()
        start = threading.Barrier(8)

        def hammer(thread_index: int) -> None:
            try:
                start.wait(timeout=10)
                for round_index in range(12):
                    name = names[(thread_index + round_index) % len(names)]
                    session = registry.get(name)
                    payload = session.execute_dict(AnalysisRequest.from_query(p=0.5, slices=8))
                    with seen_lock:
                        seen[name].add(payload["trace"]["digest"])
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors

        # Every answer carried the member's manifest digest — no cross-wiring,
        # no torn session state, regardless of eviction pressure.
        for name in names:
            assert seen[name] == {digests[name]}, name

        stats = registry.stats()
        assert stats["n_resident"] <= 2
        # opened - evicted == currently resident corpus sessions.
        assert stats["opened"] - stats["evicted"] == stats["n_resident"]
        # With 6 names behind a 2-slot LRU, reopen churn must have happened.
        assert stats["evicted"] > 0

    def test_same_name_race_returns_one_retained_session(self, corpus_of_stores):
        corpus, digests = corpus_of_stores
        registry = SessionRegistry(corpus=corpus, max_sessions=4)
        start = threading.Barrier(8)
        got: list[object] = []
        got_lock = threading.Lock()

        def race() -> None:
            start.wait(timeout=10)
            session = registry.get("m0")
            with got_lock:
                got.append(session)

        threads = [threading.Thread(target=race) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(got) == 8
        # All racers converge on the retained session: the registry discarded
        # every duplicate open in favour of the first one it kept.
        retained = registry.get("m0")
        assert all(session is retained for session in got)
        assert registry.stats()["opened"] == 1

    def test_eviction_never_serves_a_stale_generation(self, corpus_of_stores, tmp_path):
        corpus, digests = corpus_of_stores
        registry = SessionRegistry(corpus=corpus, max_sessions=1)
        before = registry.get("m0").execute_dict(AnalysisRequest.from_query(p=0.5, slices=8))
        assert before["trace"]["generation"] == 0

        # Evict m0 by touching other members (max_sessions=1).
        registry.get("m1")
        registry.get("m2")

        # The trace grows on disk while no session holds it.
        store = open_store(tmp_path / "m0.rtz")
        end = store.end
        resource = store.hierarchy.leaf_names[0]
        state = list(store.states.names)[0]
        writer = StoreWriter(store.path)
        writer.append_intervals([(end + 0.5, end + 1.0, resource, state)])
        grown = open_store(tmp_path / "m0.rtz")
        assert grown.generation == 1

        # Reopening through the registry must see the grown content; the
        # evicted session's generation-0 cache is unreachable.
        after = registry.get("m0").execute_dict(AnalysisRequest.from_query(p=0.5, slices=8))
        assert after["trace"]["generation"] == 1
        assert after["trace"]["digest"] == grown.digest
        assert after["trace"]["digest"] != before["trace"]["digest"]
        assert after["trace"]["n_intervals"] == before["trace"]["n_intervals"] + 1
