"""Tests for the corpus-aware SessionRegistry (LRU-bounded sessions)."""

from __future__ import annotations

import pytest

from repro.batch import discover_corpus, load_corpus, write_corpus_manifest
from repro.pipeline import AnalysisEngine, PipelineError
from repro.service import SessionRegistry
from repro.store import save_store
from repro.trace.io import write_csv
from repro.trace.synthetic import random_trace


@pytest.fixture()
def corpus(tmp_path):
    for seed in range(4):
        save_store(
            random_trace(n_resources=4, n_slices=6, n_states=2, seed=seed),
            tmp_path / f"t{seed}.rtz",
        )
    write_corpus_manifest(discover_corpus(tmp_path))
    return load_corpus(tmp_path)


@pytest.fixture()
def pinned_session(tmp_path):
    trace = random_trace(n_resources=4, n_slices=6, n_states=2, seed=99)
    return AnalysisEngine(trace, name="pinned")


class TestConstruction:
    def test_needs_at_least_one_trace(self):
        with pytest.raises(PipelineError, match="at least one trace"):
            SessionRegistry()

    def test_max_sessions_validated(self, corpus):
        with pytest.raises(PipelineError, match="max_sessions"):
            SessionRegistry(corpus=corpus, max_sessions=0)

    def test_pinned_corpus_name_collision_rejected(self, corpus, tmp_path):
        session = AnalysisEngine(
            random_trace(n_resources=4, n_slices=6, seed=1), name="t1"
        )
        with pytest.raises(PipelineError, match="both pinned and from the corpus"):
            SessionRegistry(sessions={"t1": session}, corpus=corpus)

    def test_names_merge_pinned_and_corpus(self, corpus, pinned_session):
        registry = SessionRegistry(sessions={"pinned": pinned_session}, corpus=corpus)
        assert registry.names() == ["pinned", "t0", "t1", "t2", "t3"]


class TestLazyOpening:
    def test_corpus_sessions_open_on_first_query(self, corpus):
        registry = SessionRegistry(corpus=corpus)
        assert registry.stats()["n_resident"] == 0
        session = registry.get("t0")
        assert session.name == "t0"
        assert registry.stats()["n_resident"] == 1
        assert registry.stats()["opened"] == 1

    def test_second_get_reuses_the_session(self, corpus):
        registry = SessionRegistry(corpus=corpus)
        assert registry.get("t0") is registry.get("t0")
        assert registry.stats()["opened"] == 1

    def test_unknown_name_is_a_lookup_error(self, corpus):
        registry = SessionRegistry(corpus=corpus)
        with pytest.raises(LookupError, match="unknown trace"):
            registry.get("ghost")

    def test_digest_verification_happens_on_open(self, corpus, tmp_path):
        save_store(
            random_trace(n_resources=4, n_slices=6, n_states=2, seed=77),
            tmp_path / "t0.rtz",
        )
        from repro.batch import CorpusIntegrityError

        registry = SessionRegistry(corpus=load_corpus(tmp_path))
        with pytest.raises(CorpusIntegrityError):
            registry.get("t0")


class TestEviction:
    def test_lru_bound_is_enforced(self, corpus):
        registry = SessionRegistry(corpus=corpus, max_sessions=2)
        for name in ["t0", "t1", "t2", "t3"]:
            registry.get(name)
        stats = registry.stats()
        assert stats["n_resident"] == 2
        assert stats["opened"] == 4
        assert stats["evicted"] == 2

    def test_least_recently_used_is_evicted_first(self, corpus):
        registry = SessionRegistry(corpus=corpus, max_sessions=2)
        s0 = registry.get("t0")
        registry.get("t1")
        registry.get("t0")  # refresh t0: t1 is now the LRU entry
        registry.get("t2")  # evicts t1
        assert registry.get("t0") is s0  # still resident
        assert registry.stats()["evicted"] == 1

    def test_evicted_session_reopens_transparently(self, corpus):
        registry = SessionRegistry(corpus=corpus, max_sessions=1)
        first = registry.get("t0")
        registry.get("t1")  # evicts t0
        again = registry.get("t0")
        assert again is not first
        assert again.digest == first.digest

    def test_pinned_sessions_never_evicted(self, corpus, pinned_session):
        registry = SessionRegistry(
            sessions={"pinned": pinned_session}, corpus=corpus, max_sessions=1
        )
        for name in ["t0", "t1", "t2"]:
            registry.get(name)
        assert registry.get("pinned") is pinned_session
        assert registry.stats()["n_resident"] == 2  # pinned + one LRU slot


class TestResolution:
    def test_resolve_single_trace_needs_no_name(self, pinned_session):
        registry = SessionRegistry(sessions={"pinned": pinned_session})
        assert registry.resolve(None) is pinned_session

    def test_resolve_requires_name_with_many_traces(self, corpus):
        registry = SessionRegistry(corpus=corpus)
        with pytest.raises(LookupError, match="must name one"):
            registry.resolve(None)

    def test_resolve_many_defaults_to_every_trace(self, corpus):
        registry = SessionRegistry(corpus=corpus, max_sessions=8)
        sessions = registry.resolve_many(None)
        assert [s.name for s in sessions] == ["t0", "t1", "t2", "t3"]

    def test_resolve_many_with_explicit_names(self, corpus):
        registry = SessionRegistry(corpus=corpus)
        assert [s.name for s in registry.resolve_many(["t2", "t0"])] == ["t2", "t0"]


class TestTracesPayload:
    def test_lists_every_name_with_residency_flags(self, corpus):
        registry = SessionRegistry(corpus=corpus, max_sessions=2)
        registry.get("t1")
        payload = registry.traces_payload()
        assert payload["available"] == ["t0", "t1", "t2", "t3"]
        assert [t["name"] for t in payload["traces"]] == ["t0", "t1", "t2", "t3"]
        residency = {t["name"]: t["resident"] for t in payload["traces"]}
        assert residency == {"t0": False, "t1": True, "t2": False, "t3": False}
        # Non-resident members are listed from the manifest alone (digest
        # pinned there), no trace is opened just to be listed.
        assert registry.stats()["n_resident"] == 1
        assert payload["meta"] == {
            "limit": None, "next_offset": None, "offset": 0, "total": 4
        }

    def test_pagination_and_digest_filter(self, corpus):
        registry = SessionRegistry(corpus=corpus, max_sessions=2)
        page = registry.traces_payload(limit=2, offset=1)
        assert [t["name"] for t in page["traces"]] == ["t1", "t2"]
        assert page["meta"]["total"] == 4
        assert page["meta"]["next_offset"] == 3
        digest = registry.get("t2").summary()["digest"]
        filtered = registry.traces_payload(digest=digest)
        assert [t["name"] for t in filtered["traces"]] == ["t2"]
        assert filtered["meta"]["total"] == 1

    def test_mixed_csv_and_store_corpus(self, tmp_path):
        save_store(random_trace(n_resources=4, n_slices=6, seed=0), tmp_path / "a.rtz")
        write_csv(random_trace(n_resources=4, n_slices=6, seed=1), tmp_path / "b.csv")
        registry = SessionRegistry(corpus=discover_corpus(tmp_path))
        assert registry.get("a").summary()["source"] == "store"
        assert registry.get("b").summary()["source"] == "memory"
