"""Tests for repro.batch.runner (batch fan-out, error propagation)."""

from __future__ import annotations

import json

import pytest

from repro.batch import (
    BatchWorkerError,
    analyze_entry,
    discover_corpus,
    load_corpus,
    run_batch,
    write_corpus_manifest,
)
from repro.batch import runner as runner_module
from repro.pipeline.payloads import serialize_payload
from repro.store import save_store
from repro.trace.io import write_csv
from repro.trace.synthetic import block_trace, random_trace


@pytest.fixture()
def corpus(tmp_path):
    """Three small traces: two stores, one CSV, digests pinned."""
    save_store(random_trace(n_resources=8, n_slices=10, n_states=3, seed=0), tmp_path / "r0.rtz")
    save_store(block_trace(n_resources=8, n_slices=12, seed=1), tmp_path / "r1.rtz")
    write_csv(random_trace(n_resources=8, n_slices=10, n_states=3, seed=2), tmp_path / "r2.csv")
    write_corpus_manifest(discover_corpus(tmp_path))
    return load_corpus(tmp_path)


class TestRunBatch:
    def test_serial_run_analyzes_every_member(self, corpus):
        result = run_batch(corpus, slices=8, jobs=1)
        assert result.ok
        assert sorted(result.results) == ["r0", "r1", "r2"]

    def test_parallel_matches_serial_bit_identically(self, corpus):
        serial = run_batch(corpus, slices=8, jobs=1)
        parallel = run_batch(corpus, slices=8, jobs=3)
        assert serialize_payload(serial.payload()) == serialize_payload(parallel.payload())

    def test_per_trace_payload_equals_analyze_entry(self, corpus):
        result = run_batch(corpus, slices=8, jobs=1)
        direct, _ = analyze_entry(corpus.entry("r0"), slices=8)
        assert serialize_payload(result.results["r0"]) == serialize_payload(direct)

    def test_payload_carries_ranking_and_params(self, corpus):
        result = run_batch(corpus, p=0.6, slices=8, jobs=1)
        payload = result.payload()
        assert payload["schema"] == "repro.batch/1"
        assert payload["params"] == {
            "p": 0.6, "slices": 8, "operator": "mean", "anomaly_threshold": 0.1,
        }
        ranks = [row["rank"] for row in payload["summary"]]
        assert ranks == [1, 2, 3]
        hets = [row["heterogeneity"] for row in payload["summary"]]
        assert hets == sorted(hets, reverse=True)

    def test_payload_is_json_serializable(self, corpus):
        json.loads(serialize_payload(run_batch(corpus, slices=6).payload()))

    def test_parameter_validation(self, corpus):
        with pytest.raises(ValueError, match="p must be"):
            run_batch(corpus, p=1.5)
        with pytest.raises(ValueError, match="slices"):
            run_batch(corpus, slices=0)
        with pytest.raises(ValueError, match="operator"):
            run_batch(corpus, operator="median")
        with pytest.raises(ValueError, match="jobs"):
            run_batch(corpus, jobs=0)


class TestErrorPropagation:
    def test_missing_member_is_recorded_with_path(self, corpus, tmp_path):
        (tmp_path / "r2.csv").unlink()
        result = run_batch(corpus, slices=8, jobs=1)
        assert not result.ok
        assert sorted(result.results) == ["r0", "r1"]
        [failure] = result.failures
        assert failure.name == "r2"
        assert str(tmp_path / "r2.csv") in failure.path

    def test_corrupt_store_is_recorded_not_raised(self, corpus, tmp_path):
        chunk = next((tmp_path / "r0.rtz" / "chunks").glob("*.npz"))
        chunk.write_bytes(b"garbage")
        result = run_batch(corpus, slices=8, jobs=1)
        assert not result.ok
        [failure] = result.failures
        assert failure.name == "r0"
        assert "r0.rtz" in failure.path

    def test_parallel_run_reports_same_failure(self, corpus, tmp_path):
        (tmp_path / "r2.csv").unlink()
        result = run_batch(corpus, slices=8, jobs=2)
        assert [f.name for f in result.failures] == ["r2"]
        assert str(tmp_path / "r2.csv") in result.failures[0].path

    def test_digest_mismatch_is_recorded(self, corpus, tmp_path):
        text = (tmp_path / "r2.csv").read_text().splitlines()
        text[1] = text[1].replace("state0", "other", 1)
        (tmp_path / "r2.csv").write_text("\n".join(text) + "\n")
        result = run_batch(load_corpus(tmp_path), slices=8, jobs=1)
        [failure] = result.failures
        assert failure.kind == "CorpusIntegrityError"
        assert "does not match" in failure.error

    def test_failure_payload_section(self, corpus, tmp_path):
        (tmp_path / "r2.csv").unlink()
        payload = run_batch(corpus, slices=8).payload()
        assert payload["corpus"] == {"n_traces": 3, "n_analyzed": 2, "n_failed": 1}
        [error] = payload["errors"]
        assert error["name"] == "r2"
        assert "r2.csv" in error["path"]

    def test_worker_pool_crash_names_inflight_trace(self, corpus, monkeypatch):
        """A dead worker (OOM kill, segfault) must not leak BrokenProcessPool."""
        from concurrent.futures.process import BrokenProcessPool

        class CrashingFuture:
            def result(self):
                raise BrokenProcessPool("worker died")

        class CrashingPool:
            def __init__(self, *args, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                return CrashingFuture()

        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", CrashingPool)
        with pytest.raises(BatchWorkerError) as excinfo:
            run_batch(corpus, slices=8, jobs=2)
        message = str(excinfo.value)
        assert "r0.rtz" in message  # the shard in flight is named
        assert "--jobs 1" in message


class TestModelCacheReuse:
    def test_store_members_reuse_persisted_models(self, corpus, tmp_path):
        run_batch(corpus, slices=8, jobs=1)
        from repro.store import open_store

        assert 8 in open_store(tmp_path / "r0.rtz").cached_model_slices()
