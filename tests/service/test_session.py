"""Tests for AnalysisEngine: caching, sweeps, parameter validation."""

from __future__ import annotations

import pytest

from repro.core.microscopic import MicroscopicModel
from repro.core.parameters import quality_curve
from repro.core.spatiotemporal import SpatiotemporalAggregator
from repro.pipeline import (
    ANALYSIS_SCHEMA,
    MAX_SLICES,
    SWEEP_SCHEMA,
    AnalysisEngine,
    AnalysisRequest,
    PipelineError,
    SweepRequest,
)
from repro.store import save_store, trace_digest
from repro.trace.synthetic import block_trace


@pytest.fixture(scope="module")
def trace():
    return block_trace(n_resources=8, n_slices=12, n_blocks_time=3, seed=11)


@pytest.fixture()
def session(trace):
    return AnalysisEngine(trace, name="blocks")


class TestCaching:
    def test_first_query_misses_then_hits(self, session):
        assert session.cache_info() == {
            "hits": 0, "misses": 0, "entries": 0, "max_entries": 128,
        }
        first = session.execute(AnalysisRequest.from_query(p=0.5, slices=12))
        info = session.cache_info()
        assert (info["hits"], info["misses"]) == (0, 1)
        second = session.execute(AnalysisRequest.from_query(p=0.5, slices=12))
        info = session.cache_info()
        assert (info["hits"], info["misses"]) == (1, 1)
        assert first == second

    def test_distinct_parameters_are_distinct_entries(self, session):
        session.execute(AnalysisRequest.from_query(p=0.3, slices=12))
        session.execute(AnalysisRequest.from_query(p=0.7, slices=12))
        session.execute(AnalysisRequest.from_query(p=0.3, slices=12, operator="sum"))
        assert session.cache_info()["entries"] == 3

    def test_lru_eviction(self, trace):
        session = AnalysisEngine(trace, cache_size=2)
        session.execute(AnalysisRequest.from_query(p=0.1, slices=12))
        session.execute(AnalysisRequest.from_query(p=0.5, slices=12))
        session.execute(AnalysisRequest.from_query(p=0.9, slices=12))
        info = session.cache_info()
        assert info["entries"] == 2
        # p=0.1 was evicted: querying it again is a miss.
        session.execute(AnalysisRequest.from_query(p=0.1, slices=12))
        assert session.cache_info()["misses"] == 4

    def test_cache_key_is_content_addressed(self, trace, tmp_path):
        store = save_store(trace, tmp_path / "t.rtz")
        memory_session = AnalysisEngine(trace, name="memory")
        store_session = AnalysisEngine(store, name="store")
        assert memory_session.digest == store_session.digest == trace_digest(trace)
        request = AnalysisRequest.from_query(p=0.6, slices=12)
        assert memory_session.execute(request) == store_session.execute(request)


class TestPayload:
    def test_payload_matches_direct_pipeline(self, trace, session):
        payload = session.execute_dict(AnalysisRequest.from_query(p=0.5, slices=12))
        assert payload["schema"] == ANALYSIS_SCHEMA
        model = MicroscopicModel.from_trace(trace, n_slices=12)
        partition = SpatiotemporalAggregator(model).run(0.5)
        assert payload["partition"]["size"] == partition.size
        assert payload["partition"]["gain"] == pytest.approx(partition.gain())
        assert payload["partition"]["loss"] == pytest.approx(partition.loss())
        assert len(payload["partition"]["aggregates"]) == partition.size
        assert payload["trace"]["digest"] == session.digest
        assert payload["params"] == {
            "p": 0.5, "slices": 12, "operator": "mean", "anomaly_threshold": 0.1,
        }

    def test_aggregate_coverage_is_complete(self, session):
        payload = session.execute_dict(AnalysisRequest.from_query(p=0.5, slices=12))
        cells = sum(
            (a["leaf_end"] - a["leaf_start"]) * (a["slice_end"] - a["slice_start"] + 1)
            for a in payload["partition"]["aggregates"]
        )
        assert cells == payload["model"]["n_resources"] * payload["model"]["n_slices"]


class TestSweep:
    def test_explicit_ps_matches_quality_curve(self, trace, session):
        payload = session.run_sweep(SweepRequest.from_query(ps=[0.0, 0.5, 1.0], slices=12))
        assert payload["schema"] == SWEEP_SCHEMA
        assert payload["significant"] is None
        model = MicroscopicModel.from_trace(trace, n_slices=12)
        points = quality_curve(SpatiotemporalAggregator(model), ps=[0.0, 0.5, 1.0])
        assert [point["p"] for point in payload["points"]] == [0.0, 0.5, 1.0]
        for got, expected in zip(payload["points"], points):
            assert got["size"] == expected.size
            assert got["gain"] == pytest.approx(expected.gain)
            assert got["loss"] == pytest.approx(expected.loss)

    def test_default_sweep_reports_significant_parameters(self, session):
        payload = session.run_sweep(SweepRequest.from_query(slices=12))
        assert payload["significant"] is not None
        assert [point["p"] for point in payload["points"]] == payload["significant"]
        assert 0.0 in payload["significant"]


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"p": -0.1}, {"p": 1.1}, {"p": "high"},
        {"slices": 0}, {"slices": MAX_SLICES + 1},
        {"operator": "median"},
    ])
    def test_bad_parameters_raise_service_error(self, session, kwargs):
        with pytest.raises(PipelineError):
            session.execute(AnalysisRequest.from_query(**kwargs))

    def test_bad_sweep_ps(self, session):
        with pytest.raises(PipelineError):
            session.run_sweep(SweepRequest.from_query(ps=["fast"], slices=12))
        with pytest.raises(PipelineError):
            session.run_sweep(SweepRequest.from_query(ps=[0.5, 2.0], slices=12))

    def test_unsupported_source_rejected(self):
        with pytest.raises(PipelineError, match="unsupported session source"):
            AnalysisEngine("not-a-trace")

    def test_summary_shapes(self, trace, session, tmp_path):
        info = session.summary()
        assert info["name"] == "blocks"
        assert info["source"] == "memory"
        assert info["n_intervals"] == trace.n_intervals
        store_session = AnalysisEngine(save_store(trace, tmp_path / "t.rtz"), name="st")
        store_info = store_session.summary()
        assert store_info["source"] == "store"
        assert store_info["digest"] == info["digest"]
