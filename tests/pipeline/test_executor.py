"""Tests for the pipeline executor and resolver: payloads by construction.

The acceptance invariant of the pipeline layer: ``repro analyze --json``,
``POST /analyze`` and per-member batch payloads are the *same function* —
:func:`repro.pipeline.executor.analyze_source` through
:mod:`repro.pipeline.payloads` — so byte-identity needs no diffing.
"""

from __future__ import annotations

import json

import pytest

from repro.batch.corpus import entry_for_path
from repro.batch.runner import analyze_entry
from repro.cli import main
from repro.pipeline import (
    AnalysisEngine,
    AnalysisRequest,
    MemorySource,
    PipelineError,
    StoreSource,
    SweepRequest,
    WindowSpec,
    analyze_source,
    as_source,
    resolve_path,
    serialize_payload,
)
from repro.store import save_store, trace_digest
from repro.trace.io import write_csv, write_paje
from repro.trace.synthetic import block_trace


@pytest.fixture(scope="module")
def trace():
    return block_trace(n_resources=8, n_slices=12, n_blocks_time=3, seed=11)


@pytest.fixture(scope="module")
def corpus_csv(tmp_path_factory, trace):
    path = tmp_path_factory.mktemp("pipe") / "t.csv"
    write_csv(trace, path)
    return path


class TestResolver:
    def test_csv_resolves_to_memory_source(self, corpus_csv, trace):
        from repro.trace.io import read_csv

        source = resolve_path(corpus_csv)
        assert isinstance(source, MemorySource)
        assert source.digest == trace_digest(read_csv(corpus_csv))
        assert source.generation == 0
        assert source.n_intervals == trace.n_intervals

    def test_store_resolves_to_store_source(self, tmp_path, trace):
        store = save_store(trace, tmp_path / "t.rtz")
        source = resolve_path(tmp_path / "t.rtz")
        assert isinstance(source, StoreSource)
        assert source.digest == store.digest
        assert source.summary()["source"] == "store"

    def test_paje_resolves_by_suffix(self, tmp_path, trace):
        paje = tmp_path / "t.paje"
        write_paje(trace, paje)
        source = resolve_path(paje)
        assert isinstance(source, MemorySource)
        assert source.n_intervals == trace.n_intervals

    def test_as_source_rejects_junk(self):
        with pytest.raises(PipelineError, match="unsupported session source"):
            as_source("not-a-trace")

    def test_missing_file_propagates(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            resolve_path(tmp_path / "nope.csv")


class TestByteIdentityByConstruction:
    REQUEST = AnalysisRequest(p=0.6, slices=12)

    def test_cli_engine_and_batch_member_share_the_serializer(
        self, corpus_csv, capsys
    ):
        # CLI adapter
        assert main(["analyze", str(corpus_csv), "--json", "--slices", "12",
                     "-p", "0.6"]) == 0
        cli_text = capsys.readouterr().out.rstrip("\n")
        # one-shot pipeline path
        one_shot = analyze_source(resolve_path(corpus_csv), self.REQUEST)
        assert one_shot.payload_text() == cli_text
        # cached engine path (what POST /analyze serves)
        engine = AnalysisEngine(resolve_path(corpus_csv), name="t")
        assert engine.execute(self.REQUEST) == cli_text
        # batch member path
        payload, _ = analyze_entry(entry_for_path(corpus_csv), p=0.6, slices=12)
        assert serialize_payload(payload) == cli_text

    def test_windowed_cli_matches_engine(self, corpus_csv, capsys):
        assert main(["analyze", str(corpus_csv), "--json", "--slices", "12",
                     "--window", "last:4"]) == 0
        cli_text = capsys.readouterr().out.rstrip("\n")
        engine = AnalysisEngine(resolve_path(corpus_csv))
        request = AnalysisRequest(slices=12, window=WindowSpec.last(4))
        assert engine.execute(request) == cli_text

    def test_engine_cache_hits_are_the_same_bytes(self, trace):
        engine = AnalysisEngine(trace)
        first = engine.execute(self.REQUEST)
        second = engine.execute(self.REQUEST)
        assert first == second
        assert engine.cache_info()["hits"] == 1

    def test_operator_flows_through_every_path(self, corpus_csv, capsys):
        for operator in ("max", "std"):
            assert main(["analyze", str(corpus_csv), "--json", "--slices", "12",
                         "--operator", operator]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["params"]["operator"] == operator
            one_shot = analyze_source(
                resolve_path(corpus_csv),
                AnalysisRequest(slices=12, operator=operator),
            )
            assert one_shot.payload() == payload


class TestEngineSweep:
    def test_run_sweep_validates_hand_built_requests(self, trace):
        engine = AnalysisEngine(trace)
        with pytest.raises(PipelineError, match="slices"):
            engine.run_sweep(SweepRequest(slices=0))
        with pytest.raises(PipelineError, match="unknown operator"):
            engine.run_sweep(SweepRequest(slices=12, operator="bogus"))
        with pytest.raises(PipelineError, match="ps must be a list of numbers"):
            engine.run_sweep(SweepRequest(ps=("fast",), slices=12))  # type: ignore[arg-type]

    def test_search_sweep_reuses_the_searched_partitions(self, trace, monkeypatch):
        from repro.core.parameters import find_significant_parameters, quality_curve
        from repro.core.spatiotemporal import SpatiotemporalAggregator

        engine = AnalysisEngine(trace)
        aggregator = engine.aggregator(12, "mean")
        significant = find_significant_parameters(aggregator)
        expected = quality_curve(aggregator, ps=significant)

        runs = []
        original = SpatiotemporalAggregator.run
        monkeypatch.setattr(
            SpatiotemporalAggregator,
            "run",
            lambda self, p, jobs=None: runs.append(p) or original(self, p, jobs),
        )
        payload = engine.run_sweep(SweepRequest(slices=12))
        # One DP per probed p: the curve adds none on top of the search.
        assert len(runs) == len(set(runs))
        assert payload["significant"] == significant
        assert [(q["p"], q["size"], q["gain"], q["loss"]) for q in payload["points"]] == [
            (q.p, q.size, q.gain, q.loss) for q in expected
        ]

    def test_sweep_window_and_operator(self, trace):
        engine = AnalysisEngine(trace)
        payload = engine.run_sweep(
            SweepRequest(ps=(0.2, 0.8), slices=12, operator="sum",
                         window=WindowSpec.last(6))
        )
        assert payload["params"]["operator"] == "sum"
        assert payload["params"]["last_k_slices"] == 6
        assert payload["window"]["slices"] == [6, 12]
        assert [point["p"] for point in payload["points"]] == [0.2, 0.8]
