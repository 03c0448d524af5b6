"""Golden-corpus regression suite.

The committed corpus under ``tests/data/corpus`` (four scaled-down Table II
scenarios as CSV, digest-pinned by ``corpus.json``) and the frozen payloads
under ``goldens/`` are re-derived **bit-identically** here:

* simulation determinism — re-running each seeded scenario writes a CSV
  byte-identical to the committed one;
* analysis determinism — analyzing each committed CSV at the golden
  parameters serializes byte-identically to its golden payload;
* batch / compare determinism — the corpus batch payload and the frozen
  comparison pair match their goldens byte for byte.

Regenerate after an *intentional* output change with::

    PYTHONPATH=src python tests/data/corpus/regenerate.py

See ``tests/README.md`` for the golden-corpus convention.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.batch import (
    CorpusIntegrityError,
    analysis_params,
    analyze_entry,
    compare_payload,
    load_corpus,
    run_batch,
)
from repro.pipeline.payloads import serialize_payload
from repro.trace.io import write_csv

CORPUS_DIR = Path(__file__).resolve().parents[1] / "data" / "corpus"
GOLDEN_DIR = CORPUS_DIR / "goldens"


def _load_regenerate_module():
    spec = importlib.util.spec_from_file_location(
        "golden_corpus_regenerate", CORPUS_DIR / "regenerate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_REGEN = _load_regenerate_module()
GOLDEN_CASES = sorted(_REGEN.GOLDEN_CASES)
GOLDEN_PARAMS = _REGEN.GOLDEN_PARAMS


@pytest.fixture(scope="module")
def corpus():
    return load_corpus(CORPUS_DIR)


class TestCorpusManifest:
    def test_manifest_pins_all_four_cases(self, corpus):
        assert corpus.names == GOLDEN_CASES
        assert all(entry.digest for entry in corpus)
        assert all(entry.kind == "csv" for entry in corpus)

    def test_digest_verification_passes_on_committed_content(self, corpus):
        for entry in corpus:
            entry.load()  # digest-pinned: raises on any drift

    def test_digest_verification_catches_tampering(self, corpus, tmp_path):
        import shutil

        copy = tmp_path / "corpus"
        shutil.copytree(CORPUS_DIR, copy, ignore=shutil.ignore_patterns("goldens", "*.py"))
        victim = copy / "case_a.csv"
        lines = victim.read_text().splitlines()
        lines[1] = lines[1].replace(lines[1].split(",")[1], "Tampered", 1)
        victim.write_text("\n".join(lines) + "\n")
        tampered = load_corpus(copy)
        with pytest.raises(CorpusIntegrityError):
            tampered.entry("case_a").load()


class TestSimulationDeterminism:
    @pytest.mark.parametrize("name", GOLDEN_CASES)
    def test_resimulation_reproduces_committed_csv(self, name, tmp_path):
        trace = _REGEN.simulate_case(name)
        fresh = tmp_path / f"{name}.csv"
        write_csv(trace, fresh)
        assert fresh.read_bytes() == (CORPUS_DIR / f"{name}.csv").read_bytes()


class TestAnalysisGoldens:
    @pytest.mark.parametrize("name", GOLDEN_CASES)
    def test_analysis_payload_matches_golden_bit_identically(self, corpus, name):
        payload, _ = analyze_entry(corpus.entry(name), **GOLDEN_PARAMS)
        expected = (GOLDEN_DIR / f"{name}.analysis.json").read_text()
        assert serialize_payload(payload) + "\n" == expected

    def test_batch_payload_matches_golden(self, corpus):
        result = run_batch(corpus, jobs=1, **GOLDEN_PARAMS)
        assert result.ok
        expected = (GOLDEN_DIR / "batch.json").read_text()
        assert serialize_payload(result.payload()) + "\n" == expected

    def test_batch_parallel_matches_golden(self, corpus):
        result = run_batch(corpus, jobs=2, **GOLDEN_PARAMS)
        expected = (GOLDEN_DIR / "batch.json").read_text()
        assert serialize_payload(result.payload()) + "\n" == expected

    def test_compare_payload_matches_golden(self, corpus):
        a, b = _REGEN.COMPARE_PAIR
        payload_a, model_a = analyze_entry(corpus.entry(a), **GOLDEN_PARAMS)
        payload_b, model_b = analyze_entry(corpus.entry(b), **GOLDEN_PARAMS)
        comparison = compare_payload(
            a, payload_a, model_a, b, payload_b, model_b,
            analysis_params(**GOLDEN_PARAMS),
        )
        expected = (GOLDEN_DIR / f"compare_{a}_{b}.json").read_text()
        assert serialize_payload(comparison) + "\n" == expected

    def test_goldens_are_canonical_json(self):
        for path in sorted(GOLDEN_DIR.glob("*.json")):
            text = path.read_text()
            payload = json.loads(text)
            assert serialize_payload(payload) + "\n" == text, path

    @pytest.mark.parametrize("name", GOLDEN_CASES)
    def test_golden_partitions_are_frozen_structures(self, name):
        """The goldens freeze actual partitions/criteria, not trivia."""
        payload = json.loads((GOLDEN_DIR / f"{name}.analysis.json").read_text())
        assert payload["schema"] == "repro.analysis/1"
        assert payload["params"] == GOLDEN_PARAMS
        assert payload["partition"]["size"] >= 1
        assert len(payload["partition"]["aggregates"]) == payload["partition"]["size"]
        assert payload["partition"]["gain"] > 0
