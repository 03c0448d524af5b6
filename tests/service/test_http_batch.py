"""HTTP tests for POST /batch and POST /compare (corpus-served registry)."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.batch import discover_corpus, load_corpus, run_batch, write_corpus_manifest
from repro.cli import main
from repro.service import SessionRegistry, build_server
from repro.pipeline.payloads import serialize_payload
from repro.store import save_store
from repro.trace.io import write_csv
from repro.trace.synthetic import phased_trace, random_trace


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("served_corpus")
    calm = phased_trace(
        n_resources=8,
        phase_durations=(2.0, 6.0, 2.0),
        phase_states=("init", "compute", "finalize"),
    )
    noisy = phased_trace(
        n_resources=8,
        phase_durations=(2.0, 6.0, 2.0),
        phase_states=("init", "compute", "finalize"),
        perturbed_resources=(2, 3),
        perturbation_window=(4.0, 5.0),
        perturbation_state="MPI_Wait",
    )
    save_store(calm, root / "calm.rtz")
    save_store(noisy, root / "noisy.rtz")
    write_csv(random_trace(n_resources=8, n_slices=10, n_states=3, seed=5), root / "extra.csv")
    write_corpus_manifest(discover_corpus(root))
    return root


@pytest.fixture(scope="module")
def server(corpus_dir):
    registry = SessionRegistry(corpus=load_corpus(corpus_dir), max_sessions=2)
    server = build_server(registry, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def _post(server, path, body):
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.server_address[1]}{path}",
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request) as rsp:
            return rsp.status, rsp.read().decode()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode()


class TestBatchEndpoint:
    def test_batch_all_traces(self, server):
        status, body = _post(server, "/v1/batch", {"slices": 10})
        assert status == 200
        payload = json.loads(body)
        assert payload["schema"] == "repro.batch/1"
        assert sorted(payload["results"]) == ["calm", "extra", "noisy"]
        assert [row["rank"] for row in payload["summary"]] == [1, 2, 3]

    def test_batch_subset(self, server):
        status, body = _post(server, "/v1/batch", {"traces": ["calm"], "slices": 10})
        assert status == 200
        payload = json.loads(body)
        assert list(payload["results"]) == ["calm"]
        assert payload["corpus"]["n_traces"] == 1

    def test_batch_matches_cli_byte_identically(self, server, corpus_dir):
        status, body = _post(server, "/v1/batch", {"slices": 10})
        assert status == 200
        cli = run_batch(load_corpus(corpus_dir), slices=10, jobs=1)
        assert body == serialize_payload(cli.payload()) + "\n"

    def test_batch_ranks_perturbed_trace_higher(self, server):
        _, body = _post(server, "/v1/batch", {"traces": ["calm", "noisy"], "slices": 10})
        summary = json.loads(body)["summary"]
        assert summary[0]["name"] == "noisy"

    def test_batch_unknown_trace_is_404(self, server):
        status, body = _post(server, "/v1/batch", {"traces": ["ghost"]})
        assert status == 404
        assert "unknown trace" in json.loads(body)["error"]["message"]

    def test_batch_traces_must_be_a_list_of_names(self, server):
        status, body = _post(server, "/v1/batch", {"traces": "calm"})
        assert status == 400
        assert "list of served trace names" in json.loads(body)["error"]["message"]

    def test_batch_bad_parameter_is_400(self, server):
        status, body = _post(server, "/v1/batch", {"p": 3.0})
        assert status == 400
        assert "p must be" in json.loads(body)["error"]["message"]

    def test_batch_empty_selection_is_400(self, server):
        status, body = _post(server, "/v1/batch", {"traces": []})
        assert status == 400
        assert "selects no traces" in json.loads(body)["error"]["message"]

    def test_batch_records_unreadable_member_and_keeps_going(self, tmp_path):
        """A corrupt corpus member lands in the payload's errors section with
        its path (like run_batch), not a 500 aborting the healthy traces."""
        import threading

        for seed in (0, 1):
            save_store(
                random_trace(n_resources=4, n_slices=6, n_states=2, seed=seed),
                tmp_path / f"t{seed}.rtz",
            )
        write_corpus_manifest(discover_corpus(tmp_path))
        # Tamper with t1 after the digests were pinned.
        save_store(
            random_trace(n_resources=4, n_slices=6, n_states=2, seed=9),
            tmp_path / "t1.rtz",
        )
        registry = SessionRegistry(corpus=load_corpus(tmp_path))
        server = build_server(registry, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            status, body = _post(server, "/v1/batch", {"slices": 6})
        finally:
            server.shutdown()
            server.server_close()
        assert status == 200
        payload = json.loads(body)
        assert list(payload["results"]) == ["t0"]
        [error] = payload["errors"]
        assert error["name"] == "t1"
        assert "t1.rtz" in error["path"]
        assert error["kind"] == "CorpusIntegrityError"
        assert payload["corpus"] == {"n_traces": 2, "n_analyzed": 1, "n_failed": 1}

    def test_batch_memory_stays_bounded_by_the_lru(self, server):
        """Analyzing the whole corpus must not pin every session at once."""
        status, _ = _post(server, "/v1/batch", {"slices": 10})
        assert status == 200
        assert server.registry.stats()["n_resident"] <= server.registry.max_sessions


class TestCompareEndpoint:
    def test_compare_two_served_traces(self, server):
        status, body = _post(server, "/v1/compare", {"a": "calm", "b": "noisy", "slices": 10})
        assert status == 200
        payload = json.loads(body)
        assert payload["schema"] == "repro.compare/1"
        assert payload["a"]["name"] == "calm"
        assert payload["b"]["name"] == "noisy"
        assert payload["deviation_delta"] is not None

    def test_compare_is_byte_identical_to_cli(self, server, corpus_dir, capsys):
        status, body = _post(server, "/v1/compare", {"a": "calm", "b": "noisy", "slices": 10})
        assert status == 200
        assert main([
            "compare", str(corpus_dir / "calm.rtz"), str(corpus_dir / "noisy.rtz"),
            "--slices", "10", "--json",
        ]) == 0
        assert body == capsys.readouterr().out

    def test_compare_requires_both_names(self, server):
        status, body = _post(server, "/v1/compare", {"a": "calm"})
        assert status == 400
        assert "must name two" in json.loads(body)["error"]["message"]

    def test_compare_unknown_name_is_404(self, server):
        status, body = _post(server, "/v1/compare", {"a": "calm", "b": "ghost"})
        assert status == 404
        assert "unknown trace" in json.loads(body)["error"]["message"]

    def test_compare_detects_the_perturbation_shift(self, server):
        _, body = _post(server, "/v1/compare", {"a": "calm", "b": "noisy", "slices": 10})
        payload = json.loads(body)
        top = payload["deviation_delta"][0]
        assert top["delta"] < 0  # side b (noisy) is more blocked
        assert payload["summary_delta"]["heterogeneity"]["delta"] < 0


class TestCorpusServing:
    def test_traces_lists_available_names(self, server):
        with urllib.request.urlopen(
            f"http://127.0.0.1:{server.server_address[1]}/v1/traces"
        ) as rsp:
            payload = json.loads(rsp.read())
        assert payload["available"] == ["calm", "extra", "noisy"]

    def test_health_reports_registry_stats(self, server):
        with urllib.request.urlopen(
            f"http://127.0.0.1:{server.server_address[1]}/v1/health"
        ) as rsp:
            payload = json.loads(rsp.read())
        assert payload["registry"]["max_sessions"] == 2
        assert payload["registry"]["n_traces"] == 3

    def test_analyze_still_works_against_corpus_member(self, server):
        status, body = _post(server, "/v1/analyze", {"trace": "extra", "slices": 10})
        assert status == 200
        assert json.loads(body)["trace"]["n_resources"] == 8
