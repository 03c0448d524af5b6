"""Tests for the HTTP front-end, including CLI/service byte-identity."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.pipeline import AnalysisEngine, PipelineError
from repro.service import build_server
from repro.store import open_store
from repro.trace.synthetic import block_trace, phased_trace


@pytest.fixture(scope="module")
def server():
    sessions = {
        "blocks": AnalysisEngine(
            block_trace(n_resources=8, n_slices=12, n_blocks_time=3, seed=11), name="blocks"
        ),
        "phased": AnalysisEngine(phased_trace(n_resources=8), name="phased"),
    }
    server = build_server(sessions, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def _get(server, path):
    with urllib.request.urlopen(f"http://127.0.0.1:{server.server_address[1]}{path}") as rsp:
        return rsp.status, json.loads(rsp.read())


def _post(server, path, body):
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.server_address[1]}{path}",
        data=json.dumps(body).encode() if body is not None else b"",
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request) as rsp:
            return rsp.status, rsp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


class TestEndpoints:
    def test_health(self, server):
        status, payload = _get(server, "/v1/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["n_traces"] == 2
        assert set(payload["cache"]) == {"hits", "misses", "entries"}

    def test_traces_listing(self, server):
        status, payload = _get(server, "/v1/traces")
        assert status == 200
        names = [entry["name"] for entry in payload["traces"]]
        assert names == ["blocks", "phased"]
        assert all(len(entry["digest"]) == 64 for entry in payload["traces"])

    def test_analyze_requires_trace_name_with_many_traces(self, server):
        status, body = _post(server, "/v1/analyze", {"p": 0.5})
        assert status == 404
        assert "must name one" in json.loads(body)["error"]["message"]

    def test_analyze_named_trace(self, server):
        status, body = _post(server, "/v1/analyze", {"trace": "blocks", "p": 0.5, "slices": 12})
        assert status == 200
        payload = json.loads(body)
        assert payload["params"]["p"] == 0.5
        assert payload["trace"]["n_resources"] == 8

    def test_analyze_is_cached_and_stable(self, server):
        body1 = _post(server, "/v1/analyze", {"trace": "blocks", "p": 0.25, "slices": 12})[1]
        before = _get(server, "/v1/health")[1]["cache"]["hits"]
        body2 = _post(server, "/v1/analyze", {"trace": "blocks", "p": 0.25, "slices": 12})[1]
        after = _get(server, "/v1/health")[1]["cache"]["hits"]
        assert body1 == body2
        assert after == before + 1

    def test_sweep(self, server):
        status, body = _post(
            server, "/v1/sweep", {"trace": "blocks", "ps": [0.0, 1.0], "slices": 12}
        )
        assert status == 200
        payload = json.loads(body)
        assert [point["p"] for point in payload["points"]] == [0.0, 1.0]

    def test_unknown_trace_404(self, server):
        status, body = _post(server, "/v1/analyze", {"trace": "nope"})
        assert status == 404

    def test_bad_parameter_400(self, server):
        status, body = _post(server, "/v1/analyze", {"trace": "blocks", "p": 7})
        assert status == 400
        assert "p must be in" in json.loads(body)["error"]["message"]

    def test_bad_anomaly_threshold_400(self, server):
        status, body = _post(
            server, "/v1/analyze",
            {"trace": "blocks", "slices": 12, "anomaly_threshold": "abc"},
        )
        assert status == 400
        assert "anomaly_threshold" in json.loads(body)["error"]["message"]

    def test_malformed_content_length_400(self, server):
        import http.client

        conn = http.client.HTTPConnection(
            "127.0.0.1", server.server_address[1], timeout=5
        )
        try:
            conn.putrequest("POST", "/v1/analyze")
            conn.putheader("Content-Length", "abc")
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400
            assert b"Content-Length" in response.read()
        finally:
            conn.close()

    def test_oversized_body_400_and_connection_closed(self, server):
        import http.client

        from repro.service.http import MAX_BODY_BYTES

        conn = http.client.HTTPConnection(
            "127.0.0.1", server.server_address[1], timeout=5
        )
        try:
            conn.putrequest("POST", "/v1/analyze")
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400
            # The unread body poisons the connection; the server must not
            # advertise keep-alive for it.
            assert response.getheader("Connection") == "close"
        finally:
            conn.close()

    def test_bad_json_400(self, server):
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.server_address[1]}/v1/analyze",
            data=b"{invalid",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_unknown_endpoint_404(self, server):
        status, _ = _post(server, "/nope", {})
        assert status == 404
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"http://127.0.0.1:{server.server_address[1]}/missing"
            )
        assert excinfo.value.code == 404

    def test_empty_registry_rejected(self):
        with pytest.raises(PipelineError):
            build_server({}, port=0)


class TestByteIdentity:
    """Acceptance: CLI --json and POST /analyze agree byte for byte."""

    @pytest.mark.parametrize("operator", ["mean", "sum"])
    def test_csv_cli_vs_served_store(self, tmp_path, capsys, operator):
        csv_path = tmp_path / "case_a.csv"
        assert main([
            "simulate", "--case", "A", "--processes", "16", "--iterations", "4",
            "--platform-scale", "0.25", "--output", str(csv_path),
        ]) == 0
        capsys.readouterr()
        store_path = tmp_path / "case_a.rtz"
        assert main(["convert", str(csv_path), str(store_path)]) == 0
        capsys.readouterr()
        assert main([
            "analyze", str(csv_path), "--json", "--slices", "20", "-p", "0.6",
            "--operator", operator,
        ]) == 0
        cli_output = capsys.readouterr().out

        session = AnalysisEngine(open_store(store_path), name="case_a")
        server = build_server({"case_a": session}, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            status, body = _post(
                server, "/v1/analyze", {"p": 0.6, "slices": 20, "operator": operator}
            )
        finally:
            server.shutdown()
            server.server_close()
        assert status == 200
        assert body.decode("utf-8") == cli_output

    def test_store_cli_matches_csv_cli(self, tmp_path, capsys):
        csv_path = tmp_path / "t.csv"
        assert main([
            "simulate", "--case", "A", "--processes", "8", "--iterations", "3",
            "--platform-scale", "0.25", "--output", str(csv_path),
        ]) == 0
        capsys.readouterr()
        store_path = tmp_path / "t.rtz"
        assert main(["convert", str(csv_path), str(store_path)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(csv_path), "--json", "--slices", "15"]) == 0
        from_csv = capsys.readouterr().out
        assert main(["analyze", str(store_path), "--json", "--slices", "15"]) == 0
        from_store = capsys.readouterr().out
        assert from_csv == from_store
