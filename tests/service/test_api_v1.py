"""Versioned-API satellites: /v1 routes, the retired unversioned paths, the
error envelope, traces pagination and the k8s-style probes — on the
single-process server (the cluster front is covered by test_cluster.py /
test_front_limits.py, and here only for the retired paths).
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.batch import discover_corpus, write_corpus_manifest
from repro.pipeline.errors import ERROR_CODES, error_envelope
from repro.pipeline import AnalysisEngine
from repro.service import build_server
from repro.service.cluster import ClusterConfig, start_cluster
from repro.service.routes import ROUTES, parse_traces_query, resolve_route
from repro.store import save_store
from repro.trace.synthetic import block_trace, phased_trace

#: The unversioned paths that used to alias /v1 routes; they now answer 404.
RETIRED_PATHS = (
    ("GET", "/health"),
    ("GET", "/traces"),
    ("POST", "/analyze"),
    ("POST", "/sweep"),
    ("POST", "/append"),
    ("POST", "/batch"),
    ("POST", "/compare"),
)


@pytest.fixture(scope="module")
def server():
    sessions = {
        "blocks": AnalysisEngine(
            block_trace(n_resources=8, n_slices=12, n_blocks_time=3, seed=11),
            name="blocks",
        ),
        "phased": AnalysisEngine(phased_trace(n_resources=8), name="phased"),
    }
    server = build_server(sessions, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture(scope="module")
def front(tmp_path_factory):
    """A 1-shard cluster front: the retired paths must 404 there too."""
    root = tmp_path_factory.mktemp("api-v1-corpus")
    save_store(
        block_trace(n_resources=4, n_slices=6, n_blocks_time=2, seed=3),
        root / "t.rtz",
    )
    write_corpus_manifest(discover_corpus(root))
    handle = start_cluster(
        [], corpus=root, shards=1, port=0,
        config=ClusterConfig(respawn=False, request_timeout=30.0),
    )
    thread = threading.Thread(target=handle.serve_forever, daemon=True)
    thread.start()
    yield handle.server
    handle.close()


def _request(server, method, path, body=None):
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.server_address[1]}{path}",
        data=json.dumps(body).encode() if body is not None else None,
        headers={"Content-Type": "application/json"} if body is not None else {},
        method=method,
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as rsp:
            return rsp.status, rsp.read(), dict(rsp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read(), dict(exc.headers)


class TestRouteTable:
    def test_every_route_resolves_canonically(self):
        for route in ROUTES:
            assert resolve_route(route.method, route.path) is route

    def test_trailing_slash_tolerated(self):
        assert resolve_route("POST", "/v1/analyze/").name == "analyze"

    def test_unknown_route_is_none(self):
        assert resolve_route("GET", "/v2/analyze") is None
        assert resolve_route("DELETE", "/v1/analyze") is None


class TestVersionedRoutes:
    def test_v1_paths_answer(self, server):
        status, body, headers = _request(
            server, "POST", "/v1/analyze", {"trace": "blocks", "slices": 12}
        )
        assert status == 200
        assert json.loads(body)["meta"]["api"] == "v1"

    def test_health_quotes_api_version(self, server):
        status, body, _ = _request(server, "GET", "/v1/health")
        assert status == 200
        payload = json.loads(body)
        assert payload["api"] == "v1"
        assert payload["version"]


class TestRetiredPaths:
    @pytest.mark.parametrize(
        "method,path", RETIRED_PATHS, ids=[path for _, path in RETIRED_PATHS]
    )
    def test_unversioned_path_answers_not_found(self, server, front, method, path):
        assert resolve_route(method, path) is None
        body = {} if method == "POST" else None
        for target in (server, front):
            status, raw, _ = _request(target, method, path, body)
            assert status == 404
            assert json.loads(raw) == error_envelope(
                f"no such endpoint: {path}", code="not_found"
            )


class TestErrorEnvelope:
    def test_envelope_helper_shape(self):
        assert error_envelope("boom", code="not_found", field="trace") == {
            "error": {"code": "not_found", "message": "boom", "field": "trace"}
        }

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError, match="unknown error code"):
            error_envelope("boom", code="nope")

    def test_codes_map_to_http_statuses(self):
        assert ERROR_CODES["invalid_request"] == 400
        assert ERROR_CODES["not_found"] == 404
        assert ERROR_CODES["stale_generation"] == 409
        assert ERROR_CODES["rate_limited"] == ERROR_CODES["overloaded"] == 429
        assert ERROR_CODES["shard_unavailable"] == 503
        assert ERROR_CODES["shard_timeout"] == 504

    @pytest.mark.parametrize(
        "path,body,status,code,message_part,field",
        [
            # Historical messages, preserved verbatim inside the new envelope.
            ("/v1/analyze", {"p": 0.5}, 404, "not_found", "must name one", None),
            ("/v1/analyze", {"trace": "blocks", "p": 7}, 400, "invalid_request",
             "p must be in", "p"),
            ("/v1/analyze", {"trace": "blocks", "anomaly_threshold": "x"}, 400,
             "invalid_request", "anomaly_threshold", "anomaly_threshold"),
            ("/v1/analyze", {"trace": "zzz"}, 404, "not_found", "unknown trace", None),
            ("/v1/batch", {"traces": "blocks"}, 400, "invalid_request",
             "list of served trace names", None),
            ("/v1/batch", {"traces": []}, 400, "invalid_request",
             "selects no traces", None),
            ("/v1/compare", {"a": "blocks"}, 400, "invalid_request",
             "must name two", None),
            ("/v1/append", {"trace": "blocks"}, 400, "invalid_request",
             "intervals", None),
        ],
    )
    def test_envelope_on_every_error(
        self, server, path, body, status, code, message_part, field
    ):
        got_status, got_body, _ = _request(server, "POST", path, body)
        assert got_status == status
        envelope = json.loads(got_body)["error"]
        assert envelope["code"] == code
        assert message_part in envelope["message"]
        assert envelope["field"] == field

    def test_unknown_endpoint_is_enveloped(self, server):
        status, body, _ = _request(server, "GET", "/nope")
        assert status == 404
        assert json.loads(body)["error"]["code"] == "not_found"


class TestTracesPagination:
    def test_default_listing(self, server):
        status, body, _ = _request(server, "GET", "/v1/traces")
        payload = json.loads(body)
        assert status == 200
        assert [t["name"] for t in payload["traces"]] == ["blocks", "phased"]
        assert payload["meta"]["total"] == 2
        assert payload["meta"]["next_offset"] is None

    def test_limit_and_offset(self, server):
        status, body, _ = _request(server, "GET", "/v1/traces?limit=1")
        payload = json.loads(body)
        assert [t["name"] for t in payload["traces"]] == ["blocks"]
        assert payload["meta"] == {
            "limit": 1, "next_offset": 1, "offset": 0, "total": 2
        }
        status, body, _ = _request(server, "GET", "/v1/traces?limit=1&offset=1")
        payload = json.loads(body)
        assert [t["name"] for t in payload["traces"]] == ["phased"]
        assert payload["meta"]["next_offset"] is None

    def test_digest_filter(self, server):
        _, body, _ = _request(server, "GET", "/v1/traces")
        digest = json.loads(body)["traces"][0]["digest"]
        status, body, _ = _request(server, "GET", f"/v1/traces?digest={digest}")
        payload = json.loads(body)
        assert [t["name"] for t in payload["traces"]] == ["blocks"]
        assert payload["meta"]["total"] == 1

    def test_invalid_parameters_rejected(self, server):
        status, body, _ = _request(server, "GET", "/v1/traces?limit=x")
        envelope = json.loads(body)["error"]
        assert status == 400
        assert envelope["message"] == "limit must be an integer, got 'x'"
        assert envelope["field"] == "limit"
        status, body, _ = _request(server, "GET", "/v1/traces?offset=-1")
        assert status == 400
        status, body, _ = _request(server, "GET", "/v1/traces?nope=1")
        assert status == 400
        assert "unknown query parameter" in json.loads(body)["error"]["message"]

    def test_parse_traces_query_units(self):
        assert parse_traces_query("") == (100, 0, None)
        assert parse_traces_query("limit=0") == (None, 0, None)
        assert parse_traces_query("limit=5&offset=2&digest=abc") == (5, 2, "abc")


class TestProbes:
    def test_healthz(self, server):
        status, body, _ = _request(server, "GET", "/healthz")
        assert status == 200
        assert json.loads(body) == {"status": "ok"}

    def test_readyz_single_process(self, server):
        status, body, _ = _request(server, "GET", "/readyz")
        assert status == 200
        assert json.loads(body)["status"] == "ready"
