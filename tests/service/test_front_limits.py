"""Front-end guard-rails: proxy timeouts, the in-flight bound, rate limiting.

These tests stand up the real :class:`ClusterFrontServer` over *fake* shard
endpoints (tiny stdlib HTTP servers with scripted latency), so the 504/429
paths are exercised deterministically without multiprocessing or real
analysis work.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.pipeline import PipelineError
from repro.service.cluster import (
    ClusterConfig,
    ClusterFrontServer,
    TokenBucketLimiter,
)


class _FakeShard:
    """Duck-typed stand-in for ShardHandle: a scripted local HTTP endpoint."""

    def __init__(self, index, delay=0.0):
        self.index = index
        self.host = "127.0.0.1"
        self.respawns = 0
        self.delay = delay
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, format, *args):  # noqa: A002
                pass

            def _answer(self):
                if outer.delay:
                    time.sleep(outer.delay)
                data = json.dumps({"shard": outer.index}).encode() + b"\n"
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def do_GET(self):  # noqa: N802
                self._answer()

            def do_POST(self):  # noqa: N802
                length = int(self.headers.get("Content-Length") or 0)
                self.rfile.read(length)
                self._answer()

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.server.daemon_threads = True
        self.port = self.server.server_address[1]
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    def alive(self):
        return True

    def stop(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture()
def front_factory():
    created = []

    def build(config, delay=0.0):
        shard = _FakeShard(0, delay=delay)
        front = ClusterFrontServer(
            ("127.0.0.1", 0), [shard], {"t": 0}, config
        )
        thread = threading.Thread(target=front.serve_forever, daemon=True)
        thread.start()
        created.append((front, shard))
        return front

    yield build
    for front, shard in created:
        front.shutdown()
        front.server_close()
        shard.stop()


def _post(port, path, body=None, timeout=10, headers=None):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(body or {}).encode(),
        headers={"Content-Type": "application/json", **(headers or {})},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as rsp:
            return rsp.status, rsp.read(), dict(rsp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read(), dict(exc.headers)


class TestTokenBucketLimiter:
    def test_burst_then_throttle(self):
        limiter = TokenBucketLimiter(rate=2.0, burst=2.0)
        assert limiter.acquire("c", now=0.0) == 0.0
        assert limiter.acquire("c", now=0.0) == 0.0
        assert limiter.acquire("c", now=0.0) == pytest.approx(0.5)

    def test_refills_over_time(self):
        limiter = TokenBucketLimiter(rate=1.0, burst=1.0)
        assert limiter.acquire("c", now=0.0) == 0.0
        assert limiter.acquire("c", now=0.1) > 0.0
        assert limiter.acquire("c", now=1.2) == 0.0

    def test_clients_are_independent(self):
        limiter = TokenBucketLimiter(rate=1.0, burst=1.0)
        assert limiter.acquire("a", now=0.0) == 0.0
        assert limiter.acquire("b", now=0.0) == 0.0

    def test_invalid_configuration_rejected(self):
        with pytest.raises(PipelineError, match="positive"):
            TokenBucketLimiter(rate=0.0)
        with pytest.raises(PipelineError, match="at least one request"):
            TokenBucketLimiter(rate=1.0, burst=0.5)
        with pytest.raises(PipelineError, match="sweep interval"):
            TokenBucketLimiter(rate=1.0, sweep_interval=0.0)

    def test_idle_buckets_are_pruned_so_the_map_stays_bounded(self):
        # 1000 one-shot clients churn through; after each sweep window only
        # the buckets still below full burst may remain resident.
        limiter = TokenBucketLimiter(rate=1.0, burst=2.0, sweep_interval=10.0)
        for i in range(1000):
            limiter.acquire(f"client-{i}", now=float(i))
        # At rate 1/s a bucket refills its one spent token in 1s, so by each
        # sweep tick every earlier client is back at full burst and evicted.
        assert len(limiter) <= 11  # one sweep window of clients, not 1000

    def test_sweep_keeps_draining_buckets(self):
        limiter = TokenBucketLimiter(rate=1.0, burst=5.0, sweep_interval=2.0)
        limiter.acquire("idle", now=0.0)  # back to full burst by t=1
        for now in (0.0, 0.5, 1.0):
            limiter.acquire("busy", now=now)  # 3 tokens down, full only at t=3
        limiter.acquire("late", now=2.0)  # crosses the sweep deadline
        # "idle" refilled and was evicted; "busy" is still draining and must
        # keep its debt (evicting it would hand the client a fresh burst).
        assert len(limiter) == 2
        # At t=2 "busy" holds 4 effective tokens (burned 3, refilled 1): the
        # drained state survived, so only 4 more requests pass before 429s.
        for _ in range(4):
            assert limiter.acquire("busy", now=2.0) == 0.0
        assert limiter.acquire("busy", now=2.0) > 0.0

    def test_pruned_client_restarts_with_full_burst(self):
        limiter = TokenBucketLimiter(rate=1.0, burst=1.0, sweep_interval=5.0)
        assert limiter.acquire("c", now=0.0) == 0.0
        assert limiter.acquire("c", now=0.1) > 0.0
        limiter.acquire("other", now=10.0)  # triggers the sweep
        # "c" has long refilled to burst: eviction must not change behaviour.
        assert limiter.acquire("c", now=10.0) == 0.0


class TestProxyTimeout:
    def test_slow_shard_answers_504(self, front_factory):
        front = front_factory(
            ClusterConfig(respawn=False, request_timeout=0.2), delay=2.0
        )
        port = front.server_address[1]
        status, body, _ = _post(port, "/v1/analyze", {"trace": "t"})
        envelope = json.loads(body)["error"]
        assert status == 504
        assert envelope["code"] == "shard_timeout"
        assert "did not answer within 0.2s" in envelope["message"]


class TestInflightBound:
    def test_over_capacity_answers_429_with_retry_after(self, front_factory):
        front = front_factory(
            ClusterConfig(respawn=False, max_inflight=1, request_timeout=30.0),
            delay=1.0,
        )
        port = front.server_address[1]
        first = threading.Thread(
            target=_post, args=(port, "/v1/analyze", {"trace": "t"}), daemon=True
        )
        first.start()
        time.sleep(0.3)  # the slow request is now holding the one slot
        status, body, headers = _post(port, "/v1/batch", {})
        envelope = json.loads(body)["error"]
        assert status == 429
        assert envelope["code"] == "overloaded"
        assert "in-flight capacity (1 requests)" in envelope["message"]
        assert headers.get("Retry-After") == "1"
        first.join(timeout=10)

    def test_unlimited_routes_bypass_the_bound(self, front_factory):
        front = front_factory(
            ClusterConfig(respawn=False, max_inflight=1, request_timeout=30.0),
            delay=0.5,
        )
        port = front.server_address[1]
        first = threading.Thread(
            target=_post, args=(port, "/v1/analyze", {"trace": "t"}), daemon=True
        )
        first.start()
        time.sleep(0.2)
        # /v1/sweep is not cluster_limited: it proxies even at capacity.
        status, _, _ = _post(port, "/v1/sweep", {"trace": "t"})
        assert status == 200
        first.join(timeout=10)


class TestRateLimit:
    def test_client_over_rate_answers_429(self, front_factory):
        front = front_factory(
            ClusterConfig(respawn=False, rate_limit=1.0, rate_burst=2.0)
        )
        port = front.server_address[1]
        assert _post(port, "/v1/sweep", {"trace": "t"})[0] == 200
        assert _post(port, "/v1/sweep", {"trace": "t"})[0] == 200
        status, body, headers = _post(port, "/v1/sweep", {"trace": "t"})
        envelope = json.loads(body)["error"]
        assert status == 429
        assert envelope["code"] == "rate_limited"
        assert "exceeded the rate limit" in envelope["message"]
        assert int(headers["Retry-After"]) >= 1

    def test_gets_are_never_rate_limited(self, front_factory):
        front = front_factory(
            ClusterConfig(respawn=False, rate_limit=1.0, rate_burst=1.0)
        )
        port = front.server_address[1]
        for _ in range(5):
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=5
            ) as rsp:
                assert rsp.status == 200

    def test_off_by_default(self, front_factory):
        front = front_factory(ClusterConfig(respawn=False))
        port = front.server_address[1]
        for _ in range(10):
            assert _post(port, "/v1/sweep", {"trace": "t"})[0] == 200


class TestForwardedFor:
    """Rate-limit keying behind a reverse proxy (``trust_forwarded_for``)."""

    def test_header_ignored_by_default(self, front_factory):
        # Untrusted: every connection keys on the socket peer (127.0.0.1
        # here), so spoofed X-Forwarded-For identities share one bucket.
        front = front_factory(
            ClusterConfig(respawn=False, rate_limit=1.0, rate_burst=2.0)
        )
        port = front.server_address[1]
        for i, expected in enumerate((200, 200, 429)):
            status, _, _ = _post(
                port, "/v1/sweep", {"trace": "t"},
                headers={"X-Forwarded-For": f"10.0.0.{i}"},
            )
            assert status == expected

    def test_trusted_header_keys_per_originating_client(self, front_factory):
        # Trusted: each X-Forwarded-For first hop gets its own bucket even
        # though every connection arrives from the same proxy address.
        front = front_factory(
            ClusterConfig(
                respawn=False, rate_limit=1.0, rate_burst=1.0,
                trust_forwarded_for=True,
            )
        )
        port = front.server_address[1]
        for i in range(5):
            status, _, _ = _post(
                port, "/v1/sweep", {"trace": "t"},
                headers={"X-Forwarded-For": f"10.0.0.{i}, 192.168.0.1"},
            )
            assert status == 200
        # The same originating client, again through the proxy: throttled.
        status, body, _ = _post(
            port, "/v1/sweep", {"trace": "t"},
            headers={"X-Forwarded-For": "10.0.0.0, 192.168.0.1"},
        )
        assert status == 429
        assert json.loads(body)["error"]["code"] == "rate_limited"
        assert "10.0.0.0" in json.loads(body)["error"]["message"]

    def test_trusted_but_absent_header_falls_back_to_peer(self, front_factory):
        front = front_factory(
            ClusterConfig(
                respawn=False, rate_limit=1.0, rate_burst=1.0,
                trust_forwarded_for=True,
            )
        )
        port = front.server_address[1]
        assert _post(port, "/v1/sweep", {"trace": "t"})[0] == 200
        status, _, _ = _post(port, "/v1/sweep", {"trace": "t"},
                             headers={"X-Forwarded-For": "   "})
        assert status == 429  # blank header also falls back to the peer key
