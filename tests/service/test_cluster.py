"""Tentpole tests: the sharded service tier behind the consistent-hash front.

Byte-identity between ``--shards 1`` and ``--shards N`` is the load-bearing
property — the front proxies raw bytes and rebuilds only the batch merge
through the same payload function the shards use — plus the failure
semantics: shard death answers 503 (and respawns when supervised), SIGTERM
drains front and workers to a zero exit.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.batch import discover_corpus, load_corpus, write_corpus_manifest
from repro.service import SessionRegistry, build_server
from repro.service.cluster import (
    ClusterConfig,
    HashRing,
    plan_cluster,
    routing_digest,
    start_cluster,
)
from repro.store import save_store
from repro.trace.synthetic import random_trace

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _request(port, method, path, body=None, timeout=30):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(body).encode() if body is not None else None,
        headers={"Content-Type": "application/json"} if body is not None else {},
        method=method,
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as rsp:
            return rsp.status, rsp.read(), dict(rsp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read(), dict(exc.headers)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cluster-corpus")
    for seed in range(4):
        save_store(
            random_trace(n_resources=4, n_slices=6, n_states=2, seed=seed),
            root / f"t{seed}.rtz",
        )
    write_corpus_manifest(discover_corpus(root))
    return root


@pytest.fixture(scope="module")
def cluster(corpus_dir):
    """A 2-shard cluster over the corpus (supervisor off for determinism)."""
    handle = start_cluster(
        [], corpus=corpus_dir, shards=2, port=0,
        config=ClusterConfig(respawn=False, request_timeout=30.0),
    )
    thread = threading.Thread(target=handle.serve_forever, daemon=True)
    thread.start()
    yield handle
    handle.close()


@pytest.fixture(scope="module")
def single(corpus_dir):
    """The reference: one in-process server over the same corpus."""
    server = build_server(SessionRegistry(corpus=load_corpus(corpus_dir)), port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


class TestHashRing:
    def test_deterministic_and_covering(self):
        ring = HashRing(4)
        owners = {ring.lookup(f"digest-{i}") for i in range(200)}
        assert owners == {0, 1, 2, 3}
        assert [ring.lookup("x")] * 3 == [HashRing(4).lookup("x")] * 3

    def test_scaling_moves_few_keys(self):
        before = HashRing(4)
        after = HashRing(5)
        keys = [f"digest-{i}" for i in range(500)]
        moved = sum(before.lookup(k) != after.lookup(k) for k in keys)
        # Consistent hashing: ~1/5 of keys move, never a full reshuffle.
        assert moved < len(keys) // 2

    def test_rejects_zero_shards(self):
        from repro.pipeline import PipelineError

        with pytest.raises(PipelineError, match="at least one shard"):
            HashRing(0)


class TestPlanning:
    def test_every_trace_routed_once(self, corpus_dir):
        specs, routing = plan_cluster([], corpus=corpus_dir, shards=3)
        assert sorted(routing) == ["t0", "t1", "t2", "t3"]
        assert len(specs) == 3
        owned = [name for spec in specs for name in spec.owned]
        assert sorted(owned) == sorted(routing)
        for spec in specs:
            assert all(routing[name] == spec.index for name in spec.owned)

    def test_routing_digest_prefers_manifest_pin(self, corpus_dir):
        entry = load_corpus(corpus_dir).entry("t0")
        assert entry.digest is not None
        assert routing_digest(entry) == entry.digest


class TestByteIdentity:
    @pytest.mark.parametrize("name", ["t0", "t1", "t2", "t3"])
    def test_analyze_identical_to_single_server(self, cluster, single, name):
        body = {"trace": name, "p": 0.5, "slices": 6}
        single_port = single.server_address[1]
        cluster_port = cluster.address[1]
        assert _request(single_port, "POST", "/v1/analyze", body)[:2] == _request(
            cluster_port, "POST", "/v1/analyze", body
        )[:2]

    def test_batch_fanout_identical(self, cluster, single):
        for body in (
            {"p": 0.5, "slices": 6},
            {"traces": ["t3", "t0"], "p": 0.5, "slices": 6},
        ):
            assert _request(
                single.server_address[1], "POST", "/v1/batch", body
            )[:2] == _request(cluster.address[1], "POST", "/v1/batch", body)[:2]

    def test_cross_shard_compare_identical(self, cluster, single):
        routing = cluster.server.routing
        names = sorted(routing)
        # Prefer a pair owned by different shards when the ring split one off.
        pairs = [(a, b) for a in names for b in names if routing[a] != routing[b]]
        a, b = pairs[0] if pairs else (names[0], names[-1])
        body = {"a": a, "b": b, "slices": 6}
        assert _request(
            single.server_address[1], "POST", "/v1/compare", body
        )[:2] == _request(cluster.address[1], "POST", "/v1/compare", body)[:2]

    def test_canonical_errors_identical(self, cluster, single):
        cases = [
            ("/v1/analyze", {"trace": "zzz"}),
            ("/v1/analyze", {"trace": "t0", "p": 7}),
            ("/v1/batch", {"traces": []}),
            ("/v1/compare", {"a": "t0"}),
        ]
        for path, body in cases:
            assert _request(single.server_address[1], "POST", path, body)[
                :2
            ] == _request(cluster.address[1], "POST", path, body)[:2]

    def test_traces_listing_merged_and_paginated(self, cluster):
        status, body, _ = _request(cluster.address[1], "GET", "/v1/traces?limit=3")
        payload = json.loads(body)
        assert status == 200
        assert payload["available"] == ["t0", "t1", "t2", "t3"]
        assert [t["name"] for t in payload["traces"]] == ["t0", "t1", "t2"]
        assert payload["meta"] == {
            "limit": 3, "next_offset": 3, "offset": 0, "total": 4
        }


class TestClusterHealth:
    def test_probes(self, cluster):
        port = cluster.address[1]
        assert _request(port, "GET", "/healthz")[0] == 200
        status, body, _ = _request(port, "GET", "/readyz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ready"
        assert payload["shards"] == 2
        assert payload["inflight"] == 0
        assert payload["max_inflight"] > 0
        assert [s["index"] for s in payload["shard_status"]] == [0, 1]
        assert all(s["alive"] for s in payload["shard_status"])
        assert all(s["respawns"] == 0 for s in payload["shard_status"])

    def test_health_aggregates_shards(self, cluster):
        status, body, _ = _request(cluster.address[1], "GET", "/v1/health")
        payload = json.loads(body)
        assert status == 200
        assert payload["api"] == "v1"
        assert payload["n_traces"] == 4
        assert payload["cluster"]["shards"] == 2
        assert payload["cluster"]["alive"] == 2
        assert set(payload["cache"]) == {"hits", "misses", "entries"}


class TestShardDeath:
    """Requires its own cluster: these tests kill workers."""

    def test_dead_shard_answers_503_then_respawn_recovers(self, corpus_dir):
        handle = start_cluster(
            [], corpus=corpus_dir, shards=2, port=0,
            config=ClusterConfig(respawn=False),
        )
        thread = threading.Thread(target=handle.serve_forever, daemon=True)
        thread.start()
        try:
            port = handle.address[1]
            name = sorted(handle.server.routing)[0]
            victim = handle.shards[handle.server.routing[name]]
            victim.process.kill()
            victim.process.join(5.0)

            status, body, headers = _request(
                port, "POST", "/v1/analyze", {"trace": name, "slices": 6}
            )
            envelope = json.loads(body)["error"]
            assert status == 503
            assert envelope["code"] == "shard_unavailable"
            assert f"shard {victim.index}" in envelope["message"]
            assert headers.get("Retry-After") == "1"

            status, body, _ = _request(port, "GET", "/readyz")
            assert status == 503
            assert json.loads(body)["error"]["code"] == "not_ready"

            # Manual respawn (what the supervisor does) restores service.
            victim.respawn()
            status, _, _ = _request(
                port, "POST", "/v1/analyze", {"trace": name, "slices": 6}
            )
            assert status == 200
            assert victim.respawns == 1
            status, body, _ = _request(port, "GET", "/v1/health")
            assert json.loads(body)["cluster"]["respawns"] == 1
        finally:
            handle.close()

    def test_supervisor_respawns_automatically(self, corpus_dir):
        handle = start_cluster(
            [], corpus=corpus_dir, shards=1, port=0,
            config=ClusterConfig(respawn=True, respawn_poll=0.05),
        )
        thread = threading.Thread(target=handle.serve_forever, daemon=True)
        thread.start()
        try:
            port = handle.address[1]
            shard = handle.shards[0]
            shard.process.kill()
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                status, _, _ = _request(port, "GET", "/readyz", timeout=5)
                if status == 200:
                    break
                time.sleep(0.1)
            assert shard.respawns >= 1
            status, _, _ = _request(
                port, "POST", "/v1/analyze", {"trace": "t0", "slices": 6}
            )
            assert status == 200
        finally:
            handle.close()


class TestClusterSigterm:
    def test_sigterm_drains_front_and_workers(self, tmp_path):
        from repro.trace.io import write_csv
        from repro.trace.synthetic import block_trace

        csv = tmp_path / "t.csv"
        write_csv(
            block_trace(n_resources=4, n_slices=8, n_blocks_time=2, seed=4), csv
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONUNBUFFERED"] = "1"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(csv),
             "--shards", "2", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
        )
        try:
            assert process.stdout is not None
            line = process.stdout.readline()
            match = re.search(r"http://[^:]+:(\d+)", line)
            assert match, f"no serving banner in {line!r}"
            assert "across 2 shard(s)" in line
            port = int(match.group(1))
            deadline = time.monotonic() + 15
            while True:
                status, _, _ = _request(port, "GET", "/readyz", timeout=2)
                if status == 200:
                    break
                if time.monotonic() > deadline:
                    raise AssertionError("cluster never became ready")
                time.sleep(0.1)
            status, _, _ = _request(
                port, "POST", "/v1/analyze", {"p": 0.5, "slices": 8}
            )
            assert status == 200
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=20) == 0
            stderr = process.stderr.read() if process.stderr else ""
            assert "Traceback" not in stderr
            assert "shutdown complete" in stderr
        finally:
            if process.poll() is None:
                process.kill()
            process.wait(timeout=10)


class TestClusterMetricsGauges:
    def test_front_reports_scraped_and_skipped_shards(self, cluster):
        port = cluster.address[1]
        status, body, _ = _request(port, "GET", "/v1/metrics")
        assert status == 200
        text = body.decode("utf-8")
        # Both shards answered: the scrape is complete and says so.  A
        # partial scrape (dead shard) must be visible to alerting instead of
        # silently shrinking the exposition.
        assert 'repro_shards_scraped{tier="front"} 2' in text
        assert 'repro_shards_skipped{tier="front"} 0' in text

    def test_dead_shard_counts_as_skipped(self, corpus_dir):
        handle = start_cluster(
            [], corpus=corpus_dir, shards=2, port=0,
            config=ClusterConfig(respawn=False, request_timeout=10.0),
        )
        thread = threading.Thread(target=handle.serve_forever, daemon=True)
        thread.start()
        try:
            handle.shards[1].process.terminate()
            handle.shards[1].process.join(timeout=10)
            port = handle.address[1]
            status, body, _ = _request(port, "GET", "/v1/metrics")
            assert status == 200
            text = body.decode("utf-8")
            assert 'repro_shards_scraped{tier="front"} 1' in text
            assert 'repro_shards_skipped{tier="front"} 1' in text
        finally:
            handle.close()


class TestClusterWatchRelay:
    def test_watch_stream_relays_through_the_front(self, cluster):
        port = cluster.address[1]
        url = (
            f"http://127.0.0.1:{port}/v1/watch/events"
            "?trace=t0&poll=0.01&max_polls=3"
        )
        with urllib.request.urlopen(url, timeout=30) as response:
            assert response.status == 200
            assert response.headers["Content-Type"] == "text/event-stream"
            body = response.read().decode("utf-8")
        assert "event: baseline\n" in body
        assert ": keep-alive\n\n" in body  # idle polls heartbeat end to end

    def test_watch_error_envelopes_relay(self, cluster):
        port = cluster.address[1]
        status, body, _ = _request(port, "GET", "/v1/watch/events?trace=absent")
        assert status == 404
        assert json.loads(body)["error"]["code"] == "not_found"
        status, body, _ = _request(port, "GET", "/v1/watch/events?poll=junk")
        assert status == 400
        assert json.loads(body)["error"]["field"] == "poll"
