"""Streaming service tests: /append, windowed queries, generations, races.

The concurrency test hammers a live ``ThreadingHTTPServer`` with interleaved
``/analyze`` and ``/append`` requests and asserts the only outcomes are 200s
whose payload is consistent with the generation it claims, or 409s — never a
500 and never a result whose interval count belongs to a different
generation than its payload says.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.pipeline import (
    AnalysisEngine,
    AnalysisRequest,
    PipelineError,
    StaleGenerationError,
    SweepRequest,
)
from repro.service import build_server
from repro.store import StoreWriter, save_store, sync_store
from repro.trace.synthetic import random_trace
from repro.trace.trace import Trace


@pytest.fixture(scope="module")
def full_trace():
    return random_trace(n_resources=8, n_slices=24, n_states=3, seed=11)


@pytest.fixture()
def parts(full_trace):
    """The trace cut into a 60% prefix and four equal live batches."""
    intervals = list(full_trace.intervals)
    cut = int(len(intervals) * 0.6)
    prefix = Trace(
        intervals[:cut], full_trace.hierarchy, full_trace.states.copy(),
        full_trace.metadata,
    )
    tail = [(i.start, i.end, i.resource, i.state) for i in intervals[cut:]]
    quarter = max(len(tail) // 4, 1)
    batches = [tail[i : i + quarter] for i in range(0, len(tail), quarter)]
    return prefix, [batch for batch in batches if batch]


@pytest.fixture()
def session(tmp_path, parts):
    prefix, _ = parts
    return AnalysisEngine(save_store(prefix, tmp_path / "t.rtz"), name="live")


def _post(server, path, body):
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.server_address[1]}{path}",
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as rsp:
            return rsp.status, json.loads(rsp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.fixture()
def server(session):
    server = build_server({"live": session}, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


class TestSessionAppend:
    def test_append_bumps_generation_and_intervals(self, session, parts):
        _, batches = parts
        before = session.execute_dict(AnalysisRequest.from_query(p=0.5, slices=10))
        assert before["trace"]["generation"] == 0
        receipt = session.append(batches[0])
        assert receipt["generation"] == 1
        assert receipt["appended"] == len(batches[0])
        after = session.execute_dict(AnalysisRequest.from_query(p=0.5, slices=10))
        assert after["trace"]["generation"] == 1
        assert after["trace"]["n_intervals"] == before["trace"]["n_intervals"] + len(batches[0])

    def test_append_purges_stale_cache_entries(self, session, parts):
        _, batches = parts
        session.execute(AnalysisRequest.from_query(p=0.5, slices=10))
        session.execute(AnalysisRequest.from_query(p=0.9, slices=10))
        assert session.cache_info()["entries"] == 2
        session.append(batches[0])
        assert session.cache_info()["entries"] == 0
        # Same query after the append is a miss, not a stale hit.
        session.execute(AnalysisRequest.from_query(p=0.5, slices=10))
        info = session.cache_info()
        assert info["entries"] == 1

    def test_append_rejected_for_memory_sessions(self, full_trace):
        memory = AnalysisEngine(full_trace, name="mem")
        with pytest.raises(PipelineError, match="store-backed"):
            memory.append([(0.0, 1.0, "r0", "state0")])

    def test_empty_append_is_a_noop(self, session):
        receipt = session.append([])
        assert receipt["generation"] == 0
        assert receipt["appended"] == 0

    def test_windowed_query_follows_the_live_edge(self, session, parts):
        _, batches = parts
        first = session.execute_dict(AnalysisRequest.from_query(p=0.5, slices=10, last_k_slices=3))
        assert first["window"]["slices"] == [7, 10]
        assert first["model"]["n_slices"] == 3
        for batch in batches:
            session.append(batch)
        grown = session.execute_dict(AnalysisRequest.from_query(p=0.5, slices=10, last_k_slices=3))
        assert grown["window"]["stream_slices"] > 10
        assert grown["window"]["slices"][1] == grown["window"]["stream_slices"]
        assert grown["trace"]["generation"] == len(batches)

    def test_time_window_resolves_to_covering_slices(self, session):
        stream = session.stream_model(10)
        edges = stream.slicing.edges
        t0 = float(edges[2]) + 1e-9
        t1 = float(edges[5]) - 1e-9
        payload = session.execute_dict(
            AnalysisRequest.from_query(p=0.5, slices=10, window=[t0, t1])
        )
        assert payload["window"]["slices"] == [2, 5]
        assert payload["params"]["window"] == [t0, t1]

    def test_window_validation(self, session):
        with pytest.raises(PipelineError, match="mutually exclusive"):
            AnalysisRequest.from_query(slices=10, last_k_slices=2, window=[0.0, 1.0])
        with pytest.raises(PipelineError, match="at least 1"):
            session.execute_dict(AnalysisRequest.from_query(slices=10, last_k_slices=0))
        with pytest.raises(PipelineError, match="t0 < t1"):
            session.execute_dict(AnalysisRequest.from_query(slices=10, window=[5.0, 5.0]))
        with pytest.raises(PipelineError, match="does not overlap"):
            session.execute_dict(AnalysisRequest.from_query(slices=10, window=[1e9, 2e9]))

    def test_windowed_sweep(self, session):
        payload = session.run_sweep(
            SweepRequest.from_query(ps=[0.0, 1.0], slices=10, last_k_slices=4)
        )
        assert payload["window"]["slices"] == [6, 10]
        assert [point["p"] for point in payload["points"]] == [0.0, 1.0]

    def test_refresh_absorbs_external_append(self, session, parts, tmp_path):
        _, batches = parts
        warmed = session.execute_dict(AnalysisRequest.from_query(p=0.5, slices=10, last_k_slices=2))
        session.append(batches[0])  # session owns a writer now
        writer = StoreWriter(tmp_path / "t.rtz")
        writer.append_intervals(batches[1])
        receipt = session.refresh()
        assert receipt["generation"] == 2
        after = session.execute_dict(AnalysisRequest.from_query(p=0.5, slices=10, last_k_slices=2))
        assert after["trace"]["n_intervals"] == (
            warmed["trace"]["n_intervals"] + len(batches[0]) + len(batches[1])
        )
        # Regression: the session's own (now bypassed) writer must have been
        # dropped — its next append opens a fresh writer instead of failing
        # the pre-commit check forever.
        receipt = session.append(batches[2])
        assert receipt["generation"] == 3

    def test_refresh_survives_external_rebuild(self, session, full_trace, tmp_path):
        session.execute(AnalysisRequest.from_query(p=0.5, slices=10))
        # Changed metadata makes the on-disk store a rewrite, not an append.
        full_trace = Trace(
            list(full_trace.intervals), full_trace.hierarchy,
            full_trace.states.copy(), {"run": "rewritten"},
        )
        result = sync_store(full_trace, tmp_path / "t.rtz")
        assert result.action == "rebuilt"
        receipt = session.refresh()
        assert receipt["generation"] == 1
        assert receipt["n_intervals"] == full_trace.n_intervals
        payload = session.execute_dict(AnalysisRequest.from_query(p=0.5, slices=10))
        assert payload["trace"]["n_intervals"] == full_trace.n_intervals


class TestGenerationConflicts:
    def test_stale_generation_pin_raises(self, session, parts):
        _, batches = parts
        session.append(batches[0])
        with pytest.raises(StaleGenerationError, match="generation 1"):
            session.execute(AnalysisRequest.from_query(p=0.5, slices=10, generation=0))
        # The current generation is accepted.
        session.execute(AnalysisRequest.from_query(p=0.5, slices=10, generation=1))

    def test_analyze_racing_append_conflicts(self, session, parts):
        """Regression: an /analyze that loses the race against an in-flight
        /append must surface 409 (StaleGenerationError), not a 500 or a
        silently stale result."""
        _, batches = parts

        def sneak_in_an_append():
            session._race_hook = None
            session.append(batches[0])

        session._race_hook = sneak_in_an_append
        with pytest.raises(StaleGenerationError, match="moved to generation 1"):
            session.execute(AnalysisRequest.from_query(p=0.5, slices=10))
        # The retry (post-append world) succeeds and reports the new content.
        payload = session.execute_dict(AnalysisRequest.from_query(p=0.5, slices=10))
        assert payload["trace"]["generation"] == 1

    def test_generation_pin_checked_under_the_lock(self, session, parts):
        """Regression: a pin that was valid at validation time but lost the
        race to an in-flight append must still 409 (the authoritative check
        runs under the session lock)."""
        _, batches = parts
        pinned = session.generation

        def sneak_in_an_append():
            session._race_hook = None
            session.append(batches[0])

        session._race_hook = sneak_in_an_append
        with pytest.raises(StaleGenerationError):
            session.execute(AnalysisRequest.from_query(p=0.5, slices=10, generation=pinned))

    def test_sweep_racing_append_conflicts(self, session, parts):
        _, batches = parts

        def sneak_in_an_append():
            session._race_hook = None
            session.append(batches[0])

        session._race_hook = sneak_in_an_append
        with pytest.raises(StaleGenerationError):
            session.run_sweep(SweepRequest.from_query(ps=[0.5], slices=10))


class TestHttpStreaming:
    def test_append_endpoint_roundtrip(self, server, session, parts):
        _, batches = parts
        status, receipt = _post(
            server, "/v1/append",
            {"trace": "live", "intervals": [list(row) for row in batches[0]]},
        )
        assert status == 200
        assert receipt["generation"] == 1
        assert receipt["appended"] == len(batches[0])
        status, payload = _post(server, "/v1/analyze", {"p": 0.5, "slices": 10})
        assert status == 200
        assert payload["trace"]["generation"] == 1

    def test_append_without_intervals_400(self, server):
        status, payload = _post(server, "/v1/append", {"trace": "live"})
        assert status == 400
        assert "intervals" in payload["error"]["message"]

    def test_append_bad_rows_400(self, server):
        status, payload = _post(
            server, "/v1/append", {"trace": "live", "intervals": [[0.0, 1.0, "ghost", "x"]]}
        )
        assert status == 400
        assert "unknown resource" in payload["error"]["message"]

    def test_stale_generation_maps_to_409(self, server, session, parts):
        _, batches = parts
        session.append(batches[0])
        status, payload = _post(
            server, "/v1/analyze", {"p": 0.5, "slices": 10, "generation": 0}
        )
        assert status == 409
        assert "generation" in payload["error"]["message"]

    def test_windowed_analyze_over_http_matches_session(self, server, session):
        status, payload = _post(
            server, "/v1/analyze", {"p": 0.5, "slices": 10, "last_k_slices": 3}
        )
        assert status == 200
        assert payload == session.execute_dict(
            AnalysisRequest.from_query(p=0.5, slices=10, last_k_slices=3)
        )

    def test_interleaved_append_and_analyze_hammer(self, server, session, parts):
        """No 500s and no stale result crossing a generation boundary."""
        _, batches = parts
        base = session.execute_dict(AnalysisRequest.from_query(p=0.5, slices=8))
        base_intervals = base["trace"]["n_intervals"]
        # Appends are sequential (the store is single-writer); generation g
        # therefore deterministically holds base + len(batches[:g]) rows.
        expected = {0: base_intervals}
        running = base_intervals
        for index, batch in enumerate(batches, start=1):
            running += len(batch)
            expected[index] = running

        def do_appends():
            codes = []
            for batch in batches:
                status, _ = _post(
                    server, "/v1/append",
                    {"trace": "live", "intervals": [list(row) for row in batch]},
                )
                codes.append(status)
            return codes

        def do_analyzes(worker: int):
            outcomes = []
            for round_index in range(12):
                body = {"p": (worker + round_index) % 10 / 10.0, "slices": 8}
                if round_index % 3 == 1:
                    body["last_k_slices"] = 2
                if round_index % 3 == 2:
                    # Pin the generation the client last saw — the shape that
                    # can legitimately 409 mid-append.
                    body["generation"] = session.generation
                status, payload = _post(server, "/v1/analyze", body)
                outcomes.append((status, payload))
            return outcomes

        with ThreadPoolExecutor(max_workers=7) as pool:
            append_future = pool.submit(do_appends)
            analyze_futures = [pool.submit(do_analyzes, worker) for worker in range(6)]
            append_codes = append_future.result()
            analyze_outcomes = [f.result() for f in analyze_futures]

        assert append_codes == [200] * len(batches)
        for outcomes in analyze_outcomes:
            for status, payload in outcomes:
                assert status in (200, 409), payload
                if status == 200:
                    generation = payload["trace"]["generation"]
                    assert payload["trace"]["n_intervals"] == expected[generation], (
                        "stale cache result crossed a generation boundary"
                    )
