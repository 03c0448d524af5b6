"""``GET /v1/watch/events``: the SSE monitoring stream.

The load-bearing property: every ``data:`` payload on the wire is
byte-identical to what ``repro watch --json`` would print for the same
store content — both transports call :func:`repro.watch.serialize_event`.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.pipeline import AnalysisEngine
from repro.service import build_server
from repro.store import StoreWriter, open_store, save_store
from repro.trace.synthetic import monitoring_scenario, random_trace
from repro.trace.trace import Trace
from repro.watch import WatchEvent, serialize_event

SEED_SLICES = 30


@pytest.fixture()
def scenario():
    return monitoring_scenario(
        "cascading_failure", n_resources=8, n_slices=60, injection_slice=40
    )


@pytest.fixture()
def store_path(tmp_path, scenario):
    intervals = [iv for iv in scenario.intervals if iv.start < float(SEED_SLICES)]
    seed = Trace(
        hierarchy=scenario.hierarchy,
        states=scenario.states,
        intervals=intervals,
        metadata=scenario.metadata,
    )
    save_store(seed, tmp_path / "demo.rtz")
    return tmp_path / "demo.rtz"


@pytest.fixture()
def server(store_path):
    sessions = {
        "demo": AnalysisEngine(open_store(store_path), name="demo"),
        "frozen": AnalysisEngine(
            random_trace(n_resources=4, n_slices=6, seed=1), name="frozen"
        ),
    }
    server = build_server(sessions, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def _url(server, query):
    return (
        f"http://127.0.0.1:{server.server_address[1]}/v1/watch/events{query}"
    )


def _get_error(server, query):
    try:
        urllib.request.urlopen(_url(server, query), timeout=10)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())["error"]
    raise AssertionError("expected an HTTP error")


def _frames(body):
    """Parse SSE text into (event_type, data_text) pairs."""
    frames = []
    for block in body.split("\n\n"):
        lines = block.splitlines()
        if not lines or lines[0].startswith(":"):
            continue
        assert lines[0].startswith("event: ")
        assert lines[1].startswith("data: ")
        frames.append((lines[0][len("event: "):], lines[1][len("data: "):]))
    return frames


class TestWatchStream:
    def test_streams_events_while_the_store_grows(
        self, server, store_path, scenario
    ):
        def grow():
            writer = StoreWriter(store_path)
            for t in range(SEED_SLICES, 60):
                writer.append_intervals(
                    [
                        (iv.start, iv.end, iv.resource, iv.state)
                        for iv in scenario.intervals
                        if t <= iv.start < t + 1
                    ]
                )
                # A few polls per slice: slices appended between the same two
                # polls are scored as one step, so an unpaced writer can
                # finish in too few polls for five events.
                time.sleep(0.05)

        thread = threading.Thread(target=grow, daemon=True)
        thread.start()
        # max_polls ends the stream if five events never come: heartbeats
        # would otherwise keep the read alive past any socket timeout.
        response = urllib.request.urlopen(
            _url(server, "?trace=demo&poll=0.01&max_events=5&max_polls=3000"), timeout=60
        )
        assert response.status == 200
        assert response.headers["Content-Type"] == "text/event-stream"
        frames = _frames(response.read().decode("utf-8"))
        thread.join()
        assert len(frames) == 5
        assert frames[0][0] == "baseline"
        types = {event_type for event_type, _ in frames}
        assert types & {"drift", "anomaly"}

    def test_data_payloads_are_byte_identical_to_the_serializer(self, server):
        response = urllib.request.urlopen(
            _url(server, "?trace=demo&poll=0.01&max_polls=1"), timeout=30
        )
        frames = _frames(response.read().decode("utf-8"))
        assert frames  # at least the pinned baseline
        for event_type, data_text in frames:
            payload = json.loads(data_text)
            rebuilt = WatchEvent(
                type=payload["type"],
                trace=payload["trace"],
                sequence=payload["sequence"],
                generation=payload["generation"],
                data=payload["data"],
            )
            assert payload["type"] == event_type
            assert serialize_event(rebuilt) == data_text

    def test_idle_stream_heartbeats_and_honors_max_polls(self, server):
        response = urllib.request.urlopen(
            _url(server, "?trace=demo&poll=0.01&max_polls=4"), timeout=30
        )
        body = response.read().decode("utf-8")
        # Poll 1 pins the baseline; polls 2-4 are idle heartbeat comments.
        assert body.count(": keep-alive\n\n") == 3

    def test_unknown_trace_404(self, server):
        status, error = _get_error(server, "?trace=nope")
        assert status == 404
        assert error["code"] == "not_found"

    def test_memory_backed_trace_400(self, server):
        status, error = _get_error(server, "?trace=frozen")
        assert status == 400
        assert "not store-backed" in error["message"]

    def test_unknown_parameter_400_with_field(self, server):
        status, error = _get_error(server, "?trace=demo&bogus=1")
        assert status == 400
        assert error["field"] == "bogus"

    @pytest.mark.parametrize(
        "query", ["?slices=0", "?window=junk", "?poll=0", "?max_events=-1"]
    )
    def test_invalid_parameters_400(self, server, query):
        status, error = _get_error(server, f"?trace=demo&{query[1:]}")
        assert status == 400
        assert error["code"] == "invalid_request"

    def test_ambiguous_omitted_trace_is_an_error(self, server):
        # Two traces served: the registry's "which one?" rule answers.
        status, error = _get_error(server, "?max_polls=1")
        assert status in (400, 404)
