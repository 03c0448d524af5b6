"""Regenerate the adapter fixtures and their frozen analyze payloads.

The fixtures are real-world-format traces the adapter suite reads:

* ``chrome_debug_trace.json`` — a **self-hosted** Chrome trace-event
  document: scraped from ``GET /v1/debug/trace`` of a live 2-shard cluster
  serving the golden corpus (``--scrape``; the scrape is non-deterministic,
  so the file is committed and only refreshed deliberately);
* ``otlp_spans.json`` / ``jaeger_spans.json`` — hand-written OTLP JSON and
  Jaeger span exports (three services / two processes, error statuses);
* ``oar_gantt.json`` — a hand-written OAR accounting dump (four jobs over
  six resources on three hosts, including a running job with ``stop_time``
  0 and a walltime).

``goldens/<stem>.analysis.json`` freezes each fixture's analysis payload at
:data:`GOLDEN_PARAMS` (canonical serialization, one trailing newline);
``tests/trace/test_adapters.py`` re-derives them **bit-identically**.

    PYTHONPATH=src python tests/data/adapters/regenerate.py            # goldens only
    PYTHONPATH=src python tests/data/adapters/regenerate.py --scrape   # + chrome refresh
"""

from __future__ import annotations

import json
import sys
import threading
import time
import urllib.request
from pathlib import Path

ADAPTERS_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = ADAPTERS_DIR / "goldens"
CORPUS_DIR = ADAPTERS_DIR.parent / "corpus"
_REPO_ROOT = ADAPTERS_DIR.parents[2]
if str(_REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT / "src"))

#: Analysis parameters every golden is frozen at (same as the corpus goldens).
GOLDEN_PARAMS = {"p": 0.7, "slices": 20, "operator": "mean", "anomaly_threshold": 0.1}

#: Fixture file → adapter format it must sniff and parse as.
FIXTURES = {
    "chrome_debug_trace.json": "chrome",
    "otlp_spans.json": "otlp",
    "jaeger_spans.json": "otlp",
    "oar_gantt.json": "oar",
}


def scrape_chrome_fixture() -> Path:
    """Boot a traced cluster on the golden corpus and scrape its span ring."""
    from repro.service.cluster import ClusterConfig, start_cluster

    handle = start_cluster(
        [],
        corpus=CORPUS_DIR,
        shards=2,
        port=0,
        config=ClusterConfig(respawn=False, trace_sample=1),
    )
    thread = threading.Thread(target=handle.serve_forever, daemon=True)
    thread.start()
    try:
        front_port = handle.address[1]

        def request(port: int, method: str, path: str, body: "dict | None" = None) -> bytes:
            req = urllib.request.Request(
                f"http://127.0.0.1:{port}{path}",
                data=json.dumps(body).encode() if body is not None else None,
                headers={"Content-Type": "application/json"} if body else {},
                method=method,
            )
            with urllib.request.urlopen(req, timeout=30) as rsp:
                return rsp.read()

        names = ("case_a", "case_b", "case_c")
        for name in names:
            request(front_port, "POST", "/v1/analyze",
                    {"trace": name, "p": 0.7, "slices": 20})

        def ring(port: int, wanted: int) -> "dict":
            # The servers push ring entries after writing the response bytes,
            # so wait for every request's span tree to land before scraping.
            deadline = time.monotonic() + 10.0
            while True:
                document = json.loads(request(port, "GET", "/v1/debug/trace"))
                if (
                    document["otherData"]["n_requests"] >= wanted
                    or time.monotonic() >= deadline
                ):
                    return document

        # Merge the front ring with each shard's: the shard trees carry the
        # pipeline-internal spans (session load, model build, DP kernel) and
        # every process contributes its own pid track.
        payload = ring(front_port, len(names))
        shard_requests = [
            sum(1 for name in names if handle.server.routing[name] == shard.index)
            for shard in handle.shards
        ]
        for shard, wanted in zip(handle.shards, shard_requests):
            payload["traceEvents"].extend(ring(shard.port, wanted)["traceEvents"])
    finally:
        handle.close()
    target = ADAPTERS_DIR / "chrome_debug_trace.json"
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"scraped {len(payload['traceEvents'])} span events into {target}")
    return target


def regenerate(scrape: bool = False) -> None:
    """Rewrite the golden payloads (and optionally re-scrape the chrome dump)."""
    from repro.batch import analyze_entry
    from repro.batch.corpus import entry_for_path
    from repro.pipeline.payloads import serialize_payload

    if scrape:
        scrape_chrome_fixture()

    GOLDEN_DIR.mkdir(exist_ok=True)
    for filename, expected_kind in FIXTURES.items():
        path = ADAPTERS_DIR / filename
        entry = entry_for_path(path)
        if entry.kind != expected_kind:
            raise SystemExit(
                f"{path}: sniffed as {entry.kind!r}, expected {expected_kind!r}"
            )
        payload, _ = analyze_entry(entry, **GOLDEN_PARAMS)
        golden = GOLDEN_DIR / f"{path.stem}.analysis.json"
        golden.write_text(serialize_payload(payload) + "\n")
        print(f"froze {golden.name} ({entry.kind}, digest {entry.current_digest()[:12]}…)")


if __name__ == "__main__":
    regenerate(scrape="--scrape" in sys.argv[1:])
