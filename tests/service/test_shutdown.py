"""Graceful-shutdown tests for ``repro serve`` (SIGTERM/SIGINT satellite).

A served process must treat SIGTERM like an orderly stop: finish what is in
flight, close the listener, release the registry sessions, exit 0.  These
tests drive the real CLI in a subprocess because signal handlers only
install on the main thread of a process.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.trace.io import write_csv
from repro.trace.synthetic import block_trace

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture()
def served_process(tmp_path):
    """A `repro serve` subprocess on a free port; yields (process, port)."""
    csv = tmp_path / "t.csv"
    write_csv(block_trace(n_resources=4, n_slices=8, n_blocks_time=2, seed=4), csv)
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(csv), "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        assert process.stdout is not None
        line = process.stdout.readline()
        match = re.search(r"http://[^:]+:(\d+)", line)
        assert match, f"no serving banner in {line!r}"
        port = int(match.group(1))
        # The banner prints before serve_forever: wait for the socket to answer.
        deadline = time.monotonic() + 10
        while True:
            try:
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/v1/health", timeout=1
                ) as rsp:
                    json.loads(rsp.read().decode())
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise AssertionError("server never became healthy")
                time.sleep(0.05)
        yield process, port
    finally:
        if process.poll() is None:
            process.kill()
        process.wait(timeout=10)


class TestSigterm:
    def test_sigterm_exits_zero(self, served_process):
        process, port = served_process
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=15) == 0
        stderr = process.stderr.read() if process.stderr else ""
        assert "Traceback" not in stderr
        assert "shutdown complete" in stderr

    def test_sigint_exits_zero(self, served_process):
        process, port = served_process
        process.send_signal(signal.SIGINT)
        assert process.wait(timeout=15) == 0

    def test_requests_are_answered_until_the_signal(self, served_process):
        process, port = served_process
        body = json.dumps({"p": 0.5, "slices": 8}).encode()
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/v1/analyze", data=body, method="POST"
        )
        with urllib.request.urlopen(request, timeout=10) as rsp:
            payload = json.loads(rsp.read().decode())
        assert payload["schema"] == "repro.analysis/1"
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=15) == 0
