"""Shared benchmark helpers: wall-clock timing and the ratio regression gate.

Every ``bench_*.py`` script times a fast leg against a reference leg and
gates CI on the *speedup ratio* (same-runner ratios are stable across
hardware, absolute times are not).  The timing loop and the gate logic used
to be copy-pasted per script; they live here now:

* :func:`time_call` / :func:`timed_call` — best-of-N wall-clock;
  :func:`timed_per_call` — best-of-N per-call seconds over samples of at
  least 20 ms, for legs too short to time one call at a time;
* :class:`GateMetric` + :func:`check_ratio_regression` — compare each grid
  cell's ratio fields against a committed baseline file, with an optional
  per-metric absolute floor and an activity switch (e.g. pool-scaling gates
  that only make sense on multi-core runners);
* :func:`bench_meta` — the provenance block stamped into every
  ``BENCH_*.json`` (commit, host resources, interpreter, timestamp) so a
  committed baseline records what produced it.
"""

from __future__ import annotations

import datetime
import json
import math
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Sequence


def bench_meta() -> "Dict[str, Any]":
    """Provenance of a benchmark run, embedded as the payload's ``meta``.

    Keys are stable so tooling can diff baselines: ``git_commit`` falls back
    to ``"unknown"`` outside a checkout (e.g. an sdist build).
    """
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10, check=False,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "git_commit": commit,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "argv": list(sys.argv[1:]),
    }


def time_call(func: Callable[[], object], repeats: int) -> float:
    """Best-of-``repeats`` wall-clock of ``func()``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def timed_call(func: Callable[[], object], repeats: int) -> "tuple[float, object]":
    """Best-of-``repeats`` wall-clock of ``func()`` and its last result."""
    best = float("inf")
    result: object = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - start)
    return best, result


#: Shortest sample :func:`timed_per_call` times, in seconds.
_MIN_SAMPLE_SECONDS = 0.02


def timed_per_call(func: Callable[[], object], repeats: int) -> "tuple[float, object]":
    """Best-of-``repeats`` seconds per call of ``func()``, and its last result.

    Each sample times as many back-to-back calls as the first (untimed)
    call says last ``_MIN_SAMPLE_SECONDS``, and divides by that count: a leg
    of a millisecond or two is then read over tens of milliseconds, where
    one timer tick or scheduler hiccup no longer moves it by half.
    """
    start = time.perf_counter()
    result = func()
    elapsed = max(time.perf_counter() - start, 1e-9)
    calls = max(1, math.ceil(_MIN_SAMPLE_SECONDS / elapsed))
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            result = func()
        best = min(best, (time.perf_counter() - start) / calls)
    return best, result


@dataclass(frozen=True)
class GateMetric:
    """One gated ratio field of a benchmark's result rows.

    ``max_regression`` allows the ratio to degrade by that factor relative
    to the committed baseline; ``min_ratio`` is an absolute acceptance floor
    (the larger floor wins when both are set).  ``active=False`` records the
    metric in the OK message as skipped (e.g. a pool-scaling gate on a
    single-CPU runner); ``note`` is appended to its failure lines.
    """

    name: str
    max_regression: "float | None" = None
    min_ratio: "float | None" = None
    active: bool = True
    note: str = ""


def warn_skipped_gates(metrics: "Sequence[GateMetric]") -> "list[dict]":
    """Print a stderr warning per inactive gate; returns their JSON records.

    Benchmarks embed the returned list as ``meta.skipped_gates`` so a
    committed ``BENCH_*.json`` says *out loud* which acceptance gates the
    producing machine could not evaluate (e.g. pool scaling on a 1-CPU
    container) instead of silently looking green.
    """
    skipped = [
        {"gate": metric.name, "reason": metric.note or "inactive"}
        for metric in metrics
        if not metric.active
    ]
    for record in skipped:
        print(
            f"warning: gate {record['gate']!r} skipped: {record['reason']}",
            file=sys.stderr,
        )
    return skipped


def check_ratio_regression(
    results: "Sequence[dict]",
    baseline_path: Path,
    key_fields: "Sequence[str]",
    metrics: "Sequence[GateMetric]",
    results_key: str = "results",
) -> int:
    """Gate ``results`` against the committed baseline; returns an exit code.

    Rows are matched to baseline rows on ``key_fields``, read from the
    baseline payload's ``results_key`` section (benchmarks with differently
    shaped row families gate each family separately).  A run whose grid
    shares no cell with the baseline is itself a failure — the gate must
    never pass vacuously.
    """
    baseline = json.loads(Path(baseline_path).read_text())
    reference = {
        tuple(row[field] for field in key_fields): row
        for row in baseline.get(results_key, [])
    }
    failures = []
    checked = 0
    for row in results:
        ref = reference.get(tuple(row[field] for field in key_fields))
        if ref is None:
            continue
        checked += 1
        label = " ".join(f"{field}={row[field]}" for field in key_fields)
        for metric in metrics:
            if not metric.active:
                continue
            floor = 0.0
            if metric.max_regression is not None:
                floor = float(ref[metric.name]) / metric.max_regression
            if metric.min_ratio is not None:
                floor = max(floor, metric.min_ratio)
            if float(row[metric.name]) < floor:
                note = f"; {metric.note}" if metric.note else ""
                failures.append(
                    f"  {label}: {metric.name} {float(row[metric.name]):.2f}x "
                    f"< allowed floor {floor:.2f}x "
                    f"(baseline {float(ref[metric.name]):.2f}x{note})"
                )
    if failures:
        print(f"REGRESSION against {baseline_path}:")
        print("\n".join(failures))
        return 1
    if checked == 0:
        print(
            f"REGRESSION CHECK INVALID: no grid cell overlaps {baseline_path} — "
            "the gate would pass vacuously; align the grid with the baseline"
        )
        return 1
    gated = [metric.name for metric in metrics if metric.active]
    skipped = [
        f"{metric.name} ({metric.note})" if metric.note else metric.name
        for metric in metrics
        if not metric.active
    ]
    message = (
        f"regression check ok: {checked} grid cells pass "
        f"[{', '.join(gated)}] against {baseline_path.name}"
    )
    if skipped:
        message += f"; skipped gates: {', '.join(skipped)}"
    print(message)
    return 0
