"""Shared helpers for the benchmark harness (scaling and result persistence)."""

from __future__ import annotations

import os
from pathlib import Path

#: Fraction of the paper-scale process counts used by default.
DEFAULT_SCALE = 0.25

RESULTS_DIR = Path(__file__).parent / "results"

#: Where tables carrying wall-clock timings go.  They change on every run, so
#: the directory is git-ignored; ``RESULTS_DIR`` keeps only deterministic output.
TIMINGS_DIR = RESULTS_DIR / "timings"


def bench_scale() -> float:
    """Scale factor for process counts / platform sizes (``REPRO_BENCH_SCALE``)."""
    value = float(os.environ.get("REPRO_BENCH_SCALE", DEFAULT_SCALE))
    if not 0.0 < value <= 1.0:
        raise ValueError("REPRO_BENCH_SCALE must be in (0, 1]")
    return value


def scaled(count: int, minimum: int = 8) -> int:
    """A process count scaled by :func:`bench_scale` (at least ``minimum``)."""
    return max(minimum, int(round(count * bench_scale())))


def write_result(results_dir: Path, name: str, content: str) -> None:
    """Persist a rendered table/figure and echo it to stdout."""
    path = results_dir / name
    path.write_text(content if content.endswith("\n") else content + "\n")
    print(f"\n===== {name} =====")
    print(content)
