"""Fixtures for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper.  The
paper's runs use up to 900 processes and hundreds of millions of events; by
default the benchmarks run *scaled-down but structure-preserving* versions so
the whole suite completes in a few minutes on a laptop.  Set the environment
variable ``REPRO_BENCH_SCALE=1.0`` to run the paper-scale scenarios (64, 512,
700 and 900 processes), or any intermediate value.

Printed tables are also written under ``benchmarks/results/`` so they can be
inspected after a captured pytest run; tables carrying wall-clock timings go
to the git-ignored ``benchmarks/results/timings/``, so a test run leaves the
tracked files untouched.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from bench_utils import RESULTS_DIR, TIMINGS_DIR


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory where benchmark tables/figures are written."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def timings_dir() -> Path:
    """Git-ignored directory for tables that carry wall-clock timings."""
    TIMINGS_DIR.mkdir(parents=True, exist_ok=True)
    return TIMINGS_DIR
