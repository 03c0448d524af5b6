"""Table II — scenario descriptions and analysis computation times.

Runs the four scenarios (CG 64 / CG 512 / LU 700 / LU 900, scaled by
``REPRO_BENCH_SCALE``) through the full pipeline and reports, per case, the
event count, trace size, and the trace-reading / microscopic-description /
aggregation times.

The absolute numbers cannot match the paper (its traces hold up to 218
million events and were processed on the authors' workstation); what must
hold is the *shape*:

* trace reading and microscopic description grow with the event count;
* the aggregation time does not depend on the event count (only on |S| and
  |T|) and re-aggregating at a new trade-off ``p`` is at least as fast —
  which is what makes the exploration interactive in the paper.
"""

from __future__ import annotations

import pytest
from bench_utils import bench_scale, scaled, write_result

from repro.experiments.runner import format_table2, run_case
from repro.platform.grid5000 import grenoble_site, nancy_site, rennes_parapide, rennes_site
from repro.simulation.scenarios import case_a, case_b, case_c, case_d


def _fit(n_processes: int, platform) -> int:
    """Clamp a scaled process count to the scaled platform's capacity."""
    return min(n_processes, platform.n_cores)


def _case_a(scale):
    platform_scale = max(scale, 16 / 64)
    n = _fit(scaled(64, 16), rennes_parapide(platform_scale))
    return case_a(n_processes=n, platform_scale=platform_scale)


def _case_b(scale):
    n = _fit(scaled(512, 32), grenoble_site(scale))
    return case_b(n_processes=n, platform_scale=scale)


def _case_c(scale):
    n = _fit(scaled(700, 44), nancy_site(scale))
    return case_c(n_processes=n, platform_scale=scale)


def _case_d(scale):
    n = _fit(scaled(900, 48), rennes_site(scale))
    return case_d(n_processes=n, platform_scale=scale)


#: Scenario factories with their scaled, capacity-clamped process counts.
_CASES = {"A": _case_a, "B": _case_b, "C": _case_c, "D": _case_d}


@pytest.fixture(scope="module")
def case_results():
    scale = bench_scale()
    return {name: run_case(factory(scale), n_slices=30, p=0.7) for name, factory in _CASES.items()}


def test_table2_regeneration(benchmark, case_results, timings_dir):
    """Render Table II and check its qualitative shape."""
    results = list(case_results.values())
    text = benchmark(format_table2, results)
    write_result(timings_dir, "table2.txt", text)

    by_case = {result.scenario.case: result for result in results}
    # Case C (LU, largest trace here as in the paper) has more events than case A.
    assert by_case["C"].n_events > by_case["A"].n_events
    # Trace size grows with the event count across all cases.
    ordered = sorted(results, key=lambda r: r.n_events)
    sizes = [r.trace_size_bytes for r in ordered]
    assert sizes == sorted(sizes)
    # Preprocessing (reading + microscopic description) grows with events:
    # the largest trace costs more to preprocess than the smallest one.
    assert ordered[-1].timings.preprocessing > ordered[0].timings.preprocessing
    # Re-aggregation (interactive exploration) is never slower than twice the
    # first aggregation — the tables are shared, as the paper's tool does.
    for result in results:
        assert result.timings.reaggregation <= 2.0 * result.timings.aggregation + 0.05


@pytest.mark.parametrize("case_name", list(_CASES))
def test_aggregation_time_per_case(benchmark, case_results, case_name):
    """Benchmark the aggregation stage alone (the paper reports <1 s to 2 s)."""
    result = case_results[case_name]
    benchmark.pedantic(result.aggregator.run, args=(0.5,), rounds=3, iterations=1)


def test_aggregation_cost_independent_of_event_count(benchmark, case_results, timings_dir):
    """Aggregation depends on |S| x |T|, not on the number of events.

    Case C has far more events than case A; its aggregation time must grow at
    most with the resource count ratio (not with the event ratio).
    """
    a = case_results["A"]
    c = case_results["C"]
    benchmark.pedantic(c.aggregator.run, args=(0.6,), rounds=1, iterations=1)
    event_ratio = c.n_events / a.n_events
    time_ratio = c.timings.aggregation / max(a.timings.aggregation, 1e-9)
    resource_ratio = c.model.n_resources / a.model.n_resources
    lines = [
        f"event ratio C/A:        {event_ratio:.1f}",
        f"aggregation time ratio: {time_ratio:.1f}",
        f"resource ratio:         {resource_ratio:.1f}",
    ]
    write_result(timings_dir, "table2_aggregation_scaling.txt", "\n".join(lines))
    assert time_ratio < max(4.0 * resource_ratio, 8.0)
