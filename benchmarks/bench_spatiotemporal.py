"""Scaling benchmark of the spatiotemporal aggregation engine.

Times Algorithm 1 on a ``slices x resources`` grid of synthetic microscopic
models, comparing the per-cell reference dynamic program (the seed
implementation, kept as ``compute_tables_reference``) against the kernel
tiers of :mod:`repro.core.kernels` — the vectorized ``numpy`` sweep and the
compiled ``c`` sweep (wherever it builds).  Every grid cell checks that all
timed implementations return bit-identical tables, so the ratios are
guaranteed to describe the same computation.  ``speedup`` is per-cell
reference seconds over ``numpy`` seconds; ``kernel_ratio`` is ``numpy``
seconds over ``c`` seconds (whole ``compute_tables``: base tables, merges
and sweep), each the best per-call time over samples of at least 20 ms.
Where the ``c`` tier builds, every grid cell also times the gain/loss table
build of a fresh statistics engine (every height's slabs, mean operator) on
each tier, diffs the two fills' slabs bit for bit, and records
``tables_ratio``: numpy-fill seconds over compiled-fill seconds, timed the
same way.  The full grid adds two |T| = 128 cells (16 and 64 resources),
where the compiled sweep loop dominates ``compute_tables`` and the table
build dominates a first overview; ``meta.c_loop`` records which compiled
loop ran (``avx2`` or ``scalar``).

Beyond the classic grid, the full run times a **large row family**
(``large_results``): a 1024-resource x 1000-slice microscopic model analyzed
through a trailing window — the fleet-monitoring shape where the cubic DP
runs on the window while the prefix tables span the whole trace.  The
per-cell reference is skipped there (the row records why); the gated ratio
is ``kernel_ratio``.

A **search row family** (``search_results``) times the significant-p search
(:func:`~repro.core.parameters.significant_points`, mean operator) two ways
on one warm aggregator: one DP per value through a ``run``-only wrapper (the
per-p search) against the batched search, which solves each bisection
depth's new values in one DP over ``(P, N, T, T)`` slabs.  It runs on a
2-slice window of a 64-resource model and on a whole 30-slice model, diffs
the two searches' points bit for bit, and gates ``search_speedup`` (per-p
seconds over batched seconds, best per-call time over samples of at least
20 ms).  Where the ``c`` tier builds, each search row also times
:meth:`~repro.core.spatiotemporal.SpatiotemporalAggregator.quality` over
every value the search solved on each tier, diffs the two tiers' points bit
for bit, and gates ``walk_ratio`` (``numpy`` seconds over ``c`` seconds).
On the 2-slice window the sweep is one cell per node, so the ratio is the
cut replay's (the Python walk against ``walk_int32``); on the whole 30-slice
model it also carries the sweep's ``kernel_ratio``.

Results are written as ``BENCH_spatiotemporal.json`` (at the repository root
by default), seeding the performance trajectory.  CI runs the ``--smoke``
grid and gates regressions with ``--check-against``: the comparison uses
ratios (same-runner, stable across hardware), never absolute wall-clock.
``kernel_ratio``, ``tables_ratio`` and ``walk_ratio`` fail the gate when
the ``c`` tier slows down; they are skipped, with a warning, where the
``c`` tier cannot be built.

Usage::

    python benchmarks/bench_spatiotemporal.py                 # full grid
    python benchmarks/bench_spatiotemporal.py --smoke \
        --output BENCH_smoke.json \
        --check-against BENCH_spatiotemporal.json --max-regression 2.0
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.core.hierarchy import Hierarchy  # noqa: E402
from common import (  # noqa: E402
    bench_meta,
    GateMetric,
    check_ratio_regression,
    timed_call,
    timed_per_call,
    warn_skipped_gates,
)

from repro.core.criteria import IntervalStatistics  # noqa: E402
from repro.core.kernels import available_kernels, c_loop  # noqa: E402
from repro.core.microscopic import MicroscopicModel  # noqa: E402
from repro.core.parameters import significant_points  # noqa: E402
from repro.core.spatiotemporal import SpatiotemporalAggregator  # noqa: E402
from repro.pipeline.window import WindowSpec, resolve_window_bounds  # noqa: E402
from repro.trace.states import StateRegistry  # noqa: E402

FULL_GRID = {"slices": (20, 40, 60, 80), "resources": (16, 64, 128)}
#: (slices, resources) cells the full run adds to its grid: |T| = 128, where
#: the compiled sweep loop dominates ``compute_tables`` (perfbench
#: ``longspan`` analyzes 64 resources x 128 slices).
FULL_EXTRA_CELLS = ((128, 16), (128, 64))
SMOKE_GRID = {"slices": (20, 60), "resources": (16, 64)}
#: (resources, slices, window_k): the windowed-DP row family over big models.
#: The per-cell reference is skipped here — at |T|=1000 the unwindowed cubic
#: DP alone would be O(|S| |T|^3); the realistic shape (and the one the batch
#: and streaming paths take) is a trailing window over full-span prefix
#: tables.
LARGE_GRID = [(1024, 1000, 48)]
#: (resources, slices, window): the search row family — a 2-slice window, as
#: an interactive sweep over recent slices, and a whole 30-slice model (16
#: resources: its search solves some 760 values, one DP each per-p).  The
#: smoke run keeps the window row.
SEARCH_GRID = [(64, 30, 2), (16, 30, 30)]
SMOKE_SEARCH_GRID = [(64, 30, 2)]


def build_model(n_resources: int, n_slices: int, n_states: int, seed: int) -> MicroscopicModel:
    """Synthetic microscopic model with a balanced hierarchy (deterministic)."""
    rng = np.random.default_rng(seed)
    hierarchy = Hierarchy.balanced(n_resources, fanout=2)
    states = StateRegistry([f"s{i}" for i in range(n_states)])
    # Dirichlet rows with one extra component keep per-cell totals below 1
    # (the remainder models idle time), matching real trace proportions.
    rho = rng.dirichlet(np.ones(n_states + 1), size=(n_resources, n_slices))[:, :, :n_states]
    return MicroscopicModel.from_proportions(rho, hierarchy, states)


def tables_identical(left, right) -> bool:
    """Whether two per-node table mappings are bit-for-bit identical."""
    if left.keys() != right.keys():
        return False
    return all(
        np.array_equal(left[key].pic, right[key].pic)
        and np.array_equal(left[key].cut, right[key].cut)
        and np.array_equal(left[key].count, right[key].count)
        for key in left
    )


def fill_tables(model: MicroscopicModel, kernel: str) -> list:
    """Every height's gain/loss slabs, filled by a fresh engine on ``kernel``."""
    stats = IntervalStatistics(model, kernel=kernel)
    levels = enumerate(model.hierarchy.height_plan.levels)
    return [stats.height_tables(height, level.nodes) for height, level in levels]


def slabs_identical(left: list, right: list) -> bool:
    """Whether two lists of ``(gain, loss)`` slabs are bit-for-bit identical."""
    return len(left) == len(right) and all(
        np.array_equal(a.view(np.int64), b.view(np.int64))
        for pair_a, pair_b in zip(left, right)
        for a, b in zip(pair_a, pair_b)
    )


def kernel_aggregators(model, stats=None):
    """One aggregator per runnable kernel tier, sharing one statistics engine."""
    tiers = available_kernels()
    first = SpatiotemporalAggregator(model, stats=stats, kernel=tiers[0])
    aggregators = {tiers[0]: first}
    for tier in tiers[1:]:
        aggregators[tier] = SpatiotemporalAggregator(
            model, stats=first.stats, kernel=tier
        )
    return aggregators


def bench_cell(
    n_slices: int,
    n_resources: int,
    n_states: int,
    p: float,
    repeats: int,
    jobs: int,
    seed: int,
) -> dict:
    """One grid cell: reference vs every kernel tier (vs parallel)."""
    model = build_model(n_resources, n_slices, n_states, seed)
    aggregators = kernel_aggregators(model)
    aggregator = aggregators["numpy"]

    # Warm the interval-statistics engine once so every DP leg measures the
    # dynamic program itself, then record how long the warm-up took.
    stats_start = time.perf_counter()
    for node in model.hierarchy.iter_nodes("post"):
        aggregator.stats.tables(node)
    stats_seconds = time.perf_counter() - stats_start

    seconds_percell, reference = timed_call(
        lambda: aggregator.compute_tables_reference(p), repeats
    )
    # A grid cell's kernel legs take 1-3 ms at |T| = 20: each sample loops
    # over enough calls to last 20 ms, so ``kernel_ratio`` is not noise.
    kernel_seconds = {}
    kernel_tables = {}
    for tier, tiered in aggregators.items():
        kernel_seconds[tier], kernel_tables[tier] = timed_per_call(
            lambda agg=tiered: agg.compute_tables(p), repeats
        )
    vectorized = kernel_tables["numpy"]
    identical = tables_identical(reference, vectorized)
    kernels_identical = all(
        tables_identical(vectorized, kernel_tables[tier])
        for tier in kernel_tables
        if tier != "numpy"
    )

    seconds_vectorized = kernel_seconds["numpy"]
    row = {
        "slices": n_slices,
        "resources": n_resources,
        "states": n_states,
        "nodes": model.hierarchy.n_nodes,
        "stats_seconds": round(stats_seconds, 6),
        "seconds_percell": round(seconds_percell, 6),
        "seconds_vectorized": round(seconds_vectorized, 6),
        "speedup": round(seconds_percell / seconds_vectorized, 3),
        "tables_identical": identical,
        "kernels_identical": kernels_identical,
    }
    for tier, seconds in kernel_seconds.items():
        row[f"seconds_{tier}"] = round(seconds, 6)
    if "c" in kernel_seconds:
        row["kernel_ratio"] = round(seconds_vectorized / kernel_seconds["c"], 3)
        fill_seconds, fills = {}, {}
        for tier in ("numpy", "c"):
            fill_seconds[tier], fills[tier] = timed_per_call(
                lambda tier=tier: fill_tables(model, tier), repeats
            )
            row[f"seconds_tables_{tier}"] = round(fill_seconds[tier], 6)
        row["tables_ratio"] = round(fill_seconds["numpy"] / fill_seconds["c"], 3)
        row["fills_identical"] = slabs_identical(fills["numpy"], fills["c"])
    if jobs > 1:
        seconds_jobs, parallel = timed_call(
            lambda: aggregator.compute_tables(p, jobs=jobs), repeats
        )
        row["jobs"] = jobs
        row["seconds_jobs"] = round(seconds_jobs, 6)
        row["parallel_identical"] = tables_identical(vectorized, parallel)
    return row


def bench_large_cell(
    n_resources: int,
    n_slices: int,
    window_k: int,
    n_states: int,
    p: float,
    repeats: int,
    seed: int,
) -> dict:
    """One large row: windowed DP over a big model, kernel tiers diffed.

    The full-span prefix tables are built once (``model_seconds``); the DP
    then runs on the trailing ``window_k``-slice window of the model —
    exactly what ``repro analyze --window last:K`` and the windowed batch
    pass execute per trace.
    """
    build_start = time.perf_counter()
    model = build_model(n_resources, n_slices, n_states, seed)
    model.cumulative_tables()
    model_seconds = time.perf_counter() - build_start

    a, b = resolve_window_bounds(model, WindowSpec.last(window_k))
    windowed = model.window(a, b)
    aggregators = kernel_aggregators(windowed)

    stats_start = time.perf_counter()
    for node in windowed.hierarchy.iter_nodes("post"):
        aggregators["numpy"].stats.tables(node)
    stats_seconds = time.perf_counter() - stats_start

    kernel_seconds = {}
    kernel_tables = {}
    for tier, tiered in aggregators.items():
        kernel_seconds[tier], kernel_tables[tier] = timed_call(
            lambda agg=tiered: agg.compute_tables(p), repeats
        )
    kernels_identical = all(
        tables_identical(kernel_tables["numpy"], kernel_tables[tier])
        for tier in kernel_tables
        if tier != "numpy"
    )
    row = {
        "resources": n_resources,
        "slices": n_slices,
        "window": window_k,
        "states": n_states,
        "nodes": windowed.hierarchy.n_nodes,
        "model_seconds": round(model_seconds, 6),
        "stats_seconds": round(stats_seconds, 6),
        "reference": "skipped: cubic per-cell DP infeasible at this size",
        "kernels_identical": kernels_identical,
    }
    for tier, seconds in kernel_seconds.items():
        row[f"seconds_{tier}"] = round(seconds, 6)
    if "c" in kernel_seconds:
        row["kernel_ratio"] = round(kernel_seconds["numpy"] / kernel_seconds["c"], 3)
    return row


class PerValue:
    """An aggregator seen through ``run(p)`` alone: the search then runs one DP per value."""

    def __init__(self, aggregator: SpatiotemporalAggregator) -> None:
        self.aggregator = aggregator
        self.runs = 0

    def run(self, p: float):
        self.runs += 1
        return self.aggregator.run(p)


class Batched:
    """An aggregator's batch evaluator, counting the search's requests (one per depth)."""

    def __init__(self, aggregator: SpatiotemporalAggregator) -> None:
        self.aggregator = aggregator
        self.requests = 0
        self.solved: list[float] = []

    def quality(self, ps):
        self.requests += 1
        self.solved.extend(ps)
        return self.aggregator.quality(ps)


def _search(evaluator: "PerValue | Batched") -> tuple:
    """The significant points found through ``evaluator``, and the evaluator."""
    return significant_points(evaluator), evaluator


def _point_bits(points) -> list:
    return [(point.p.hex(), point.size, point.gain.hex(), point.loss.hex()) for point in points]


def bench_search_cell(
    n_resources: int, n_slices: int, window: int, n_states: int, repeats: int, seed: int
) -> dict:
    """One search row: the per-p search against the batched search, points diffed."""
    model = build_model(n_resources, n_slices, n_states, seed)
    searched = model.window(n_slices - window, n_slices) if window < n_slices else model
    aggregator = SpatiotemporalAggregator(searched)
    aggregator.build_tables()
    seconds_per_p, (oracle, counted) = timed_per_call(
        lambda: _search(PerValue(aggregator)), repeats
    )
    seconds_batched, (points, rounds) = timed_per_call(
        lambda: _search(Batched(aggregator)), repeats
    )
    row = {
        "resources": n_resources,
        "slices": n_slices,
        "window": window,
        "states": n_states,
        "nodes": searched.hierarchy.n_nodes,
        "operator": "mean",
        "values": len(points),
        "dp_runs": counted.runs,
        "rounds": rounds.requests,
        "seconds_per_p": round(seconds_per_p, 6),
        "seconds_batched": round(seconds_batched, 6),
        "search_speedup": round(seconds_per_p / seconds_batched, 3),
        "points_identical": _point_bits(points) == _point_bits(oracle),
    }
    if "c" in available_kernels():
        seconds, curves = {}, {}
        for tier in ("numpy", "c"):
            tiered = SpatiotemporalAggregator(searched, stats=aggregator.stats, kernel=tier)
            seconds[tier], curves[tier] = timed_per_call(
                lambda: tiered.quality(rounds.solved), repeats
            )
            row[f"seconds_quality_{tier}"] = round(seconds[tier], 6)
        row["walk_ratio"] = round(seconds["numpy"] / seconds["c"], 3)
        row["walk_identical"] = _point_bits(curves["numpy"]) == _point_bits(curves["c"])
    return row


def check_regression(
    results: list[dict],
    large_results: list[dict],
    search_results: list[dict],
    baseline_path: Path,
    max_regression: float,
) -> int:
    """Compare the ratios against a committed baseline; 0 when acceptable."""
    c_tier = "c" in available_kernels()
    kernel_ratio, tables_ratio, walk_ratio = (
        GateMetric(
            name, max_regression=max_regression,
            active=c_tier, note="" if c_tier else "c tier unavailable: no C compiler",
        )
        for name in ("kernel_ratio", "tables_ratio", "walk_ratio")
    )
    warn_skipped_gates([kernel_ratio, tables_ratio, walk_ratio])
    code = check_ratio_regression(
        results,
        baseline_path,
        key_fields=("slices", "resources"),
        metrics=[
            GateMetric("speedup", max_regression=max_regression), kernel_ratio, tables_ratio,
        ],
    )
    if large_results:
        code = max(
            code,
            check_ratio_regression(
                large_results,
                baseline_path,
                key_fields=("resources", "slices", "window"),
                metrics=[kernel_ratio],
                results_key="large_results",
            ),
        )
    if search_results:
        code = max(
            code,
            check_ratio_regression(
                search_results,
                baseline_path,
                key_fields=("resources", "slices", "window"),
                metrics=[GateMetric("search_speedup", max_regression=max_regression), walk_ratio],
                results_key="search_results",
            ),
        )
    return code


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small grid for CI smoke runs (skips the large row family)")
    parser.add_argument("--large", action="store_true",
                        help="run the windowed large-model rows even with --smoke")
    parser.add_argument("--large-repeats", type=int, default=1,
                        help="timing repetitions for the large rows (default: 1)")
    parser.add_argument("--slices", type=str, default=None,
                        help="comma-separated slice counts (overrides the grid)")
    parser.add_argument("--resources", type=str, default=None,
                        help="comma-separated resource counts (overrides the grid)")
    parser.add_argument("--states", type=int, default=4, help="number of states (default: 4)")
    parser.add_argument("-p", "--parameter", type=float, default=0.5,
                        help="gain/loss trade-off (default: 0.5)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repetitions, best is kept (default: 3)")
    parser.add_argument("--jobs", type=int, default=0,
                        help="also time the process-pool path with this many workers")
    parser.add_argument("--seed", type=int, default=0, help="synthetic model seed")
    parser.add_argument("--output", type=Path, default=ROOT / "BENCH_spatiotemporal.json",
                        help="JSON output path (default: BENCH_spatiotemporal.json at the repo root)")
    parser.add_argument("--check-against", type=Path, default=None,
                        help="baseline BENCH json to gate speedup regressions against")
    parser.add_argument("--max-regression", type=float, default=2.0,
                        help="maximum allowed speedup degradation factor (default: 2.0)")
    args = parser.parse_args(argv)

    grid = SMOKE_GRID if args.smoke else FULL_GRID
    slices = [int(v) for v in args.slices.split(",")] if args.slices else list(grid["slices"])
    resources = (
        [int(v) for v in args.resources.split(",")] if args.resources else list(grid["resources"])
    )

    cells = [(n_slices, n_resources) for n_resources in resources for n_slices in slices]
    if not (args.smoke or args.slices or args.resources):
        cells += FULL_EXTRA_CELLS
    results = []
    for n_slices, n_resources in cells:
        row = bench_cell(
            n_slices, n_resources, args.states, args.parameter,
            args.repeats, args.jobs, args.seed,
        )
        print(
            f"slices={n_slices:>4} resources={n_resources:>4} "
            f"percell={row['seconds_percell']:.3f}s "
            + " ".join(f"{tier}={row[f'seconds_{tier}']:.3f}s" for tier in available_kernels())
            + f" speedup={row['speedup']:.1f}x"
            f" kernel_ratio={row.get('kernel_ratio', float('nan')):.2f}x"
            f" tables_ratio={row.get('tables_ratio', float('nan')):.2f}x"
            f" identical={row['tables_identical']}"
        )
        if not row["tables_identical"]:
            print("FATAL: vectorized tables diverge from the reference", file=sys.stderr)
            return 1
        if not row["kernels_identical"]:
            print("FATAL: kernel tiers diverge from the numpy sweep", file=sys.stderr)
            return 1
        if not row.get("fills_identical", True):
            print("FATAL: the compiled table fill diverges from the numpy fill", file=sys.stderr)
            return 1
        results.append(row)

    large_results = []
    if args.large or not args.smoke:
        for n_resources, n_slices, window_k in LARGE_GRID:
            row = bench_large_cell(
                n_resources, n_slices, window_k, args.states,
                args.parameter, args.large_repeats, args.seed,
            )
            print(
                f"resources={row['resources']:>4} slices={row['slices']:>4} "
                f"window={row['window']:>3} model={row['model_seconds']:.2f}s "
                + " ".join(
                    f"{tier}={row[f'seconds_{tier}']:.2f}s"
                    for tier in available_kernels()
                )
                + f" identical={row['kernels_identical']}"
            )
            if not row["kernels_identical"]:
                print("FATAL: kernel tiers diverge on the windowed model", file=sys.stderr)
                return 1
            large_results.append(row)

    search_results = []
    for n_resources, n_slices, window in SMOKE_SEARCH_GRID if args.smoke else SEARCH_GRID:
        row = bench_search_cell(n_resources, n_slices, window, args.states, args.repeats, args.seed)
        print(
            f"search resources={n_resources:>4} slices={n_slices:>3} window={window:>3} "
            f"values={row['values']} dp_runs={row['dp_runs']} rounds={row['rounds']} "
            f"per_p={row['seconds_per_p'] * 1e3:.1f}ms batched={row['seconds_batched'] * 1e3:.1f}ms "
            f"speedup={row['search_speedup']:.2f}x identical={row['points_identical']}"
            + (
                f" walk_ratio={row['walk_ratio']:.2f}x identical={row['walk_identical']}"
                if "walk_ratio" in row else ""
            )
        )
        if not row["points_identical"]:
            print("FATAL: the batched search diverges from the per-p search", file=sys.stderr)
            return 1
        if not row.get("walk_identical", True):
            print("FATAL: the kernel tiers' quality points diverge", file=sys.stderr)
            return 1
        search_results.append(row)

    payload = {
        "benchmark": "spatiotemporal_aggregation",
        "meta": {**bench_meta(), "c_loop": c_loop()},
        "config": {
            "p": args.parameter,
            "states": args.states,
            "fanout": 2,
            "repeats": args.repeats,
            "seed": args.seed,
            "grid": "smoke" if args.smoke else "full",
            "kernels": list(available_kernels()),
        },
        "results": results,
        "large_results": large_results,
        "search_results": search_results,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")

    if args.check_against is not None:
        return check_regression(
            results, large_results, search_results, args.check_against, args.max_regression
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
