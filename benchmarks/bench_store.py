"""Benchmark of the ``.rtz`` trace store and the cached analysis service.

Two questions, each measured on a grid of synthetic traces:

* **load** — how much faster does the analysis engine get its data from a
  store (``open_store`` + columnar chunks) than from ``read_csv``?  The
  store's columnar arrays are what :meth:`MicroscopicModel.from_columns`
  consumes directly; the full ``load_trace`` materialization is reported as
  a secondary number for interval-level workflows.
* **query** — how much faster is a warm :class:`AnalysisEngine` query (LRU
  result-cache hit) than the cold path (model discretization + prefix-sum
  warm-up + dynamic program + serialization)?  A third leg measures the cold
  *result* with a warm *model cache* — what a freshly restarted server pays
  on a previously converted store.

Results are written as ``BENCH_store.json`` (repo root by default).  CI runs
the ``--smoke`` grid and gates regressions with ``--check-against`` on the
*speedup ratios* (store vs CSV, warm vs cold on the same machine), which are
stable across runner hardware, unlike absolute wall-clock.

Usage::

    python benchmarks/bench_store.py                    # full grid
    python benchmarks/bench_store.py --smoke \
        --output BENCH_store_smoke.json \
        --check-against BENCH_store.json --max-regression 2.0
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from common import (  # noqa: E402
    GateMetric,
    bench_meta,
    check_ratio_regression,
    time_call,
    timed_per_call,
)

from repro.pipeline import AnalysisEngine, AnalysisRequest  # noqa: E402
from repro.store import open_store, save_store  # noqa: E402
from repro.trace.io import read_csv, write_csv  # noqa: E402
from repro.trace.synthetic import random_trace  # noqa: E402

#: (resources, analysis slices, generator slices) — generator slices x states
#: intervals per resource, so the last row is ~61k intervals (~2.5 MB CSV).
FULL_GRID = [(16, 20, 60), (64, 60, 240)]
SMOKE_GRID = [(16, 20, 60)]


def directory_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def bench_cell(
    workdir: Path,
    n_resources: int,
    n_slices: int,
    gen_slices: int,
    n_states: int,
    p: float,
    repeats: int,
    seed: int,
) -> dict:
    """One grid cell: CSV vs store load, cold vs warm query, on one trace."""
    trace = random_trace(
        n_resources=n_resources, n_slices=gen_slices, n_states=n_states, seed=seed
    )
    csv_path = workdir / f"r{n_resources}_t{gen_slices}.csv"
    store_path = workdir / f"r{n_resources}_t{gen_slices}.rtz"
    csv_bytes = write_csv(trace, csv_path)
    save_store(read_csv(csv_path), store_path)

    # The two gated load legs are read per call over samples of at least
    # 20 ms: the store leg is about a millisecond, where one scheduler
    # hiccup would move the ratio by half.
    csv_load, _ = timed_per_call(lambda: read_csv(csv_path), repeats)
    store_load, _ = timed_per_call(lambda: open_store(store_path).columns(), repeats)
    store_trace = time_call(lambda: open_store(store_path).load_trace(), repeats)

    def query(engine: AnalysisEngine) -> str:
        return engine.execute(AnalysisRequest.from_query(p=p, slices=n_slices))

    def cold_query() -> None:
        shutil.rmtree(store_path / "models", ignore_errors=True)
        query(AnalysisEngine(open_store(store_path)))

    cold = time_call(cold_query, repeats)

    # Restarted-server leg: the result cache is empty but the store already
    # holds the discretized model and its prefix tables.
    query(AnalysisEngine(open_store(store_path)))
    model_cached = time_call(
        lambda: query(AnalysisEngine(open_store(store_path))), repeats
    )

    warm_session = AnalysisEngine(open_store(store_path))
    query(warm_session)
    warm = time_call(lambda: query(warm_session), max(repeats, 5))

    return {
        "resources": n_resources,
        "slices": n_slices,
        "states": n_states,
        "intervals": trace.n_intervals,
        "csv_bytes": csv_bytes,
        "store_bytes": directory_bytes(store_path),
        "csv_load_seconds": round(csv_load, 6),
        "store_load_seconds": round(store_load, 6),
        "store_trace_seconds": round(store_trace, 6),
        "load_speedup": round(csv_load / store_load, 3),
        "cold_query_seconds": round(cold, 6),
        "model_cached_query_seconds": round(model_cached, 6),
        "warm_query_seconds": round(warm, 6),
        "query_speedup": round(cold / warm, 3),
    }


def check_regression(
    results: list[dict],
    baseline_path: Path,
    max_regression: float,
    max_regression_query: float,
) -> int:
    """Compare speedup ratios against a committed baseline; 0 when acceptable.

    ``query_speedup`` gets its own (much looser) allowed factor: the warm leg
    is a microsecond-scale cache hit, so its ratio is 4-5 orders of magnitude
    and jitters far more than the load ratio — a 50x swing still certifies a
    >1000x cache win, while a 50x swing of the load ratio would mean the
    store is broken.
    """
    return check_ratio_regression(
        results,
        baseline_path,
        key_fields=("resources", "slices"),
        metrics=[
            GateMetric("load_speedup", max_regression=max_regression),
            GateMetric(
                "query_speedup",
                max_regression=max_regression_query,
                note="loose factor: microsecond-scale warm leg",
            ),
        ],
    )


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--smoke", action="store_true", help="small grid for CI smoke runs")
    parser.add_argument("--states", type=int, default=4, help="number of states (default: 4)")
    parser.add_argument("-p", "--parameter", type=float, default=0.7,
                        help="gain/loss trade-off for the query legs (default: 0.7)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repetitions, best is kept (default: 3)")
    parser.add_argument("--seed", type=int, default=0, help="synthetic trace seed")
    parser.add_argument("--workdir", type=Path, default=None,
                        help="scratch directory for traces (default: a temp dir)")
    parser.add_argument("--output", type=Path, default=ROOT / "BENCH_store.json",
                        help="JSON output path (default: BENCH_store.json at the repo root)")
    parser.add_argument("--check-against", type=Path, default=None,
                        help="baseline BENCH json to gate speedup regressions against")
    parser.add_argument("--max-regression", type=float, default=2.0,
                        help="maximum allowed load-speedup degradation factor (default: 2.0)")
    parser.add_argument("--max-regression-query", type=float, default=50.0,
                        help="maximum allowed query-speedup degradation factor "
                             "(default: 50.0; the warm leg is a microsecond-scale "
                             "cache hit, so its ratio jitters)")
    args = parser.parse_args(argv)

    grid = SMOKE_GRID if args.smoke else FULL_GRID

    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        workdir = args.workdir if args.workdir is not None else Path(tmp)
        workdir.mkdir(parents=True, exist_ok=True)
        results = []
        for n_resources, n_slices, gen_slices in grid:
            row = bench_cell(
                workdir, n_resources, n_slices, gen_slices,
                args.states, args.parameter, args.repeats, args.seed,
            )
            print(
                f"resources={n_resources:>4} slices={n_slices:>3} "
                f"intervals={row['intervals']:>7} "
                f"csv={row['csv_load_seconds']*1e3:8.1f}ms "
                f"store={row['store_load_seconds']*1e3:7.1f}ms ({row['load_speedup']:.1f}x)  "
                f"cold={row['cold_query_seconds']*1e3:8.1f}ms "
                f"warm={row['warm_query_seconds']*1e6:7.1f}us ({row['query_speedup']:.0f}x)"
            )
            results.append(row)

    payload = {
        "benchmark": "trace_store",
        "meta": bench_meta(),
        "config": {
            "p": args.parameter,
            "states": args.states,
            "repeats": args.repeats,
            "seed": args.seed,
            "grid": "smoke" if args.smoke else "full",
        },
        "results": results,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")

    if args.check_against is not None:
        return check_regression(
            results, args.check_against, args.max_regression, args.max_regression_query
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
