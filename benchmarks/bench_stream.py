"""Benchmark of streaming ingestion: incremental refresh vs full rebuild.

The live-monitoring hot path appends a small tail of intervals to an ``.rtz``
store and re-queries a window at the end of the trace.  Two ways to absorb
the append:

* **rebuild + cold query** — the pre-streaming workflow: re-open the store,
  reload every chunk, re-discretize *all* intervals into a fresh microscopic
  model, warm its prefix tables, and re-run the whole-trace analysis cold —
  the only query shape the service knew before windowing existed;
* **extend + windowed re-query** — the streaming workflow of
  :class:`repro.pipeline.AnalysisEngine`: :meth:`TraceStore.refresh` loads
  only the new chunk, :meth:`MicroscopicModel.extend` grows the duration
  cube and prefix tables in O(tail intervals + touched slice columns), and
  the re-query analyzes only the live window (the trailing slices the tail
  landed in) on a slice of the already-warm tables.

The ratio ``rebuild / incremental`` is the per-refresh cost drop a live
monitoring loop sees from this subsystem; both legs include result
serialization, and the windowed leg's payload is asserted equal to a
from-scratch windowed computation before timing starts (the differential
property tests prove the stronger bit-identity claims).  Speedups are ratios
of wall-clock on the same runner, stable across hardware.  The acceptance
floor is 10x at resources=64, slices=60, with a 5% appended tail; CI gates
on both the floor and the committed baseline ratio.

Usage::

    python benchmarks/bench_stream.py                    # full grid
    python benchmarks/bench_stream.py --smoke \
        --output BENCH_stream_smoke.json \
        --check-against BENCH_stream.json --max-regression 2.0
"""

from __future__ import annotations

import argparse
import json
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

from repro.core.microscopic import MicroscopicModel  # noqa: E402
from repro.core.spatiotemporal import SpatiotemporalAggregator  # noqa: E402
from repro.pipeline.payloads import (  # noqa: E402
    analysis_payload,
    run_analysis,
    serialize_payload,
    trace_summary,
)
from repro.store import StoreWriter, open_store, save_store  # noqa: E402
from repro.store.store import TraceStore  # noqa: E402
from repro.trace.synthetic import random_trace  # noqa: E402
from repro.trace.trace import Trace  # noqa: E402

#: (resources, analysis slices, generator slices); intervals per cell is
#: resources x generator slices x states.  The acceptance cell is 64/60.
FULL_GRID = [(64, 60, 1200)]
SMOKE_GRID = [(64, 60, 1200)]
#: Fraction of the trace arriving as the appended tail.
TAIL_FRACTION = 0.05
#: Windowed re-query: the slices the 5% tail lands in (3 of 60, plus the
#: partially filled slice before them).
WINDOW_SLICES = 3


def _windowed_payload(store: TraceStore, model: MicroscopicModel, p: float) -> str:
    """The cold windowed query both legs must answer: window + DP + serialize."""
    n_slices = model.n_slices
    windowed = model.window(n_slices - WINDOW_SLICES, n_slices)
    aggregator = SpatiotemporalAggregator(windowed)
    result = run_analysis(windowed, p, aggregator=aggregator)
    summary = trace_summary(
        store.digest, store.n_intervals, store.hierarchy.n_leaves,
        len(store.states), store.start, store.end, store.metadata,
        generation=store.generation,
    )
    payload = analysis_payload(summary, result, {"p": p, "last_k_slices": WINDOW_SLICES})
    return serialize_payload(payload)


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
    """One grid cell: append a 5% tail, refresh incrementally vs rebuild."""
    trace = random_trace(
        n_resources=n_resources, n_slices=gen_slices, n_states=n_states, seed=seed
    )
    intervals = list(trace.intervals)
    split = int(len(intervals) * (1.0 - TAIL_FRACTION))
    base_trace = Trace(
        intervals[:split], trace.hierarchy, trace.states.copy(), trace.metadata
    )
    store_path = workdir / f"r{n_resources}_t{gen_slices}.rtz"
    base_store = save_store(base_trace, store_path)
    base_columns = base_store.columns()
    base_manifest = dict(base_store._manifest)

    # The streaming model as the service holds it pre-append: built at the
    # base span with `n_slices` slices, prefix tables warm.
    base_model = MicroscopicModel.from_columns(
        base_columns.starts, base_columns.ends,
        base_columns.resource_ids, base_columns.state_ids,
        base_store.hierarchy, base_store.states, n_slices=n_slices,
    )
    base_model.cumulative_tables()

    # Commit the tail on disk (once): the store is now at generation 1.
    writer = StoreWriter(store_path)
    writer.append_intervals(
        [(i.start, i.end, i.resource, i.state) for i in intervals[split:]]
    )
    grown_store = open_store(store_path)
    grown_columns = grown_store.columns()

    def incremental() -> str:
        # Fresh pre-append store handle (manifest + columns already in
        # memory, as in a live session), then: refresh -> extend -> query.
        handle = TraceStore(
            store_path, base_manifest, base_store.hierarchy, base_store.states
        )
        handle._columns = base_columns
        tail = handle.refresh()
        model = base_model.extend(tail)
        return _windowed_payload(handle, model, p)

    def rebuild() -> str:
        # Pre-streaming refresh: reload every chunk, re-discretize the whole
        # trace at the requested slice count, re-run the whole-trace
        # analysis with every cache cold.
        handle = open_store(store_path)
        columns = handle.columns()
        model = MicroscopicModel.from_columns(
            columns.starts, columns.ends, columns.resource_ids, columns.state_ids,
            handle.hierarchy, handle.states, n_slices=n_slices,
        )
        model.cumulative_tables()
        result = run_analysis(model, p, aggregator=SpatiotemporalAggregator(model))
        summary = trace_summary(
            handle.digest, handle.n_intervals, handle.hierarchy.n_leaves,
            len(handle.states), handle.start, handle.end, handle.metadata,
            generation=handle.generation,
        )
        return serialize_payload(analysis_payload(summary, result, {"p": p}))

    # Correctness tripwire: the incremental windowed payload must equal the
    # same window computed from scratch over all rows (the property tests
    # assert the stronger bit-identity of the underlying tables).
    scratch_model = MicroscopicModel.from_columns(
        grown_columns.starts, grown_columns.ends,
        grown_columns.resource_ids, grown_columns.state_ids,
        grown_store.hierarchy, grown_store.states,
        slicing=base_model.slicing.extended_to(float(grown_columns.ends.max())),
    )
    scratch_model.cumulative_tables()
    if incremental() != _windowed_payload(grown_store, scratch_model, p):
        raise AssertionError(
            "incremental and from-scratch windowed payloads differ — "
            "extend lost bit-identity"
        )

    # The two gated legs are read per call over samples of at least 20 ms:
    # the incremental leg is a few milliseconds, where one scheduler hiccup
    # would move the ratio across the 10x floor.
    incremental_seconds, _ = timed_per_call(incremental, repeats)
    rebuild_seconds, _ = timed_per_call(rebuild, repeats)

    # Secondary: the model-maintenance step alone (extend vs from_columns).
    extend_seconds = time_call(lambda: base_model.extend(
        grown_columns.slice(split, grown_columns.n_rows)
    ), repeats)
    rediscretize_seconds = time_call(lambda: MicroscopicModel.from_columns(
        grown_columns.starts, grown_columns.ends,
        grown_columns.resource_ids, grown_columns.state_ids,
        grown_store.hierarchy, grown_store.states,
        slicing=base_model.slicing.extended_to(float(grown_columns.ends.max())),
    ).cumulative_tables(), repeats)

    return {
        "resources": n_resources,
        "slices": n_slices,
        "states": n_states,
        "intervals": len(intervals),
        "tail_intervals": len(intervals) - split,
        "tail_fraction": TAIL_FRACTION,
        "window_slices": WINDOW_SLICES,
        "rebuild_seconds": round(rebuild_seconds, 6),
        "incremental_seconds": round(incremental_seconds, 6),
        "incremental_speedup": round(rebuild_seconds / incremental_seconds, 3),
        "rediscretize_seconds": round(rediscretize_seconds, 6),
        "extend_seconds": round(extend_seconds, 6),
        "extend_speedup": round(rediscretize_seconds / extend_seconds, 3),
    }


def check_regression(
    results: list[dict],
    baseline_path: Path,
    max_regression: float,
    min_speedup: float,
) -> int:
    """Gate on the committed baseline ratio and the absolute 10x floor."""
    return check_ratio_regression(
        results,
        baseline_path,
        key_fields=("resources", "slices"),
        metrics=[
            GateMetric(
                "incremental_speedup",
                max_regression=max_regression,
                min_ratio=min_speedup,
                note=f"hard minimum {min_speedup:.0f}x",
            )
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
                        help="scratch directory for stores (default: a temp dir)")
    parser.add_argument("--output", type=Path, default=ROOT / "BENCH_stream.json",
                        help="JSON output path (default: BENCH_stream.json at the repo root)")
    parser.add_argument("--check-against", type=Path, default=None,
                        help="baseline BENCH json to gate speedup regressions against")
    parser.add_argument("--max-regression", type=float, default=2.0,
                        help="maximum allowed incremental-speedup degradation factor "
                             "(default: 2.0)")
    parser.add_argument("--min-speedup", type=float, default=10.0,
                        help="hard acceptance floor for incremental_speedup (default: 10.0)")
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
                f"intervals={row['intervals']:>7} tail={row['tail_intervals']:>6} "
                f"rebuild={row['rebuild_seconds']*1e3:8.1f}ms "
                f"incremental={row['incremental_seconds']*1e3:7.1f}ms "
                f"({row['incremental_speedup']:.1f}x; extend alone "
                f"{row['extend_speedup']:.1f}x)"
            )
            results.append(row)

    payload = {
        "benchmark": "stream_refresh",
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
            results, args.check_against, args.max_regression, args.min_speedup
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
