"""perfbench: the paper's Table II, end to end and layer by layer.

Runs one seeded workload in this process and prints a report, then, as the
last line of standard output, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (medians of the
measured rounds, timings in reference seconds); with ``--trace 1`` half of
the rounds are decomposed into spans and the metrics are per layer.  Spans
are written to ``.perfbench/spans-<workload>-seed<seed>.json``.  The exit
code is 1 when an output check failed and 2 when the program under test
cannot be found.

Usage, from the repository root::

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 30 --trace 0

See ``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics, in report order, with their units.
END_TO_END = {
    "setup_s": "s",
    "ingest_s": "s",
    "first_overview_s": "s",
    "reopen_overview_s": "s",
    "update_s": "s",
    "sweep_s": "s",
    "peak_rss_mb": "MB",
}

#: What each end-to-end metric times, per workload.
MEANING = {
    "setup_s": "input generation (child process, after imports) + input preparation",
    "ingest_s": "CSV -> opened .rtz store (read_csv + save_store)",
    "first_overview_s": {
        "table2": "store without model cache -> AnalysisEngine.execute payload",
        "longspan": "store without model cache -> AnalysisEngine.execute payload",
        "watch": "store without model cache -> first TraceWatch.poll events",
    },
    "reopen_overview_s": {
        "table2": "reopened store, model cache published -> the same payload",
        "longspan": "reopened store, model cache published -> the same payload",
        "watch": "reopened store, model cache published -> the same first poll",
    },
    "update_s": {
        "table2": "reaggregate_s: warm engine, new p, result-cache miss -> payload",
        "longspan": "reaggregate_s: warm engine, new p, result-cache miss -> payload",
        "watch": "poll_s: TraceWatch.poll after a one-slice append",
    },
    "sweep_s": "significant-p search (run_sweep, no ps) over one window, warm engine",
    "peak_rss_mb": "ru_maxrss of this process (input generation excluded)",
}

#: Per-layer metrics reported to the driver: the span timings every workload
#: exercises (busy seconds per traced round, median) and exact counts.
LAYER_TIMINGS = (
    "trace.read",
    "store.save",
    "microscopic.window",
    "criteria.tables",
    "dp.run",
    "parameters.search",
    "payloads.serialize",
)
LAYER_COUNTS = (
    "trace.rows",
    "store.cache_bytes",
    "store.model_loads_cold",
    "store.model_loads_warm",
    "criteria.table_bytes",
    "dp.nodes",
    "dp.cells",
    "dp.table_bytes",
    "parameters.dp_runs",
    "parameters.values",
    "payloads.bytes",
    "pipeline.cache_hits",
    "pipeline.cache_misses",
    "watch.events",
)


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def timing(run: Any, name: str, value: float) -> Dict[str, Any]:
    """A timing metric in reference seconds, with its wall-clock median."""
    return {"value": value, "unit": "s", "n": len(run.samples[name]),
            "wall": median(run.wall[name])}


def end_to_end(run: Any, peak_rss_mb: float) -> Dict[str, Dict[str, Any]]:
    metrics = {
        name: timing(run, name, median(run.samples[name]))
        for name, unit in END_TO_END.items()
        if unit == "s"
    }
    metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB", "n": 1}
    return metrics


def extra_end_to_end(run: Any) -> Dict[str, Dict[str, Any]]:
    """Report-only metrics: append_s and poll_p90_s (watch), failed_ratio."""
    extra: Dict[str, Dict[str, Any]] = {}
    if run.samples.get("append_s"):
        extra["append_s"] = timing(run, "append_s", median(run.samples["append_s"]))
    polls = run.samples.get("update_s", [])
    # A percentile only where at least ten samples lie beyond it.
    if len(polls) >= 100 and run.samples.get("append_s"):
        extra["poll_p90_s"] = {**timing(run, "update_s", statistics.quantiles(polls, n=10)[-1]),
                               "wall": statistics.quantiles(run.wall["update_s"], n=10)[-1]}
    extra["failed_ratio"] = {"value": run.failed / max(1, run.attempted), "unit": "1",
                             "n": run.attempted}
    return extra


def per_layer(run: Any, sizes: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    from spans import busy_by_name

    busy = [busy_by_name(spans) for spans in run.round_spans]
    metrics: Dict[str, Dict[str, Any]] = {}
    for name in LAYER_TIMINGS:
        metrics[f"{name}_s"] = {"value": median([b.get(name, 0.0) for b in busy]),
                                "unit": "s", "n": len(busy)}
    rows = median(run.counters["trace.rows"])
    metrics["trace.rows_per_s"] = {
        "value": rows / metrics["trace.read_s"]["value"] if metrics["trace.read_s"]["value"] else 0.0,
        "unit": "1/s", "n": len(busy),
    }
    for name in ("criteria.alloc_peak_mb", "dp.alloc_peak_mb"):
        metrics[name] = {"value": sizes[name], "unit": "MB", "n": 1}
    for name in LAYER_COUNTS:
        if name in sizes:
            metrics[name] = {"value": sizes[name], "unit": "count", "n": 1}
        else:
            values = run.counters.get(name, [])
            metrics[name] = {"value": median(values), "unit": "count", "n": len(values)}
    return metrics


def layer_report(run: Any) -> List[str]:
    """Self time of every span per traced round, then coverage per operation."""
    from spans import self_by_name

    lines = ["per-layer self time (median seconds per traced round):"]
    per_round = [self_by_name(spans) for spans in run.round_spans]
    names = sorted({n for r in per_round for n in r if not n.startswith("op.")})
    for name in names:
        lines.append(f"  {name:<26} {median([r.get(name, 0.0) for r in per_round]):.6f} s")
    lines.append("operation coverage (untraced wall median; traced median; overhead; "
                 "layer-span share):")
    for metric in sorted(run.traced_samples):
        if metric == "shadow" or not run.samples.get(metric):
            continue
        untraced = median(run.wall[metric])
        traced = median(run.traced_samples[metric])
        children = median([
            s.child_seconds for spans in run.round_spans for s in spans if s.name == f"op.{metric}"
        ])
        layers: Dict[str, List[float]] = {}
        for spans in run.round_spans:
            ops = {s.id for s in spans if s.name == f"op.{metric}"}
            for s in spans:
                if s.parent in ops:
                    layers.setdefault(s.name, []).append(s.seconds)
        spread = ", ".join(f"{n} {median(v):.4f}" for n, v in sorted(layers.items()))
        lines.append(
            f"  {metric:<20} {untraced:.4f} s; {traced:.4f} s; {traced - untraced:+.4f} s; "
            f"{children / untraced:.1%}  [{spread}]"
        )
    return lines


def main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description="perfbench: Table II end to end and per layer")
    parser.add_argument("--workload", required=True, choices=("table2", "longspan", "watch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under test at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import OPERATOR, REFERENCE_SECONDS, WORKLOADS, Run, environment

    scratch = ROOT / ".perfbench"
    workdir = scratch / f"work-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    run = Run(traced=bool(args.trace))
    workload = WORKLOADS[args.workload](args.seed, args.scale, args.seconds, workdir)
    try:
        workload.setup(run)
        workload.execute(run)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        sizes = workload.sizes(run)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    shape = workload.provenance()
    print(f"perfbench {args.workload} seed={args.seed} scale={args.scale} "
          f"seconds={args.seconds} trace={args.trace}")
    print("provenance: " + " ".join(
        f"{k}={v}" for k, v in {
            **{f"|{k}|" if k in ("S", "T") else k: v for k, v in shape.items()},
            "operator": OPERATOR, "seed": args.seed, **environment(),
            "kernel": sizes["kernel"], "kernel_slices": sizes["slices"],
            "rounds": f"{workload.rounds}+1 warm-up",
            "reference_ms": f"{median(run.reference_times) * 1e3:.3f}",
        }.items()
    ))
    if args.trace:
        metrics = per_layer(run, sizes)
        for line in layer_report(run):
            print(line)
        run.tracer.write(scratch / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        metrics = end_to_end(run, peak_rss_mb)
    report = {**metrics, **({} if args.trace else extra_end_to_end(run))}
    print(f"timings in reference seconds: wall seconds x {REFERENCE_SECONDS * 1e3:g} ms / "
          "the reference loop's time just before the operation")
    print(f"{'metric':<26} {'value':>14} {'unit':<6} {'n':>5} {'wall':>10}  meaning")
    for name, entry in report.items():
        meaning = MEANING.get(name, "")
        if isinstance(meaning, dict):
            meaning = meaning[args.workload]
        wall = f"{entry['wall']:10.6f}" if "wall" in entry else f"{'-':>10}"
        print(f"{name:<26} {entry['value']:>14.6f} {entry['unit']:<6} {entry['n']:>5} {wall}  "
              f"{meaning}")
    for failure in run.failures:
        print(f"FAILED: {failure}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
