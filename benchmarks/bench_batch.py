"""Benchmark of corpus-scale batch analysis: throughput over an N-trace corpus.

Three ways to analyze a corpus of traces with identical parameters:

* **naive sequential pipeline** — the pre-batch workflow: for every trace,
  re-parse the CSV, build the microscopic model per interval, warm the
  prefix tables, run the DP and serialize — nothing shared, nothing cached;
* **batch, jobs=1** — ``repro batch`` over a corpus of converted ``.rtz``
  stores whose model caches are warm: each shard loads columnar arrays and
  the persisted model (prefix tables included) and goes straight to the DP;
* **batch, jobs=W** — the same corpus fanned over a process pool, one shard
  per trace (``repro batch --jobs W``).

Reported metrics:

* ``pipeline_speedup`` = naive / batch(jobs=1): the subsystem win from the
  store + model-cache + batch pipeline.  A wall-clock ratio on the same
  runner, stable across hardware — this is the primary, always-gated number
  (acceptance floor: **3x**).
* ``jobs{W}_speedup`` = batch(jobs=1) / batch(jobs=W): worker-pool scaling.
  Inherently hardware-dependent — a 1-core container cannot scale no matter
  how good the code is — so the result records ``cpu_count`` and the
  **3x-at-W=4 floor is gated only when the gating machine has >= 4 CPUs**.
  Every gate a machine cannot evaluate is announced on stderr and recorded
  in ``meta.skipped_gates`` — a committed baseline says out loud what it
  could not check.

A second row family (``sharing_results``) exercises the **zero-copy model
sharing** path at fleet scale: a corpus of 1024-resource stores with
persisted 1000-slice model caches, analyzed through a trailing window
(``repro batch --window last:40 --jobs W``).  Alongside the jobs=2 >= 1.5x
scaling gate (active on >= 2 CPUs), the cell spawns N independent worker
processes that map the *same* model cache via ``np.load(mmap_mode="r")``,
touch every page, and report the Pss of those mappings from
``/proc/self/smaps`` while all N hold them: ``mmap_share_factor`` =
``N * model_bytes / sum(Pss)`` is ~N when the OS page cache backs all
workers with one physical copy and ~1 if each worker had private pages.
The acceptance floor ``N / 1.3`` is exactly "the fleet's combined footprint
stays within 1.3x one model copy".

Before timing, the batch payloads are asserted byte-identical to the naive
pipeline's (same canonical serialization), so the speedups never come from
computing something different.

Usage::

    python benchmarks/bench_batch.py                    # full grid
    python benchmarks/bench_batch.py --smoke \
        --output BENCH_batch_smoke.json \
        --check-against BENCH_batch.json --max-regression 2.0
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


from common import (  # noqa: E402
    bench_meta,
    GateMetric,
    check_ratio_regression,
    time_call,
    warn_skipped_gates,
)

from repro.batch import analysis_params, discover_corpus, run_batch  # noqa: E402
from repro.core.microscopic import MicroscopicModel  # noqa: E402
from repro.pipeline.payloads import (  # noqa: E402
    analysis_payload,
    run_analysis,
    serialize_payload,
    trace_summary,
)
from repro.store import save_store, trace_digest  # noqa: E402
from repro.trace.io import read_csv, write_csv  # noqa: E402
from repro.trace.synthetic import random_trace  # noqa: E402

#: (n_traces, resources, analysis slices, generator slices).  The smoke grid
#: equals the full grid so the CI gate always overlaps the committed
#: baseline (the acceptance cell is 6 traces at 64 resources / 60 slices).
FULL_GRID = [(6, 64, 60, 600)]
SMOKE_GRID = [(6, 64, 60, 600)]
#: Pool widths benchmarked against jobs=1.
JOB_WIDTHS = (2, 4)
#: The model-sharing cell: (n_traces, resources, analysis slices, generator
#: slices, trailing window, Pss workers).  Smoke == full for the same
#: baseline-overlap reason.  The generator slice count only sets the interval
#: count of the synthetic traces — the shared model is ``resources x slices``
#: (1024 x 1000, ~131 MB of prefix tables per store) regardless.
SHARING_GRID = [(2, 1024, 1000, 200, 40, 4)]


def _naive_pipeline(csv_paths, p, slices):
    """The pre-batch workflow: everything cold, one trace at a time."""
    payloads = {}
    for path in csv_paths:
        trace = read_csv(path)
        model = MicroscopicModel.from_trace(trace, n_slices=slices)
        model.cumulative_tables()
        result = run_analysis(model, p)
        summary = trace_summary(
            trace_digest(trace), trace.n_intervals, trace.hierarchy.n_leaves,
            len(trace.states), trace.start, trace.end, trace.metadata,
        )
        payloads[path.stem] = serialize_payload(
            analysis_payload(summary, result, analysis_params(p, slices, "mean", 0.1))
        )
    return payloads


def bench_cell(
    workdir: Path,
    n_traces: int,
    n_resources: int,
    n_slices: int,
    gen_slices: int,
    n_states: int,
    p: float,
    repeats: int,
    seed: int,
) -> dict:
    """One grid cell: naive pipeline vs batch at jobs=1 and jobs=W."""
    corpus_dir = workdir / f"corpus_r{n_resources}_t{gen_slices}"
    corpus_dir.mkdir(parents=True, exist_ok=True)
    csv_paths = []
    for index in range(n_traces):
        trace = random_trace(
            n_resources=n_resources, n_slices=gen_slices,
            n_states=n_states, seed=seed + index,
        )
        csv_path = workdir / f"trace_{index:02d}.csv"
        write_csv(trace, csv_path)
        csv_paths.append(csv_path)
        # Converted store with a warm model cache — what `repro convert
        # --model-slices` leaves behind and what batch shards reuse.  Built
        # from the re-read CSV (exactly what `repro convert` does) so both
        # legs analyze identical content.
        store = save_store(read_csv(csv_path), corpus_dir / f"trace_{index:02d}.rtz")
        store.model(n_slices)
    corpus = discover_corpus(corpus_dir)

    def batch(jobs: int):
        return run_batch(corpus, p=p, slices=n_slices, jobs=jobs)

    # Correctness tripwire: batch shards must produce byte-identical payloads
    # to the naive pipeline, serially and across the pool.
    naive_payloads = _naive_pipeline(csv_paths, p, n_slices)
    batch_result = batch(1)
    assert batch_result.ok, batch_result.failures
    for name, payload in batch_result.results.items():
        if serialize_payload(payload) != naive_payloads[name]:
            raise AssertionError(
                f"batch payload for {name} differs from the naive pipeline"
            )
    parallel_result = batch(max(JOB_WIDTHS))
    if {k: serialize_payload(v) for k, v in parallel_result.results.items()} != {
        k: serialize_payload(v) for k, v in batch_result.results.items()
    }:
        raise AssertionError("parallel batch payloads differ from serial")

    naive_seconds = time_call(lambda: _naive_pipeline(csv_paths, p, n_slices), repeats)
    batch1_seconds = time_call(lambda: batch(1), repeats)
    row = {
        "n_traces": n_traces,
        "resources": n_resources,
        "slices": n_slices,
        "intervals_per_trace": n_resources * gen_slices * n_states,
        "cpu_count": os.cpu_count() or 1,
        "naive_seconds": round(naive_seconds, 6),
        "batch1_seconds": round(batch1_seconds, 6),
        "naive_traces_per_second": round(n_traces / naive_seconds, 3),
        "batch1_traces_per_second": round(n_traces / batch1_seconds, 3),
        "pipeline_speedup": round(naive_seconds / batch1_seconds, 3),
    }
    for width in JOB_WIDTHS:
        seconds = time_call(lambda: batch(width), repeats)
        row[f"batch{width}_seconds"] = round(seconds, 6)
        row[f"batch{width}_traces_per_second"] = round(n_traces / seconds, 3)
        row[f"jobs{width}_speedup"] = round(batch1_seconds / seconds, 3)
    return row


def _smaps_stats(path_fragment: str) -> "dict | None":
    """Size/Rss/Pss (kB) of this process's mappings under ``path_fragment``.

    Parses ``/proc/self/smaps``; returns ``None`` where the file does not
    exist or cannot be read (non-Linux, hardened /proc) — callers skip the
    sharing gate and record why instead of failing.
    """
    try:
        text = Path("/proc/self/smaps").read_text()
    except OSError:
        return None
    totals = {"size_kb": 0, "rss_kb": 0, "pss_kb": 0}
    in_mapping = False
    for line in text.splitlines():
        first = line.split(" ", 1)[0]
        if "-" in first and not first.endswith(":"):  # mapping header line
            in_mapping = path_fragment in line
        elif in_mapping:
            key, _, rest = line.partition(":")
            field = {"Size": "size_kb", "Rss": "rss_kb", "Pss": "pss_kb"}.get(key)
            if field:
                totals[field] += int(rest.split()[0])
    return totals


def _mmap_sharing_worker(store_path, slices, barrier, conn) -> None:
    """One fan-out worker: map the shared model cache, touch it, report Pss.

    All workers rendezvous at ``barrier`` *after* touching every page and
    *before* measuring, so each one's smaps snapshot sees all N mappings
    alive — Pss then splits every shared page N ways and the summed Pss of a
    truly shared mapping stays ~one model copy.
    """
    import numpy as np

    from repro.store import open_store

    try:
        store = open_store(store_path)
        model = store.model(slices)
        # Fault in every page of the mapped tables (read-only traversal).
        touched = float(np.sum(model.durations))
        for table in model.cumulative_tables():
            touched += float(np.sum(table))
        barrier.wait(timeout=120)
        stats = _smaps_stats(str(store.model_cache_path(slices)))
        conn.send({"ok": True, "smaps": stats, "touched": touched})
    except Exception as exc:  # surface the failure text to the parent
        conn.send({"ok": False, "error": f"{type(exc).__name__}: {exc}"})
    finally:
        conn.close()


def measure_mmap_sharing(store_path: Path, slices: int, workers: int) -> dict:
    """Spawn ``workers`` processes mapping one model cache; measure sharing.

    Returns a record with ``supported=False`` (and a reason) when the
    measurement cannot run here, else per-worker Rss/Pss of the cache
    mappings and ``share_factor = workers * model_bytes / sum(Pss)``.
    """
    from repro.store import open_store

    cache_dir = open_store(store_path).model_cache_path(slices)
    model_bytes = sum(f.stat().st_size for f in cache_dir.iterdir())
    # Only the big tables are memory-mapped; ``edges.npy`` is loaded eagerly
    # and ``model.json`` is metadata, so the sharing arithmetic uses the
    # bytes that *can* be shared.
    mmap_bytes = sum(
        f.stat().st_size
        for f in cache_dir.iterdir()
        if f.name.startswith(("durations", "cum_"))
    )
    if _smaps_stats("") is None:
        return {
            "supported": False,
            "reason": "/proc/self/smaps unavailable on this platform",
            "model_bytes": model_bytes,
            "workers": workers,
        }
    ctx = multiprocessing.get_context("spawn")  # no inherited parent mappings
    barrier = ctx.Barrier(workers)
    procs, pipes = [], []
    for _ in range(workers):
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_mmap_sharing_worker,
            args=(str(store_path), slices, barrier, child_conn),
        )
        proc.start()
        child_conn.close()
        procs.append(proc)
        pipes.append(parent_conn)
    reports = []
    for conn in pipes:
        try:
            reports.append(conn.recv())
        except EOFError:
            reports.append({"ok": False, "error": "worker died before reporting"})
    for proc in procs:
        proc.join(timeout=60)
    errors = [r["error"] for r in reports if not r.get("ok")]
    if errors:
        return {
            "supported": False,
            "reason": f"sharing workers failed: {errors[0]}",
            "model_bytes": model_bytes,
            "workers": workers,
        }
    if any(r["smaps"] is None for r in reports):
        return {
            "supported": False,
            "reason": "/proc/self/smaps unavailable in worker processes",
            "model_bytes": model_bytes,
            "workers": workers,
        }
    rss_kb = [r["smaps"]["rss_kb"] for r in reports]
    pss_kb = [r["smaps"]["pss_kb"] for r in reports]
    mapped_kb = [r["smaps"]["size_kb"] for r in reports]
    sum_pss_bytes = sum(pss_kb) * 1024
    if min(mapped_kb) * 1024 < 0.95 * mmap_bytes:
        # Not a measurement limitation — the zero-copy path itself broke
        # (workers rebuilt private models instead of mapping the cache).
        # A zero factor fails the gate loudly instead of skipping it.
        return {
            "supported": True,
            "anomaly": "workers did not map the full model cache",
            "model_bytes": model_bytes,
            "mmap_bytes": mmap_bytes,
            "workers": workers,
            "worker_mapped_kb": mapped_kb,
            "share_factor": 0.0,
        }
    return {
        "supported": True,
        "model_bytes": model_bytes,
        "mmap_bytes": mmap_bytes,
        "workers": workers,
        "worker_rss_kb": rss_kb,
        "worker_pss_kb": pss_kb,
        "sum_pss_bytes": sum_pss_bytes,
        "share_factor": round(workers * mmap_bytes / max(sum_pss_bytes, 1), 3),
    }


def bench_sharing_cell(
    workdir: Path,
    n_traces: int,
    n_resources: int,
    n_slices: int,
    gen_slices: int,
    window_k: int,
    pss_workers: int,
    n_states: int,
    p: float,
    seed: int,
) -> dict:
    """The 1024x1000 model-sharing cell: windowed batch + mmap Pss proof."""
    from repro.pipeline.window import WindowSpec

    corpus_dir = workdir / f"sharing_r{n_resources}_s{n_slices}"
    corpus_dir.mkdir(parents=True, exist_ok=True)
    setup_start = time.time()
    store_paths = []
    for index in range(n_traces):
        trace = random_trace(
            n_resources=n_resources, n_slices=gen_slices,
            n_states=n_states, seed=seed + index,
        )
        store = save_store(trace, corpus_dir / f"trace_{index:02d}.rtz")
        store.model(n_slices)  # publish the mmap-backed model cache
        store_paths.append(store.path)
    setup_seconds = time.time() - setup_start
    corpus = discover_corpus(corpus_dir)
    window = WindowSpec.last(window_k)

    def batch(jobs: int):
        return run_batch(corpus, p=p, slices=n_slices, window=window, jobs=jobs)

    serial = batch(1)
    assert serial.ok, serial.failures
    parallel = batch(2)
    payloads_identical = {
        k: serialize_payload(v) for k, v in parallel.results.items()
    } == {k: serialize_payload(v) for k, v in serial.results.items()}
    if not payloads_identical:
        raise AssertionError("windowed parallel batch payloads differ from serial")

    batch1_seconds = time_call(lambda: batch(1), 1)
    batch2_seconds = time_call(lambda: batch(2), 1)
    sharing = measure_mmap_sharing(store_paths[0], n_slices, pss_workers)
    row = {
        "n_traces": n_traces,
        "resources": n_resources,
        "slices": n_slices,
        "gen_slices": gen_slices,
        "window": f"last:{window_k}",
        "cpu_count": os.cpu_count() or 1,
        "setup_seconds": round(setup_seconds, 3),
        "batch1_seconds": round(batch1_seconds, 6),
        "batch2_seconds": round(batch2_seconds, 6),
        "jobs2_speedup": round(batch1_seconds / batch2_seconds, 3),
        "payloads_identical": payloads_identical,
        "mmap": sharing,
        "mmap_share_factor": sharing.get("share_factor", 0.0),
    }
    return row


def build_gates(
    sharing_results: "list[dict]",
    max_regression: float,
    min_pipeline_speedup: float,
    min_jobs_speedup: float,
) -> "tuple[list[GateMetric], list[GateMetric]]":
    """The (classic, sharing) gate metrics for this machine and run."""
    cpu_count = os.cpu_count() or 1
    jobs_gate_active = cpu_count >= 4
    jobs2_gate_active = cpu_count >= 2
    classic = [
        GateMetric(
            "pipeline_speedup",
            max_regression=max_regression,
            min_ratio=min_pipeline_speedup,
            note=f"hard minimum {min_pipeline_speedup:.0f}x",
        ),
        GateMetric(
            "jobs4_speedup",
            min_ratio=min_jobs_speedup,
            active=jobs_gate_active,
            note=(
                f"jobs gate on a {cpu_count}-CPU machine"
                if jobs_gate_active
                else f"cpu_count={cpu_count} < 4: pool scaling unmeasurable"
            ),
        ),
    ]
    pss_supported = all(
        row.get("mmap", {}).get("supported") for row in sharing_results
    )
    pss_reasons = [
        row["mmap"]["reason"] for row in sharing_results
        if not row.get("mmap", {}).get("supported")
    ]
    pss_floor = min(
        (row["mmap"]["workers"] / 1.3 for row in sharing_results
         if row.get("mmap", {}).get("supported")),
        default=1.0,
    )
    sharing = [
        GateMetric(
            "jobs2_speedup",
            min_ratio=1.5,
            active=jobs2_gate_active,
            note=(
                f"windowed fleet pass on a {cpu_count}-CPU machine"
                if jobs2_gate_active
                else f"cpu_count={cpu_count} < 2: pool scaling unmeasurable"
            ),
        ),
        GateMetric(
            "mmap_share_factor",
            min_ratio=pss_floor,
            active=pss_supported and bool(sharing_results),
            note=(
                "N workers' summed Pss must stay within 1.3x one model copy"
                if pss_supported
                else "; ".join(pss_reasons) or "sharing cell not run"
            ),
        ),
    ]
    return classic, sharing


def check_regression(
    results: list[dict],
    sharing_results: list[dict],
    baseline_path: Path,
    classic_gates: "list[GateMetric]",
    sharing_gates: "list[GateMetric]",
) -> int:
    """Gate both row families against the committed baseline."""
    code = check_ratio_regression(
        results,
        baseline_path,
        key_fields=("n_traces", "resources", "slices"),
        metrics=classic_gates,
    )
    if sharing_results:
        code = max(
            code,
            check_ratio_regression(
                sharing_results,
                baseline_path,
                key_fields=("n_traces", "resources", "slices"),
                metrics=sharing_gates,
                results_key="sharing_results",
            ),
        )
    return code


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--smoke", action="store_true", help="small grid for CI smoke runs")
    parser.add_argument("--states", type=int, default=4, help="number of states (default: 4)")
    parser.add_argument("-p", "--parameter", type=float, default=0.7,
                        help="gain/loss trade-off (default: 0.7)")
    parser.add_argument("--repeats", type=int, default=1,
                        help="timing repetitions, best is kept (default: 1; the "
                             "legs are long enough to be stable)")
    parser.add_argument("--seed", type=int, default=0, help="synthetic trace seed")
    parser.add_argument("--workdir", type=Path, default=None,
                        help="scratch directory for traces (default: a temp dir)")
    parser.add_argument("--output", type=Path, default=ROOT / "BENCH_batch.json",
                        help="JSON output path (default: BENCH_batch.json at the repo root)")
    parser.add_argument("--check-against", type=Path, default=None,
                        help="baseline BENCH json to gate regressions against")
    parser.add_argument("--max-regression", type=float, default=2.0,
                        help="maximum allowed pipeline-speedup degradation factor "
                             "(default: 2.0)")
    parser.add_argument("--min-pipeline-speedup", type=float, default=3.0,
                        help="hard acceptance floor for pipeline_speedup (default: 3.0)")
    parser.add_argument("--min-jobs-speedup", type=float, default=3.0,
                        help="hard floor for jobs4_speedup on machines with >= 4 "
                             "CPUs (default: 3.0)")
    parser.add_argument("--no-sharing", action="store_true",
                        help="skip the 1024x1000 model-sharing cell")
    args = parser.parse_args(argv)

    grid = SMOKE_GRID if args.smoke else FULL_GRID

    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        workdir = args.workdir if args.workdir is not None else Path(tmp)
        workdir.mkdir(parents=True, exist_ok=True)
        results = []
        for n_traces, n_resources, n_slices, gen_slices in grid:
            row = bench_cell(
                workdir, n_traces, n_resources, n_slices, gen_slices,
                args.states, args.parameter, args.repeats, args.seed,
            )
            print(
                f"traces={n_traces} resources={n_resources:>3} slices={n_slices:>3} "
                f"naive={row['naive_seconds']:7.2f}s "
                f"batch1={row['batch1_seconds']:6.2f}s "
                f"(pipeline {row['pipeline_speedup']:.1f}x) "
                f"jobs4={row['batch4_seconds']:6.2f}s "
                f"(scaling {row['jobs4_speedup']:.2f}x on "
                f"{row['cpu_count']} CPUs)"
            )
            results.append(row)
        sharing_results = []
        if not args.no_sharing:
            for cell in SHARING_GRID:
                n_traces, n_resources, n_slices, gen_slices, window_k, workers = cell
                row = bench_sharing_cell(
                    workdir, n_traces, n_resources, n_slices, gen_slices,
                    window_k, workers, args.states, args.parameter, args.seed,
                )
                mmap_info = row["mmap"]
                share = (
                    f"share_factor={row['mmap_share_factor']:.2f} "
                    f"(~{mmap_info['workers']} = fully shared, ~1 = private) "
                    f"model={mmap_info['model_bytes'] / 1e6:.0f}MB"
                    if mmap_info.get("supported")
                    else f"pss: {mmap_info.get('reason', 'unavailable')}"
                )
                print(
                    f"sharing traces={n_traces} resources={n_resources} "
                    f"slices={n_slices} window={row['window']} "
                    f"batch1={row['batch1_seconds']:6.2f}s "
                    f"jobs2={row['jobs2_speedup']:.2f}x | {share}"
                )
                sharing_results.append(row)

    classic_gates, sharing_gates = build_gates(
        sharing_results, args.max_regression,
        args.min_pipeline_speedup, args.min_jobs_speedup,
    )
    skipped_gates = warn_skipped_gates(classic_gates + sharing_gates)
    cpu_count = os.cpu_count() or 1
    meta = bench_meta()
    meta["skipped_gates"] = skipped_gates
    payload = {
        "benchmark": "batch_corpus",
        "meta": meta,
        "config": {
            "p": args.parameter,
            "states": args.states,
            "repeats": args.repeats,
            "seed": args.seed,
            "grid": "smoke" if args.smoke else "full",
            "cpu_count": cpu_count,
            "jobs_gate_active": cpu_count >= 4,
        },
        "results": results,
        "sharing_results": sharing_results,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")

    if args.check_against is not None:
        return check_regression(
            results, sharing_results, args.check_against,
            classic_gates, sharing_gates,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
