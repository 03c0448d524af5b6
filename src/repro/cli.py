"""Command-line interface: thin adapters over :mod:`repro.pipeline`.

Seven subcommands cover the typical workflow without writing Python:

* ``simulate`` — run one of the paper's scenarios (cases A–D, optionally
  scaled down) and write the trace as a CSV file;
* ``analyze`` — read a trace (CSV, Pajé or ``.rtz`` store), build the
  microscopic model, run the spatiotemporal aggregation and print the
  analysis report as text or, with ``--json``, as the service's
  machine-readable payload;
* ``batch`` — analyze every trace of a *corpus* (a directory or manifest of
  stores and trace files), fanning one shard per trace over a process pool
  (``--jobs``), and print the corpus summary ranked by heterogeneity;
* ``compare`` — cross-trace comparison of two traces at matched parameters:
  partition diff, per-resource deviation deltas, summary deltas;
* ``convert`` — convert a CSV trace into a chunked binary ``.rtz`` store
  (optionally pre-building microscopic models for chosen slice counts);
* ``stream`` — tail a growing CSV/Pajé source into an ``.rtz`` store:
  appended rows become appended chunks (cheap steady state), dimension
  changes trigger a rebuild with a bumped generation;
* ``serve`` — answer aggregation queries over a JSON HTTP API
  (``GET /v1/traces``, ``POST /v1/analyze``, ``POST /v1/sweep``,
  ``POST /v1/append``, ``POST /v1/batch``, ``POST /v1/compare``,
  ``GET /v1/health``); traces are pinned explicitly and/or served lazily
  from a corpus (``--corpus``) behind an LRU bound (``--max-sessions``);
  SIGTERM/SIGINT shut the server down gracefully (in-flight requests
  drain, sessions are released).

Every query-shaped command builds a typed request
(:class:`~repro.pipeline.requests.AnalysisRequest` and friends), resolves
its traces through :func:`~repro.pipeline.resolver.resolve_path`, and lets
the pipeline executor and :mod:`repro.pipeline.payloads` do the work — the
CLI owns flag parsing and error phrasing, nothing else.

Usage::

    python -m repro simulate --case A --processes 32 --output case_a.csv
    python -m repro analyze case_a.csv --slices 30 -p 0.7 --svg overview.svg
    python -m repro analyze case_a.csv --slices 30 --window last:6
    python -m repro analyze case_a.csv --operator max --json
    python -m repro batch runs/ --jobs 4 --output reports/
    python -m repro compare case_a.rtz case_c.rtz --json
    python -m repro convert case_a.csv case_a.rtz --model-slices 30,60
    python -m repro stream live.csv live.rtz --follow --poll 0.5
    python -m repro serve case_a.rtz --port 8000
    python -m repro serve --corpus runs/ --max-sessions 16
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Sequence

from .analysis import overview_report
from .core.hierarchy import HierarchyError
from .core.microscopic import MicroscopicModelError
from .core.operators import available_operators
from .core.spatiotemporal import AggregationWorkerError
from .core.timeslicing import TimeSlicingError
from .simulation import case_a, case_b, case_c, case_d, run_scenario
from .trace import read_csv, write_csv, write_metadata
from .trace.events import EventError
from .trace.io import TraceIOError
from .trace.trace import Trace, TraceError
from .viz import render_partition_ascii, render_visual_svg, save_svg

__all__ = ["main", "build_parser"]

_CASE_FACTORIES = {"A": case_a, "B": case_b, "C": case_c, "D": case_d}

#: CLI phrasing for shared-validator failures, keyed by the offending field.
_FLAG_ERROR_TEXT = {
    "p": "-p must be in [0, 1]",
    "slices": "--slices must be at least 1",
    "jobs": "--jobs must be at least 1",
}


def _package_version() -> str:
    from .pipeline.payloads import package_version

    return package_version()


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Spatiotemporal aggregation of execution traces (CLUSTER 2014 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_package_version()}",
        help="print the package version and exit",
    )
    operators = list(available_operators())
    from .core.kernels import KERNELS as kernels
    from .pipeline.resolver import TRACE_FORMATS

    trace_formats = list(TRACE_FORMATS)
    subparsers = parser.add_subparsers(dest="command", required=True)

    simulate = subparsers.add_parser(
        "simulate", help="simulate one of the paper's scenarios and write its trace"
    )
    simulate.add_argument("--case", choices=sorted(_CASE_FACTORIES), default="A",
                          help="scenario to simulate (default: A)")
    simulate.add_argument("--processes", type=int, default=None,
                          help="number of MPI processes (default: the paper's count)")
    simulate.add_argument("--iterations", type=int, default=None,
                          help="number of application iterations (default: scenario default)")
    simulate.add_argument("--platform-scale", type=float, default=1.0,
                          help="fraction of the Grid'5000 machines to keep (default: 1.0)")
    simulate.add_argument("--output", required=True, help="CSV trace file to write")
    simulate.add_argument("--metadata", default=None,
                          help="optional JSON side-car file for the run metadata")

    analyze = subparsers.add_parser(
        "analyze", help="aggregate a trace and print the analysis report"
    )
    analyze.add_argument("trace", help="trace to analyze (CSV, Paje, .rtz store, or a "
                                       "Chrome/OTLP/OAR JSON dump — sniffed by content)")
    analyze.add_argument("--format", choices=trace_formats, default=None,
                         help="force the trace file format instead of sniffing "
                              "(stores are always auto-detected)")
    analyze.add_argument("--slices", type=int, default=30,
                         help="number of microscopic time slices (default: 30, as in the paper)")
    analyze.add_argument("-p", "--parameter", type=float, default=0.7,
                         help="gain/loss trade-off in [0, 1] (default: 0.7)")
    analyze.add_argument("--operator", choices=operators, default="mean",
                         help="aggregation operator (default: the paper's mean operator)")
    analyze.add_argument("--svg", default=None, help="write an SVG overview to this path")
    analyze.add_argument("--ascii", action="store_true", help="print an ASCII overview")
    analyze.add_argument("--anomaly-threshold", type=float, default=0.1,
                         help="excess blocking proportion flagged as anomalous (default: 0.1)")
    analyze.add_argument("--jobs", type=int, default=1,
                         help="worker processes for the aggregation (default: 1, serial; "
                              "parallel runs return the same partition)")
    analyze.add_argument("--json", action="store_true",
                         help="emit the machine-readable JSON report (byte-identical to "
                              "the service's POST /v1/analyze) instead of the text report")
    analyze.add_argument("--window", default=None, metavar="last:K|T0:T1",
                         help="restrict the analysis to a slice window: 'last:K' for the "
                              "trailing K slices or 'T0:T1' for the slices covering the "
                              "time span [T0, T1)")
    analyze.add_argument("--kernel", choices=("auto",) + kernels, default=None,
                         help="dynamic-program kernel tier (default: auto — the compiled "
                              "c sweep when it builds with the system C compiler, else "
                              "numpy; all tiers are bit-identical)")
    analyze.add_argument("--trace-out", default=None, metavar="PATH",
                         help="record a span trace of this run and write it as "
                              "Chrome trace-event JSON (open in chrome://tracing "
                              "or Perfetto)")

    batch = subparsers.add_parser(
        "batch", help="analyze every trace of a corpus and rank them by heterogeneity"
    )
    batch.add_argument("corpus",
                       help="corpus directory (stores + CSV/Paje files, optionally "
                            "with a corpus.json manifest) or a manifest file")
    batch.add_argument("--jobs", type=int, default=1,
                       help="worker processes, each analyzing one corpus member at a "
                            "time (default: 1, serial; results are identical)")
    batch.add_argument("-p", "--parameter", type=float, default=0.7,
                       help="gain/loss trade-off in [0, 1] (default: 0.7)")
    batch.add_argument("--slices", type=int, default=30,
                       help="number of microscopic time slices (default: 30)")
    batch.add_argument("--operator", choices=operators, default="mean",
                       help="aggregation operator (default: mean)")
    batch.add_argument("--anomaly-threshold", type=float, default=0.1,
                       help="excess blocking proportion flagged as anomalous (default: 0.1)")
    batch.add_argument("--window", default=None, metavar="last:K|T0:T1",
                       help="restrict every member's analysis to the same slice window "
                            "('last:K' or 'T0:T1') — a fleet-wide recent-activity pass")
    batch.add_argument("--kernel", choices=("auto",) + kernels, default=None,
                       help="dynamic-program kernel tier for every member (default: auto "
                            "— c when it builds, else numpy)")
    batch.add_argument("--output", default=None, metavar="DIR",
                       help="write per-trace analysis JSON files and batch.json here")
    batch.add_argument("--json", action="store_true",
                       help="print the machine-readable batch payload instead of "
                            "the summary table")
    batch.add_argument("--write-manifest", action="store_true",
                       help="freeze the corpus: write corpus.json with current "
                            "content digests and exit (no analysis)")

    compare = subparsers.add_parser(
        "compare", help="compare two traces: partition diff, deviation deltas"
    )
    compare.add_argument("trace_a", help="first trace (CSV, Paje or .rtz store)")
    compare.add_argument("trace_b", help="second trace (CSV, Paje or .rtz store)")
    compare.add_argument("-p", "--parameter", type=float, default=0.7,
                         help="gain/loss trade-off in [0, 1] (default: 0.7)")
    compare.add_argument("--slices", type=int, default=30,
                         help="number of microscopic time slices (default: 30)")
    compare.add_argument("--operator", choices=operators, default="mean",
                         help="aggregation operator (default: mean)")
    compare.add_argument("--anomaly-threshold", type=float, default=0.1,
                         help="excess blocking proportion flagged as anomalous (default: 0.1)")
    compare.add_argument("--json", action="store_true",
                         help="emit the machine-readable comparison payload "
                              "(byte-identical to the service's POST /v1/compare)")

    convert = subparsers.add_parser(
        "convert", help="convert a trace file into a binary .rtz trace store"
    )
    convert.add_argument("trace", help="trace file to convert (CSV, Paje, or a "
                                       "Chrome/OTLP/OAR JSON dump — sniffed by content)")
    convert.add_argument("output", help="store directory to create (conventionally *.rtz)")
    convert.add_argument("--format", choices=trace_formats, default=None,
                         help="force the source file format instead of sniffing")
    convert.add_argument("--chunk-rows", type=int, default=None,
                         help="rows per columnar chunk file (default: 65536)")
    convert.add_argument("--model-slices", default=None,
                         help="comma-separated slice counts to pre-build microscopic "
                              "models for (e.g. '30,60'); served queries at those slice "
                              "counts then skip model construction entirely")

    stream = subparsers.add_parser(
        "stream", help="tail a growing CSV/Paje trace into a binary .rtz store"
    )
    stream.add_argument("source", help="trace file being written by a tracer (CSV or Paje)")
    stream.add_argument("store", help="store directory to create/grow (conventionally *.rtz)")
    stream.add_argument("--source-format", choices=["csv", "paje"], default=None,
                        help="source format (default: 'paje' for *.paje files, else 'csv')")
    stream.add_argument("--follow", action="store_true",
                        help="keep polling the source instead of a one-shot sync")
    stream.add_argument("--poll", type=float, default=1.0,
                        help="seconds between polls with --follow (default: 1.0)")
    stream.add_argument("--max-polls", type=int, default=None,
                        help="stop --follow after this many polls (mainly for scripting)")
    stream.add_argument("--chunk-rows", type=int, default=None,
                        help="rows per columnar chunk file (default: 65536)")

    watch = subparsers.add_parser(
        "watch", help="monitor growing .rtz stores: tail, detect drift/anomalies, alert"
    )
    watch.add_argument("stores", nargs="+",
                       help=".rtz store directories to tail (basenames must be unique)")
    watch.add_argument("--slices", type=int, default=30,
                       help="time slices for the initial model build (default: 30)")
    watch.add_argument("--window", default="last:10", metavar="LAST:K",
                       help="trailing window to score each poll, as 'last:K' slices "
                            "(default: last:10)")
    watch.add_argument("-p", "--parameter", type=float, default=0.7, dest="p",
                       help="aggregation quality/reduction trade-off in [0,1] "
                            "(default: 0.7)")
    watch.add_argument("--operator", choices=["mean", "median", "max", "sum"],
                       default="mean",
                       help="microscopic aggregation operator (default: mean)")
    watch.add_argument("--anomaly-threshold", type=float, default=0.15,
                       help="excess blocking proportion flagged as anomalous "
                            "(default: 0.15)")
    watch.add_argument("--drift-jaccard", type=float, default=0.8,
                       help="partition Jaccard below which a drift event fires "
                            "(default: 0.8)")
    watch.add_argument("--poll", type=float, default=1.0,
                       help="seconds between polls (default: 1.0)")
    watch.add_argument("--max-polls", type=int, default=None,
                       help="stop after this many polls (mainly for scripting)")
    watch.add_argument("--stalled-after", type=int, default=5,
                       help="idle polls before a 'stalled' event (default: 5)")
    watch.add_argument("--json", action="store_true",
                       help="print one JSON object per event (byte-identical to the "
                            "SSE data: payloads) instead of human-readable lines")

    serve = subparsers.add_parser(
        "serve", help="serve traces over a JSON HTTP API (see repro.service)"
    )
    serve.add_argument("traces", nargs="*",
                       help="traces to pin in memory: .rtz store directories or CSV files")
    serve.add_argument("--corpus", default=None, metavar="PATH",
                       help="also serve every member of this corpus (directory or "
                            "manifest), opened lazily behind an LRU bound")
    serve.add_argument("--max-sessions", type=int, default=None,
                       help="maximum concurrently resident corpus sessions "
                            "(default: 8; pinned traces do not count)")
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8000,
                       help="TCP port (default: 8000; 0 picks a free port)")
    serve.add_argument("--shards", type=int, default=None, metavar="N",
                       help="run N shard worker processes behind a consistent-hash "
                            "routing front-end (default: one in-process server)")
    serve.add_argument("--max-inflight", type=int, default=None, metavar="N",
                       help="bound on concurrently in-flight analyze/batch requests "
                            "at the cluster front (default: 64; requires --shards)")
    serve.add_argument("--rate-limit", type=float, default=None, metavar="RPS",
                       help="per-client requests/second on POST routes at the "
                            "cluster front (default: off; requires --shards)")
    serve.add_argument("--trust-forwarded-for", action="store_true",
                       help="key per-client rate limits on the first X-Forwarded-For "
                            "hop instead of the socket peer address; only enable "
                            "behind a reverse proxy that sets the header "
                            "(requires --shards)")
    serve.add_argument("--request-timeout", type=float, default=None, metavar="SECONDS",
                       help="per-request shard proxy timeout at the cluster front "
                            "(default: 30; requires --shards)")
    serve.add_argument("--log-format", choices=["text", "json"], default=None,
                       help="emit structured request logs to stderr: 'json' for "
                            "one JSON object per line, 'text' for human-readable "
                            "lines (default: logging stays off)")
    serve.add_argument("--log-level", choices=["debug", "info", "warning", "error"],
                       default="info",
                       help="log verbosity with --log-format (default: info)")
    serve.add_argument("--trace-sample", type=int, default=None, metavar="N",
                       help="record a span tree for one request in N on "
                            "GET /v1/debug/trace (default: 16; 1 traces every "
                            "request; metrics and logs always cover all)")
    return parser


def _command_simulate(args: argparse.Namespace) -> int:
    factory = _CASE_FACTORIES[args.case]
    kwargs = {"platform_scale": args.platform_scale}
    if args.processes is not None:
        kwargs["n_processes"] = args.processes
    if args.iterations is not None:
        kwargs["iterations"] = args.iterations
    scenario = factory(**kwargs)
    print(f"simulating case {args.case}: {scenario.application.upper()} class "
          f"{scenario.nas_class}, {scenario.n_processes} processes ...", file=sys.stderr)
    trace = run_scenario(scenario)
    try:
        size = write_csv(trace, args.output)
        if args.metadata:
            write_metadata(trace, args.metadata)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {trace.n_events} events ({size} bytes) to {args.output}")
    return 0


def _resolve_trace_argument(path_text: str, format: "str | None" = None) -> "object | int":
    """Resolve a trace argument into a pipeline :class:`TraceSource`.

    Returns the source on success, an exit code on failure (after printing
    the error).
    """
    from .pipeline import resolve_path

    try:
        return resolve_path(path_text, format=format)
    except FileNotFoundError:
        print(f"error: trace file not found: {path_text}", file=sys.stderr)
        return 2
    except IsADirectoryError:
        print(f"error: {path_text} is a directory, not a trace CSV", file=sys.stderr)
        return 2
    except (TraceIOError, TraceError, EventError, HierarchyError) as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return 2


def _load_trace_argument(path_text: str, format: "str | None" = None) -> "Trace | int":
    """Load a trace argument fully into memory (convert/serve consumers)."""
    source = _resolve_trace_argument(path_text, format)
    if isinstance(source, int):
        return source
    try:
        return source.load_trace()  # type: ignore[union-attr]
    except TraceIOError as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return 2


def _flag_error(exc: "Exception") -> str:
    """CLI phrasing of a shared-validator RequestError."""
    field = getattr(exc, "field", None)
    return _FLAG_ERROR_TEXT.get(field, str(exc))


def _apply_kernel_flag(args: argparse.Namespace) -> "str | None":
    """Resolve and install ``--kernel``; returns the error text if invalid.

    Installing via :func:`~repro.core.kernels.set_default_kernel` exports the
    choice through the ``REPRO_KERNEL`` environment variable, so process-pool
    workers spawned later inherit it.
    """
    from .core.kernels import KernelUnavailableError, set_default_kernel

    kernel = getattr(args, "kernel", None)
    if kernel is None:
        return None
    try:
        set_default_kernel(kernel)
    except KernelUnavailableError as exc:
        return str(exc)
    return None


def _command_analyze(args: argparse.Namespace) -> int:
    from .obs.tracing import span, start_trace
    from .pipeline import (
        AnalysisRequest,
        PipelineError,
        RequestError,
        WindowSpec,
        analyze_source,
    )

    kernel_error = _apply_kernel_flag(args)
    if kernel_error is not None:
        print(f"error: {kernel_error}", file=sys.stderr)
        return 2
    window = None
    if args.window:
        try:
            window = WindowSpec.parse_text(args.window)
        except PipelineError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        request = AnalysisRequest(
            p=args.parameter,
            slices=args.slices,
            operator=args.operator,
            anomaly_threshold=args.anomaly_threshold,
            window=window,
            jobs=args.jobs,
        ).validated()
    except RequestError as exc:
        print(f"error: {_flag_error(exc)}", file=sys.stderr)
        return 2
    if args.json and args.ascii:
        print("error: --json and --ascii are mutually exclusive", file=sys.stderr)
        return 2

    def run() -> int:
        with span("analyze.resolve", trace=args.trace):
            source = _resolve_trace_argument(args.trace, args.format)
        if isinstance(source, int):
            return source
        try:
            with span("analyze.pipeline", operator=args.operator):
                outcome = analyze_source(source, request)
        except (MicroscopicModelError, TimeSlicingError) as exc:
            print(f"error: cannot build the microscopic model: {exc}", file=sys.stderr)
            return 2
        except TraceIOError as exc:  # corrupt store discovered on column load
            print(f"error: cannot read trace: {exc}", file=sys.stderr)
            return 2
        except PipelineError as exc:  # e.g. a window outside the trace span
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except AggregationWorkerError as exc:
            # A worker process died (OOM kill, segfault): name the trace and exit
            # cleanly instead of dumping the pool's multiprocessing traceback.
            print(f"error: parallel aggregation of {args.trace} failed: {exc}",
                  file=sys.stderr)
            return 2
        with span("analyze.report", json=args.json):
            if args.json:
                print(outcome.payload_text())
            else:
                try:
                    trace = source.load_trace()  # the text report quotes interval counts
                except TraceIOError as exc:
                    print(f"error: cannot read trace: {exc}", file=sys.stderr)
                    return 2
                result = outcome.result
                print(overview_report(
                    trace, outcome.analysis_model, result.partition, result.phases,
                    result.anomalies,
                ))
                if args.ascii:
                    print()
                    print(render_partition_ascii(outcome.result.partition))
        if args.svg:
            try:
                with span("analyze.svg"):
                    save_svg(
                        render_visual_svg(
                            outcome.result.partition,
                            title=f"{args.trace} (p={args.parameter})",
                        ),
                        args.svg,
                    )
            except OSError as exc:
                print(f"error: cannot write SVG: {exc}", file=sys.stderr)
                return 2
            if args.json:
                print(f"SVG overview written to {args.svg}", file=sys.stderr)
            else:
                print(f"\nSVG overview written to {args.svg}")
        return 0

    if args.trace_out is None:
        return run()
    with start_trace("analyze", trace=args.trace, p=args.parameter) as recorder:
        code = run()
    if code != 0:
        return code
    import json as json_module

    profile = {
        "traceEvents": recorder.chrome_events(),
        "displayTimeUnit": "ms",
        "otherData": {
            "producer": "repro.obs",
            "request_id": recorder.request_id,
            "coverage": round(recorder.coverage(), 4),
        },
    }
    try:
        Path(args.trace_out).write_text(json_module.dumps(profile) + "\n")
    except OSError as exc:
        print(f"error: cannot write trace profile: {exc}", file=sys.stderr)
        return 2
    print(f"Chrome trace profile written to {args.trace_out} "
          f"({len(profile['traceEvents'])} spans)", file=sys.stderr)
    return 0


def _command_batch(args: argparse.Namespace) -> int:
    from .batch import (
        BatchWorkerError,
        batch_report,
        load_corpus,
        run_batch,
        write_corpus_manifest,
    )
    from .batch.corpus import CorpusError
    from .pipeline import (
        BatchRequest,
        PipelineError,
        RequestError,
        WindowSpec,
        serialize_payload,
    )

    kernel_error = _apply_kernel_flag(args)
    if kernel_error is not None:
        print(f"error: {kernel_error}", file=sys.stderr)
        return 2
    window = None
    if args.window:
        try:
            window = WindowSpec.parse_text(args.window)
        except PipelineError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        request = BatchRequest(
            p=args.parameter,
            slices=args.slices,
            operator=args.operator,
            anomaly_threshold=args.anomaly_threshold,
            window=window,
            jobs=args.jobs,
        ).validated()
    except RequestError as exc:
        print(f"error: {_flag_error(exc)}", file=sys.stderr)
        return 2
    try:
        corpus = load_corpus(args.corpus)
    except CorpusError as exc:
        print(f"error: cannot load corpus: {exc}", file=sys.stderr)
        return 2
    if args.write_manifest:
        try:
            manifest = write_corpus_manifest(corpus)
        except (TraceIOError, OSError) as exc:
            print(f"error: cannot write corpus manifest: {exc}", file=sys.stderr)
            return 2
        print(f"froze {len(corpus)} trace(s) into {manifest}")
        return 0
    try:
        result = run_batch(
            corpus,
            p=request.p,
            slices=request.slices,
            operator=request.operator,
            anomaly_threshold=request.anomaly_threshold,
            window=request.window,
            jobs=request.jobs,
        )
    except BatchWorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = result.payload()
    if args.output:
        out_dir = Path(args.output)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            for name in sorted(result.results):
                target = out_dir / f"{name}.analysis.json"
                target.write_text(serialize_payload(result.results[name]) + "\n")
            (out_dir / "batch.json").write_text(serialize_payload(payload) + "\n")
        except OSError as exc:
            print(f"error: cannot write batch output: {exc}", file=sys.stderr)
            return 2
    if args.json:
        print(serialize_payload(payload))
    else:
        print(batch_report(payload))
        if args.output:
            print(f"\nper-trace reports written to {args.output}")
    for failure in result.failures:
        print(
            f"error: cannot analyze {failure.name} ({failure.path}): {failure.error}",
            file=sys.stderr,
        )
    return 0 if result.ok else 2


def _command_compare(args: argparse.Namespace) -> int:
    from .batch import analyze_entry, compare_report
    from .batch.corpus import CorpusError, entry_for_path
    from .pipeline import CompareRequest, RequestError, compare_payload, serialize_payload

    try:
        request = CompareRequest(
            p=args.parameter,
            slices=args.slices,
            operator=args.operator,
            anomaly_threshold=args.anomaly_threshold,
        ).validated()
    except RequestError as exc:
        print(f"error: {_flag_error(exc)}", file=sys.stderr)
        return 2
    sides = []
    for path_text in (args.trace_a, args.trace_b):
        try:
            entry = entry_for_path(path_text)
            payload, model = analyze_entry(
                entry,
                p=request.p,
                slices=request.slices,
                operator=request.operator,
                anomaly_threshold=request.anomaly_threshold,
            )
        except CorpusError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (TraceIOError, TraceError, EventError, HierarchyError) as exc:
            print(f"error: cannot read trace {path_text}: {exc}", file=sys.stderr)
            return 2
        except (MicroscopicModelError, TimeSlicingError) as exc:
            print(f"error: cannot analyze {path_text}: {exc}", file=sys.stderr)
            return 2
        sides.append((entry.name, payload, model))
    payload = compare_payload(
        *sides[0],
        *sides[1],
        request.side_request().params(),
    )
    if args.json:
        print(serialize_payload(payload))
    else:
        print(compare_report(payload))
    return 0


def _command_convert(args: argparse.Namespace) -> int:
    from .store import DEFAULT_CHUNK_ROWS, StoreError, save_store

    loaded = _load_trace_argument(args.trace, args.format)
    if isinstance(loaded, int):
        return loaded
    trace = loaded
    model_slices: list[int] = []
    if args.model_slices:
        try:
            model_slices = [int(v) for v in args.model_slices.split(",") if v.strip()]
        except ValueError:
            print(f"error: invalid --model-slices: {args.model_slices!r}", file=sys.stderr)
            return 2
        if any(s < 1 for s in model_slices):
            print("error: --model-slices values must be at least 1", file=sys.stderr)
            return 2
    chunk_rows = args.chunk_rows if args.chunk_rows is not None else DEFAULT_CHUNK_ROWS
    try:
        store = save_store(trace, args.output, chunk_rows=chunk_rows)
        for n_slices in model_slices:
            store.model(n_slices)
    except (StoreError, OSError) as exc:
        print(f"error: cannot write store: {exc}", file=sys.stderr)
        return 2
    extra = f", models for slices {model_slices}" if model_slices else ""
    print(
        f"wrote {store.n_intervals} intervals to {args.output} "
        f"(digest {store.digest[:12]}…{extra})"
    )
    return 0


def _command_stream(args: argparse.Namespace) -> int:
    import time

    from .store import StoreError, read_live_source, sync_store
    from .trace import read_paje

    if args.chunk_rows is not None and args.chunk_rows < 1:
        print("error: --chunk-rows must be at least 1", file=sys.stderr)
        return 2
    if args.follow and args.poll <= 0:
        print("error: --poll must be positive", file=sys.stderr)
        return 2
    if args.max_polls is not None and args.max_polls < 1:
        print("error: --max-polls must be at least 1", file=sys.stderr)
        return 2
    source_format = args.source_format
    if source_format is None:
        source_format = "paje" if Path(args.source).suffix == ".paje" else "csv"
    if args.follow:
        # A tracer may be mid-write: parse only up to the last complete
        # line so a truncated timestamp ("3." -> 3.0) can't silently sync
        # wrong rows and force a rebuild on the next poll.
        def reader(path: "str") -> "Trace":
            return read_live_source(path, source_format=source_format)
    else:
        reader = read_paje if source_format == "paje" else read_csv

    from .store import DEFAULT_CHUNK_ROWS

    chunk_rows = args.chunk_rows if args.chunk_rows is not None else DEFAULT_CHUNK_ROWS
    polls = 0
    writer = None  # reused across polls so appends stay O(new rows)
    try:
        while True:
            polls += 1
            try:
                trace = reader(args.source)
            except (FileNotFoundError, TraceIOError, EventError) as exc:
                # With --follow a tracer may not have produced a complete
                # file yet (or the final line is mid-write); retry next poll.
                if not args.follow:
                    print(f"error: cannot read trace: {exc}", file=sys.stderr)
                    return 2
                print(f"waiting: {exc}", file=sys.stderr)
            else:
                try:
                    result = sync_store(
                        trace, args.store, chunk_rows=chunk_rows, writer=writer
                    )
                    writer = result.writer
                except (StoreError, OSError) as exc:
                    print(f"error: cannot update store: {exc}", file=sys.stderr)
                    return 2
                if result.action != "unchanged" or not args.follow:
                    print(
                        f"{result.action}: {args.store} at {result.n_intervals} intervals "
                        f"(generation {result.generation}, +{result.appended_rows} rows)",
                        flush=True,
                    )
            if not args.follow or (args.max_polls is not None and polls >= args.max_polls):
                return 0
            time.sleep(args.poll)
    except KeyboardInterrupt:
        return 0


def _command_watch(args: argparse.Namespace) -> int:
    import time

    from .pipeline import PipelineError
    from .pipeline.window import WindowSpec
    from .store import StoreError
    from .watch import StoreWatcher, WatchConfig, format_event, serialize_event

    if args.poll <= 0:
        print("error: --poll must be positive", file=sys.stderr)
        return 2
    if args.max_polls is not None and args.max_polls < 1:
        print("error: --max-polls must be at least 1", file=sys.stderr)
        return 2
    try:
        spec = WindowSpec.parse_text(args.window)
        if spec.kind != "last":
            raise PipelineError(
                "watch scores a trailing window; --window must be 'last:K'"
            )
        config = WatchConfig(
            slices=args.slices,
            window_slices=int(spec.k or 1),
            p=args.p,
            operator=args.operator,
            anomaly_threshold=args.anomaly_threshold,
            drift_jaccard=args.drift_jaccard,
            stalled_polls=args.stalled_after,
        ).validated()
        watcher = StoreWatcher(args.stores, config=config)
    except (PipelineError, TraceIOError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    polls = 0
    try:
        while True:
            polls += 1
            try:
                events = watcher.poll()
            except (StoreError, TraceIOError, OSError) as exc:
                print(f"error: cannot poll stores: {exc}", file=sys.stderr)
                return 2
            for event in events:
                line = serialize_event(event) if args.json else format_event(event)
                print(line, flush=True)
            if args.max_polls is not None and polls >= args.max_polls:
                return 0
            time.sleep(args.poll)
    except KeyboardInterrupt:
        return 0


def _command_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .pipeline import AnalysisEngine, PipelineError
    from .service import SessionRegistry, build_server
    from .store import is_store, open_store

    if not args.traces and not args.corpus:
        print("error: nothing to serve: give trace paths and/or --corpus", file=sys.stderr)
        return 2
    if args.max_sessions is not None and args.max_sessions < 1:
        print("error: --max-sessions must be at least 1", file=sys.stderr)
        return 2
    if args.shards is not None:
        return _command_serve_cluster(args)
    if args.trace_sample is not None and args.trace_sample < 1:
        print("error: --trace-sample must be at least 1", file=sys.stderr)
        return 2
    if args.log_format is not None:
        from .obs.logging import configure_logging

        configure_logging(args.log_format, args.log_level)
    for flag, value in (
        ("--max-inflight", args.max_inflight),
        ("--rate-limit", args.rate_limit),
        ("--request-timeout", args.request_timeout),
        ("--trust-forwarded-for", args.trust_forwarded_for or None),
    ):
        if value is not None:
            print(f"error: {flag} requires --shards (it configures the "
                  "cluster front-end)", file=sys.stderr)
            return 2
    sessions: "dict[str, AnalysisEngine]" = {}
    for path_text in args.traces:
        name = Path(path_text).stem or path_text
        if name in sessions:
            print(f"error: duplicate trace name {name!r} (rename one input)", file=sys.stderr)
            return 2
        if is_store(path_text):
            try:
                sessions[name] = AnalysisEngine(open_store(path_text), name=name)
            except TraceIOError as exc:
                print(f"error: cannot open store: {exc}", file=sys.stderr)
                return 2
        else:
            loaded = _load_trace_argument(path_text)
            if isinstance(loaded, int):
                return loaded
            sessions[name] = AnalysisEngine(loaded, name=name)
    corpus = None
    if args.corpus:
        from .batch import load_corpus
        from .batch.corpus import CorpusError

        try:
            corpus = load_corpus(args.corpus)
        except CorpusError as exc:
            print(f"error: cannot load corpus: {exc}", file=sys.stderr)
            return 2
    registry_kwargs = {}
    if args.max_sessions is not None:
        registry_kwargs["max_sessions"] = args.max_sessions
    try:
        registry = SessionRegistry(sessions=sessions, corpus=corpus, **registry_kwargs)
        server_kwargs = {}
        if args.trace_sample is not None:
            server_kwargs["trace_sample"] = args.trace_sample
        server = build_server(registry, host=args.host, port=args.port, **server_kwargs)
    except (PipelineError, OSError) as exc:
        print(f"error: cannot start the service: {exc}", file=sys.stderr)
        return 2
    host, port = server.server_address[:2]
    names = registry.names()

    # Graceful shutdown: SIGTERM/SIGINT stop accepting connections, drain
    # in-flight requests (bounded), close the listener and release every
    # registry session — then exit 0.  shutdown() must run off the serving
    # thread (it blocks until serve_forever returns), hence the helper thread.
    stopping = threading.Event()

    def _request_shutdown(signum: int, frame: object) -> None:
        if stopping.is_set():
            return
        stopping.set()
        threading.Thread(target=server.shutdown, daemon=True).start()

    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, _request_shutdown)
        signal.signal(signal.SIGINT, _request_shutdown)
    print(f"serving {len(names)} trace(s) on http://{host}:{port} "
          f"({', '.join(names)})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.wait_idle()
        server.server_close()
        registry.close()
    if stopping.is_set():
        print("shutdown complete", file=sys.stderr)
    return 0


def _command_serve_cluster(args: argparse.Namespace) -> int:
    """``repro serve --shards N``: shard workers behind the routing front."""
    import dataclasses
    import signal
    import threading

    from .pipeline import PipelineError
    from .service.cluster import ClusterConfig, start_cluster

    if args.shards < 1:
        print("error: --shards must be at least 1", file=sys.stderr)
        return 2
    if args.max_inflight is not None and args.max_inflight < 1:
        print("error: --max-inflight must be at least 1", file=sys.stderr)
        return 2
    if args.rate_limit is not None and args.rate_limit <= 0:
        print("error: --rate-limit must be positive", file=sys.stderr)
        return 2
    if args.request_timeout is not None and args.request_timeout <= 0:
        print("error: --request-timeout must be positive", file=sys.stderr)
        return 2
    if args.trace_sample is not None and args.trace_sample < 1:
        print("error: --trace-sample must be at least 1", file=sys.stderr)
        return 2
    overrides = {
        key: value
        for key, value in (
            ("max_inflight", args.max_inflight),
            ("rate_limit", args.rate_limit),
            ("request_timeout", args.request_timeout),
            ("trust_forwarded_for", args.trust_forwarded_for or None),
            ("log_format", args.log_format),
            ("trace_sample", args.trace_sample),
        )
        if value is not None
    }
    if args.log_format is not None:
        from .obs.logging import configure_logging

        overrides["log_level"] = args.log_level
        configure_logging(args.log_format, args.log_level)
    config = dataclasses.replace(ClusterConfig(), **overrides)
    try:
        handle = start_cluster(
            args.traces,
            corpus=args.corpus,
            shards=args.shards,
            host=args.host,
            port=args.port,
            max_sessions=args.max_sessions,
            config=config,
        )
    except (PipelineError, TraceIOError, OSError) as exc:
        print(f"error: cannot start the service: {exc}", file=sys.stderr)
        return 2
    host, port = handle.address
    names = sorted(handle.server.routing)

    # Same drain protocol as single-process serve, extended to the workers:
    # stop the supervisor, drain the front, then SIGTERM each shard (whose
    # own handler drains and closes before the worker exits).
    stopping = threading.Event()

    def _request_shutdown(signum: int, frame: object) -> None:
        if stopping.is_set():
            return
        stopping.set()
        threading.Thread(target=handle.server.shutdown, daemon=True).start()

    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, _request_shutdown)
        signal.signal(signal.SIGINT, _request_shutdown)
    print(f"serving {len(names)} trace(s) on http://{host}:{port} "
          f"across {args.shards} shard(s) ({', '.join(names)})", flush=True)
    try:
        handle.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        handle.server.stop_supervisor()
        handle.server.wait_idle(config.drain_timeout)
        handle.server.server_close()
        for shard in handle.shards:
            shard.stop()
    if stopping.is_set():
        print("shutdown complete", file=sys.stderr)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return _command_simulate(args)
        if args.command == "analyze":
            return _command_analyze(args)
        if args.command == "batch":
            return _command_batch(args)
        if args.command == "compare":
            return _command_compare(args)
        if args.command == "convert":
            return _command_convert(args)
        if args.command == "stream":
            return _command_stream(args)
        if args.command == "watch":
            return _command_watch(args)
        if args.command == "serve":
            return _command_serve(args)
    except BrokenPipeError:
        # Reader closed early (e.g. `repro analyze ... | head`).  Point both
        # streams at devnull so the interpreter's final flush cannot traceback
        # either, and exit non-zero: the run may have been interrupted while
        # reporting an error, so success must not be claimed.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.dup2(devnull, sys.stderr.fileno())
        return 1
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
