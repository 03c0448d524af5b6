"""The three perfbench workloads and the traced decomposition of their operations.

Every workload is a closed loop: one caller, one process, each call waiting
for the previous one, no process pools.  A run is a fixed number of rounds;
each round performs every operation kind of the workload once, in the same
order, on fresh stores under the run's scratch root, so machine drift within
a run hits every metric alike.  Round 0 is a warm-up whose timings are
dropped; its outputs become the references later rounds must reproduce.

In a traced run, odd rounds replace each engine call by the public calls the
pipeline makes (store → microscopic model → criteria tables → DP → analysis
→ payload), each inside a span, and check that the payload they assemble is
byte-identical to the engine's.  Calls that cannot be split through public
functions (``TraceWatch.poll``) are one span.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis import detect_deviating_cells, detect_phases
from repro.core import MicroscopicModel, find_significant_parameters, quality_curve
from repro.core.kernels import numba_available
from repro.core.spatiotemporal import SpatiotemporalAggregator
from repro.pipeline import (
    AnalysisEngine,
    AnalysisRequest,
    AnalysisResult,
    StoreSource,
    SweepRequest,
    WindowSpec,
    analysis_payload,
    resolve_window_bounds,
    serialize_payload,
    sweep_payload,
    window_section,
)
from repro.store import StoreWriter, open_store, save_store
from repro.store.modelcache import write_model_cache
from repro.store.store import TraceStore, model_cache_stats
from repro.trace.io import read_csv
from repro.watch import TraceWatch, WatchConfig
from repro.watch.events import serialize_event

from spans import Tracer

HERE = Path(__file__).resolve().parent

#: Operation counts and request shapes per workload and scale.  ``rounds``
#: counts measured rounds per 10 s of ``--seconds``; the warm-up round comes
#: on top.  Counts never depend on elapsed time, so every run of one seed
#: performs exactly the same work.  The last ``sweep_windows`` windows of
#: ``sweep_width`` slices are swept in turn, ``sweeps`` per round.
PLANS: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "table2": {"slices": 30, "reaggregate_ps": (0.2, 0.5, 0.9),
                   "sweep_width": 2, "sweep_windows": 6, "sweeps": 2, "rounds": 3.5},
        "longspan": {"slices": 128, "reaggregate_ps": (0.4, 0.6),
                     "sweep_width": 2, "sweep_windows": 6, "sweeps": 1, "rounds": 2.0},
        "watch": {"head": 64, "window": 32,
                  "sweep_width": 3, "sweep_windows": 3, "sweeps": 2, "rounds": 3.7},
    },
    "tiny": {
        "table2": {"slices": 8, "reaggregate_ps": (0.2,),
                   "sweep_width": 2, "sweep_windows": 2, "sweeps": 1, "rounds": 1.0},
        "longspan": {"slices": 16, "reaggregate_ps": (0.4,),
                     "sweep_width": 2, "sweep_windows": 2, "sweeps": 1, "rounds": 1.0},
        "watch": {"head": 12, "window": 6,
                  "sweep_width": 2, "sweep_windows": 3, "sweeps": 3, "rounds": 1.0},
    },
}

#: The request every overview operation answers (the engine default p).
OVERVIEW_P = 0.7
OPERATOR = "mean"

#: Wall seconds the reference loop takes on the machine the timings are
#: scaled to: a 2-CPU VM without numba, in its faster periods.
REFERENCE_SECONDS = 0.002
_REFERENCE_DATA = np.arange(60_000, dtype=float)[::-1].copy()


def reference_seconds() -> float:
    """Wall seconds of a fixed reference loop right now, median of three.

    The loop mixes interpreter work and numpy calls, as the program does, so
    its time follows how fast the machine runs such code at the moment.  On a
    shared machine other tenants move that by tens of percent for minutes at
    a time, which a run cannot average away.
    """
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(15_000):
            total += i * i
        np.cumsum(np.sort(_REFERENCE_DATA))
        {str(i): i for i in range(300)}
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


class Run:
    """Samples, operation counts and output checks of one benchmark run.

    ``samples`` holds reference seconds: the wall seconds of an operation
    times :data:`REFERENCE_SECONDS` over the reference loop's time measured
    just before it.  ``wall`` holds the wall seconds themselves.
    """

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.tracer = Tracer()
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.wall: Dict[str, List[float]] = defaultdict(list)
        self.reference_times: List[float] = []
        self.traced_samples: Dict[str, List[float]] = defaultdict(list)
        self.round_spans: List[list] = []
        self.counters: Dict[str, List[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.references: Dict[Any, str] = {}
        self.keep = False

    def timed(self, metric: str, fn: Callable[[], Any]) -> Any:
        """Call ``fn`` as one operation, timing it as a sample of ``metric``."""
        self.attempted += 1
        reference = reference_seconds()
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if self.keep:
            self.sample(metric, elapsed, reference)
        return result

    def sample(self, metric: str, elapsed: float, reference: float) -> None:
        """Record ``elapsed`` wall seconds, scaled by the reference loop's time."""
        self.wall[metric].append(elapsed)
        self.samples[metric].append(elapsed * REFERENCE_SECONDS / reference)
        self.reference_times.append(reference)

    def traced_op(self, metric: str, fn: Callable[[], Any]) -> Any:
        """Call ``fn`` as one decomposed operation inside an ``op.`` span."""
        self.attempted += 1
        with self.tracer.span(f"op.{metric}") as span:
            result = fn()
        if self.keep:
            self.traced_samples[metric].append(span.seconds)
        return result

    def check(self, what: str, ok: bool) -> None:
        """One output check; a mismatch counts as one failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def same(self, key: Any, text: str) -> None:
        """``text`` must equal the first output recorded under ``key``."""
        reference = self.references.setdefault(key, text)
        if reference is not text:
            self.check(f"output of {key} differs from round 0", reference == text)

    def count(self, name: str, value: float) -> None:
        if self.keep:
            self.counters[name].append(value)


# --------------------------------------------------------------------------- #
# Traced decomposition: the public calls the pipeline makes, one span each
# --------------------------------------------------------------------------- #
def _tables(model: MicroscopicModel, tracer: Tracer) -> SpatiotemporalAggregator:
    aggregator = SpatiotemporalAggregator(model, operator=OPERATOR)
    with tracer.span("criteria.tables"):
        for node in model.hierarchy.iter_nodes("post"):
            aggregator.stats.tables(node)
    return aggregator


def _analysis_text(
    store: TraceStore,
    model: MicroscopicModel,
    aggregator: SpatiotemporalAggregator,
    request: AnalysisRequest,
    tracer: Tracer,
) -> str:
    with tracer.span("dp.run"):
        partition = aggregator.run(request.p)
    with tracer.span("analysis.phases"):
        phases = detect_phases(partition, model)
    with tracer.span("analysis.anomalies"):
        anomalies = detect_deviating_cells(model, threshold=request.anomaly_threshold)
    with tracer.span("payloads.serialize"):
        return serialize_payload(
            analysis_payload(
                StoreSource(store).trace_block(),
                AnalysisResult(partition=partition, phases=phases, anomalies=anomalies),
                request.params(),
            )
        )


def traced_cold_overview(
    store: TraceStore, request: AnalysisRequest, tracer: Tracer
) -> Tuple[str, MicroscopicModel, SpatiotemporalAggregator]:
    """Store without a model cache → payload, as ``AnalysisEngine.execute``."""
    with tracer.span("store.columns"):
        columns = store.columns()
    with tracer.span("microscopic.discretize"):
        model = MicroscopicModel.from_columns(
            columns.starts,
            columns.ends,
            columns.resource_ids,
            columns.state_ids,
            store.hierarchy,
            store.states,
            n_slices=request.slices,
        )
    with tracer.span("microscopic.prefix"):
        model.cumulative_tables()
    with tracer.span("store.cache_write"):
        write_model_cache(store.model_cache_path(request.slices), model, store.digest)
    aggregator = _tables(model, tracer)
    return _analysis_text(store, model, aggregator, request, tracer), model, aggregator


def traced_reopen_overview(path: Path, request: AnalysisRequest, tracer: Tracer) -> str:
    """Freshly opened store with a published model cache → payload."""
    with tracer.span("store.open"):
        store = open_store(path)
    with tracer.span("store.model_warm"):
        model = store.model(request.slices)
    aggregator = _tables(model, tracer)
    return _analysis_text(store, model, aggregator, request, tracer)


class CountingAggregator:
    """Stands in for the aggregator in the p-search: counts and spans each DP."""

    def __init__(self, aggregator: SpatiotemporalAggregator, tracer: Tracer) -> None:
        self.aggregator = aggregator
        self.tracer = tracer
        self.runs = 0

    def run(self, p: float):
        self.runs += 1
        with self.tracer.span("dp.run"):
            return self.aggregator.run(p)


def traced_sweep(
    store: TraceStore, model: MicroscopicModel, request: SweepRequest, tracer: Tracer
) -> Tuple[str, int, int]:
    """Significant-p search over a window, as ``AnalysisEngine.run_sweep``.

    Returns the serialized payload, the DP runs of the search itself and the
    number of significant values.
    """
    assert request.window is not None
    a, b = resolve_window_bounds(model, request.window)
    with tracer.span("microscopic.window"):
        window = model.window(a, b)
    counter = CountingAggregator(_tables(window, tracer), tracer)
    with tracer.span("parameters.search"):
        significant = find_significant_parameters(counter)
    searched = counter.runs
    with tracer.span("parameters.curve"):
        points = quality_curve(counter, ps=list(significant))
    with tracer.span("payloads.serialize"):
        text = serialize_payload(
            sweep_payload(
                StoreSource(store).trace_block(),
                request.params(),
                significant,
                points,
                window=window_section(model, a, b, request.window),
            )
        )
    return text, searched, len(significant)


def engine_sweep(engine: AnalysisEngine, request: SweepRequest) -> str:
    return serialize_payload(engine.run_sweep(request))


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #
def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


class Workload:
    """Shared set-up and run loop; subclasses define one round."""

    name = ""

    def __init__(self, seed: int, scale: str, seconds: int, workdir: Path) -> None:
        self.seed = seed
        self.scale = scale
        self.plan = PLANS[scale][self.name]
        self.rounds = max(2, round(self.plan["rounds"] * seconds / 10))
        self.workdir = workdir
        self.shape: Dict[str, Any] = {}
        self.generator: Optional[subprocess.Popen] = None

    # -- set-up ------------------------------------------------------------ #
    def prepare(self, inputs: Path) -> None:
        """Parent-side preparation of the generated inputs (part of set-up)."""

    def setup(self, run: Run) -> None:
        """Start the input generator and make the inputs the rounds use."""
        command = [
            sys.executable, str(HERE / "gen.py"), "--workload", self.name,
            "--seed", str(self.seed), "--scale", self.scale,
        ]
        self.generator = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.inputs = self.workdir / "inputs" / "0"
        self.digest = self.set_up(run, self.inputs)

    def set_up(self, run: Run, out: Path) -> list:
        """One set-up, a sample of ``setup_s``: generation in the child plus preparation.

        Returns the generated files, which every set-up of the run must repeat.
        """
        assert self.generator.stdin is not None and self.generator.stdout is not None
        reference = reference_seconds()
        self.generator.stdin.write(f"{out}\n")
        self.generator.stdin.flush()
        line = self.generator.stdout.readline()
        if not line:
            raise RuntimeError(f"input generation failed (exit code {self.generator.wait()})")
        report = json.loads(line)
        start = time.perf_counter()
        self.prepare(out)
        run.sample("setup_s", report["seconds"] + time.perf_counter() - start, reference)
        self.shape.update(resources=report["resources"], intervals=report["intervals"])
        return sorted((f.name, f.read_bytes()) for f in out.iterdir())

    def close(self) -> None:
        """Stop the input generator and wait until it has ended."""
        if self.generator is None:
            return
        assert self.generator.stdin is not None
        self.generator.stdin.close()
        try:
            self.generator.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.generator.kill()
            self.generator.wait()

    # -- rounds ------------------------------------------------------------ #
    def execute(self, run: Run) -> None:
        before = model_cache_stats()
        for index in range(self.rounds + 1):
            run.keep = index > 0
            traced = run.traced and index % 2 == 1
            mark = run.tracer.mark()
            try:
                self.round(run, index, traced)
            except Exception as exc:  # one failed operation, the run goes on
                run.failed += 1
                run.failures.append(f"round {index}: {type(exc).__name__}: {exc}")
            if traced and run.keep:
                run.round_spans.append(run.tracer.since(mark))
            shutil.rmtree(self.workdir / f"round-{index}", ignore_errors=True)
            # One more set-up between rounds, so set-ups meet the same machine
            # drift as the operations.
            out = self.workdir / "inputs" / f"{index + 1}"
            run.check("inputs identical across set-ups", self.set_up(run, out) == self.digest)
            shutil.rmtree(out, ignore_errors=True)
        # Model loads over the whole run, warm-up included: exact for a seed.
        after = model_cache_stats()
        for kind in ("cold", "warm"):
            run.counters[f"store.model_loads_{kind}"].append(after[kind] - before[kind])

    def round_dir(self, index: int) -> Path:
        path = self.workdir / f"round-{index}"
        path.mkdir(parents=True, exist_ok=True)
        return path

    def ingest(self, run: Run, csv: Path, target: Path, traced: bool) -> TraceStore:
        """CSV → opened store (``read_csv`` + ``save_store``)."""
        if not traced:
            store = run.timed("ingest_s", lambda: save_store(read_csv(csv), target))
        else:
            def decomposed() -> TraceStore:
                with run.tracer.span("trace.read"):
                    trace = read_csv(csv)
                with run.tracer.span("store.save"):
                    return save_store(trace, target)
            store = run.traced_op("ingest_s", decomposed)
        run.count("trace.rows", store.n_intervals)
        return store

    def sweep_windows(self, model: MicroscopicModel, index: int) -> List[Tuple[int, WindowSpec]]:
        """The windows round ``index`` sweeps, with their positions from the end.

        Taking the windows in turn lets a run's median cover all of them, so
        it depends less on the data of one window.  Each span runs from the
        middle of its first slice to the middle of its last, so it resolves to
        exactly those slices.
        """
        plan, n, edges = self.plan, model.n_slices, model.slicing.edges
        windows = []
        for turn in range(plan["sweeps"]):
            position = (index * plan["sweeps"] + turn) % plan["sweep_windows"]
            a, b = n - (position + 1) * plan["sweep_width"], n - position * plan["sweep_width"]
            windows.append((position, WindowSpec.span(
                float(edges[a] + edges[a + 1]) / 2, float(edges[b - 1] + edges[b]) / 2
            )))
        return windows

    def sweep(
        self, run: Run, index: int, store: TraceStore, engine: AnalysisEngine,
        model: MicroscopicModel, slices: int, traced: bool,
    ) -> int:
        """Round ``index``'s significant-p searches; returns their payload bytes."""
        payload_bytes = searched = values = 0
        for position, window in self.sweep_windows(model, index):
            request = SweepRequest(slices=slices, operator=OPERATOR, window=window).validated()
            if not traced:
                text = run.timed("sweep_s", lambda: engine_sweep(engine, request))
            else:
                text, runs, found = run.traced_op(
                    "sweep_s", lambda: traced_sweep(store, model, request, run.tracer)
                )
                searched += runs
                values += found
            run.same(("sweep", position), text)
            payload_bytes += len(text)
        if traced:
            run.count("parameters.dp_runs", searched)
            run.count("parameters.values", values)
        return payload_bytes

    # -- provenance and computed sizes -------------------------------------- #
    def analysis_model(self) -> MicroscopicModel:
        """The model of the workload's characteristic request."""
        raise NotImplementedError

    def sizes(self, run: Run) -> Dict[str, Any]:
        """Computed table sizes, allocation peaks and the resolved kernel tier.

        Measured once after the rounds, outside every timing: tracemalloc
        slows the calls it watches.
        """
        model = self.analysis_model()
        t = model.n_slices
        nodes = model.hierarchy.n_nodes
        aggregator = SpatiotemporalAggregator(model, operator=OPERATOR)
        tracemalloc.start()
        for node in model.hierarchy.iter_nodes("post"):
            aggregator.stats.tables(node)
        criteria_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        reference_base = tracemalloc.get_traced_memory()[0]
        aggregator.run(OVERVIEW_P)
        dp_peak = tracemalloc.get_traced_memory()[1] - reference_base
        tracemalloc.stop()
        self.check_reference_tables(run, model)
        return {
            "kernel": aggregator.kernel,
            "dp.nodes": nodes,
            "dp.cells": nodes * t * (t + 1) * (t + 2) // 6,
            "dp.table_bytes": nodes * t * t * 3 * 8,
            "criteria.table_bytes": nodes * t * t * 2 * 8,
            "criteria.alloc_peak_mb": criteria_peak / 2**20,
            "dp.alloc_peak_mb": dp_peak / 2**20,
            "slices": t,
        }

    def check_reference_tables(self, run: Run, model: MicroscopicModel) -> None:
        """``compute_tables_reference`` must equal ``compute_tables`` on a small window."""
        window = model.window(max(0, model.n_slices - 4), model.n_slices)
        aggregator = SpatiotemporalAggregator(window, operator=OPERATOR)
        try:
            fast = aggregator.compute_tables(OVERVIEW_P)
            slow = aggregator.compute_tables_reference(OVERVIEW_P)
        except Exception as exc:  # counted as the check's failure
            fast, slow = {0: exc}, {}
        same = fast.keys() == slow.keys() and all(
            (fast[k].pic == slow[k].pic).all()
            and (fast[k].cut == slow[k].cut).all()
            and (fast[k].count == slow[k].count).all()
            for k in fast
        )
        run.check("compute_tables_reference == compute_tables", same)

    def round(self, run: Run, index: int, traced: bool) -> None:
        raise NotImplementedError


class OverviewWorkload(Workload):
    """``table2`` and ``longspan``: whole-trace overviews, slider moves, p-search."""

    def round(self, run: Run, index: int, traced: bool) -> None:
        plan = self.plan
        slices = plan["slices"]
        path = self.round_dir(index) / "trace.rtz"
        store = self.ingest(run, self.inputs / "trace.csv", path, traced)
        request = AnalysisRequest(p=OVERVIEW_P, slices=slices, operator=OPERATOR).validated()

        engine = AnalysisEngine(store)
        if not traced:
            text = run.timed("first_overview_s", lambda: engine.execute(request))
        else:
            text, model, aggregator = run.traced_op(
                "first_overview_s", lambda: traced_cold_overview(store, request, run.tracer)
            )
        run.same("overview", text)
        run.count("store.cache_bytes", dir_bytes(store.model_cache_path(slices)))

        if not traced:
            reopened = run.timed(
                "reopen_overview_s", lambda: AnalysisEngine(open_store(path)).execute(request)
            )
        else:
            reopened = run.traced_op(
                "reopen_overview_s", lambda: traced_reopen_overview(path, request, run.tracer)
            )
        run.check("reopen_overview == first_overview", reopened == text)

        payload_bytes = len(text) + len(reopened)
        for p in plan["reaggregate_ps"]:
            moved = AnalysisRequest(p=p, slices=slices, operator=OPERATOR).validated()
            if not traced:
                misses = engine.cache_info()["misses"]
                text_p = run.timed("update_s", lambda: engine.execute(moved))
                run.check("timed reaggregate is a result-cache miss",
                          engine.cache_info()["misses"] == misses + 1)
            else:
                text_p = run.traced_op(
                    "update_s",
                    lambda: _analysis_text(store, model, aggregator, moved, run.tracer),
                )
            run.same(("reaggregate", p), text_p)
            payload_bytes += len(text_p)
        if not traced:
            # An untimed repeat must be served from the result cache, unchanged.
            hits = engine.cache_info()["hits"]
            run.check("repeated request is a cache hit with the same bytes",
                      engine.execute(request) == text and engine.cache_info()["hits"] == hits + 1)
            info = engine.cache_info()
            run.count("pipeline.cache_hits", info["hits"])
            run.count("pipeline.cache_misses", info["misses"])

        if not traced:
            model = engine.model(slices)
        payload_bytes += self.sweep(run, index, store, engine, model, slices, traced)
        run.count("payloads.bytes", payload_bytes)

    def analysis_model(self) -> MicroscopicModel:
        store = save_store(read_csv(self.inputs / "trace.csv"), self.workdir / "sizes.rtz")
        return store.model(self.plan["slices"])

    def provenance(self) -> Dict[str, Any]:
        return {"S": self.shape["resources"], "T": self.plan["slices"],
                "K": self.plan["sweep_width"], "intervals": self.shape["intervals"]}


class Table2(OverviewWorkload):
    name = "table2"


class Longspan(OverviewWorkload):
    name = "longspan"


class Watch(Workload):
    """``watch``: store the head, then append one slice and poll, repeatedly."""

    name = "watch"
    #: Event types of the last completed round, digested into the provenance.
    event_types: List[str] = []

    def prepare(self, inputs: Path) -> None:
        head = self.plan["head"]
        batches: Dict[int, List[tuple]] = defaultdict(list)
        for iv in read_csv(inputs / "tail.csv").intervals:
            batches[int(iv.start) - head].append((iv.start, iv.end, iv.resource, iv.state))
        self.batches = [batches[index] for index in range(len(batches))]

    def config(self) -> WatchConfig:
        return WatchConfig(slices=self.plan["head"], window_slices=self.plan["window"])

    def round(self, run: Run, index: int, traced: bool) -> None:
        plan, tracer = self.plan, run.tracer
        path = self.round_dir(index) / "watch.rtz"
        store = self.ingest(run, self.inputs / "head.csv", path, traced)

        def start(store: Optional[TraceStore]) -> Tuple[TraceWatch, str]:
            watch = TraceWatch(path, name="watch", config=self.config(), store=store)
            return watch, "\n".join(serialize_event(e) for e in watch.poll())

        if not traced:
            watch, first = run.timed("first_overview_s", lambda: start(store))
            _, reopened = run.timed("reopen_overview_s", lambda: start(None))
        else:
            watch, first = run.traced_op(
                "first_overview_s", lambda: _spanned(tracer, "watch.poll", lambda: start(store))
            )
            _, reopened = run.traced_op(
                "reopen_overview_s", lambda: _spanned(tracer, "watch.poll", lambda: start(None))
            )
        run.same("first poll", first)
        run.check("reopened watch's first poll == first poll", reopened == first)
        run.count("store.cache_bytes", dir_bytes(store.model_cache_path(plan["head"])))

        reopened_store = open_store(path)
        engine = AnalysisEngine(reopened_store)
        sweep = self.sweep(
            run, index, reopened_store, engine, engine.model(plan["head"]), plan["head"], traced
        )

        writer = StoreWriter(path)
        if traced:
            shadow = open_store(path)
            shadow_model = shadow.model(plan["head"])
            shadow_model.cumulative_tables()
        events: List[str] = []
        for batch in self.batches:
            if not traced:
                run.timed("append_s", lambda: writer.append_intervals(batch))
                polled = run.timed("update_s", watch.poll)
            else:
                run.traced_op("append_s", lambda: _spanned(
                    tracer, "store.append", lambda: writer.append_intervals(batch)))
                polled = run.traced_op("update_s", lambda: _spanned(tracer, "watch.poll", watch.poll))
                shadow_model = run.traced_op(
                    "shadow", lambda: self._shadow(tracer, shadow, shadow_model, plan["window"])
                )
            events.extend(serialize_event(e) for e in polled)
        run.same("poll events", "\n".join(events))
        run.count("watch.events", len(events))
        run.count("payloads.bytes", len(first) + sweep + sum(len(e) for e in events))
        self.event_types = [json.loads(e)["type"] for e in events]

    @staticmethod
    def _shadow(
        tracer: Tracer, store: TraceStore, model: MicroscopicModel, width: int
    ) -> MicroscopicModel:
        """The store and model calls a poll makes, replayed on a second handle."""
        with tracer.span("store.refresh"):
            tail = store.refresh()
        with tracer.span("microscopic.extend"):
            model = model.extend(tail)
            model.cumulative_tables()
        with tracer.span("microscopic.window"):
            model.window(max(0, model.n_slices - width), model.n_slices)
        return model

    def analysis_model(self) -> MicroscopicModel:
        store = save_store(read_csv(self.inputs / "head.csv"), self.workdir / "sizes.rtz")
        model = store.model(self.plan["head"])
        return model.window(model.n_slices - self.plan["window"], model.n_slices)

    def provenance(self) -> Dict[str, Any]:
        types = "\n".join(self.event_types).encode()
        return {"S": self.shape["resources"], "T": self.plan["head"] + len(self.batches),
                "K": self.plan["window"], "intervals": self.shape["intervals"],
                "events": hashlib.sha256(types).hexdigest()[:12]}


def _spanned(tracer: Tracer, name: str, fn: Callable[[], Any]) -> Any:
    with tracer.span(name):
        return fn()


WORKLOADS = {cls.name: cls for cls in (Table2, Longspan, Watch)}


def environment() -> Dict[str, Any]:
    return {"cpu_count": os.cpu_count(), "numba": numba_available()}
