"""The execution core: one orchestrator from request to payload.

:func:`analyze_source` is the **one-shot path** — resolve a model, run the
aggregation/phase/anomaly steps, assemble the payload — used by ``repro
analyze``, batch workers and ``repro compare``.  :class:`AnalysisEngine` is
the **cached path** wrapped around the very same steps: it pins one
:class:`~repro.pipeline.resolver.TraceSource`, owns the model / aggregator /
streaming-model lifecycles and answers requests through a generation-keyed
LRU of serialized payloads (entries computed before an append are purged
wholesale when the generation moves, so a stale result can never be served).
The HTTP service serves one engine per trace, calling :meth:`execute` /
:meth:`run_sweep` directly.

Because both paths share the same steps and the same
:mod:`~repro.pipeline.payloads` serializer, ``repro analyze --json``,
``POST /v1/analyze`` and per-member ``repro batch`` payloads are byte-identical
by construction.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Tuple, Union

from ..core.microscopic import MicroscopicModel
from ..core.parameters import quality_curve, significant_points
from ..core.spatiotemporal import SpatiotemporalAggregator
from ..obs.tracing import span
from ..store.format import StoreError, StoreIntegrityError, StoreRewrittenError
from ..store.store import TraceStore
from ..store.writer import StoreWriter
from ..trace.trace import Trace
from .errors import PipelineError, StaleGenerationError
from .payloads import (
    AnalysisResult,
    analysis_payload,
    run_analysis,
    serialize_payload,
    sweep_payload,
    trace_summary,
)
from .requests import AnalysisRequest, SweepRequest
from .resolver import StoreSource, TraceSource, as_source
from .window import resolve_window_bounds, window_section

__all__ = [
    "DEFAULT_CACHE_SIZE",
    "AnalysisOutcome",
    "analyze_source",
    "AnalysisEngine",
]

#: Default number of retained analysis results per engine.
DEFAULT_CACHE_SIZE = 128


@dataclass
class AnalysisOutcome:
    """Everything one analysis run produced, before serialization.

    ``model`` is the full-axis model the window was resolved against;
    ``analysis_model`` the model the aggregation actually ran on (the same
    object for whole-trace requests, a slice window otherwise).  Frontends
    needing structured results (text reports, SVG rendering, comparison
    models) read these; JSON frontends call :meth:`payload` /
    :meth:`payload_text`, which route through the single serializer.
    """

    source: TraceSource
    request: AnalysisRequest
    model: MicroscopicModel
    analysis_model: MicroscopicModel
    result: AnalysisResult
    window_block: Optional[Dict[str, Any]] = None

    def payload(self, trace_block: "Optional[Dict[str, Any]]" = None) -> Dict[str, Any]:
        """The canonical analysis payload dict.

        ``trace_block`` lets generation-tracking callers (the engine, under
        its lock) substitute their pinned ``trace`` section; one-shot callers
        omit it and get the source's current one.  Either way this is the
        only place an analysis payload is assembled.
        """
        if trace_block is None:
            trace_block = self.source.trace_block()
        return analysis_payload(
            trace_block,
            self.result,
            self.request.params(),
            window=self.window_block,
        )

    def payload_text(self, trace_block: "Optional[Dict[str, Any]]" = None) -> str:
        """The canonical serialized analysis payload."""
        return serialize_payload(self.payload(trace_block))


def analyze_source(
    source: TraceSource,
    request: AnalysisRequest,
    model: Optional[MicroscopicModel] = None,
    aggregator: Optional[SpatiotemporalAggregator] = None,
) -> AnalysisOutcome:
    """Run one analysis request against ``source`` (the one-shot path).

    ``model`` / ``aggregator`` let cached callers (the engine) inject their
    warm objects; one-shot callers omit them.  The steps — and therefore the
    serialized payload — are identical either way.
    """
    if model is None:
        with span("model.build", slices=request.slices):
            model = source.model(request.slices)
    jobs: Optional[int] = request.jobs if request.jobs and request.jobs > 1 else None
    if request.window is None:
        analysis_model = model
        with span("pipeline.plan", operator=request.operator):
            if aggregator is None:
                aggregator = SpatiotemporalAggregator(
                    analysis_model, operator=request.operator, jobs=jobs
                )
        with span("pipeline.execute", p=request.p):
            result = run_analysis(
                analysis_model,
                request.p,
                aggregator=aggregator,
                anomaly_threshold=request.anomaly_threshold,
                jobs=jobs,
            )
        window_block = None
    else:
        # Same resolution steps the streaming service path uses, so a CLI
        # windowed report on a static trace matches a windowed query against
        # a served session at generation 0, byte for byte.
        with span("pipeline.plan", operator=request.operator, window=str(request.window)):
            model.cumulative_tables()
            a, b = resolve_window_bounds(model, request.window)
            analysis_model = model.window(a, b)
        with span("pipeline.execute", p=request.p):
            result = run_analysis(
                analysis_model,
                request.p,
                aggregator=SpatiotemporalAggregator(
                    analysis_model, operator=request.operator, jobs=jobs
                ),
                anomaly_threshold=request.anomaly_threshold,
                jobs=jobs,
            )
        window_block = window_section(model, a, b, request.window)
    return AnalysisOutcome(
        source=source,
        request=request,
        model=model,
        analysis_model=analysis_model,
        result=result,
        window_block=window_block,
    )


class AnalysisEngine:
    """One trace pinned in memory, with model, engine and result caches.

    Parameters
    ----------
    source:
        A :class:`TraceSource`, or a raw :class:`~repro.store.TraceStore` /
        :class:`~repro.trace.Trace` (wrapped via
        :func:`~repro.pipeline.resolver.as_source`).  Store-backed engines
        draw models from the store's persisted cache and accept appends;
        memory-backed engines build models in memory and are frozen.
    name:
        Public name used by the HTTP registry.
    cache_size:
        Maximum retained analysis results (least recently used evicted).

    Notes
    -----
    All public query methods are thread-safe: a per-engine lock serializes
    model construction and aggregation, so one engine can be shared by every
    thread of the HTTP server.
    """

    def __init__(
        self,
        source: "Union[TraceSource, TraceStore, Trace]",
        name: str = "trace",
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        if cache_size < 1:
            raise PipelineError("cache_size must be at least 1")
        self._name = name
        self._source: TraceSource = as_source(source)
        self._digest: str = self._source.digest
        self._generation: int = self._source.generation
        self._models: Dict[int, MicroscopicModel] = {}
        # Streaming models: slice width pinned when first built, grown by
        # MicroscopicModel.extend on every append instead of being rebuilt.
        # Windowed queries run on these; whole-trace queries use _models,
        # which are re-discretized per generation (batch semantics).
        self._stream_models: Dict[int, MicroscopicModel] = {}
        self._aggregators: Dict[Tuple[int, str], SpatiotemporalAggregator] = {}
        self._results: "OrderedDict[Tuple[Any, ...], str]" = OrderedDict()
        self._cache_size = cache_size
        self._hits = 0
        self._misses = 0
        self._writer: Optional[StoreWriter] = None
        self._lock = threading.RLock()
        # Test seam for the append/analyze race: called by execute()/sweep()
        # after they captured the generation but before they take the lock.
        self._race_hook: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------ #
    # Identity
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Registry name of the engine."""
        return self._name

    @property
    def source(self) -> TraceSource:
        """The pinned trace source."""
        return self._source

    @property
    def digest(self) -> str:
        """Content digest of the pinned trace."""
        return self._digest

    @property
    def generation(self) -> int:
        """Append generation of the pinned trace (0 for in-memory traces)."""
        return self._generation

    @property
    def _store(self) -> Optional[TraceStore]:
        """The backing store, or ``None`` for memory-backed engines."""
        if isinstance(self._source, StoreSource):
            return self._source.store
        return None

    def summary(self) -> Dict[str, Any]:
        """JSON-friendly description for ``GET /v1/traces``."""
        info = self._source.summary()
        info["name"] = self._name
        info["cache"] = self.cache_info()
        return info

    def cache_info(self) -> Dict[str, int]:
        """Result-cache statistics."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "entries": len(self._results),
                "max_entries": self._cache_size,
            }

    # ------------------------------------------------------------------ #
    # Model / aggregator plumbing
    # ------------------------------------------------------------------ #
    def _check_generation(self, generation: Optional[int]) -> None:
        if generation is None:
            return
        if generation != self._generation:
            raise StaleGenerationError(
                f"trace is at generation {self._generation}, "
                f"request expected {generation}"
            )

    def model(self, slices: int = 30) -> MicroscopicModel:
        """The microscopic model at ``slices`` slices (cached)."""
        with self._lock:
            model = self._models.get(slices)
            if model is None:
                model = self._source.model(slices)
                self._models[slices] = model
            return model

    def aggregator(
        self, slices: int = 30, operator: str = "mean"
    ) -> SpatiotemporalAggregator:
        """The aggregation engine for ``(slices, operator)`` (cached).

        Engines share the model's prefix-sum arrays, and their per-node
        gain/loss tables are ``p``-independent, so a slider sweep over ``p``
        re-runs only the dynamic program.
        """
        with self._lock:
            key = (slices, operator)
            aggregator = self._aggregators.get(key)
            if aggregator is None:
                aggregator = SpatiotemporalAggregator(
                    self.model(slices), operator=operator
                )
                self._aggregators[key] = aggregator
            return aggregator

    def stream_model(self, slices: int = 30) -> MicroscopicModel:
        """The streaming (fixed slice width) model for windowed queries.

        Built once per engine — the slice width is the span at build time
        divided by ``slices`` — then grown by
        :meth:`~repro.core.MicroscopicModel.extend` on each append, so a
        refresh costs O(new intervals + touched columns) instead of a full
        re-discretization.  For in-memory engines (no appends possible) this
        is simply the regular model.
        """
        with self._lock:
            if self._store is None:
                return self.model(slices)
            model = self._stream_models.get(slices)
            if model is None:
                model = self.model(slices)
                model.cumulative_tables()
                self._stream_models[slices] = model
            return model

    def _trace_block(self) -> Dict[str, Any]:
        store = self._store
        if store is not None:
            return trace_summary(
                self._digest,
                store.n_intervals,
                store.hierarchy.n_leaves,
                len(store.states),
                store.start,
                store.end,
                store.metadata,
                generation=self._generation,
            )
        trace = self._source.load_trace()
        return trace_summary(
            self._digest,
            trace.n_intervals,
            trace.hierarchy.n_leaves,
            len(trace.states),
            trace.start,
            trace.end,
            trace.metadata,
            generation=self._generation,
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def execute(self, request: AnalysisRequest) -> str:
        """Canonical JSON text of one aggregation request (LRU-cached).

        The cache key is ``(digest, generation, slices, operator, p,
        anomaly_threshold, window)`` — content-addressed *and* generation-
        scoped: entries computed before an append are purged wholesale when
        the generation moves, so a stale result can never be served.

        ``request.window`` restricts the analysis to a tail or time window
        of the **streaming** model (fixed slice width, grown incrementally
        on appends) — the live-monitoring query shape.  ``request.generation``
        optionally pins the content snapshot the client expects; a mismatch
        (e.g. a ``/v1/append`` landed first) raises
        :class:`StaleGenerationError` → HTTP 409.
        """
        request = request.validated()
        entry_generation = self._generation
        if self._race_hook is not None:
            self._race_hook()
        with self._lock:
            # Both checks run under the lock: the client's pin against the
            # authoritative generation, and the entry snapshot against it (an
            # append that slipped in between validation and the lock).
            self._check_generation(request.generation)
            if self._generation != entry_generation:
                raise StaleGenerationError(
                    f"trace moved to generation {self._generation} while the "
                    f"query (generation {entry_generation}) was in flight"
                )
            key = (
                self._digest,
                self._generation,
                request.slices,
                request.operator,
                request.p,
                request.anomaly_threshold,
                request.window,
            )
            cached = self._results.get(key)
            if cached is not None:
                self._hits += 1
                self._results.move_to_end(key)
                return cached
            self._misses += 1
            if request.window is None:
                outcome = analyze_source(
                    self._source,
                    request,
                    model=self.model(request.slices),
                    aggregator=self.aggregator(request.slices, request.operator),
                )
            else:
                outcome = analyze_source(
                    self._source,
                    request,
                    model=self.stream_model(request.slices),
                )
            text = outcome.payload_text(self._trace_block())
            self._results[key] = text
            while len(self._results) > self._cache_size:
                self._results.popitem(last=False)
            return text

    def execute_dict(self, request: AnalysisRequest) -> Dict[str, Any]:
        """Like :meth:`execute` but parsed back into a dict."""
        result: Dict[str, Any] = json.loads(self.execute(request))
        return result

    def run_sweep(self, request: SweepRequest) -> Dict[str, Any]:
        """Batch multi-``p`` sweep: the data behind an interactive slider.

        With explicit ``ps``, evaluates the quality curve at those
        trade-offs; without, runs the dichotomic search of
        :func:`~repro.core.parameters.significant_points` and reports one
        representative ``p`` per distinct overview, with the quality of the
        partition the search solved there.  Tables are
        shared across the whole sweep through the engine's cached aggregator.
        A windowed request sweeps over the corresponding window of the
        streaming model instead of the whole trace.
        """
        request = request.validated()
        entry_generation = self._generation
        if self._race_hook is not None:
            self._race_hook()
        with self._lock:
            self._check_generation(request.generation)
            if self._generation != entry_generation:
                raise StaleGenerationError(
                    f"trace moved to generation {self._generation} while the "
                    f"sweep (generation {entry_generation}) was in flight"
                )
            window_block: Optional[Dict[str, Any]] = None
            if request.window is None:
                aggregator = self.aggregator(request.slices, request.operator)
            else:
                stream = self.stream_model(request.slices)
                a, b = resolve_window_bounds(stream, request.window)
                aggregator = SpatiotemporalAggregator(
                    stream.window(a, b), operator=request.operator
                )
                window_block = window_section(stream, a, b, request.window)
            significant: Optional[Sequence[float]] = None
            if request.ps is None:
                # The search already solved every significant p: its
                # partitions are the curve.
                points = significant_points(aggregator)
                significant = [point.p for point in points]
            else:
                points = quality_curve(aggregator, ps=list(request.ps))
            trace_block = self._trace_block()
        return sweep_payload(
            trace_block, request.params(), significant, points, window=window_block
        )

    # ------------------------------------------------------------------ #
    # Streaming ingestion
    # ------------------------------------------------------------------ #
    def append(self, intervals: "Iterable[Sequence[Any]]") -> Dict[str, Any]:
        """Append ``(start, end, resource, state)`` rows to the pinned store.

        Store-backed engines only.  The rows go through a lazily created
        :class:`~repro.store.StoreWriter`; the engine then refreshes itself
        incrementally — streaming models are grown with
        :meth:`~repro.core.MicroscopicModel.extend`, whole-trace models and
        aggregators are dropped for lazy rebuild, and result-cache entries of
        older generations are evicted.
        """
        if self._store is None:
            raise PipelineError(
                "append requires a store-backed session (in-memory traces are frozen)"
            )
        rows = list(intervals)
        if not rows:
            with self._lock:
                return self._append_receipt(0)
        with self._lock:
            store = self._store
            assert store is not None
            if self._writer is None:
                self._writer = StoreWriter(store.path)
            try:
                self._writer.append_intervals(rows)
            except StoreIntegrityError:
                raise  # store corruption / concurrent writer: a server-side 500
            except StoreError as exc:
                # Batch validation (unknown names, out-of-order rows, bad
                # timestamps) is the client's mistake: a 400.
                raise PipelineError(str(exc)) from exc
            try:
                self._absorb_refresh(store.refresh())
            except StoreRewrittenError:
                # An external writer rebuilt the store between our chunk
                # commit and the refresh.  The rows are durably written (the
                # rebuild raced us, not the other way around), so recover the
                # way refresh() does instead of surfacing a 500 to a client
                # whose request was valid.
                self._reopen_rewritten()
            return self._append_receipt(len(rows))

    def refresh(self) -> Dict[str, Any]:
        """Pick up store growth produced by an *external* writer.

        Embedders tailing a store written by ``repro stream`` call this
        periodically.  Appends are absorbed incrementally; a rewritten store
        (``StoreRewrittenError``) is reopened from scratch.
        """
        store = self._store
        if store is None:
            raise PipelineError("refresh requires a store-backed session")
        with self._lock:
            try:
                self._absorb_refresh(store.refresh())
            except StoreRewrittenError:
                self._reopen_rewritten()
            return self._append_receipt(None)

    def _reopen_rewritten(self) -> None:
        """Rebuild the engine's view after the store was rewritten on disk.

        Reopens the source at the bumped generation, drops every model and
        aggregator (slice widths and spans are meaningless across a rewrite)
        and purges stale result-cache entries, so long-lived consumers keep
        serving instead of crashing with ``StoreRewrittenError``.
        """
        source = self._source
        assert isinstance(source, StoreSource)
        source.reopen()
        self._models.clear()
        self._stream_models.clear()
        self._aggregators.clear()
        self._after_generation_change()

    def _absorb_refresh(self, tail: Optional[Any]) -> None:
        """Apply a :meth:`TraceStore.refresh` tail to the engine caches."""
        if tail is None:
            return
        self._stream_models = {
            slices: model.extend(tail)
            for slices, model in self._stream_models.items()
        }
        # Whole-trace models discretize the *current* span into `slices`
        # regular slices; after an append that span changed, so these are
        # rebuilt lazily (keeping /v1/analyze byte-identical to a batch run on
        # the grown trace).
        self._models.clear()
        self._aggregators.clear()
        self._after_generation_change()

    def _after_generation_change(self) -> None:
        store = self._store
        assert store is not None
        self._digest = store.digest
        self._generation = store.generation
        # A writer whose view no longer matches the store was bypassed by an
        # external writer (or a rebuild): drop it so the next append opens a
        # fresh one instead of failing its pre-commit check forever.
        if self._writer is not None and self._writer.digest != self._digest:
            self._writer = None
        for key in [k for k in self._results if k[1] != self._generation]:
            del self._results[key]

    def _append_receipt(self, appended: Optional[int]) -> Dict[str, Any]:
        store = self._store
        assert store is not None
        receipt: Dict[str, Any] = {
            "name": self._name,
            "digest": self._digest,
            "generation": self._generation,
            "n_intervals": store.n_intervals,
        }
        if appended is not None:
            receipt["appended"] = int(appended)
        return receipt
