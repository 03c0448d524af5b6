"""Corpus-scale batch analysis: fan one analysis per trace over a worker pool.

:func:`run_batch` analyzes every member of a :class:`~repro.batch.Corpus`
with the same parameters — one shard per trace, distributed over a process
pool when ``jobs > 1`` — and returns the per-trace analysis payloads plus
the corpus ranking of :func:`~repro.pipeline.payloads.batch_payload`.

Per-trace payloads are produced by the pipeline's one-shot path
(:func:`~repro.pipeline.executor.analyze_source` through
:mod:`repro.pipeline.payloads`) — the exact code behind
``repro analyze --json`` / ``POST /v1/analyze`` — so a batch run over a corpus
is byte-identical to analyzing each member individually, by construction.
Store-backed members resolve through
:class:`~repro.pipeline.resolver.StoreSource`, i.e. they *reuse the engine's
persisted model caches* — a corpus of converted stores skips CSV parsing and
model construction entirely and spends its time in the dynamic program.

Error policy: a member that fails to load or analyze (missing file, digest
mismatch, corrupt store) is recorded as a :class:`BatchTraceFailure` carrying
the trace's **path** and the error, and the remaining members still run.  A
worker process that dies outright (segfault, OOM kill) raises
:class:`BatchWorkerError` naming the member whose shard was in flight —
callers never see a bare ``multiprocessing`` traceback.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any

from ..core.microscopic import MicroscopicModel
from ..obs.tracing import span
from ..pipeline.executor import analyze_source
from ..pipeline.payloads import batch_payload
from ..pipeline.requests import AnalysisRequest, BatchRequest
from ..pipeline.resolver import as_source
from ..pipeline.window import WindowSpec
from .corpus import Corpus, CorpusEntry

__all__ = [
    "BatchTraceFailure",
    "BatchWorkerError",
    "BatchResult",
    "analysis_params",
    "analyze_entry",
    "run_batch",
]


class BatchWorkerError(RuntimeError):
    """A batch worker process died before returning its trace's result."""


@dataclass(frozen=True)
class BatchTraceFailure:
    """One corpus member that could not be analyzed."""

    name: str
    path: str
    kind: str
    error: str

    def as_payload(self) -> dict[str, str]:
        """JSON-friendly form used in batch payloads and CLI output."""
        return {"name": self.name, "path": self.path, "kind": self.kind, "error": self.error}


@dataclass
class BatchResult:
    """Everything one corpus batch run produced."""

    params: dict[str, Any]
    results: dict[str, dict[str, Any]]
    failures: "list[BatchTraceFailure]"

    @property
    def ok(self) -> bool:
        """Whether every corpus member was analyzed."""
        return not self.failures

    def payload(self) -> dict[str, Any]:
        """The machine-readable batch payload (results + corpus ranking)."""
        return batch_payload(
            self.results,
            self.params,
            errors=[failure.as_payload() for failure in self.failures],
        )


def analysis_params(
    p: float, slices: int, operator: str, anomaly_threshold: float
) -> dict[str, Any]:
    """The canonical ``params`` echo shared with ``repro analyze --json``."""
    return AnalysisRequest(
        p=p, slices=slices, operator=operator, anomaly_threshold=anomaly_threshold
    ).params()


def analyze_entry(
    entry: CorpusEntry,
    p: float = 0.7,
    slices: int = 30,
    operator: str = "mean",
    anomaly_threshold: float = 0.1,
    window: "WindowSpec | None" = None,
) -> "tuple[dict[str, Any], MicroscopicModel]":
    """Analyze one corpus member; returns ``(payload, model)``.

    A thin adapter over :func:`repro.pipeline.executor.analyze_source`: the
    payload is byte-for-byte the ``repro analyze --json`` report of the
    member at the same parameters (after canonical serialization).  The
    model is returned alongside for comparison consumers
    (:func:`~repro.pipeline.payloads.compare_payload`).
    """
    source = as_source(entry.load())
    outcome = analyze_source(
        source,
        AnalysisRequest(
            p=p, slices=slices, operator=operator,
            anomaly_threshold=anomaly_threshold, window=window,
        ),
    )
    return outcome.payload(), outcome.model


def _batch_worker(
    entry: CorpusEntry,
    p: float,
    slices: int,
    operator: str,
    anomaly_threshold: float,
    window: "WindowSpec | None" = None,
) -> "tuple[str, dict[str, Any] | None, tuple[str, str] | None]":
    """Process-pool entry point: one member's payload or its failure record."""
    try:
        payload, _ = analyze_entry(
            entry, p=p, slices=slices, operator=operator,
            anomaly_threshold=anomaly_threshold, window=window,
        )
        return entry.name, payload, None
    except Exception as exc:  # propagated as data: the pool must keep going
        return entry.name, None, (type(exc).__name__, str(exc))


def _prewarm_store_models(entries: "list[CorpusEntry]", slices: int) -> None:
    """Publish the mmap model cache of every store member before fanning out.

    Each worker process opens its member's store and loads the model through
    ``np.load(mmap_mode="r")`` — when the on-disk entry exists, N workers
    share one set of pages through the OS page cache.  Building the cache
    *once, in the parent* is what guarantees that: a cold corpus would
    otherwise make every worker discretize and materialize its own private
    copy.  Failures are ignored here — the worker will surface them as its
    member's failure record with the usual error text.
    """
    from ..store import is_store, open_store  # local import: batch stays store-agnostic

    for entry in entries:
        if entry.kind != "store" or not is_store(entry.path):
            continue
        try:
            store = open_store(entry.path)
            if int(slices) not in store.cached_model_slices():
                with span("batch.prewarm", trace=entry.name, slices=slices):
                    store.model(slices, persist=True)
        except Exception:
            continue


def run_batch(
    corpus: Corpus,
    p: float = 0.7,
    slices: int = 30,
    operator: str = "mean",
    anomaly_threshold: float = 0.1,
    window: "WindowSpec | None" = None,
    jobs: int = 1,
) -> BatchResult:
    """Analyze every corpus member; ``jobs`` workers, one shard per trace.

    ``jobs=1`` runs serially in-process (no pool overhead, easiest to debug);
    ``jobs>1`` distributes members over a process pool.  Serial and parallel
    runs produce identical payloads — workers are pure functions of
    ``(entry, params)``.  Before a parallel fan-out the parent publishes the
    mmap model cache of every store member, so workers map shared pages
    instead of each rebuilding a private model copy.
    """
    request = BatchRequest(
        p=p, slices=slices, operator=operator,
        anomaly_threshold=anomaly_threshold, window=window, jobs=jobs,
    ).validated()
    p, slices, operator = request.p, request.slices, request.operator
    anomaly_threshold, jobs = request.anomaly_threshold, request.jobs
    window = request.window
    params = request.member_request().params()
    results: dict[str, dict[str, Any]] = {}
    failures: list[BatchTraceFailure] = []

    def record(entry: CorpusEntry, payload: "dict[str, Any] | None",
               error: "tuple[str, str] | None") -> None:
        if payload is not None:
            results[entry.name] = payload
        else:
            assert error is not None
            failures.append(
                BatchTraceFailure(
                    name=entry.name, path=str(entry.path),
                    kind=error[0], error=error[1],
                )
            )

    entries = corpus.entries
    if jobs == 1 or len(entries) == 1:
        # Spans recorded on the serial path nest under the caller's trace;
        # process-pool workers run in their own interpreters, so the
        # parallel branch records only the fan-out envelope below.
        for entry in entries:
            with span("batch.member", trace=entry.name):
                _, payload, error = _batch_worker(
                    entry, p, slices, operator, anomaly_threshold, window
                )
            record(entry, payload, error)
    else:
        _prewarm_store_models(entries, slices)
        try:
            with span("batch.fanout", traces=len(entries), jobs=jobs), \
                    ProcessPoolExecutor(max_workers=min(jobs, len(entries))) as pool:
                futures = [
                    (entry, pool.submit(_batch_worker, entry, p, slices, operator,
                                        anomaly_threshold, window))
                    for entry in entries
                ]
                for entry, future in futures:
                    try:
                        _, payload, error = future.result()
                    except BrokenProcessPool as exc:
                        raise BatchWorkerError(
                            f"a batch worker crashed while the shard for "
                            f"{entry.path} (trace {entry.name!r}) was in flight; "
                            f"rerun with --jobs 1 to isolate the failing trace"
                        ) from exc
                    record(entry, payload, error)
        except BrokenProcessPool as exc:  # pool died outside result() calls
            raise BatchWorkerError(
                "the batch worker pool crashed before all shards completed; "
                "rerun with --jobs 1 to isolate the failing trace"
            ) from exc
    return BatchResult(params=params, results=results, failures=failures)
