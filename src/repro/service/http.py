"""Stdlib HTTP front-end for the analysis service (``repro serve``).

A :class:`~http.server.ThreadingHTTPServer` exposing the versioned ``v1``
JSON API over a registry of :class:`~repro.pipeline.executor.AnalysisEngine`.
The route table lives in :mod:`repro.service.routes`; the endpoints are:

* ``GET /v1/health`` — liveness plus aggregate cache statistics (quotes the
  package and API versions);
* ``GET /healthz`` / ``GET /readyz`` — k8s-style liveness/readiness probes;
* ``GET /v1/traces`` — paginated listing of the served traces
  (``?limit=``/``?offset=``, ``?digest=`` exact-match filter, with
  ``meta.total`` / ``meta.next_offset`` in the payload);
* ``POST /v1/analyze`` — one aggregation query, ``{"trace": name, "p": 0.7,
  "slices": 30, "operator": "mean"}`` (every field optional; ``trace``
  defaults to the only served trace).  The response body is byte-identical
  to ``repro analyze --json`` on the same content and parameters;
* ``POST /v1/sweep`` — batch multi-``p`` sweep, ``{"trace": name, "ps":
  [...]}`` (omit ``ps`` to get the significant-parameter search);
* ``POST /v1/append`` — streaming ingestion into a store-backed session,
  ``{"trace": name, "intervals": [[start, end, "resource", "state"], ...]}``;
* ``POST /v1/batch`` — one analysis per served trace (the corpus batch
  payload of ``repro batch --json``);
* ``POST /v1/compare`` — cross-trace comparison, byte-identical to
  ``repro compare --json``.

Every error — any endpoint, any status — carries the one envelope of
:func:`repro.pipeline.errors.error_envelope`::

    {"error": {"code": "invalid_request", "message": "...", "field": "p"}}

``/v1/analyze`` and ``/v1/sweep`` accept two optional windowing parameters for live
traces — ``"last_k_slices": k`` or ``"window": [t0, t1]`` — evaluated against
the session's incrementally grown streaming model, plus an optional
``"generation": g`` pin; a query whose expected generation lost a race with
an append is answered with **409 Conflict** (code ``stale_generation``)
rather than a silently stale or torn result.

No third-party web framework: the service must run wherever the library
does, and the stdlib threading server is plenty for an analysis cache whose
hot path is a dictionary lookup.  ``repro serve --shards N`` wraps this very
server in shard worker processes behind the consistent-hash router of
:mod:`repro.service.cluster`.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from functools import lru_cache
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Mapping, Optional, Tuple

from ..obs.logging import ACCESS_LOGGER, access_log
from ..obs.metrics import CONTENT_TYPE as METRICS_CONTENT_TYPE
from ..obs.middleware import (
    DEFAULT_TRACE_SAMPLE,
    FOLD_THRESHOLD,
    ServerObservability,
)
from ..obs.tracing import new_request_id, start_trace
from ..pipeline.errors import (
    PipelineError,
    RequestError,
    StaleGenerationError,
    error_envelope,
)
from ..pipeline.executor import AnalysisEngine
from ..pipeline.payloads import (
    API_VERSION,
    batch_payload,
    compare_payload,
    package_version,
    serialize_payload,
)
from ..pipeline.requests import AnalysisRequest, SweepRequest
from ..store.store import model_cache_stats
from ..trace.io import TraceIOError
from .registry import SessionRegistry
from .routes import (
    Route,
    parse_debug_trace_query,
    parse_traces_query,
    parse_watch_query,
    resolve_route,
)

_LOG_INFO = logging.INFO

__all__ = [
    "DrainableThreadingHTTPServer",
    "JSONHandler",
    "TraceServiceServer",
    "build_server",
    "read_raw_body",
    "MAX_BODY_BYTES",
]

#: Largest accepted request body; queries are tiny, anything bigger is abuse.
MAX_BODY_BYTES = 1 << 20


@lru_cache(maxsize=256)
def _route_name(method: str, path: str) -> str:
    """The metrics label of ``(method, path)``, memoized for the hot path.

    Unmatched paths all collapse into one ``"unknown"`` label so probes of
    random URLs cannot blow up metric cardinality (and cannot grow this
    cache past its bound either, since misses share the one entry per path
    up to the LRU capacity).
    """
    route = resolve_route(method, path)
    return route.name if route is not None else "unknown"


def read_raw_body(handler: BaseHTTPRequestHandler) -> bytes:
    """Read a bounded request body, with the canonical error phrasing.

    Shared by the single-process handler and the cluster front-end router so
    both reject malformed ``Content-Length`` headers and oversized bodies
    with byte-identical envelopes.  Marks the connection non-reusable when
    body bytes were left unread.
    """
    try:
        length = int(handler.headers.get("Content-Length") or 0)
    except ValueError:
        # The body length is unknowable, so the connection cannot be
        # reused: unread body bytes would be parsed as the next request.
        handler.close_connection = True
        raise PipelineError("invalid Content-Length header") from None
    if length < 0 or length > MAX_BODY_BYTES:
        handler.close_connection = True  # body left unread — do not reuse
        raise PipelineError(
            f"request body must be between 0 and {MAX_BODY_BYTES} bytes"
        )
    return handler.rfile.read(length) if length else b""


def _analysis_request(body: Mapping[str, Any]) -> AnalysisRequest:
    """The typed pipeline request of a ``/v1/analyze``-shaped JSON body."""
    return AnalysisRequest.from_query(
        p=body.get("p", 0.7),
        slices=body.get("slices", 30),
        operator=body.get("operator", "mean"),
        anomaly_threshold=body.get("anomaly_threshold", 0.1),
        last_k_slices=body.get("last_k_slices"),
        window=body.get("window"),
        generation=body.get("generation"),
    )


def _sweep_request(body: Mapping[str, Any]) -> SweepRequest:
    """The typed pipeline request of a ``/v1/sweep``-shaped JSON body."""
    return SweepRequest.from_query(
        ps=body.get("ps"),
        slices=body.get("slices", 30),
        operator=body.get("operator", "mean"),
        last_k_slices=body.get("last_k_slices"),
        window=body.get("window"),
        generation=body.get("generation"),
    )


class DrainableThreadingHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server whose shutdown can drain in-flight requests."""

    daemon_threads = True
    #: Listen backlog: the stdlib default of 5 drops (RST) connection bursts
    #: that a 64-client benchmark — or any load spike — routinely produces.
    request_queue_size = 128

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        self._active_connections = 0
        self._active_lock = threading.Lock()
        super().__init__(*args, **kwargs)

    def process_request_thread(self, request: Any, client_address: Any) -> None:
        """Track live connection threads so shutdown can drain them."""
        with self._active_lock:
            self._active_connections += 1
        try:
            super().process_request_thread(request, client_address)
        finally:
            with self._active_lock:
                self._active_connections -= 1

    def wait_idle(self, timeout: float = 5.0) -> bool:
        """Wait until no connection thread is live (bounded by ``timeout``).

        Used by ``repro serve`` between ``shutdown()`` and ``server_close()``
        so in-flight requests finish before the process exits.  Idle
        keep-alive connections count as live, hence the bound; returns
        whether the server drained fully.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._active_lock:
                if self._active_connections == 0:
                    return True
            time.sleep(0.02)
        with self._active_lock:
            return self._active_connections == 0


class TraceServiceServer(DrainableThreadingHTTPServer):
    """Threading HTTP server holding the session registry."""

    def __init__(
        self,
        address: tuple[str, int],
        sessions: "Mapping[str, AnalysisEngine] | SessionRegistry",
        instrument: bool = True,
        tier: str = "single",
        trace_sample: int = DEFAULT_TRACE_SAMPLE,
    ):
        if isinstance(sessions, SessionRegistry):
            self.registry = sessions
        else:
            self.registry = SessionRegistry(sessions=sessions)
        self.obs: "ServerObservability | None" = None
        if instrument:
            self.obs = ServerObservability(tier, trace_sample=trace_sample)
            self.obs.add_registry_stats(self.registry.stats)
            self.obs.add_model_cache_stats(model_cache_stats)
            self.obs.add_gauge(
                "repro_http_active_connections",
                "Connection threads currently live on this server.",
                lambda: float(self._active_connections),
            )
        super().__init__(address, ServiceHandler)

    def resolve(self, name: "str | None") -> AnalysisEngine:
        """Session by name; the single session when ``name`` is omitted."""
        return self.registry.resolve(name)


class JSONHandler(BaseHTTPRequestHandler):
    """Response plumbing shared by the shard handler and the cluster front.

    Subclasses dispatch against the shared route table and send canonical
    payloads / error envelopes through :meth:`_send_json` /
    :meth:`_send_error`; ``_extra_headers`` carries per-request response
    headers (``Retry-After`` on backpressure answers).
    """

    protocol_version = "HTTP/1.1"
    #: Response headers and body leave in separate writes; with Nagle on,
    #: the body write stalls behind the peer's delayed ACK (~40ms per
    #: request on loopback).  An analysis-cache hit is sub-millisecond, so
    #: the stall would dominate service latency 40:1.
    disable_nagle_algorithm = True
    #: Advertised by ``GET /v1/health``; bump alongside the payload schemas.
    server_version = "repro-serve/1"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # keep stdout/stderr clean; CI parses the CLI's own output

    _extra_headers: "Tuple[Tuple[str, str], ...]" = ()
    #: Correlation id of the request being answered (echoed on responses).
    _request_id: "Optional[str]" = None
    #: Whether this request's spans are being recorded (the front's sampling
    #: decision, forwarded to shards on the proxied request).
    _trace_sampled: bool = False
    #: Shards answering a front skip the ``X-Request-ID`` response echo —
    #: the front echoes to the real client, and the extra header line costs
    #: the front's HTTP parser more than it is worth on loopback.
    _suppress_id_echo: bool = False
    #: Status / error code of the last response written, read back by the
    #: observability wrapper after ``_dispatch`` returns.
    _last_status: "Optional[int]" = None
    _last_error_code: "Optional[str]" = None

    #: Routes whose own traffic is not recorded into the debug-trace ring —
    #: scrapes and trace dumps would otherwise crowd out the real work; a
    #: watch stream would additionally hold one span open for its whole
    #: (unbounded) lifetime.
    _UNTRACED_ROUTES = frozenset(
        {"metrics", "debug_trace", "healthz", "readyz", "watch_events"}
    )

    def _send_bytes(
        self,
        status: int,
        data: bytes,
        content_type: str = "application/json; charset=utf-8",
    ) -> None:
        self._last_status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        if self._request_id is not None and not self._suppress_id_echo:
            self.send_header("X-Request-ID", self._request_id)
        for header, value in self._extra_headers:
            self.send_header(header, value)
        if self.close_connection:
            # Set when the request body was left unread — advertise that the
            # connection is done so well-behaved clients do not pipeline.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def _send(self, status: int, body: str) -> None:
        self._send_bytes(status, (body + "\n").encode("utf-8"))

    def _send_json(self, status: int, payload: Mapping[str, Any]) -> None:
        self._send(status, serialize_payload(payload))

    def _send_error(
        self,
        status: int,
        message: str,
        code: str = "invalid_request",
        field: Optional[str] = None,
        retry_after: Optional[int] = None,
    ) -> None:
        self._last_error_code = code
        if retry_after is not None:
            self._extra_headers = (
                *self._extra_headers,
                ("Retry-After", str(int(retry_after))),
            )
        self._send_json(status, error_envelope(message, code=code, field=field))

    # ------------------------------------------------------------------ #
    # Observability wrapper around dispatch
    # ------------------------------------------------------------------ #
    def _dispatch(self, method: str) -> None:
        raise NotImplementedError

    def _observe(self, method: str) -> None:
        """Dispatch one request under metrics, tracing and the access log.

        When the server runs uninstrumented (``obs is None``) this falls
        straight through to ``_dispatch`` — the bare path the benchmark's
        overhead gate compares against.
        """
        obs: "ServerObservability | None" = getattr(self.server, "obs", None)
        if obs is None:
            self._dispatch(method)
            return
        self._last_status = None
        self._last_error_code = None
        tier = obs.tier
        # The front generates the id; shards receive it via the proxy header
        # so one id correlates the whole request tree across processes.
        rid = None
        sample_header = None
        # One pass over the raw header pairs: Message.get would scan (and
        # case-fold) the list once per probed name, and Message.items pays
        # the policy fetch-parse per header.
        raw_headers = self.headers._headers or ()
        if tier == "front":
            # The front owns the sampling decision; X-Trace-Sample is a
            # proxy-internal header, so the front never looks for it on
            # client requests.
            for name, value in raw_headers:
                if name.lower() == "x-request-id":
                    rid = value
                    break
        else:
            for name, value in raw_headers:
                folded = name.lower()
                if folded == "x-request-id":
                    rid = value
                elif folded == "x-trace-sample":
                    sample_header = value
        self._request_id = rid or new_request_id()
        self._suppress_id_echo = rid is not None and tier == "shard"
        route_name = _route_name(method, self.path.partition("?")[0])
        # Span recording is sampled (metrics/logs cover every request): the
        # front decides 1-in-N and shards follow its decision via the proxy
        # header (sent only for recorded requests), so a sampled request
        # tree is complete across tiers.
        if route_name in self._UNTRACED_ROUTES:
            sampled = False
        elif tier == "front":
            sampled = obs.sample_tick()
        elif sample_header is not None:
            sampled = sample_header == "1"
        elif rid is not None and tier == "shard":
            # Proxied request without the marker: the front recorded nothing.
            sampled = False
        else:
            sampled = obs.sample_tick()
        self._trace_sampled = sampled
        started = time.perf_counter()
        if sampled:
            with start_trace(
                f"http.{route_name}", request_id=self._request_id,
                method=method, route=route_name,
            ) as trace:
                self._dispatch(method)
        else:
            trace = None
            self._dispatch(method)
        duration_s = time.perf_counter() - started
        status = self._last_status if self._last_status is not None else 0
        # Inlined ServerObservability.observe_request (the canonical, tested
        # form) — dropping the call frame per tier is worth a couple of
        # microseconds against the benchmark's 5% overhead budget.  Keep the
        # two in sync: one atomic event append, folded at scrape time.
        events = obs._events
        events.append(
            (route_name, method, status, duration_s, self._last_error_code)
        )
        if trace is not None:
            obs.ring.push(trace)
        if ACCESS_LOGGER.isEnabledFor(_LOG_INFO):
            access_log(
                self._request_id, route_name, method, status, duration_s,
                tier=tier,
            )
        if len(events) >= FOLD_THRESHOLD:
            obs._fold()

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._observe("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._observe("POST")

    # ------------------------------------------------------------------ #
    # Observability endpoints shared by all tiers
    # ------------------------------------------------------------------ #
    def _handle_metrics(self, route: Route, query: str) -> None:
        obs: "ServerObservability | None" = getattr(self.server, "obs", None)
        if obs is None:
            self._send_error(
                404, "metrics are disabled on this server", code="not_found"
            )
            return
        self._send_bytes(
            200, obs.metrics.render().encode("utf-8"),
            content_type=METRICS_CONTENT_TYPE,
        )

    def _handle_debug_trace(self, route: Route, query: str) -> None:
        obs: "ServerObservability | None" = getattr(self.server, "obs", None)
        if obs is None:
            self._send_error(
                404, "request tracing is disabled on this server", code="not_found"
            )
            return
        limit = parse_debug_trace_query(query)
        self._send_json(200, obs.ring.chrome_payload(limit))


class ServiceHandler(JSONHandler):
    """Request handler: routes, JSON bodies, error mapping."""

    server: TraceServiceServer

    def _read_body(self) -> dict[str, Any]:
        raw = read_raw_body(self)
        if not raw:
            return {}
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise PipelineError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(body, dict):
            raise PipelineError("request body must be a JSON object")
        return body

    # ------------------------------------------------------------------ #
    # Routes
    # ------------------------------------------------------------------ #
    def _dispatch(self, method: str) -> None:
        path, _, query = self.path.partition("?")
        self._extra_headers = ()
        route = resolve_route(method, path)
        if route is None:
            self._send_error(
                404, f"no such endpoint: {path.rstrip('/') or '/'}", code="not_found"
            )
            return
        try:
            getattr(self, f"_handle_{route.name}")(route, query)
        except StaleGenerationError as exc:
            # Subclass of PipelineError: must be mapped before the 400 branch.
            self._send_error(409, str(exc), code="stale_generation")
        except RequestError as exc:
            self._send_error(400, str(exc), field=exc.field)
        except PipelineError as exc:
            self._send_error(400, str(exc))
        except LookupError as exc:
            self._send_error(404, str(exc), code="not_found")
        except TraceIOError as exc:
            # Store went bad underneath a live server (deleted chunk, bit rot).
            self._send_error(500, f"trace store error: {exc}", code="internal")

    # ------------------------------------------------------------------ #
    # GET handlers
    # ------------------------------------------------------------------ #
    def _handle_health(self, route: Route, query: str) -> None:
        registry = self.server.registry
        caches = [session.cache_info() for session in registry.loaded()]
        self._send_json(
            200,
            {
                "api": API_VERSION,
                "status": "ok",
                "service": self.server_version,
                "version": package_version(),
                "n_traces": registry.stats()["n_traces"],
                "registry": registry.stats(),
                "cache": {
                    "hits": sum(c["hits"] for c in caches),
                    "misses": sum(c["misses"] for c in caches),
                    "entries": sum(c["entries"] for c in caches),
                },
            },
        )

    def _handle_healthz(self, route: Route, query: str) -> None:
        self._send_json(200, {"status": "ok"})

    def _handle_readyz(self, route: Route, query: str) -> None:
        # A single-process server is ready as soon as it accepts connections:
        # the registry was validated at startup.  The cluster front-end
        # overrides this with a real all-shards-answering probe.  The body
        # carries the same queue-depth detail the metrics expose so probes
        # and scrapes agree.
        self._send_json(
            200,
            {
                "status": "ready",
                "active_connections": self.server._active_connections,
            },
        )

    def _handle_traces(self, route: Route, query: str) -> None:
        limit, offset, digest = parse_traces_query(query)
        self._send_json(
            200,
            self.server.registry.traces_payload(
                limit=limit, offset=offset, digest=digest
            ),
        )

    def _handle_watch_events(self, route: Route, query: str) -> None:
        """``GET /v1/watch/events``: SSE stream of monitoring events.

        Validation (query parsing, trace lookup, store-backed check, watch
        construction) happens **before** any response byte leaves, so every
        failure still answers the canonical JSON error envelope.  Once the
        stream is open no status can change — a store that goes bad
        mid-stream terminates the stream with a comment frame instead.
        """
        from ..pipeline.resolver import StoreSource
        from ..watch import TraceWatch, WatchConfig, sse_frame

        params = parse_watch_query(query)
        session = self.server.resolve(params.trace)
        source = session.source
        if not isinstance(source, StoreSource):
            raise PipelineError(
                f"trace {session.name!r} is not store-backed; watch needs a "
                ".rtz store that can grow (convert with `repro convert`)"
            )
        config = WatchConfig(
            slices=params.slices, window_slices=params.window
        ).validated()
        watch = TraceWatch(
            source.store.path, name=session.name, config=config
        )
        # Stream response: chunked by flushes, no Content-Length.  The
        # connection cannot be reused afterwards, so advertise the close.
        self._last_status = 200
        self.send_response(200)
        self.send_header("Content-Type", route.media_type)
        self.send_header("Cache-Control", "no-store")
        if self._request_id is not None and not self._suppress_id_echo:
            self.send_header("X-Request-ID", self._request_id)
        self.send_header("Connection", "close")
        self.close_connection = True
        self.end_headers()
        emitted = 0
        polls = 0
        try:
            while True:
                polls += 1
                try:
                    events = watch.poll()
                except TraceIOError as exc:
                    # Headers are long gone; a comment frame is the only
                    # in-band way left to say why the stream ends.
                    self.wfile.write(f": error: {exc}\n\n".encode("utf-8"))
                    return
                if events:
                    for event in events:
                        self.wfile.write(sse_frame(event).encode("utf-8"))
                        emitted += 1
                        if (
                            params.max_events is not None
                            and emitted >= params.max_events
                        ):
                            return
                else:
                    # Heartbeat comment: keeps intermediaries from timing the
                    # stream out and surfaces client disconnects as write
                    # errors on idle watches.
                    self.wfile.write(b": keep-alive\n\n")
                self.wfile.flush()
                if params.max_polls is not None and polls >= params.max_polls:
                    return
                time.sleep(params.poll)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing left to answer

    # ------------------------------------------------------------------ #
    # POST handlers
    # ------------------------------------------------------------------ #
    def _handle_analyze(self, route: Route, query: str) -> None:
        body = self._read_body()
        session = self.server.resolve(body.get("trace"))
        self._send(200, session.execute(_analysis_request(body)))

    def _handle_sweep(self, route: Route, query: str) -> None:
        body = self._read_body()
        session = self.server.resolve(body.get("trace"))
        self._send_json(200, session.run_sweep(_sweep_request(body)))

    def _handle_append(self, route: Route, query: str) -> None:
        body = self._read_body()
        session = self.server.resolve(body.get("trace"))
        intervals = body.get("intervals")
        if not isinstance(intervals, list):
            raise PipelineError(
                'append body must carry "intervals": '
                "[[start, end, resource, state], ...]"
            )
        self._send_json(200, session.append(intervals))

    def _handle_batch(self, route: Route, query: str) -> None:
        """``POST /v1/batch``: one analysis per named (or every) served trace.

        Mirrors ``repro batch``: traces are analyzed **one at a time** (so
        the registry's LRU bound keeps corpus memory flat — sessions are
        never all resident at once) and an unreadable member is recorded in
        the payload's ``errors`` section with its path rather than aborting
        the whole request.  Unknown names and invalid parameters are still
        request errors (404 / 400)."""
        body = self._read_body()
        registry = self.server.registry
        names = body.get("traces")
        if names is None:
            names = registry.names()
        elif not isinstance(names, list) or not all(
            isinstance(name, str) for name in names
        ):
            raise PipelineError('"traces" must be a list of served trace names')
        if not names:
            raise PipelineError("batch request selects no traces")
        for name in names:
            if name not in registry.names():
                raise LookupError(
                    f"unknown trace {name!r}; served traces: {registry.names()}"
                )
        request = _analysis_request(body)
        params: dict[str, Any] = {}
        results: dict[str, Any] = {}
        errors: list[dict[str, str]] = []
        for name in names:
            try:
                result = registry.get(name).execute_dict(request)
            except StaleGenerationError:
                raise  # a 409, not a per-trace failure
            except PipelineError:
                raise  # invalid parameters fail every trace alike: a 400
            except TraceIOError as exc:
                # Unreadable/corrupt/tampered member: record and keep going,
                # exactly like run_batch's BatchTraceFailure.
                errors.append(
                    {
                        "name": name,
                        "path": registry.describe(name),
                        "kind": type(exc).__name__,
                        "error": str(exc),
                    }
                )
                continue
            results[name] = result
            params = result["params"]
        self._send_json(200, batch_payload(results, params, errors=errors))

    def _handle_compare(self, route: Route, query: str) -> None:
        """``POST /v1/compare``: byte-identical to ``repro compare --json``."""
        body = self._read_body()
        sides = {}
        for side in ("a", "b"):
            name = body.get(side)
            if not isinstance(name, str):
                raise PipelineError(
                    'compare body must name two served traces: {"a": ..., "b": ...}'
                )
            sides[side] = self.server.registry.get(name)
        request = _analysis_request(body)
        payloads = {}
        models = {}
        params: dict[str, Any] = {}
        for side, session in sides.items():
            result = session.execute_dict(request)
            payloads[side] = result
            models[side] = session.model(result["params"]["slices"])
            # The aggregate and the model are fetched under separate lock
            # acquisitions; a /v1/append landing between them would mix two
            # content snapshots in one comparison.  Appends bump the
            # generation before any cache is rebuilt, so re-reading it after
            # the model fetch detects the race — answered 409 like /v1/analyze.
            if session.generation != result["trace"]["generation"]:
                raise StaleGenerationError(
                    f"trace {session.name!r} moved to generation "
                    f"{session.generation} while the comparison (generation "
                    f"{result['trace']['generation']}) was in flight"
                )
            params = result["params"]
        payload = compare_payload(
            sides["a"].name, payloads["a"], models["a"],
            sides["b"].name, payloads["b"], models["b"],
            params,
        )
        self._send_json(200, payload)


def build_server(
    sessions: "Mapping[str, AnalysisEngine] | SessionRegistry",
    host: str = "127.0.0.1",
    port: int = 8000,
    instrument: bool = True,
    tier: str = "single",
    trace_sample: int = DEFAULT_TRACE_SAMPLE,
) -> TraceServiceServer:
    """Bind a :class:`TraceServiceServer` (``port=0`` picks a free port).

    ``sessions`` is either a plain mapping of pinned sessions (wrapped into a
    :class:`~repro.service.registry.SessionRegistry`) or a pre-built registry
    (corpus-aware serving).  ``instrument=False`` disables the metrics /
    tracing / access-log layer entirely (the benchmark's bare leg); ``tier``
    names the server in its access log (``single`` or ``shard``);
    ``trace_sample`` records one request's span tree in N (1 = every
    request).
    """
    return TraceServiceServer(
        (host, port), sessions, instrument=instrument, tier=tier,
        trace_sample=trace_sample,
    )
