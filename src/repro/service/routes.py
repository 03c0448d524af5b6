"""The service API's route table: one declarative source of truth.

Every endpoint of the ``v1`` HTTP API is one :class:`Route` row below —
its path, request body model, query parameters and the error statuses it may
answer with.  Three consumers read the table instead of hard-coding paths:

* the single-process handler (:mod:`repro.service.http`);
* the sharded front-end router (:mod:`repro.service.cluster`), which resolves
  exactly the same routes and forwards canonical paths to shard workers;
* the OpenAPI generator (:mod:`repro.service.openapi`), so ``docs/openapi.json``
  cannot drift from the live route table (CI regenerates and diffs it).

A path outside the table answers the 404 ``not_found`` error envelope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qsl

from ..pipeline.errors import RequestError
from ..pipeline.requests import AnalysisRequest, SweepRequest

__all__ = [
    "Route",
    "BodyField",
    "QueryParam",
    "ROUTES",
    "resolve_route",
    "route_by_name",
    "parse_debug_trace_query",
    "parse_traces_query",
    "parse_watch_query",
    "DEFAULT_TRACES_LIMIT",
    "WatchQuery",
]

#: Default page size of ``GET /v1/traces`` — listings are bounded unless the
#: client asks for a larger page explicitly.
DEFAULT_TRACES_LIMIT = 100


@dataclass(frozen=True)
class BodyField:
    """One request-body property, for documentation/OpenAPI purposes."""

    name: str
    type: str  # JSON-schema type name ("number", "integer", "string", "array")
    description: str
    required: bool = False
    items: Optional[str] = None  # item type for arrays


@dataclass(frozen=True)
class QueryParam:
    """One query-string parameter of a GET route."""

    name: str
    type: str
    description: str


@dataclass(frozen=True)
class Route:
    """One endpoint of the service API."""

    method: str
    path: str  # /v1 path (or /healthz, /readyz)
    name: str  # handler key ("analyze", "health", ...)
    summary: str
    request_model: Optional[type] = None  # dataclass the body validates into
    body_fields: Tuple[BodyField, ...] = ()  # extra/override body properties
    query_params: Tuple[QueryParam, ...] = ()
    error_statuses: Tuple[int, ...] = ()
    cluster_limited: bool = False  # behind the front-end's in-flight bound
    media_type: str = "application/json"  # success-response content type


_TRACE_FIELD = BodyField(
    "trace", "string",
    "Served trace name; may be omitted when exactly one trace is served.",
)
_WINDOW_FIELDS = (
    BodyField("last_k_slices", "integer",
              "Restrict the analysis to the trailing K slices of the streaming model."),
    BodyField("window", "array",
              "Restrict the analysis to the slices covering [t0, t1).", items="number"),
    BodyField("generation", "integer",
              "Pin the expected content generation; a mismatch answers 409."),
)

ROUTES: Tuple[Route, ...] = (
    Route(
        "GET", "/v1/health", "health",
        "Liveness plus aggregate registry and cache statistics.",
    ),
    Route(
        "GET", "/healthz", "healthz",
        "Kubernetes-style liveness probe: answers 200 while the process runs.",
    ),
    Route(
        "GET", "/readyz", "readyz",
        "Kubernetes-style readiness probe: 200 only when every shard answers.",
        error_statuses=(503,),
    ),
    Route(
        "GET", "/v1/metrics", "metrics",
        "Prometheus text exposition of service metrics; the sharded front "
        "merges per-shard scrapes under tier/shard labels.",
        media_type="text/plain; version=0.0.4; charset=utf-8",
    ),
    Route(
        "GET", "/v1/debug/trace", "debug_trace",
        "Chrome trace-event JSON of recent requests (bounded ring buffer); "
        "load the body in chrome://tracing or Perfetto.",
        query_params=(
            QueryParam("limit", "integer",
                       "Only the most recent N requests (default: the whole ring)."),
        ),
        error_statuses=(400,),
    ),
    Route(
        "GET", "/v1/traces", "traces",
        "Paginated listing of every served trace.",
        query_params=(
            QueryParam("limit", "integer",
                       f"Page size (default {DEFAULT_TRACES_LIMIT}, 0 = everything)."),
            QueryParam("offset", "integer", "Start index into the filtered listing."),
            QueryParam("digest", "string", "Exact-match content-digest filter."),
        ),
        error_statuses=(400,),
    ),
    Route(
        "GET", "/v1/watch/events", "watch_events",
        "Server-Sent-Events stream of continuous-monitoring events (drift, "
        "anomaly, rebuild, stalled) for one store-backed trace; `data:` "
        "payloads are byte-identical to `repro watch --json` lines.",
        query_params=(
            QueryParam("trace", "string",
                       "Served trace name; may be omitted when exactly one "
                       "trace is served."),
            QueryParam("slices", "integer",
                       "Time slices for the initial model build (default: 30)."),
            QueryParam("window", "integer",
                       "Trailing window width in slices scored each poll "
                       "(default: 10)."),
            QueryParam("poll", "number",
                       "Seconds between store polls (default: 1.0)."),
            QueryParam("max_events", "integer",
                       "Close the stream after this many events."),
            QueryParam("max_polls", "integer",
                       "Close the stream after this many polls."),
        ),
        error_statuses=(400, 404, 500),
        media_type="text/event-stream",
    ),
    Route(
        "POST", "/v1/analyze", "analyze",
        "One aggregation query; byte-identical to `repro analyze --json`.",
        request_model=AnalysisRequest,
        body_fields=(_TRACE_FIELD, *_WINDOW_FIELDS),
        error_statuses=(400, 404, 409, 429, 500, 503, 504),
        cluster_limited=True,
    ),
    Route(
        "POST", "/v1/sweep", "sweep",
        "Multi-p sweep; omit `ps` for the significant-parameter search.",
        request_model=SweepRequest,
        body_fields=(
            _TRACE_FIELD,
            BodyField("ps", "array", "Explicit p grid to evaluate.", items="number"),
            *_WINDOW_FIELDS,
        ),
        error_statuses=(400, 404, 409, 500, 503, 504),
    ),
    Route(
        "POST", "/v1/append", "append",
        "Streaming ingestion: append intervals to a store-backed trace.",
        body_fields=(
            _TRACE_FIELD,
            BodyField("intervals", "array",
                      "Rows of [start, end, resource, state] continuing the "
                      "canonical order.", required=True, items="array"),
        ),
        error_statuses=(400, 404, 500, 503, 504),
    ),
    Route(
        "POST", "/v1/batch", "batch",
        "One analysis per named (or every) served trace, with ranking.",
        request_model=AnalysisRequest,
        body_fields=(
            BodyField("traces", "array",
                      "Served trace names; omit to analyze every trace.",
                      items="string"),
        ),
        error_statuses=(400, 404, 409, 429, 500, 503, 504),
        cluster_limited=True,
    ),
    Route(
        "POST", "/v1/compare", "compare",
        "Cross-trace comparison; byte-identical to `repro compare --json`.",
        request_model=AnalysisRequest,
        body_fields=(
            BodyField("a", "string", "First served trace name.", required=True),
            BodyField("b", "string", "Second served trace name.", required=True),
        ),
        error_statuses=(400, 404, 409, 500, 503, 504),
    ),
)

_BY_KEY: Dict[Tuple[str, str], Route] = {
    (route.method, route.path): route for route in ROUTES
}

_BY_NAME: Dict[str, Route] = {route.name: route for route in ROUTES}


def resolve_route(method: str, path: str) -> Optional[Route]:
    """The route serving ``method path``, or ``None``.

    ``path`` must already be stripped of its query string; a single trailing
    slash is tolerated.
    """
    normalized = path.rstrip("/") or "/"
    return _BY_KEY.get((method, normalized))


def route_by_name(name: str) -> Route:
    """The route registered under handler key ``name``."""
    return _BY_NAME[name]


def parse_debug_trace_query(query: str) -> "Optional[int]":
    """Parse ``GET /v1/debug/trace`` query parameters into a ring limit.

    Returns ``None`` for "the whole ring"; shared by the single server and
    the cluster front so both reject typos with identical envelopes.
    """
    limit: Optional[int] = None
    for key, value in parse_qsl(query, keep_blank_values=True):
        if key != "limit":
            raise RequestError(
                f"unknown query parameter {key!r}; expected limit", field=key
            )
        try:
            limit = int(value)
        except ValueError:
            raise RequestError(
                f"limit must be an integer, got {value!r}", field="limit"
            ) from None
        if limit < 1:
            raise RequestError(f"limit must be >= 1, got {limit}", field="limit")
    return limit


@dataclass(frozen=True)
class WatchQuery:
    """Validated query parameters of ``GET /v1/watch/events``."""

    trace: Optional[str] = None
    slices: int = 30
    window: int = 10
    poll: float = 1.0
    max_events: Optional[int] = None
    max_polls: Optional[int] = None


def parse_watch_query(query: str) -> WatchQuery:
    """Parse ``GET /v1/watch/events`` query parameters.

    Shared by the single server (which runs the watch loop) and the cluster
    front (which routes on ``trace`` before relaying the stream), so both
    reject malformed requests with identical envelopes before any SSE bytes
    are written.
    """
    values: Dict[str, object] = {}
    for key, value in parse_qsl(query, keep_blank_values=True):
        if key == "trace":
            values["trace"] = value
        elif key in ("slices", "window", "max_events", "max_polls"):
            try:
                parsed = int(value)
            except ValueError:
                raise RequestError(
                    f"{key} must be an integer, got {value!r}", field=key
                ) from None
            if parsed < 1:
                raise RequestError(f"{key} must be >= 1, got {parsed}", field=key)
            values[key] = parsed
        elif key == "poll":
            try:
                poll = float(value)
            except ValueError:
                raise RequestError(
                    f"poll must be a number, got {value!r}", field="poll"
                ) from None
            if poll <= 0:
                raise RequestError(f"poll must be positive, got {poll}", field="poll")
            values["poll"] = poll
        else:
            raise RequestError(
                f"unknown query parameter {key!r}; expected trace, slices, "
                "window, poll, max_events or max_polls",
                field=key,
            )
    return WatchQuery(**values)  # type: ignore[arg-type]


def parse_traces_query(query: str) -> "Tuple[Optional[int], int, Optional[str]]":
    """Parse ``GET /v1/traces`` query parameters into ``(limit, offset, digest)``.

    ``limit`` is ``None`` for "everything" (requested as ``limit=0``);
    unknown parameters are rejected so typos do not silently return the
    unfiltered listing.  Raises :class:`RequestError` with the canonical
    message — shared by the single server and the front-end router, so both
    answer identical envelopes.
    """
    limit: Optional[int] = DEFAULT_TRACES_LIMIT
    offset = 0
    digest: Optional[str] = None
    for key, value in parse_qsl(query, keep_blank_values=True):
        if key in ("limit", "offset"):
            try:
                parsed = int(value)
            except ValueError:
                raise RequestError(
                    f"{key} must be an integer, got {value!r}", field=key
                ) from None
            if parsed < 0:
                raise RequestError(f"{key} must be >= 0, got {parsed}", field=key)
            if key == "limit":
                limit = parsed if parsed > 0 else None
            else:
                offset = parsed
        elif key == "digest":
            digest = value
        else:
            raise RequestError(
                f"unknown query parameter {key!r}; "
                "expected limit, offset or digest",
                field=key,
            )
    return limit, offset, digest
