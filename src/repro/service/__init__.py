"""Aggregation query service: the HTTP API over cached pipeline engines.

Turns the batch library into the interactive system the paper describes:
each served trace is one :class:`~repro.pipeline.executor.AnalysisEngine`
(the trace and its models pinned in memory behind an LRU result cache), a
:class:`SessionRegistry` names them, and :func:`build_server` exposes them
over a stdlib JSON HTTP API (``repro serve``).  Every route lives under
``/v1`` (plus the ``/healthz`` / ``/readyz`` probes); any other path answers
the 404 ``not_found`` error envelope.
"""

from .cluster import (
    ClusterConfig,
    ClusterHandle,
    HashRing,
    start_cluster,
)
from .http import TraceServiceServer, build_server
from .registry import DEFAULT_MAX_SESSIONS, SessionRegistry
from .routes import ROUTES, resolve_route

__all__ = [
    "TraceServiceServer",
    "SessionRegistry",
    "DEFAULT_MAX_SESSIONS",
    "build_server",
    "ClusterConfig",
    "ClusterHandle",
    "HashRing",
    "start_cluster",
    "ROUTES",
    "resolve_route",
]
