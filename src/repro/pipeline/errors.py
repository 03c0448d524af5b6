"""Error taxonomy of the analysis pipeline.

Every frontend maps these the same way: :class:`PipelineError` (and its
subclasses) is the client's mistake — CLI exit code 2, HTTP 400 — while
:class:`StaleGenerationError` is the specific "your snapshot moved" conflict
— HTTP 409, retry after re-reading the generation.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

__all__ = [
    "PipelineError",
    "RequestError",
    "StaleGenerationError",
    "ERROR_CODES",
    "error_envelope",
]


class PipelineError(ValueError):
    """Raised for invalid pipeline requests (maps to CLI exit 2 / HTTP 400)."""


class RequestError(PipelineError):
    """An invalid request parameter, tagged with the offending field.

    ``field`` lets frontends keep their own phrasing for flag errors (the CLI
    says ``--slices must be at least 1`` where the HTTP API says ``slices
    must be in [1, 512]``) while sharing one validator.
    """

    def __init__(self, message: str, field: "str | None" = None) -> None:
        super().__init__(message)
        self.field = field


class StaleGenerationError(PipelineError):
    """Raised when a query raced an append that bumped the store generation.

    Maps to HTTP 409 (Conflict): the client's view of the trace content is
    out of date — re-read the current generation (``GET /v1/traces`` or the
    ``generation`` field of the ``POST /v1/append`` response) and retry.
    """


#: Every machine-readable error code the service API may answer with, mapped
#: to the HTTP status it rides on.  The OpenAPI spec and the front-end router
#: consume this table, so a new code cannot be introduced without documenting
#: its status.
ERROR_CODES: Dict[str, int] = {
    "invalid_request": 400,  # the client's parameters or body are wrong
    "not_found": 404,  # unknown endpoint or trace name
    "stale_generation": 409,  # query raced an append; re-read and retry
    "rate_limited": 429,  # per-client token bucket exhausted
    "overloaded": 429,  # bounded in-flight queue is full
    "internal": 500,  # store went bad underneath a live server
    "shard_unavailable": 503,  # shard worker died; respawn in progress
    "shard_timeout": 504,  # shard did not answer within the request timeout
    "not_ready": 503,  # readiness probe: not every shard is answering
}


def error_envelope(
    message: str, code: str = "invalid_request", field: Optional[str] = None
) -> Dict[str, Any]:
    """The one error body shape of the service API.

    Every HTTP error — from any endpoint or unknown path, front-end or
    shard — serializes as::

        {"error": {"code": "...", "message": "...", "field": "..."}}

    ``code`` is a stable machine-readable identifier from :data:`ERROR_CODES`;
    ``message`` keeps the historical human-readable text; ``field`` names the
    offending request parameter when one is known
    (:attr:`RequestError.field`), else ``null``.
    """
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}; add it to ERROR_CODES")
    return {"error": {"code": code, "message": str(message), "field": field}}
