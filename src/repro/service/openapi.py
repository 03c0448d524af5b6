"""OpenAPI 3.0 generation from the service route table (``docs/openapi.json``).

The spec is **derived**, never hand-edited: every path comes from
:data:`repro.service.routes.ROUTES`, request-body properties from the route's
request dataclass (``AnalysisRequest``/``SweepRequest``) merged with the
route's explicit :class:`~repro.service.routes.BodyField` overrides, and every
error response references the one ``ErrorEnvelope`` component produced by
:func:`repro.pipeline.errors.error_envelope`.

CI regenerates the spec and fails on any diff (``python -m
repro.service.openapi --check``), so the committed document cannot drift from
the live route table.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Any, Dict

from ..pipeline.errors import ERROR_CODES
from ..pipeline.payloads import API_VERSION, package_version
from .routes import ROUTES, BodyField, Route

__all__ = ["build_spec", "render_spec", "main"]

#: Dataclass fields whose HTTP surface is described by explicit
#: :class:`BodyField` rows instead (tuple-typed or not accepted over HTTP).
_NON_HTTP_FIELDS = frozenset({"window", "generation", "jobs", "ps"})

#: Python annotation (as a string, thanks to ``from __future__ import
#: annotations``) to JSON-schema type.
_TYPE_MAP = {"float": "number", "int": "integer", "str": "string", "bool": "boolean"}

_STATUS_DESCRIPTIONS = {
    400: "Invalid request (unknown field value, malformed body or query).",
    404: "Unknown trace name or endpoint.",
    409: "Stale generation: the pinned content generation lost a race with an append.",
    429: "Backpressure: over the in-flight bound or the per-client rate limit.",
    500: "Internal trace-store error.",
    503: "Shard worker unavailable (died or restarting) or cluster not ready.",
    504: "Shard worker did not answer within the request timeout.",
}


def _body_schema(route: Route) -> "Dict[str, Any] | None":
    """The JSON request-body schema of ``route`` (``None`` for GET routes)."""
    if route.method != "POST":
        return None
    properties: Dict[str, Dict[str, Any]] = {}
    required: list[str] = []
    if route.request_model is not None:
        for field in dataclasses.fields(route.request_model):
            if field.name in _NON_HTTP_FIELDS:
                continue
            json_type = _TYPE_MAP.get(str(field.type))
            if json_type is None:
                continue
            prop: Dict[str, Any] = {"type": json_type}
            if field.default is not dataclasses.MISSING:
                prop["default"] = field.default
            properties[field.name] = prop
    for body_field in route.body_fields:
        prop = {"type": body_field.type, "description": body_field.description}
        if body_field.items is not None:
            prop["items"] = {"type": body_field.items}
        properties[body_field.name] = prop
        if body_field.required:
            required.append(body_field.name)
    schema: Dict[str, Any] = {
        "type": "object",
        "additionalProperties": False,
        "properties": properties,
    }
    if required:
        schema["required"] = sorted(required)
    return schema


def _responses(route: Route) -> Dict[str, Any]:
    success_schema: Dict[str, Any] = (
        {"type": "object"}
        if route.media_type == "application/json"
        else {"type": "string"}
    )
    responses: Dict[str, Any] = {
        "200": {
            "description": route.summary,
            "content": {route.media_type: {"schema": success_schema}},
        }
    }
    for status in sorted(route.error_statuses):
        responses[str(status)] = {
            "description": _STATUS_DESCRIPTIONS[status],
            "content": {
                "application/json": {
                    "schema": {"$ref": "#/components/schemas/ErrorEnvelope"}
                }
            },
        }
    return responses


def _operation(route: Route) -> Dict[str, Any]:
    operation: Dict[str, Any] = {
        "operationId": route.name,
        "summary": route.summary,
        "responses": _responses(route),
    }
    if route.query_params:
        operation["parameters"] = [
            {
                "name": param.name,
                "in": "query",
                "required": False,
                "description": param.description,
                "schema": {"type": param.type},
            }
            for param in route.query_params
        ]
    body_schema = _body_schema(route)
    if body_schema is not None:
        operation["requestBody"] = {
            "required": False,
            "content": {"application/json": {"schema": body_schema}},
        }
    return operation


def build_spec() -> Dict[str, Any]:
    """The OpenAPI document of the live route table."""
    paths: Dict[str, Dict[str, Any]] = {}
    for route in ROUTES:
        paths.setdefault(route.path, {})[route.method.lower()] = _operation(route)
    return {
        "openapi": "3.0.3",
        "info": {
            "title": "repro trace-analysis service",
            "version": package_version(),
            "description": (
                f"Versioned ({API_VERSION}) JSON API over cached spatiotemporal "
                "trace-aggregation sessions; `repro serve --shards N` serves the "
                "same API from a consistent-hash shard cluster."
            ),
        },
        "paths": paths,
        "components": {
            "schemas": {
                "ErrorEnvelope": {
                    "type": "object",
                    "required": ["error"],
                    "description": (
                        "The one error shape of every non-2xx answer; `code` is "
                        "a stable machine-readable discriminator, `field` names "
                        "the offending request field when one is known. Known "
                        f"codes: {', '.join(sorted(ERROR_CODES))}."
                    ),
                    "properties": {
                        "error": {
                            "type": "object",
                            "required": ["code", "message", "field"],
                            "properties": {
                                "code": {
                                    "type": "string",
                                    "enum": sorted(ERROR_CODES),
                                },
                                "message": {"type": "string"},
                                "field": {"type": "string", "nullable": True},
                            },
                        }
                    },
                }
            }
        },
    }


def render_spec() -> str:
    """Deterministic serialization of the spec (committed verbatim)."""
    return json.dumps(build_spec(), indent=2, sort_keys=True) + "\n"


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.openapi",
        description="Generate docs/openapi.json from the service route table.",
    )
    parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the spec here (default: print to stdout)",
    )
    parser.add_argument(
        "--check", default=None, metavar="PATH",
        help="exit 1 when PATH differs from the generated spec (CI drift gate)",
    )
    args = parser.parse_args(argv)
    rendered = render_spec()
    if args.check is not None:
        try:
            committed = Path(args.check).read_text()
        except OSError as exc:
            print(f"error: cannot read {args.check}: {exc}", file=sys.stderr)
            return 1
        if committed != rendered:
            print(
                f"error: {args.check} is stale — regenerate it with "
                f"`python -m repro.service.openapi --output {args.check}`",
                file=sys.stderr,
            )
            return 1
        print(f"{args.check} matches the live route table")
        return 0
    if args.output is not None:
        Path(args.output).parent.mkdir(parents=True, exist_ok=True)
        Path(args.output).write_text(rendered)
        print(f"wrote {args.output} ({len(rendered)} bytes)")
        return 0
    sys.stdout.write(rendered)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
