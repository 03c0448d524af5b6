"""OpenAPI satellite: docs/openapi.json is derived, committed, and in sync."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro.service.openapi import build_spec, main, render_spec
from repro.service.routes import ROUTES

REPO_ROOT = Path(repro.__file__).resolve().parents[2]
SPEC_PATH = REPO_ROOT / "docs" / "openapi.json"


@pytest.fixture(scope="module")
def spec():
    return build_spec()


class TestSpecShape:
    def test_every_route_is_a_path(self, spec):
        for route in ROUTES:
            operation = spec["paths"][route.path][route.method.lower()]
            assert "deprecated" not in operation

    def test_no_path_outside_the_route_table(self, spec):
        assert set(spec["paths"]) == {r.path for r in ROUTES}
        assert all(
            path.startswith("/v1/") or path in ("/healthz", "/readyz")
            for path in spec["paths"]
        )

    def test_error_responses_reference_the_envelope(self, spec):
        operation = spec["paths"]["/v1/analyze"]["post"]
        for status in ("400", "404", "409", "429", "500", "503", "504"):
            schema = operation["responses"][status]["content"][
                "application/json"]["schema"]
            assert schema == {"$ref": "#/components/schemas/ErrorEnvelope"}
        envelope = spec["components"]["schemas"]["ErrorEnvelope"]
        assert envelope["properties"]["error"]["required"] == [
            "code", "message", "field"
        ]

    def test_body_schema_merges_dataclass_and_overrides(self, spec):
        schema = spec["paths"]["/v1/analyze"]["post"]["requestBody"]["content"][
            "application/json"]["schema"]
        properties = schema["properties"]
        # From the AnalysisRequest dataclass (with defaults)...
        assert properties["p"] == {"type": "number", "default": 0.7}
        assert properties["slices"]["default"] == 30
        # ...and from the route's explicit BodyField rows.
        assert properties["trace"]["type"] == "string"
        assert properties["window"]["items"] == {"type": "number"}
        assert "jobs" not in properties  # not part of the HTTP surface

    def test_query_params_documented(self, spec):
        params = {
            p["name"]: p
            for p in spec["paths"]["/v1/traces"]["get"]["parameters"]
        }
        assert set(params) == {"limit", "offset", "digest"}
        assert params["limit"]["in"] == "query"

    def test_version_matches_package(self, spec):
        from repro.pipeline import package_version

        assert spec["info"]["version"] == package_version()


class TestCommittedSpec:
    def test_committed_spec_matches_live_routes(self):
        if not SPEC_PATH.exists():
            pytest.skip("no docs/openapi.json next to the package (installed run)")
        assert SPEC_PATH.read_text() == render_spec(), (
            "docs/openapi.json is stale — regenerate with "
            "`python -m repro.service.openapi --output docs/openapi.json`"
        )

    def test_rendering_is_deterministic(self):
        assert render_spec() == render_spec()
        json.loads(render_spec())  # and valid JSON

    def test_cli_check_mode(self, tmp_path, capsys):
        good = tmp_path / "openapi.json"
        good.write_text(render_spec())
        assert main(["--check", str(good)]) == 0
        good.write_text("{}\n")
        assert main(["--check", str(good)]) == 1
        assert "stale" in capsys.readouterr().err

    def test_cli_output_mode(self, tmp_path):
        out = tmp_path / "docs" / "openapi.json"
        assert main(["--output", str(out)]) == 0
        assert out.read_text() == render_spec()
