"""The version satellite: one version string, everywhere, in sync.

``repro --version``, ``GET /health`` and every payload's ``meta`` block all
quote :func:`repro.pipeline.payloads.package_version`, which prefers the
installed distribution metadata and falls back to ``repro.__version__`` on
PYTHONPATH checkouts.  The sync test pins ``pyproject.toml`` to the source
constant so both spellings agree in every environment — without it, the
golden payloads would differ between an installed CI run and a checkout.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.pipeline import meta_section, package_version

REPO_ROOT = Path(repro.__file__).resolve().parents[2]


class TestSingleSourceOfTruth:
    def test_pyproject_matches_dunder_version(self):
        path = REPO_ROOT / "pyproject.toml"
        if not path.exists():  # site-packages install: metadata is authoritative
            pytest.skip("no checkout pyproject.toml next to the package")
        pyproject = path.read_text()
        match = re.search(r'^version = "(?P<v>[^"]+)"$', pyproject, re.MULTILINE)
        assert match is not None, "pyproject.toml lost its version field"
        assert match.group("v") == repro.__version__

    def test_package_version_is_one_of_the_synced_spellings(self):
        # Metadata when installed, __version__ otherwise; the sync test above
        # makes them interchangeable.
        assert package_version() == repro.__version__

    def test_meta_section_shape(self):
        assert meta_section() == {"api": "v1", "version": package_version()}


class TestSurfaces:
    def test_cli_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {package_version()}"

    def test_analysis_payload_meta(self, tmp_path, capsys):
        from repro.trace.io import write_csv
        from repro.trace.synthetic import block_trace

        csv = tmp_path / "t.csv"
        write_csv(block_trace(n_resources=4, n_slices=8, n_blocks_time=2, seed=1), csv)
        assert main(["analyze", str(csv), "--slices", "8", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["meta"] == {"api": "v1", "version": package_version()}

    def test_sweep_batch_and_compare_payloads_carry_meta(self, tmp_path, capsys):
        from repro.batch import load_corpus, run_batch
        from repro.pipeline import AnalysisEngine, SweepRequest
        from repro.trace.io import write_csv
        from repro.trace.synthetic import block_trace

        trace = block_trace(n_resources=4, n_slices=8, n_blocks_time=2, seed=2)
        session = AnalysisEngine(trace, name="t")
        assert session.run_sweep(SweepRequest.from_query(ps=[0.5], slices=8))["meta"] == {
            "api": "v1", "version": package_version()
        }
        corpus_dir = tmp_path / "runs"
        corpus_dir.mkdir()
        write_csv(trace, corpus_dir / "t.csv")
        batch = run_batch(load_corpus(corpus_dir), slices=8).payload()
        assert batch["meta"] == {"api": "v1", "version": package_version()}
        assert main(["compare", str(corpus_dir / "t.csv"), str(corpus_dir / "t.csv"),
                     "--slices", "8", "--json"]) == 0
        compare = json.loads(capsys.readouterr().out)
        assert compare["meta"] == {"api": "v1", "version": package_version()}

    def test_health_endpoint_quotes_the_version(self):
        import threading
        import urllib.request

        from repro.pipeline import AnalysisEngine
        from repro.service import build_server
        from repro.trace.synthetic import block_trace

        trace = block_trace(n_resources=4, n_slices=8, n_blocks_time=2, seed=3)
        server = build_server({"t": AnalysisEngine(trace, name="t")}, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{server.server_address[1]}/v1/health"
            ) as rsp:
                health = json.loads(rsp.read().decode())
        finally:
            server.shutdown()
            server.server_close()
        assert health["version"] == package_version()
