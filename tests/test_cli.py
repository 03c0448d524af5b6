"""Tests for the command-line interface."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main


@pytest.fixture()
def small_trace_csv(tmp_path, capsys):
    """A scaled-down case-A trace CSV, stdout drained."""
    path = tmp_path / "small.csv"
    assert main([
        "simulate", "--case", "A", "--processes", "8", "--iterations", "3",
        "--platform-scale", "0.25", "--output", str(path),
    ]) == 0
    capsys.readouterr()
    return path


class TestParser:
    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "--output", "t.csv"])
        assert args.case == "A"
        assert args.output == "t.csv"
        assert args.platform_scale == 1.0

    def test_analyze_defaults(self):
        args = build_parser().parse_args(["analyze", "t.csv"])
        assert args.slices == 30
        assert args.parameter == 0.7
        assert args.operator == "mean"

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_case_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--case", "Z", "--output", "t.csv"])


class TestCommands:
    def test_simulate_then_analyze(self, tmp_path, capsys):
        trace_path = tmp_path / "case_a.csv"
        meta_path = tmp_path / "case_a.json"
        code = main([
            "simulate", "--case", "A", "--processes", "16", "--iterations", "6",
            "--platform-scale", "0.25",
            "--output", str(trace_path), "--metadata", str(meta_path),
        ])
        assert code == 0
        assert trace_path.exists()
        assert meta_path.exists()
        out = capsys.readouterr().out
        assert "wrote" in out

        svg_path = tmp_path / "overview.svg"
        code = main([
            "analyze", str(trace_path), "--slices", "20", "-p", "0.6",
            "--svg", str(svg_path), "--ascii",
        ])
        assert code == 0
        assert svg_path.exists()
        out = capsys.readouterr().out
        assert "Analysis report" in out
        assert "aggregates" in out

    def test_analyze_rejects_bad_parameter(self, tmp_path, capsys):
        trace_path = tmp_path / "t.csv"
        main([
            "simulate", "--case", "A", "--processes", "8", "--iterations", "2",
            "--platform-scale", "0.25", "--output", str(trace_path),
        ])
        capsys.readouterr()
        assert main(["analyze", str(trace_path), "-p", "1.5"]) == 2

    def test_analyze_sum_operator(self, tmp_path, capsys):
        trace_path = tmp_path / "t.csv"
        main([
            "simulate", "--case", "A", "--processes", "8", "--iterations", "3",
            "--platform-scale", "0.25", "--output", str(trace_path),
        ])
        capsys.readouterr()
        assert main(["analyze", str(trace_path), "--operator", "sum", "--slices", "12"]) == 0
        assert "Analysis report" in capsys.readouterr().out


class TestAnalyzeErrors:
    def test_missing_trace_file_is_a_clean_error(self, tmp_path, capsys):
        code = main(["analyze", str(tmp_path / "nope.csv")])
        captured = capsys.readouterr()
        assert code == 2
        assert "error: trace file not found" in captured.err
        assert "Traceback" not in captured.err

    def test_malformed_header_is_a_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("this,is,not,a\ntrace,file,0,1\n")
        code = main(["analyze", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert "error: cannot read trace" in captured.err
        assert "Traceback" not in captured.err

    def test_malformed_timestamps_are_a_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("resource_path,state,start,end\nm/r0,Running,zero,one\n")
        code = main(["analyze", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert "invalid timestamps" in captured.err

    def test_reversed_interval_is_a_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("resource_path,state,start,end\nm/r0,Running,5,2\n")
        code = main(["analyze", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert "error: cannot read trace" in captured.err
        assert "Traceback" not in captured.err

    def test_non_finite_timestamps_are_a_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("resource_path,state,start,end\nm/r0,Running,0,inf\n")
        code = main(["analyze", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert "Traceback" not in captured.err

    def test_empty_trace_file_is_a_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "empty.csv"
        bad.write_text("resource_path,state,start,end\n")
        code = main(["analyze", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert "error: cannot read trace" in captured.err

    def test_directory_is_a_clean_error(self, tmp_path, capsys):
        code = main(["analyze", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "is a directory" in captured.err

    def test_rejects_non_positive_slices(self, tmp_path, capsys):
        code = main(["analyze", str(tmp_path / "t.csv"), "--slices", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert "--slices must be at least 1" in captured.err

    def test_rejects_non_positive_jobs(self, tmp_path, capsys):
        code = main(["analyze", str(tmp_path / "t.csv"), "--jobs", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert "--jobs must be at least 1" in captured.err


class TestAnalyzeJson:
    def test_json_report_is_machine_readable(self, small_trace_csv, capsys):
        assert main(["analyze", str(small_trace_csv), "--json", "--slices", "12"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["schema"] == "repro.analysis/1"
        assert payload["params"]["slices"] == 12
        assert payload["partition"]["size"] >= 1
        assert len(payload["trace"]["digest"]) == 64
        assert "Analysis report" not in out

    def test_json_is_deterministic(self, small_trace_csv, capsys):
        assert main(["analyze", str(small_trace_csv), "--json", "--slices", "12"]) == 0
        first = capsys.readouterr().out
        assert main(["analyze", str(small_trace_csv), "--json", "--slices", "12"]) == 0
        assert capsys.readouterr().out == first

    def test_json_and_ascii_are_mutually_exclusive(self, small_trace_csv, capsys):
        assert main(["analyze", str(small_trace_csv), "--json", "--ascii"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_json_keeps_stdout_pure_with_svg(self, small_trace_csv, tmp_path, capsys):
        svg = tmp_path / "o.svg"
        assert main([
            "analyze", str(small_trace_csv), "--json", "--slices", "10", "--svg", str(svg),
        ]) == 0
        captured = capsys.readouterr()
        json.loads(captured.out)  # stdout is pure JSON
        assert "SVG overview written" in captured.err
        assert svg.exists()


class TestConvert:
    def test_convert_then_analyze_store_matches_csv(self, small_trace_csv, tmp_path, capsys):
        store = tmp_path / "small.rtz"
        assert main(["convert", str(small_trace_csv), str(store)]) == 0
        out = capsys.readouterr().out
        assert "digest" in out
        assert main(["analyze", str(small_trace_csv), "--slices", "12"]) == 0
        from_csv = capsys.readouterr().out
        assert main(["analyze", str(store), "--slices", "12"]) == 0
        from_store = capsys.readouterr().out
        assert from_store == from_csv

    @pytest.mark.parametrize("corpus_case", [None, "case_a", "case_c"])
    def test_analyze_json_on_csv_is_byte_identical_to_its_store(
        self, small_trace_csv, tmp_path, capsys, corpus_case
    ):
        # The CSV path discretizes the parsed columns, the store path its
        # chunk columns: the payloads, digest included, must be equal bytes.
        csv_path = small_trace_csv
        if corpus_case is not None:
            csv_path = Path(__file__).parent / "data" / "corpus" / f"{corpus_case}.csv"
        store = tmp_path / "t.rtz"
        assert main(["convert", str(csv_path), str(store)]) == 0
        capsys.readouterr()
        outputs = []
        for target in (csv_path, store):
            assert main(["analyze", str(target), "--slices", "24", "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])

    def test_convert_prebuilds_models(self, small_trace_csv, tmp_path, capsys):
        store = tmp_path / "small.rtz"
        assert main([
            "convert", str(small_trace_csv), str(store), "--model-slices", "10,20",
        ]) == 0
        assert (store / "models" / "slices-10" / "model.json").is_file()
        assert (store / "models" / "slices-20" / "model.json").is_file()

    def test_convert_rejects_bad_model_slices(self, small_trace_csv, tmp_path, capsys):
        assert main([
            "convert", str(small_trace_csv), str(tmp_path / "s.rtz"),
            "--model-slices", "ten",
        ]) == 2
        assert "invalid --model-slices" in capsys.readouterr().err

    def test_convert_missing_input_is_a_clean_error(self, tmp_path, capsys):
        assert main(["convert", str(tmp_path / "nope.csv"), str(tmp_path / "s.rtz")]) == 2
        assert "not found" in capsys.readouterr().err


class TestOutputPathErrors:
    def test_simulate_into_missing_directory(self, tmp_path, capsys):
        code = main([
            "simulate", "--case", "A", "--processes", "8", "--iterations", "2",
            "--platform-scale", "0.25",
            "--output", str(tmp_path / "no" / "such" / "dir" / "t.csv"),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "error: cannot write output" in captured.err
        assert "Traceback" not in captured.err

    def test_analyze_svg_into_missing_directory(self, small_trace_csv, tmp_path, capsys):
        code = main([
            "analyze", str(small_trace_csv), "--slices", "10",
            "--svg", str(tmp_path / "missing" / "overview.svg"),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "error: cannot write SVG" in captured.err
        assert "Traceback" not in captured.err

    def test_simulate_metadata_into_missing_directory(self, tmp_path, capsys):
        code = main([
            "simulate", "--case", "A", "--processes", "8", "--iterations", "2",
            "--platform-scale", "0.25", "--output", str(tmp_path / "t.csv"),
            "--metadata", str(tmp_path / "missing" / "meta.json"),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "error: cannot write output" in captured.err

    def test_convert_refuses_occupied_directory(self, small_trace_csv, tmp_path, capsys):
        occupied = tmp_path / "occupied"
        occupied.mkdir()
        (occupied / "keep.txt").write_text("keep")
        assert main(["convert", str(small_trace_csv), str(occupied)]) == 2
        assert "cannot write store" in capsys.readouterr().err
        assert (occupied / "keep.txt").exists()


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "a.rtz"])
        assert args.traces == ["a.rtz"]
        assert args.host == "127.0.0.1"
        assert args.port == 8000

    def test_serve_duplicate_names_rejected(self, small_trace_csv, capsys):
        assert main(["serve", str(small_trace_csv), str(small_trace_csv)]) == 2
        assert "duplicate trace name" in capsys.readouterr().err

    def test_serve_missing_trace_is_a_clean_error(self, tmp_path, capsys):
        assert main(["serve", str(tmp_path / "nope.csv")]) == 2
        assert "not found" in capsys.readouterr().err


class TestAnalyzeJobs:
    def test_parallel_analyze_matches_serial(self, tmp_path, capsys):
        trace_path = tmp_path / "t.csv"
        main([
            "simulate", "--case", "A", "--processes", "8", "--iterations", "3",
            "--platform-scale", "0.25", "--output", str(trace_path),
        ])
        capsys.readouterr()
        assert main(["analyze", str(trace_path), "--slices", "12"]) == 0
        serial_report = capsys.readouterr().out
        assert main(["analyze", str(trace_path), "--slices", "12", "--jobs", "2"]) == 0
        parallel_report = capsys.readouterr().out
        assert parallel_report == serial_report


class TestStream:
    def _grow(self, source, full_lines, upto):
        source.write_text("\n".join(full_lines[:upto]) + "\n")

    def test_create_append_unchanged_cycle(self, small_trace_csv, tmp_path, capsys):
        lines = small_trace_csv.read_text().splitlines()
        live = tmp_path / "live.csv"
        store = tmp_path / "live.rtz"
        # Keep every state (MPI_Finalize rows sit at the very end) in the
        # prefix: a late new state changes the store dimensions, which is a
        # rebuild, not an append.
        cut = len(lines) - 4
        self._grow(live, lines, cut)
        assert main(["stream", str(live), str(store)]) == 0
        assert "created" in capsys.readouterr().out
        self._grow(live, lines, len(lines))
        assert main(["stream", str(live), str(store)]) == 0
        assert "appended" in capsys.readouterr().out
        assert main(["stream", str(live), str(store)]) == 0
        assert "unchanged" in capsys.readouterr().out
        # The streamed store is content-identical to a one-shot convert.
        assert main(["convert", str(small_trace_csv), str(tmp_path / "ref.rtz")]) == 0
        capsys.readouterr()
        streamed = json.loads((store / "manifest.json").read_text())
        reference = json.loads((tmp_path / "ref.rtz" / "manifest.json").read_text())
        assert streamed["digest"] == reference["digest"]
        assert streamed["generation"] == 1

    def test_follow_with_max_polls_terminates(self, small_trace_csv, tmp_path, capsys):
        store = tmp_path / "live.rtz"
        code = main([
            "stream", str(small_trace_csv), str(store),
            "--follow", "--poll", "0.01", "--max-polls", "3",
        ])
        assert code == 0
        assert "created" in capsys.readouterr().out
        assert (store / "manifest.json").exists()

    def test_missing_source_is_a_clean_error(self, tmp_path, capsys):
        assert main(["stream", str(tmp_path / "nope.csv"), str(tmp_path / "s.rtz")]) == 2
        captured = capsys.readouterr()
        assert "error: cannot read trace" in captured.err
        assert "Traceback" not in captured.err

    def test_bad_options_rejected(self, small_trace_csv, tmp_path, capsys):
        store = str(tmp_path / "s.rtz")
        assert main(["stream", str(small_trace_csv), store, "--chunk-rows", "0"]) == 2
        assert main(["stream", str(small_trace_csv), store, "--follow", "--poll", "0"]) == 2
        assert main(["stream", str(small_trace_csv), store, "--max-polls", "0"]) == 2
        capsys.readouterr()

    def test_paje_source_streams_via_rebuild(self, small_trace_csv, tmp_path, capsys):
        from repro.trace.io import read_csv, write_paje

        trace = read_csv(small_trace_csv)
        paje = tmp_path / "live.paje"
        write_paje(trace, paje)
        store = tmp_path / "live.rtz"
        assert main(["stream", str(paje), str(store)]) == 0
        assert "created" in capsys.readouterr().out
        assert json.loads((store / "manifest.json").read_text())["n_intervals"] == trace.n_intervals


class TestAnalyzeWindow:
    def test_window_last_k_json(self, small_trace_csv, capsys):
        assert main([
            "analyze", str(small_trace_csv), "--slices", "10", "--json",
            "--window", "last:3",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["window"]["slices"] == [7, 10]
        assert payload["window"]["stream_slices"] == 10
        assert payload["model"]["n_slices"] == 3
        assert payload["params"]["last_k_slices"] == 3

    def test_window_time_span_json(self, small_trace_csv, capsys):
        assert main([
            "analyze", str(small_trace_csv), "--slices", "10", "--json",
            "--window", "last:10",
        ]) == 0
        whole = json.loads(capsys.readouterr().out)
        t0 = whole["trace"]["start"]
        t1 = whole["trace"]["end"]
        assert main([
            "analyze", str(small_trace_csv), "--slices", "10", "--json",
            "--window", f"{t0}:{t1}",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["window"]["slices"] == [0, 10]

    def test_window_text_report(self, small_trace_csv, capsys):
        assert main([
            "analyze", str(small_trace_csv), "--slices", "10", "--window", "last:2",
        ]) == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_window_matches_served_store_at_generation_zero(self, small_trace_csv, tmp_path, capsys):
        import threading
        import urllib.request

        from repro.pipeline import AnalysisEngine
        from repro.service import build_server
        from repro.store import open_store

        store_path = tmp_path / "t.rtz"
        assert main(["convert", str(small_trace_csv), str(store_path)]) == 0
        capsys.readouterr()
        assert main([
            "analyze", str(store_path), "--json", "--slices", "10",
            "--window", "last:3",
        ]) == 0
        cli_output = capsys.readouterr().out

        server = build_server(
            {"t": AnalysisEngine(open_store(store_path), name="t")}, port=0
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            request = urllib.request.Request(
                f"http://127.0.0.1:{server.server_address[1]}/v1/analyze",
                data=json.dumps({"slices": 10, "last_k_slices": 3}).encode(),
                method="POST",
            )
            with urllib.request.urlopen(request) as rsp:
                body = rsp.read().decode()
        finally:
            server.shutdown()
            server.server_close()
        assert body == cli_output

    def test_invalid_window_specs_exit_2(self, small_trace_csv, capsys):
        for spec in ["bad", "last:0", "last:x", "5:1", "a:b"]:
            assert main([
                "analyze", str(small_trace_csv), "--slices", "10", "--window", spec,
            ]) == 2
            assert "error" in capsys.readouterr().err

    def test_window_outside_span_exits_2(self, small_trace_csv, capsys):
        assert main([
            "analyze", str(small_trace_csv), "--slices", "10",
            "--window", "1e9:2e9",
        ]) == 2
        assert "does not overlap" in capsys.readouterr().err


class TestBatchCommand:
    @pytest.fixture()
    def corpus_dir(self, tmp_path, capsys):
        """Two small simulated traces (one converted to a store) as a corpus."""
        root = tmp_path / "corpus"
        root.mkdir()
        csv_a = tmp_path / "a.csv"
        assert main([
            "simulate", "--case", "A", "--processes", "8", "--iterations", "3",
            "--platform-scale", "0.25", "--output", str(csv_a),
        ]) == 0
        assert main(["convert", str(csv_a), str(root / "a.rtz")]) == 0
        assert main([
            "simulate", "--case", "B", "--processes", "8", "--iterations", "2",
            "--platform-scale", "0.1", "--output", str(root / "b.csv"),
        ]) == 0
        capsys.readouterr()
        return root

    def test_batch_prints_summary_table(self, corpus_dir, capsys):
        assert main(["batch", str(corpus_dir), "--slices", "12"]) == 0
        out = capsys.readouterr().out
        assert "Corpus batch report: 2 of 2" in out
        assert "heterogeneity" in out
        assert "a" in out and "b" in out

    def test_batch_json_payload(self, corpus_dir, capsys):
        assert main(["batch", str(corpus_dir), "--slices", "12", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.batch/1"
        assert sorted(payload["results"]) == ["a", "b"]

    def test_batch_output_files_match_analyze_json(self, corpus_dir, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        assert main([
            "batch", str(corpus_dir), "--slices", "12", "--output", str(out_dir),
        ]) == 0
        capsys.readouterr()
        assert (out_dir / "batch.json").exists()
        assert main([
            "analyze", str(corpus_dir / "a.rtz"), "--slices", "12", "--json",
        ]) == 0
        direct = capsys.readouterr().out
        assert (out_dir / "a.analysis.json").read_text() == direct

    def test_batch_jobs_identical_output(self, corpus_dir, capsys):
        assert main(["batch", str(corpus_dir), "--slices", "12", "--json"]) == 0
        serial = capsys.readouterr().out
        assert main([
            "batch", str(corpus_dir), "--slices", "12", "--json", "--jobs", "2",
        ]) == 0
        assert capsys.readouterr().out == serial

    def test_batch_write_manifest_freezes_digests(self, corpus_dir, capsys):
        assert main(["batch", str(corpus_dir), "--write-manifest"]) == 0
        assert "froze 2 trace(s)" in capsys.readouterr().out
        manifest = json.loads((corpus_dir / "corpus.json").read_text())
        assert all(len(t["digest"]) == 64 for t in manifest["traces"])

    def test_batch_failing_trace_exits_2_with_path(self, corpus_dir, capsys):
        bad = corpus_dir / "broken.csv"
        bad.write_text("resource_path,state,start,end\nm/r0,Running,zero,one\n")
        code = main(["batch", str(corpus_dir), "--slices", "12"])
        captured = capsys.readouterr()
        assert code == 2
        assert "broken.csv" in captured.err
        assert "Traceback" not in captured.err
        # The healthy traces were still analyzed and reported.
        assert "Corpus batch report: 2 of 3" in captured.out

    def test_batch_empty_corpus_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["batch", str(empty)]) == 2
        assert "cannot load corpus" in capsys.readouterr().err

    def test_batch_parameter_validation(self, corpus_dir, capsys):
        assert main(["batch", str(corpus_dir), "-p", "1.5"]) == 2
        assert main(["batch", str(corpus_dir), "--slices", "0"]) == 2
        assert main(["batch", str(corpus_dir), "--jobs", "0"]) == 2
        capsys.readouterr()

    def test_batch_worker_pool_crash_exits_2_with_path(self, corpus_dir, capsys, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        from repro.batch import runner as runner_module

        class CrashingFuture:
            def result(self):
                raise BrokenProcessPool("worker died")

        class CrashingPool:
            def __init__(self, *args, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                return CrashingFuture()

        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", CrashingPool)
        code = main(["batch", str(corpus_dir), "--slices", "12", "--jobs", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert "a.rtz" in captured.err  # the in-flight trace path is named
        assert "Traceback" not in captured.err


class TestCompareCommand:
    def test_compare_text_report(self, small_trace_csv, tmp_path, capsys):
        other = tmp_path / "other.csv"
        assert main([
            "simulate", "--case", "A", "--processes", "8", "--iterations", "4",
            "--platform-scale", "0.25", "--output", str(other),
        ]) == 0
        capsys.readouterr()
        assert main([
            "compare", str(small_trace_csv), str(other), "--slices", "12",
        ]) == 0
        out = capsys.readouterr().out
        assert "Comparison report" in out
        assert "partition diff" in out

    def test_compare_json_is_deterministic(self, small_trace_csv, tmp_path, capsys):
        store = tmp_path / "s.rtz"
        assert main(["convert", str(small_trace_csv), str(store)]) == 0
        capsys.readouterr()
        args = ["compare", str(small_trace_csv), str(store), "--slices", "12", "--json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert payload["schema"] == "repro.compare/1"
        # Same content through CSV and store: digests match, diff is empty.
        assert payload["a"]["trace"]["digest"] == payload["b"]["trace"]["digest"]
        assert payload["partition_diff"]["jaccard"] == 1.0

    def test_compare_missing_trace_exits_2(self, small_trace_csv, tmp_path, capsys):
        assert main([
            "compare", str(small_trace_csv), str(tmp_path / "nope.csv"),
        ]) == 2
        assert "not found" in capsys.readouterr().err

    def test_compare_malformed_trace_exits_2(self, small_trace_csv, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("resource_path,state,start,end\nm/r0,Running,zero,one\n")
        assert main(["compare", str(small_trace_csv), str(bad)]) == 2
        err = capsys.readouterr().err
        assert "cannot read trace" in err and "Traceback" not in err

    def test_compare_parameter_validation(self, small_trace_csv, capsys):
        assert main([
            "compare", str(small_trace_csv), str(small_trace_csv), "-p", "2.0",
        ]) == 2
        assert main([
            "compare", str(small_trace_csv), str(small_trace_csv), "--slices", "0",
        ]) == 2
        capsys.readouterr()


class TestAnalyzeJobsErrorPropagation:
    def test_worker_crash_exits_2_naming_the_trace(self, small_trace_csv, capsys, monkeypatch):
        """Regression: a dead pool worker must not dump a multiprocessing
        traceback — the CLI reports the failing trace and exits 2."""
        from concurrent.futures.process import BrokenProcessPool

        from repro.core import spatiotemporal as spatiotemporal_module

        class CrashingFuture:
            def result(self):
                raise BrokenProcessPool("worker died")

        class CrashingPool:
            def __init__(self, *args, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                return CrashingFuture()

        monkeypatch.setattr(spatiotemporal_module, "ProcessPoolExecutor", CrashingPool)
        code = main(["analyze", str(small_trace_csv), "--slices", "10", "--jobs", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert str(small_trace_csv) in captured.err
        assert "parallel aggregation" in captured.err
        assert "Traceback" not in captured.err

    def test_serial_analyze_unaffected_by_the_guard(self, small_trace_csv, capsys):
        assert main(["analyze", str(small_trace_csv), "--slices", "10", "--jobs", "1"]) == 0
        assert "Analysis report" in capsys.readouterr().out


class TestServeCorpusOptions:
    def test_serve_requires_traces_or_corpus(self, capsys):
        assert main(["serve"]) == 2
        assert "nothing to serve" in capsys.readouterr().err

    def test_serve_rejects_bad_max_sessions(self, tmp_path, capsys):
        assert main(["serve", "--corpus", str(tmp_path), "--max-sessions", "0"]) == 2
        assert "--max-sessions" in capsys.readouterr().err

    def test_serve_missing_corpus_exits_2(self, tmp_path, capsys):
        assert main(["serve", "--corpus", str(tmp_path / "nope")]) == 2
        assert "cannot load corpus" in capsys.readouterr().err


class TestAnalyzeTraceOut:
    def test_trace_out_writes_chrome_profile(self, small_trace_csv, tmp_path, capsys):
        profile_path = tmp_path / "profile.json"
        assert main([
            "analyze", str(small_trace_csv), "--slices", "10",
            "--trace-out", str(profile_path),
        ]) == 0
        captured = capsys.readouterr()
        assert "Analysis report" in captured.out
        assert "Chrome trace profile written" in captured.err
        profile = json.loads(profile_path.read_text())
        assert profile["displayTimeUnit"] == "ms"
        assert profile["otherData"]["producer"] == "repro.obs"
        events = profile["traceEvents"]
        assert all(event["ph"] == "X" for event in events)
        names = [event["name"] for event in events]
        assert names[0] == "analyze"
        assert "analyze.pipeline" in names
        # The recorded spans must explain (nearly) all of the command's wall
        # time — untimed gaps would make the profile lie about hot spots.
        assert profile["otherData"]["coverage"] >= 0.90
        rid = profile["otherData"]["request_id"]
        assert all(event["args"]["request_id"] == rid for event in events)

    def test_trace_out_unwritable_path_is_a_clean_error(self, small_trace_csv, capsys):
        assert main([
            "analyze", str(small_trace_csv), "--slices", "10",
            "--trace-out", "/nonexistent-dir/profile.json",
        ]) == 2
        assert "cannot write trace profile" in capsys.readouterr().err

    def test_no_trace_out_records_no_trace(self, small_trace_csv, capsys):
        from repro.obs.tracing import current_trace
        assert main(["analyze", str(small_trace_csv), "--slices", "10"]) == 0
        assert current_trace() is None
        capsys.readouterr()


class TestWatchCommand:
    @pytest.fixture()
    def store_path(self, tmp_path):
        from repro.store import save_store
        from repro.trace.synthetic import monitoring_scenario

        path = tmp_path / "demo.rtz"
        save_store(
            monitoring_scenario("clean", n_resources=8, n_slices=20,
                                injection_slice=10),
            path,
        )
        return path

    def test_watch_json_lines_match_the_sse_serializer(
        self, store_path, capsys
    ):
        assert main([
            "watch", str(store_path), "--json",
            "--poll", "0.01", "--max-polls", "2",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines  # the pinned baseline at least
        from repro.watch import WatchEvent, serialize_event

        for line in lines:
            payload = json.loads(line)
            rebuilt = WatchEvent(
                type=payload["type"], trace=payload["trace"],
                sequence=payload["sequence"],
                generation=payload["generation"], data=payload["data"],
            )
            # Byte-identity with the SSE route's data: frames, by
            # construction: both transports print serialize_event.
            assert serialize_event(rebuilt) == line

    def test_watch_human_output(self, store_path, capsys):
        assert main([
            "watch", str(store_path), "--poll", "0.01", "--max-polls", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "[demo] g0 baseline" in out

    def test_watch_rejects_span_windows(self, store_path, capsys):
        assert main(["watch", str(store_path), "--window", "0:5"]) == 2
        assert "must be 'last:K'" in capsys.readouterr().err

    def test_watch_rejects_bad_poll_and_duplicates(self, store_path, capsys):
        assert main(["watch", str(store_path), "--poll", "0"]) == 2
        capsys.readouterr()
        assert main(["watch", str(store_path), str(store_path)]) == 2
        assert "duplicate watch names" in capsys.readouterr().err

    def test_watch_missing_store_is_a_clean_error(self, tmp_path, capsys):
        assert main([
            "watch", str(tmp_path / "absent.rtz"), "--max-polls", "1",
        ]) == 2
        assert "error" in capsys.readouterr().err
