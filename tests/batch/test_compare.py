"""Tests for repro.batch.compare (diffs, deltas, rankings, reports)."""

from __future__ import annotations

import pytest

from repro.batch import (
    analysis_params,
    analyze_entry,
    batch_report,
    batch_summary_rows,
    compare_payload,
    compare_report,
    entry_for_path,
    heterogeneity_score,
    run_batch,
    discover_corpus,
)
from repro.pipeline.payloads import serialize_payload
from repro.trace.io import write_csv
from repro.trace.synthetic import block_trace, phased_trace, random_trace

PARAMS = analysis_params(0.7, 10, "mean", 0.1)


def _analyzed(tmp_path, name, trace, slices=10):
    path = tmp_path / f"{name}.csv"
    write_csv(trace, path)
    payload, model = analyze_entry(entry_for_path(path), p=0.7, slices=slices)
    return name, payload, model


@pytest.fixture()
def pair(tmp_path):
    """Two grid-compatible traces: a calm one and a perturbed twin."""
    calm = phased_trace(
        n_resources=8,
        phase_durations=(2.0, 6.0, 2.0),
        phase_states=("init", "compute", "finalize"),
    )
    noisy = phased_trace(
        n_resources=8,
        phase_durations=(2.0, 6.0, 2.0),
        phase_states=("init", "compute", "finalize"),
        perturbed_resources=(2, 3),
        perturbation_window=(4.0, 5.0),
        perturbation_state="MPI_Wait",
    )
    a = _analyzed(tmp_path, "calm", calm)
    b = _analyzed(tmp_path, "noisy", noisy)
    return a, b


class TestComparePayload:
    def test_schema_and_identities(self, pair):
        (na, pa, ma), (nb, pb, mb) = pair
        payload = compare_payload(na, pa, ma, nb, pb, mb, PARAMS)
        assert payload["schema"] == "repro.compare/1"
        assert payload["a"]["name"] == "calm"
        assert payload["b"]["name"] == "noisy"
        assert payload["a"]["trace"]["digest"] != payload["b"]["trace"]["digest"]
        assert payload["params"] == PARAMS

    def test_self_compare_is_a_perfect_match(self, pair):
        (na, pa, ma), _ = pair
        payload = compare_payload(na, pa, ma, na, pa, ma, PARAMS)
        diff = payload["partition_diff"]
        assert diff["n_only_a"] == diff["n_only_b"] == 0
        assert diff["jaccard"] == 1.0
        for key, entry in payload["summary_delta"].items():
            assert entry["delta"] == 0, key
        assert all(row["delta"] == 0.0 for row in payload["deviation_delta"])

    def test_partition_diff_detects_structural_change(self, pair):
        (na, pa, ma), (nb, pb, mb) = pair
        diff = compare_payload(na, pa, ma, nb, pb, mb, PARAMS)["partition_diff"]
        assert diff["n_only_a"] + diff["n_only_b"] > 0
        assert 0.0 <= diff["jaccard"] < 1.0
        assert diff["n_matched"] == len(diff["matched"])
        assert diff["n_only_a"] == len(diff["only_a"])
        assert diff["n_only_b"] == len(diff["only_b"])

    def test_deviation_delta_flags_perturbed_resources(self, pair):
        (na, pa, ma), (nb, pb, mb) = pair
        payload = compare_payload(na, pa, ma, nb, pb, mb, PARAMS)
        rows = payload["deviation_delta"]
        assert rows is not None and len(rows) == 8
        # The perturbed twin (side b) is more blocked on its MPI_Wait window:
        # the largest-magnitude deltas are negative (a - b < 0) and belong to
        # the perturbed resources.
        perturbed = {ma.hierarchy.leaf_names[i] for i in (2, 3)}
        top = {row["resource"] for row in rows[:2]}
        assert top == perturbed
        assert all(row["delta"] < 0 for row in rows[:2])

    def test_incompatible_grids_skip_deviation_delta(self, tmp_path):
        a = _analyzed(tmp_path, "small", random_trace(n_resources=4, n_slices=6, seed=0))
        b = _analyzed(tmp_path, "large", random_trace(n_resources=8, n_slices=6, seed=0))
        payload = compare_payload(*a, *b, PARAMS)
        assert payload["comparable"]["same_resources"] is False
        assert payload["deviation_delta"] is None

    def test_summary_delta_sides_match_partitions(self, pair):
        (na, pa, ma), (nb, pb, mb) = pair
        summary = compare_payload(na, pa, ma, nb, pb, mb, PARAMS)["summary_delta"]
        assert summary["size"]["a"] == pa["partition"]["size"]
        assert summary["size"]["b"] == pb["partition"]["size"]
        assert summary["pic"]["delta"] == pytest.approx(
            pa["partition"]["pic"] - pb["partition"]["pic"]
        )

    def test_serializes_canonically(self, pair):
        (na, pa, ma), (nb, pb, mb) = pair
        text = serialize_payload(compare_payload(na, pa, ma, nb, pb, mb, PARAMS))
        import json

        assert serialize_payload(json.loads(text)) == text


class TestHeterogeneity:
    def test_score_bounds(self, tmp_path):
        _, payload, model = _analyzed(
            tmp_path, "t", random_trace(n_resources=8, n_slices=10, seed=3)
        )
        score = heterogeneity_score(payload)
        assert 0.0 < score <= 1.0

    def test_perturbed_trace_scores_higher(self, pair):
        """A localized perturbation fragments the overview: higher score."""
        (_, calm, _), (_, noisy, _) = pair
        assert heterogeneity_score(noisy) > heterogeneity_score(calm)

    def test_summary_rows_rank_most_heterogeneous_first(self, pair):
        (_, calm, _), (_, noisy, _) = pair
        rows = batch_summary_rows({"calm": calm, "noisy": noisy})
        assert rows[0]["name"] == "noisy"
        assert rows[0]["rank"] == 1
        assert rows[1]["name"] == "calm"

    def test_tied_scores_rank_by_name(self, tmp_path):
        _, payload, _ = _analyzed(tmp_path, "t", block_trace(n_resources=8, n_slices=12, seed=0), slices=12)
        rows = batch_summary_rows({"zed": payload, "abc": payload})
        assert [row["name"] for row in rows] == ["abc", "zed"]


class TestReports:
    def test_compare_report_mentions_both_traces(self, pair):
        (na, pa, ma), (nb, pb, mb) = pair
        report = compare_report(compare_payload(na, pa, ma, nb, pb, mb, PARAMS))
        assert "calm" in report and "noisy" in report
        assert "partition diff" in report
        assert "deviation delta" in report

    def test_compare_report_incompatible_grids(self, tmp_path):
        a = _analyzed(tmp_path, "small", random_trace(n_resources=4, n_slices=6, seed=0))
        b = _analyzed(tmp_path, "large", random_trace(n_resources=8, n_slices=6, seed=0))
        report = compare_report(compare_payload(*a, *b, PARAMS))
        assert "not grid-compatible" in report

    def test_batch_report_table(self, tmp_path):
        for seed in range(3):
            write_csv(
                random_trace(n_resources=4, n_slices=8, seed=seed),
                tmp_path / f"t{seed}.csv",
            )
        result = run_batch(discover_corpus(tmp_path), slices=8)
        report = batch_report(result.payload())
        assert "Corpus batch report: 3 of 3" in report
        assert "rank" in report and "heterogeneity" in report
        assert "t0" in report and "t2" in report

    def test_batch_report_lists_failures(self, tmp_path):
        for seed in range(2):
            write_csv(
                random_trace(n_resources=4, n_slices=8, seed=seed),
                tmp_path / f"t{seed}.csv",
            )
        corpus = discover_corpus(tmp_path)
        (tmp_path / "t1.csv").unlink()
        report = batch_report(run_batch(corpus, slices=8).payload())
        assert "FAILED t1" in report
