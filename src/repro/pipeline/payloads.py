"""The single producer of every machine-readable payload.

``repro analyze --json`` / ``POST /v1/analyze``, ``POST /v1/sweep``, ``repro batch
--json`` / ``POST /v1/batch`` and ``repro compare --json`` / ``POST /v1/compare``
all assemble their JSON here — byte-identity between the CLI and the service
holds **by construction**, not by diffing.  Canonical form: ``indent=2``,
``sort_keys=True``, floats as Python ``repr`` (exact round-trip), no trailing
whitespace; callers append a single final newline when writing to a stream.

Every payload carries a ``meta`` block with the package version, so archived
reports name the code that produced them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..analysis.anomaly import BLOCKING_STATES, AnomalyWindow, detect_deviating_cells, deviation_matrix
from ..analysis.phases import Phase, detect_phases
from ..core.microscopic import MicroscopicModel
from ..core.parameters import QualityPoint
from ..core.partition import Partition
from ..core.spatiotemporal import SpatiotemporalAggregator
from ..obs.tracing import span

__all__ = [
    "API_VERSION",
    "ANALYSIS_SCHEMA",
    "SWEEP_SCHEMA",
    "COMPARE_SCHEMA",
    "BATCH_SCHEMA",
    "AnalysisResult",
    "package_version",
    "meta_section",
    "run_analysis",
    "trace_summary",
    "analysis_payload",
    "sweep_payload",
    "heterogeneity_score",
    "compare_payload",
    "batch_summary_rows",
    "batch_payload",
    "serialize_payload",
]

#: Version prefix of the service's HTTP API (``/v1/...`` routes); quoted in
#: every payload ``meta`` block and by ``GET /v1/health``.  Bump only on an
#: incompatible route/body redesign — additive changes stay within ``v1``.
API_VERSION = "v1"

ANALYSIS_SCHEMA = "repro.analysis/1"
SWEEP_SCHEMA = "repro.sweep/1"
COMPARE_SCHEMA = "repro.compare/1"
BATCH_SCHEMA = "repro.batch/1"

#: Partition metrics echoed side by side in the comparison summary delta.
SUMMARY_KEYS = (
    "size",
    "gain",
    "loss",
    "pic",
    "complexity_reduction",
    "normalized_loss",
)

_VERSION: Optional[str] = None


def package_version() -> str:
    """The package version string (metadata when installed, else the source).

    Sourced from the installed distribution's metadata when available; falls
    back to ``repro.__version__`` for checkouts running off ``PYTHONPATH``.
    A unit test pins the two spellings equal, so every environment reports
    the same version.
    """
    global _VERSION
    if _VERSION is None:
        try:
            from importlib import metadata

            _VERSION = metadata.version("repro-spatiotemporal-aggregation")
        except Exception:
            from .. import __version__

            _VERSION = __version__
    return _VERSION


def meta_section() -> Dict[str, Any]:
    """The ``meta`` block stamped into every payload."""
    return {"api": API_VERSION, "version": package_version()}


@dataclass(frozen=True)
class AnalysisResult:
    """Everything one analysis run produces, before serialization."""

    partition: Partition
    phases: "Sequence[Phase]"
    anomalies: "Sequence[AnomalyWindow]"


def run_analysis(
    model: MicroscopicModel,
    p: float,
    aggregator: "SpatiotemporalAggregator | None" = None,
    operator: "str | None" = None,
    anomaly_threshold: float = 0.1,
    jobs: "int | None" = None,
) -> AnalysisResult:
    """The analysis steps shared by every frontend.

    Aggregation, phase detection and anomaly detection — exactly the steps of
    ``repro analyze`` — so every consumer of the JSON payload sees the same
    results for the same model and parameters.
    """
    if aggregator is None:
        aggregator = SpatiotemporalAggregator(model, operator=operator, jobs=jobs)
    with span("stats.tables"):
        aggregator.build_tables(jobs=jobs)
    with span("dp.sweep", p=p):
        tables = aggregator.compute_tables(p, jobs=jobs)
    with span("dp.recover"):
        partition = aggregator.partition(tables, p)
    with span("phases.detect"):
        phases = detect_phases(partition, model)
    with span("anomalies.detect", threshold=anomaly_threshold):
        anomalies = detect_deviating_cells(model, threshold=anomaly_threshold)
    return AnalysisResult(partition=partition, phases=phases, anomalies=anomalies)


def trace_summary(
    digest: str,
    n_intervals: int,
    n_resources: int,
    n_states: int,
    start: float,
    end: float,
    metadata: Mapping[str, Any],
    generation: int = 0,
) -> Dict[str, Any]:
    """The ``trace`` section of every payload (store- and CSV-backed alike).

    ``generation`` is the store's append counter (0 for CSV and freshly
    converted stores) so a client can tell which content snapshot an analysis
    describes when the trace grows while being served.
    """
    return {
        "digest": digest,
        "generation": int(generation),
        "n_intervals": int(n_intervals),
        "n_events": 2 * int(n_intervals),
        "n_resources": int(n_resources),
        "n_states": int(n_states),
        "start": float(start),
        "end": float(end),
        "duration": float(end) - float(start),
        # JSON-normalized (tuples become lists, keys become strings) so a
        # memory-backed session and its saved store serialize identically.
        "metadata": json.loads(json.dumps(dict(metadata), default=str)),
    }


def _aggregate_entry(partition: Partition, index: int) -> Dict[str, Any]:
    aggregate = partition.aggregates[index]
    edges = partition.model.slicing.edges
    return {
        "node": aggregate.node.full_name,
        "depth": aggregate.node.depth,
        "leaf_start": aggregate.node.leaf_start,
        "leaf_end": aggregate.node.leaf_end,
        "slice_start": aggregate.i,
        "slice_end": aggregate.j,
        "start_time": float(edges[aggregate.i]),
        "end_time": float(edges[aggregate.j + 1]),
    }


def analysis_payload(
    trace: Mapping[str, Any],
    result: AnalysisResult,
    params: Mapping[str, Any],
    window: "Mapping[str, Any] | None" = None,
) -> Dict[str, Any]:
    """Assemble the machine-readable overview report.

    Parameters
    ----------
    trace:
        Output of :func:`trace_summary`.
    result:
        Output of :func:`run_analysis`.
    params:
        The query parameters (``p``, ``slices``, ``operator``,
        ``anomaly_threshold``, window echo) echoed back verbatim.
    window:
        For windowed queries, the resolved window description (slice range in
        the streaming model's axis plus absolute times); omitted from the
        payload when ``None`` so whole-trace payloads keep their exact
        pre-streaming byte layout.
    """
    partition = result.partition
    model = partition.model
    payload_window = {} if window is None else {"window": dict(window)}
    return {
        "schema": ANALYSIS_SCHEMA,
        "meta": meta_section(),
        "trace": dict(trace),
        "params": dict(params),
        **payload_window,
        "model": {
            "n_resources": model.n_resources,
            "n_slices": model.n_slices,
            "n_states": model.n_states,
            "states": list(model.states.names),
        },
        "partition": {
            "size": partition.size,
            "gain": partition.gain(),
            "loss": partition.loss(),
            "pic": partition.pic(),
            "complexity_reduction": partition.complexity_reduction(),
            "normalized_loss": partition.normalized_loss(),
            "aggregates": [
                _aggregate_entry(partition, index)
                for index in range(partition.size)
            ],
        },
        "phases": [
            {
                "start_slice": phase.start_slice,
                "end_slice": phase.end_slice,
                "start_time": phase.start_time,
                "end_time": phase.end_time,
                "dominant_state": phase.dominant_state,
                "state_shares": dict(phase.state_shares),
            }
            for phase in result.phases
        ],
        "anomalies": [
            {
                "start_slice": anomaly.start_slice,
                "end_slice": anomaly.end_slice,
                "start_time": anomaly.start_time,
                "end_time": anomaly.end_time,
                "score": anomaly.score,
                "resources": list(anomaly.resources),
            }
            for anomaly in result.anomalies
        ],
    }


def sweep_payload(
    trace: Mapping[str, Any],
    params: Mapping[str, Any],
    significant: "Sequence[float] | None",
    points: "Sequence[QualityPoint]",
    window: "Mapping[str, Any] | None" = None,
) -> Dict[str, Any]:
    """Assemble the multi-``p`` sweep payload (``POST /v1/sweep``)."""
    payload: Dict[str, Any] = {
        "schema": SWEEP_SCHEMA,
        "meta": meta_section(),
        "trace": dict(trace),
        "params": dict(params),
        "significant": list(significant) if significant is not None else None,
        "points": [
            {
                "p": point.p,
                "size": point.size,
                "gain": point.gain,
                "loss": point.loss,
                "pic": point.pic,
            }
            for point in points
        ],
    }
    if window is not None:
        payload["window"] = dict(window)
    return payload


# --------------------------------------------------------------------------- #
# Comparison payload
# --------------------------------------------------------------------------- #
def heterogeneity_score(payload: Mapping[str, Any]) -> float:
    """Aggregates per microscopic cell of one analysis payload, in [0, 1].

    ``size / (n_resources * n_slices)``: 0 ≈ one aggregate covers everything
    (perfectly homogeneous), 1 = no aggregation possible at this ``p``.
    """
    model = payload["model"]
    cells = int(model["n_resources"]) * int(model["n_slices"])
    return float(payload["partition"]["size"]) / float(cells)


def _aggregate_key(entry: Mapping[str, Any]) -> "tuple[int, int, int, int]":
    return (
        int(entry["leaf_start"]),
        int(entry["leaf_end"]),
        int(entry["slice_start"]),
        int(entry["slice_end"]),
    )


def _partition_diff(
    payload_a: Mapping[str, Any], payload_b: Mapping[str, Any]
) -> Dict[str, Any]:
    """Diff the two aggregate sets by grid footprint."""
    by_key_a = {_aggregate_key(e): e for e in payload_a["partition"]["aggregates"]}
    by_key_b = {_aggregate_key(e): e for e in payload_b["partition"]["aggregates"]}
    matched = sorted(set(by_key_a) & set(by_key_b))
    only_a = sorted(set(by_key_a) - set(by_key_b))
    only_b = sorted(set(by_key_b) - set(by_key_a))
    union = len(by_key_a) + len(by_key_b) - len(matched)
    return {
        "n_matched": len(matched),
        "n_only_a": len(only_a),
        "n_only_b": len(only_b),
        "jaccard": (len(matched) / union) if union else 1.0,
        "matched": [dict(by_key_a[key]) for key in matched],
        "only_a": [dict(by_key_a[key]) for key in only_a],
        "only_b": [dict(by_key_b[key]) for key in only_b],
    }


def _deviation_delta(
    model_a: MicroscopicModel,
    model_b: MicroscopicModel,
    states: Sequence[str] = BLOCKING_STATES,
) -> "List[Dict[str, Any]]":
    """Per-resource mean excess blocking of A minus B (grid-compatible only)."""
    mean_a = deviation_matrix(model_a, states).mean(axis=1)
    mean_b = deviation_matrix(model_b, states).mean(axis=1)
    rows = [
        {
            "resource": name,
            "a": float(mean_a[index]),
            "b": float(mean_b[index]),
            "delta": float(mean_a[index] - mean_b[index]),
        }
        for index, name in enumerate(model_a.hierarchy.leaf_names)
    ]
    rows.sort(key=lambda row: (-abs(float(row["delta"])), str(row["resource"])))
    return rows


def _summary_delta(
    payload_a: Mapping[str, Any], payload_b: Mapping[str, Any]
) -> Dict[str, Any]:
    part_a, part_b = payload_a["partition"], payload_b["partition"]
    delta: Dict[str, Any] = {}
    for key in SUMMARY_KEYS:
        a, b = float(part_a[key]), float(part_b[key])
        delta[key] = {"a": a, "b": b, "delta": a - b}
    het_a, het_b = heterogeneity_score(payload_a), heterogeneity_score(payload_b)
    delta["heterogeneity"] = {"a": het_a, "b": het_b, "delta": het_a - het_b}
    delta["n_phases"] = {
        "a": len(payload_a["phases"]),
        "b": len(payload_b["phases"]),
        "delta": len(payload_a["phases"]) - len(payload_b["phases"]),
    }
    delta["n_anomalies"] = {
        "a": len(payload_a["anomalies"]),
        "b": len(payload_b["anomalies"]),
        "delta": len(payload_a["anomalies"]) - len(payload_b["anomalies"]),
    }
    return delta


def compare_payload(
    name_a: str,
    payload_a: Mapping[str, Any],
    model_a: MicroscopicModel,
    name_b: str,
    payload_b: Mapping[str, Any],
    model_b: MicroscopicModel,
    params: Mapping[str, Any],
) -> Dict[str, Any]:
    """Assemble the machine-readable comparison of two analysis results.

    ``payload_a`` / ``payload_b`` are the single-trace analysis payloads
    (the exact ``repro analyze --json`` dicts) the comparison is derived
    from; ``model_a`` / ``model_b`` their microscopic models (needed for the
    deviation matrices).  The partition diff is always computed (the key
    space is the common grid footprint); the per-resource deviation delta
    requires grid-compatible traces (same resource names, same slice count)
    and is ``None`` otherwise.
    """
    same_resources = (
        list(model_a.hierarchy.leaf_names) == list(model_b.hierarchy.leaf_names)
    )
    same_slices = model_a.n_slices == model_b.n_slices
    deviation = (
        _deviation_delta(model_a, model_b) if same_resources and same_slices else None
    )
    return {
        "schema": COMPARE_SCHEMA,
        "meta": meta_section(),
        "params": dict(params),
        "a": {"name": name_a, "trace": dict(payload_a["trace"])},
        "b": {"name": name_b, "trace": dict(payload_b["trace"])},
        "comparable": {
            "same_resources": same_resources,
            "same_slices": same_slices,
            "same_states": list(model_a.states.names) == list(model_b.states.names),
        },
        "partition_diff": _partition_diff(payload_a, payload_b),
        "deviation_delta": deviation,
        "summary_delta": _summary_delta(payload_a, payload_b),
    }


# --------------------------------------------------------------------------- #
# Batch payload (corpus ranking)
# --------------------------------------------------------------------------- #
def batch_summary_rows(
    results: Mapping[str, Mapping[str, Any]],
) -> "List[Dict[str, Any]]":
    """One ranking row per analyzed trace, most heterogeneous first.

    Ties (identical heterogeneity) fall back to the trace name, so the
    ranking — and therefore the serialized batch payload — is deterministic.
    """
    rows: List[Dict[str, Any]] = []
    for name, payload in results.items():
        partition = payload["partition"]
        rows.append(
            {
                "name": name,
                "digest": payload["trace"]["digest"],
                "n_intervals": payload["trace"]["n_intervals"],
                "n_resources": payload["model"]["n_resources"],
                "n_slices": payload["model"]["n_slices"],
                "size": partition["size"],
                "pic": partition["pic"],
                "normalized_loss": partition["normalized_loss"],
                "complexity_reduction": partition["complexity_reduction"],
                "heterogeneity": heterogeneity_score(payload),
                "n_anomalies": len(payload["anomalies"]),
            }
        )
    rows.sort(key=lambda row: (-float(row["heterogeneity"]), str(row["name"])))
    for rank, row in enumerate(rows, start=1):
        row["rank"] = rank
    return rows


def batch_payload(
    results: Mapping[str, Mapping[str, Any]],
    params: Mapping[str, Any],
    errors: "Sequence[Mapping[str, Any]] | None" = None,
) -> Dict[str, Any]:
    """The machine-readable result of one corpus batch run."""
    payload: Dict[str, Any] = {
        "schema": BATCH_SCHEMA,
        "meta": meta_section(),
        "params": dict(params),
        "corpus": {
            "n_traces": len(results) + len(errors or ()),
            "n_analyzed": len(results),
            "n_failed": len(errors or ()),
        },
        "results": {name: dict(results[name]) for name in sorted(results)},
        "summary": batch_summary_rows(results),
    }
    if errors:
        payload["errors"] = [dict(error) for error in errors]
    return payload


def serialize_payload(payload: Mapping[str, Any]) -> str:
    """Canonical JSON text of a payload (no trailing newline)."""
    with span("pipeline.serialize"):
        return json.dumps(payload, indent=2, sort_keys=True, default=str)
