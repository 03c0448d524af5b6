"""Cross-trace comparison and corpus-ranking *reports* (text rendering).

The machine-readable payloads — partition diffs keyed by grid footprint with
Jaccard similarity, per-resource deviation deltas, summary deltas, and the
corpus heterogeneity ranking — are assembled by
:mod:`repro.pipeline.payloads` (the single producer feeding ``repro compare
--json`` / ``POST /v1/compare`` and ``repro batch --json`` / ``POST /v1/batch``,
byte-identical by construction).  This module re-exports those builders
under their historical names and renders the payloads as the plain-text
reports the CLI prints by default.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from ..pipeline.payloads import (
    BATCH_SCHEMA,
    COMPARE_SCHEMA,
    SUMMARY_KEYS as _SUMMARY_KEYS,
    batch_payload,
    batch_summary_rows,
    compare_payload,
    heterogeneity_score,
)

__all__ = [
    "COMPARE_SCHEMA",
    "BATCH_SCHEMA",
    "SHIFT_ABS_TOL",
    "SHIFT_REL_TOL",
    "heterogeneity_score",
    "compare_payload",
    "batch_summary_rows",
    "batch_payload",
    "shift_threshold",
    "shifted_rows",
    "compare_report",
    "batch_report",
]

#: Absolute floor of the "shifted" classification: deltas below this are
#: noise regardless of scale.
SHIFT_ABS_TOL = 1e-12
#: Relative component: a resource is shifted only when its delta exceeds
#: this fraction of the largest deviation magnitude on either side.  A fixed
#: absolute threshold misfires on large-magnitude grids, where float
#: round-off alone produces deltas far above 1e-12.
SHIFT_REL_TOL = 1e-9


def shift_threshold(deviation: "Sequence[Mapping[str, Any]]") -> float:
    """The delta magnitude above which a resource counts as shifted.

    Scaled to the deviation values actually present so the classification is
    invariant under rescaling the grid.
    """
    scale = max(
        (max(abs(float(row["a"])), abs(float(row["b"]))) for row in deviation),
        default=0.0,
    )
    return max(SHIFT_ABS_TOL, SHIFT_REL_TOL * scale)


def shifted_rows(
    deviation: "Sequence[Mapping[str, Any]]",
) -> "list[Mapping[str, Any]]":
    """Deviation-delta rows whose resource genuinely shifted between sides."""
    threshold = shift_threshold(deviation)
    return [row for row in deviation if abs(float(row["delta"])) > threshold]


def compare_report(payload: Mapping[str, Any]) -> str:
    """Plain-text rendering of a comparison payload (CLI default output)."""
    a, b = payload["a"], payload["b"]
    diff = payload["partition_diff"]
    lines = [
        f"Comparison report: {a['name']} vs {b['name']} "
        f"(p={payload['params']['p']}, slices={payload['params']['slices']})",
        f"  {a['name']}: {a['trace']['n_intervals']} intervals, "
        f"digest {a['trace']['digest'][:12]}…",
        f"  {b['name']}: {b['trace']['n_intervals']} intervals, "
        f"digest {b['trace']['digest'][:12]}…",
        "",
        f"partition diff: {diff['n_matched']} matched, "
        f"{diff['n_only_a']} only in {a['name']}, "
        f"{diff['n_only_b']} only in {b['name']} "
        f"(jaccard {diff['jaccard']:.3f})",
    ]
    summary = payload["summary_delta"]
    lines.append("summary deltas (a - b):")
    for key in (*_SUMMARY_KEYS, "heterogeneity", "n_phases", "n_anomalies"):
        entry = summary[key]
        lines.append(
            f"  {key:<21} a={entry['a']:<12.6g} b={entry['b']:<12.6g} "
            f"delta={entry['delta']:+.6g}"
        )
    deviation = payload["deviation_delta"]
    if deviation is None:
        lines.append("deviation delta: traces are not grid-compatible (skipped)")
    else:
        shifted = shifted_rows(deviation)
        lines.append(
            f"deviation delta: {len(shifted)} of {len(deviation)} resources shifted"
        )
        for row in shifted[:10]:
            lines.append(
                f"  {row['resource']:<16} a={row['a']:.4f} b={row['b']:.4f} "
                f"delta={row['delta']:+.4f}"
            )
    return "\n".join(lines)


def batch_report(payload: Mapping[str, Any]) -> str:
    """Plain-text corpus summary table (CLI default output)."""
    params = payload["params"]
    lines = [
        f"Corpus batch report: {payload['corpus']['n_analyzed']} of "
        f"{payload['corpus']['n_traces']} traces analyzed "
        f"(p={params['p']}, slices={params['slices']}, "
        f"operator={params['operator']})",
        "",
        f"{'rank':<5}{'trace':<20}{'intervals':>10}{'size':>8}"
        f"{'heterogeneity':>15}{'norm. loss':>12}{'anomalies':>11}",
    ]
    for row in payload["summary"]:
        lines.append(
            f"{row['rank']:<5}{row['name']:<20}{row['n_intervals']:>10}"
            f"{row['size']:>8}{row['heterogeneity']:>15.4f}"
            f"{row['normalized_loss']:>12.4f}{row['n_anomalies']:>11}"
        )
    for error in payload.get("errors", ()):
        lines.append(f"FAILED {error['name']} ({error['path']}): {error['error']}")
    return "\n".join(lines)
