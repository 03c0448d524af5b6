"""Typed pipeline requests and the one shared parameter validator.

Every frontend — ``repro analyze`` / ``batch`` / ``compare``, the HTTP
handlers, batch workers and stream re-queries — expresses a query as one of
the frozen dataclasses below and funnels it through
:func:`validate_analysis_params`.  The validator carries the canonical
(service) error texts; frontends that historically phrased errors in their
own vocabulary (the CLI's ``--slices must be at least 1``) translate via
:class:`~repro.pipeline.errors.RequestError.field` instead of re-implementing
the checks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Sequence, Tuple

from ..core.operators import available_operators
from .errors import RequestError
from .window import WindowSpec

__all__ = [
    "MAX_SLICES",
    "AnalysisRequest",
    "SweepRequest",
    "BatchRequest",
    "CompareRequest",
    "validate_analysis_params",
    "validate_generation",
]

#: Upper bound on slices a *service* query may request — the dynamic program
#: is O(|S| |T|^3), so an unbounded request could wedge a shared server.
#: One-shot frontends (CLI, batch) pass ``max_slices=None``: the caller pays
#: for their own CPU time.
MAX_SLICES = 512


def validate_analysis_params(
    p: Any,
    slices: Any,
    operator: Any,
    max_slices: Optional[int] = None,
) -> Tuple[float, int, str]:
    """Coerce and validate the core analysis parameters, shared by all frontends.

    Returns the normalized ``(p, slices, operator)``.  Raises
    :class:`RequestError` (a :class:`ValueError`) with the canonical message
    and the offending ``field`` set.
    """
    try:
        p = float(p)
        slices = int(slices)
    except (TypeError, ValueError):
        raise RequestError("p must be a number and slices an integer", field="p") from None
    if not 0.0 <= p <= 1.0:
        raise RequestError(f"p must be in [0, 1], got {p}", field="p")
    if max_slices is not None:
        if not 1 <= slices <= max_slices:
            raise RequestError(
                f"slices must be in [1, {max_slices}], got {slices}", field="slices"
            )
    elif slices < 1:
        raise RequestError(f"slices must be at least 1, got {slices}", field="slices")
    if not isinstance(operator, str) or operator not in available_operators():
        raise RequestError(
            f"unknown operator {operator!r}; "
            f"expected one of {list(available_operators())}",
            field="operator",
        )
    return p, slices, operator


def _validate_threshold(anomaly_threshold: Any) -> float:
    try:
        return float(anomaly_threshold)
    except (TypeError, ValueError):
        raise RequestError(
            "anomaly_threshold must be a number", field="anomaly_threshold"
        ) from None


def _validate_jobs(jobs: Any) -> int:
    try:
        jobs = int(jobs)
    except (TypeError, ValueError):
        raise RequestError("jobs must be an integer", field="jobs") from None
    if jobs < 1:
        raise RequestError(f"jobs must be at least 1, got {jobs}", field="jobs")
    return jobs


def validate_generation(generation: Any) -> Optional[int]:
    """Coerce an optional client generation pin to an integer."""
    if generation is None:
        return None
    try:
        return int(generation)
    except (TypeError, ValueError):
        raise RequestError("generation must be an integer", field="generation") from None


@dataclass(frozen=True)
class AnalysisRequest:
    """One aggregation query, frontend-agnostic.

    ``window`` restricts the analysis to a tail or time window of the
    streaming model; ``generation`` optionally pins the content snapshot the
    client expects; ``jobs`` is the process-pool width for one-shot runs
    (ignored by the cached service path, which is serial per request).
    """

    p: float = 0.7
    slices: int = 30
    operator: str = "mean"
    anomaly_threshold: float = 0.1
    window: Optional[WindowSpec] = None
    generation: Optional[int] = None
    jobs: int = 1

    @classmethod
    def from_query(
        cls,
        p: Any = 0.7,
        slices: Any = 30,
        operator: Any = "mean",
        anomaly_threshold: Any = 0.1,
        last_k_slices: Any = None,
        window: "Sequence[float] | None" = None,
        generation: Any = None,
        max_slices: Optional[int] = MAX_SLICES,
    ) -> "AnalysisRequest":
        """Build a validated request from loosely typed query inputs.

        This is the HTTP body vocabulary (``last_k_slices`` / ``window`` as a
        pair); the CLI builds the dataclass directly and calls
        :meth:`validated`.
        """
        p, slices, operator = validate_analysis_params(
            p, slices, operator, max_slices=max_slices
        )
        return cls(
            p=p,
            slices=slices,
            operator=operator,
            anomaly_threshold=_validate_threshold(anomaly_threshold),
            window=WindowSpec.from_query(last_k_slices, window),
            generation=validate_generation(generation),
        )

    def validated(self, max_slices: Optional[int] = None) -> "AnalysisRequest":
        """A normalized copy, with every field coerced and checked."""
        p, slices, operator = validate_analysis_params(
            self.p, self.slices, self.operator, max_slices=max_slices
        )
        return replace(
            self,
            p=p,
            slices=slices,
            operator=operator,
            anomaly_threshold=_validate_threshold(self.anomaly_threshold),
            generation=validate_generation(self.generation),
            jobs=_validate_jobs(self.jobs),
        )

    def params(self) -> Dict[str, Any]:
        """The canonical ``params`` echo of analysis payloads."""
        params: Dict[str, Any] = {
            "p": self.p,
            "slices": self.slices,
            "operator": self.operator,
            "anomaly_threshold": self.anomaly_threshold,
        }
        if self.window is not None:
            params.update(self.window.params_entry())
        return params


@dataclass(frozen=True)
class SweepRequest:
    """A multi-``p`` sweep query (``POST /v1/sweep``).

    ``ps`` is the explicit trade-off grid; ``None`` runs the dichotomic
    significant-parameter search.
    """

    ps: Optional[Tuple[float, ...]] = None
    slices: int = 30
    operator: str = "mean"
    window: Optional[WindowSpec] = None
    generation: Optional[int] = None

    @classmethod
    def from_query(
        cls,
        ps: Any = None,
        slices: Any = 30,
        operator: Any = "mean",
        last_k_slices: Any = None,
        window: "Sequence[float] | None" = None,
        generation: Any = None,
        max_slices: Optional[int] = MAX_SLICES,
    ) -> "SweepRequest":
        """Build a validated sweep request from loosely typed query inputs."""
        _, slices, operator = validate_analysis_params(
            0.0, slices, operator, max_slices=max_slices
        )
        normalized: Optional[Tuple[float, ...]] = None
        if ps is not None:
            try:
                normalized = tuple(float(p) for p in ps)
            except (TypeError, ValueError):
                raise RequestError("ps must be a list of numbers", field="ps") from None
            for p in normalized:
                validate_analysis_params(p, slices, operator, max_slices=max_slices)
        return cls(
            ps=normalized,
            slices=slices,
            operator=operator,
            window=WindowSpec.from_query(last_k_slices, window),
            generation=validate_generation(generation),
        )

    def validated(self, max_slices: Optional[int] = None) -> "SweepRequest":
        """A normalized copy, with every field coerced and checked."""
        _, slices, operator = validate_analysis_params(
            0.0, self.slices, self.operator, max_slices=max_slices
        )
        normalized: Optional[Tuple[float, ...]] = None
        if self.ps is not None:
            try:
                normalized = tuple(float(p) for p in self.ps)
            except (TypeError, ValueError):
                raise RequestError("ps must be a list of numbers", field="ps") from None
            for p in normalized:
                validate_analysis_params(p, slices, operator, max_slices=max_slices)
        return replace(
            self,
            ps=normalized,
            slices=slices,
            operator=operator,
            generation=validate_generation(self.generation),
        )

    def params(self) -> Dict[str, Any]:
        """The canonical ``params`` echo of sweep payloads."""
        params: Dict[str, Any] = {"slices": self.slices, "operator": self.operator}
        if self.window is not None:
            params.update(self.window.params_entry())
        return params


@dataclass(frozen=True)
class BatchRequest:
    """One corpus batch run: the per-member analysis request plus pool width.

    ``window`` restricts every member's analysis to the same tail/time window
    of its model — the shape of a fleet-wide "recent activity" pass over a
    corpus of long traces, where each worker windows its (mmap-shared) model
    instead of running the cubic DP over the whole span.
    """

    p: float = 0.7
    slices: int = 30
    operator: str = "mean"
    anomaly_threshold: float = 0.1
    window: Optional[WindowSpec] = None
    jobs: int = 1

    def validated(self, max_slices: Optional[int] = None) -> "BatchRequest":
        """A normalized copy, with every field coerced and checked."""
        p, slices, operator = validate_analysis_params(
            self.p, self.slices, self.operator, max_slices=max_slices
        )
        return replace(
            self,
            p=p,
            slices=slices,
            operator=operator,
            anomaly_threshold=_validate_threshold(self.anomaly_threshold),
            jobs=_validate_jobs(self.jobs),
        )

    def member_request(self) -> AnalysisRequest:
        """The per-member analysis request (serial: sharding is per trace)."""
        return AnalysisRequest(
            p=self.p,
            slices=self.slices,
            operator=self.operator,
            anomaly_threshold=self.anomaly_threshold,
            window=self.window,
        )


@dataclass(frozen=True)
class CompareRequest:
    """A two-trace comparison at matched parameters."""

    p: float = 0.7
    slices: int = 30
    operator: str = "mean"
    anomaly_threshold: float = 0.1

    def validated(self, max_slices: Optional[int] = None) -> "CompareRequest":
        """A normalized copy, with every field coerced and checked."""
        p, slices, operator = validate_analysis_params(
            self.p, self.slices, self.operator, max_slices=max_slices
        )
        return replace(
            self,
            p=p,
            slices=slices,
            operator=operator,
            anomaly_threshold=_validate_threshold(self.anomaly_threshold),
        )

    def side_request(self) -> AnalysisRequest:
        """The single-trace analysis request run on each side."""
        return AnalysisRequest(
            p=self.p,
            slices=self.slices,
            operator=self.operator,
            anomaly_threshold=self.anomaly_threshold,
        )
