"""Aggregation operators, their registry, and information measures (Section III.B-C).

Aggregating a spatiotemporal area ``(S_k, T_(i,j))`` replaces its microscopic
cells by a single macro value per state and quantifies two effects:

* **gain** — the data reduction, measured by Shannon entropy (Eq. 3);
* **loss** — the information loss, measured by Kullback-Leibler divergence
  between the microscopic proportions and the aggregated one (Eq. 2).

The parametrized information criterion (Eq. 4) is
``pIC = p * gain - (1 - p) * loss``.

Operators are looked up by name through a **registry**
(:func:`register_operator` / :func:`available_operators` /
:func:`get_operator`), which is the single source of the operator vocabulary
exposed by ``repro analyze --operator``, ``repro batch``, ``POST /v1/analyze``
and ``POST /v1/sweep``.  Five operators ship built in:

* :class:`MeanOperator` (``mean``) implements Eq. 1-3 *exactly as written in
  the paper*: the aggregated proportion is the duration-weighted
  resource-averaged proportion.  (With this convention the gain of a
  heterogeneous area can be slightly negative; the paper keeps the formulas
  simple and so do we.)
* :class:`SumOperator` (``sum``) implements the canonical Lamarche-Perrin
  criterion used by the earlier Viva / temporal-Ocelotl work, where the macro
  value is the *sum* of microscopic values; its gain is always non-negative
  and superadditive, and its loss compares the microscopic distribution with
  a uniform redistribution of the sum.
* :class:`MaxOperator` / :class:`MinOperator` (``max`` / ``min``) summarize an
  area by its per-state extreme proportion — the "worst/best cell wins" view
  an analyst uses to hunt stragglers and idle pockets.  Gain follows the
  Eq. 3 template with the extreme substituted as the macro value; the loss
  is the **magnitude** of the Eq. 2 log-likelihood mismatch (a KL divergence
  only represents a mean, so the raw mismatch would be structurally signed
  for an extreme) — non-negative, zero iff the area is homogeneous.
* :class:`StdOperator` (``std``) summarizes an area by the per-state
  population standard deviation of its microscopic proportions — a direct
  heterogeneity lens: homogeneous areas collapse to ~0, noisy ones stand
  out.  Loss uses the same magnitude convention as ``max``/``min``.

Most operators work on pre-reduced interval *sums* so that the ``(i, j)``
tables of a whole chunk of nodes are evaluated in one vectorized call;
operators that need more than sums declare it via their ``requires``
attribute and the statistics engine supplies the matching
:class:`IntervalSums` fields (sum of squares for ``std``, running extrema for
``max``/``min``), computed so that the scalar O(1) point path and the
broadcast table path stay bit-for-bit identical.

The statistics engine hands the table path **state-major** arrays: logical
``(c, rows, columns, X)`` views of ``(X, c, rows, columns)`` memory (see
:mod:`repro.core.criteria`); the point path hands ``(X,)`` arrays.  The
built-in operators are elementwise over the leading axes, so they run on
either unchanged; they write their per-state temporaries in place
(``out=`` / ``where=``), which keeps the layout of their inputs and the
number of temporaries small.  Their one reduction, the sum over states, goes
through :func:`state_sum`, which adds in the order of numpy's *contiguous*
pairwise ``add.reduce`` (a ``+0.0`` start; sequential below 8 states, eight
interleaved accumulators from 8 on) on any memory layout — a plain
``sum(axis=-1)`` over a strided state axis is sequential for every ``X``
and would change bits from 8 states on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Protocol, Tuple, Union, runtime_checkable

import numpy as np
import numpy.typing as npt

__all__ = [
    "xlogx",
    "safe_log2",
    "state_sum",
    "AggregationOperator",
    "MeanOperator",
    "SumOperator",
    "MaxOperator",
    "MinOperator",
    "StdOperator",
    "IntervalSums",
    "register_operator",
    "available_operators",
    "get_operator",
    "pic",
]

#: Alias for the float arrays flowing through the operators; the dtype is
#: always float64 but the shapes vary (scalar, (X,), (T, T, X), ...).
FloatArray = npt.NDArray[np.float64]


def xlogx(values: Union[FloatArray, float]) -> Union[FloatArray, float]:
    """``v * log2(v)`` with the convention ``0 * log2(0) = 0``.

    Negative inputs (which can only arise from floating-point noise) are
    treated as zero.
    """
    result = _xlogx_array(np.asarray(values, dtype=float))
    if np.isscalar(values) or np.ndim(values) == 0:
        return float(result)
    return result


def _xlogx_array(arr: FloatArray) -> FloatArray:
    """:func:`xlogx` of a float array, as a new array with the layout of ``arr``."""
    result = safe_log2(arr)
    np.multiply(arr, result, out=result, where=arr > 0)
    return result


def safe_log2(values: FloatArray) -> FloatArray:
    """``log2(v)`` where ``v > 0`` and ``0`` elsewhere (callers must guard usage).

    The result has the memory layout of ``values``.
    """
    arr = np.asarray(values, dtype=float)
    result = np.zeros_like(arr)
    np.log2(arr, out=result, where=arr > 0)
    return result


def state_sum(values: FloatArray) -> FloatArray:
    """Sum over the last (state) axis in numpy's contiguous ``add.reduce`` order.

    The result is bit-identical to ``values.sum(axis=-1)`` on a C-contiguous
    copy of ``values``, whatever the memory layout of ``values``.  numpy
    reduces a contiguous axis of ``n`` values from a ``+0.0`` start by
    pairwise summation: sequentially below 8 values, with 8 interleaved
    accumulators up to 128, and by halves (rounded down to a multiple of 8)
    above that.  The same reduction of a strided axis — the state axis of the
    state-major interval tables — is sequential for every ``n``, so its bits
    differ from 8 states on.  This helper adds whole ``values[..., x]``
    slices in the contiguous order instead: each addition is one vectorized
    call over every leading index, contiguous when the states are the
    outermost axis in memory.
    """
    return np.add(0.0, _pairwise_sum(values, 0, values.shape[-1]))


def _pairwise_sum(values: FloatArray, start: int, n: int) -> FloatArray:
    """numpy's pairwise sum of ``values[..., start:start + n]``."""
    if n > 128:
        half = n // 2
        half -= half % 8
        return np.add(
            _pairwise_sum(values, start, half), _pairwise_sum(values, start + half, n - half)
        )
    total: FloatArray = np.zeros(values.shape[:-1])
    stop = start
    if n >= 8:
        stop = start + n - n % 8
        partial = [np.array(values[..., start + k]) for k in range(8)]
        for x in range(start + 8, stop, 8):
            for k in range(8):
                partial[k] += values[..., x + k]
        pairs = [np.add(partial[k], partial[k + 1]) for k in range(0, 8, 2)]
        total = np.add(np.add(pairs[0], pairs[1]), np.add(pairs[2], pairs[3]))
    for x in range(stop, start + n):
        total += values[..., x]
    return total


@dataclass(frozen=True)
class IntervalSums:
    """Pre-reduced quantities of one or many spatiotemporal areas.

    Every array is broadcastable; the last axis is the state axis ``X`` for
    the per-state quantities.  The first six fields are exactly the
    intermediary data listed in the paper's "Data Input" paragraph; the
    optional tail fields are supplied by the statistics engine only when the
    operator's ``requires`` attribute asks for them.

    Attributes
    ----------
    sum_durations:
        ``sum_{(s,t) in area} d_x(s, t)`` — shape ``(..., X)``.
    total_duration:
        ``sum_{t in interval} d(t)`` — shape ``(...)``.
    n_resources:
        ``|S_k|`` — scalar or shape ``(...)``.
    sum_rho:
        ``sum_{(s,t)} rho_x(s, t)`` — shape ``(..., X)``.
    sum_rho_log_rho:
        ``sum_{(s,t)} rho_x(s, t) log2 rho_x(s, t)`` — shape ``(..., X)``.
    n_cells:
        number of microscopic cells ``|S_k| * |T_(i,j)|`` — shape ``(...)``.
    sum_sq_rho:
        ``sum_{(s,t)} rho_x(s, t)^2`` — shape ``(..., X)``; present when the
        operator requires ``"sum_sq_rho"`` (the ``std`` operator).
    max_rho:
        ``max_{(s,t)} rho_x(s, t)`` — shape ``(..., X)``; present when the
        operator requires ``"minmax_rho"``.
    min_rho:
        ``min_{(s,t)} rho_x(s, t)`` — shape ``(..., X)``; present when the
        operator requires ``"minmax_rho"``.
    """

    sum_durations: FloatArray
    total_duration: FloatArray
    n_resources: Union[FloatArray, int]
    sum_rho: FloatArray
    sum_rho_log_rho: FloatArray
    n_cells: Union[FloatArray, int]
    sum_sq_rho: Optional[FloatArray] = None
    max_rho: Optional[FloatArray] = None
    min_rho: Optional[FloatArray] = None


@runtime_checkable
class AggregationOperator(Protocol):
    """Interface shared by the aggregation operators.

    ``requires`` names the optional :class:`IntervalSums` fields the operator
    reads beyond the paper's six sums (``"sum_sq_rho"``, ``"minmax_rho"``);
    the statistics engine only materializes what is asked for.
    """

    name: str
    requires: Tuple[str, ...]

    def macro_proportions(self, sums: IntervalSums) -> FloatArray:
        """Aggregated per-state value ``rho_x(S_k, T_(i,j))`` — shape ``(..., X)``."""
        ...

    def gain_loss(self, sums: IntervalSums) -> Tuple[FloatArray, FloatArray]:
        """Per-area gain and loss, summed over states — both of shape ``(...)``."""
        ...


def _representative_gain_loss(
    macro: FloatArray, sums: IntervalSums, absolute_loss: bool = False
) -> Tuple[FloatArray, FloatArray]:
    """Eq. 3 (gain) and Eq. 2 (loss) with ``macro`` as the aggregated value.

    Shared by every operator whose macro value *represents* the microscopic
    proportions (mean, max, min, std): the gain compares the entropy of the
    macro value with the summed microscopic entropy, the loss measures the
    log-likelihood mismatch ``sum rho (log rho - log macro)`` between the
    microscopic values and the representative.  When the macro value is zero
    and every microscopic value is zero too, both terms must vanish.

    For the mean operator the mismatch is a KL divergence and therefore
    non-negative by Gibbs' inequality.  For other representatives (max, min,
    std) its sign is structural, not informational — e.g. ``rho <= max``
    makes every term non-positive — so those operators pass
    ``absolute_loss=True`` to take the *magnitude* of the mismatch: a loss
    that is zero iff every cell equals the representative and positive
    otherwise, keeping ``loss >= 0`` (and the pIC trade-off meaningful) for
    every registered operator.
    """
    # Every per-state step writes in place, so a call holds the macro value,
    # its log (reused for the loss), the gain and a mask at a time, all in
    # the memory layout of ``macro``.
    positive = macro > 0
    log_macro = np.zeros_like(macro)
    np.log2(macro, out=log_macro, where=positive)  # safe_log2(macro)
    gain_per_state = np.zeros_like(macro)
    np.multiply(macro, log_macro, out=gain_per_state, where=positive)  # xlogx(macro)
    gain_per_state -= sums.sum_rho_log_rho
    loss_per_state = np.multiply(sums.sum_rho, log_macro, out=log_macro)
    np.subtract(sums.sum_rho_log_rho, loss_per_state, out=loss_per_state)
    dead = macro <= 0
    dead &= sums.sum_rho <= 0
    np.copyto(gain_per_state, 0.0, where=dead)
    np.copyto(loss_per_state, 0.0, where=dead)
    if absolute_loss:
        np.abs(loss_per_state, out=loss_per_state)
    return state_sum(gain_per_state), state_sum(loss_per_state)


def _positive_or_one(values: npt.ArrayLike) -> FloatArray:
    """A float copy of ``values`` with every entry that is not positive set to 1."""
    result = np.array(values, dtype=float)
    np.copyto(result, 1.0, where=np.logical_not(result > 0))
    return result


class MeanOperator:
    """Paper operator (Eq. 1-3): the macro value is the averaged proportion."""

    name = "mean"
    requires: Tuple[str, ...] = ()

    def macro_proportions(self, sums: IntervalSums) -> FloatArray:
        """Eq. 1: duration-weighted proportion averaged over the resources."""
        denominator = _positive_or_one(
            np.asarray(sums.n_resources, dtype=float) * np.asarray(sums.total_duration, dtype=float)
        )
        return np.asarray(sums.sum_durations, dtype=float) / denominator[..., None]

    def gain_loss(self, sums: IntervalSums) -> Tuple[FloatArray, FloatArray]:
        """Eq. 3 (gain) and Eq. 2 (loss), summed over the state axis."""
        return _representative_gain_loss(self.macro_proportions(sums), sums)


class SumOperator:
    """Canonical Lamarche-Perrin operator: the macro value is the summed proportion."""

    name = "sum"
    requires: Tuple[str, ...] = ()

    def macro_proportions(self, sums: IntervalSums) -> FloatArray:
        """The aggregated value is simply ``sum_{(s,t)} rho_x(s, t)``."""
        return np.asarray(sums.sum_rho, dtype=float)

    def gain_loss(self, sums: IntervalSums) -> Tuple[FloatArray, FloatArray]:
        """Entropy gain and KL loss against a uniform redistribution of the sum."""
        total = np.asarray(sums.sum_rho, dtype=float)
        n_cells = _positive_or_one(sums.n_cells)
        gain_per_state = _xlogx_array(total)
        gain_per_state -= sums.sum_rho_log_rho
        loss_per_state = safe_log2(total / n_cells[..., None])  # log2 of the uniform share
        np.multiply(total, loss_per_state, out=loss_per_state)
        np.subtract(sums.sum_rho_log_rho, loss_per_state, out=loss_per_state)
        zero_total = total <= 0
        np.copyto(gain_per_state, 0.0, where=zero_total)
        np.copyto(loss_per_state, 0.0, where=zero_total)
        return state_sum(gain_per_state), state_sum(loss_per_state)


class MaxOperator:
    """The macro value is the per-state maximum proportion over the area's cells."""

    name = "max"
    requires: Tuple[str, ...] = ("minmax_rho",)

    def macro_proportions(self, sums: IntervalSums) -> FloatArray:
        """``max_{(s,t) in area} rho_x(s, t)`` per state."""
        if sums.max_rho is None:
            raise ValueError("the 'max' operator needs IntervalSums.max_rho")
        return np.asarray(sums.max_rho, dtype=float)

    def gain_loss(self, sums: IntervalSums) -> Tuple[FloatArray, FloatArray]:
        """Eq. 2-3 template with the maximum as the representative value.

        The loss is the magnitude of the log-likelihood mismatch (see
        :func:`_representative_gain_loss`): non-negative, zero iff every
        cell already equals the representative.
        """
        return _representative_gain_loss(self.macro_proportions(sums), sums, absolute_loss=True)


class MinOperator:
    """The macro value is the per-state minimum proportion over the area's cells."""

    name = "min"
    requires: Tuple[str, ...] = ("minmax_rho",)

    def macro_proportions(self, sums: IntervalSums) -> FloatArray:
        """``min_{(s,t) in area} rho_x(s, t)`` per state."""
        if sums.min_rho is None:
            raise ValueError("the 'min' operator needs IntervalSums.min_rho")
        return np.asarray(sums.min_rho, dtype=float)

    def gain_loss(self, sums: IntervalSums) -> Tuple[FloatArray, FloatArray]:
        """Eq. 2-3 template with the minimum as the representative value.

        The loss is the magnitude of the log-likelihood mismatch (see
        :func:`_representative_gain_loss`): non-negative, zero iff every
        cell already equals the representative.
        """
        return _representative_gain_loss(self.macro_proportions(sums), sums, absolute_loss=True)


class StdOperator:
    """The macro value is the per-state population standard deviation of the cells."""

    name = "std"
    requires: Tuple[str, ...] = ("sum_sq_rho",)

    def macro_proportions(self, sums: IntervalSums) -> FloatArray:
        """``std_{(s,t) in area} rho_x(s, t)`` per state (population convention).

        Computed from the pre-reduced sums as ``sqrt(E[rho^2] - E[rho]^2)``
        with the (numerically possible) negative variance clipped to zero.
        """
        if sums.sum_sq_rho is None:
            raise ValueError("the 'std' operator needs IntervalSums.sum_sq_rho")
        n_cells = _positive_or_one(sums.n_cells)[..., None]
        mean = np.asarray(sums.sum_rho, dtype=float) / n_cells
        variance = np.asarray(sums.sum_sq_rho, dtype=float) / n_cells
        np.subtract(variance, np.multiply(mean, mean, out=mean), out=variance)
        np.maximum(variance, 0.0, out=variance)
        return np.sqrt(variance, out=variance)

    def gain_loss(self, sums: IntervalSums) -> Tuple[FloatArray, FloatArray]:
        """Eq. 2-3 template with the standard deviation as the representative value.

        The loss is the magnitude of the log-likelihood mismatch (see
        :func:`_representative_gain_loss`): non-negative, zero iff every
        cell already equals the representative.
        """
        return _representative_gain_loss(self.macro_proportions(sums), sums, absolute_loss=True)


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
_REGISTRY: Dict[str, Callable[[], AggregationOperator]] = {}


def register_operator(
    factory: Callable[[], AggregationOperator], name: Optional[str] = None
) -> Callable[[], AggregationOperator]:
    """Register an operator factory (usually the class itself) under ``name``.

    ``name`` defaults to the factory's ``name`` class attribute.  Registering
    a name twice replaces the previous factory, so embedders can override a
    built-in.  Returns the factory so it can be used as a decorator.
    """
    key = name if name is not None else str(getattr(factory, "name"))
    if not key:
        raise ValueError("operator name must be a non-empty string")
    _REGISTRY[key] = factory
    return factory


def available_operators() -> Tuple[str, ...]:
    """The registered operator names, sorted — the public operator vocabulary."""
    return tuple(sorted(_REGISTRY))


for _factory in (MeanOperator, SumOperator, MaxOperator, MinOperator, StdOperator):
    register_operator(_factory)


def get_operator(
    name_or_operator: Union[str, AggregationOperator, None],
) -> AggregationOperator:
    """Resolve an operator from a registry name, an instance, or ``None`` (paper default)."""
    if name_or_operator is None:
        # Resolve the default through the registry too, so an embedder's
        # override of "mean" also governs callers that omit the operator.
        name_or_operator = "mean"
    if isinstance(name_or_operator, str):
        try:
            return _REGISTRY[name_or_operator]()
        except KeyError:
            raise ValueError(
                f"unknown operator {name_or_operator!r}; "
                f"expected one of {list(available_operators())}"
            ) from None
    return name_or_operator


def operator_requires(operator: Any) -> Tuple[str, ...]:
    """The optional :class:`IntervalSums` fields ``operator`` declares it needs."""
    return tuple(getattr(operator, "requires", ()))


__all__.append("operator_requires")


def pic(
    gain: Union[FloatArray, float], loss: Union[FloatArray, float], p: float
) -> Union[FloatArray, float]:
    """Parametrized information criterion (Eq. 4): ``p * gain - (1 - p) * loss``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    return p * np.asarray(gain, dtype=float) - (1.0 - p) * np.asarray(loss, dtype=float)
