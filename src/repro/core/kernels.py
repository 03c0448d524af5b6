"""Selectable DP-sweep kernels for the Algorithm 1 temporal-cut recurrence.

Every kernel takes a *slab* of DP tables: ``best``/``cut``/``count`` of shape
``(N, T, T)`` — one ``(T, T)`` table per hierarchy node — or a single
``(T, T)`` table, treated as ``N = 1``.  Algorithm 1 keeps its tables as one
such slab per hierarchy height (the nodes of one height are independent once
the children below them are final), so one call runs the recurrence for a
whole height.  ``best`` is float64; ``cut`` and ``count`` are int32 in
Algorithm 1 (any integer dtype works: the "no eligible cut" sentinel of the
tie-break is the largest value of ``count``'s dtype, which the counts stay
below).  Three tiers compute the very same recurrence — ``best[n, i, j] =
max over k of best[n, i, i + k] + best[n, i + k + 1, j]`` with the
coarsest-partition tie-break — and are **bit-identical by construction**
(the property suite diffs them cell by cell, no tolerances):

``numpy``
    The anti-diagonal strided sweep, vectorized over the node axis: one
    interval length of *every* node in the slab costs a constant number of
    numpy calls.  The ``(nodes, starts, cuts)`` temporaries of one length are
    bounded by :data:`SWEEP_BATCH_BYTES`: the node axis is split into chunks
    that fit.  Its right-hand window walks *up* a column of the row-major
    table (stride ``-s0``), which thrashes the cache once ``|T|`` outgrows
    it.  Kept as the always-importable reference.

``blocked``
    The same sweep per node, reading the right-hand operands through a
    maintained C-contiguous transpose buffer, processed in row blocks: both
    windows become row-contiguous strided views, so every interval length
    streams through memory instead of striding down columns.  Identical
    additions on identical values, so identical bits — just a cache-friendly
    access order.  The transpose upkeep costs a constant factor, so it only
    pays off once the ``(|T|, |T|)`` tables outgrow the last-level cache:
    *auto* detection picks it at ``|T| >= BLOCKED_MIN_SLICES`` and ``numpy``
    below.

``numba``
    A ``numba.njit`` per-cell loop nest run on each node of the slab (two
    passes: exact max, then first minimal aggregate count among the
    epsilon-eligible cuts — the same tie-break ``argmin`` applies).  Compiled
    only when numba is importable; selecting it without numba installed is
    an explicit error, while *auto* detection silently falls back to the
    numpy tiers.

Selection: the ``REPRO_KERNEL`` environment variable (``numpy`` | ``blocked``
| ``numba`` | ``auto``), overridden per-run by ``repro … --kernel`` (which
calls :func:`set_default_kernel`, also exporting the choice to child worker
processes through the environment).
"""

from __future__ import annotations

import os

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "BLOCKED_MIN_SLICES",
    "SWEEP_BATCH_BYTES",
    "KERNELS",
    "KernelUnavailableError",
    "available_kernels",
    "default_kernel",
    "resolve_kernel",
    "set_default_kernel",
    "temporal_cuts",
    "temporal_cuts_numpy",
    "temporal_cuts_blocked",
    "temporal_cuts_numba",
    "numba_available",
]

#: Recognized kernel names, slowest-but-simplest first.
KERNELS = ("numpy", "blocked", "numba")

#: Environment variable holding the process-wide default kernel.
KERNEL_ENV = "REPRO_KERNEL"

#: Row-block height of the blocked sweep: bounds the per-length temporaries to
#: ``O(block * |T|)`` and keeps the active slab of both windows cache-resident.
_ROW_BLOCK = 256

#: Table size where auto-detection switches from ``numpy`` to ``blocked``:
#: the auto-selection threshold, not a measured crossover.  Below it the
#: whole ``(|T|, |T|)`` float64 table fits in the last-level cache and the
#: transpose upkeep is pure overhead.  One unrecorded measurement, taken
#: before the numpy tier swept a whole hierarchy height at once, had blocked
#: 1.9x faster at |T| = 1024 and breaking even at 256; no committed bench
#: row backs either figure.
BLOCKED_MIN_SLICES = 1024

#: Memory budget of the ``numpy`` tier's per-length temporaries.  One length
#: ``L`` of a chunk of ``c`` nodes materializes ``c * (T - L) * L`` candidate
#: cuts; the node axis is split into chunks whose temporaries stay within
#: this many bytes (a single node always runs, whatever its size).  Splitting
#: the node axis cannot change any float: every node's cells see the same
#: operations on the same values.
SWEEP_BATCH_BYTES = 4 * 2**20

#: Bytes the ``numpy`` tier holds per candidate cut: the float64 values, the
#: counts, the eligibility mask and the masked counts (counts of at most 8
#: bytes; Algorithm 1's are int32).
_CELL_BYTES = 8 + 8 + 1 + 8

#: Bytes it holds per interval (start row): the maximum, the chosen cut, its
#: value and count, the improvement mask and the update indices.
_ROW_BYTES = 128


class KernelUnavailableError(RuntimeError):
    """An explicitly requested kernel cannot run in this environment."""


# --------------------------------------------------------------------------- #
# Optional numba tier
# --------------------------------------------------------------------------- #
_NUMBA_SWEEP = None


def numba_available() -> bool:
    """Whether the ``numba`` tier can be compiled in this environment."""
    try:
        import numba  # noqa: F401
    except Exception:  # pragma: no cover - exercised on numba-less runners
        return False
    return True


def _numba_sweep_compiled():
    """Compile (once) and return the njit sweep; raises when numba is absent."""
    global _NUMBA_SWEEP
    if _NUMBA_SWEEP is not None:
        return _NUMBA_SWEEP
    import numba

    @numba.njit(cache=False)
    def sweep(best, cut, count, epsilon, no_eligible):  # pragma: no cover - needs numba
        n = best.shape[0]
        for length in range(1, n):
            for i in range(n - length):
                j = i + length
                # Pass 1: exact maximum of the candidate cut values.
                top = best[i, i] + best[i + 1, j]
                for k in range(1, length):
                    v = best[i, i + k] + best[i + k + 1, j]
                    if v > top:
                        top = v
                # Pass 2: first cut with the minimal aggregate count among
                # the epsilon-eligible ones (== argmin of the masked counts).
                threshold = top - epsilon
                best_k = 0
                best_count = no_eligible
                for k in range(length):
                    v = best[i, i + k] + best[i + k + 1, j]
                    if v >= threshold:
                        c = count[i, i + k] + count[i + k + 1, j]
                        if c < best_count:
                            best_count = c
                            best_k = k
                value = best[i, i + best_k] + best[i + best_k + 1, j]
                current = best[i, j]
                if value > current + epsilon or (
                    value > current - epsilon and best_count < count[i, j]
                ):
                    best[i, j] = value
                    count[i, j] = best_count
                    cut[i, j] = i + best_k
        return None

    _NUMBA_SWEEP = sweep
    return sweep


# --------------------------------------------------------------------------- #
# Selection
# --------------------------------------------------------------------------- #
def available_kernels() -> tuple[str, ...]:
    """The kernel tiers runnable in this environment."""
    if numba_available():
        return KERNELS
    return tuple(name for name in KERNELS if name != "numba")


def default_kernel(n_slices: "int | None" = None) -> str:
    """The process-wide default tier: ``REPRO_KERNEL`` or auto-detection.

    Auto-detection prefers ``numba``; without it the choice is size-aware —
    ``blocked`` once the table reaches :data:`BLOCKED_MIN_SLICES` (where the
    cache-friendly access order pays for its transpose upkeep), ``numpy``
    below (and whenever the table size is unknown and small sizes are the
    common case).
    """
    requested = os.environ.get(KERNEL_ENV, "").strip().lower()
    if requested and requested != "auto":
        return resolve_kernel(requested)
    if numba_available():
        return "numba"
    if n_slices is not None and n_slices >= BLOCKED_MIN_SLICES:
        return "blocked"
    return "numpy"


def resolve_kernel(kernel: "str | None", n_slices: "int | None" = None) -> str:
    """Validate a kernel name (``None``/``"auto"`` pick the default)."""
    if kernel is None:
        return default_kernel(n_slices)
    name = str(kernel).strip().lower()
    if name == "auto":
        return default_kernel(n_slices)
    if name not in KERNELS:
        raise KernelUnavailableError(
            f"unknown kernel {kernel!r} (choose from {', '.join(KERNELS)}, auto)"
        )
    if name == "numba" and not numba_available():
        raise KernelUnavailableError(
            "kernel 'numba' requested but numba is not importable; "
            "install numba or use --kernel blocked"
        )
    return name


def set_default_kernel(kernel: "str | None") -> str:
    """Set (and export) the process-wide default kernel; returns the choice.

    The choice is written to ``REPRO_KERNEL`` so process-pool workers — which
    resolve the default on their side — inherit it through the environment.
    """
    if kernel is None:
        os.environ.pop(KERNEL_ENV, None)
        return default_kernel()
    name = resolve_kernel(kernel)
    os.environ[KERNEL_ENV] = name
    return name


# --------------------------------------------------------------------------- #
# numpy tier — the anti-diagonal strided sweep over a slab of nodes
# --------------------------------------------------------------------------- #
def _no_eligible(count: np.ndarray) -> int:
    """The masked-count sentinel of a cut that is not epsilon-eligible.

    The largest value of the count tables' dtype (int32 in Algorithm 1,
    whose counts stay below it), so the masked counts keep that dtype.
    """
    return int(np.iinfo(count.dtype).max)


def _slab(table: np.ndarray) -> np.ndarray:
    """``table`` as an ``(N, T, T)`` slab: a single ``(T, T)`` table is ``N = 1``."""
    return table[np.newaxis] if table.ndim == 2 else table


def _cut_windows(slab: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two strided windows the anti-diagonal sweep reads ``slab`` through.

    ``left[n, i, k] = slab[n, i, i + k]`` — the finalized cells of row ``i``
    (the left part of a cut after slice ``i + k``) — and ``right[n, r, m] =
    slab[n, r - m, r]`` — the finalized cells above ``(r, r)`` in column
    ``r`` (the right parts, read upwards).  Both are zero-copy views aliasing
    ``slab``, so in-place updates between sweeps are visible immediately.

    The rectangular hull of either window extends past the underlying buffer;
    callers must only access the in-bounds slices ``left[:, :T - L, :L]`` and
    ``right[:, L:, :L]`` for an interval length ``L``, which is exactly what
    :func:`temporal_cuts_numpy` does.
    """
    n_nodes, n = slab.shape[:2]
    sn, s0, s1 = slab.strides
    left = as_strided(slab, shape=(n_nodes, n, n), strides=(sn, s0 + s1, s1))
    right = as_strided(slab, shape=(n_nodes, n, n), strides=(sn, s0 + s1, -s0))
    return left, right


def temporal_cuts_numpy(
    best: np.ndarray, cut: np.ndarray, count: np.ndarray, epsilon: float
) -> None:
    """Apply the optimal temporal cuts to ``best``/``cut``/``count`` in place.

    The tables are ``(N, T, T)`` slabs (or one ``(T, T)`` table).  ``best``
    must already hold, for every cell, the better of "no cut" and "spatial
    cut".  Sweeps interval lengths in increasing order; every candidate read
    touches only shorter (finalized) intervals of the same node.  Each length
    runs over every node at once, in node chunks sized by
    :data:`SWEEP_BATCH_BYTES`.
    """
    best, cut, count = _slab(best), _slab(cut), _slab(count)
    n_nodes, n_slices = best.shape[:2]
    no_eligible = _no_eligible(count)
    best_left, best_right = _cut_windows(best)
    count_left, count_right = _cut_windows(count)
    for length in range(1, n_slices):
        m = n_slices - length
        chunk = max(1, SWEEP_BATCH_BYTES // (m * (length * _CELL_BYTES + _ROW_BYTES)))
        for lo in range(0, n_nodes, chunk):
            hi = min(lo + chunk, n_nodes)
            # values[n, i, k] = best[n, i, i + k] + best[n, i + k + 1, i + length];
            # the right window is read upwards, hence the reversed column slice.
            values = best_left[lo:hi, :m, :length] + best_right[lo:hi, length:, length - 1 :: -1]
            counts = count_left[lo:hi, :m, :length] + count_right[lo:hi, length:, length - 1 :: -1]
            top = values.max(axis=-1, keepdims=True)
            # Among cuts whose pIC ties with the best one, prefer the coarsest
            # resulting partition (argmin returns the first minimal cut).
            eligible = values >= top - epsilon
            k = np.where(eligible, counts, no_eligible).argmin(axis=-1)[..., np.newaxis]
            value = np.take_along_axis(values, k, axis=-1)[..., 0]
            cut_count = np.take_along_axis(counts, k, axis=-1)[..., 0]
            current = np.diagonal(best[lo:hi], offset=length, axis1=1, axis2=2)
            current_count = np.diagonal(count[lo:hi], offset=length, axis1=1, axis2=2)
            improve = (value > current + epsilon) | (
                (value > current - epsilon) & (cut_count < current_count)
            )
            if improve.any():
                nodes, rows = np.nonzero(improve)
                nodes += lo
                cols = rows + length
                best[nodes, rows, cols] = value[improve]
                count[nodes, rows, cols] = cut_count[improve]
                cut[nodes, rows, cols] = rows + k[..., 0][improve]


# --------------------------------------------------------------------------- #
# blocked tier — transpose-buffered, row-blocked sweep
# --------------------------------------------------------------------------- #
def temporal_cuts_blocked(
    best: np.ndarray,
    cut: np.ndarray,
    count: np.ndarray,
    epsilon: float,
    block: int = _ROW_BLOCK,
) -> None:
    """Cache-blocked variant of :func:`temporal_cuts_numpy` (bit-identical).

    Runs node by node over an ``(N, T, T)`` slab (or one ``(T, T)`` table).
    Maintains C-contiguous transposes of ``best``/``count`` so the right-hand
    operand ``best[i + k + 1, i + L]`` is read as the row-contiguous window
    ``bestT[i + L, i + 1 + k]`` instead of a negative-stride column walk, and
    processes starts in blocks of ``block`` rows to bound the temporaries.
    The candidate values are the same two-operand additions on the same
    float64 values in the same element order as the numpy tier, and the
    max / eligibility / argmin tie-break operate on those same values — so
    every table cell comes out bit-for-bit identical.
    """
    for node in zip(_slab(best), _slab(cut), _slab(count)):
        _blocked_node(*node, epsilon, block)


def _blocked_node(
    best: np.ndarray, cut: np.ndarray, count: np.ndarray, epsilon: float, block: int
) -> None:
    """The blocked sweep of one node's ``(T, T)`` tables."""
    n_slices = best.shape[0]
    if n_slices <= 1:
        return
    no_eligible = _no_eligible(count)
    best_t = np.ascontiguousarray(best.T)
    count_t = np.ascontiguousarray(count.T)
    s0, s1 = best.strides
    c0, c1 = count.strides
    t0, t1 = best_t.strides
    u0, u1 = count_t.strides
    for length in range(1, n_slices):
        m = n_slices - length
        # left[i, k] = best[i, i + k]; right[i, k] = bestT[i + L, i + 1 + k]
        # == best[i + k + 1, i + L] — both row-contiguous along k.
        left = as_strided(best, shape=(m, length), strides=(s0 + s1, s1))
        left_c = as_strided(count, shape=(m, length), strides=(c0 + c1, c1))
        right = as_strided(best_t[length:, 1:], shape=(m, length), strides=(t0 + t1, t1))
        right_c = as_strided(count_t[length:, 1:], shape=(m, length), strides=(u0 + u1, u1))
        for lo in range(0, m, block):
            hi = min(lo + block, m)
            starts = np.arange(lo, hi)
            values = left[lo:hi] + right[lo:hi]
            counts = left_c[lo:hi] + right_c[lo:hi]
            top = values.max(axis=1, keepdims=True)
            eligible = values >= top - epsilon
            k = np.where(eligible, counts, no_eligible).argmin(axis=1)
            local = starts - lo
            value = values[local, k]
            cut_count = counts[local, k]
            ends = starts + length
            current = best[starts, ends]
            current_count = count[starts, ends]
            improve = (value > current + epsilon) | (
                (value > current - epsilon) & (cut_count < current_count)
            )
            if improve.any():
                rows = starts[improve]
                cols = rows + length
                new_value = value[improve]
                new_count = cut_count[improve]
                best[rows, cols] = new_value
                count[rows, cols] = new_count
                cut[rows, cols] = rows + k[improve]
                # Keep the transpose buffers exact mirrors: within one length
                # the updated cells (i, i + L) are never read back, so the
                # mirrored write order is irrelevant to the result.
                best_t[cols, rows] = new_value
                count_t[cols, rows] = new_count


# --------------------------------------------------------------------------- #
# numba tier
# --------------------------------------------------------------------------- #
def temporal_cuts_numba(
    best: np.ndarray, cut: np.ndarray, count: np.ndarray, epsilon: float
) -> None:
    """``numba.njit`` per-cell sweep, node by node (bit-identical; requires numba)."""
    if not numba_available():
        raise KernelUnavailableError(
            "kernel 'numba' requested but numba is not importable; "
            "install numba or use --kernel blocked"
        )
    sweep = _numba_sweep_compiled()
    no_eligible = _no_eligible(count)
    for node in zip(_slab(best), _slab(cut), _slab(count)):
        sweep(*node, float(epsilon), no_eligible)


_SWEEPS = {
    "numpy": temporal_cuts_numpy,
    "blocked": temporal_cuts_blocked,
    "numba": temporal_cuts_numba,
}


def temporal_cuts(
    best: np.ndarray,
    cut: np.ndarray,
    count: np.ndarray,
    epsilon: float,
    kernel: "str | None" = None,
) -> None:
    """Run the temporal-cut sweep with the selected kernel tier (in place).

    ``best``/``cut``/``count`` are ``(N, T, T)`` slabs or one ``(T, T)`` table.
    """
    _SWEEPS[resolve_kernel(kernel, n_slices=best.shape[-1])](best, cut, count, epsilon)
