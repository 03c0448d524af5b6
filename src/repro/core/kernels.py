"""Selectable DP-sweep kernels for the Algorithm 1 temporal-cut recurrence (and table fill, CSV scan).

Every kernel takes a *slab* of DP tables: ``best``/``cut``/``count`` of shape
``(N, T, T)`` — one ``(T, T)`` table per hierarchy node — or a single
``(T, T)`` table, treated as ``N = 1``.  Algorithm 1 keeps its tables as one
such slab per hierarchy height (the nodes of one height are independent once
the children below them are final), so one call runs the recurrence for a
whole height.  ``best`` is float64; ``cut`` and ``count`` are int32 in
Algorithm 1 (any integer dtype works: the "no eligible cut" sentinel of the
tie-break is the largest value of ``count``'s dtype, which the counts stay
below).  Two tiers compute the very same recurrence — ``best[n, i, j] =
max over k of best[n, i, i + k] + best[n, i + k + 1, j]`` with the
coarsest-partition tie-break — and are **bit-identical by construction**
(the property suite diffs them cell by cell, no tolerances):

``numpy``
    The anti-diagonal strided sweep, vectorized over the node axis: one
    interval length of *every* node in the slab costs a constant number of
    numpy calls.  The ``(nodes, starts, cuts)`` temporaries of one length are
    bounded by :data:`SWEEP_BATCH_BYTES`: the node axis is split into chunks
    that fit.  Always available; the reference and the fallback.

``c``
    The per-cell two-pass loop of ``sweep.c`` (exact maximum, then the first
    minimal count among the epsilon-eligible cuts), node by node, reading the
    right operand through transposed mirrors so both operands are
    row-contiguous.  It performs the same IEEE additions and comparisons on
    the same float64 values as the numpy tier.  The loop comes twice
    (:data:`C_LOOPS`): ``scalar``, portable, and ``avx2``, whose cells of
    four candidates or more take the maximum in 4-lane vectors and screen
    the eligible cuts a block at a time (an exact maximum does not depend on
    the order of comparisons, so both loops store the same bits).  The
    library is built for any x86-64 CPU (the ``avx2`` loop through a
    function attribute, never ``-march=native``, because the cache key
    covers source, flags and compiler but not the CPU, and a cached library
    must load on every host sharing the cache), and its own CPU check,
    ``sweep_cpu_avx2``, decides once per process which loop is bound
    (:func:`c_loop`).  ``sweep.c`` ships with the
    package and is compiled on first use with the system ``cc`` (or ``gcc``)
    and the pinned flags :data:`C_FLAGS`: ``-ffp-contract=off`` because a
    fused multiply-add would change bits, and never ``-ffast-math``.  The
    library is cached under ``$XDG_CACHE_HOME/repro/`` (default
    ``~/.cache/repro/``), keyed by a hash of the source, the flags and the
    compiler's ``--version``, and named after the SHA-256 of its own bytes,
    which is checked before it is loaded (a truncated library would crash
    the loader).  It is only loaded from a directory owned by the current
    user and writable by no one else; when the cache directory is unusable
    the library is built in a fresh private temporary directory instead.
    Builds publish atomically (temporary file + ``os.replace``), so
    concurrent processes race safely.  Each load marks the library as used
    (its access time) and deletes all but the :data:`CACHE_KEEP` most
    recently used ones of this user.  Loaded through :mod:`ctypes`, once
    per process; the call releases the GIL.

    The same library holds the tier's cut replay, ``walk_int32``
    (:class:`CutReplay`): the stack walk that turns the ``cut`` slabs
    back into every value's aggregates, in the pop order of the Python walk
    (``SpatiotemporalAggregator._walk``, the ``numpy`` tier's replay).  It
    only moves integers, so both tiers' aggregates are equal element for
    element.  A library without it is never loaded.

    It also holds the ``mean`` operator's gain/loss table fill
    (:func:`mean_tables_c`, which :class:`~repro.core.criteria.IntervalStatistics`
    runs on this tier for the built-in ``mean`` operator): pass 1,
    ``fill_mean_macro``, writes the macro proportions (Eq. 1) of a chunk's
    upper-triangle cells into one packed buffer; numpy takes their ``log2``;
    pass 2, ``fill_mean_gain_loss``, computes every cell's gain and loss
    (Eq. 2-3) with the numpy operator's operations per state and sums the
    states in :func:`~repro.core.operators.state_sum`'s order.  The
    logarithm stays in numpy: numpy's vectorized float64 ``log2`` (e.g. its
    AVX-512 build) does not round like the C library's on every input, so a
    ``log2`` in C would change bits on such hosts.  A library without both
    passes is never loaded.

    And it holds the CSV scan of :func:`repro.trace.io.read_csv`,
    ``csv_scan`` (:func:`csv_scan`): one stateless call per byte block
    splits the rows into four fields, interns paths and states in
    block-local hash tables and computes each timestamp whose text is on
    Clinger's exact path (digits making an integer of at most 2^53, a
    decimal exponent of at most 22 in size: one correctly rounded product
    or quotient, the bits of ``float()``), flagging the others for
    ``float()``.  It declines any block ``csv.reader`` might read otherwise
    (a quote, a NUL, a bare ``\\r``, a blank line, a row of other than four
    fields, an oversized field); the reader then runs the ``csv`` module.
    Exact floats need every double operation rounded once, to double: a
    build without ``FLT_EVAL_METHOD == 0`` reports the scan unavailable
    (:func:`csv_scan_available`) and the reader keeps to the ``csv``
    module.  A library without the scan is never loaded.

Selection: the ``REPRO_KERNEL`` environment variable (``numpy`` | ``c`` |
``auto``), overridden per-run by ``repro … --kernel`` (which calls
:func:`set_default_kernel`, also exporting the choice to child worker
processes through the environment).  *auto* picks ``c`` when it builds and
loads, and falls back to ``numpy`` silently otherwise; an explicit ``c``
that cannot be built raises :class:`KernelUnavailableError`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .operators import safe_log2

__all__ = [
    "C_FLAGS",
    "C_LOOPS",
    "SWEEP_BATCH_BYTES",
    "KERNELS",
    "KernelUnavailableError",
    "available_kernels",
    "c_loop",
    "default_kernel",
    "resolve_kernel",
    "set_default_kernel",
    "temporal_cuts",
    "temporal_cuts_numpy",
    "temporal_cuts_c",
    "CutReplay",
    "mean_tables_c",
    "CsvBlock",
    "csv_scan",
    "csv_scan_available",
    "numba_available",
]

#: Recognized kernel names, the always-available reference first.
KERNELS = ("numpy", "c")

#: Environment variable holding the process-wide default kernel.
KERNEL_ENV = "REPRO_KERNEL"

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

#: The ``c`` tier's compiler flags.  ``-ffp-contract=off`` forbids fusing a
#: multiply and an add into one FMA, which rounds once instead of twice and
#: would change bits; ``-ffast-math`` (reassociation, NaN assumptions) is
#: never used for the same reason.
C_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_C_SOURCE = Path(__file__).with_name("sweep.c")


class KernelUnavailableError(RuntimeError):
    """An explicitly requested kernel cannot run in this environment."""


def numba_available() -> bool:
    """Whether numba is importable (provenance only: no tier uses it)."""
    try:
        import numba  # noqa: F401
    except Exception:  # pragma: no cover - numba is optional
        return False
    return True


# --------------------------------------------------------------------------- #
# c tier — build, cache and load
# --------------------------------------------------------------------------- #
#: How many ``c`` libraries the cache keeps: the most recently used ones.
#: Every change of ``sweep.c``, :data:`C_FLAGS` or the compiler adds one.
CACHE_KEEP = 4


#: The compiled sweep loops of ``sweep.c``, the portable one first.
C_LOOPS = ("scalar", "avx2")

#: The two passes of the compiled ``mean`` table fill, in call order.
_FILL_PASSES = ("fill_mean_macro", "fill_mean_gain_loss")

#: What ``csv_scan`` returns for a block it read (1: declined, 2: the scan
#: cannot compute exact floats in this build).
_CSV_DONE = 0


@dataclass(frozen=True)
class _Library:
    """The loaded ``c`` library: its sweep loops, the replay, the table fill and the CSV scan.

    ``loops`` holds the loops this CPU runs, by name (:data:`C_LOOPS`), each
    as its sweeps keyed by ``count``'s dtype; ``loop`` names the one bound,
    the vector loop wherever it runs.  ``fill`` is the ``mean`` fill's two
    passes (:func:`mean_tables_c`).  ``csv`` is ``csv_scan``
    (:func:`csv_scan`), or ``None`` where the library reports it
    unavailable (a build without ``FLT_EVAL_METHOD == 0``).
    """

    loops: Dict[str, Dict[np.dtype, Callable[..., None]]]
    walk: Callable[..., int]
    fill: "tuple[Callable[..., None], Callable[..., None]]"
    csv: "Callable[..., int] | None"

    @property
    def loop(self) -> str:
        return "avx2" if "avx2" in self.loops else "scalar"

    @property
    def sweeps(self) -> Dict[np.dtype, Callable[..., None]]:
        return self.loops[self.loop]


#: The loaded ``c`` library, or why the tier is unavailable; ``None`` until
#: the first use in this process.
_C_LIBRARY: "_Library | str | None" = None
_C_LOCK = threading.Lock()


def _compiler() -> "str | None":
    """The system C compiler: ``cc``, else ``gcc``, else ``None``."""
    return shutil.which("cc") or shutil.which("gcc")


def _cache_dir() -> Path:
    """``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``)."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "repro"


def _private(path: Path, kind: int) -> bool:
    """Whether ``path`` (not a symlink) is of ``kind``, ours, and writable by no one else."""
    try:
        info = os.lstat(path)
    except OSError:
        return False
    return (
        stat.S_IFMT(info.st_mode) == kind
        and info.st_uid == os.getuid()
        and not info.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    )


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _library_key(compiler: str, source: bytes) -> str:
    """Hash of the source, the flags and the compiler's ``--version`` output."""
    version = subprocess.run(
        [compiler, "--version"], capture_output=True, timeout=60, check=False
    ).stdout
    return _digest(b"\0".join([source, " ".join(C_FLAGS).encode(), version]))


def _cpu_runs_avx2(check: Callable[[], int]) -> bool:
    """Whether this CPU runs the AVX2 loop: the library's own ``sweep_cpu_avx2``."""
    return bool(check())


def _open(path: Path) -> "_Library | None":
    """Load ``path`` if it is private, matches the digest in its name and is complete.

    Complete: it has every function of the tier, both loops, the CPU check,
    the replay, both fill passes and the CSV scan included (a library
    missing one is never loaded).  The AVX2 loop is kept only when the CPU
    check answers yes, the CSV scan only when it answers an empty block.
    """
    if not _private(path.parent, stat.S_IFDIR) or not _private(path, stat.S_IFREG):
        return None
    try:
        if _digest(path.read_bytes()) != path.stem.rsplit("-", 1)[-1]:
            return None
        library = ctypes.CDLL(str(path))
    except OSError:
        return None
    loops: Dict[str, Dict[np.dtype, Callable[..., None]]] = {}
    for loop in C_LOOPS:
        sweeps = loops[loop] = {}
        for dtype, integer in ((np.int32, ctypes.c_int32), (np.int64, ctypes.c_int64)):
            sweep = getattr(library, f"sweep_{np.dtype(dtype).name}_{loop}", None)
            if sweep is None:
                return None
            sweep.restype = None
            sweep.argtypes = (
                [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 5 + [ctypes.c_double, integer]
            )
            sweeps[np.dtype(dtype)] = sweep
    check = getattr(library, "sweep_cpu_avx2", None)
    walk = getattr(library, "walk_int32", None)
    fill = tuple(getattr(library, name, None) for name in _FILL_PASSES)
    scan = getattr(library, "csv_scan", None)
    if check is None or walk is None or None in fill or scan is None:
        return None
    check.restype = ctypes.c_int
    check.argtypes = []
    if not _cpu_runs_avx2(check):
        del loops["avx2"]
    walk.restype = ctypes.c_int64
    walk.argtypes = (
        [ctypes.c_int64] * 5 + [ctypes.c_void_p] * 3
        + [ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64]
    )
    for function, n_arrays in zip(fill, (4, 7)):
        function.restype = None
        function.argtypes = [ctypes.c_int64] * 5 + [ctypes.c_void_p] * n_arrays
    scan.restype = ctypes.c_int64
    scan.argtypes = (
        [ctypes.c_char_p] + [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 9
        + [ctypes.c_int64, ctypes.c_void_p]
    )
    empty = _ScanBuffers(0)
    available = scan(b"", 0, 0, 0, *empty.pointers()) == _CSV_DONE
    return _Library(loops, walk, fill, scan if available else None)


def _build(compiler: str, source: bytes, key: str, directory: Path) -> "Path | str":
    """Compile ``source`` into ``directory``; the library's path or an error text."""
    fd, tmp = tempfile.mkstemp(prefix=".sweep-", suffix=".so", dir=directory)
    os.close(fd)
    try:
        result = subprocess.run(
            [compiler, *C_FLAGS, "-x", "c", "-", "-o", tmp],
            input=source, capture_output=True, timeout=300, check=False,
        )
        if result.returncode != 0:
            error = result.stderr.decode(errors="replace").strip().splitlines()
            return f"{compiler} failed on {_C_SOURCE.name}: {error[-1] if error else result.returncode}"
        os.chmod(tmp, 0o755)
        path = directory / f"sweep-{key}-{_digest(Path(tmp).read_bytes())}.so"
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def _open_built(built: "Path | str") -> "_Library | str":
    """Load what :func:`_build` returned; the library or an error text."""
    if isinstance(built, str):
        return built
    return _open(built) or f"the built library {built} could not be loaded"


def _prune(cache: Path, loaded: Path) -> None:
    """Mark ``loaded`` as just used; delete all but the newest-used libraries.

    A load sets the library's access time (its modification time stays the
    build's).  The :data:`CACHE_KEEP` most recently used libraries survive,
    whatever their key, so checkouts of different versions sharing one
    cache do not rebuild each other's library.  Only regular files owned by
    this user are deleted, and never ``loaded``.
    """
    try:
        os.utime(loaded, ns=(time.time_ns(), os.lstat(loaded).st_mtime_ns))
    except OSError:
        return
    used = []
    for path in cache.glob("sweep-*.so"):
        try:
            info = os.lstat(path)
        except OSError:
            continue
        if path != loaded and stat.S_ISREG(info.st_mode) and info.st_uid == os.getuid():
            used.append((info.st_atime_ns, path))
    for _, path in sorted(used, reverse=True)[CACHE_KEEP - 1 :]:
        try:
            path.unlink()
        except OSError:
            pass


def _load_c_library() -> "_Library | str":
    """Find or build the ``c`` tier's library; the library or why there is none."""
    if os.name != "posix":
        return "the c tier needs a POSIX system"
    compiler = _compiler()
    if compiler is None:
        return "no C compiler (cc or gcc) found on PATH"
    try:
        source = _C_SOURCE.read_bytes()
        key = _library_key(compiler, source)
        cache = _cache_dir()
        try:
            cache.mkdir(mode=0o700, parents=True, exist_ok=True)
        except OSError:
            pass
        if _private(cache, stat.S_IFDIR):
            for path in sorted(cache.glob(f"sweep-{key}-*.so")):
                library = _open(path)
                if library is not None:
                    _prune(cache, path)
                    return library
            if os.access(cache, os.W_OK):
                built = _build(compiler, source, key, cache)
                library = _open_built(built)
                if isinstance(library, _Library):
                    _prune(cache, built)
                return library
        # No usable cache: build in a private directory, removed once loaded.
        with tempfile.TemporaryDirectory(prefix="repro-sweep-") as private:
            return _open_built(_build(compiler, source, key, Path(private)))
    except (OSError, subprocess.SubprocessError) as exc:
        return f"building {_C_SOURCE.name} failed: {exc}"


def _c_library() -> "_Library | str":
    """The ``c`` tier's library (built and loaded once per process), or why not."""
    global _C_LIBRARY
    with _C_LOCK:
        if _C_LIBRARY is None:
            _C_LIBRARY = _load_c_library()
        return _C_LIBRARY


def _loaded_c_library() -> _Library:
    """The ``c`` tier's library, or :class:`KernelUnavailableError`."""
    library = _c_library()
    if not isinstance(library, _Library):
        raise KernelUnavailableError(f"kernel 'c' is unavailable ({library})")
    return library


# --------------------------------------------------------------------------- #
# Selection
# --------------------------------------------------------------------------- #
def available_kernels() -> tuple[str, ...]:
    """The kernel tiers runnable in this environment."""
    return KERNELS if isinstance(_c_library(), _Library) else ("numpy",)


def c_loop() -> "str | None":
    """The compiled sweep loop bound in this process (``avx2`` or ``scalar``).

    ``None`` when the ``c`` tier is unavailable.
    """
    library = _c_library()
    return library.loop if isinstance(library, _Library) else None


def default_kernel() -> str:
    """The process-wide default tier: ``REPRO_KERNEL`` or auto-detection.

    Auto-detection picks ``c`` when its library builds and loads, else
    ``numpy``.
    """
    requested = os.environ.get(KERNEL_ENV, "").strip().lower()
    if requested and requested != "auto":
        return resolve_kernel(requested)
    return "c" if isinstance(_c_library(), _Library) else "numpy"


def resolve_kernel(kernel: "str | None") -> str:
    """Validate a kernel name (``None``/``"auto"`` pick the default)."""
    if kernel is None:
        return default_kernel()
    name = str(kernel).strip().lower()
    if name == "auto":
        return default_kernel()
    if name not in KERNELS:
        raise KernelUnavailableError(
            f"unknown kernel {kernel!r} (choose from {', '.join(KERNELS)}, auto)"
        )
    if name == "c":
        library = _c_library()
        if not isinstance(library, _Library):
            raise KernelUnavailableError(
                f"kernel 'c' requested but the C sweep is unavailable ({library}); "
                "use --kernel numpy"
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
# c tier — the compiled per-cell sweep
# --------------------------------------------------------------------------- #
def temporal_cuts_c(
    best: np.ndarray, cut: np.ndarray, count: np.ndarray, epsilon: float
) -> None:
    """The compiled sweep of ``sweep.c`` (bit-identical to the numpy tier).

    int32 and int64 counts run in C (``cut`` is converted to ``count``'s
    dtype on the way), through the loop bound in this process
    (:func:`c_loop`); other integer dtypes run the numpy tier.  Slabs that
    are not C-contiguous, or not of those dtypes, are copied in and back.
    """
    sweeps = _loaded_c_library().sweeps
    best, cut, count = _slab(best), _slab(cut), _slab(count)
    if not (best.ndim == 3 and best.shape == cut.shape == count.shape
            and best.shape[1] == best.shape[2]):
        raise ValueError(
            "best, cut and count must be (N, T, T) slabs or (T, T) tables of one shape, "
            f"got {best.shape}, {cut.shape}, {count.shape}"
        )
    if not all(table.flags.writeable for table in (best, cut, count)):
        raise ValueError("best, cut and count are updated in place and must be writeable")
    sweep = sweeps.get(count.dtype)
    if sweep is None:
        temporal_cuts_numpy(best, cut, count, epsilon)
        return
    n_nodes, n_slices = best.shape[:2]
    if n_slices <= 1:
        return
    tables = (best, cut, count)
    work = [
        np.ascontiguousarray(table, dtype=dtype)
        for table, dtype in zip(tables, (np.float64, count.dtype, count.dtype))
    ]
    best_t = np.empty((n_slices, n_slices))
    count_t = np.empty((n_slices, n_slices), dtype=count.dtype)
    sweep(
        n_nodes, n_slices, *(array.ctypes.data for array in (*work, best_t, count_t)),
        float(epsilon), _no_eligible(count),
    )
    for table, array in zip(tables, work):
        if array is not table:
            table[...] = array


class CutReplay:
    """The compiled cut replay of ``sweep.c`` over one hierarchy.

    ``rows[h]`` is the number of nodes of height ``h``; node ``k`` sits in
    row ``slot[k]`` of height ``height[k]`` and has the children
    ``children[k]``, in order.  Built once per hierarchy (the packed index
    is kept), called once per batch of values.
    """

    def __init__(
        self,
        root: int,
        rows: Sequence[int],
        height: Sequence[int],
        slot: Sequence[int],
        children: Sequence[Sequence[int]],
    ):
        self._root = root
        self._rows = tuple(rows)
        self._n_nodes = len(height)
        self._n_leaves = sum(1 for kids in children if not kids)
        child_start = np.cumsum([0, *(len(kids) for kids in children)])
        child = [kid for kids in children for kid in kids]
        self._index = np.concatenate([rows, height, slot, child_start, child]).astype(np.intp)

    def __call__(
        self, cuts: Sequence[np.ndarray]
    ) -> "tuple[np.ndarray, tuple[int, ...] | None]":
        """Every value's aggregates under the ``(P, N_h, T, T)`` int32 ``cuts[h]``.

        Each value's walk starts from ``(root, 0, T - 1)``.  The areas of
        one walk are disjoint, so it meets at most ``|S| * |T|`` of them
        (the microscopic cells), which sizes its buffers.

        Returns ``(found, bad)``: ``found`` is a ``(4, size)`` intp array
        whose rows are the value, node, start and end of every aggregate, in
        the pop order of the Python walk; ``bad`` is ``None``, or the
        ``(value, node, i, j, cut)`` of the first invalid cut met (``found``
        is then empty).  The buffers are sized for the bound with
        :func:`numpy.empty` and filled from their start, so the pages the
        walk never writes cost no memory.
        """
        if len(cuts) != len(self._rows):
            raise ValueError(f"expected {len(self._rows)} cut slabs, got {len(cuts)}")
        slabs = [np.ascontiguousarray(slab) for slab in cuts]
        n_ps, _, _, n_slices = slabs[0].shape
        for slab, rows in zip(slabs, self._rows):
            if slab.dtype != np.int32 or slab.shape != (n_ps, rows, n_slices, n_slices):
                raise ValueError(
                    f"expected int32 cut slabs of shape {(n_ps, rows, n_slices, n_slices)}, "
                    f"got {slab.dtype} {slab.shape}"
                )
        pointers = (ctypes.c_void_p * len(slabs))(*(slab.ctypes.data for slab in slabs))
        n_cells = self._n_leaves * n_slices
        # Room for the bound, and for the five entries of an invalid cut.
        found = np.empty((max(n_ps * n_cells, 2), 4), dtype=np.intp)
        stack = np.empty((n_cells, 3), dtype=np.intp)
        size = _loaded_c_library().walk(
            n_ps, n_slices, self._root, len(self._rows), self._n_nodes, pointers,
            self._index.ctypes.data, found.ctypes.data, len(found), stack.ctypes.data, n_cells,
        )
        if size == -1:
            return found[:0].T, tuple(found.flat[:5].tolist())
        if size < 0:
            raise RuntimeError("cut replay: the cut slabs do not match the hierarchy")
        return found[:size].T, None


def mean_tables_c(
    prefix_durations: np.ndarray,
    prefix_rho: np.ndarray,
    prefix_rho_log_rho: np.ndarray,
    interval_durations: np.ndarray,
    n_leaves: np.ndarray,
    lo: int,
    hi: int,
) -> "tuple[np.ndarray, np.ndarray]":
    """The ``mean`` operator's ``(gain, loss)`` of a chunk of nodes, compiled.

    The prefixes are the chunk's state-major time prefixes, ``(X, c, T + 1)``
    each; ``interval_durations`` is the ``(T, T)`` table of interval
    durations and ``n_leaves`` the ``c`` nodes' leaf counts.  Returns the
    start rows ``[lo, hi)``, both ``(c, hi - lo, T - lo)`` with zero
    lower-triangle entries: bit for bit the numpy fill's
    (``MeanOperator.gain_loss`` on the same prefixes).  Pass 1 writes the
    macro proportions of the upper-triangle cells into one packed buffer,
    numpy takes their ``log2`` (:func:`~repro.core.operators.safe_log2`, the
    call the numpy fill makes: numpy's vectorized ``log2`` rounds unlike the
    C library's on some inputs), and pass 2 scores every cell.
    """
    fill_macro, fill_gain_loss = _loaded_c_library().fill
    n_states, n_nodes, n_slices = np.shape(prefix_durations)
    n_slices -= 1
    prefixes = [
        np.ascontiguousarray(prefix, dtype=np.float64)
        for prefix in (prefix_durations, prefix_rho, prefix_rho_log_rho)
    ]
    for prefix in prefixes:
        if prefix.shape != (n_states, n_nodes, n_slices + 1):
            raise ValueError(f"prefixes of different shapes: {[p.shape for p in prefixes]}")
    durations = np.ascontiguousarray(interval_durations, dtype=np.float64)
    leaves = np.ascontiguousarray(n_leaves, dtype=np.float64)
    if durations.shape != (n_slices, n_slices) or leaves.shape != (n_nodes,):
        raise ValueError(
            f"expected ({n_slices}, {n_slices}) durations and ({n_nodes},) leaf counts, "
            f"got {durations.shape} and {leaves.shape}"
        )
    if not 0 <= lo < hi <= n_slices:
        raise ValueError(f"invalid start rows [{lo}, {hi}) for |T| = {n_slices}")
    shape = (n_states, n_nodes, n_slices, lo, hi)
    cells = (hi - lo) * n_slices - (lo + hi - 1) * (hi - lo) // 2
    macro = np.empty(n_states * n_nodes * cells)
    fill_macro(*shape, *(array.ctypes.data for array in (prefixes[0], durations, leaves, macro)))
    log_macro = safe_log2(macro)
    gain = np.empty((n_nodes, hi - lo, n_slices - lo))
    loss = np.empty_like(gain)
    scratch = np.empty(2 * n_states)
    fill_gain_loss(
        *shape,
        *(array.ctypes.data for array in (*prefixes[1:], macro, log_macro, gain, loss, scratch)),
    )
    return gain, loss


class _ScanBuffers:
    """The output arrays of one ``csv_scan`` call over at most ``capacity`` rows."""

    def __init__(self, capacity: int):
        #: Slots per name table: a power of two of at least twice the rows.
        self.table_size = 1 << max(1, (2 * capacity - 1).bit_length())
        self.starts = np.empty(capacity)
        self.ends = np.empty(capacity)
        self.flags = np.empty(capacity, dtype=np.uint8)
        self.row_starts = np.empty(capacity, dtype=np.int64)
        self.paths = np.empty(capacity, dtype=np.int32)
        self.states = np.empty(capacity, dtype=np.int32)
        self.path_keys = np.empty((capacity, 2), dtype=np.int64)
        self.state_keys = np.empty((capacity, 2), dtype=np.int64)
        self.slots = np.empty(2 * self.table_size, dtype=np.int32)
        self.counts = np.zeros(3, dtype=np.int64)

    def pointers(self) -> tuple:
        arrays = (
            self.starts, self.ends, self.flags, self.row_starts, self.paths, self.states,
            self.path_keys, self.state_keys, self.slots,
        )
        return (*(array.ctypes.data for array in arrays), self.table_size, self.counts.ctypes.data)


@dataclass(frozen=True)
class CsvBlock:
    """The rows of one CSV byte block, as :func:`csv_scan` read them.

    Row ``r`` has the block-local path and state codes ``paths[r]`` and
    ``states[r]`` (each in order of first appearance in the block), whose
    names are the bytes ``block[offset:offset + length]`` of the rows of
    ``path_keys`` and ``state_keys``.  ``starts[r]`` and ``ends[r]`` are its
    timestamps, except where bit 0 (start) or bit 1 (end) of ``flags[r]``
    is set: that text is not on the scan's exact path and needs
    ``float()``.  The row's text starts at ``row_starts[r]``.
    """

    starts: np.ndarray
    ends: np.ndarray
    flags: np.ndarray
    row_starts: np.ndarray
    paths: np.ndarray
    states: np.ndarray
    path_keys: np.ndarray
    state_keys: np.ndarray


def csv_scan_available() -> bool:
    """Whether the ``c`` library loads and its CSV scan computes exact floats."""
    library = _c_library()
    return isinstance(library, _Library) and library.csv is not None


def csv_scan(data: bytes, size: int, field_limit: int) -> "CsvBlock | None":
    """The rows of ``data[:size]`` through ``sweep.c``'s ``csv_scan``, or ``None`` if it declines.

    The block holds whole CSV rows of four fields, each ended by ``\\n`` or
    ``\\r\\n`` (the last one may have no end).  The scan declines a block
    holding a quote, a NUL, a bare ``\\r``, a blank line, a row of other than
    four fields or a field of more than ``field_limit`` bytes (pass
    ``csv.field_size_limit()``): those are left to the ``csv`` module.  It
    also declines a block of more than ``size // 8 + 1`` rows, the room its
    buffers have: such a block has a row shorter than ``a,s,0,1`` and its
    newline, so a row with an empty field, which no trace row may have.
    Raises :class:`KernelUnavailableError` where :func:`csv_scan_available`
    is false.
    """
    scan = _loaded_c_library().csv
    if scan is None:
        raise KernelUnavailableError("the c library's CSV scan is unavailable in this build")
    if not 0 <= size <= len(data):
        raise ValueError(f"block size {size} outside the {len(data)} bytes given")
    out = _ScanBuffers(size // 8 + 1)
    if scan(data, size, field_limit, len(out.starts), *out.pointers()) != _CSV_DONE:
        return None
    rows, n_paths, n_states = out.counts.tolist()
    return CsvBlock(
        out.starts[:rows], out.ends[:rows], out.flags[:rows], out.row_starts[:rows],
        out.paths[:rows], out.states[:rows], out.path_keys[:n_paths], out.state_keys[:n_states],
    )


_SWEEPS = {"numpy": temporal_cuts_numpy, "c": temporal_cuts_c}


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
    _SWEEPS[resolve_kernel(kernel)](best, cut, count, epsilon)
