"""Selection, build, cache and load of the compiled ``c`` DP-sweep tier.

The ``c`` tier compiles ``sweep.c`` on first use and loads it through
``ctypes``.  These tests pin the behaviour around that step:

* without a compiler, *auto* runs ``numpy`` and an explicit ``c`` request is
  a :class:`KernelUnavailableError` (a clean CLI error, no traceback);
* a truncated or garbage library in the cache is rebuilt, never loaded (a
  truncated ELF would crash the loader);
* a cache directory another user owns, or that is group- or world-writable,
  is never loaded from;
* concurrent first uses publish one loadable library;
* a load keeps the cache to the ``CACHE_KEEP`` most recently used
  libraries, deleting only this user's files and never the one it loaded;
* every library carries both sweep loops (``scalar`` and ``avx2``) and the
  CPU check that picks one, and one missing any of them is never loaded;
  without AVX2 the scalar loop is bound and analyses keep their bytes; a
  vector screen that visits eligible cuts out of index order is caught.

Build behaviour runs in fresh interpreters with ``XDG_CACHE_HOME`` pointing
at a temporary directory, so every case starts from an empty process state
and never touches the user's cache.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.cli import main
from repro.core import kernels
from repro.core.criteria import IntervalStatistics
from repro.core.hierarchy import Hierarchy
from repro.core.kernels import KernelUnavailableError
from repro.core.microscopic import MicroscopicModel
from repro.core.operators import MeanOperator, available_operators
from repro.core.spatiotemporal import SpatiotemporalAggregator
from repro.trace.states import StateRegistry

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "properties"))
from test_property_engine import _mean_tables_numpy  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]
TRACE = ROOT / "tests" / "data" / "corpus" / "case_a.csv"

needs_c = pytest.mark.skipif(
    "c" not in kernels.available_kernels(), reason="no C compiler: the c tier is unavailable"
)

#: Prints what a fresh process sees of the c tier as one JSON line.
_PROBE = """
import json, numpy as np
from repro.core import kernels
tiers = kernels.available_kernels()
result = {"tiers": list(tiers), "default": kernels.default_kernel()}
if "c" in tiers:
    best = np.triu(np.arange(36.0).reshape(6, 6) % 5)
    tables = [best.copy(), np.zeros((6, 6), np.int32), np.ones((6, 6), np.int32)]
    kernels.temporal_cuts_c(*tables, 1e-9)
    result["pic"] = tables[0].tolist()
print(json.dumps(result))
"""


def _env(cache_home: Path, **extra: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != kernels.KERNEL_ENV}
    env.update(
        XDG_CACHE_HOME=str(cache_home),
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")]),
        **extra,
    )
    return env


def _probe(cache_home: Path, **extra: str) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", _PROBE], env=_env(cache_home, **extra),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _libraries(directory: Path) -> list[Path]:
    return sorted(directory.glob("sweep-*.so"))


def _intact(path: Path) -> bool:
    return kernels._digest(path.read_bytes()) == path.stem.rsplit("-", 1)[-1]


class TestSelection:
    @needs_c
    def test_auto_picks_c(self, monkeypatch):
        monkeypatch.delenv(kernels.KERNEL_ENV, raising=False)
        assert kernels.available_kernels() == ("numpy", "c")
        assert kernels.default_kernel() == "c"
        assert kernels.resolve_kernel("auto") == "c"

    def test_unknown_kernel_is_an_error(self):
        for name in ("blocked", "numba", "fortran"):
            with pytest.raises(KernelUnavailableError, match="unknown kernel"):
                kernels.resolve_kernel(name)

    def test_without_a_compiler_auto_runs_numpy_and_c_is_an_error(
        self, monkeypatch, random_model
    ):
        monkeypatch.setattr(kernels, "_compiler", lambda: None)
        monkeypatch.setattr(kernels, "_C_LIBRARY", None)
        monkeypatch.delenv(kernels.KERNEL_ENV, raising=False)
        assert kernels.available_kernels() == ("numpy",)
        assert kernels.default_kernel() == "numpy"
        assert SpatiotemporalAggregator(random_model).kernel == "numpy"
        with pytest.raises(KernelUnavailableError, match="no C compiler"):
            kernels.resolve_kernel("c")
        with pytest.raises(KernelUnavailableError, match="no C compiler"):
            SpatiotemporalAggregator(random_model, kernel="c")
        tables = (np.zeros((3, 3)), np.zeros((3, 3), np.int32), np.ones((3, 3), np.int32))
        with pytest.raises(KernelUnavailableError):
            kernels.temporal_cuts(*tables, 1e-9, kernel="c")
        monkeypatch.setenv(kernels.KERNEL_ENV, "c")
        with pytest.raises(KernelUnavailableError, match="no C compiler"):
            kernels.default_kernel()

    def test_without_a_compiler_the_cli_reports_an_explicit_c_request(
        self, monkeypatch, capsys
    ):
        monkeypatch.setattr(kernels, "_compiler", lambda: None)
        monkeypatch.setattr(kernels, "_C_LIBRARY", None)
        monkeypatch.setenv(kernels.KERNEL_ENV, "auto")
        assert main(["analyze", str(TRACE), "--slices", "8", "--kernel", "c"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: kernel 'c' requested") and "Traceback" not in err
        assert main(["analyze", str(TRACE), "--slices", "8", "--json"]) == 0

    def test_no_compiler_on_path_falls_back_in_a_fresh_process(self, tmp_path):
        result = _probe(tmp_path, PATH="")
        assert result == {"tiers": ["numpy"], "default": "numpy"}
        assert not _libraries(tmp_path / "repro")

    @needs_c
    def test_analyze_json_is_byte_identical_across_tiers_and_jobs(self, monkeypatch, capsys):
        monkeypatch.setenv(kernels.KERNEL_ENV, "auto")
        outputs = {}
        for label, extra in (
            ("numpy", ["--kernel", "numpy"]),
            ("c", ["--kernel", "c"]),
            ("c-jobs2", ["--kernel", "c", "--jobs", "2"]),
        ):
            assert main(["analyze", str(TRACE), "--slices", "20", "--json", *extra]) == 0
            outputs[label] = capsys.readouterr().out
        assert outputs["c"] == outputs["numpy"]
        assert outputs["c-jobs2"] == outputs["numpy"]


@needs_c
@pytest.mark.parametrize(
    "shapes",
    [
        ((2, 4, 4), (2, 4, 4), (1, 4, 4)),
        ((4, 4), (4, 5), (4, 4)),
        ((2, 3, 4),) * 3,
        ((2, 2, 4, 4),) * 3,
    ],
)
def test_c_rejects_tables_that_are_not_one_slab_shape(shapes):
    # The native loop indexes all three tables as (N, T, T): any other
    # layout would read or write out of bounds, so it never gets there.
    best, cut, count = (
        np.zeros(shape, dtype=dtype)
        for shape, dtype in zip(shapes, (np.float64, np.int32, np.int32))
    )
    with pytest.raises(ValueError, match="one shape"):
        kernels.temporal_cuts_c(best, cut, count, 1e-9)


@needs_c
@pytest.mark.parametrize("frozen", [0, 1, 2])
def test_c_rejects_read_only_tables(frozen):
    # A read-only C-contiguous table would be handed to the native loop as is.
    tables = [np.zeros((2, 4, 4)), np.zeros((2, 4, 4), np.int32), np.ones((2, 4, 4), np.int32)]
    tables[frozen].flags.writeable = False
    with pytest.raises(ValueError, match="writeable"):
        kernels.temporal_cuts_c(*tables, 1e-9)


@needs_c
class TestBuildAndCache:
    def test_first_use_builds_one_private_library(self, tmp_path):
        result = _probe(tmp_path)
        assert result["tiers"] == ["numpy", "c"] and result["default"] == "c"
        cache = tmp_path / "repro"
        (library,) = _libraries(cache)
        assert _intact(library)
        assert not cache.stat().st_mode & 0o077
        assert not library.stat().st_mode & 0o022
        assert not list(cache.glob(".sweep-*"))  # no temporary left behind
        # A second process loads the published library instead of rebuilding.
        before = library.stat()
        assert _probe(tmp_path) == result
        after = library.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    @pytest.mark.parametrize("damage", ["truncated", "garbage", "empty"])
    def test_damaged_library_is_rebuilt_not_loaded(self, tmp_path, damage):
        reference = _probe(tmp_path)
        (library,) = _libraries(tmp_path / "repro")
        data = library.read_bytes()
        # Replaced, never rewritten in place: nothing maps the old file then.
        library.unlink()
        library.write_bytes(
            {"truncated": data[: len(data) // 2], "garbage": os.urandom(len(data)), "empty": b""}[
                damage
            ]
        )
        os.chmod(library, 0o755)
        assert _probe(tmp_path) == reference
        assert all(_intact(path) for path in _libraries(tmp_path / "repro"))

    def test_unusable_cache_location_builds_in_a_private_temporary(self, tmp_path):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        result = _probe(not_a_dir)
        assert result["default"] == "c"
        assert not_a_dir.read_text() == ""

    @pytest.mark.parametrize(
        "unsafe", ["group-writable", "world-writable", "foreign-owner", "library-writable"]
    )
    def test_unsafe_cache_is_never_loaded_from(self, tmp_path, unsafe):
        compiler = kernels._compiler()
        cache = tmp_path / "repro"
        cache.mkdir(mode=0o700)
        # A planted library under the very name the cache would look up,
        # announcing through a marker file whether it was ever loaded.
        source = kernels._C_SOURCE.read_bytes() + (
            b"\n#include <stdio.h>\n#include <stdlib.h>\n"
            b"__attribute__((constructor)) static void planted(void) {\n"
            b'    FILE *f = fopen(getenv("PLANTED_MARKER"), "w"); if (f) fclose(f);\n}\n'
        )
        built = tmp_path / "planted.so"
        subprocess.run(
            [compiler, *kernels.C_FLAGS, "-x", "c", "-", "-o", str(built)],
            input=source, check=True, timeout=300,
        )
        key = kernels._library_key(compiler, kernels._C_SOURCE.read_bytes())
        planted = cache / f"sweep-{key}-{kernels._digest(built.read_bytes())}.so"
        shutil.copyfile(built, planted)
        os.chmod(planted, 0o755)
        marker = tmp_path / "loaded"

        # Control: in a private cache the planted library is found and loaded.
        result = _probe(tmp_path, PLANTED_MARKER=str(marker))
        assert marker.exists() and result["default"] == "c"
        marker.unlink()

        if unsafe == "group-writable":
            os.chmod(cache, 0o770)
        elif unsafe == "world-writable":
            os.chmod(cache, 0o707)
        elif unsafe == "library-writable":
            os.chmod(planted, 0o777)
        else:
            if os.geteuid() != 0:
                pytest.skip("giving the cache to another user needs root")
            os.chown(cache, 65534, 65534)
            os.chown(planted, 65534, 65534)
        listing = sorted(path.name for path in cache.iterdir())
        unsafe_result = _probe(tmp_path, PLANTED_MARKER=str(marker))
        assert not marker.exists()
        assert unsafe_result == result  # the tier still works, built privately
        if unsafe != "library-writable":
            assert sorted(path.name for path in cache.iterdir()) == listing

    def test_concurrent_first_uses_publish_one_library(self, tmp_path):
        processes = [
            subprocess.Popen(
                [sys.executable, "-c", _PROBE], env=_env(tmp_path),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for _ in range(2)
        ]
        results = []
        for process in processes:
            out, err = process.communicate(timeout=300)
            assert process.returncode == 0, err
            results.append(json.loads(out))
        assert results[0] == results[1] and results[0]["default"] == "c"
        cache = tmp_path / "repro"
        (library,) = _libraries(cache)
        assert _intact(library)
        assert not list(cache.glob(".sweep-*"))
        assert _probe(tmp_path) == results[0]


class TestCachePruning:
    """The cache keeps the ``CACHE_KEEP`` most recently used libraries."""

    @staticmethod
    def _plant(cache: Path, count: int, first_atime: int) -> list[Path]:
        """``count`` stale libraries of other keys, oldest use first."""
        cache.mkdir(mode=0o700, exist_ok=True)
        planted = []
        for index in range(count):
            path = cache / f"sweep-{index:016x}-{index:016x}.so"
            path.write_bytes(b"stale")
            os.utime(path, (first_atime + index, first_atime))
            planted.append(path)
        return planted

    @needs_c
    def test_a_load_removes_stale_libraries_and_keeps_the_loaded_one(self, tmp_path):
        cache = tmp_path / "repro"
        reference = _probe(tmp_path)
        (library,) = _libraries(cache)
        # The real library is the least recently used file before the load.
        os.utime(library, (1_000, library.stat().st_mtime))
        planted = self._plant(cache, kernels.CACHE_KEEP + 3, first_atime=2_000)
        assert _probe(tmp_path) == reference
        survivors = _libraries(cache)
        assert library in survivors and _intact(library)
        assert library.stat().st_atime > planted[-1].stat().st_atime
        assert sorted(survivors) == sorted(
            [library, *planted[-(kernels.CACHE_KEEP - 1):]]
        )
        assert not list(cache.glob(".sweep-*"))

    @needs_c
    def test_a_fresh_build_prunes_too(self, tmp_path):
        cache = tmp_path / "repro"
        planted = self._plant(cache, kernels.CACHE_KEEP + 1, first_atime=2_000)
        assert _probe(tmp_path)["default"] == "c"
        built = [path for path in _libraries(cache) if path not in planted]
        assert len(built) == 1 and _intact(built[0])
        assert sorted(_libraries(cache)) == sorted(
            built + planted[-(kernels.CACHE_KEEP - 1):]
        )

    def test_foreign_owned_libraries_are_left_alone(self, tmp_path, monkeypatch):
        cache = tmp_path / "repro"
        planted = self._plant(cache, kernels.CACHE_KEEP + 3, first_atime=2_000)
        loaded = planted[0]
        # Every file belongs to the real uid: to another "current" user
        # they are all foreign, and none may be deleted.
        real_uid = os.getuid()
        monkeypatch.setattr(kernels.os, "getuid", lambda: real_uid + 1)
        kernels._prune(cache, loaded)
        assert _libraries(cache) == sorted(planted)
        monkeypatch.undo()
        kernels._prune(cache, loaded)
        assert sorted(_libraries(cache)) == sorted(
            [loaded, *planted[-(kernels.CACHE_KEEP - 1):]]
        )

    def test_symlinks_and_temporaries_are_left_alone(self, tmp_path):
        cache = tmp_path / "repro"
        planted = self._plant(cache, kernels.CACHE_KEEP + 2, first_atime=2_000)
        target = tmp_path / "elsewhere.so"
        target.write_bytes(b"not ours to delete")
        link = cache / "sweep-link-0000000000000000.so"
        link.symlink_to(target)
        temporary = cache / ".sweep-abc.so"
        temporary.write_bytes(b"a build in progress")
        os.utime(temporary, (0, 0))
        kernels._prune(cache, planted[-1])
        assert link.is_symlink() and target.exists() and temporary.exists()
        assert len([p for p in _libraries(cache) if not p.is_symlink()]) == kernels.CACHE_KEEP


def _compile_private(directory: Path, label: str, source: bytes, *flags: str) -> Path:
    """``source`` built with the tier's flags into ``directory``, named as the cache names it."""
    directory.mkdir(mode=0o700, exist_ok=True)
    built = directory.parent / f"{label}.so"
    subprocess.run(
        [kernels._compiler(), *kernels.C_FLAGS, *flags, "-x", "c", "-", "-o", str(built)],
        input=source, check=True, timeout=300,
    )
    data = built.read_bytes()
    path = directory / f"sweep-{label}-{kernels._digest(data)}.so"
    path.write_bytes(data)
    os.chmod(path, 0o755)
    return path


def _cpu_flags_list_avx2() -> "bool | None":
    """Whether the kernel's CPU flags list AVX2 (``None`` off Linux)."""
    try:
        flags = Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return None
    return "avx2" in flags


def _tie_heavy_slab() -> list:
    """``(best, cut, count)`` whose cells tie on value and count: the order
    in which eligible cuts are visited decides the chosen one."""
    rng = np.random.default_rng(7)
    best = np.triu(np.round(rng.uniform(-1.0, 1.0, (3, 24, 24)) * 2.0) / 2.0)
    count = rng.integers(1, 3, best.shape, dtype=np.int32)
    return [best, np.zeros(best.shape, np.int32), count]


def _sweep_bits(tables: list, run) -> list:
    tables = [table.copy() for table in tables]
    run(*tables, 1e-9)
    return [tables[0].view(np.int64).tolist(), tables[1].tolist(), tables[2].tolist()]


@needs_c
class TestCompiledLoops:
    """Both sweep loops of ``sweep.c``, and the CPU check that binds one."""

    def test_the_bound_loop_follows_the_cpu(self):
        library = kernels._loaded_c_library()
        listed = _cpu_flags_list_avx2()
        if listed is None:
            pytest.skip("no /proc/cpuinfo to check the CPU against")
        expected = "avx2" if listed else "scalar"
        assert kernels.c_loop() == library.loop == expected
        assert set(library.loops) == ({"scalar", "avx2"} if listed else {"scalar"})
        assert {dtype.name: sweep.__name__ for dtype, sweep in library.sweeps.items()} == {
            "int32": f"sweep_int32_{expected}", "int64": f"sweep_int64_{expected}",
        }

    def test_without_avx2_the_scalar_loop_is_bound_and_analyses_keep_their_bytes(
        self, monkeypatch, capsys, tmp_path
    ):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(kernels, "_cpu_runs_avx2", lambda check: False)
        monkeypatch.setattr(kernels, "_C_LIBRARY", None)
        monkeypatch.setenv(kernels.KERNEL_ENV, "auto")
        assert kernels.c_loop() == "scalar"
        library = kernels._loaded_c_library()
        assert list(library.loops) == ["scalar"]
        assert {dtype.name: sweep.__name__ for dtype, sweep in library.sweeps.items()} == {
            "int32": "sweep_int32_scalar", "int64": "sweep_int64_scalar",
        }
        outputs = {}
        for label, extra in (
            ("numpy", ["--kernel", "numpy"]),
            ("c", ["--kernel", "c"]),
            ("c-jobs2", ["--kernel", "c", "--jobs", "2"]),
        ):
            assert main(["analyze", str(TRACE), "--slices", "40", "--json", *extra]) == 0
            outputs[label] = capsys.readouterr().out
        assert outputs["c"] == outputs["numpy"]
        assert outputs["c-jobs2"] == outputs["numpy"]

    @pytest.mark.parametrize(
        "missing",
        ["sweep_cpu_avx2", "sweep_int32_scalar", "sweep_int64_scalar",
         "sweep_int32_avx2", "sweep_int64_avx2"],
    )
    def test_a_library_missing_a_loop_or_the_cpu_check_is_never_loaded(self, tmp_path, missing):
        source = kernels._C_SOURCE.read_bytes()
        directory = tmp_path / "private"
        complete = _compile_private(directory, "complete", source)
        lacking = _compile_private(directory, "lacking", source, f"-D{missing}={missing}_renamed")
        assert isinstance(kernels._open(complete), kernels._Library)
        assert kernels._open(lacking) is None

    def test_a_vector_screen_visiting_out_of_index_order_is_caught(self, tmp_path, monkeypatch):
        # A planted mutant: the AVX2 loop's pass 2 visits each block's
        # eligible cuts from the highest bit down, so among tied counts it
        # keeps the last cut instead of the first.  The tie-heavy slab must
        # tell it from the numpy tier; the shipped loop must not.
        if "avx2" not in kernels._loaded_c_library().loops:
            pytest.skip("this CPU does not run the avx2 loop")
        source = kernels._C_SOURCE.read_text()
        visit, clear = "VISIT(k + __builtin_ctz(mask), INT, UINT);", "mask &= mask - 1"
        assert source.count(visit) == 1 and source.count(clear) == 1
        mutant = source.replace(visit, "VISIT(k + 31 - __builtin_clz(mask), INT, UINT);")
        mutant = mutant.replace(clear, "mask &= ~(1u << (31 - __builtin_clz(mask)))")
        library = kernels._open(_compile_private(tmp_path / "private", "mutant", mutant.encode()))
        assert isinstance(library, kernels._Library) and "avx2" in library.loops

        slab = _tie_heavy_slab()
        reference = _sweep_bits(slab, kernels.temporal_cuts_numpy)
        assert kernels.c_loop() == "avx2"
        shipped = _sweep_bits(slab, kernels.temporal_cuts_c)
        monkeypatch.setattr(kernels, "_C_LIBRARY", library)
        assert kernels.c_loop() == "avx2"
        planted = _sweep_bits(slab, kernels.temporal_cuts_c)
        assert shipped == reference
        assert planted != reference


def _fill_model(n_states: int = 9) -> MicroscopicModel:
    """A 16 x 24 model of ``n_states`` states: some 84 000 macro proportions."""
    rng = np.random.default_rng(7)
    rho = rng.dirichlet(np.ones(n_states + 1), size=(16, 24))[:, :, :n_states]
    states = StateRegistry([f"s{i}" for i in range(n_states)])
    return MicroscopicModel.from_proportions(rho, Hierarchy.balanced(16, fanout=2), states)


def _slab_bits(model: MicroscopicModel, kernel: str) -> list:
    """The ``mean`` gain and loss slabs of every height, filled on ``kernel``, as int64 bits."""
    stats = IntervalStatistics(model, "mean", kernel=kernel)
    levels = enumerate(model.hierarchy.height_plan.levels)
    slabs = [stats.height_tables(height, level.nodes) for height, level in levels]
    return [table.view(np.int64).tolist() for pair in slabs for table in pair]


def _signed_zero_prefixes() -> tuple:
    """``mean_tables_c`` arguments whose cells hold a zero macro proportion beside
    a positive proportion sum, and ``-0.0`` losses in every one of 9 states.

    Durations are zero, so every macro proportion is zero; the proportion
    prefixes grow, so no cell is dead; the ``rho log rho`` prefixes alternate
    ``-0.0`` and ``+0.0``, so the cells ending on an even slice of a row
    starting on an even slice have a ``-0.0`` loss in each state.
    """
    n_states, n_slices = 9, 6
    shape = (n_states, 1, n_slices + 1)
    rho_log_rho = np.where(np.arange(n_slices + 1) % 2 == 1, -0.0, 0.0)
    prefixes = (
        np.zeros(shape),
        np.broadcast_to(np.arange(n_slices + 1.0), shape).copy(),
        np.broadcast_to(rho_log_rho, shape).copy(),
    )
    return (*prefixes, np.ones((n_slices, n_slices)), np.ones(1), 0, n_slices)


def _loose_mask_log2(values: np.ndarray) -> np.ndarray:
    """``safe_log2`` with ``>=`` in place of ``> 0``: a planted mutant."""
    result = np.zeros_like(values)
    with np.errstate(divide="ignore"):
        np.log2(values, out=result, where=values >= 0)
    return result


#: Planted fill mutants: (source text, its replacement, extra compiler flags).
_FILL_MUTANTS = {
    "sequential state sum from 8 states": ("if (n >= 8) {", "if (0) {", ()),
    # Only a loss can be -0.0 in every state (a gain is macro * log2(macro)
    # minus a sum, never -0.0).
    "no final +0.0": ("= 0.0 + loss_sum;", "= loss_sum;", ()),
    "log2 from the C library": (
        "lm = log_macro[x * plane + cell];",
        "lm = m > 0 ? __builtin_log2(m) : 0.0;",
        ("-lm",),
    ),
}


@needs_c
class TestCompiledFill:
    """The ``mean`` table fill of ``sweep.c``: its symbols, its dispatch, its bits."""

    @pytest.mark.parametrize("missing", kernels._FILL_PASSES)
    def test_a_library_missing_a_fill_pass_is_never_loaded(self, tmp_path, missing):
        source = kernels._C_SOURCE.read_bytes()
        directory = tmp_path / "private"
        complete = _compile_private(directory, "complete", source)
        lacking = _compile_private(directory, "lacking", source, f"-D{missing}={missing}_renamed")
        assert isinstance(kernels._open(complete), kernels._Library)
        assert kernels._open(lacking) is None

    def test_only_the_mean_operator_on_c_runs_the_compiled_fill(self, monkeypatch):
        model = _fill_model(3)
        spy = mock.Mock(wraps=kernels.mean_tables_c)
        monkeypatch.setattr(kernels, "mean_tables_c", spy)

        def fills(**options) -> int:
            spy.reset_mock()
            SpatiotemporalAggregator(model, **options).build_tables()
            return spy.call_count

        monkeypatch.setenv(kernels.KERNEL_ENV, "numpy")
        assert fills(operator="mean") == 0
        assert fills(operator="mean", kernel="c") > 0
        monkeypatch.setenv(kernels.KERNEL_ENV, "c")
        assert fills(operator="mean") > 0
        assert fills(operator="mean", kernel="numpy") == 0
        for name in available_operators():
            if name != "mean":
                assert fills(operator=name) == 0, name

        class Scaled(MeanOperator):
            """A subclass may change the arithmetic: it is not the built-in mean."""

        assert fills(operator=Scaled()) == 0

    @pytest.mark.parametrize("operator", available_operators())
    def test_analyze_json_is_byte_identical_across_tiers_for_every_operator(
        self, monkeypatch, capsys, operator
    ):
        monkeypatch.setenv(kernels.KERNEL_ENV, "auto")
        outputs = {}
        for label, extra in (
            ("numpy", ["--kernel", "numpy"]),
            ("c", ["--kernel", "c"]),
            ("c-jobs2", ["--kernel", "c", "--jobs", "2"]),
        ):
            argv = ["analyze", str(TRACE), "--slices", "40", "--json", "--operator", operator]
            assert main([*argv, *extra]) == 0
            outputs[label] = capsys.readouterr().out
        assert outputs["c"] == outputs["numpy"]
        assert outputs["c-jobs2"] == outputs["numpy"]

    @pytest.mark.parametrize("mutant", [*_FILL_MUTANTS, "log2 mask >= 0"])
    def test_planted_fill_mutants_are_caught(self, tmp_path, monkeypatch, mutant):
        model = _fill_model()
        if mutant == "log2 from the C library":
            macro = np.concatenate([
                stats.operator.macro_proportions(stats.interval_sums(node)).ravel()
                for stats in [IntervalStatistics(model, "mean", kernel="numpy")]
                for node in model.hierarchy.iter_nodes()
            ])
            macro = macro[macro > 0]
            if np.array_equal(np.log2(macro), [math.log2(value) for value in macro]):
                pytest.skip("numpy's log2 rounds like the C library's on this host")
        crafted = _signed_zero_prefixes()

        def bits() -> list:
            tables = kernels.mean_tables_c(*crafted)
            return _slab_bits(model, "c") + [table.view(np.int64).tolist() for table in tables]

        with np.errstate(divide="ignore", invalid="ignore"):
            crafted_numpy = _mean_tables_numpy(crafted[:3], *crafted[3:])
        reference = _slab_bits(model, "numpy") + [t.view(np.int64).tolist() for t in crafted_numpy]
        assert bits() == reference
        if mutant in _FILL_MUTANTS:
            original, replacement, flags = _FILL_MUTANTS[mutant]
            source = kernels._C_SOURCE.read_text()
            assert source.count(original) == 1
            path = _compile_private(
                tmp_path / "private", "mutant", source.replace(original, replacement).encode(), *flags
            )
            library = kernels._open(path)
            assert isinstance(library, kernels._Library)
            monkeypatch.setattr(kernels, "_C_LIBRARY", library)
        else:
            monkeypatch.setattr(kernels, "safe_log2", _loose_mask_log2)
        with np.errstate(invalid="ignore"):
            planted = bits()
        assert planted != reference
