"""The compiled CSV scan of the ``c`` tier and what :func:`read_csv` builds on it.

``csv_scan`` in ``sweep.c`` splits the rows of a byte block, interns their
paths and states and computes the timestamps on Clinger's exact path;
:func:`repro.trace.io.scan_csv` runs it for :func:`read_csv` and
:func:`repro.store.read_live_source` on the ``c`` tier and hands every
input it declines to :func:`parse_csv`.  These tests pin:

* the float grammar: every timestamp the scan computes has the bits of
  ``float()`` (the edges of the exact path, signed zeros, subnormals, long
  mantissas, ``inf``/``nan``/underscores/padding left to ``float()``);
* the decline rules: one file per rule gives today's trace, or today's
  message and line number, on both tiers and through both readers;
* interning under a hash that sends every name to one slot, and past the
  table's first doubling;
* a library without the scan is never loaded, one whose scan reports
  itself unavailable reads through :func:`parse_csv`;
* the sorted-input shortcut of the trace assembly (no ``lexsort`` on rows
  already in trace order) changes no bit;
* the readers and writers use UTF-8 whatever the locale.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.store import read_live_source, trace_digest
from repro.trace import io as trace_io
from repro.trace.io import TraceIOError, read_csv, scan_csv

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "core"))
from test_kernels import _compile_private  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]
HEADER = b"resource_path,state,start,end\r\n"

needs_scan = pytest.mark.skipif(
    not kernels.csv_scan_available(), reason="the compiled CSV scan is unavailable"
)


def _outcome(read, path: Path, tier: str):
    """The trace ``read(path)`` gives on ``tier`` as bits, or its error message."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(kernels.KERNEL_ENV, tier)
        try:
            trace = read(path)
        except TraceIOError as exc:
            return f"TraceIOError: {exc}"
    columns = trace.columns()
    return (
        [getattr(columns, name).tobytes() for name in ("starts", "ends", "resource_ids", "state_ids")],
        [leaf.path for leaf in trace.hierarchy.leaves],
        trace.states.names,
        trace_digest(trace) if trace.n_intervals else None,
    )


def _scanned(path: Path) -> bool:
    """Whether the compiled scan reads ``path`` itself (does not decline it).

    A scan that raises has read every row: the error is the whole trace's.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(kernels.KERNEL_ENV, "c")
        with path.open("rb") as stream:
            try:
                return scan_csv(path, stream) is not None
            except TraceIOError:
                return True


def _assert_tiers_agree(path: Path) -> object:
    """``read_csv`` and ``read_live_source`` give the same outcome on both tiers."""
    expected = _outcome(read_csv, path, "numpy")
    assert _outcome(read_csv, path, "c") == expected
    assert _outcome(read_live_source, path, "c") == _outcome(read_live_source, path, "numpy")
    return expected


# --------------------------------------------------------------------------- #
# Timestamps: the exact path and float()
# --------------------------------------------------------------------------- #
#: Texts on the exact path: a mantissa of at most 2^53, |exponent| <= 22.
_EXACT = [
    "9007199254740992", "9007199254740991", "-9007199254740992", "1e22", "1e-22",
    "9007199254740991e22", "9007199254740991e-22", "-0", "-0.0", "+0", "0", "+1", ".5", "5.",
    "-.5e-3", "1E5", "1e+5", "0.1", "0.3", "1.5", "123456.789", "1.23456789012e-05",
    "0.1000000000000000", "00000000000000000000000001", "0.0000000000000000000001",
]
#: Texts the scan leaves to float(): valid ones, then ones float() refuses.
_FLAGGED = [
    "9007199254740993", "18014398509481984", "1e23", "1e-23", "0e23", "12345678901234567",
    "1.2345678901234567", "0.30000000000000004", "1234567890123456789",
    "12345678901234567890", "0.1000000000000000055511", "5e-324", "2.2250738585072014e-308",
    "4.9406564584124654e-324", "1e400", "-1e400", "1e-400", "inf", "-inf", "nan", "Infinity",
    "1_0", "1_000.5", " 1", "1 ", "\t2.5", " 1", "١٢", "0x10",
    "", ".", "e5", "1e", "1e+", "--1", "1.2.3", "1e5.5", "+", "abc",
]


def _scan_texts(texts: "list[str]", newline: str = "\n"):
    block = "".join(f"r,s,{text},{text}{newline}" for text in texts).encode()
    rows = kernels.csv_scan(block, len(block), 1 << 20)
    assert rows is not None
    return rows


@needs_scan
class TestTimestamps:
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_exact_path_edges_have_the_bits_of_float(self, newline):
        rows = _scan_texts(_EXACT + _FLAGGED, newline)
        flagged = dict(zip(_EXACT + _FLAGGED, rows.flags.tolist()))
        assert [t for t in _EXACT if flagged[t]] == []
        assert [t for t in _FLAGGED if flagged[t] != 3] == []
        for text, start, end in zip(_EXACT, rows.starts.tolist(), rows.ends.tolist()):
            want = np.float64(float(text)).view(np.int64)
            assert np.float64(start).view(np.int64) == want, text
            assert np.float64(end).view(np.int64) == want, text

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False).flatmap(
                lambda x: st.sampled_from(
                    [repr(x), f"{x:.12g}", f"{x:.17g}", f"{x:.15e}", f"{x:.3f}", f"{x:.25f}"]
                )
            ),
            st.from_regex(r"\A[+-]?[0-9]{0,20}(\.[0-9]{0,20})?([eE][+-]?[0-9]{1,3})?\Z"),
        )
    )
    def test_every_computed_timestamp_has_the_bits_of_float(self, text):
        rows = _scan_texts([text])
        if rows.flags[0]:
            return
        want = np.float64(float(text)).view(np.int64)
        assert rows.starts.view(np.int64)[0] == want

    def test_every_timestamp_float_accepts_reads_as_on_the_numpy_tier(self, tmp_path):
        path = tmp_path / "floats.csv"
        for text in _EXACT + _FLAGGED:
            path.write_bytes(HEADER + f"r,s,{text},{text}\r\nr,t,0,1\r\n".encode())
            expected = _assert_tiers_agree(path)
            try:
                valid = np.isfinite(float(text))
            except ValueError:
                valid = False
            assert _scanned(path) == valid, text
            assert isinstance(expected, str) != valid, text


# --------------------------------------------------------------------------- #
# What the scan declines, and what it reads
# --------------------------------------------------------------------------- #
_ROWS = b"a/r0,Wait,0,1.5\r\na/r1,Send,0.5,2\r\na/r0,Send,1.5,3\r\n"

#: One file per rule: (bytes, whether the scan reads the file itself).
_CASES = {
    "plain": (HEADER + _ROWS, True),
    "quote": (HEADER + b'"a/r0",Wait,0,1\r\n' + _ROWS, False),
    "quote inside a field": (HEADER + b'a/r0,Wa"it,0,1\r\n' + _ROWS, False),
    "nul": (HEADER + _ROWS + b"a/r0,W\x00,3,4\r\n", False),
    "bare cr": (HEADER + b"a/r0,Wait,0,1\ra/r1,Wait,1,2\r\n", False),
    "bare cr at the end": (HEADER + _ROWS + b"a/r0,Wait,3,4\r", False),
    "mixed crlf and lf": (HEADER + b"a/r0,Wait,0,1\na/r1,Send,0,1\r\na/r0,Send,1,2\n", True),
    "lf header": (b"resource_path,state,start,end\n" + _ROWS, True),
    "blank line": (HEADER + _ROWS + b"\r\n" + b"a/r1,Wait,3,4\r\n", False),
    "blank lf line": (HEADER + _ROWS + b"\n" + b"a/r1,Wait,3,4\r\n", False),
    "3 fields": (HEADER + _ROWS + b"a/r0,Wait,3\r\n", False),
    "5 fields": (HEADER + _ROWS + b"a/r0,Wait,3,4,5\r\n", False),
    "empty fields": (HEADER + _ROWS + b",,,\r\n", False),
    "oversized field": (HEADER + _ROWS + b"a/r0," + b"W" * 131073 + b",3,4\r\n", False),
    "oversized multibyte field": (
        HEADER + _ROWS + "a/r0,{},3,4\r\n".format("é" * 70000).encode(), False
    ),
    "invalid utf-8": (HEADER + _ROWS + b"a/r0,W\xff,3,4\r\n", False),
    "invalid utf-8 after a bad row": (HEADER + b"a/r0,Wait,2,1\r\n" + _ROWS + b"\xfe\r\n", False),
    "bom header": (b"\xef\xbb\xbf" + HEADER + _ROWS, False),
    "quoted header": (b'"resource_path",state,start,end\r\n' + _ROWS, False),
    "header only": (HEADER, True),
    "header without a newline": (HEADER.rstrip(), False),
    "missing final newline": (HEADER + _ROWS + b"a/r1,Wait,3,4", True),
    "empty file": (b"", False),
    "reversed interval": (HEADER + _ROWS + b"a/r0,Wait,4,3\r\n", False),
    "nan": (HEADER + _ROWS + b"a/r0,Wait,nan,3\r\n", False),
    "empty path": (HEADER + _ROWS + b"//,Wait,3,4\r\n", False),
    "empty state": (HEADER + _ROWS + b"a/r0,,3,4\r\n", False),
    "invalid timestamp": (HEADER + _ROWS + b"a/r0,Wait,x,4\r\n", False),
    "conflicting paths": (HEADER + b"a/b,s,0,1\r\na,s,0,1\r\n", True),
    "non-ascii names": (HEADER + "é/ü,Ω,0,1\r\né/a,calcul,0.5,1\r\n".encode(), True),
    "padded and underscored timestamps": (HEADER + b"a/r0,Wait, 1 ,1_0\r\n", True),
}


#: The scanned cases whose trace is refused as a whole.
_TRACE_ERRORS = {"conflicting paths": "inconsistent resource paths", "header only": "empty trace file"}


@needs_scan
@pytest.mark.parametrize("case", sorted(_CASES))
def test_each_decline_rule_gives_the_parsers_outcome(tmp_path, case):
    data, scanned = _CASES[case]
    path = tmp_path / "trace.csv"
    path.write_bytes(data)
    outcome = _assert_tiers_agree(path)
    assert _scanned(path) == scanned
    if case in _TRACE_ERRORS:
        assert _TRACE_ERRORS[case] in outcome
    elif scanned:
        assert not isinstance(outcome, str), outcome


@needs_scan
def test_rows_straddling_byte_blocks_read_alike(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    lines = [b"a/r%d,s%d,%d,%d.5" % (i % 7, i % 3, i, i) for i in range(300)]
    data = HEADER + b"".join(
        line + (b"\r\n" if rng.random() < 0.5 else b"\n") for line in lines
    )
    path = tmp_path / "trace.csv"
    path.write_bytes(data)
    expected = _outcome(read_csv, path, "numpy")
    for size in (1, 2, 7, 30, 1 << 20):
        monkeypatch.setattr(trace_io, "_CSV_SCAN_BYTES", size)
        assert _scanned(path)
        assert _outcome(read_csv, path, "c") == expected


# --------------------------------------------------------------------------- #
# The library: interning, completeness, availability
# --------------------------------------------------------------------------- #
def _many_names_file(path: Path) -> None:
    """600 paths and 300 states (past the tables' first doubling), rows shuffled."""
    rng = np.random.default_rng(11)
    rows = [(f"g{i % 5}/n{i}", f"state{i % 300}", i % 17, i % 17 + 1) for i in range(1800)]
    order = rng.permutation(len(rows))
    text = "".join("{},{},{},{}\r\n".format(*rows[i]) for i in order)
    path.write_bytes(HEADER + text.encode())


@needs_scan
class TestLibrary:
    def test_names_are_interned_right_when_every_hash_collides(self, tmp_path, monkeypatch):
        source = kernels._C_SOURCE.read_text()
        original = "    return hash;\n}"
        assert source.count(original) == 1
        mutant = source.replace(original, "    return 0 * hash;\n}")
        library = kernels._open(_compile_private(tmp_path / "private", "collide", mutant.encode()))
        assert isinstance(library, kernels._Library) and library.csv is not None
        path = tmp_path / "trace.csv"
        _many_names_file(path)
        expected = _outcome(read_csv, path, "numpy")
        assert _outcome(read_csv, path, "c") == expected
        monkeypatch.setattr(kernels, "_C_LIBRARY", library)
        assert _scanned(path)
        assert _outcome(read_csv, path, "c") == expected
        # The block-local tables themselves keep one code per name.
        data = path.read_bytes()[len(HEADER):]
        rows = kernels.csv_scan(data, len(data), 1 << 20)
        fields = [line.split(",") for line in data.decode().splitlines()]
        for codes, keys, column in ((rows.paths, rows.path_keys, 0), (rows.states, rows.state_keys, 1)):
            names = [row[column] for row in fields]
            distinct = list(dict.fromkeys(names))
            assert [data[o : o + n].decode() for o, n in keys.tolist()] == distinct
            assert codes.tolist() == [distinct.index(name) for name in names]

    def test_a_library_missing_the_scan_is_never_loaded(self, tmp_path):
        source = kernels._C_SOURCE.read_bytes()
        directory = tmp_path / "private"
        complete = _compile_private(directory, "complete", source)
        lacking = _compile_private(directory, "lacking", source, "-Dcsv_scan=csv_scan_renamed")
        assert isinstance(kernels._open(complete), kernels._Library)
        assert kernels._open(lacking) is None

    def test_a_scan_reporting_itself_unavailable_leaves_reading_to_the_parser(
        self, tmp_path, monkeypatch
    ):
        source = kernels._C_SOURCE.read_text()
        guard = "#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0"
        assert source.count(guard) == 1
        path = _compile_private(tmp_path / "private", "inexact", source.replace(guard, "#if 1").encode())
        library = kernels._open(path)
        assert isinstance(library, kernels._Library) and library.csv is None
        csv_path = tmp_path / "trace.csv"
        _many_names_file(csv_path)
        expected = _outcome(read_csv, csv_path, "numpy")
        monkeypatch.setattr(kernels, "_C_LIBRARY", library)
        assert not kernels.csv_scan_available()
        assert not _scanned(csv_path)
        assert _outcome(read_csv, csv_path, "c") == expected
        with pytest.raises(kernels.KernelUnavailableError):
            kernels.csv_scan(b"r,s,0,1\n", 8, 10)


# --------------------------------------------------------------------------- #
# Trace assembly: rows already in trace order skip the sort
# --------------------------------------------------------------------------- #
def _orders() -> "dict[str, list[tuple[str, str, float, float]]]":
    rng = np.random.default_rng(5)
    rows = [
        (f"c/n{rng.integers(0, 4)}", f"s{rng.integers(0, 3)}", float(rng.integers(0, 6)), 0.0)
        for _ in range(200)
    ]
    rows = [(p, s, a, a + float(rng.integers(0, 3))) for p, s, a, _ in rows]
    ordered = sorted(rows, key=lambda row: (row[2], row[3], row[0].split("/")[-1], row[1]))
    zeros = [("c/n0", "s", z, 1.0) for z in [-0.0, 0.0, -0.0, 0.0, 0.0, -0.0]]
    return {
        "shuffled": rows,
        "ordered": ordered,
        "ties": [("c/n1", "s1", 1.0, 2.0)] * 5 + [("c/n0", "s0", 1.0, 2.0)] * 5 + ordered[:50],
        "ordered ties": [("c/n0", "s0", 1.0, 2.0)] * 5 + [("c/n1", "s0", 1.0, 2.0)] * 5,
        "signed zeros": zeros,
        "signed zeros then order": zeros + [("c/n1", "s", 0.5, 1.0), ("c/n0", "s", -0.0, 1.0)],
    }


#: The inputs of :func:`_orders` already in trace order.
_ORDERED = {"ordered", "ordered ties", "signed zeros"}


@pytest.mark.parametrize("tier", kernels.available_kernels())
@pytest.mark.parametrize("name", sorted(_orders()))
def test_sorted_input_skip_changes_no_bit(tmp_path, monkeypatch, tier, name):
    rows = _orders()[name]
    path = tmp_path / "trace.csv"
    path.write_bytes(HEADER + "".join(f"{p},{s},{a!r},{b!r}\r\n" for p, s, a, b in rows).encode())
    ordered = trace_io._ordered
    seen = []
    monkeypatch.setattr(trace_io, "_ordered", lambda keys: seen.append(ordered(keys)) or seen[-1])
    shortcut = _outcome(read_csv, path, tier)
    assert seen == [name in _ORDERED]
    monkeypatch.setattr(trace_io, "_ordered", lambda keys: False)
    assert _outcome(read_csv, path, tier) == shortcut


# --------------------------------------------------------------------------- #
# UTF-8 whatever the locale
# --------------------------------------------------------------------------- #
_ROUND_TRIPS = """
import json, locale, sys
from pathlib import Path
from repro.core.hierarchy import Hierarchy
from repro.trace.events import StateInterval
from repro.trace.io import read_csv, read_paje, write_csv, write_paje
from repro.trace.trace import Trace

out = Path(sys.argv[1])
# Non-ASCII names, spelled in ASCII: the command line is decoded by the locale.
node, other, state = "n\\u0153ud-\\u00e9", "\\u00fc", "\\u03a9"
hierarchy = Hierarchy.from_paths([("grappe", node), ("grappe", other)])
trace = Trace(
    [StateInterval(0.0, 1.0, node, state), StateInterval(0.5, 2.0, other, "calcul")], hierarchy
)
write_csv(trace, out / "t.csv")
write_paje(trace, out / "t.paje")
print(json.dumps({
    "encoding": locale.getpreferredencoding(False),
    "csv": read_csv(out / "t.csv").intervals == trace.intervals,
    "paje": read_paje(out / "t.paje").intervals == trace.intervals,
    "bytes": (out / "t.csv").read_bytes().decode("utf-8").count(node),
}))
"""


@pytest.mark.parametrize("tier", kernels.available_kernels())
def test_readers_and_writers_use_utf8_under_an_ascii_locale(tmp_path, tier):
    env = dict(
        os.environ,
        LC_ALL="C",
        PYTHONCOERCECLOCALE="0",
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]),
        **{kernels.KERNEL_ENV: tier},
    )
    env.pop("PYTHONUTF8", None)
    done = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-c", _ROUND_TRIPS, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    if "utf" in result["encoding"].lower().replace("-", ""):
        pytest.skip(f"this platform's C locale encodes {result['encoding']}")
    assert result == {"encoding": result["encoding"], "csv": True, "paje": True, "bytes": 1}
