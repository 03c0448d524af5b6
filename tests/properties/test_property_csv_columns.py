"""Differential tests of the columnar CSV reader against a row-at-a-time oracle.

:func:`repro.trace.io.parse_csv` reads rows in blocks and builds
:class:`~repro.trace.columns.TraceColumns` directly.  The oracle below is the
row-at-a-time reader it replaced: one :class:`StateInterval` per row, checked
as it is read, then ``Trace(intervals, hierarchy, states)``.  On every input
the two must agree bit for bit — columns (floats as int64 bits), leaf and
state order, content digest, ``start``/``end`` and the interval objects —
and on every bad input they must raise the same message, line number
included.  Block sizes of 1, 2, 3 and 7 rows put every file across many
parse blocks.

The same oracle checks the bytes entry point of the ``c`` tier,
:func:`~repro.trace.io.scan_csv` with :func:`parse_csv` behind it for the
inputs it declines (what :func:`read_csv` does), with byte blocks of a few
bytes so rows straddle blocks.
"""

from __future__ import annotations

import csv
import io
import os
import sys
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.hierarchy import Hierarchy, HierarchyError
from repro.pipeline.resolver import MemorySource
from repro.store import trace_digest
from repro.trace import io as trace_io
from repro.trace.columns import TraceColumns
from repro.trace.events import EventError, StateInterval
from repro.trace.io import CSV_HEADER, TraceIOError, parse_csv, read_csv, scan_csv
from repro.trace.states import StateRegistry
from repro.trace.trace import Trace, TraceError

SOURCE = Path("trace.csv")

_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# --------------------------------------------------------------------------- #
# The oracle: one StateInterval per row, checked as it is read
# --------------------------------------------------------------------------- #
def oracle_parse_csv(source, handle, hierarchy=None, states=None) -> Trace:
    intervals: list[StateInterval] = []
    leaf_paths: list[tuple[str, ...]] = []
    seen: set[tuple[str, ...]] = set()
    reader = csv.reader(handle)
    line_number = 1
    try:
        header = next(reader, None)
        if header is None or tuple(header) != CSV_HEADER:
            raise TraceIOError(f"{source}: missing or invalid CSV header: {header!r}")
        for line_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise TraceIOError(f"{source}:{line_number}: expected 4 columns, got {len(row)}")
            resource_path, state, start_text, end_text = row
            parts = tuple(p for p in resource_path.split("/") if p)
            if not parts:
                raise TraceIOError(f"{source}:{line_number}: empty resource path")
            try:
                start = float(start_text)
                end = float(end_text)
            except ValueError as exc:
                raise TraceIOError(f"{source}:{line_number}: invalid timestamps") from exc
            if parts not in seen:
                seen.add(parts)
                leaf_paths.append(parts)
            try:
                interval = StateInterval(start=start, end=end, resource=parts[-1], state=state)
            except EventError as exc:
                raise TraceIOError(f"{source}:{line_number}: invalid interval: {exc}") from exc
            intervals.append(interval)
    except csv.Error as exc:
        raise TraceIOError(
            f"{source}:{max(reader.line_num, line_number)}: malformed CSV: {exc}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise TraceIOError(f"{source}: not valid UTF-8 text: {exc}") from exc
    if hierarchy is None:
        if not leaf_paths:
            raise TraceIOError(f"{source}: empty trace file")
        try:
            hierarchy = Hierarchy.from_paths(leaf_paths)
        except HierarchyError as exc:
            raise TraceIOError(f"{source}: inconsistent resource paths: {exc}") from exc
    try:
        return Trace(intervals, hierarchy=hierarchy, states=states)
    except (TraceError, EventError) as exc:
        raise TraceIOError(f"{source}: invalid trace content: {exc}") from exc


def _outcome(parser, data: bytes, hierarchy=None, states=None):
    """The parsed trace, or the message of the TraceIOError raised."""
    handle = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
    try:
        return parser(SOURCE, handle, hierarchy=hierarchy, states=states)
    except TraceIOError as exc:
        return f"TraceIOError: {exc}"


def _scanned(source, handle, hierarchy=None, states=None) -> Trace:
    """:func:`read_csv` over in-memory bytes on the ``c`` tier: the scan, else :func:`parse_csv`."""
    data = handle.buffer.read()
    with mock.patch.dict(os.environ, {kernels.KERNEL_ENV: "c"}):
        trace = scan_csv(source, io.BytesIO(data), hierarchy=hierarchy, states=states)
    if trace is not None:
        return trace
    handle = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
    return parse_csv(source, handle, hierarchy=hierarchy, states=states)


#: Whether the ``c`` tier's compiled scan runs here.
SCAN = kernels.csv_scan_available()


def _bits(array: np.ndarray) -> bytes:
    return array.dtype.str.encode() + array.tobytes()


def assert_same_outcome(data: bytes, block_rows: int, hierarchy=None, states=None):
    """Both readers agree with the oracle: :func:`parse_csv` in blocks of
    ``block_rows`` rows and, where it runs, the compiled scan in byte blocks
    of ``block_rows`` bytes (1 MiB for 4096).  Returns the last reader's
    trace, ``None`` where the oracle raises."""
    expected = _outcome(oracle_parse_csv, data, hierarchy, states)
    with mock.patch.object(trace_io, "_CSV_BLOCK_ROWS", block_rows):
        actuals = [_outcome(parse_csv, data, hierarchy, states)]
    if SCAN:
        scan_bytes = trace_io._CSV_SCAN_BYTES if block_rows == 4096 else block_rows
        with mock.patch.object(trace_io, "_CSV_SCAN_BYTES", scan_bytes):
            actuals.append(_outcome(_scanned, data, hierarchy, states))
    for actual in actuals:
        _assert_same(actual, expected, hierarchy)
    return None if isinstance(expected, str) else actuals[-1]


def _assert_same(actual, expected, hierarchy) -> None:
    if isinstance(expected, str):
        assert actual == expected
        return
    assert isinstance(actual, Trace), actual
    want, got = expected.columns(), actual.columns()
    for field in ("starts", "ends", "resource_ids", "state_ids"):
        assert _bits(getattr(got, field)) == _bits(getattr(want, field)), field
    assert actual.hierarchy.leaf_names == expected.hierarchy.leaf_names
    assert [leaf.path for leaf in actual.hierarchy.leaves] == [
        leaf.path for leaf in expected.hierarchy.leaves
    ]
    assert actual.states.names == expected.states.names
    assert actual.states.colors == expected.states.colors
    if hierarchy is not None:
        assert actual.hierarchy is hierarchy
    if expected.n_intervals:
        assert trace_digest(actual) == trace_digest(expected)
    assert repr(actual.start) == repr(expected.start)
    assert repr(actual.end) == repr(expected.end)
    assert actual.intervals == expected.intervals
    assert [repr(iv) for iv in actual.intervals] == [repr(iv) for iv in expected.intervals]


# --------------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------------- #
#: Leaf and state names whose code-point order differs from the order they
#: are listed (and first drawn) in, with CSV specials (quoted commas and
#: newlines, quotes) and non-ASCII text.
_PATHS = [
    ("cl", "m1", "b"), ("cl", "m0", "a"), ("cl", "m0", "Z"), ("é",), ("cl", "a,b"),
    ("n", "x\ny"), ("cl", "m1", 'q"t'), ("ü",),
]
_STATES = ["Wait", "Send", "compute", "a,b", "x\ny", "É", "send", "Ω"]
_TIMES = [0.0, -0.0, 0.5, 1.0, 1.0, 2.5, 1e-300, 3.0, 0.1 + 0.2, 123456.789]

_row = st.tuples(
    st.sampled_from(_PATHS),
    st.sampled_from(_STATES),
    st.sampled_from(_TIMES),
    st.sampled_from(_TIMES),
)
#: How a timestamp is written: as repr, as the writer's ``.12g``, padded.
_formats = st.sampled_from([repr, lambda x: f"{x:.12g}", lambda x: f" {x!r} "])
_block_rows = st.sampled_from([1, 2, 3, 7, 4096])


def _render(rows, fmt, blank_after=frozenset(), path_style=0) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(CSV_HEADER)
    for index, (path, state, start, end) in enumerate(rows):
        text = "/".join(path)
        if path_style == 1:
            text = "/" + text + "/"
        elif path_style == 2:
            text = text.replace("/", "//")
        writer.writerow([text, state, fmt(start), fmt(end)])
        if index in blank_after:
            buffer.write("\r\n")
    return buffer.getvalue().encode("utf-8")


def _plain(text: str) -> bool:
    """Whether ``csv.writer`` writes ``text`` as it is (no quoting)."""
    return not any(special in text for special in ',"\n\r')


def _valid(rows):
    """Ordered bounds, so every row is a valid interval."""
    return [(p, s, min(a, b), max(a, b)) for p, s, a, b in rows]


@st.composite
def valid_files(draw):
    rows = _valid(draw(st.lists(_row, min_size=1, max_size=40)))
    if draw(st.booleans()):
        # Exact duplicates and full ties, in shuffled positions.
        rows = rows + draw(st.lists(st.sampled_from(rows), max_size=10))
        rows = draw(st.permutations(rows))
    blank_after = frozenset(draw(st.lists(st.integers(0, len(rows)), max_size=3)))
    return _render(rows, draw(_formats), blank_after, draw(st.sampled_from([0, 1, 2]))), rows


class TestValidInputs:
    @_SETTINGS
    @given(valid_files(), _block_rows)
    def test_columns_match_the_row_oracle(self, file, block_rows):
        data, _ = file
        assert isinstance(assert_same_outcome(data, block_rows), Trace)

    @_SETTINGS
    @given(valid_files(), _block_rows, st.data())
    def test_caller_supplied_hierarchy_and_registry(self, file, block_rows, data):
        raw, rows = file
        # A hierarchy over every path, plus leaves the file never uses, in
        # an order unrelated to the file's.
        paths = list(dict.fromkeys(p for p, _, _, _ in rows)) + [("spare", "s0"), ("s1",)]
        hierarchy = Hierarchy.from_paths(data.draw(st.permutations(paths)))
        preset = data.draw(st.lists(st.sampled_from(_STATES + ["unused"]), unique=True))
        registry = StateRegistry(preset, {name: "#123456" for name in preset[:1]})
        trace = assert_same_outcome(raw, block_rows, hierarchy, registry)
        assert trace.states.names[: len(preset)] == tuple(preset)
        assert registry.names == tuple(preset)  # the caller's registry is not mutated

    @_SETTINGS
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([p for p in _PATHS if _plain("/".join(p))]),
                st.sampled_from([s for s in _STATES if _plain(s)]),
                st.sampled_from(_TIMES),
                st.sampled_from(_TIMES),
            ),
            min_size=1, max_size=40,
        ),
        _formats,
        st.sampled_from([1, 5, 64, 4096]),
        st.booleans(),
    )
    @pytest.mark.skipif(not SCAN, reason="the compiled CSV scan is unavailable")
    def test_plain_files_are_scanned(self, rows, fmt, block_rows, lf):
        # Without quotes, blank lines or invalid rows the compiled scan
        # reads the file itself, in CRLF or LF form, the final newline
        # dropped or not.
        data = _render(_valid(rows), fmt)
        if lf:
            data = data.replace(b"\r\n", b"\n")[: -1 if len(rows) % 2 else None]
        with mock.patch.dict(os.environ, {kernels.KERNEL_ENV: "c"}):
            assert scan_csv(SOURCE, io.BytesIO(data)) is not None
        assert isinstance(assert_same_outcome(data, block_rows), Trace)

    def test_empty_file_with_a_caller_hierarchy_is_an_empty_trace(self):
        data = _render([], repr)
        hierarchy = Hierarchy.flat(["r0", "r1"])
        trace = assert_same_outcome(data, 3, hierarchy)
        assert trace.n_intervals == 0 and trace.start == 0.0 and trace.end == 0.0

    def test_signed_zero_ties_keep_file_order(self):
        rows = [(("r",), "s", -0.0, 1.0), (("r",), "s", 0.0, 1.0), (("r",), "s", -0.0, 1.0)]
        trace = assert_same_outcome(_render(rows, repr), 2)
        assert [np.signbit(x) for x in trace.columns().starts] == [True, False, True]
        assert repr(trace.start) == "-0.0"

    def test_file_longer_than_one_parse_block(self):
        rng = np.random.default_rng(7)
        n = 2 * trace_io._CSV_BLOCK_ROWS + 123
        rows = []
        for i in range(n):
            start = float(rng.integers(0, 50)) / 4
            rows.append((_PATHS[i % len(_PATHS)], _STATES[i % 5], start, start + 0.25))
        assert_same_outcome(_render(rows, repr), trace_io._CSV_BLOCK_ROWS)


# --------------------------------------------------------------------------- #
# Mutated inputs: same message, same line number
# --------------------------------------------------------------------------- #
_MUTATIONS = {
    "bad_width_short": lambda r: r[:3],
    "bad_width_long": lambda r: r + ["extra"],
    "empty_path": lambda r: ["/" if r[0] else "", *r[1:]],
    "slashes_only_path": lambda r: ["///", *r[1:]],
    "bad_start": lambda r: [r[0], r[1], "zero", r[3]],
    "bad_end": lambda r: [r[0], r[1], r[2], "1.2.3"],
    "empty_timestamp": lambda r: [r[0], r[1], "", r[3]],
    "nan": lambda r: [r[0], r[1], "nan", r[3]],
    "inf": lambda r: [r[0], r[1], r[2], "inf"],
    "overflow": lambda r: [r[0], r[1], "-1e400", r[3]],
    "reversed": lambda r: [r[0], r[1], r[3], r[2]] if r[2] != r[3] else [r[0], r[1], "5", "4"],
    "empty_state": lambda r: [r[0], "", r[2], r[3]],
    "empty_path_and_bad_float": lambda r: ["", r[1], "x", r[3]],
    "bad_float_and_empty_state": lambda r: [r[0], "", "x", r[3]],
    "oversized_field": lambda r: [r[0], "s" * (csv.field_size_limit() + 1), r[2], r[3]],
}


def _mutate(data: bytes, mutations) -> bytes:
    """Apply ``(row_index, mutation)`` pairs to the data rows of a CSV file.

    A row takes the first mutation aimed at it; later ones are dropped.
    """
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
    data_rows = [i for i, row in enumerate(rows) if row and i > 0]
    targets = {}
    for index, name in mutations:
        targets.setdefault(data_rows[index % len(data_rows)], name)
    for target, name in targets.items():
        rows[target] = _MUTATIONS[name](list(rows[target]))
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue().encode("utf-8")


class TestMutatedInputs:
    @_SETTINGS
    @given(
        valid_files(),
        _block_rows,
        st.lists(
            st.tuples(st.integers(0, 60), st.sampled_from(sorted(_MUTATIONS))),
            min_size=1, max_size=3,
        ),
    )
    def test_errors_match_the_row_oracle(self, file, block_rows, mutations):
        data = _mutate(file[0], mutations)
        assert_same_outcome(data, block_rows)

    @_SETTINGS
    @given(valid_files(), _block_rows, st.integers(0, 60), st.integers(0, 60))
    def test_undecodable_bytes_after_a_bad_row(self, file, block_rows, bad_row, cut):
        # A row error ahead of undecodable bytes is reported first — also
        # when both fall in one parse block.
        data = _mutate(file[0], [(bad_row, "reversed")])
        cut = min(len(data), 40 + cut * 10)
        assert_same_outcome(data[:cut] + b"\xff\xfe" + data[cut:], block_rows)

    def test_row_error_ahead_of_undecodable_bytes_in_a_later_text_chunk(self):
        # The text layer decodes 8 KiB at a time: rows before the bad bytes
        # parse first, so the reversed row must win over the decode error.
        rows = [(("r", str(i % 5)), "s", float(i), float(i + 1)) for i in range(3000)]
        data = _mutate(_render(rows, repr), [(100, "reversed")])
        data = data[:-2000] + b"\xff" + data[-2000:]
        for block_rows in (7, 4096):
            assert_same_outcome(data, block_rows)
        assert ":102: invalid interval" in _outcome(parse_csv, data)

    def test_csv_error_in_a_later_block(self):
        rows = [(("r", str(i % 3)), "s", float(i), float(i + 1)) for i in range(20)]
        data = _mutate(_render(rows, repr), [(15, "oversized_field")])
        for block_rows in (1, 4, 7, 4096):
            assert_same_outcome(data, block_rows)
        assert "malformed CSV" in _outcome(parse_csv, data)

    def test_row_error_before_a_csv_error_in_the_same_block(self):
        rows = [(("r",), "s", float(i), float(i + 1)) for i in range(10)]
        data = _mutate(_render(rows, repr), [(3, "nan"), (6, "oversized_field")])
        assert_same_outcome(data, 4096)
        assert _outcome(parse_csv, data).endswith(
            ":5: invalid interval: non-finite interval bounds: [nan, 4.0)"
        )

    @_SETTINGS
    @given(valid_files(), _block_rows, st.data())
    def test_unknown_leaf_with_a_caller_hierarchy(self, file, block_rows, data):
        raw, rows = file
        paths = list(dict.fromkeys(p for p, _, _, _ in rows))
        kept = data.draw(st.lists(st.sampled_from(paths), unique=True, max_size=len(paths) - 1))
        hierarchy = Hierarchy.from_paths(kept + [("spare",)])
        message = assert_same_outcome(raw, block_rows, hierarchy)
        assert message is None  # every drawn file names a leaf outside ``kept``

    def test_conflicting_paths_and_duplicate_leaves(self):
        for rows in (
            [(("a", "b"), "s", 0.0, 1.0), (("a",), "s", 0.0, 1.0)],
            [(("a", "x"), "s", 0.0, 1.0), (("b", "x"), "s", 0.0, 1.0)],
        ):
            assert_same_outcome(_render(rows, repr), 1)

    def test_header_errors(self):
        for data in (b"", b"nope\n", b"resource_path,state,start\n", b"\xff\n"):
            assert_same_outcome(data, 2)


# --------------------------------------------------------------------------- #
# Lazy views under concurrency
# --------------------------------------------------------------------------- #
def _race(readers, n_threads=16):
    """Run ``readers`` round-robin on ``n_threads`` threads released at once."""
    barrier = threading.Barrier(n_threads)
    results: list = [None] * n_threads

    def run(index):
        barrier.wait(timeout=30)
        results[index] = readers[index % len(readers)]()

    threads = [threading.Thread(target=run, args=(i,)) for i in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return results


class TestConcurrentViews:
    def test_threads_see_one_intervals_and_one_columns(self, tmp_path, monkeypatch):
        rows = [(_PATHS[i % 4], _STATES[i % 3], float(i), i + 0.5) for i in range(50)]
        path = tmp_path / "t.csv"
        path.write_bytes(_render(rows, repr))
        source = MemorySource(read_csv(path))
        decode = TraceColumns.decode

        def slow_decode(self, *args):
            time.sleep(0.01)  # widen the window a missing lock would leave open
            return decode(self, *args)

        monkeypatch.setattr(TraceColumns, "decode", slow_decode)
        trace = source.trace
        results = _race([lambda: trace.intervals, trace.columns])
        intervals = [r for r in results if isinstance(r, tuple)]
        columns = [r for r in results if isinstance(r, TraceColumns)]
        assert len(intervals) == len(columns) == 8
        assert all(r is intervals[0] for r in intervals)
        assert all(c is columns[0] for c in columns)
        assert intervals[0] == read_csv(path).intervals

    def test_threads_see_one_encoding_of_an_object_trace(self, monkeypatch):
        hierarchy = Hierarchy.flat(["r0", "r1"])
        intervals = [StateInterval(float(i), i + 1.0, f"r{i % 2}", "s") for i in range(30)]
        trace = Trace(intervals, hierarchy)
        encode = TraceColumns.encode.__func__

        def slow_encode(cls, *args):
            time.sleep(0.01)
            return encode(cls, *args)

        monkeypatch.setattr(TraceColumns, "encode", classmethod(slow_encode))
        results = _race([trace.columns])
        assert all(r is results[0] for r in results)
        assert MemorySource(trace).trace.columns() is results[0]
