"""Trace serialization.

Two on-disk representations are provided:

* a **CSV state-interval format** (one row per state interval) which is the
  library's native interchange format and whose byte size is what the
  Table II benchmark reports as "trace size";
* a **Pajé-like event dump** (enter/leave lines) matching the shape of the
  traces the original Ocelotl tool ingests, useful to exercise the
  event-replay path of :class:`~repro.trace.builder.TraceBuilder`.

Both formats carry the hierarchy as slash-joined leaf paths so a trace can be
reloaded without external platform descriptions.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from ..core import kernels
from ..core.hierarchy import Hierarchy, HierarchyError
from .builder import TraceBuilder
from .columns import TraceColumns
from .events import EventError, StateInterval
from .states import StateRegistry
from .trace import Trace, TraceError

__all__ = [
    "write_csv",
    "read_csv",
    "parse_csv",
    "scan_csv",
    "csv_size_bytes",
    "write_paje",
    "read_paje",
    "parse_paje",
    "write_metadata",
    "read_metadata",
    "TraceIOError",
]

CSV_HEADER = ("resource_path", "state", "start", "end")
#: Rows :func:`parse_csv` reads and encodes at a time.  The row lists of one
#: block are dropped before the next is read, which bounds the parser's
#: Python-object memory whatever the file size.
_CSV_BLOCK_ROWS = 4096
#: Bytes :func:`scan_csv` reads at a time; each block is cut at its last
#: newline and the rest carried into the next.  The scan's buffers are
#: O(block), whatever the file size.
_CSV_SCAN_BYTES = 1 << 20
#: The header line :func:`scan_csv` accepts, ended by ``\n`` or ``\r\n``.
_CSV_HEADER_LINE = ",".join(CSV_HEADER).encode()


class TraceIOError(ValueError):
    """Raised when a trace file cannot be parsed.

    Every parse failure of :func:`read_csv` / :func:`read_paje` — malformed
    rows, undecodable bytes, invalid timestamps or intervals, inconsistent
    resource paths — is reported as a :class:`TraceIOError` (or a subclass)
    whose message names the offending file and, for row-level problems, the
    1-based line number.  Internal exception types (``csv.Error``,
    ``UnicodeDecodeError``, :class:`~repro.trace.events.EventError`, ...)
    never leak to callers of the readers.
    """


def _build_hierarchy(source: Path, leaf_paths: "list[tuple[str, ...]]") -> Hierarchy:
    """Rebuild the hierarchy from on-disk resource paths, as a parse step."""
    if not leaf_paths:
        raise TraceIOError(f"{source}: empty trace file")
    try:
        return Hierarchy.from_paths(leaf_paths)
    except HierarchyError as exc:
        # E.g. one path is both a leaf and an interior node of another.
        raise TraceIOError(f"{source}: inconsistent resource paths: {exc}") from exc


def _build_trace(
    source: Path,
    intervals: "list[StateInterval]",
    hierarchy: Hierarchy,
    states: "StateRegistry | None",
) -> Trace:
    """Assemble the trace, mapping content errors to :class:`TraceIOError`."""
    try:
        return Trace(intervals, hierarchy=hierarchy, states=states)
    except (TraceError, EventError) as exc:
        # A caller-provided hierarchy/registry may reject the file's content
        # (unknown resource, conflicting state): still an unreadable trace.
        raise TraceIOError(f"{source}: invalid trace content: {exc}") from exc


# --------------------------------------------------------------------------- #
# CSV state-interval format
# --------------------------------------------------------------------------- #
def _leaf_paths(hierarchy: Hierarchy) -> dict[str, str]:
    """Map leaf name -> slash-joined path used on disk."""
    return {leaf.name: "/".join(leaf.path) for leaf in hierarchy.leaves}


def _csv_rows(trace: Trace) -> "Iterator[tuple[str, str, str, str]]":
    """Header then one row per interval — the single source of CSV truth.

    Both :func:`write_csv` and :func:`csv_size_bytes` serialize exactly these
    rows, so the reported "trace size" (Table II) can never drift from the
    bytes actually written.
    """
    paths = _leaf_paths(trace.hierarchy)
    yield CSV_HEADER
    for interval in trace.intervals:
        yield (
            paths[interval.resource],
            interval.state,
            f"{interval.start:.12g}",
            f"{interval.end:.12g}",
        )


def write_csv(trace: Trace, path: str | os.PathLike[str]) -> int:
    """Write ``trace`` as UTF-8 CSV; returns the number of bytes written."""
    target = Path(path)
    with target.open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(_csv_rows(trace))
    return target.stat().st_size


def csv_size_bytes(trace: Trace) -> int:
    """Size in bytes of the CSV serialization, computed in memory."""
    buffer = io.StringIO()
    csv.writer(buffer).writerows(_csv_rows(trace))
    return len(buffer.getvalue().encode("utf-8"))


def read_csv(
    path: str | os.PathLike[str],
    hierarchy: Hierarchy | None = None,
    states: StateRegistry | None = None,
) -> Trace:
    """Read a UTF-8 CSV trace written by :func:`write_csv`.

    When ``hierarchy`` is omitted it is rebuilt from the resource paths found
    in the file (leaf order = order of first appearance).

    On the ``c`` kernel tier the file's bytes go through the compiled scan
    (:func:`scan_csv`); any file it declines, and every file on the
    ``numpy`` tier, is parsed by :func:`parse_csv`.  Both give the same
    trace, and every error is :func:`parse_csv`'s.
    """
    source = Path(path)
    with source.open("rb") as stream:
        trace = scan_csv(source, stream, hierarchy=hierarchy, states=states)
    if trace is not None:
        return trace
    with source.open("r", newline="", encoding="utf-8") as handle:
        return parse_csv(source, handle, hierarchy=hierarchy, states=states)


def _scan_enabled() -> bool:
    """Whether CSV bytes go through the compiled scan: the default tier is ``c``."""
    try:
        return kernels.default_kernel() == "c" and kernels.csv_scan_available()
    except kernels.KernelUnavailableError:
        return False


def scan_csv(
    source: Path,
    stream: "io.BufferedIOBase",
    hierarchy: Hierarchy | None = None,
    states: StateRegistry | None = None,
) -> "Trace | None":
    """The trace of the CSV bytes of ``stream`` through the compiled scan, or ``None``.

    The bytes entry point of :func:`read_csv` and
    :func:`repro.store.read_live_source`, used when the default kernel tier
    is ``c`` (``None`` on the ``numpy`` tier, before anything is read).
    The header line must be :data:`CSV_HEADER` as written, ended by
    ``\\n`` or ``\\r\\n``.  The rest is read in blocks of
    :data:`_CSV_SCAN_BYTES` cut at their last newline (a final row without
    one is the last block); each block must be valid UTF-8 and goes to
    ``csv_scan`` of the ``c`` library (:func:`repro.core.kernels.csv_scan`),
    which splits the rows, interns their paths and states and computes the
    timestamps that are on its exact path; Python decodes only each block's
    distinct names and calls ``float()`` on the other timestamps.  Every
    row then passes :func:`parse_csv`'s checks.

    Returns ``None`` — the caller parses the input with :func:`parse_csv`,
    which reports the error, if any — on anything the scan does not read
    exactly as ``csv.reader`` does or any row :func:`parse_csv` would
    reject: another header, a quote, a NUL, a bare ``\\r``, a blank line, a
    row of other than four fields, a field longer than
    ``csv.field_size_limit()``, invalid UTF-8, a timestamp ``float()``
    refuses, a non-finite or reversed interval, an empty path or state.
    Errors of the whole trace (no rows, inconsistent paths, a leaf missing
    from ``hierarchy``) are raised as :func:`parse_csv` raises them.
    """
    if not _scan_enabled():
        return None
    header = stream.readline(len(_CSV_HEADER_LINE) + 2)
    if header not in (_CSV_HEADER_LINE + b"\n", _CSV_HEADER_LINE + b"\r\n"):
        return None
    blocks = _CsvBlocks(source)
    field_limit = csv.field_size_limit()
    carry = b""
    while True:
        chunk = stream.read(_CSV_SCAN_BYTES)
        data = carry + chunk if carry else chunk
        cut = data.rfind(b"\n") + 1 if chunk else len(data)
        if cut and not blocks.scan(data, cut, field_limit):
            return None
        if not chunk:
            return blocks.trace(hierarchy, states)
        carry = data[cut:]


def parse_csv(
    source: Path,
    handle: "io.TextIOBase",
    hierarchy: Hierarchy | None = None,
    states: StateRegistry | None = None,
) -> Trace:
    """Parse CSV trace text from an already-open handle.

    ``source`` is only used to label error messages.  Exposed separately from
    :func:`read_csv` so tailing callers (``repro stream`` / ``repro watch``)
    can feed the newline-terminated prefix of a file that is still being
    written — see :func:`repro.store.read_live_source`.

    Rows are read in blocks and turned into :class:`TraceColumns` without
    per-interval objects: the result is the trace ``Trace(intervals)`` would
    build from one :class:`StateInterval` per row — same row order, state
    ids and error messages (the first bad row's, with its line number).

    The reference reader: the ``numpy`` tier's, and the ``c`` tier's for
    every input its compiled scan (:func:`scan_csv`) declines, so every
    error message comes from here.  ``handle`` should decode UTF-8
    (:func:`read_csv` opens files so).
    """
    reader = csv.reader(handle)
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise TraceIOError(f"{source}:{max(reader.line_num, 1)}: malformed CSV: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise TraceIOError(f"{source}: not valid UTF-8 text: {exc}") from exc
    if header is None or tuple(header) != CSV_HEADER:
        raise TraceIOError(f"{source}: missing or invalid CSV header: {header!r}")
    blocks = _CsvBlocks(source)
    while True:
        rows: list[list[str]] = []
        try:
            # ``extend`` keeps the rows read before an error, so the rows
            # ahead of a malformed record are checked before it is reported.
            rows.extend(itertools.islice(reader, _CSV_BLOCK_ROWS))
        except csv.Error as exc:
            blocks.add(rows)
            raise TraceIOError(
                f"{source}:{max(reader.line_num, blocks.line_number)}: malformed CSV: {exc}"
            ) from exc
        except UnicodeDecodeError as exc:
            blocks.add(rows)
            raise TraceIOError(f"{source}: not valid UTF-8 text: {exc}") from exc
        blocks.add(rows)
        if len(rows) < _CSV_BLOCK_ROWS:
            return blocks.trace(hierarchy, states)


def _floats(texts: "tuple[str, ...]") -> "tuple[np.ndarray, np.ndarray | None]":
    """``float(text)`` of every text as ``<f8``, and the mask of unparsable ones."""
    try:
        return np.fromiter(map(float, texts), dtype="<f8", count=len(texts)), None
    except ValueError:
        pass
    values = np.zeros(len(texts), dtype="<f8")
    bad = np.zeros(len(texts), dtype=bool)
    for index, text in enumerate(texts):
        try:
            values[index] = float(text)
        except ValueError:
            bad[index] = True
    return values, bad


def _raise_row_error(source: Path, line_number: int, row: "list[str]") -> None:
    """Raise the error of a row the block checks flagged (checks in row order)."""
    resource_path, state, start_text, end_text = row
    parts = tuple(p for p in resource_path.split("/") if p)
    if not parts:
        raise TraceIOError(f"{source}:{line_number}: empty resource path")
    try:
        start = float(start_text)
        end = float(end_text)
    except ValueError as exc:
        raise TraceIOError(f"{source}:{line_number}: invalid timestamps") from exc
    try:
        StateInterval(start=start, end=end, resource=parts[-1], state=state)
    except EventError as exc:
        # Reversed or non-finite interval bounds, empty state name.
        raise TraceIOError(f"{source}:{line_number}: invalid interval: {exc}") from exc
    raise AssertionError(f"{source}:{line_number}: row flagged but valid: {row!r}")


class _CsvBlocks:
    """Checked, dictionary-encoded CSV row blocks, assembled into a trace.

    Paths and states are coded in order of first appearance.  Blocks come
    from :func:`parse_csv` (:meth:`add`, row lists) or from the compiled
    scan (:meth:`scan`, bytes); both run the same row checks
    (:meth:`_flagged`) as one vector test per block.  :meth:`add` re-checks
    the first flagged row alone for its message; :meth:`scan` declines.
    """

    def __init__(self, source: Path):
        self._source = source
        #: Line number of the last row read (the header is line 1).
        self.line_number = 1
        self._path_codes: dict[str, int] = {}
        self._state_codes: dict[str, int] = {}
        #: Path parts, by path code.
        self._parts: list[tuple[str, ...]] = []
        self._blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []

    @staticmethod
    def _encode(values: "tuple[str, ...]", codes: "dict[str, int]") -> "tuple[np.ndarray, list[str]]":
        """The code of every value, and the values seen for the first time."""
        new = [value for value in dict.fromkeys(values) if value not in codes]
        for value in new:
            codes[value] = len(codes)
        return np.fromiter(map(codes.__getitem__, values), dtype=np.int32, count=len(values)), new

    def add(self, rows: "list[list[str]]") -> None:
        """Check and encode one block of rows (blank rows are skipped)."""
        first_line = self.line_number + 1
        self.line_number += len(rows)
        widths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
        bad_width = np.flatnonzero((widths != 4) & (widths != 0))
        limit = int(bad_width[0]) if bad_width.size else len(rows)
        kept = np.flatnonzero(widths[:limit])
        block = rows[:limit] if kept.size == limit else [rows[i] for i in kept.tolist()]
        if block:
            path_texts, state_texts, start_texts, end_texts = zip(*block)
            paths, new_paths = self._encode(path_texts, self._path_codes)
            self._parts.extend(tuple(p for p in path.split("/") if p) for path in new_paths)
            states, _ = self._encode(state_texts, self._state_codes)
            starts, bad_starts = _floats(start_texts)
            ends, bad_ends = _floats(end_texts)
            flagged = self._flagged(starts, ends, paths, states)
            for bad in (bad_starts, bad_ends):
                if bad is not None:
                    flagged |= bad
            if flagged.any():
                index = int(flagged.argmax())
                _raise_row_error(self._source, first_line + int(kept[index]), block[index])
            self._blocks.append((starts, ends, paths, states))
        if bad_width.size:
            raise TraceIOError(
                f"{self._source}:{first_line + limit}: expected 4 columns, got {widths[limit]}"
            )

    def _flagged(
        self, starts: np.ndarray, ends: np.ndarray, paths: np.ndarray, states: np.ndarray
    ) -> np.ndarray:
        """The rows of a block with a non-finite or reversed interval, an empty path or state."""
        flagged = ~(np.isfinite(starts) & np.isfinite(ends)) | (ends < starts)
        flagged |= np.array([not parts for parts in self._parts])[paths]
        if "" in self._state_codes:
            flagged |= states == self._state_codes[""]
        return flagged

    @staticmethod
    def _intern(
        data: bytes, keys: np.ndarray, codes: "dict[str, int]"
    ) -> "tuple[np.ndarray, list[str]]":
        """The global code of each block-local name, and the names seen for the first time."""
        names = [data[offset : offset + length].decode("utf-8") for offset, length in keys.tolist()]
        known = len(codes)
        lut = np.fromiter(
            (codes.setdefault(name, len(codes)) for name in names), dtype=np.int32, count=len(names)
        )
        return lut, [name for name in names if codes[name] >= known]

    def scan(self, data: bytes, size: int, field_limit: int) -> bool:
        """Add the whole CSV rows of ``data[:size]`` through the compiled scan.

        ``False`` where it declines: a block the scan declines, or with a row
        :meth:`add` would reject, is not added.  Names keep their order of
        first appearance: the scan's block-local codes follow it, and are
        mapped to the global ones in that order.
        """
        if not data.isascii():
            try:
                data[:size].decode("utf-8")
            except UnicodeDecodeError:
                return False
        rows = kernels.csv_scan(data, size, field_limit)
        if rows is None:
            return False
        starts, ends = rows.starts, rows.ends
        for row in np.flatnonzero(rows.flags).tolist():
            offset = int(rows.row_starts[row])
            stop = data.find(b"\n", offset, size)
            line = data[offset : size if stop < 0 else stop]
            fields = line.removesuffix(b"\r").decode("utf-8").split(",")
            try:
                if rows.flags[row] & 1:
                    starts[row] = float(fields[2])
                if rows.flags[row] & 2:
                    ends[row] = float(fields[3])
            except ValueError:
                return False
        path_lut, new_paths = self._intern(data, rows.path_keys, self._path_codes)
        self._parts.extend(tuple(p for p in path.split("/") if p) for path in new_paths)
        state_lut, _ = self._intern(data, rows.state_keys, self._state_codes)
        paths, states = path_lut[rows.paths], state_lut[rows.states]
        if self._flagged(starts, ends, paths, states).any():
            return False
        self._blocks.append((starts, ends, paths, states))
        return True

    def trace(self, hierarchy: "Hierarchy | None", states: "StateRegistry | None") -> Trace:
        """The trace of every row added, in ``StateInterval`` order.

        Rows sort by (start, end, leaf name, state name) with one stable
        ``lexsort``, skipped when they already are in that order (a stable
        sort of ordered rows is the identity; :func:`write_csv` writes them
        so); state ids follow the first appearance of each state in sorted
        order, after any states ``states`` already registers.
        """
        if hierarchy is None:
            hierarchy = _build_hierarchy(self._source, list(dict.fromkeys(self._parts)))
        if self._blocks:
            starts, ends, paths, codes = map(np.concatenate, zip(*self._blocks))
        else:
            starts = ends = np.empty(0, dtype="<f8")
            paths = codes = np.empty(0, dtype=np.int32)
        leaf_names = [parts[-1] for parts in self._parts]
        state_names = list(self._state_codes)
        keys = (starts, ends, _ranks(leaf_names)[paths], _ranks(state_names)[codes])
        if _ordered(keys):
            # Codes number the states in order of first appearance.
            first_seen = range(len(state_names))
        else:
            order = np.lexsort(keys[::-1])
            starts, ends, paths, codes = starts[order], ends[order], paths[order], codes[order]
            seen, first = np.unique(codes, return_index=True)
            first_seen = seen[np.argsort(first)].tolist()
        leaf_index = {name: i for i, name in enumerate(hierarchy.leaf_names)}
        leaf_ids = np.array([leaf_index.get(name, -1) for name in leaf_names], dtype="<i4")
        resource_ids = leaf_ids[paths]
        unknown = np.flatnonzero(resource_ids < 0)
        if unknown.size:
            name = leaf_names[paths[unknown[0]]]
            exc = TraceError(f"interval resource {name!r} is not a leaf of the hierarchy")
            raise TraceIOError(f"{self._source}: invalid trace content: {exc}") from exc
        registry = states.copy() if states is not None else StateRegistry()
        state_ids = np.zeros(len(state_names), dtype="<i4")
        for code in first_seen:
            state_ids[code] = registry.add(state_names[code])
        columns = TraceColumns(starts, ends, resource_ids, state_ids[codes])
        return Trace.from_columns(columns, hierarchy, registry)


def _ordered(keys: "tuple[np.ndarray, ...]") -> bool:
    """Whether the rows are non-decreasing on ``keys``, the most significant first."""
    tied = np.ones(max(keys[0].size - 1, 0), dtype=bool)
    for key in keys:
        before, after = key[:-1], key[1:]
        if (tied & (before > after)).any():
            return False
        tied &= before == after
    return True


def _ranks(names: "list[str]") -> np.ndarray:
    """The rank of every name in code-point order (equal names, equal ranks)."""
    rank = {name: i for i, name in enumerate(sorted(set(names)))}
    return np.array([rank[name] for name in names], dtype=np.intp)


# --------------------------------------------------------------------------- #
# Pajé-like enter/leave format
# --------------------------------------------------------------------------- #
def write_paje(trace: Trace, path: str | os.PathLike[str]) -> int:
    """Write a Pajé-like event dump; returns the number of event lines written.

    Format: one line per event, ``KIND timestamp resource_path state`` with
    ``KIND`` in ``{PajePushState, PajePopState}``.
    """
    paths = _leaf_paths(trace.hierarchy)
    events: list[tuple[float, int, str]] = []
    for interval in trace.intervals:
        resource_path = paths[interval.resource]
        events.append(
            (interval.start, 0, f"PajePushState {interval.start:.12g} {resource_path} {interval.state}")
        )
        events.append(
            (interval.end, 1, f"PajePopState {interval.end:.12g} {resource_path} {interval.state}")
        )
    events.sort(key=lambda item: (item[0], item[1]))
    target = Path(path)
    with target.open("w", encoding="utf-8") as handle:
        for _, _, line in events:
            handle.write(line + "\n")
    return len(events)


def read_paje(
    path: str | os.PathLike[str],
    hierarchy: Hierarchy | None = None,
    states: StateRegistry | None = None,
) -> Trace:
    """Read a Pajé-like event dump written by :func:`write_paje`.

    Push/pop events are matched per resource and state using a FIFO
    discipline.  For the non-overlapping per-resource traces a well-formed
    tracer emits this reproduces the original intervals exactly — including
    back-to-back same-state intervals, where the new interval's push and the
    old one's pop share a timestamp (pushes are written first at equal
    timestamps, so LIFO would pair the pop with the *new* push and corrupt
    the round-trip).  Overlapping same-state intervals on one resource are
    inherently ambiguous in the event stream; FIFO then picks one valid
    duration-preserving decomposition.
    """
    source = Path(path)
    with source.open("r", encoding="utf-8") as handle:
        return parse_paje(source, handle, hierarchy=hierarchy, states=states)


def parse_paje(
    source: Path,
    handle: "io.TextIOBase",
    hierarchy: Hierarchy | None = None,
    states: StateRegistry | None = None,
) -> Trace:
    """Parse Pajé-like event text from an already-open handle.

    ``source`` is only used to label error messages; see :func:`parse_csv`
    for why the handle-based form exists.
    """
    open_states: dict[tuple[str, str], list[float]] = {}
    intervals: list[StateInterval] = []
    leaf_paths: list[tuple[str, ...]] = []
    seen: set[tuple[str, ...]] = set()
    line_number = 0
    try:
        for line_number, raw_line in enumerate(handle, start=1):
            line = raw_line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 4:
                raise TraceIOError(
                    f"{source}:{line_number}: expected 4 fields, got {len(parts)}"
                )
            kind, timestamp_text, resource_path, state = parts
            try:
                timestamp = float(timestamp_text)
            except ValueError as exc:
                raise TraceIOError(f"{source}:{line_number}: invalid timestamp") from exc
            path_parts = tuple(p for p in resource_path.split("/") if p)
            if not path_parts:
                raise TraceIOError(f"{source}:{line_number}: empty resource path")
            if path_parts not in seen:
                seen.add(path_parts)
                leaf_paths.append(path_parts)
            resource = path_parts[-1]
            key = (resource, state)
            if kind == "PajePushState":
                open_states.setdefault(key, []).append(timestamp)
            elif kind == "PajePopState":
                queue = open_states.get(key)
                if not queue:
                    raise TraceIOError(
                        f"{source}:{line_number}: PajePopState without matching push for {key}"
                    )
                start = queue.pop(0)
                try:
                    interval = StateInterval(
                        start=start, end=timestamp, resource=resource, state=state
                    )
                except EventError as exc:
                    # Pop before its push, or a non-finite timestamp pair.
                    raise TraceIOError(
                        f"{source}:{line_number}: invalid interval: {exc}"
                    ) from exc
                intervals.append(interval)
            else:
                raise TraceIOError(f"{source}:{line_number}: unknown event kind {kind!r}")
    except UnicodeDecodeError as exc:
        raise TraceIOError(f"{source}: not valid UTF-8 text: {exc}") from exc
    dangling = {key: stack for key, stack in open_states.items() if stack}
    if dangling:
        raise TraceIOError(f"{source}: unmatched push events: {sorted(dangling)}")
    if hierarchy is None:
        hierarchy = _build_hierarchy(source, leaf_paths)
    return _build_trace(source, intervals, hierarchy, states)


# --------------------------------------------------------------------------- #
# Metadata side-car
# --------------------------------------------------------------------------- #
def write_metadata(trace: Trace, path: str | os.PathLike[str]) -> None:
    """Write the trace metadata and state colours as a JSON side-car file."""
    payload: dict[str, Any] = {
        "metadata": trace.metadata,
        "states": {name: trace.states.color(name) for name in trace.states.names},
        "n_intervals": trace.n_intervals,
        "n_resources": trace.hierarchy.n_leaves,
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")


def read_metadata(path: str | os.PathLike[str]) -> dict[str, Any]:
    """Read a JSON metadata side-car written by :func:`write_metadata`."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise TraceIOError(f"{path}: invalid JSON metadata") from exc
    if not isinstance(payload, dict):
        raise TraceIOError(f"{path}: metadata must be a JSON object")
    return payload
