"""Request-scoped span recording with Chrome trace-event export.

A :class:`RequestTrace` is a tree of :class:`Span` nodes covering one
request (or one CLI command).  The active trace rides a ``ContextVar`` so
instrumentation points deep in the pipeline — the DP kernel, prefix-table
construction, serialization — call :func:`span` without any plumbing:

    with span("dp.sweep", p=0.7):
        ...

When no trace is active, :func:`span` returns a shared no-op context
manager, so instrumented code pays one ContextVar read and nothing else.

Completed traces convert to Chrome trace-event JSON (``ph: "X"`` complete
events, microsecond timestamps) loadable in ``chrome://tracing`` or
Perfetto, and the servers keep a bounded :class:`TraceRing` of recent
requests behind ``GET /v1/debug/trace``.
"""

from __future__ import annotations

import contextlib
import os
import random
import threading
import time
from collections import deque
from contextvars import ContextVar
from typing import Any, Deque, Dict, List, Optional

__all__ = [
    "Span",
    "RequestTrace",
    "TraceRing",
    "current_request_id",
    "current_trace",
    "new_request_id",
    "span",
    "start_trace",
]

#: Correlation ids only need uniqueness, not unpredictability: the module
#: PRNG avoids the per-call ``os.urandom`` syscall of ``uuid.uuid4`` (which
#: costs more than the rest of the request instrumentation combined).
_id_random = random.Random()

#: Pre-formatted ids, refilled in batches: generating and hex-formatting in
#: bulk amortizes to ~1/4 the per-call cost, and the front pays this on
#: every request.  deque ops are atomic under the GIL, so concurrent
#: handler threads draw from the pool without a lock.
_id_pool: "Deque[str]" = deque()


def _reset_id_state() -> None:
    """Forked workers must not inherit the parent's PRNG state or pool —
    they would hand out the very same id sequence as their siblings."""
    global _id_random
    _id_random = random.Random()
    _id_pool.clear()


if hasattr(os, "register_at_fork"):  # absent on Windows
    os.register_at_fork(after_in_child=_reset_id_state)


def new_request_id() -> str:
    """A compact, unique request id (hex, 16 chars)."""
    while True:
        try:
            return _id_pool.popleft()
        except IndexError:
            # Another thread may drain the fresh batch before our popleft;
            # just refill again.
            bits = _id_random.getrandbits
            _id_pool.extend(f"{bits(64):016x}" for _ in range(64))


class Span:
    """One timed operation; children nest via the active-span ContextVar."""

    __slots__ = ("name", "args", "start", "end", "children")

    def __init__(self, name: str, args: "Dict[str, Any]") -> None:
        self.name = name
        self.args = args
        self.start = time.perf_counter()
        self.end: "Optional[float]" = None
        self.children: "List[Span]" = []

    @property
    def duration(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start

    def to_dict(self) -> "Dict[str, Any]":
        return {
            "name": self.name,
            "args": self.args,
            "start": self.start,
            "duration": self.duration,
            "children": [child.to_dict() for child in self.children],
        }


class RequestTrace:
    """The span tree for one request, plus identifying metadata."""

    def __init__(self, name: str, request_id: str, **args: Any) -> None:
        self.request_id = request_id
        self.wall_time = time.time()
        self.root = Span(name, dict(args))
        self._stack: "List[Span]" = [self.root]

    @property
    def name(self) -> str:
        return self.root.name

    def push(self, name: str, args: "Dict[str, Any]") -> Span:
        node = Span(name, args)
        self._stack[-1].children.append(node)
        self._stack.append(node)
        return node

    def pop(self, node: Span) -> None:
        node.end = time.perf_counter()
        if self._stack and self._stack[-1] is node:
            self._stack.pop()

    def finish(self) -> None:
        now = time.perf_counter()
        # Close any spans left open by an exception unwinding past them.
        while self._stack:
            node = self._stack.pop()
            if node.end is None:
                node.end = now

    def coverage(self) -> float:
        """Fraction of root wall time covered by its direct children."""
        total = self.root.duration
        if total <= 0.0:
            return 0.0
        covered = sum(child.duration for child in self.root.children)
        return min(1.0, covered / total)

    def to_dict(self) -> "Dict[str, Any]":
        return {
            "request_id": self.request_id,
            "wall_time": self.wall_time,
            "root": self.root.to_dict(),
        }

    def chrome_events(self, pid: int = 0, tid: int = 0) -> "List[Dict[str, Any]]":
        """Flatten to Chrome trace-event ``ph:"X"`` complete events.

        Timestamps are rebased so the root starts at the trace's wall-clock
        epoch (µs); nesting is implied by containment, which the viewers
        reconstruct for same-tid complete events.
        """
        if pid == 0:
            pid = os.getpid()
        base_us = self.wall_time * 1e6
        origin = self.root.start
        events: "List[Dict[str, Any]]" = []

        def visit(node: Span) -> None:
            args = dict(node.args)
            args["request_id"] = self.request_id
            events.append({
                "name": node.name,
                "ph": "X",
                "ts": round(base_us + (node.start - origin) * 1e6, 3),
                "dur": round(node.duration * 1e6, 3),
                "pid": pid,
                "tid": tid,
                "cat": "repro",
                "args": args,
            })
            for child in node.children:
                visit(child)

        visit(self.root)
        return events


#: The active trace for the current thread/task; None almost always.
_current: "ContextVar[Optional[RequestTrace]]" = ContextVar(
    "repro_obs_trace", default=None
)


def current_trace() -> "Optional[RequestTrace]":
    return _current.get()


def current_request_id() -> "Optional[str]":
    trace = _current.get()
    return trace.request_id if trace is not None else None


class _NullSpan:
    """Shared no-op context manager: the cost of tracing when it's off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _LiveSpan:
    __slots__ = ("_trace", "_node")

    def __init__(self, trace: RequestTrace, name: str, args: "Dict[str, Any]") -> None:
        self._trace = trace
        self._node = trace.push(name, args)

    def __enter__(self) -> Span:
        return self._node

    def __exit__(self, *exc_info: object) -> None:
        self._trace.pop(self._node)


def span(name: str, **args: Any) -> "contextlib.AbstractContextManager[Any]":
    """Record a child span on the active trace, or do nothing if none."""
    trace = _current.get()
    if trace is None:
        return _NULL_SPAN
    return _LiveSpan(trace, name, args)


class _TraceScope:
    """``with start_trace(...)`` body — a plain class beats a generator
    context manager by a few microseconds, which matters once per request."""

    __slots__ = ("_trace", "_token")

    def __init__(self, trace: RequestTrace) -> None:
        self._trace = trace

    def __enter__(self) -> RequestTrace:
        self._token = _current.set(self._trace)
        return self._trace

    def __exit__(self, *exc_info: object) -> None:
        _current.reset(self._token)
        self._trace.finish()
        return None


def start_trace(
    name: str, request_id: "Optional[str]" = None, **args: Any
) -> _TraceScope:
    """Open a root trace for the dynamic extent of the ``with`` body."""
    return _TraceScope(RequestTrace(name, request_id or new_request_id(), **args))


class TraceRing:
    """Bounded, thread-safe ring of recently finished request traces."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("ring capacity must be >= 1")
        self.capacity = capacity
        self._traces: "Deque[RequestTrace]" = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def push(self, trace: RequestTrace) -> None:
        with self._lock:
            self._traces.append(trace)

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def snapshot(self) -> "List[RequestTrace]":
        with self._lock:
            return list(self._traces)

    def chrome_payload(self, limit: "Optional[int]" = None) -> "Dict[str, Any]":
        """Recent traces as one Chrome trace-event JSON document.

        Each request becomes its own ``tid`` so concurrent requests render
        as parallel tracks; newest requests come last.
        """
        traces = self.snapshot()
        if limit is not None:
            traces = traces[-limit:]
        events: "List[Dict[str, Any]]" = []
        for tid, trace in enumerate(traces):
            events.extend(trace.chrome_events(tid=tid))
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "producer": "repro.obs",
                "n_requests": len(traces),
            },
        }
