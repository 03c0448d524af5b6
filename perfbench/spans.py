"""In-memory spans recorded by the benchmark around calls into the program.

A span has a name (``<layer>.<step>``), a start and end on the
``perf_counter`` clock, the span that caused it and the operation it belongs
to; spans of one operation share the operation id.  The program itself is
not instrumented: the benchmark opens a span around each public call it
makes, so a layer's self time is its span's duration minus its children's.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    id: int
    parent: Optional[int]
    op: int
    name: str
    start: float
    end: float = 0.0
    child_seconds: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_seconds


class Tracer:
    """Collects spans in memory; :meth:`write` saves them when a run ends."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._ops = 0

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._ops += 1
        record = Span(
            id=len(self.spans),
            parent=None if parent is None else parent.id,
            op=self._ops,
            name=name,
            start=time.perf_counter(),
        )
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_seconds += record.seconds

    def mark(self) -> int:
        """Index of the next span, to select the spans of a later block."""
        return len(self.spans)

    def since(self, mark: int) -> List[Span]:
        return self.spans[mark:]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(span) for span in self.spans]))


def busy_by_name(spans: List[Span]) -> Dict[str, float]:
    """Inclusive seconds per span name over ``spans``."""
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + span.seconds
    return totals


def self_by_name(spans: List[Span]) -> Dict[str, float]:
    """Self seconds (duration minus children) per span name over ``spans``."""
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + span.self_seconds
    return totals
