"""Corpus-aware session registry with LRU-bounded concurrent sessions.

The pre-corpus service pinned every served trace in memory for the lifetime
of the process — fine for a handful of traces, unworkable for a corpus of
hundreds.  :class:`SessionRegistry` distinguishes two member classes:

* **pinned** sessions — passed in explicitly (``repro serve a.rtz b.csv``);
  always resident, never evicted (unchanged pre-corpus behaviour);
* **corpus** sessions — named by a :class:`~repro.batch.Corpus`; opened
  lazily on first query (digest-verified against the corpus manifest) and
  kept in an LRU of at most ``max_sessions`` concurrently resident sessions.

Eviction only drops the registry's reference: requests already holding the
session finish normally, and the next query for that name reopens it from
the store (whose on-disk model cache makes the reopen cheap).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Iterable, Mapping

from ..batch.corpus import Corpus
from ..pipeline.errors import PipelineError
from ..pipeline.executor import AnalysisEngine

__all__ = ["SessionRegistry", "DEFAULT_MAX_SESSIONS", "paginate_entries"]


def paginate_entries(
    entries: "list[dict[str, Any]]",
    limit: "int | None" = None,
    offset: int = 0,
    digest: "str | None" = None,
) -> "tuple[list[dict[str, Any]], dict[str, Any]]":
    """Apply the ``GET /v1/traces`` digest filter and pagination.

    Shared by the single-process registry and the cluster front-end (which
    merges per-shard listings before paginating), so both produce identical
    ``meta.total`` / ``meta.next_offset`` blocks.  ``limit=None`` returns
    everything after ``offset``.
    """
    if digest is not None:
        entries = [entry for entry in entries if entry.get("digest") == digest]
    total = len(entries)
    end = total if limit is None else min(offset + limit, total)
    page = entries[offset:end]
    meta: "dict[str, Any]" = {
        "limit": limit,
        "next_offset": end if end < total else None,
        "offset": offset,
        "total": total,
    }
    return page, meta

#: Default bound on concurrently resident corpus-opened sessions.
DEFAULT_MAX_SESSIONS = 8


class SessionRegistry:
    """Name-addressable analysis sessions over pinned traces and a corpus.

    Parameters
    ----------
    sessions:
        Pinned sessions by name (may be empty).
    corpus:
        Optional corpus whose members are served lazily.
    max_sessions:
        Upper bound on concurrently resident corpus-opened sessions (the
        LRU size).  Pinned sessions do not count against it.

    Notes
    -----
    All methods are thread-safe; the registry lock is never held while a
    session computes, only around the name table and the LRU.
    """

    def __init__(
        self,
        sessions: "Mapping[str, AnalysisEngine] | None" = None,
        corpus: "Corpus | None" = None,
        max_sessions: int = DEFAULT_MAX_SESSIONS,
    ):
        if max_sessions < 1:
            raise PipelineError("max_sessions must be at least 1")
        self._pinned: dict[str, AnalysisEngine] = dict(sessions or {})
        self._corpus = corpus
        self._max_sessions = int(max_sessions)
        self._lru: "OrderedDict[str, AnalysisEngine]" = OrderedDict()
        self._opened = 0
        self._evicted = 0
        self._hits = 0
        self._misses = 0
        self._lock = threading.RLock()
        if corpus is not None:
            overlap = sorted(set(self._pinned) & set(corpus.names))
            if overlap:
                raise PipelineError(
                    f"trace names served both pinned and from the corpus: {overlap}"
                )
        if not self._pinned and corpus is None:
            raise PipelineError("the service needs at least one trace")

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def max_sessions(self) -> int:
        """The LRU bound for corpus-opened sessions."""
        return self._max_sessions

    def names(self) -> "list[str]":
        """Every addressable trace name (pinned + corpus), sorted."""
        names = set(self._pinned)
        if self._corpus is not None:
            names.update(self._corpus.names)
        return sorted(names)

    def loaded(self) -> "list[AnalysisEngine]":
        """Currently resident sessions (pinned first, then LRU order)."""
        with self._lock:
            return [
                *(self._pinned[name] for name in sorted(self._pinned)),
                *self._lru.values(),
            ]

    def stats(self) -> dict[str, int]:
        """Registry counters for ``GET /v1/health``."""
        with self._lock:
            return {
                "n_traces": len(self.names()),
                "n_resident": len(self._pinned) + len(self._lru),
                "max_sessions": self._max_sessions,
                "opened": self._opened,
                "evicted": self._evicted,
                "hits": self._hits,
                "misses": self._misses,
            }

    # ------------------------------------------------------------------ #
    # Resolution
    # ------------------------------------------------------------------ #
    def get(self, name: str) -> AnalysisEngine:
        """The session for ``name``, opening it from the corpus if needed.

        Raises :class:`LookupError` for unknown names and
        :class:`~repro.trace.io.TraceIOError` (incl. corpus digest
        mismatches) when a corpus member cannot be opened.
        """
        with self._lock:
            session = self._pinned.get(name)
            if session is not None:
                self._hits += 1
                return session
            session = self._lru.get(name)
            if session is not None:
                self._lru.move_to_end(name)
                self._hits += 1
                return session
        if self._corpus is None or name not in self._corpus:
            raise LookupError(f"unknown trace {name!r}; served traces: {self.names()}")
        with self._lock:
            self._misses += 1
        # Load outside the lock: opening and digest-verifying a member can be
        # slow and must not serialize queries against resident sessions.
        source = self._corpus.entry(name).load()
        session = AnalysisEngine(source, name=name)
        with self._lock:
            existing = self._lru.get(name)
            if existing is not None:  # another thread won the race
                self._lru.move_to_end(name)
                return existing
            self._lru[name] = session
            self._opened += 1
            while len(self._lru) > self._max_sessions:
                self._lru.popitem(last=False)
                self._evicted += 1
            return session

    def resolve(self, name: "str | None") -> AnalysisEngine:
        """Session by name; the single served trace when ``name`` is omitted."""
        if name is None:
            names = self.names()
            if len(names) == 1:
                return self.get(names[0])
            raise LookupError(
                f"multiple traces served ({names}); the request must name one"
            )
        return self.get(name)

    def resolve_many(self, names: "Iterable[str] | None") -> "list[AnalysisEngine]":
        """Sessions for ``names`` (every served trace when ``None``).

        Materializes every session at once — with a large corpus, prefer
        iterating names and calling :meth:`get` one at a time so the LRU
        bound keeps residency flat (``POST /v1/batch`` does exactly that).
        """
        wanted = self.names() if names is None else list(names)
        return [self.get(str(name)) for name in wanted]

    def describe(self, name: str) -> str:
        """A path-like description of ``name`` for error reporting.

        The corpus member's path when the name comes from the corpus, else
        the bare name (pinned sessions have no backing path to quote).
        """
        if self._corpus is not None and name in self._corpus:
            return str(self._corpus.entry(name).path)
        return name

    def close(self) -> None:
        """Release every resident session (graceful-shutdown hook).

        Sessions hold no OS handles between queries, so closing is dropping
        the references: corpus LRU entries and pinned sessions are cleared so
        their models and result caches can be reclaimed.  ``repro serve``
        calls this after the HTTP server has drained on SIGTERM/SIGINT.
        """
        with self._lock:
            self._lru.clear()
            self._pinned.clear()

    # ------------------------------------------------------------------ #
    # Summaries
    # ------------------------------------------------------------------ #
    def listing_entries(self) -> "list[dict[str, Any]]":
        """One listing entry per served name, sorted by name.

        Resident sessions contribute their full summary (digest, generation,
        cache statistics) tagged ``"resident": true``; corpus members that
        are not currently loaded contribute a cheap placeholder carrying the
        manifest-pinned digest when the corpus froze one (no trace is opened
        just to be listed).
        """
        with self._lock:
            resident = {
                **{name: session for name, session in self._pinned.items()},
                **self._lru,
            }
        entries: "list[dict[str, Any]]" = []
        for name in self.names():
            session = resident.get(name)
            if session is not None:
                entry = session.summary()
                entry["resident"] = True
            else:
                assert self._corpus is not None  # only corpus members are lazy
                member = self._corpus.entry(name)
                entry = {
                    "name": name,
                    "kind": member.kind,
                    "digest": member.digest,
                    "resident": False,
                }
            entries.append(entry)
        return entries

    def traces_payload(
        self,
        limit: "int | None" = None,
        offset: int = 0,
        digest: "str | None" = None,
    ) -> dict[str, Any]:
        """The ``GET /v1/traces`` body: a filtered, paginated listing.

        Defaults return everything (library callers); the HTTP handler passes
        the parsed query parameters, bounding corpus listings.
        """
        page, meta = paginate_entries(
            self.listing_entries(), limit=limit, offset=offset, digest=digest
        )
        return {"available": self.names(), "meta": meta, "traces": page}
