"""Sharded service tier: a consistent-hash router over shard worker processes.

``repro serve --shards N`` stands up **N shard workers** — each a full
:class:`~repro.service.http.TraceServiceServer` in its own process, bound to
an ephemeral loopback port — behind one **front-end router**
(:class:`ClusterFrontServer`).  The front consistent-hashes each trace's
content digest onto the shard ring, so every trace has exactly one owner
shard holding its sessions, caches and (for store-backed traces) its single
append writer.

Design choices, in the order they matter:

* **Byte-identity by construction.**  The front proxies request and response
  bodies as raw bytes; the payloads a client sees are produced by the very
  same handler code whether it talks to ``--shards 1`` or ``--shards 8``.
  The only front-side re-serialization is the ``/v1/batch`` merge, which
  rebuilds the payload through :func:`~repro.pipeline.payloads.batch_payload`
  — the same function the shard uses — from the per-shard results.
* **Every shard can name every trace.**  Shards load the full corpus
  *description* (cheap) but only pre-warm the sessions they own, so routing
  keeps memory sharded in steady state while error messages (``unknown trace
  ... served traces: [...]``) and cross-shard ``/v1/compare`` stay identical
  to the single-process server.
* **Production guard-rails live at the front**: per-request proxy timeouts
  (504 ``shard_timeout``), a bounded in-flight counter on the expensive
  routes (429 ``overloaded`` + ``Retry-After``), an optional per-client
  token-bucket rate limit (429 ``rate_limited``), ``/healthz``/``/readyz``
  probes, and a supervisor that respawns dead shard workers (requests racing
  a dead shard answer 503 ``shard_unavailable``).
* **Graceful drain.**  ``SIGTERM`` on the front stops the supervisor, drains
  in-flight front requests, then ``SIGTERM``\\ s each shard — whose own
  handler drains and closes exactly like single-process ``repro serve``.

Everything is stdlib: :mod:`multiprocessing` workers, :mod:`http.client`
proxying, :mod:`hashlib` ring hashing.
"""

from __future__ import annotations

import bisect
import hashlib
import http.client
import json
import multiprocessing
import multiprocessing.connection
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..batch.corpus import Corpus, CorpusEntry, entry_for_path, load_corpus
from ..obs.logging import configure_logging
from ..obs.metrics import CONTENT_TYPE as METRICS_CONTENT_TYPE
from ..obs.metrics import format_value, merge_expositions
from ..obs.middleware import DEFAULT_TRACE_SAMPLE, ServerObservability
from ..obs.tracing import span
from ..pipeline.errors import PipelineError, RequestError
from ..pipeline.executor import AnalysisEngine
from ..pipeline.payloads import (
    API_VERSION,
    batch_payload,
    package_version,
)
from ..store.store import open_store
from .http import DrainableThreadingHTTPServer, JSONHandler, build_server, read_raw_body
from .registry import DEFAULT_MAX_SESSIONS, SessionRegistry, paginate_entries
from .routes import (
    Route,
    parse_traces_query,
    parse_watch_query,
    resolve_route,
)

__all__ = [
    "ClusterConfig",
    "ClusterFrontServer",
    "ClusterHandle",
    "HashRing",
    "ShardHandle",
    "ShardSpec",
    "ShardTimeoutError",
    "ShardUnavailableError",
    "TokenBucketLimiter",
    "plan_cluster",
    "routing_digest",
    "start_cluster",
]


class ShardUnavailableError(Exception):
    """A shard worker could not be reached (died, restarting, refused)."""


class ShardTimeoutError(Exception):
    """A shard worker did not answer within the request timeout."""


# --------------------------------------------------------------------------- #
# Consistent hashing
# --------------------------------------------------------------------------- #
class HashRing:
    """A consistent-hash ring mapping string keys onto shard indexes.

    Each shard contributes ``replicas`` virtual points (sha256 of
    ``"shard-{i}:{r}"``), so key ownership is spread evenly and — the point
    of consistent hashing — changing the shard count moves only ``~1/N`` of
    the keys instead of reshuffling everything.
    """

    def __init__(self, n_shards: int, replicas: int = 64):
        if n_shards < 1:
            raise PipelineError("the cluster needs at least one shard")
        points: List[Tuple[int, int]] = []
        for shard in range(n_shards):
            for replica in range(replicas):
                points.append((self._hash(f"shard-{shard}:{replica}"), shard))
        points.sort()
        self.n_shards = n_shards
        self._hashes = [point for point, _ in points]
        self._shards = [shard for _, shard in points]

    @staticmethod
    def _hash(key: str) -> int:
        return int.from_bytes(
            hashlib.sha256(key.encode("utf-8")).digest()[:8], "big"
        )

    def lookup(self, key: str) -> int:
        """The shard index owning ``key``."""
        index = bisect.bisect_right(self._hashes, self._hash(key))
        return self._shards[index % len(self._shards)]


def routing_digest(entry: CorpusEntry) -> str:
    """The stable content key a trace is routed by.

    Manifest-pinned digests are used as-is; store entries read the digest
    from the store manifest (cheap — no chunk is touched); file entries hash
    their raw bytes.  The key only has to be *stable and content-derived* —
    it need not equal the analysis-level trace digest — so raw-byte hashing
    keeps startup from parsing every CSV in the corpus just to route it.
    """
    if entry.digest is not None:
        return entry.digest
    if entry.kind == "store":
        return str(open_store(entry.path).digest)
    digest = hashlib.sha256()
    with open(entry.path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


# --------------------------------------------------------------------------- #
# Shard workers
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShardSpec:
    """Everything a shard worker process needs to build its server.

    Picklable (plain strings/tuples) so it crosses ``multiprocessing`` start
    methods.  ``owned`` lists the trace names this shard is the router-chosen
    owner of: those are served resident (pinned paths) or pre-warmed into the
    registry LRU (corpus members, capped at ``max_sessions``); every other
    served name stays resolvable but is only opened on demand.
    """

    index: int
    host: str
    trace_paths: Tuple[str, ...]
    corpus_path: Optional[str]
    owned: Tuple[str, ...]
    max_sessions: int
    #: Observability settings, mirrored from :class:`ClusterConfig` so every
    #: worker instruments (and logs) exactly like the front.
    instrument: bool = True
    log_format: Optional[str] = None
    log_level: str = "info"
    trace_sample: int = DEFAULT_TRACE_SAMPLE


def _shard_registry(spec: ShardSpec) -> SessionRegistry:
    """Build the worker's registry: owned pinned traces resident, rest lazy."""
    owned = set(spec.owned)
    pinned: Dict[str, AnalysisEngine] = {}
    lazy: List[CorpusEntry] = []
    for raw in spec.trace_paths:
        entry = entry_for_path(raw)
        if entry.name in owned:
            # Owned pinned traces stay resident forever (never LRU-evicted),
            # matching single-process `repro serve path...` — in particular
            # appends against in-memory traces cannot be evicted away.
            pinned[entry.name] = AnalysisEngine(entry.load(), name=entry.name)
        else:
            lazy.append(entry)
    root = Path(spec.corpus_path) if spec.corpus_path else Path(".")
    if spec.corpus_path:
        lazy.extend(load_corpus(spec.corpus_path).entries)
    corpus = Corpus(root, lazy) if lazy else None
    registry = SessionRegistry(
        sessions=pinned, corpus=corpus, max_sessions=spec.max_sessions
    )
    if corpus is not None:
        # Pre-warm the owned corpus slice so the first request is not a cold
        # open; respect the LRU bound (a shard owning more corpus members
        # than max_sessions warms only the first page).
        for name in sorted(owned & set(corpus.names))[: spec.max_sessions]:
            registry.get(name)
    return registry


def _shard_main(
    spec: ShardSpec, conn: "multiprocessing.connection.Connection"
) -> None:
    """Shard worker entry point: build the registry, serve, drain on SIGTERM."""
    import signal

    try:
        if spec.log_format is not None:
            configure_logging(spec.log_format, spec.log_level)
        registry = _shard_registry(spec)
        server = build_server(
            registry, host=spec.host, port=0,
            instrument=spec.instrument, tier="shard",
            trace_sample=spec.trace_sample,
        )
    except BaseException as exc:  # report startup failure to the parent
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return

    stopping = threading.Event()

    def _stop(signum: int, frame: Any) -> None:
        if stopping.is_set():
            return
        stopping.set()
        # shutdown() must not run on the signal-handling (main) thread: it
        # blocks until serve_forever — also on this thread — exits.
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _stop)
    # Ctrl-C lands on the whole foreground process group; the front drives
    # shard shutdown via SIGTERM, so the worker ignores the stray SIGINT.
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    conn.send(("ready", server.server_address[1]))
    conn.close()
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.wait_idle()
        server.server_close()
        registry.close()


class ShardHandle:
    """Parent-side handle of one shard worker process.

    Owns spawning (and respawning) the worker and the ready handshake: the
    child announces its ephemeral port — or a startup error — through a
    one-shot pipe before the parent wires it into the ring.
    """

    def __init__(
        self,
        spec: ShardSpec,
        start_timeout: float = 60.0,
        mp_context: "Any | None" = None,
    ):
        self.spec = spec
        self.index = spec.index
        self.host = spec.host
        self.port: Optional[int] = None
        self.process: "multiprocessing.process.BaseProcess | None" = None
        self.respawns = 0
        self._start_timeout = start_timeout
        self._mp = mp_context if mp_context is not None else multiprocessing.get_context()

    def start(self) -> None:
        """Spawn the worker and wait for its ready/error handshake."""
        parent_conn, child_conn = self._mp.Pipe(duplex=False)
        process = self._mp.Process(
            target=_shard_main,
            args=(self.spec, child_conn),
            name=f"repro-shard-{self.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        try:
            if not parent_conn.poll(self._start_timeout):
                process.terminate()
                process.join(2.0)
                raise PipelineError(
                    f"shard {self.index} did not report ready within "
                    f"{self._start_timeout:g}s"
                )
            kind, value = parent_conn.recv()
        except EOFError:
            process.join(2.0)
            raise PipelineError(
                f"shard {self.index} died during startup"
            ) from None
        finally:
            parent_conn.close()
        if kind != "ready":
            process.join(2.0)
            raise PipelineError(f"shard {self.index} failed to start: {value}")
        self.process = process
        self.port = int(value)

    def alive(self) -> bool:
        """Whether the worker process is currently running."""
        return self.process is not None and self.process.is_alive()

    def respawn(self) -> None:
        """Replace a dead worker with a fresh one (same spec, new port)."""
        if self.process is not None:
            self.process.join(0.1)  # reap the corpse; no-op if still alive
        self.respawns += 1
        self.start()

    def stop(self, timeout: float = 10.0) -> None:
        """SIGTERM the worker (graceful drain), escalating to SIGKILL."""
        process = self.process
        self.process = None
        if process is None:
            return
        if process.is_alive():
            process.terminate()
            process.join(timeout)
            if process.is_alive():
                process.kill()
                process.join(2.0)


# --------------------------------------------------------------------------- #
# Front-end limits
# --------------------------------------------------------------------------- #
class TokenBucketLimiter:
    """Per-client token buckets: ``rate`` requests/second, ``burst`` deep.

    Idle entries are evicted: a bucket that has refilled to full burst holds
    no more state than a brand-new one, so a periodic sweep (every
    ``sweep_interval`` seconds, piggybacked on ``acquire``) deletes them.
    Without it the per-client map grows unboundedly under churning client
    addresses — every IP that ever made a request stays resident forever.
    """

    def __init__(
        self,
        rate: float,
        burst: "float | None" = None,
        sweep_interval: float = 60.0,
    ):
        if rate <= 0:
            raise PipelineError("rate limit must be positive")
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else max(2.0 * rate, 1.0)
        if self.burst < 1.0:
            raise PipelineError("rate-limit burst must allow at least one request")
        if sweep_interval <= 0:
            raise PipelineError("rate-limit sweep interval must be positive")
        self.sweep_interval = float(sweep_interval)
        self._buckets: Dict[str, Tuple[float, float]] = {}
        #: Anchored to the first ``acquire`` clock so tests driving a
        #: synthetic ``now`` exercise the sweep deterministically.
        self._next_sweep: "float | None" = None
        self._lock = threading.Lock()

    def __len__(self) -> int:
        """Number of client buckets currently resident."""
        with self._lock:
            return len(self._buckets)

    def _sweep(self, now: float) -> None:
        """Drop buckets that have refilled to full burst (caller holds lock)."""
        idle = [
            key
            for key, (tokens, updated) in self._buckets.items()
            if tokens + (now - updated) * self.rate >= self.burst
        ]
        for key in idle:
            del self._buckets[key]
        self._next_sweep = now + self.sweep_interval

    def acquire(self, key: str, now: "float | None" = None) -> float:
        """Take one token for ``key``; 0.0 when allowed, else seconds to wait."""
        if now is None:
            now = time.monotonic()
        with self._lock:
            if self._next_sweep is None:
                self._next_sweep = now + self.sweep_interval
            elif now >= self._next_sweep:
                self._sweep(now)
            tokens, updated = self._buckets.get(key, (self.burst, now))
            tokens = min(self.burst, tokens + (now - updated) * self.rate)
            if tokens >= 1.0:
                self._buckets[key] = (tokens - 1.0, now)
                return 0.0
            self._buckets[key] = (tokens, now)
            return (1.0 - tokens) / self.rate


@dataclass(frozen=True)
class ClusterConfig:
    """Front-end knobs of the sharded service (all have safe defaults)."""

    #: Concurrent in-flight bound on the expensive routes (analyze/batch);
    #: requests beyond it answer 429 ``overloaded`` with ``Retry-After``.
    max_inflight: int = 64
    #: Per-client requests/second on POST routes; ``None`` disables limiting.
    rate_limit: Optional[float] = None
    #: Token-bucket depth; defaults to ``2 * rate_limit``.
    rate_burst: Optional[float] = None
    #: Key rate limits on the first ``X-Forwarded-For`` hop instead of the
    #: socket peer.  Off by default: the header is client-forgeable, so only
    #: a deployment whose reverse proxy sets it should opt in — but behind
    #: such a proxy the peer address is the proxy itself, and keying on it
    #: would pour every user into one shared bucket.
    trust_forwarded_for: bool = False
    #: Proxy timeout per shard request; exceeding it answers 504.
    request_timeout: float = 30.0
    #: Timeout of the per-shard probes behind ``/readyz`` and ``/v1/health``.
    probe_timeout: float = 2.0
    #: Respawn dead shard workers (the supervisor thread); tests disable it
    #: to assert the 503 a dead shard produces.
    respawn: bool = True
    #: Supervisor poll interval in seconds.
    respawn_poll: float = 0.25
    #: How long a shard worker may take to report ready.
    start_timeout: float = 60.0
    #: Drain bound for in-flight requests during shutdown.
    drain_timeout: float = 5.0
    #: Metrics + span tracing + access logs on the front and every shard;
    #: off, the request path is byte-for-byte the uninstrumented one (the
    #: benchmark's overhead gate measures exactly this toggle).
    instrument: bool = True
    #: ``repro serve --log-format``: ``None`` keeps the tier silent,
    #: ``"text"``/``"json"`` attach a stderr handler on front and shards.
    log_format: Optional[str] = None
    #: Log threshold when ``log_format`` is set.
    log_level: str = "info"
    #: Span-recording rate: one request tree in N is traced (the front
    #: decides and shards follow via the proxy header); 1 traces everything.
    trace_sample: int = DEFAULT_TRACE_SAMPLE


# --------------------------------------------------------------------------- #
# Front-end server
# --------------------------------------------------------------------------- #
class ClusterFrontServer(DrainableThreadingHTTPServer):
    """The routing front-end: owns the shard table and the limit counters."""

    def __init__(
        self,
        address: Tuple[str, int],
        shards: "Sequence[ShardHandle]",
        routing: Mapping[str, int],
        config: "ClusterConfig | None" = None,
    ):
        self.shards = list(shards)
        self.routing = dict(routing)
        self.config = config if config is not None else ClusterConfig()
        self.limiter = (
            TokenBucketLimiter(self.config.rate_limit, self.config.rate_burst)
            if self.config.rate_limit
            else None
        )
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._supervisor: Optional[threading.Thread] = None
        self._supervisor_stop = threading.Event()
        self.obs: "ServerObservability | None" = None
        if self.config.instrument:
            self.obs = ServerObservability(
                "front", trace_sample=self.config.trace_sample
            )
            self.obs.add_gauge(
                "repro_http_inflight_requests",
                "Requests currently inside the front's in-flight bound.",
                lambda: float(self._inflight),
            )
            self.obs.add_gauge(
                "repro_cluster_shards_alive",
                "Shard workers currently running.",
                lambda: float(sum(1 for shard in self.shards if shard.alive())),
            )
            self.obs.add_counter(
                "repro_cluster_shard_respawns_total",
                "Dead shard workers replaced by the supervisor, per shard.",
                lambda: [
                    ({"shard": str(shard.index)}, float(shard.respawns))
                    for shard in self.shards
                ],
                labelnames=("shard",),
            )
        super().__init__(address, ClusterFrontHandler)

    # -- in-flight bound ------------------------------------------------- #
    def try_acquire(self) -> bool:
        with self._inflight_lock:
            if self._inflight >= self.config.max_inflight:
                return False
            self._inflight += 1
            return True

    def release(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1

    # -- rate limit ------------------------------------------------------ #
    def allow_client(self, key: str) -> float:
        """0.0 when the client may proceed, else seconds until it may retry."""
        if self.limiter is None:
            return 0.0
        return self.limiter.acquire(key)

    # -- supervisor ------------------------------------------------------ #
    def start_supervisor(self) -> None:
        """Start the respawn watchdog (no-op when ``config.respawn`` is off)."""
        if not self.config.respawn or self._supervisor is not None:
            return
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-shard-supervisor", daemon=True
        )
        self._supervisor.start()

    def stop_supervisor(self) -> None:
        self._supervisor_stop.set()
        if self._supervisor is not None:
            self._supervisor.join(5.0)
            self._supervisor = None

    def _supervise(self) -> None:
        while not self._supervisor_stop.wait(self.config.respawn_poll):
            for shard in self.shards:
                if self._supervisor_stop.is_set():
                    return
                if not shard.alive():
                    try:
                        shard.respawn()
                    except PipelineError:
                        # Startup failed; leave the shard dead (requests keep
                        # answering 503) and retry on the next poll.
                        continue


class ClusterFrontHandler(JSONHandler):
    """Front-end request handler: limits, routing, proxying, fan-out merges."""

    server: ClusterFrontServer

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def _rate_limit_key(self) -> str:
        """The client identity rate limits key on.

        The socket peer address, unless the operator opted into
        ``trust_forwarded_for`` — then the first (originating-client) hop of
        ``X-Forwarded-For``, falling back to the peer when the header is
        absent or empty.
        """
        if self.server.config.trust_forwarded_for:
            forwarded = self.headers.get("X-Forwarded-For") or ""
            first_hop = forwarded.split(",", 1)[0].strip()
            if first_hop:
                return first_hop
        return str(self.client_address[0])

    def _dispatch(self, method: str) -> None:
        path, _, query = self.path.partition("?")
        self._extra_headers = ()
        route = resolve_route(method, path)
        if route is None:
            self._send_error(
                404, f"no such endpoint: {path.rstrip('/') or '/'}", code="not_found"
            )
            return
        server = self.server
        if method == "POST" and server.limiter is not None:
            client = self._rate_limit_key()
            wait = server.allow_client(client)
            if wait > 0.0:
                retry = max(1, int(wait + 0.999))
                self.close_connection = True  # request body left unread
                self._send_error(
                    429,
                    f"client {client} exceeded the rate limit "
                    f"({server.config.rate_limit:g} requests/s); "
                    f"retry in {retry}s",
                    code="rate_limited",
                    retry_after=retry,
                )
                return
        acquired = False
        if route.cluster_limited:
            if not server.try_acquire():
                self.close_connection = True  # request body left unread
                self._send_error(
                    429,
                    f"service is at its in-flight capacity "
                    f"({server.config.max_inflight} requests); retry shortly",
                    code="overloaded",
                    retry_after=1,
                )
                return
            acquired = True
        try:
            getattr(self, f"_handle_{route.name}")(route, query)
        except RequestError as exc:
            self._send_error(400, str(exc), field=exc.field)
        except PipelineError as exc:
            self._send_error(400, str(exc))
        except ShardTimeoutError as exc:
            self._send_error(504, str(exc), code="shard_timeout")
        except ShardUnavailableError as exc:
            self._send_error(
                503, str(exc), code="shard_unavailable", retry_after=1
            )
        finally:
            if acquired:
                server.release()

    # ------------------------------------------------------------------ #
    # Proxy plumbing
    # ------------------------------------------------------------------ #
    def _proxy(
        self,
        shard: ShardHandle,
        method: str,
        path: str,
        body: "bytes | None" = None,
        timeout: "float | None" = None,
    ) -> Tuple[int, bytes]:
        """One request against ``shard``; raises the shard failure exceptions."""
        if timeout is None:
            timeout = self.server.config.request_timeout
        port = shard.port
        if port is None:
            raise ShardUnavailableError(
                f"shard {shard.index} is unavailable: worker has no port yet "
                "(starting up); retry shortly"
            )
        conn = http.client.HTTPConnection(shard.host, port, timeout=timeout)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            if self._request_id is not None:
                # One id correlates the front access line, the shard's, and
                # every span either side records for this request.
                headers["X-Request-ID"] = self._request_id
                if self._trace_sampled:
                    # Shards must trace exactly the requests the front
                    # traces, or a sampled tree would be missing its shard
                    # half; absence of the marker means "not recorded", so
                    # unsampled requests stay one header line lighter.
                    headers["X-Trace-Sample"] = "1"
            with span("proxy.shard", shard=shard.index, path=path):
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                return response.status, response.read()
        except (socket.timeout, TimeoutError):
            raise ShardTimeoutError(
                f"shard {shard.index} did not answer within {timeout:g}s"
            ) from None
        except (ConnectionError, http.client.HTTPException, OSError) as exc:
            raise ShardUnavailableError(
                f"shard {shard.index} is unavailable "
                f"({type(exc).__name__}); the worker died or is restarting — "
                "retry shortly"
            ) from exc
        finally:
            conn.close()

    @staticmethod
    def _lenient_body(raw: bytes) -> "dict[str, Any] | None":
        """Parse the body far enough to route it; ``None`` when malformed.

        Malformed bodies are still *forwarded* (to shard 0), so the canonical
        400 envelope is produced by the same shard-side validation code the
        single-process server runs.
        """
        if not raw:
            return {}
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        return body if isinstance(body, dict) else None

    def _route_target(self, route: Route, body: "dict[str, Any] | None") -> ShardHandle:
        """The shard a request belongs to.

        Unroutable requests (malformed body, unknown name, ambiguous omitted
        name) go to shard 0, whose full-corpus registry answers the canonical
        400/404 envelope.  ``/v1/compare`` routes by side ``a``; the owning
        shard lazily opens ``b`` even when it belongs elsewhere.
        """
        shards = self.server.shards
        routing = self.server.routing
        if not isinstance(body, dict):
            return shards[0]
        key = body.get("a") if route.name == "compare" else body.get("trace")
        if key is None and len(routing) == 1:
            return shards[next(iter(routing.values()))]
        if isinstance(key, str) and key in routing:
            return shards[routing[key]]
        return shards[0]

    def _forward(self, route: Route, query: str) -> None:
        """Proxy one POST body to its owner shard and relay the raw answer."""
        raw = read_raw_body(self)
        shard = self._route_target(route, self._lenient_body(raw))
        status, data = self._proxy(shard, "POST", route.path, body=raw)
        self._send_bytes(status, data)

    # ------------------------------------------------------------------ #
    # GET handlers
    # ------------------------------------------------------------------ #
    def _handle_health(self, route: Route, query: str) -> None:
        server = self.server
        cfg = server.config
        alive = 0
        cache = {"hits": 0, "misses": 0, "entries": 0}
        for shard in server.shards:
            try:
                status, data = self._proxy(
                    shard, "GET", "/v1/health", timeout=cfg.probe_timeout
                )
            except (ShardUnavailableError, ShardTimeoutError):
                continue
            if status != 200:
                continue
            alive += 1
            shard_cache = json.loads(data).get("cache", {})
            for key in cache:
                cache[key] += int(shard_cache.get(key, 0))
        self._send_json(
            200,
            {
                "api": API_VERSION,
                "status": "ok" if alive == len(server.shards) else "degraded",
                "service": self.server_version,
                "version": package_version(),
                "n_traces": len(server.routing),
                "cluster": {
                    "shards": len(server.shards),
                    "alive": alive,
                    "respawns": sum(shard.respawns for shard in server.shards),
                },
                "cache": cache,
            },
        )

    def _handle_healthz(self, route: Route, query: str) -> None:
        self._send_json(200, {"status": "ok"})

    def _handle_readyz(self, route: Route, query: str) -> None:
        server = self.server
        cfg = server.config
        dead: List[int] = []
        shard_status: List[Dict[str, Any]] = []
        for shard in server.shards:
            alive = True
            try:
                status, _ = self._proxy(
                    shard, "GET", "/healthz", timeout=cfg.probe_timeout
                )
                if status != 200:
                    alive = False
            except (ShardUnavailableError, ShardTimeoutError):
                alive = False
            if not alive:
                dead.append(shard.index)
            shard_status.append({
                "index": shard.index,
                "alive": alive,
                "port": shard.port,
                "respawns": shard.respawns,
            })
        if dead:
            self._send_error(
                503,
                f"shards not answering: {dead}",
                code="not_ready",
                retry_after=1,
            )
            return
        # Queue depth + per-shard liveness ride along so probe output and
        # the /v1/metrics story agree.
        self._send_json(
            200,
            {
                "status": "ready",
                "shards": len(server.shards),
                "inflight": server._inflight,
                "max_inflight": cfg.max_inflight,
                "shard_status": shard_status,
            },
        )

    def _handle_metrics(self, route: Route, query: str) -> None:
        """Merge the front's own exposition with one scrape per live shard.

        Front samples get ``tier="front"``, shard samples ``tier="shard"``
        plus their ``shard`` index — nothing is summed, so per-shard load
        and latency stay visible.  Dead shards are skipped, but never
        silently: ``repro_shards_scraped`` / ``repro_shards_skipped`` count
        every shard either way, so a monitoring stack can alert on a partial
        scrape instead of mistaking it for a healthy fleet.
        """
        server = self.server
        obs = server.obs
        if obs is None:
            self._send_error(
                404, "metrics are disabled on this server", code="not_found"
            )
            return
        sources: List[Tuple[Dict[str, str], str]] = [
            ({"tier": "front"}, obs.metrics.render())
        ]
        scraped = 0
        skipped = 0
        for shard in server.shards:
            try:
                status, data = self._proxy(
                    shard, "GET", "/v1/metrics",
                    timeout=server.config.probe_timeout,
                )
            except (ShardUnavailableError, ShardTimeoutError):
                skipped += 1
                continue
            if status == 200:
                scraped += 1
                sources.append(
                    ({"tier": "shard", "shard": str(shard.index)},
                     data.decode("utf-8"))
                )
            else:
                skipped += 1
        sources.append((
            {"tier": "front"},
            "# HELP repro_shards_scraped Shard expositions merged into this scrape.\n"
            "# TYPE repro_shards_scraped gauge\n"
            f"repro_shards_scraped {format_value(float(scraped))}\n"
            "# HELP repro_shards_skipped Shards this scrape could not collect"
            " (dead, timed out, or erroring).\n"
            "# TYPE repro_shards_skipped gauge\n"
            f"repro_shards_skipped {format_value(float(skipped))}\n",
        ))
        self._send_bytes(
            200, merge_expositions(sources).encode("utf-8"),
            content_type=METRICS_CONTENT_TYPE,
        )

    def _handle_traces(self, route: Route, query: str) -> None:
        """Merge the per-shard listings, then filter/paginate at the front.

        Each shard lists every name it can resolve, so the front keeps only
        the entries a shard *owns* — those carry the authoritative residency
        and cache statistics — and applies the same pagination helper the
        single-process registry uses.
        """
        limit, offset, digest = parse_traces_query(query)
        routing = self.server.routing
        merged: Dict[str, Dict[str, Any]] = {}
        for shard in self.server.shards:
            status, data = self._proxy(shard, "GET", "/v1/traces?limit=0")
            if status != 200:
                self._send_bytes(status, data)
                return
            for entry in json.loads(data)["traces"]:
                if routing.get(entry["name"]) == shard.index:
                    merged[entry["name"]] = entry
        entries = [merged[name] for name in sorted(merged)]
        page, meta = paginate_entries(
            entries, limit=limit, offset=offset, digest=digest
        )
        self._send_json(
            200,
            {"available": sorted(self.server.routing), "meta": meta, "traces": page},
        )

    def _handle_watch_events(self, route: Route, query: str) -> None:
        """Relay one shard's SSE watch stream chunk by chunk.

        ``_proxy`` buffers whole responses — useless for an unbounded
        stream — so this is the one front handler that holds its own shard
        connection open and relays bytes as they arrive.  The stream is
        routed by the ``trace`` query parameter exactly like POST bodies
        route by name; unroutable requests go to shard 0, whose registry
        answers the canonical 404 envelope.  The shard's keep-alive
        heartbeats bound every relay read, so the front's request timeout
        still catches a silently dead worker.
        """
        params = parse_watch_query(query)  # canonical 400s before any proxying
        shards = self.server.shards
        routing = self.server.routing
        if params.trace is None and len(routing) == 1:
            shard = shards[next(iter(routing.values()))]
        elif params.trace is not None and params.trace in routing:
            shard = shards[routing[params.trace]]
        else:
            shard = shards[0]
        timeout = self.server.config.request_timeout
        port = shard.port
        if port is None:
            raise ShardUnavailableError(
                f"shard {shard.index} is unavailable: worker has no port yet "
                "(starting up); retry shortly"
            )
        conn = http.client.HTTPConnection(shard.host, port, timeout=timeout)
        streaming = False
        try:
            headers = {}
            if self._request_id is not None:
                headers["X-Request-ID"] = self._request_id
            path = f"{route.path}?{query}" if query else route.path
            conn.request("GET", path, headers=headers)
            response = conn.getresponse()
            if response.status != 200:
                self._send_bytes(response.status, response.read())
                return
            self._last_status = 200
            self.send_response(200)
            self.send_header(
                "Content-Type",
                response.headers.get("Content-Type", route.media_type),
            )
            self.send_header("Cache-Control", "no-store")
            if self._request_id is not None:
                self.send_header("X-Request-ID", self._request_id)
            self.send_header("Connection", "close")
            self.close_connection = True
            self.end_headers()
            streaming = True
            while True:
                chunk = response.read1(8192)
                if not chunk:
                    return
                self.wfile.write(chunk)
                self.wfile.flush()
        except (socket.timeout, TimeoutError):
            if streaming:
                return  # mid-stream: nothing coherent left to send
            raise ShardTimeoutError(
                f"shard {shard.index} did not answer within {timeout:g}s"
            ) from None
        except (ConnectionError, http.client.HTTPException, OSError) as exc:
            if streaming:
                return  # client or shard went away mid-stream
            raise ShardUnavailableError(
                f"shard {shard.index} is unavailable "
                f"({type(exc).__name__}); the worker died or is restarting — "
                "retry shortly"
            ) from exc
        finally:
            conn.close()

    # ------------------------------------------------------------------ #
    # POST handlers
    # ------------------------------------------------------------------ #
    def _handle_analyze(self, route: Route, query: str) -> None:
        self._forward(route, query)

    def _handle_sweep(self, route: Route, query: str) -> None:
        self._forward(route, query)

    def _handle_append(self, route: Route, query: str) -> None:
        self._forward(route, query)

    def _handle_compare(self, route: Route, query: str) -> None:
        self._forward(route, query)

    def _handle_batch(self, route: Route, query: str) -> None:
        """Fan ``/v1/batch`` out by owner shard and merge the results.

        The merged payload is rebuilt through the same
        :func:`~repro.pipeline.payloads.batch_payload` the shard handler
        uses — summary and ranking are recomputed deterministically from the
        union of per-shard results, so the bytes match a single server
        analyzing the same names.  Any shard-level failure (400/404/409)
        is relayed verbatim; validation of malformed requests is delegated
        to shard 0 so the canonical envelopes stay byte-identical.
        """
        raw = read_raw_body(self)
        body = self._lenient_body(raw)
        routing = self.server.routing
        shards = self.server.shards
        names = body.get("traces") if body is not None else None
        if names is None:
            names = sorted(routing)
        if (
            body is None
            or not isinstance(names, list)
            or not names
            or not all(isinstance(name, str) and name in routing for name in names)
        ):
            # Malformed/unknown selections: let shard 0 produce the
            # canonical 400/404 envelope.
            status, data = self._proxy(shards[0], "POST", route.path, body=raw)
            self._send_bytes(status, data)
            return
        groups: Dict[int, List[str]] = {}
        for name in names:
            groups.setdefault(routing[name], []).append(name)
        params: Dict[str, Any] = {}
        results: Dict[str, Any] = {}
        failures: Dict[str, Dict[str, str]] = {}
        for index in sorted(groups):
            sub_body = dict(body)
            sub_body["traces"] = groups[index]
            status, data = self._proxy(
                shards[index],
                "POST",
                route.path,
                body=json.dumps(sub_body).encode("utf-8"),
            )
            if status != 200:
                self._send_bytes(status, data)
                return
            payload = json.loads(data)
            results.update(payload["results"])
            if payload["results"]:
                params = payload["params"]
            for failure in payload.get("errors", []):
                failures[failure["name"]] = failure
        errors = [failures[name] for name in names if name in failures]
        self._send_json(200, batch_payload(results, params, errors=errors))


# --------------------------------------------------------------------------- #
# Cluster assembly
# --------------------------------------------------------------------------- #
def plan_cluster(
    trace_paths: "Iterable[str | Path]",
    corpus: "str | Path | None" = None,
    shards: int = 1,
    host: str = "127.0.0.1",
    max_sessions: "int | None" = None,
    instrument: bool = True,
    log_format: "Optional[str]" = None,
    log_level: str = "info",
    trace_sample: int = DEFAULT_TRACE_SAMPLE,
) -> Tuple[List[ShardSpec], Dict[str, int]]:
    """Partition the served traces across ``shards`` workers.

    Builds the combined corpus description once (validating duplicate names
    with the canonical error messages), routes every trace by its
    :func:`routing_digest` on the :class:`HashRing`, and returns the
    per-shard specs plus the ``name -> shard index`` routing table the front
    uses.
    """
    paths = [str(path) for path in trace_paths]
    entries = [entry_for_path(path) for path in paths]
    if corpus is not None:
        entries.extend(load_corpus(corpus).entries)
    root = Path(corpus) if corpus is not None else Path(".")
    combined = Corpus(root, entries)  # validates duplicates / emptiness
    ring = HashRing(shards)
    routing = {
        entry.name: ring.lookup(routing_digest(entry)) for entry in combined
    }
    owned: Dict[int, List[str]] = {index: [] for index in range(shards)}
    for name in sorted(routing):
        owned[routing[name]].append(name)
    effective = max_sessions if max_sessions is not None else DEFAULT_MAX_SESSIONS
    specs = [
        ShardSpec(
            index=index,
            host=host,
            trace_paths=tuple(paths),
            corpus_path=str(corpus) if corpus is not None else None,
            owned=tuple(owned[index]),
            max_sessions=effective,
            instrument=instrument,
            log_format=log_format,
            log_level=log_level,
            trace_sample=trace_sample,
        )
        for index in range(shards)
    ]
    return specs, routing


class ClusterHandle:
    """A running cluster: the front server plus its shard worker handles."""

    def __init__(self, server: ClusterFrontServer, shards: List[ShardHandle]):
        self.server = server
        self.shards = shards

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self.server.server_address[:2]
        return str(host), int(port)

    def serve_forever(self) -> None:
        self.server.serve_forever(poll_interval=0.05)

    def close(self) -> None:
        """Graceful drain: front first, then SIGTERM each shard worker.

        Requires :meth:`serve_forever` to be running in another thread (the
        CLI and the tests both run it that way); in-flight front requests
        finish within ``config.drain_timeout`` before the workers are told
        to drain themselves.
        """
        self.server.stop_supervisor()
        self.server.shutdown()
        self.server.wait_idle(self.server.config.drain_timeout)
        self.server.server_close()
        for shard in self.shards:
            shard.stop()


def start_cluster(
    trace_paths: "Iterable[str | Path]",
    corpus: "str | Path | None" = None,
    shards: int = 1,
    host: str = "127.0.0.1",
    port: int = 8000,
    max_sessions: "int | None" = None,
    config: "ClusterConfig | None" = None,
) -> ClusterHandle:
    """Spawn the shard workers and bind the front-end router.

    Workers are started sequentially (each handshakes its ephemeral port);
    a worker that fails to start tears the already-started ones down before
    the error propagates.  The respawn supervisor is started when
    ``config.respawn`` is enabled.  ``port=0`` picks a free front port.
    """
    config = config if config is not None else ClusterConfig()
    specs, routing = plan_cluster(
        trace_paths,
        corpus=corpus,
        shards=shards,
        host=host if host not in ("", "0.0.0.0") else "127.0.0.1",
        max_sessions=max_sessions,
        instrument=config.instrument,
        log_format=config.log_format,
        log_level=config.log_level,
        trace_sample=config.trace_sample,
    )
    handles: List[ShardHandle] = []
    try:
        for spec in specs:
            handle = ShardHandle(spec, start_timeout=config.start_timeout)
            handle.start()
            handles.append(handle)
        front = ClusterFrontServer((host, port), handles, routing, config)
    except BaseException:
        for handle in handles:
            handle.stop(timeout=2.0)
        raise
    front.start_supervisor()
    return ClusterHandle(front, handles)
