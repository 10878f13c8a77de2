"""Sharded multi-process policy serving — the elastic cluster tier.

:class:`ShardedPolicyService` scales the PR-3 serving stack past the
GIL: N worker processes each hold a full registry replica (model arrays
shared zero-copy through :mod:`repro.serve.cluster.shm`), a front-end
microbatcher coalesces single-state requests exactly like the
single-process server, and whole flush groups ship to shards as stacked
arrays — one IPC message per group, never per request.

Since PR 5 the fan-out is *elastic* rather than static:

* **load-aware routing** — flush groups are placed by a pluggable
  :class:`~repro.serve.cluster.router.Router` (default: least expected
  drain time from each shard's in-flight count and EWMA service time);
  hash affinity remains available as an override, and round-robin as
  the measurable baseline;
* **shard autoscaling** — an optional
  :class:`~repro.serve.cluster.autoscale.Autoscaler` watches the
  adaptive-delay fill estimate, front-end queue depth, and p95 latency
  against an SLO, and grows/shrinks the fleet through
  :meth:`add_shard` / :meth:`remove_shard`;
* **resilient republish** — every control operation is appended to a
  linearized **control log**; when a shard dies (and ``self_heal`` is
  on) a replacement is spawned and the log is replayed into it —
  publishes re-attach the parent-owned shared-memory segments by
  transport hash, retired versions replay as tombstones so numbering
  never shifts, and splits/aliases restore routing state — so capacity
  returns without a restart and without a byte of divergence
  (:meth:`replica_states` proves it).

Since PR 6 the worker protocol is explicit and the channel pluggable:
messages travel as versioned wire frames
(:mod:`repro.serve.cluster.wire`) over a
:class:`~repro.serve.cluster.transport.Transport` —
``transport="pipe"`` (default, bit-for-bit the old duplex-pipe
behavior) or ``transport="socket"`` (workers run an asyncio TCP
server; the design template for multi-host fleets).  Artifact shipping
is transport-aware: co-located shards attach the parent's shm segments
by transport hash as before, while socket shards receive the raw
artifact bytes **once per host** into a named host-level cache segment
keyed by transport hash — later publishes and heal-replays of the same
bytes ship only the key, and workers attach to the cached copy.

What the parent keeps:

* a **mirror registry** — publishes validate and version here first, so
  version numbers are authoritative and `retire`'s refusal paths run
  before anything is broadcast;
* the **control log** — the single linearized history replay works
  from;
* **end-to-end metrics** — client-observed latency (queue + IPC +
  service) per model, the cluster-level percentiles; each worker also
  keeps its own service-time metrics, surfaced via
  :meth:`cluster_metrics`;
* the **shared-memory segments** — the parent owns their lifetime
  (replay re-attaches them) and unlinks them at close.

Guarantees carried over from the single-process stack: zero dropped
futures (close() drains, shard death fails pending requests with a
structured ``shard_error`` result instead of hanging them), atomic
hot-swap at flush granularity, per-request structured errors, and
shadow answers that never reach a client future.
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import multiprocessing as mp
import pickle
import secrets
import threading
import time
from concurrent.futures import Future
from dataclasses import replace as dataclass_replace
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.serve.adaptive import AdaptiveDelay, batching_state
from repro.serve.artifact import PolicyArtifact
from repro.serve.batcher import (
    MicroBatcher,
    ServeResult,
    _Request,
    batched_wakeups,
    coerce_state_row,
)
from repro.serve.cluster.autoscale import AutoscaleConfig, Autoscaler
from repro.serve.cluster.router import Router, make_router
from repro.serve.cluster.shm import (
    ensure_tracker_running,
    host_cache_segment_name,
    segment_footprint,
    share_artifact,
)
from repro.serve.cluster.transport import (
    Transport,
    WorkerFactory,
    make_worker_transport,
)
from repro.serve.cluster.wire import (
    Reply,
    Request as WireRequest,
    WireArtifact,
    WireError,
    decode_frame,
    encode_request,
)
from repro.obs.events import EventJournal
from repro.obs.metrics import MetricsHub, render_text, with_labels
from repro.obs.postmortem import FlightRecorder
from repro.obs.trace import Tracer
from repro.serve.cluster.worker import ERR_SHARD
from repro.serve.registry import ModelRegistry, control_state_digest
from repro.serve.server import (
    ServeError,
    ServerMetrics,
    register_serving_collectors,
)
from repro.serve.splitter import (
    TrafficSplit,
    TrafficSplitter,
    check_split_targets,
    guard_retire_against_splits,
    split_state,
)
from repro.utils.rng import SeedLike

_RPC_TIMEOUT_S = 60.0

#: EWMA weight for folding each worker-reported batch service time into
#: its shard's estimate (what the least-loaded router scores by).
_SERVICE_EWMA_ALPHA = 0.3


def _select_takes_ref(router: Router) -> bool:
    """Whether ``router.select`` accepts the routed reference.

    The Router interface grew ``select(shards, ref=None)`` for
    per-model load estimates; custom routers written against the old
    one-argument surface must keep working, so the service inspects
    the signature once and calls accordingly.
    """
    try:
        parameters = inspect.signature(router.select).parameters
    except (TypeError, ValueError):
        return True
    if any(p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
           for p in parameters.values()):
        return True
    return "ref" in parameters or len(parameters) >= 2


class _ArtifactShipment:
    """Transport-neutral record of one published artifact's bytes.

    Control-log publish entries store one of these instead of a
    concrete payload: at broadcast/replay time the service resolves it
    per shard — the shm handle (or pickled bytes) for co-located
    shards, a :class:`WireArtifact` for remote ones, with the raw
    bytes included only for hosts that don't hold the key yet.  The
    parent's own segment (kept in ``_segments`` for the version's
    life) doubles as the byte source for late remote replays, so
    nothing is serialized twice.
    """

    __slots__ = ("handle", "shm", "pickled", "key", "segment",
                 "wire_handle", "kernel_hash")

    def __init__(self, handle, shm, pickled, cache_token: str) -> None:
        self.handle = handle
        self.shm = shm
        self.pickled = pickled
        # Compiled-kernel provenance travels in the handle's meta; the
        # hash is what keys the .so in every host's kernel cache.
        self.kernel_hash = ""
        if handle is not None:
            kernel_meta = handle.meta.get("kernel") or {}
            self.kernel_hash = kernel_meta.get("hash") or ""
        if handle is not None:
            self.key = handle.transport_hash
        elif pickled is not None:
            self.key = hashlib.sha256(pickled).hexdigest()[:16]
        else:
            self.key = None
        if self.key is not None:
            self.segment = host_cache_segment_name(cache_token, self.key)
            self.wire_handle = (
                dataclass_replace(handle, shm_name=self.segment)
                if handle is not None else None
            )
        else:
            self.segment = None
            self.wire_handle = None

    def wire_bytes(self) -> bytes:
        """The raw bytes a remote host's cache segment is filled
        with: the parent segment's contents for trees, the pickle
        otherwise."""
        if self.shm is not None:
            return bytes(self.shm.buf)
        return self.pickled

    def kernel_bytes(self) -> Optional[bytes]:
        """The compiled kernel's ``.so`` bytes for shipping, if any.

        Read from the parent's kernel cache at broadcast/replay time
        (not pinned at publish) so late replays still find them; a
        pruned or never-compiled kernel returns None and the remote
        worker compiles for itself or serves numpy.
        """
        if not self.kernel_hash:
            return None
        from repro.core.tree import native

        return native.kernel_bytes(self.kernel_hash)


class _Shard:
    """Parent-side handle for one worker process.

    ``inflight`` (outstanding predict groups, maintained under the
    service's pending lock) and ``ewma_service_s`` (EWMA of the
    worker's reported batch service time) are load signals the router
    reads; ``ewma_by_model`` refines the latter per requested
    reference, so least-loaded scoring is not skewed by mixed model
    costs (the aggregate stays as fallback for unseen models).
    ``draining`` marks a shard being gracefully removed: still alive —
    its in-flight replies complete — but no longer routable.
    """

    __slots__ = ("shard_id", "process", "transport", "send_lock",
                 "alive", "reader", "inflight", "ewma_service_s",
                 "ewma_by_model", "draining")

    def __init__(self, shard_id: int, process,
                 transport: Transport) -> None:
        self.shard_id = shard_id
        self.process = process
        self.transport = transport
        self.send_lock = threading.Lock()
        self.alive = True
        self.reader: Optional[threading.Thread] = None
        self.inflight = 0
        self.ewma_service_s = 0.0
        self.ewma_by_model: Dict[str, float] = {}
        self.draining = False

    def close_transport(self) -> None:
        """Close the channel, best effort and idempotent.  Under the send
        lock, so no send is writing to a descriptor being closed."""
        with self.send_lock:
            try:
                self.transport.close()
            except Exception:  # noqa: BLE001 - teardown best effort
                pass

    def send(self, msg_id: int, op: str, payload, trace=None) -> None:
        """Encode and ship one request frame (sends serialized — two
        threads interleaving a socket write would tear the stream).
        ``trace`` rides in the optional v2 wire field; leaving it None
        keeps the frame byte-identical to the v1 encoding."""
        frame = encode_request(WireRequest(msg_id, op, payload, trace=trace))
        with self.send_lock:
            self.transport.send_frame(frame)

    def observe_service(self, ref: str, service_s: float) -> None:
        """Fold one worker-reported batch service time into the
        aggregate and per-model EWMAs (called from the reader thread;
        routers read these without locks — float/dict stores are
        atomic under the GIL)."""
        if self.ewma_service_s > 0.0:
            self.ewma_service_s += _SERVICE_EWMA_ALPHA * (
                service_s - self.ewma_service_s
            )
        else:
            self.ewma_service_s = service_s
        previous = self.ewma_by_model.get(ref, 0.0)
        if previous > 0.0:
            self.ewma_by_model[ref] = previous + _SERVICE_EWMA_ALPHA * (
                service_s - previous
            )
        else:
            self.ewma_by_model[ref] = service_s


class _PredictJob:
    """Pending per-request flush group shipped to one shard."""

    __slots__ = ("requests", "shard_id")

    def __init__(self, requests: List[_Request], shard_id: int) -> None:
        self.requests = requests
        self.shard_id = shard_id


class _BulkChunk:
    """One shard's slice of a bulk submit_batch call."""

    __slots__ = ("job", "offset", "size", "shard_id")

    def __init__(self, job: "_BulkJob", offset: int, size: int,
                 shard_id: int) -> None:
        self.job = job
        self.offset = offset
        self.size = size
        self.shard_id = shard_id


class _BulkJob:
    """Aggregated future over all chunks of one submit_batch call."""

    __slots__ = ("future", "results", "outstanding", "lock", "enqueued",
                 "model")

    def __init__(self, n_rows: int, n_chunks: int, model: str) -> None:
        self.future: Future = Future()
        # Running from submit on, so cancel() refuses and the last
        # chunk's reply can always resolve it.
        self.future.set_running_or_notify_cancel()
        self.results: List[Optional[ServeResult]] = [None] * n_rows
        self.outstanding = n_chunks
        self.lock = threading.Lock()
        self.enqueued = time.perf_counter()
        #: Requested reference — failure results and metrics must
        #: attribute to it, not to a placeholder.
        self.model = model

    def chunk_done(self) -> None:
        with self.lock:
            self.outstanding -= 1
            done = self.outstanding == 0
        if done:
            self.future.set_result(list(self.results))


class _Control:
    """Pending control RPC (publish/metrics/...)."""

    __slots__ = ("event", "ok", "result", "shard_id")

    def __init__(self, shard_id: int) -> None:
        self.event = threading.Event()
        self.ok = False
        self.result: Any = None
        self.shard_id = shard_id


class _ClusterDispatcher(MicroBatcher):
    """Front-end batcher whose flush ships groups to shards.

    Inherits the queue/gather/close machinery (including the adaptive
    deadline and the zero-dropped-futures drain); only the flush is
    replaced — instead of predicting locally it stacks each reference's
    rows and hands the group to the service for routing.  Requests from
    an event loop are gathered on their loop as on the in-process tier,
    but since this flush makes blocking pipe/socket writes, the loop
    hands its whole batch to the batcher thread at the end of its turn
    (``flush_on_loop`` off) instead of flushing it there.
    """

    flush_on_loop = False

    def __init__(self, service: "ShardedPolicyService", **kwargs) -> None:
        super().__init__(service.registry, metrics=service._metrics,
                         **kwargs)
        self._service = service

    def _flush(self, batch: List[_Request]) -> None:
        # Parent-side validation is the artifact-independent half: the
        # worker owns the feature-count and finiteness checks (it knows
        # the artifact); the parent only guarantees numeric 1-D rows.
        self._note_flush(batch)
        by_ref: Dict[str, List[_Request]] = {}
        for request in batch:
            row, error, detail = coerce_state_row(request.state)
            if error is not None:
                self._complete_error(request, request.model, 0, error,
                                     detail)
                continue
            request.row = row
            by_ref.setdefault(request.model, []).append(request)
        for ref, requests in by_ref.items():
            # Rows of unequal length cannot stack; ship each length as
            # its own sub-group and let the worker's feature-count check
            # reject the wrong ones individually.
            by_len: Dict[int, List[_Request]] = {}
            for request in requests:
                by_len.setdefault(request.row.shape[0], []).append(request)
            for group in by_len.values():
                self._service._dispatch_group(ref, group)


class ShardedPolicyService:
    """Elastic multi-process serving front door (same surface as
    PolicyServer).

    Args:
        n_shards: initial worker process count (the autoscaler, if
            configured, moves it within its ``min_shards`` /
            ``max_shards`` bounds afterwards).
        registry: parent mirror registry (fresh one by default).
        max_batch / max_delay_s: front-end microbatching knobs.
        adaptive_delay: use a load-aware flush deadline capped at
            ``max_delay_s`` (recommended for mixed load; also the
            autoscaler's primary fill signal).
        routing: ``"least_loaded"`` (default) scores shards by expected
            drain time — in-flight groups x EWMA service time, an idle
            shard scoring 0; ``"round_robin"`` rotates whole flush
            groups; ``"hash"``
            routes each request by a stable hash of its state (shard
            affinity for cache-warm models) with least-loaded fallback
            for dead targets.  A :class:`Router` instance plugs in a
            custom strategy.
        self_heal: respawn a replacement worker when a shard dies and
            replay the control log into it, so capacity returns without
            a restart.  Off by default: a chaos test usually wants to
            observe the degraded state, and production wants this True.
        autoscale: optional :class:`AutoscaleConfig`; when given, an
            :class:`Autoscaler` thread resizes the fleet from observed
            load (see :mod:`repro.serve.cluster.autoscale`).
        split_seed: base seed for per-worker canary assignment RNGs
            (each shard derives an independent child seed).
        start_method: multiprocessing start method; default prefers
            ``fork`` (instant, shares the imported interpreter) and
            falls back to the platform default.
        transport: how frames reach the workers — ``"pipe"`` (default:
            duplex ``multiprocessing`` pipes, shm artifact handles,
            bit-for-bit the pre-transport behavior) or ``"socket"``
            (workers serve wire frames over TCP; artifacts ship as
            bytes once per host into the host-level cache).  A
            :class:`~repro.serve.cluster.transport.WorkerFactory`
            instance plugs in a custom transport.
        trace_sample: fraction of front-end requests to trace across
            the whole pipeline (queue-wait / batch-assembly / wire /
            worker-service / kernel spans); 0 disables tracing.
        exporter_port: when not None, start the observability HTTP
            exporter (``/metrics``, ``/traces``, ``/healthz``) on this
            port at construction (0 = ephemeral).  ``/metrics`` merges
            the parent hub with every live worker's hub snapshot under
            per-shard labels.

    Usage::

        with ShardedPolicyService(n_shards=2, self_heal=True) as service:
            service.publish("abr", PolicyArtifact.from_tree(tree))
            result = service.submit("abr", state).result()
            actions = [r.action for r in
                       service.predict_batch("abr", states)]
    """

    def __init__(
        self,
        n_shards: int = 2,
        registry: Optional[ModelRegistry] = None,
        max_batch: int = 128,
        max_delay_s: float = 1e-3,
        max_latency_samples: int = 200_000,
        adaptive_delay: bool = False,
        routing: Union[str, Router] = "least_loaded",
        self_heal: bool = False,
        autoscale: Optional[AutoscaleConfig] = None,
        split_seed: SeedLike = None,
        start_method: Optional[str] = None,
        transport: Union[str, WorkerFactory] = "pipe",
        trace_sample: float = 0.0,
        exporter_port: Optional[int] = None,
        postmortem_dir: Optional[str] = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be at least 1")
        #: Hash affinity is an override applied before routing; the
        #: router underneath handles fallback and non-sticky traffic.
        self._hash_affinity = routing == "hash"
        self._router = make_router(routing)
        self.routing = routing if isinstance(routing, str) else routing.name
        # Custom routers predating per-model routing define
        # ``select(self, shards)``; detect the old arity once so they
        # keep working unchanged next to ref-aware routers.
        self._router_takes_ref = _select_takes_ref(self._router)
        self._worker_transport = make_worker_transport(transport)
        self.transport = self._worker_transport.name
        # Validate the batcher knobs *before* anything spawns; the
        # dispatcher would reject them anyway, but only after worker
        # processes exist.
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_delay_s < 0:
            raise ValueError("max_delay_s must be non-negative")
        self.n_shards = n_shards
        self.self_heal = bool(self_heal)
        self.registry = registry if registry is not None else ModelRegistry()
        self.hub = MetricsHub()
        self.tracer = Tracer(sample_rate=trace_sample)
        #: The cluster's merged flight log: parent-side control and
        #: lifecycle events land here directly; worker journals are
        #: drained over the ``events_since`` op and re-sequenced in
        #: under a ``shard`` label (see :meth:`events`).
        self.journal = EventJournal(hub=self.hub)
        self.registry.journal = self.journal
        #: Per-shard high-water mark of drained worker event seqs.
        self._worker_event_seq: Dict[int, int] = {}
        self._events_lock = threading.Lock()
        #: Parent-side trace-capture ring (None until
        #: :meth:`start_online`): worker rings drain into it over the
        #: ``capture_drain`` op under the same per-shard high-water
        #: discipline as the journal.
        self.capture = None
        self._worker_capture_seq: Dict[int, int] = {}
        self._capture_lock = threading.Lock()
        self._metrics = ServerMetrics(max_latency_samples, hub=self.hub)
        self._m_routed = self.hub.counter(
            "repro_router_decisions_total",
            "Flush groups dispatched, per target shard",
        )
        self.exporter = None
        self.health = None
        self.online = None
        #: Black-box capture for shard deaths, publish rollbacks and
        #: page-severity alerts (disabled unless a directory is
        #: configured via the argument or $REPRO_POSTMORTEM_DIR).
        self.recorder = FlightRecorder(
            directory=postmortem_dir,
            journal=self.journal,
            metrics_fn=self.render_metrics,
            tracer=self.tracer,
            state_fn=self._blackbox_state,
        )
        #: (name, version) -> SharedMemory the parent owns; released on
        #: retire (workers unmapped theirs) or at close.  Kept alive for
        #: the version's whole life — replacement replicas re-attach
        #: these segments during log replay.
        self._segments: Dict[Tuple[str, int], Any] = {}
        #: Host-level artifact cache bookkeeping (remote transports).
        #: A wire key (transport hash) maps to the hosts whose named
        #: cache segment already holds the bytes, and to the number of
        #: live versions referencing it — the parent unlinks the cache
        #: segment when the last one retires.  The token scopes the
        #: deterministic segment names to this service instance.
        self._cache_token = secrets.token_hex(3)
        self._cache_hosts: Dict[str, set] = {}
        self._cache_refs: Dict[str, int] = {}
        self._version_keys: Dict[Tuple[str, int], str] = {}
        self._remote_fleet = self._worker_transport.locality == "remote"
        #: Parent-side record of active splits (workers hold the live
        #: routing state; this mirror backs the retire refusal check).
        self._splits: Dict[str, TrafficSplit] = {}
        #: Linearized history of applied control operations — entries
        #: are mutable lists so retire can tombstone a publish in
        #: place:
        #:   ["publish", name, payload, version]
        #:   ["publish_tombstone", name, version]
        #:   ["alias", (alias, target, version)]
        #:   ["set_split", (ref, canary, fraction, shadow)]
        #: Replaying the log into a fresh replica reproduces the exact
        #: registry/alias/split state of every live shard.
        self._control_log: List[list] = []
        # Serializes control-plane mutation (publish/alias/retire/
        # splits/scale) and the log against each other — interleaved
        # broadcasts would diverge the replicas.
        self._control_lock = threading.Lock()
        self._closed = False
        self._close_lock = threading.Lock()

        self._pending: Dict[int, Any] = {}
        self._pending_lock = threading.Lock()
        self._pending_empty = threading.Condition(self._pending_lock)
        self._msg_ids = itertools.count(1)
        self._next_shard_id = itertools.count(n_shards)
        self._repairs: List[threading.Thread] = []
        # Guards the _repairs prune-and-append: two shards dying
        # concurrently race their reader threads here, and an unlocked
        # read-modify-write would drop one repair from the list close()
        # joins.
        self._repairs_lock = threading.Lock()

        if start_method is None:
            methods = mp.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self._ctx = mp.get_context(start_method)
        # Children must inherit OUR resource tracker (fork inherits the
        # fd, spawn ships it in the preparation data), not grow private
        # ones that reap live segments when a worker exits.
        ensure_tracker_running()
        if split_seed is None:
            self._seed_seq: Optional[np.random.SeedSequence] = None
        else:
            self._seed_seq = np.random.SeedSequence(
                int(np.random.default_rng(split_seed).integers(1 << 31))
            )
        # Any failure after the first process spawns must tear down
        # what already started — the constructor raised, so the caller
        # never gets an object to close(), and half-started workers,
        # readers, and the dispatcher would leak for the process
        # lifetime.  (The knob validation that MicroBatcher repeats ran
        # above, before anything spawned.)
        self._shards: List[_Shard] = []
        self._shards_by_id: Dict[int, _Shard] = {}
        self._dispatcher: Optional[_ClusterDispatcher] = None
        self.autoscaler: Optional[Autoscaler] = None
        try:
            # The initial workers fork/spawn *before* any parent thread
            # starts, so these children never inherit a half-held lock.
            # (Elastic spawns later fork while parent threads run; the
            # worker entry point touches none of the parent's locks,
            # and segment registration is serialized under the control
            # lock, which add_shard holds across the fork.)
            for shard_id in range(n_shards):
                self._shards.append(self._spawn_worker(shard_id))
            for shard in self._shards:
                self._start_reader(shard)
            self._shards_by_id = {s.shard_id: s for s in self._shards}
            self._dispatcher = _ClusterDispatcher(
                self,
                max_batch=max_batch,
                max_delay_s=max_delay_s,
                delay=(AdaptiveDelay(max_delay_s=max_delay_s)
                       if adaptive_delay else None),
                tracer=self.tracer,
                hub=self.hub,
            ).start()
            # Fail fast if a worker died on startup (bad import, OOM).
            for shard in self._shards:
                reply = self._rpc(shard, "ping", None, timeout_s=30.0)
                if reply != ("pong", shard.shard_id):
                    raise RuntimeError(
                        f"shard {shard.shard_id} failed its startup ping"
                    )
            if autoscale is not None:
                self.autoscaler = Autoscaler(
                    self, autoscale, journal=self.journal
                ).start()
            register_serving_collectors(
                self.hub, batcher=self._dispatcher,
                delay=self._dispatcher.delay,
            )
            self._register_cluster_collectors()
            if exporter_port is not None:
                self.start_exporter(port=exporter_port)
        except BaseException:
            self.close()
            raise

    # -- worker lifecycle --------------------------------------------------
    def _next_child_seed(self) -> Optional[int]:
        if self._seed_seq is None:
            return None
        child = self._seed_seq.spawn(1)[0]
        return int(child.generate_state(1)[0])

    def _spawn_worker(self, shard_id: int) -> _Shard:
        process, transport = self._worker_transport.spawn(
            self._ctx, shard_id, self._next_child_seed()
        )
        self.journal.emit("shard_spawn",
                          labels={"shard": str(shard_id)},
                          transport=self.transport)
        return _Shard(shard_id, process, transport)

    def _start_reader(self, shard: _Shard) -> None:
        shard.reader = threading.Thread(
            target=self._reader_loop, args=(shard,),
            name=f"repro-serve-shard-{shard.shard_id}-reader",
            daemon=True,
        )
        shard.reader.start()

    def _destroy_shard(self, shard: _Shard) -> None:
        """Best-effort teardown of a shard that never joined the fleet
        (failed spawn/replay)."""
        shard.alive = False
        shard.close_transport()
        try:
            shard.process.terminate()
        except Exception:  # noqa: BLE001
            pass
        shard.process.join(timeout=5.0)
        if shard.reader is not None:
            shard.reader.join(timeout=5.0)

    def _live_shards(self) -> List[_Shard]:
        """Routable shards: alive and not being drained for removal."""
        return [s for s in self._shards if s.alive and not s.draining]

    def add_shard(self) -> int:
        """Grow the fleet by one replica (the autoscaler's scale-up
        actuator, also a public capacity knob).

        The new worker is spawned, pinged, and fed the full control log
        before it becomes routable, so it can never serve a request
        against partial state.  Returns the new shard id.
        """
        with self._control_lock:
            if self._closed:
                raise RuntimeError("service is closed")
            shard = self._provision_shard_locked()
            if self._closed:
                # close() raced the provisioning; installing now would
                # leak a worker the (finished) shutdown never stops.
                self._destroy_shard(shard)
                raise RuntimeError("service closed during add_shard")
            self._shards = list(self._shards) + [shard]
            self._shards_by_id[shard.shard_id] = shard
            self.n_shards += 1
            return shard.shard_id

    def remove_shard(self, shard_id: Optional[int] = None,
                     timeout_s: float = 30.0) -> int:
        """Gracefully retire one worker (the scale-down actuator).

        The victim (least-loaded live shard unless ``shard_id`` pins
        one) is marked draining — no new groups route at it — its
        in-flight replies complete, then it stops.  Refuses to remove
        the last live shard.  Returns the removed shard id.

        Only victim selection and the membership update hold the
        control lock; the drain wait (seconds under heavy batches)
        runs outside it, so publishes, metrics, and the self-healing
        of *other* shards are never stalled behind a scale-down.
        """
        with self._control_lock:
            if self._closed:
                raise RuntimeError("service is closed")
            live = self._live_shards()
            if len(live) <= 1:
                raise RuntimeError("cannot remove the last live shard")
            if shard_id is None:
                shard = min(live, key=lambda s: (s.inflight, s.shard_id))
            else:
                shard = self._shards_by_id.get(shard_id)
                if shard is None or not shard.alive or shard.draining:
                    raise KeyError(f"no live shard {shard_id}")
            # The flag is what needs the lock: a concurrent
            # remove_shard selects from live = alive-and-not-draining,
            # so two removals can never pick the same victim or drain
            # the fleet past the last-shard check.
            shard.draining = True
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            with self._pending_lock:
                if shard.inflight == 0:
                    break
            time.sleep(0.005)
        # The channel is FIFO per connection (pipe or TCP stream): the
        # worker answers everything queued before the stop, then
        # exits; its EOF runs the _on_shard_death sweep, which fails
        # any straggler that raced the draining flag (zero stranded
        # futures).
        try:
            self._rpc(shard, "stop", None, timeout_s=10.0)
        except RuntimeError:
            pass
        if shard.reader is not None:
            shard.reader.join(timeout=10.0)
        shard.process.join(timeout=10.0)
        if shard.process.is_alive():
            shard.process.terminate()
            shard.process.join(timeout=5.0)
        shard.alive = False
        shard.close_transport()
        with self._control_lock:
            self._shards = [s for s in self._shards if s is not shard]
            self._shards_by_id.pop(shard.shard_id, None)
            self.n_shards -= 1
        return shard.shard_id

    def kill_shard(self, shard_id: int) -> None:
        """Chaos helper: hard-kill one worker process (SIGTERM).

        Pending groups routed at it fail with structured
        ``shard_error`` results; with ``self_heal`` the death triggers
        a replacement replica that replays the control log.  Raises
        ``KeyError`` for an unknown or already-dead shard.
        """
        shard = self._shards_by_id.get(shard_id)
        if shard is None or not shard.alive:
            raise KeyError(f"no live shard {shard_id}")
        shard.process.terminate()
        shard.process.join(timeout=10.0)

    def _provision_shard_locked(self) -> _Shard:
        """Spawn + ping + replay one replica (caller holds the control
        lock); the shard is fully caught up but not yet routable."""
        shard = self._spawn_worker(next(self._next_shard_id))
        try:
            self._start_reader(shard)
            reply = self._rpc(shard, "ping", None, timeout_s=30.0)
            if reply != ("pong", shard.shard_id):
                raise RuntimeError(
                    f"shard {shard.shard_id} failed its startup ping"
                )
            self._replay_log_locked(shard)
        except BaseException:
            self._destroy_shard(shard)
            raise
        return shard

    def _replay_log_locked(self, shard: _Shard) -> None:
        """Feed the linearized control log into a fresh replica.

        Version numbers are cross-checked op by op — replay that does
        not reproduce the parent mirror's numbering exactly is replica
        divergence and fails the provisioning.
        """
        for entry in self._control_log:
            op = entry[0]
            if op == "publish":
                _, name, shipment, version = entry
                payload = self._shipment_payload(shard, shipment)
                worker_version = self._rpc(shard, "publish",
                                           (name, payload))
                self._note_shipped(shard, shipment, payload)
                if worker_version != version:
                    raise RuntimeError(
                        f"replay diverged: shard {shard.shard_id} "
                        f"registered {name!r} as version "
                        f"{worker_version}, log has {version}"
                    )
            elif op == "publish_tombstone":
                _, name, version = entry
                worker_version = self._rpc(shard, "publish_tombstone",
                                           name)
                if worker_version != version:
                    raise RuntimeError(
                        f"replay diverged: shard {shard.shard_id} "
                        f"tombstoned {name!r} at version "
                        f"{worker_version}, log has {version}"
                    )
            elif op == "alias":
                self._rpc(shard, "alias", entry[1])
            elif op == "set_split":
                self._rpc(shard, "set_split", entry[1])

    def _repair(self, dead: _Shard) -> None:
        """Self-heal worker: replace ``dead`` with a caught-up replica.

        Runs on its own thread (shard death is detected on the reader
        thread, which must keep failing pending futures, not block on
        the control lock).  Failure to heal is logged into nothing —
        the cluster keeps serving on the survivors, and the next death
        or scale-up tries again.
        """
        # The dead worker leaves the fleet list below, so close() never
        # reaches it: reap it here.
        dead.process.join(timeout=5.0)
        if dead.process.is_alive():
            dead.process.terminate()
            dead.process.join(timeout=5.0)
        try:
            with self._control_lock:
                if self._closed:
                    return
                shard = self._provision_shard_locked()
                if self._closed:
                    # close() ran while we were provisioning (its
                    # repair-join timeout is shorter than a worst-case
                    # spawn+replay): installing now would hand a live
                    # worker to a service that already stopped its
                    # fleet and unlinked its segments — tear the
                    # replacement down instead.
                    self._destroy_shard(shard)
                    return
                shards = list(self._shards)
                if dead in shards:
                    # Replace in place so hash-affinity bucket order
                    # stays as stable as membership allows.
                    shards[shards.index(dead)] = shard
                else:
                    shards.append(shard)
                self._shards_by_id.pop(dead.shard_id, None)
                self._shards_by_id[shard.shard_id] = shard
                self._shards = shards
            self.journal.emit(
                "shard_heal", labels={"shard": str(shard.shard_id)},
                replaced=dead.shard_id,
                control_log_len=len(self._control_log),
            )
        except Exception:  # noqa: BLE001 - healing is best effort
            pass

    # -- registry control -------------------------------------------------
    def publish(
        self,
        name: str,
        artifact: PolicyArtifact,
        alias: Optional[str] = None,
    ) -> int:
        """Publish to every shard (shared memory for tree artifacts).

        The parent mirror registry publishes first — it is the
        authoritative version counter — then the artifact is broadcast;
        tree artifacts travel as one shared segment mapped by all
        shards, anything else falls back to pickling.  If any live
        shard rejects the publish, the shards that already applied it
        and the parent mirror are rolled back before the error is
        raised, so the replicas never diverge; the alias (if any) is
        installed only after every shard accepted.  A successful
        publish is appended to the control log, so replacement replicas
        replay it (re-attaching the same shared segment).

        Control-plane operations (publish / alias / retire / splits /
        scaling) serialize under one lock so every shard sees them in
        the same order — interleaved broadcasts would diverge the
        replicas.
        """
        with self._control_lock:
            return self._publish_locked(name, artifact, alias)

    def _publish_locked(
        self,
        name: str,
        artifact: PolicyArtifact,
        alias: Optional[str],
    ) -> int:
        if artifact.flat is None:
            # Pickle fallback: serialize *once*, before the parent
            # registry publishes — an unpicklable artifact must fail
            # cleanly here (not desync replicas mid-broadcast), and the
            # resulting bytes ship to every shard without re-pickling
            # multi-MB teacher weights per shard.
            try:
                pickled: Optional[bytes] = pickle.dumps(artifact)
            except Exception as exc:  # noqa: BLE001 - any pickle error
                raise TypeError(
                    f"artifact {artifact.name!r} (kind "
                    f"{artifact.kind!r}) cannot be shipped to shards: "
                    f"it has no flat arrays for shared memory and does "
                    f"not pickle ({exc})"
                ) from exc
        else:
            pickled = None
        # Build the transport payload *before* the parent mirror
        # publishes: a share_artifact failure (e.g. /dev/shm exhausted)
        # after the mirror write would leave a phantom parent version
        # that wedges every later publish of the model.
        shm = None
        handle = None
        if artifact.flat is not None:
            # Compile the native kernel *before* the handle snapshots
            # ``meta`` — the kernel provenance (hash, compiler, flags)
            # must ride to the workers, whose own publish-time compile
            # hook then dlopens the cached binary instead of paying a
            # second compile.  Best-effort: no compiler just means the
            # fleet serves through numpy.
            try:
                artifact.compile_native()
            except Exception:  # noqa: BLE001 - publish must not fail
                pass
            handle, shm = share_artifact(artifact)
        try:
            version = self.registry.publish(name, artifact)
        except Exception:
            if shm is not None:
                shm.close()
                shm.unlink()
            raise
        if shm is not None:
            self._segments[(name, version)] = shm
        # The shipment is what the control log stores: the concrete
        # per-shard payload (shm handle, pickled bytes, or a
        # WireArtifact with/without the raw bytes) is resolved at
        # broadcast and replay time, because it depends on each
        # shard's transport and on what its host already caches.
        shipment = _ArtifactShipment(handle, shm, pickled,
                                     self._cache_token)
        applied: List[_Shard] = []
        try:
            for shard in self._shards:
                # A draining shard is leaving the fleet (scale-down
                # waits outside the control lock): it serves what it
                # already holds and must not make a racing publish
                # fail-and-roll-back when its stop lands first.
                if not shard.alive or shard.draining:
                    continue
                payload = self._shipment_payload(shard, shipment)
                worker_version = self._rpc(
                    shard, "publish", (name, payload)
                )
                applied.append(shard)
                self._note_shipped(shard, shipment, payload)
                if worker_version != version:
                    raise RuntimeError(
                        f"shard {shard.shard_id} registered {name!r} "
                        f"as version {worker_version}, parent has "
                        f"{version}: registry replicas diverged"
                    )
            if not applied:
                raise RuntimeError("no live shards")
        except Exception:
            # Roll the already-applied shards and the parent mirror
            # back so every replica forgets the failed version.
            for shard in applied:
                if not shard.alive:
                    continue
                try:
                    self._rpc(shard, "rollback_publish", (name, version),
                              timeout_s=10.0)
                except Exception:  # noqa: BLE001 - rollback best effort
                    pass
            try:
                self.registry.rollback_publish(name, version)
            except ValueError:
                pass  # a concurrent publish superseded it; leave it
            shm = self._segments.pop((name, version), None)
            if shm is not None:
                try:
                    shm.close()
                    shm.unlink()
                except Exception:  # noqa: BLE001
                    pass
            # If no *live* version still references the wire key, the
            # host-cache segment a worker may have just filled is an
            # orphan — drop it (workers rolled back, so their mappings
            # are closed).
            if (self._remote_fleet and shipment.key is not None
                    and self._cache_refs.get(shipment.key, 0) == 0):
                self._release_cache_segment(shipment.key)
            # The registry hook already journaled the rollback; the
            # black box keeps the evidence (which shards applied, the
            # metrics page at failure time).
            self.recorder.capture(
                f"publish_rollback_{name}",
                extra={"model": name, "version": version,
                       "applied_shards": [s.shard_id for s in applied]},
            )
            raise
        self._control_log.append(["publish", name, shipment, version])
        if self._remote_fleet and shipment.key is not None:
            self._version_keys[(name, version)] = shipment.key
            self._cache_refs[shipment.key] = (
                self._cache_refs.get(shipment.key, 0) + 1
            )
        if alias is not None:
            self._alias_locked(alias, name, None)
        return version

    def _shipment_payload(self, shard: _Shard,
                          shipment: _ArtifactShipment) -> Any:
        """Resolve a shipment to what *this* shard's publish carries.

        Co-located shards get the shm handle (zero-copy attach by
        transport hash) or the pickled bytes — the pre-transport
        behavior, unchanged.  Remote shards get a
        :class:`WireArtifact`; the raw bytes ride along only when the
        shard's host has not cached the key yet (the second publish of
        the same hash to a host ships zero payload bytes).
        """
        if shard.transport.locality == "local":
            if shipment.handle is not None:
                return shipment.handle
            return shipment.pickled
        cached = shard.transport.host_key in self._cache_hosts.get(
            shipment.key, ()
        )
        # The kernel .so rides the same once-per-(host, key) discipline
        # as the artifact bytes: a host that caches the arrays also
        # caches the kernel (the first worker installed it).
        return WireArtifact(
            key=shipment.key,
            segment=shipment.segment,
            handle=shipment.wire_handle,
            payload=None if cached else shipment.wire_bytes(),
            kernel=None if cached else shipment.kernel_bytes(),
        )

    def _note_shipped(self, shard: _Shard, shipment: _ArtifactShipment,
                      payload: Any) -> None:
        """Record that a host now caches a key (its worker filled the
        named segment as part of a successful publish RPC)."""
        if isinstance(payload, WireArtifact) and payload.payload is not None:
            self._cache_hosts.setdefault(shipment.key, set()).add(
                shard.transport.host_key
            )

    def _release_cache_segment(self, key: str) -> None:
        """Unlink one host-cache segment (last referencing version is
        gone).  Best effort: on a truly remote host the parent cannot
        reach the segment — there, the host's worker runtime owns
        sweeping orphans — but for the localhost fleets this repo runs
        the attach-and-unlink reclaims the memory immediately."""
        self._cache_refs.pop(key, None)
        self._cache_hosts.pop(key, None)
        try:
            segment = shared_memory.SharedMemory(
                name=host_cache_segment_name(self._cache_token, key)
            )
            segment.close()
            segment.unlink()
        except Exception:  # noqa: BLE001 - never created / already gone
            pass

    def alias(
        self, alias: str, target: str, version: Optional[int] = None
    ) -> None:
        """Install (or repoint) an alias on the parent mirror and every
        live shard, and log it for replay."""
        with self._control_lock:
            self._alias_locked(alias, target, version)

    def _alias_locked(
        self, alias: str, target: str, version: Optional[int]
    ) -> None:
        self.registry.alias(alias, target, version)
        # Log with the mirror, *before* the broadcast: the log's
        # invariant is "replaying it reproduces the parent mirror".
        # If the broadcast fails outright (every shard evicted), the
        # mirror has the alias — so the log must too, or the repaired
        # replicas would replay to a divergent state.  Only the final
        # binding matters to a fresh replica; earlier repoints of the
        # same alias are compacted away.
        self._control_log = [
            entry for entry in self._control_log
            if not (entry[0] == "alias" and entry[1][0] == alias)
        ]
        self._control_log.append(["alias", (alias, target, version)])
        self._broadcast_or_evict("alias", (alias, target, version))

    def retire(self, name: str, version: int) -> None:
        """Retire an old version cluster-wide (parent refusal rules —
        including active splits routing to it — run first, so an
        illegal retire never reaches a shard).

        The version's control-log publish entry is tombstoned in place:
        a replacement replica replays the slot as
        ``publish_tombstone``, keeping version numbering identical
        while the artifact bytes (and their shared segment) are gone.
        """
        with self._control_lock:
            guard_retire_against_splits(
                dict(self._splits), self.registry, name, version
            )
            self.registry.retire(name, version)
            # Tombstone the log with the mirror, before the broadcast:
            # if the broadcast fails wholesale, the mirror considers
            # the version gone, and a repaired replica must not replay
            # it back to life.
            for entry in self._control_log:
                if (entry[0] == "publish" and entry[1] == name
                        and entry[3] == version):
                    entry[:] = ["publish_tombstone", name, version]
                    break
            self._broadcast_or_evict("retire", (name, version))
            # Workers have unmapped the retired version; drop the
            # parent's mapping (under the lock — metrics readers
            # snapshot this dict) so memory tracks the live set, not
            # the publish history.
            shm = self._segments.pop((name, version), None)
            # Host-cache accounting: this version no longer references
            # its wire key; unlink the cached segment once the last
            # referencing version is gone.
            key = self._version_keys.pop((name, version), None)
            if key is not None:
                refs = self._cache_refs.get(key, 0) - 1
                if refs <= 0:
                    self._release_cache_segment(key)
                else:
                    self._cache_refs[key] = refs
        if shm is not None:
            try:
                shm.close()
                shm.unlink()
            except Exception:  # noqa: BLE001 - release best effort
                pass

    def rollback_publish(self, name: str, version: int) -> None:
        """Undo the most recent publish of ``name`` cluster-wide — the
        auto-canary controller's abort path.

        Parent refusal rules run first (must be the current latest, no
        pinned alias, no active split routing to it), then the mirror
        rolls back, the publish entry leaves the replay log, and the
        rollback broadcasts to every live shard.  The version slot is
        freed for reuse — unlike :meth:`retire`, which tombstones it —
        because a rolled-back canary was never a legitimate part of the
        version history.
        """
        with self._control_lock:
            guard_retire_against_splits(
                dict(self._splits), self.registry, name, version
            )
            self.registry.rollback_publish(name, version)
            # Mirror and log first (log == mirror even when the
            # broadcast fails wholesale): the slot is simply gone, so
            # a replacement replica never replays it.
            self._control_log = [
                entry for entry in self._control_log
                if not (entry[0] == "publish" and entry[1] == name
                        and entry[3] == version)
            ]
            self._broadcast_or_evict("rollback_publish", (name, version))
            shm = self._segments.pop((name, version), None)
            key = self._version_keys.pop((name, version), None)
            if key is not None:
                refs = self._cache_refs.get(key, 0) - 1
                if refs <= 0:
                    self._release_cache_segment(key)
                else:
                    self._cache_refs[key] = refs
        if shm is not None:
            try:
                shm.close()
                shm.unlink()
            except Exception:  # noqa: BLE001 - release best effort
                pass

    # -- traffic splitting -------------------------------------------------
    def set_split(
        self,
        ref: str,
        canary: Optional[str] = None,
        canary_fraction: float = 0.0,
        shadow: Optional[str] = None,
    ) -> None:
        """Install a canary/shadow split on every shard.

        Each shard applies the new configuration atomically at its next
        flush; cross-shard skew is bounded by one in-flight batch.
        """
        with self._control_lock:
            check_split_targets(self.registry, ref, canary, shadow)
            # Constructing the config validates it before any broadcast.
            split = TrafficSplit(
                ref=ref, canary=canary,
                canary_fraction=float(canary_fraction), shadow=shadow,
            )
            # Record the mirror *before* broadcasting: if the broadcast
            # fails partway, some shard may already be routing under
            # this split, and the retire() guard must keep seeing it.
            self._splits[ref] = split
            payload = (ref, canary, float(canary_fraction), shadow)
            # Mirror and log first (same invariant as _alias_locked:
            # log == mirror even when the broadcast fails wholesale).
            self._drop_split_log_entries(ref)
            self._control_log.append(["set_split", payload])
            self._broadcast_or_evict("set_split", payload)
        self.journal.emit(
            "canary_change", labels={"ref": ref},
            canary=canary, canary_fraction=float(canary_fraction),
            shadow=shadow,
        )

    def clear_split(self, ref: str) -> None:
        """Remove ``ref``'s split on every shard (and from the replay
        log — a fresh replica simply never installs it)."""
        with self._control_lock:
            self._broadcast_or_evict("clear_split", ref)
            removed = self._splits.pop(ref, None)
            self._drop_split_log_entries(ref)
        if removed is not None:
            self.journal.emit("canary_change", labels={"ref": ref},
                              cleared=True)

    def _drop_split_log_entries(self, ref: str) -> None:
        self._control_log = [
            entry for entry in self._control_log
            if not (entry[0] == "set_split" and entry[1][0] == ref)
        ]

    def splits(self) -> Dict[str, TrafficSplit]:
        """Active splits as recorded by the parent."""
        return dict(self._splits)

    def shadow_report(self) -> Dict[str, dict]:
        """Cluster-wide shadow fidelity (summed over shards)."""
        merger = TrafficSplitter()
        for _shard, report in self._broadcast_tolerant("shadow_report",
                                                       None):
            merger.merge_shadow_report(report)
        return merger.shadow_report()

    def replica_states(self) -> Dict[str, Any]:
        """Control-state fingerprints of the parent mirror and every
        live shard.

        Returns ``{"parent": state, "shards": {shard_id: state}}``
        where each state is ``{"models": {name: [hash-or-None, ...]},
        "aliases": {...}, "splits": {...}}``.  Lockstep means every
        value here is *identical* — the replacement-replay tests
        compare them byte for byte (via ``repr``) after healing a
        killed shard.  Taken under the control lock, so no broadcast
        can land between the parent's view and the shards'.
        """
        with self._control_lock:
            parent = dict(self.registry.fingerprint())
            parent["splits"] = split_state(self._splits)
            # Digest goes in LAST (workers do the same in describe):
            # byte-for-byte repr comparison needs identical key order.
            parent["digest"] = control_state_digest(parent)
            shards = {
                shard.shard_id: reply
                for shard, reply in self._broadcast_tolerant("describe",
                                                             None)
            }
        return {"parent": parent, "shards": shards}

    # -- traffic -----------------------------------------------------------
    def submit(self, model: str, state: Any) -> "Future[ServeResult]":
        """One decision request; microbatched and routed to a shard.
        The future refuses ``cancel()``.  On an event loop the request
        is gathered with that loop's others and handed to the dispatcher
        thread at the end of the loop's turn, and the future is one the
        loop awaits directly, as on the in-process tier (see
        :meth:`MicroBatcher.submit`); from a thread it is a plain
        ``concurrent.futures.Future``."""
        return self._dispatcher.submit(model, state)

    def submit_async(self, model: str, state: Any):
        """Asyncio submission path; awaitable from a running loop."""
        return self._dispatcher.submit_async(model, state)

    def submit_many(
        self, model: str, states: Any
    ) -> List["Future[ServeResult]"]:
        """Submit a stack of single-state requests (they may co-batch
        at the front end and ship as one group)."""
        states = np.atleast_2d(np.asarray(states, dtype=float))
        return [self._dispatcher.submit(model, row) for row in states]

    def submit_batch(
        self, model: str, states: Any
    ) -> "Future[List[ServeResult]]":
        """Bulk path: one future for a whole state matrix (it refuses
        ``cancel()``, like every future the tier returns).

        The matrix is split into contiguous chunks across live shards
        and shipped as arrays — per-row Python cost at the front end is
        a slice, which is what lets the cluster outrun the per-request
        future machinery of the single-process server.
        """
        if self._dispatcher.closed:
            raise RuntimeError(
                "ShardedPolicyService is closed: submit_batch() after "
                "close() can never complete"
            )
        x = np.atleast_2d(np.ascontiguousarray(states, dtype=float))
        if x.ndim != 2:
            raise ValueError("submit_batch expects an (n, d) state matrix")
        shards = self._live_shards()
        n = x.shape[0]
        if not shards or n == 0:
            job = _BulkJob(n, 1, model)
            for i in range(n):
                self._metrics.record(model, 0, 0.0, error=ERR_SHARD)
                job.results[i] = ServeResult(
                    ok=False, action=None, model=model, version=0,
                    error=ERR_SHARD, detail="no live shards",
                )
            job.chunk_done()
            return job.future
        n_chunks = min(len(shards), n)
        bounds = np.linspace(0, n, n_chunks + 1).astype(int)
        job = _BulkJob(n, n_chunks, model)
        for k in range(n_chunks):
            lo, hi = int(bounds[k]), int(bounds[k + 1])
            shard = shards[k % len(shards)]
            chunk = _BulkChunk(job, lo, hi - lo, shard.shard_id)
            self._send_predict(shard, model, x[lo:hi], chunk)
        return job.future

    def predict_batch(
        self, model: str, states: Any, timeout_s: float = 60.0
    ) -> List[ServeResult]:
        """Synchronous bulk convenience returning per-row results."""
        return self.submit_batch(model, states).result(timeout=timeout_s)

    def predict(
        self, model: str, states: Any, timeout_s: float = 60.0
    ) -> np.ndarray:
        """Synchronous bulk convenience: actions or :class:`ServeError`."""
        results = self.predict_batch(model, states, timeout_s=timeout_s)
        for res in results:
            if not res.ok:
                raise ServeError(f"{model}: {res.error} ({res.detail})")
        return np.asarray([res.action for res in results])

    # -- dispatch internals ------------------------------------------------
    def _pick_shard(self, ref: Optional[str] = None) -> Optional[_Shard]:
        live = self._live_shards()
        if self._router_takes_ref:
            return self._router.select(live, ref)
        # Back-compat: custom routers written against the pre-PR-6
        # single-argument signature keep working unchanged.
        return self._router.select(live)

    def _dispatch_group(self, ref: str, requests: List[_Request]) -> None:
        """Route one stacked flush group to a shard (or fail it fast).

        Hash affinity (when configured) pins each request to a shard by
        a stable hash of its state while the live membership holds;
        everything else — including fallback for a just-died target —
        goes through the pluggable router.
        """
        live = self._live_shards()
        if self._hash_affinity and len(live) > 1:
            buckets: Dict[int, List[_Request]] = {}
            for request in requests:
                key = hash(request.row.tobytes()) % len(live)
                buckets.setdefault(key, []).append(request)
            parts: List[Tuple[Optional[_Shard], List[_Request]]] = [
                (live[key], group) for key, group in buckets.items()
            ]
        else:
            parts = [(None, requests)]
        for target, group in parts:
            if target is not None and target.alive and not target.draining:
                shard: Optional[_Shard] = target
            else:
                shard = self._pick_shard(ref)
            if shard is None:
                self._fail_requests(group, ref, "no live shards")
                continue
            x = np.stack([request.row for request in group])
            self._send_predict(shard, ref, x, _PredictJob(group,
                                                          shard.shard_id))

    def _send_predict(self, shard: _Shard, ref: str, x: np.ndarray,
                      entry: Any) -> None:
        msg_id = next(self._msg_ids)
        trace_ctx = None
        if isinstance(entry, _PredictJob):
            now = time.perf_counter()
            traced = [request.trace for request in entry.requests
                      if request.trace is not None]
            for trace in traced:
                trace.mark_send(now)
            if traced:
                # Only ids cross the wire — the TraceRecord objects stay
                # parent-side, where spans are reassembled on completion.
                trace_ctx = {"trace_ids": [t.trace_id for t in traced]}
        self._m_routed.labels(shard=str(shard.shard_id)).inc()
        with self._pending_lock:
            self._pending[msg_id] = entry
            shard.inflight += 1
        try:
            shard.send(msg_id, "predict", (ref, x), trace=trace_ctx)
        except Exception as exc:  # noqa: BLE001 - fail, never strand
            with self._pending_lock:
                owned = self._pending.pop(msg_id, None)
                if owned is not None:
                    shard.inflight -= 1
            if isinstance(exc, OSError):  # broken pipe == dead shard
                self._on_shard_death(shard)
                detail = f"shard {shard.shard_id} is unreachable"
            else:  # payload problem; the shard is healthy
                detail = (
                    f"request could not be shipped to shard "
                    f"{shard.shard_id}: {exc}"
                )
            if owned is None:
                # The reader's shard-death sweep claimed the entry
                # between our insert and the send — it already failed
                # these futures; failing them twice would raise.
                return
            if isinstance(owned, _PredictJob):
                self._fail_requests(owned.requests, ref, detail)
            else:
                self._fail_chunk(owned, detail)

    def _fail_requests(self, requests: List[_Request], ref: str,
                       detail: str) -> None:
        now = time.perf_counter()
        with batched_wakeups():
            for request in requests:
                if request.future.done():  # belt: never double-resolve
                    continue
                self._metrics.record(ref, 0, now - request.enqueued,
                                     error=ERR_SHARD)
                if request.trace is not None:
                    request.trace.finish(ok=False, now=now)
                    self.tracer.record(request.trace)
                request.future.set_result(ServeResult(
                    ok=False, action=None, model=ref, version=0,
                    error=ERR_SHARD, detail=detail,
                    latency_s=now - request.enqueued,
                ))

    def _fail_chunk(self, chunk: _BulkChunk, detail: str) -> None:
        ref = chunk.job.model
        now = time.perf_counter()
        latency = now - chunk.job.enqueued
        for i in range(chunk.offset, chunk.offset + chunk.size):
            self._metrics.record(ref, 0, latency, error=ERR_SHARD)
            chunk.job.results[i] = ServeResult(
                ok=False, action=None, model=ref, version=0,
                error=ERR_SHARD, detail=detail, latency_s=latency,
            )
        chunk.job.chunk_done()

    # -- reply handling ----------------------------------------------------
    def _reader_loop(self, shard: _Shard) -> None:
        transport = shard.transport
        while True:
            try:
                reply = decode_frame(transport.recv_frame())
            except (EOFError, OSError, WireError):
                # A frame the parent cannot decode means the stream is
                # torn — same terminal condition as a closed channel.
                break
            msg_id, ok, payload = reply.msg_id, reply.ok, reply.payload
            with self._pending_lock:
                entry = self._pending.pop(msg_id, None)
                if isinstance(entry, (_PredictJob, _BulkChunk)):
                    shard.inflight -= 1
                if not self._pending:
                    self._pending_empty.notify_all()
            if entry is None:
                continue
            if (ok and isinstance(entry, (_PredictJob, _BulkChunk))
                    and isinstance(payload, dict)):
                # Fold the worker's reported pure service time into
                # the shard's EWMAs (aggregate + per-model) — the
                # router's quality signals.  Keyed by the *requested*
                # ref, which is what routing sees.
                service_s = float(payload.get("service_s") or 0.0)
                if service_s > 0.0:
                    if isinstance(entry, _PredictJob):
                        ref = entry.requests[0].model
                    else:
                        ref = entry.job.model
                    shard.observe_service(ref, service_s)
            if isinstance(entry, _Control):
                entry.ok = bool(ok)
                entry.result = payload
                entry.event.set()
            elif isinstance(entry, _PredictJob):
                # One wake-up per client loop for the whole reply frame.
                with batched_wakeups():
                    self._complete_predict(entry, ok, payload)
            elif isinstance(entry, _BulkChunk):
                self._complete_chunk(entry, ok, payload)
        self._on_shard_death(shard)
        # Nothing reads this channel again, and a healed shard leaves
        # the fleet list that close() walks: close it here.
        shard.close_transport()

    def _complete_predict(self, job: _PredictJob, ok: bool,
                          payload) -> None:
        requests = job.requests
        if not ok:
            self._fail_requests(
                requests, requests[0].model,
                f"shard {job.shard_id} failed: {payload}",
            )
            return
        now = time.perf_counter()
        service_s = float(payload.get("service_s") or 0.0)
        kernel_s = float(payload.get("kernel_s") or 0.0)

        def _finish_trace(request: _Request, ok_row: bool) -> None:
            if request.trace is None:
                return
            request.trace.finish(
                service_s=service_s, kernel_s=kernel_s,
                shard=job.shard_id, batch_size=len(requests),
                ok=ok_row, now=now,
            )
            self.tracer.record(request.trace)

        for name, version, idx, actions in payload["groups"]:
            if np.ndim(actions) == 1:
                values = np.asarray(actions).tolist()
            else:
                values = [np.array(row) for row in actions]
            latencies = []
            for i, action in zip(idx, values):
                request = requests[int(i)]
                latency = now - request.enqueued
                latencies.append(latency)
                _finish_trace(request, True)
                request.future.set_result(ServeResult(
                    ok=True, action=action, model=name, version=version,
                    latency_s=latency,
                ))
            self._metrics.record_group(name, version, latencies)
        for i, model, version, kind, detail in payload["errors"]:
            request = requests[int(i)]
            latency = now - request.enqueued
            self._metrics.record(model, version, latency, error=kind)
            _finish_trace(request, False)
            request.future.set_result(ServeResult(
                ok=False, action=None, model=model, version=version,
                error=kind, detail=detail, latency_s=latency,
            ))

    def _complete_chunk(self, chunk: _BulkChunk, ok: bool,
                        payload) -> None:
        job = chunk.job
        if not ok:
            self._fail_chunk(
                chunk, f"shard {chunk.shard_id} failed: {payload}"
            )
            return
        now = time.perf_counter()
        latency = now - job.enqueued
        for name, version, idx, actions in payload["groups"]:
            if np.ndim(actions) == 1:
                values = np.asarray(actions).tolist()
            else:
                values = [np.array(row) for row in actions]
            for i, action in zip(idx, values):
                job.results[chunk.offset + int(i)] = ServeResult(
                    ok=True, action=action, model=name, version=version,
                    latency_s=latency,
                )
            self._metrics.record_group(
                name, version, [latency] * int(len(idx))
            )
        for i, model, version, kind, detail in payload["errors"]:
            job.results[chunk.offset + int(i)] = ServeResult(
                ok=False, action=None, model=model, version=version,
                error=kind, detail=detail, latency_s=latency,
            )
            self._metrics.record(model, version, latency, error=kind)
        job.chunk_done()

    def _on_shard_death(self, shard: _Shard) -> None:
        # Claim the death atomically: the reader thread (EOF) and a
        # sender (EPIPE) can detect it concurrently, and two claimants
        # would sweep twice and — with self_heal — spawn two repairs
        # for one corpse, growing the fleet past n_shards.
        with self._pending_lock:
            if not shard.alive:
                return
            shard.alive = False
            doomed = [
                (msg_id, entry) for msg_id, entry in self._pending.items()
                if getattr(entry, "shard_id", None) == shard.shard_id
            ]
            for msg_id, _entry in doomed:
                del self._pending[msg_id]
            shard.inflight = 0
            if not self._pending:
                self._pending_empty.notify_all()
        for _msg_id, entry in doomed:
            if isinstance(entry, _PredictJob):
                self._fail_requests(
                    entry.requests, entry.requests[0].model,
                    f"shard {shard.shard_id} died",
                )
            elif isinstance(entry, _BulkChunk):
                self._fail_chunk(entry, f"shard {shard.shard_id} died")
            elif isinstance(entry, _Control):
                entry.ok = False
                entry.result = f"shard {shard.shard_id} died"
                entry.event.set()
        # Journal + black-box capture run on the detector thread but
        # take no control lock (the journal has its own, the recorder
        # only reads) — the reader must stay free to fail futures.
        self.journal.emit(
            "shard_death",
            severity="info" if shard.draining else "error",
            labels={"shard": str(shard.shard_id)},
            draining=shard.draining, failed_requests=len(doomed),
        )
        if not shard.draining and not self._closed:
            self.recorder.capture(
                f"shard_death_{shard.shard_id}",
                extra={"shard": shard.shard_id},
            )
        if self.self_heal and not self._closed and not shard.draining:
            # Healing replays the control log, which needs the control
            # lock — never block the reader thread (it may *be* the
            # detector during a control broadcast) on it.
            repair = threading.Thread(
                target=self._repair, args=(shard,),
                name=f"repro-serve-shard-{shard.shard_id}-repair",
                daemon=True,
            )
            # Prune finished repairs while appending, so a chaos-heavy
            # service doesn't hoard one dead Thread per healed death
            # forever.
            with self._repairs_lock:
                self._repairs = [
                    t for t in self._repairs if t.is_alive()
                ] + [repair]
            repair.start()

    # -- control RPC -------------------------------------------------------
    def _rpc(self, shard: _Shard, op: str, payload,
             timeout_s: float = _RPC_TIMEOUT_S):
        control = _Control(shard.shard_id)
        msg_id = next(self._msg_ids)
        with self._pending_lock:
            self._pending[msg_id] = control
        try:
            shard.send(msg_id, op, payload)
        except OSError as exc:  # broken channel: the shard really died
            with self._pending_lock:
                self._pending.pop(msg_id, None)
            self._on_shard_death(shard)
            raise RuntimeError(
                f"shard {shard.shard_id} is unreachable: {exc}"
            ) from exc
        except Exception as exc:
            # A payload problem (e.g. unpicklable object) is the
            # caller's fault — the shard is perfectly healthy.
            with self._pending_lock:
                self._pending.pop(msg_id, None)
            raise TypeError(
                f"payload for {op!r} cannot be shipped to shard "
                f"{shard.shard_id}: {exc}"
            ) from exc
        if not control.event.wait(timeout_s):
            raise RuntimeError(
                f"shard {shard.shard_id} did not answer {op!r} within "
                f"{timeout_s:.0f}s"
            )
        if not control.ok:
            raise RuntimeError(
                f"shard {shard.shard_id} rejected {op!r}: "
                f"{control.result}"
            )
        return control.result

    def _broadcast_tolerant(
        self, op: str, payload
    ) -> List[Tuple[_Shard, Any]]:
        """Read-only broadcast that skips shards dying mid-call.

        Observability ops (metrics / shadow_report / describe) race
        shard death by design — a monitoring poll right after a kill
        must report the surviving fleet, not crash because one pipe
        went dark between the liveness check and the RPC.  (``_rpc``
        already marks a shard dead on a broken pipe; this just doesn't
        let that abort the read.)  May return an empty list when no
        shard is reachable.
        """
        replies = []
        for shard in list(self._shards):
            if not shard.alive:
                continue
            try:
                replies.append((shard, self._rpc(shard, op, payload)))
            except RuntimeError:
                continue
        return replies

    def _broadcast_or_evict(
        self, op: str, payload
    ) -> List[Tuple[_Shard, Any]]:
        """Apply a control op on every live shard, evicting any shard
        that cannot apply it.

        Publish has a rollback protocol; cheaper control ops (alias /
        retire / splits) use fail-stop instead: a replica that missed a
        control op would silently serve stale routing state forever,
        and losing one shard's capacity is strictly better than that.
        (With ``self_heal`` the evicted shard is replaced by a replica
        replaying the post-op log, so even the capacity loss is
        transient.)  Raises only when no shard applied the op.
        """
        replies = []
        for shard in list(self._shards):
            # Draining shards are leaving: broadcasting to one could
            # race its stop and evict-terminate it mid-drain for no
            # gain (it serves only what it already holds).
            if not shard.alive or shard.draining:
                continue
            try:
                replies.append((shard, self._rpc(shard, op, payload)))
            except Exception:  # noqa: BLE001 - evict, keep the rest
                self._on_shard_death(shard)
                try:
                    shard.process.terminate()
                except Exception:  # noqa: BLE001
                    pass
        if not replies:
            raise RuntimeError(f"no live shard could apply {op!r}")
        return replies

    # -- observability -----------------------------------------------------
    def metrics(self) -> Dict[str, dict]:
        """Cluster-level per-model metrics (client-observed latency)."""
        return self._metrics.snapshot()

    def cluster_metrics(self) -> Dict[str, Any]:
        """Full cluster view: end-to-end, per-shard, and aggregate.

        ``cluster`` carries the client-observed percentiles (the number
        that matters for SLOs); ``shards`` the per-worker service-time
        snapshots; ``aggregate`` sums shard counters and throughput —
        aggregate throughput is the scaling headline.  ``routing``
        exposes the router plus each shard's load signals (in-flight
        groups, EWMA service time), ``shm`` the resident artifact
        memory, and ``autoscale`` the autoscaler's event history when
        one is configured.  ``backend`` reports which inference engine
        served each model's rows — compiled native kernel vs numpy —
        with the fallback counter that makes a silent degradation (no
        compiler on a host, failed compile) observable in production.
        """
        shard_snaps = []
        for shard, snap in self._broadcast_tolerant("metrics", None):
            shard_snaps.append({"shard": shard.shard_id, "models": snap})
        aggregate: Dict[str, dict] = {}
        for snap in shard_snaps:
            for model, stats in snap["models"].items():
                agg = aggregate.setdefault(model, {
                    "requests": 0, "errors": 0, "throughput_rps": 0.0,
                    "versions": {}, "batch_sizes": {},
                })
                agg["requests"] += stats["requests"]
                agg["errors"] += stats["errors"]
                agg["throughput_rps"] += stats["throughput_rps"]
                for key, count in stats["versions"].items():
                    agg["versions"][key] = (
                        agg["versions"].get(key, 0) + count
                    )
                for key, count in stats["batch_sizes"].items():
                    agg["batch_sizes"][key] = (
                        agg["batch_sizes"].get(key, 0) + count
                    )
        routing = dict(self._router.snapshot())
        routing["hash_affinity"] = self._hash_affinity
        routing["per_shard"] = {
            str(shard.shard_id): {
                "inflight": shard.inflight,
                "ewma_service_ms": shard.ewma_service_s * 1e3,
                "ewma_by_model_ms": {
                    ref: ewma * 1e3
                    for ref, ewma in shard.ewma_by_model.items()
                },
                "draining": shard.draining,
            }
            for shard in self._shards if shard.alive
        }
        transport_view: Dict[str, Any] = {
            "name": self.transport,
            "per_shard": {
                str(shard.shard_id): {
                    "host": shard.transport.host_key,
                    "bytes_sent": shard.transport.bytes_sent,
                    "bytes_received": shard.transport.bytes_received,
                }
                for shard in self._shards if shard.alive
            },
        }
        with self._control_lock:
            # Snapshot under the lock: publish/retire mutate the
            # segment map, and iterating it concurrently would raise.
            footprint = segment_footprint(self._segments)
            transport_view["host_cache"] = {
                "keys": len(self._cache_refs),
                "hosts": sorted(
                    {host for hosts in self._cache_hosts.values()
                     for host in hosts}
                ),
            }
        return {
            "n_shards": self.n_shards,
            "live_shards": len([s for s in self._shards if s.alive]),
            "cluster": self.metrics(),
            "shards": shard_snaps,
            "aggregate": aggregate,
            "routing": routing,
            "transport": transport_view,
            "shm": footprint,
            "backend": self.backend_report(),
            "autoscale": (self.autoscaler.snapshot()
                          if self.autoscaler is not None else None),
        }

    def backend_report(self) -> Dict[str, Any]:
        """Fleet-wide native-vs-numpy serving view.

        ``models`` sums each model's native/numpy/fallback row counters
        across every live shard (a model is ``native`` only if *every*
        reporting shard has a ready kernel — one host without a
        compiler degrades the label, and its rows show up in
        ``fallback_rows``); ``per_shard`` keeps the raw replica
        reports for debugging which host degraded.
        """
        per_shard = {}
        for shard, report in self._broadcast_tolerant(
            "backend_report", None
        ):
            per_shard[str(shard.shard_id)] = report
        models: Dict[str, Any] = {}
        for report in per_shard.values():
            for name, entry in report.items():
                agg = models.setdefault(name, {
                    "native_rows": 0, "numpy_rows": 0,
                    "fallback_rows": 0, "backend": entry["backend"],
                })
                for key in ("native_rows", "numpy_rows",
                            "fallback_rows"):
                    agg[key] += int(entry.get(key, 0))
                if entry["backend"] != agg["backend"]:
                    agg["backend"] = "mixed"
        return {"models": models, "per_shard": per_shard}

    def _register_cluster_collectors(self) -> None:
        """Wire cluster-local load signals into the metrics hub.

        Collectors run at scrape time (pull-style), so the hot path
        pays nothing: shard in-flight counts, router EWMAs, transport
        byte counters, shm footprint, and autoscale actuations are all
        read from state the serving loops already maintain.  Transport
        bytes and autoscale actuations are cumulative upstream values,
        so they are *assigned* onto counter children rather than
        inc'ed.
        """
        g_live = self.hub.gauge(
            "repro_cluster_live_shards", "Shards currently serving",
        )
        g_inflight = self.hub.gauge(
            "repro_cluster_shard_inflight",
            "Dispatched flush groups awaiting a reply, per shard",
        )
        g_ewma = self.hub.gauge(
            "repro_cluster_shard_ewma_service_seconds",
            "EWMA of worker-reported batch service time, per shard",
        )
        c_sent = self.hub.counter(
            "repro_transport_bytes_sent_total",
            "Frame bytes shipped to each shard",
        )
        c_received = self.hub.counter(
            "repro_transport_bytes_received_total",
            "Frame bytes received from each shard",
        )
        g_segments = self.hub.gauge(
            "repro_shm_segments", "Live shared-memory artifact segments",
        )
        g_shm_bytes = self.hub.gauge(
            "repro_shm_resident_bytes",
            "Resident bytes across shared-memory artifact segments",
        )
        c_scale = self.hub.counter(
            "repro_autoscale_actuations_total",
            "Autoscaler scale decisions actuated, per direction",
        )

        def _collect() -> None:
            shards = [s for s in self._shards if s.alive]
            g_live.labels().set(float(len(shards)))
            for shard in shards:
                key = {"shard": str(shard.shard_id)}
                g_inflight.labels(**key).set(float(shard.inflight))
                g_ewma.labels(**key).set(float(shard.ewma_service_s))
                c_sent.labels(**key).value = float(
                    shard.transport.bytes_sent
                )
                c_received.labels(**key).value = float(
                    shard.transport.bytes_received
                )
            # Shallow-copy the map instead of taking the control lock:
            # a scrape must never contend with publish/retire.
            footprint = segment_footprint(dict(self._segments))
            g_segments.labels().set(float(footprint["n_segments"]))
            g_shm_bytes.labels().set(float(footprint["total_bytes"]))
            if self.autoscaler is not None:
                snap = self.autoscaler.snapshot()
                c_scale.labels(direction="up").value = float(
                    snap["scale_ups"]
                )
                c_scale.labels(direction="down").value = float(
                    snap["scale_downs"]
                )

        self.hub.register_collector(_collect)

    def render_metrics(self) -> str:
        """Prometheus text exposition for the whole cluster.

        The parent's own hub (batcher, router, transport, shm,
        autoscale series) is merged with a ``metrics_snapshot`` pulled
        from every live worker over the control channel, each worker's
        series labeled with its ``shard`` id so per-replica kernel and
        service counters stay distinguishable after aggregation.
        """
        snaps = [self.hub.snapshot()]
        if not self._closed:
            for shard, snap in self._broadcast_tolerant(
                "metrics_snapshot", None
            ):
                if isinstance(snap, dict):
                    snaps.append(
                        with_labels(snap, {"shard": str(shard.shard_id)})
                    )
        return render_text(*snaps)

    def _drain_worker_events(self) -> None:
        """Pull every worker journal's new events into the parent journal.

        Incremental: the parent remembers the last drained seq per
        shard and asks ``events_since`` for the delta only; replies are
        re-sequenced into the merged journal under a ``shard`` label.
        Read-only and shard-death-tolerant (same posture as
        ``render_metrics``), serialized so two concurrent ``/events``
        scrapes cannot double-ingest one delta.
        """
        if self._closed:
            return
        with self._events_lock:
            for shard in list(self._shards):
                if not shard.alive:
                    continue
                last = self._worker_event_seq.get(shard.shard_id, 0)
                try:
                    events = self._rpc(shard, "events_since", last)
                except RuntimeError:
                    continue  # dying shard: the survivors still drain
                if not events:
                    continue
                self._worker_event_seq[shard.shard_id] = max(
                    int(e.get("seq", last)) for e in events
                )
                self.journal.ingest(
                    events, {"shard": str(shard.shard_id)}
                )

    def _drain_worker_captures(self) -> None:
        """Pull every worker capture ring's new entries into the parent
        ring (``self.capture``), shard-labeled and re-sequenced.

        Same incremental discipline as :meth:`_drain_worker_events`:
        per-shard high-water seq, shard-death-tolerant, serialized so
        two concurrent drains cannot double-ingest a delta.  The drain
        request also carries the parent ring's current sample rate, so
        the whole fleet's capture turns on (and off) from one knob.
        """
        if self._closed or self.capture is None:
            return
        with self._capture_lock:
            for shard in list(self._shards):
                if not shard.alive:
                    continue
                last = self._worker_capture_seq.get(shard.shard_id, 0)
                try:
                    entries = self._rpc(shard, "capture_drain", {
                        "since": last,
                        "sample_rate": self.capture.sample_rate,
                    })
                except RuntimeError:
                    continue  # dying shard: the survivors still drain
                if not entries:
                    continue
                self._worker_capture_seq[shard.shard_id] = max(
                    int(e.get("seq", last)) for e in entries
                )
                self.capture.ingest(
                    entries, {"shard": str(shard.shard_id)}
                )

    def routed_service_estimate_ms(self, ref: str) -> Optional[float]:
        """Worst-case per-(shard, model) service-time estimate for
        ``ref``, in milliseconds.

        Each shard keeps one EWMA per *requested* model ref alongside
        its blended per-shard EWMA (which mixes model costs — the
        ROADMAP's known routing blind spot).  This read prefers the
        per-model estimate and falls back to the blended one only for
        shards that have never served ``ref``; the max over live
        shards is what the auto-canary controller compares against its
        p95 SLO before advancing a ramp.  ``None`` means no live shard
        has any signal yet.
        """
        worst: Optional[float] = None
        for shard in list(self._shards):
            if not shard.alive:
                continue
            estimate = shard.ewma_by_model.get(ref)
            if estimate is None and shard.ewma_service_s > 0.0:
                estimate = shard.ewma_service_s
            if estimate is None or estimate <= 0.0:
                continue
            if worst is None or estimate > worst:
                worst = estimate
        return None if worst is None else worst * 1e3

    def events(self, since: int = 0) -> List[dict]:
        """The merged cluster event stream (parent + every worker),
        newer than ``since`` — what ``/events?since=`` serves.

        Each read first drains the worker journals, so the merged
        stream is current as of the call; ``seq`` is globally
        monotonic over the merged journal (worker-origin events keep
        their per-shard seq in ``fields.origin_seq``).
        """
        self._drain_worker_events()
        return self.journal.events_since(since)

    def _blackbox_state(self) -> Dict[str, Any]:
        """Tier state for postmortem bundles.

        Deliberately lock-free (list/dict reads are atomic snapshots):
        capture runs on reader threads and inside control operations,
        so taking the control lock here could deadlock the very
        failure path being recorded.
        """
        return {
            "tier": "ShardedPolicyService",
            "transport": self.transport,
            "routing": self.routing,
            "shards": [
                {"shard": s.shard_id, "alive": s.alive,
                 "draining": s.draining, "inflight": s.inflight}
                for s in list(self._shards)
            ],
            "splits": split_state(dict(self._splits)),
            "control_log_len": len(self._control_log),
            "registry": self.registry.fingerprint(),
        }

    def start_exporter(self, port: int = 0,
                       host: str = "127.0.0.1") -> "MetricsExporter":
        """Start the HTTP exporter serving ``/metrics``, ``/traces``,
        ``/events`` and ``/healthz`` for this service.

        One-shot per service: calling it again while an exporter runs,
        or after :meth:`close`, raises ``RuntimeError`` — the old
        silent-return behaviour could leak a second HTTP server.
        """
        if self._closed:
            raise RuntimeError(
                "service is closed: start_exporter() would serve "
                "metrics for a dead cluster"
            )
        if self.exporter is not None:
            raise RuntimeError(
                f"exporter already running on {self.exporter.url}; "
                f"close() it before starting another"
            )
        from repro.obs.exporter import MetricsExporter

        self.exporter = MetricsExporter(
            self.render_metrics, tracer=self.tracer,
            host=host, port=port, events_fn=self.events,
        )
        self.exporter.start()
        return self.exporter

    def start_health(self, rules: Optional[list] = None,
                     interval_s: float = 1.0, **rule_kwargs):
        """Start the SLO alert engine over the cluster's client-side
        metrics (see :meth:`PolicyServer.start_health
        <repro.serve.server.PolicyServer.start_health>` — same
        contract, cluster signal sources)."""
        from repro.obs.health import HealthMonitor, standard_rules

        if self.health is not None:
            raise RuntimeError("health monitor already running")
        if rules is None:
            rules = standard_rules(
                self._metrics,
                queue_depth_fn=self._dispatcher.queue_depth,
                shadow_report_fn=self.shadow_report,
                backend_report_fn=self.backend_report,
                **rule_kwargs,
            )
        self.health = HealthMonitor(
            rules, journal=self.journal, hub=self.hub,
            interval_s=interval_s, recorder=self.recorder,
        ).start()
        return self.health

    def start_online(
        self,
        ref: str,
        teacher: Any,
        sample_rate: float = 0.05,
        capacity: int = 4096,
        monitor: Optional[Any] = None,
        interval_s: Optional[float] = None,
        seed: Optional[int] = None,
        min_samples: int = 256,
        leaf_nodes: int = 200,
        hist_bins: int = 256,
        n_classes: Optional[int] = None,
        **controller_kwargs: Any,
    ):
        """Close the loop cluster-wide: drain sampled worker captures,
        refit against ``teacher``, auto-canary the refits (see
        :mod:`repro.serve.online` and
        :meth:`PolicyServer.start_online
        <repro.serve.server.PolicyServer.start_online>` — same
        contract).

        The cluster flavor wires two extra things: worker rings drain
        through :meth:`_drain_worker_captures` on every controller
        tick, and the controller's SLO gate reads
        :meth:`routed_service_estimate_ms` — the per-(shard, model)
        estimate, not the blended per-shard EWMA.
        """
        from repro.serve.online import (
            AutoCanaryController,
            Redistiller,
            TraceCapture,
        )

        if self._closed:
            raise RuntimeError(
                "service is closed: start_online() would capture for a "
                "dead cluster"
            )
        if self.online is not None:
            raise RuntimeError("online controller already running")
        self.capture = TraceCapture(
            capacity=capacity, sample_rate=sample_rate, seed=seed,
            hub=self.hub,
        )
        redistiller = Redistiller(
            self.capture, teacher, min_samples=min_samples,
            leaf_nodes=leaf_nodes, hist_bins=hist_bins,
            n_classes=n_classes,
            name=controller_kwargs.get("candidate") or f"{ref}-refit",
        )
        controller_kwargs.setdefault(
            "service_estimate_fn", self.routed_service_estimate_ms
        )
        self.online = AutoCanaryController(
            self, ref, redistiller,
            monitor=monitor if monitor is not None else self.health,
            journal=self.journal, hub=self.hub,
            drain_fn=self._drain_worker_captures, **controller_kwargs,
        )
        if interval_s is not None:
            self.online.start(interval_s)
        return self.online

    def batching_state(self) -> Dict[str, Any]:
        """Current front-end microbatching posture (adaptive-delay
        telemetry when the controller is wired in)."""
        return batching_state(self._dispatcher.delay,
                              self._dispatcher.max_delay_s)

    def scale_events(self) -> List[dict]:
        """Actuated autoscaling decisions so far (empty without an
        autoscaler) — what the cluster benchmark persists."""
        if self.autoscaler is None:
            return []
        return self.autoscaler.snapshot()["events"]

    def _autoscale_signals(
        self, want_p95: bool = False,
        p95_window_s: Optional[float] = None,
    ) -> Optional[dict]:
        """One load sample for the autoscaler (None once closed).

        ``p95_ms`` is computed only on request — the percentile sweep
        over the retention window is the one non-trivial cost here.
        ``p95_window_s`` restricts the sweep to recent samples so the
        SLO signal tracks current load, not the session's history.
        """
        if self._closed or self._dispatcher is None:
            return None
        delay = self._dispatcher.delay
        with self._pending_lock:
            inflight = sum(s.inflight for s in self._shards if s.alive)
        return {
            "live_shards": len(self._live_shards()),
            "fill": delay.fill if delay is not None else None,
            "queue_depth": self._dispatcher.queue_depth(),
            "inflight": inflight,
            "p95_ms": (self._metrics.p95_ms(window_s=p95_window_s)
                       if want_p95 else 0.0),
            "total_requests": self._metrics.total_requests(),
        }

    def worker_endpoints(self) -> Dict[int, Tuple[str, int]]:
        """``(host, port)`` of every live socket worker's server.

        Empty for pipe fleets (pipes have no out-of-band address).
        An :class:`~repro.serve.aio.AsyncWorkerClient` can connect to
        these endpoints directly, alongside the parent's own
        connection.
        """
        return {
            shard.shard_id: shard.transport.peer
            for shard in self._shards
            if shard.alive and hasattr(shard.transport, "peer")
        }

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Drain, stop the shards, release the shared segments.

        Ordering matters: the autoscaler stops first (no scaling races
        teardown), the front-end batcher drains (every accepted request
        is dispatched), pending replies are awaited, in-flight repairs
        are joined (a half-provisioned replacement must not leak), then
        shards stop — so zero futures drop.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        if self.online is not None:
            try:
                self.online.close()
            except Exception:  # noqa: BLE001 - teardown best effort
                pass
            self.online = None
        if self.health is not None:
            try:
                self.health.close()
            except Exception:  # noqa: BLE001 - teardown best effort
                pass
            self.health = None
        if self.exporter is not None:
            try:
                self.exporter.close()
            except Exception:  # noqa: BLE001 - teardown best effort
                pass
        if self.autoscaler is not None:
            self.autoscaler.stop()
        if self._dispatcher is not None:
            self._dispatcher.close()
        deadline = time.monotonic() + _RPC_TIMEOUT_S
        with self._pending_lock:
            while self._pending and time.monotonic() < deadline:
                self._pending_empty.wait(timeout=0.25)
        with self._repairs_lock:
            repairs = list(self._repairs)
        for repair in repairs:
            repair.join(timeout=10.0)
        for shard in self._shards:
            if shard.alive:
                try:
                    self._rpc(shard, "stop", None, timeout_s=10.0)
                except RuntimeError:
                    pass
        for shard in self._shards:
            shard.close_transport()
            if shard.reader is not None:
                shard.reader.join(timeout=10.0)
            shard.process.join(timeout=10.0)
            if shard.process.is_alive():
                shard.process.terminate()
                shard.process.join(timeout=5.0)
            shard.alive = False
        for shm in self._segments.values():
            try:
                shm.close()
                shm.unlink()
            except Exception:  # noqa: BLE001 - teardown best effort
                pass
        self._segments.clear()
        # Host-cache segments are service-owned, like the anonymous
        # ones above — release whatever retire has not already.
        for key in list(self._cache_refs):
            self._release_cache_segment(key)

    def __enter__(self) -> "ShardedPolicyService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
