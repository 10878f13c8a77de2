"""Sharded multi-process policy serving — the elastic cluster tier.

:class:`ShardedPolicyService` is a :class:`~repro.serve.server.PolicyServer`
whose flushes go to shards.  N worker processes each hold a full
registry replica (model arrays shared zero-copy through
:mod:`repro.serve.cluster.shm`); the inherited front end gathers
single-state requests exactly like the single-process server, and its
batcher, :class:`_ClusterDispatcher`, ships whole flush groups to
shards as stacked arrays — one wire frame per group, never per request.
The control plane is ``PolicyServer``'s: registry mirror, split table,
journal, metrics hub, tracer, flight recorder, exporter, health monitor,
online loop and lifecycle.  What the cluster adds is the shard pool,
and one hook, :meth:`ShardedPolicyService._replicate`, that carries
every control change into it.

The pool is *elastic*:

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

Messages travel as versioned wire frames
(:mod:`repro.serve.cluster.wire`) over each worker's duplex pipe
(:class:`~repro.serve.cluster.transport.PipeTransport`).

What the parent keeps:

* the **mirror registry and split table** — publishes validate and
  version here first, so version numbers are authoritative and
  `retire`'s refusal paths run before anything is broadcast; the
  split table never routes (the dispatcher only ships rows), it backs
  the retire guard and :meth:`replica_states`;
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

import dataclasses
import functools
import itertools
import multiprocessing as mp
import pickle
import threading
import time
from concurrent.futures import Future
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.obs.metrics import render_text, with_labels
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
    segment_footprint,
    share_artifact,
)
from repro.serve.cluster.transport import PipeTransport, spawn_pipe_worker
from repro.serve.cluster.wire import (
    Request as WireRequest,
    WireError,
    decode_frame,
    encode_request,
)
from repro.serve.cluster.worker import ERR_SHARD
from repro.serve.registry import ModelRegistry, control_state_digest
from repro.serve.server import PolicyServer, ServeError
from repro.serve.splitter import TrafficSplitter, split_state
from repro.utils.rng import SeedLike

_RPC_TIMEOUT_S = 60.0

#: EWMA weight for folding each worker-reported batch service time into
#: its shard's estimate (what the least-loaded router scores by).
_SERVICE_EWMA_ALPHA = 0.3


def _release(shm) -> None:
    """Close and unlink one parent-owned segment, best effort."""
    try:
        shm.close()
        shm.unlink()
    except Exception:  # noqa: BLE001 - release best effort
        pass


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
                 transport: PipeTransport) -> None:
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
        """Encode and ship one request frame (sends serialized — the
        dispatcher, control RPCs and repairs all write to one pipe).
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
    but since this flush makes blocking pipe writes, the loop
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


class ShardedPolicyService(PolicyServer):
    """Elastic multi-process serving front door: a
    :class:`~repro.serve.server.PolicyServer` whose flushes go to shards.

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
        trace_sample: fraction of front-end requests to trace across
            the whole pipeline (queue-wait / batch-assembly / wire /
            worker-service / kernel spans); 0 disables tracing.
        exporter_port: when not None, start the observability HTTP
            exporter (``/metrics``, ``/traces``, ``/healthz``) on this
            port at construction (0 = ephemeral).  ``/metrics`` merges
            the parent hub with every live worker's hub snapshot under
            per-shard labels.
        postmortem_dir: black-box bundle directory, as on
            :class:`~repro.serve.server.PolicyServer`.

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
        adaptive_delay: bool = False,
        routing: Union[str, Router] = "least_loaded",
        self_heal: bool = False,
        autoscale: Optional[AutoscaleConfig] = None,
        split_seed: SeedLike = None,
        start_method: Optional[str] = None,
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
        # Validate the batcher knobs *before* anything spawns; the
        # dispatcher would reject them anyway, but only after worker
        # processes exist.
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_delay_s < 0:
            raise ValueError("max_delay_s must be non-negative")
        self.n_shards = n_shards
        self.self_heal = bool(self_heal)
        #: Per-op, per-shard high-water marks of drained worker journal
        #: events and capture entries (see :meth:`_drain_workers`).
        self._drained: Dict[str, Dict[int, int]] = {
            "events_since": {}, "capture_drain": {},
        }
        self._drain_lock = threading.Lock()
        #: (name, version) -> SharedMemory the parent owns; released on
        #: retire (workers unmapped theirs) or at close.  Kept alive for
        #: the version's whole life — replacement replicas re-attach
        #: these segments during log replay.
        self._segments: Dict[Tuple[str, int], Any] = {}
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
        self._shards: List[_Shard] = []
        self._shards_by_id: Dict[int, _Shard] = {}
        self.autoscaler: Optional[Autoscaler] = None
        # Any failure after the first process spawns must tear down
        # what already started — the constructor raised, so the caller
        # never gets an object to close(), and half-started workers,
        # readers, and the dispatcher would leak for the process
        # lifetime.
        try:
            # The parent split table never routes (the dispatcher only
            # ships rows), so it takes no seed; the shards' do.
            super().__init__(
                registry=registry,
                max_batch=max_batch,
                max_delay_s=max_delay_s,
                adaptive_delay=adaptive_delay,
                trace_sample=trace_sample,
                exporter_port=exporter_port,
                postmortem_dir=postmortem_dir,
            )
            if autoscale is not None:
                self.autoscaler = Autoscaler(
                    self, autoscale, journal=self.journal
                ).start()
            self._register_cluster_collectors()
        except BaseException:
            self.close()
            raise

    def _start_batcher(self, max_batch: int,
                       max_delay_s: float) -> MicroBatcher:
        """Spawn the shards, then start the dispatcher that ships
        flushes to them (the batcher hook of
        :class:`~repro.serve.server.PolicyServer`).

        The initial workers fork *before* any parent thread starts, so
        these children never inherit a half-held lock.  (Elastic spawns
        later fork while parent threads run; the worker entry point
        touches none of the parent's locks, and segment registration is
        serialized under the control lock, which add_shard holds across
        the fork.)
        """
        self._m_routed = self.hub.counter(
            "repro_router_decisions_total",
            "Flush groups dispatched, per target shard",
        )
        for shard_id in range(self.n_shards):
            self._shards.append(self._spawn_worker(shard_id))
        for shard in self._shards:
            self._start_reader(shard)
        self._shards_by_id = {s.shard_id: s for s in self._shards}
        # Fail fast if a worker died on startup (bad import, OOM).
        for shard in self._shards:
            reply = self._rpc(shard, "ping", None, timeout_s=30.0)
            if reply != ("pong", shard.shard_id):
                raise RuntimeError(
                    f"shard {shard.shard_id} failed its startup ping"
                )
        return _ClusterDispatcher(
            self,
            max_batch=max_batch,
            max_delay_s=max_delay_s,
            delay=self.delay,
            tracer=self.tracer,
            hub=self.hub,
        ).start()

    # -- worker lifecycle --------------------------------------------------
    def _next_child_seed(self) -> Optional[int]:
        if self._seed_seq is None:
            return None
        child = self._seed_seq.spawn(1)[0]
        return int(child.generate_state(1)[0])

    def _spawn_worker(self, shard_id: int) -> _Shard:
        process, transport = spawn_pipe_worker(
            self._ctx, shard_id, self._next_child_seed()
        )
        self.journal.emit("shard_spawn",
                          labels={"shard": str(shard_id)})
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
        # The pipe is FIFO: the worker answers everything queued
        # before the stop, then exits; its EOF runs the _on_shard_death
        # sweep, which fails any straggler that raced the draining flag
        # (zero stranded futures).
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
                _, name, payload, version = entry
                worker_version = self._rpc(shard, "publish",
                                           (name, payload))
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
            return self._kernels.publish(
                name, artifact,
                lambda: self._publish_locked(name, artifact, alias),
            )

    def _publish_locked(
        self,
        name: str,
        artifact: PolicyArtifact,
        alias: Optional[str],
    ) -> int:
        """Mirror, share and broadcast one publish (the caller holds the
        control lock).

        Compiles nothing: the handle carries ``meta["kernel"]`` as the
        tier's publish left it — ``ready`` when the kernel was already
        cached (or forced ``native`` mode compiled it inline), so each
        shard dlopens the cached ``.so`` as it loads the version, or
        ``compiling``, so the shards serve through numpy until the
        compile thread's ``kernel`` op (:meth:`_kernel_settled`).
        """
        # Build the shard payload *before* the parent mirror publishes:
        # a pickle or share_artifact failure (e.g. /dev/shm exhausted)
        # after the mirror write would leave a phantom parent version
        # that wedges every later publish of the model.
        shm = None
        if artifact.flat is None:
            # Pickle fallback: serialize *once* — an unpicklable
            # artifact must fail cleanly here (not desync replicas
            # mid-broadcast), and the resulting bytes ship to every
            # shard without re-pickling multi-MB teacher weights per
            # shard.
            try:
                payload: Any = pickle.dumps(artifact)
            except Exception as exc:  # noqa: BLE001 - any pickle error
                raise TypeError(
                    f"artifact {artifact.name!r} (kind "
                    f"{artifact.kind!r}) cannot be shipped to shards: "
                    f"it has no flat arrays for shared memory and does "
                    f"not pickle ({exc})"
                ) from exc
        else:
            payload, shm = share_artifact(artifact)
        try:
            version = self.registry.publish(name, artifact)
        except Exception:
            if shm is not None:
                _release(shm)
            raise
        if shm is not None:
            self._segments[(name, version)] = shm
        applied: List[_Shard] = []
        try:
            for shard in self._shards:
                # A draining shard is leaving the fleet (scale-down
                # waits outside the control lock): it serves what it
                # already holds and must not make a racing publish
                # fail-and-roll-back when its stop lands first.
                if not shard.alive or shard.draining:
                    continue
                worker_version = self._rpc(
                    shard, "publish", (name, payload)
                )
                applied.append(shard)
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
                _release(shm)
            # The registry hook already journaled the rollback; the
            # black box keeps the evidence (which shards applied, the
            # metrics page at failure time).
            self.recorder.capture(
                f"publish_rollback_{name}",
                extra={"model": name, "version": version,
                       "applied_shards": [s.shard_id for s in applied]},
            )
            raise
        self._control_log.append(["publish", name, payload, version])
        if alias is not None:
            self._alias_locked(alias, name, None)
        return version

    def _kernel_settled(self, name: str, version: int,
                        artifact: PolicyArtifact) -> None:
        """Tell every live shard that ``name@version``'s kernel has
        settled (called on the compile thread).

        Sent with the tolerant broadcast — a shard that misses it
        serves correct answers through numpy — and only while the
        version still serves this artifact, so a version retired or
        rolled back mid-compile gets no ``kernel`` op.  It needs no
        control-log entry of its own: the logged publish handle takes
        the settled ``meta["kernel"]``, and a replica replaying it
        dlopens the cached ``.so`` as it loads the version.
        """
        kernel = dict(artifact.meta.get("kernel") or {})
        with self._control_lock:
            if self._closed or not self._kernels.serves(
                    name, version, artifact):
                return
            for entry in self._control_log:
                if entry[:2] == ["publish", name] and entry[3] == version:
                    handle = entry[2]
                    entry[2] = dataclasses.replace(
                        handle, meta=dict(handle.meta, kernel=kernel))
                    break
            self._broadcast_tolerant("kernel", (name, version, kernel))

    def _replicate(self, op: str, payload: Any) -> None:
        """Log one mirror change for replay and apply it on every live
        shard (the caller holds the control lock).

        The log changes with the mirror, *before* the broadcast: its
        invariant is "replaying it reproduces the parent mirror", so
        even when the broadcast fails outright (every shard evicted) a
        repaired replica replays to the mirror's state.  Alias and
        split entries compact to their final binding (a fresh replica
        doesn't need the intermediate history).  A retire tombstones
        its publish entry in place, so replay keeps version numbering
        identical; a rolled-back publish leaves the log, because its
        slot is freed for reuse.  Each shard applies the change at its
        next flush, so cross-shard skew is bounded by one in-flight
        batch.
        """
        log = self._control_log
        if op == "alias":
            log[:] = [entry for entry in log
                      if not (entry[0] == "alias"
                              and entry[1][0] == payload[0])]
            log.append([op, payload])
        elif op in ("set_split", "clear_split"):
            ref = payload[0] if op == "set_split" else payload
            log[:] = [entry for entry in log
                      if not (entry[0] == "set_split"
                              and entry[1][0] == ref)]
            if op == "set_split":
                log.append([op, payload])
        else:  # retire / rollback_publish of (name, version)
            name, version = payload
            for entry in log:
                if (entry[0] == "publish" and entry[1] == name
                        and entry[3] == version):
                    if op == "retire":
                        entry[:] = ["publish_tombstone", name, version]
                    else:
                        log.remove(entry)
                    break
        self._broadcast_or_evict(op, payload)
        if op in ("retire", "rollback_publish"):
            # Workers have unmapped the version; drop the parent's
            # segment (under the lock — metrics readers snapshot this
            # dict) so memory tracks the live set, not the publish
            # history.
            shm = self._segments.pop(payload, None)
            if shm is not None:
                _release(shm)

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
            parent["splits"] = split_state(self.splitter.splits())
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
        if self._batcher.closed:
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
        return self._router.select(live, ref)

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
    def cluster_metrics(self) -> Dict[str, Any]:
        """Full cluster view: end-to-end, per-shard, and aggregate.

        ``cluster`` carries the client-observed percentiles (the number
        that matters for SLOs); ``shards`` the per-worker service-time
        snapshots; ``aggregate`` sums shard counters and throughput —
        aggregate throughput is the scaling headline.  ``routing``
        exposes the router plus each shard's load signals (in-flight
        groups, EWMA service time), ``shm`` the resident artifact
        memory, ``transport`` the per-shard wire byte counters, and
        ``autoscale`` the autoscaler's event history when
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
        transport_view = {
            "per_shard": {
                str(shard.shard_id): {
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

    def _drain_workers(self, op: str) -> None:
        """Pull every worker's new journal events (``op`` =
        ``"events_since"``) or capture entries (``"capture_drain"``)
        into the parent journal or :attr:`capture` ring.

        Incremental: the parent remembers the last drained seq per
        shard and asks for the delta only; entries are re-sequenced
        into the parent sink under a ``shard`` label.  Read-only and
        shard-death-tolerant (same posture as ``render_metrics``),
        serialized so two concurrent drains cannot double-ingest one
        delta.  A capture drain also carries the parent ring's current
        sample rate, so the whole fleet's capture turns on (and off)
        from one knob.
        """
        sink = self.journal if op == "events_since" else self.capture
        if self._closed or sink is None:
            return
        marks = self._drained[op]
        with self._drain_lock:
            for shard in list(self._shards):
                if not shard.alive:
                    continue
                last = marks.get(shard.shard_id, 0)
                request = last if op == "events_since" else {
                    "since": last, "sample_rate": sink.sample_rate,
                }
                try:
                    entries = self._rpc(shard, op, request)
                except RuntimeError:
                    continue  # dying shard: the survivors still drain
                if not entries:
                    continue
                marks[shard.shard_id] = max(
                    int(e.get("seq", last)) for e in entries
                )
                sink.ingest(entries, {"shard": str(shard.shard_id)})

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
        self._drain_workers("events_since")
        return super().events(since)

    def _blackbox_state(self) -> Dict[str, Any]:
        """Tier state for postmortem bundles.

        Deliberately lock-free (list/dict reads are atomic snapshots):
        capture runs on reader threads and inside control operations,
        so taking the control lock here could deadlock the very
        failure path being recorded.
        """
        return {
            "tier": "ShardedPolicyService",
            "routing": self.routing,
            "shards": [
                {"shard": s.shard_id, "alive": s.alive,
                 "draining": s.draining, "inflight": s.inflight}
                for s in list(self._shards)
            ],
            "splits": split_state(self.splitter.splits()),
            "control_log_len": len(self._control_log),
            "registry": self.registry.fingerprint(),
        }

    def start_online(self, ref: str, teacher: Any, **kwargs: Any):
        """Close the loop cluster-wide (same contract as
        :meth:`PolicyServer.start_online
        <repro.serve.server.PolicyServer.start_online>`).

        Two things differ: the workers sample, and their rings drain
        into :attr:`capture` on every controller tick; and the
        controller's SLO gate reads :meth:`routed_service_estimate_ms`
        — the per-(shard, model) estimate, not the blended per-shard
        EWMA.
        """
        kwargs.setdefault("service_estimate_fn",
                          self.routed_service_estimate_ms)
        return super().start_online(
            ref, teacher,
            drain_fn=functools.partial(self._drain_workers,
                                       "capture_drain"),
            **kwargs,
        )

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
        if self._closed or self._batcher is None:
            return None
        delay = self.delay
        with self._pending_lock:
            inflight = sum(s.inflight for s in self._shards if s.alive)
        return {
            "live_shards": len(self._live_shards()),
            "fill": delay.fill if delay is not None else None,
            "queue_depth": self._batcher.queue_depth(),
            "inflight": inflight,
            "p95_ms": (self._metrics.p95_ms(window_s=p95_window_s)
                       if want_p95 else 0.0),
            "total_requests": self._metrics.total_requests(),
        }

    # -- lifecycle ---------------------------------------------------------
    def _stop_batcher(self) -> None:
        """Drain the dispatcher, stop the shards, release the shared
        segments (the batcher hook :meth:`close` runs).

        Ordering matters: the autoscaler stops first (no scaling races
        teardown), the front-end batcher drains (every accepted request
        is dispatched), pending replies are awaited, in-flight repairs
        are joined (a half-provisioned replacement must not leak), then
        shards stop — so zero futures drop.
        """
        if self.autoscaler is not None:
            self.autoscaler.stop()
        if self._batcher is not None:
            self._batcher.close()
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
            _release(shm)
        self._segments.clear()
