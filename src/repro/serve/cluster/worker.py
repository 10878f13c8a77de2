"""Shard worker: a registry replica serving pre-batched predict calls.

Each worker process owns a full serving replica — its own
:class:`ModelRegistry`, :class:`ServerMetrics`, and
:class:`TrafficSplitter` — kept in lockstep by the parent broadcasting
every control operation (publish / alias / retire / split) to all
shards in order.  Model arrays arrive through shared memory
(:mod:`repro.serve.cluster.shm`), so N shards share one physical copy
of every tree.

The data path is :func:`serve_stacked`: the parent ships an already
stacked ``(n, d)`` float batch per message, and the worker answers with
compact arrays — per-group ``(name, version, row indices, actions)``
plus structured per-row errors — rather than per-request objects.  That
keeps the per-request Python cost on the worker near zero, which is the
whole reason the cluster tier exists.

The protocol lives in :mod:`repro.serve.cluster.wire` (versioned,
length-prefixed frames with typed :class:`Request`/:class:`Reply`
messages) and the byte channel in :mod:`repro.serve.cluster.transport`:
:class:`WorkerCore` holds the replica state and turns one request frame
into one reply frame, and :func:`~repro.serve.cluster.transport.serve_pipe`
drives it over the worker's pipe to its parent.

Ops (see :data:`repro.serve.cluster.wire.OPS`): ``publish``,
``publish_tombstone``, ``rollback_publish``, ``alias``, ``retire``,
``predict``, ``set_split``, ``clear_split``, ``metrics``,
``shadow_report``, ``describe``, ``ping``, ``stop``,
``backend_report`` (native-kernel vs numpy serving counters per model),
``metrics_snapshot`` (the worker hub's labeled series, pulled by the
parent's ``/metrics`` scrape and re-labeled per shard), ``kernel`` (the
parent's compile thread settled a version's native kernel: dlopen it
from the cache — workers never compile),
``events_since`` (incremental drain of the worker's event journal,
merged into the parent's under a ``shard`` label), ``capture_drain``
(incremental drain of the worker's sampled trace-capture ring — same
high-water-mark discipline as ``events_since`` — that also pushes the
parent's live sample rate down to the shard)
(``publish_tombstone`` and ``describe`` exist for the elastic tier:
replaying retired version slots into a replacement replica, and
fingerprinting a replica's full control state for lockstep
verification).  Artifacts arrive two ways: a
:class:`ShmArtifactHandle` (the worker attaches the parent's segment
zero-copy) or the pickled artifact bytes (teachers and other non-tree
artifacts).

The worker never lets an exception escape the loop: a failing op
answers ``ok=False`` with the error text, and only ``stop`` or a closed
channel ends the process.
"""

from __future__ import annotations

import pickle
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.tree import native
from repro.serve.batcher import (
    ERR_BAD_OUTPUT,
    ERR_BAD_SHAPE,
    ERR_NON_FINITE,
    ERR_PREDICT,
    ERR_UNKNOWN_MODEL,
)
from repro.serve.cluster.shm import ShmArtifactHandle, load_shared_artifact
from repro.serve.cluster.transport import serve_pipe
from repro.serve.cluster.wire import (
    Reply,
    Request,
    decode_frame,
    encode_reply,
)
from repro.serve.registry import (
    ModelRegistry,
    control_state_digest,
    registry_backend_report,
)
from repro.obs.events import EventJournal
from repro.obs.metrics import MetricsHub
from repro.serve.online import TraceCapture
from repro.serve.server import ServerMetrics, register_serving_collectors
from repro.serve.splitter import TrafficSplitter, mirror_shadow, split_state

#: Error kind when a whole shard died under a request (parent-side).
ERR_SHARD = "shard_error"


def serve_stacked(
    registry: ModelRegistry,
    splitter: TrafficSplitter,
    metrics: ServerMetrics,
    ref: str,
    x: np.ndarray,
    shadow_sink: Optional[list] = None,
) -> Dict[str, Any]:
    """Serve one stacked batch under ``ref`` with full split semantics.

    Returns ``{"groups": [(name, version, idx, actions), ...],
    "errors": [(i, model, version, kind, detail), ...],
    "service_s": float, "kernel_s": float}`` where ``idx`` indexes rows
    of ``x`` and ``service_s`` is this batch's pure service time — the
    parent folds it into the shard's EWMA, which is what the load-aware
    router scores by.  ``kernel_s`` is the summed time inside
    ``predict_batch`` calls (the native/numpy kernel itself), letting a
    sampled trace split worker time into dispatch overhead vs compute.  Mirrors the MicroBatcher's per-request
    guarantees vectorized: canary rows route to the canary reference,
    non-finite rows fail alone, a raising ``predict_batch`` fails only
    its group, and shadow answers — mirrored from the primary-served
    rows only — are recorded but never returned.

    With ``shadow_sink`` provided, shadow mirroring is *deferred*: the
    thunks are appended for the caller to run after the reply has been
    sent, so a slow shadow model never adds latency to the primary
    requests it mirrors (zero blast radius in time, not just in
    correctness).  Without a sink, mirroring runs inline.
    """
    n = x.shape[0]
    start = time.perf_counter()
    all_idx = np.arange(n, dtype=np.intp)
    plan = splitter.assign(ref, n) if splitter.active else None
    if plan is not None and plan.split.canary is not None:
        mask = plan.canary_mask
        assignments = [
            (ref, all_idx[~mask]),
            (plan.split.canary, all_idx[mask]),
        ]
    else:
        assignments = [(ref, all_idx)]
    shadow_ref = plan.shadow if plan is not None else None

    refs = [target for target, idx in assignments if idx.size]
    if shadow_ref is not None:
        refs.append(shadow_ref)
    resolutions = registry.resolve_many(set(refs))

    groups: List[Tuple[str, int, np.ndarray, np.ndarray]] = []
    errors: List[Tuple[int, str, int, str, str]] = []
    served_idx: List[np.ndarray] = []
    served_actions: List[np.ndarray] = []
    kernel_s = 0.0
    for target, idx in assignments:
        if not idx.size:
            continue
        resolved = resolutions[target]
        if resolved is None:
            errors.extend(
                (int(i), target, 0, ERR_UNKNOWN_MODEL,
                 f"unknown model {target!r}")
                for i in idx
            )
            continue
        artifact = resolved.artifact
        name, version = resolved.name, resolved.version
        if x.shape[1] != artifact.n_features:
            detail = (
                f"expected a flat state of {artifact.n_features} "
                f"features, got shape ({x.shape[1]},)"
            )
            errors.extend(
                (int(i), name, version, ERR_BAD_SHAPE, detail)
                for i in idx
            )
            continue
        sub = x[idx]
        finite = np.isfinite(sub).all(axis=1)
        if not finite.all():
            for i in idx[~finite]:
                errors.append((
                    int(i), name, version, ERR_NON_FINITE,
                    "state contains NaN or infinite entries",
                ))
            idx = idx[finite]
            sub = sub[finite]
            if not idx.size:
                continue
        t_kernel = time.perf_counter()
        try:
            out = np.asarray(artifact.predict_batch(sub))
            kernel_s += time.perf_counter() - t_kernel
        except Exception as exc:  # noqa: BLE001 - boundary must survive
            kernel_s += time.perf_counter() - t_kernel
            detail = f"{type(exc).__name__}: {exc}"
            errors.extend(
                (int(i), name, version, ERR_PREDICT, detail) for i in idx
            )
            continue
        if out.shape[:1] != (idx.size,):
            detail = (
                f"predict_batch returned shape {out.shape} for "
                f"{idx.size} requests"
            )
            errors.extend(
                (int(i), name, version, ERR_BAD_OUTPUT, detail)
                for i in idx
            )
            continue
        groups.append((name, version, idx, out))
        if target == ref:
            # Only primary-served rows feed the shadow comparison —
            # canaried rows served by the candidate itself would
            # trivially agree and inflate the fidelity rate.
            served_idx.append(idx)
            served_actions.append(out)

    service_s = time.perf_counter() - start
    for name, version, idx, _out in groups:
        # Worker-side latency is pure service time; the parent records
        # the client-observed (queue + IPC) latency separately.
        metrics.record_group(name, version, [service_s] * int(idx.size))
    for _i, model, version, kind, _detail in errors:
        metrics.record(model, version, service_s, error=kind)

    if shadow_ref is not None and served_idx:
        resolved_shadow = resolutions.get(shadow_ref)
        for idx_group, out_group in zip(served_idx, served_actions):
            def thunk(rows=x[idx_group], served=out_group,
                      resolved=resolved_shadow, shadow=shadow_ref):
                mirror_shadow(splitter, resolved, ref, shadow, rows,
                              served)
            if shadow_sink is not None:
                shadow_sink.append(thunk)
            else:
                thunk()
    return {"groups": groups, "errors": errors, "service_s": service_s,
            "kernel_s": kernel_s}


def _attach_cached_kernel(artifact: Any, settled: bool) -> None:
    """Attach the kernel the parent compiled, from the cache; a worker
    never runs the compiler.

    ``meta["kernel"]`` is the parent's view.  While the parent still
    compiles (``compiling``, not ``settled``) a cache miss just keeps
    numpy serving until the ``kernel`` op.  Otherwise a miss is final:
    the tree is marked kernel-less, so forced ``native`` mode cannot
    compile lazily here and its numpy rows count as fallback.
    """
    if artifact.flat is None or artifact.compile_native(compile=False):
        return
    status = (artifact.meta.get("kernel") or {}).get("status")
    if status == "disabled" or (status == "compiling" and not settled):
        return
    artifact.flat.attach_kernel(None)
    if status != "unavailable":
        artifact.meta["kernel"] = {
            "status": "unavailable",
            "error": "no loadable kernel in the cache",
        }


class WorkerCore:
    """One shard's replica state plus the frame-in/frame-out dispatch.

    Channel-agnostic by construction: :meth:`handle_frame` decodes a
    wire :class:`Request`, applies it, and returns the encoded
    :class:`Reply` plus the deferred work the serve loop runs *after*
    the reply has been flushed (shadow mirroring — a slow shadow must
    never tax the primaries it mirrors) and the stop flag.
    """

    def __init__(self, shard_id: int,
                 split_seed: Optional[int] = None) -> None:
        self.shard_id = shard_id
        self.registry = ModelRegistry()
        #: This replica's own metrics hub.  The parent pulls it over
        #: the control channel (``metrics_snapshot`` op) and renders it
        #: under a ``shard`` label next to its own series.
        self.hub = MetricsHub()
        #: This replica's own event journal: registry transitions,
        #: split changes and kernel fallbacks are recorded locally and
        #: drained by the parent (``events_since`` op), which re-labels
        #: them with this shard's id.
        self.journal = EventJournal(hub=self.hub)
        self.metrics = ServerMetrics(hub=self.hub)
        self.splitter = TrafficSplitter(seed=split_seed)
        #: This replica's sampled (state, action) ring.  Dormant (rate
        #: 0.0, zero hot-path cost) until the parent's first
        #: ``capture_drain`` pushes a live sample rate down.
        self.capture = TraceCapture(
            capacity=2048, sample_rate=0.0, seed=split_seed, hub=self.hub
        )
        self.registry.journal = self.journal
        self.splitter.journal = self.journal
        native.add_event_hook(self.journal.emit)
        register_serving_collectors(self.hub, splitter=self.splitter)
        self._m_traced = self.hub.counter(
            "repro_worker_traced_requests_total",
            "Predict frames carrying a trace context",
        ).labels()
        #: (name, version) -> SharedMemory kept alive while that
        #: version serves; retire drops the mapping so workers don't
        #: accumulate every artifact ever published.
        self.segments: Dict[Tuple[str, int], Any] = {}

    def handle_frame(self, frame: bytes):
        """Apply one request frame; returns ``(reply_frame,
        after_send, stop)`` per the serve-loop contract."""
        request = decode_frame(frame)
        if not isinstance(request, Request):
            raise TypeError("worker received a reply frame")
        stop = request.op == "stop"
        deferred: list = []
        try:
            result = self.dispatch(request.op, request.payload, deferred,
                                   trace=request.trace)
            reply = encode_reply(Reply(request.msg_id, True, result))
        except Exception as exc:  # noqa: BLE001 - reply, don't die
            reply = encode_reply(Reply(
                request.msg_id, False, f"{type(exc).__name__}: {exc}"
            ))
        after_send = None
        if deferred:
            def after_send(thunks=deferred):
                for thunk in thunks:
                    thunk()
        return reply, after_send, stop

    def _load_artifact(self, packed):
        """Materialize a published artifact from its wire form.

        Returns ``(artifact, segment_or_None)`` — the segment is kept
        mapped for as long as the version serves (tree artifacts view
        it zero-copy; pickled ones are full copies and keep nothing
        mapped).
        """
        if isinstance(packed, ShmArtifactHandle):
            return load_shared_artifact(packed)
        if isinstance(packed, bytes):
            # Pickle fallback (teacher/function): the parent
            # serialized once and ships the same bytes to every shard.
            return pickle.loads(packed), None
        return packed, None

    def dispatch(self, op: str, payload, deferred: list,
                 trace: Any = None) -> Any:
        registry, metrics, splitter = \
            self.registry, self.metrics, self.splitter
        segments = self.segments
        if op == "predict":
            ref, x = payload
            result = serve_stacked(
                registry, splitter, metrics, ref, x, shadow_sink=deferred
            )
            if self.capture.sample_rate > 0.0:
                # Sample from the resolved groups, so canaried rows are
                # recorded under the model that actually served them.
                for name, version, idx, out in result["groups"]:
                    self.capture.submit_group(name, version, x[idx], out)
            if trace is not None:
                # Continue the sampled trace: count it and echo the
                # context so the parent can pair reply to trace even on
                # transports that reorder completions.  Durations (not
                # timestamps) cross the process boundary — the parent's
                # and worker's perf_counter clocks are unrelated.
                self._m_traced.inc()
                result["trace"] = trace
            return result
        if op == "publish":
            # Aliasing is a separate op broadcast only after every
            # shard accepted the publish, so rollback never has to
            # reconstruct a pre-existing alias target.
            name, packed = payload
            artifact, shm = self._load_artifact(packed)
            _attach_cached_kernel(artifact, settled=False)
            version = registry.publish(name, artifact)
            if shm is not None:
                segments[(name, version)] = shm
            return version
        if op == "kernel":
            # The parent's compile thread settled this version's
            # kernel: load it from the cache it compiled into.
            name, version, kernel = payload
            artifact = registry.resolve(f"{name}@{version}").artifact
            artifact.meta["kernel"] = dict(kernel)
            _attach_cached_kernel(artifact, settled=True)
            return artifact.meta["kernel"].get("status")
        if op == "rollback_publish":
            name, version = payload
            registry.rollback_publish(name, version)
            shm = segments.pop((name, version), None)
            if shm is not None:
                try:
                    shm.close()
                except BufferError:
                    segments[(name, version)] = shm
            return None
        if op == "publish_tombstone":
            # Replay-only: a version retired before this replica was
            # born must still occupy its slot (version numbers never
            # shift).
            return registry.publish_tombstone(payload)
        if op == "alias":
            alias, target, version = payload
            registry.alias(alias, target, version)
            return None
        if op == "retire":
            name, version = payload
            registry.retire(name, version)
            # The tombstone dropped the registry's artifact reference
            # (the only holder of the shared-memory views), so the
            # mapping can be released now instead of at shutdown.
            shm = segments.pop((name, version), None)
            if shm is not None:
                try:
                    shm.close()
                except BufferError:
                    # A stray view still exports the buffer; keep the
                    # mapping alive rather than crash (shutdown closes
                    # it).
                    segments[(name, version)] = shm
            return None
        if op == "set_split":
            ref, canary, fraction, shadow = payload
            splitter.set_split(
                ref, canary=canary, canary_fraction=fraction,
                shadow=shadow,
            )
            return None
        if op == "clear_split":
            splitter.clear(payload)
            return None
        if op == "metrics":
            return metrics.snapshot()
        if op == "metrics_snapshot":
            return self.hub.snapshot()
        if op == "events_since":
            # Append-only journal drain: the parent polls with its
            # per-shard high-water seq and merges the reply under a
            # shard label.  Plain dicts ride the typed wire codec.
            return self.journal.events_since(int(payload or 0))
        if op == "capture_drain":
            # Trace-capture drain, same discipline as events_since: the
            # parent polls with its per-shard high-water seq.  The
            # payload also carries the fleet sample rate, so turning
            # capture on/off is one knob on the parent.
            payload = payload or {}
            rate = payload.get("sample_rate")
            if rate is not None:
                self.capture.sample_rate = float(rate)
            return self.capture.entries_since(int(payload.get("since", 0)))
        if op == "backend_report":
            return registry_backend_report(registry)
        if op == "shadow_report":
            return splitter.shadow_report()
        if op == "describe":
            # Full control-state fingerprint: registry versions
            # (content hashes / tombstones), alias table, and
            # routing-relevant split state, plus a compact digest of
            # all three (what a multi-host monitor compares without
            # shipping full states).  The parent compares these across
            # replicas — and against its own mirror — to prove
            # lockstep, in particular after a replacement replica
            # replayed the log.
            state = dict(registry.fingerprint())
            state["splits"] = split_state(splitter.splits())
            state["digest"] = control_state_digest(state)
            return state
        if op == "ping":
            return ("pong", self.shard_id)
        if op == "stop":
            return None
        raise ValueError(f"unknown op {op!r}")

    def close(self) -> None:
        for shm in self.segments.values():
            try:
                shm.close()
            except Exception:  # noqa: BLE001 - teardown best effort
                pass
        self.segments.clear()


def worker_main(conn, shard_id: int,
                split_seed: Optional[int] = None) -> None:
    """Entry point of one shard process; ``conn`` is its end of the
    duplex pipe to the parent."""
    core = WorkerCore(shard_id, split_seed=split_seed)
    try:
        serve_pipe(conn, core.handle_frame)
    finally:
        core.close()
