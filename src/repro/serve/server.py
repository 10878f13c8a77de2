"""The policy-serving front door: registry + microbatcher + metrics.

:class:`PolicyServer` is what §6.4's "same serving stack" looks like in
this repo: experiments publish any :class:`PolicyArtifact` (distilled
tree or DNN teacher) under a name, drive decision traffic through
``submit``/``submit_many``, and read per-model throughput and tail
latency back out of ``metrics()`` — the measured substrate for the
fig16/fig17 latency story, replacing modeled ``DeviceProfile`` constants
with observed percentiles.  The cluster tier
(:class:`~repro.serve.cluster.ShardedPolicyService`) is this server with
its flushes shipped to shard processes.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque
from concurrent.futures import Future
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.core.tree import native as _native
from repro.obs.events import EventJournal
from repro.obs.metrics import LogHistogram, MetricsHub, render_text
from repro.obs.postmortem import FlightRecorder
from repro.obs.trace import Tracer
from repro.serve.adaptive import AdaptiveDelay, batching_state
from repro.serve.artifact import PolicyArtifact
from repro.serve.batcher import MicroBatcher, ServeResult
from repro.serve.kernels import KernelCompiler
from repro.serve.registry import ModelRegistry
from repro.serve.splitter import (
    TrafficSplit,
    TrafficSplitter,
    check_split_targets,
    guard_retire_against_splits,
    split_state,
)
from repro.utils.rng import SeedLike


class ServeError(RuntimeError):
    """Raised by the synchronous ``predict`` path on a failed request."""


class _ModelStats:
    """Accumulators for one model (written only by flushes, which the
    batcher serializes)."""

    __slots__ = (
        "requests", "errors", "error_kinds", "hist", "batch_sizes",
        "versions", "busy_s", "last_ts", "recent", "recent_errors",
    )

    #: Size of the sliding window behind :meth:`ServerMetrics.p95_ms`.
    RECENT_WINDOW = 4096

    def __init__(self) -> None:
        self.requests = 0
        self.errors = 0
        self.error_kinds: Counter = Counter()
        #: Streaming log-bucketed histogram of success latencies —
        #: constant memory, never stops absorbing samples, so snapshot
        #: percentiles track the whole lifetime of a long-running
        #: server instead of freezing on its first N requests (the old
        #: capped-list behaviour).
        self.hist = LogHistogram()
        self.batch_sizes: Counter = Counter()
        self.versions: Counter = Counter()
        #: Union of request-in-flight intervals — the time the model was
        #: actually serving, which is what throughput divides by.
        self.busy_s = 0.0
        self.last_ts: Optional[float] = None
        #: True sliding window of the latest successes, as
        #: ``(clock_ts, latency_s)`` pairs.  The histogram
        #: estimates lifetime percentiles; SLO probes
        #: (:meth:`ServerMetrics.p95_ms`) need *exact* recent
        #: percentiles over a bounded window, so they keep their own
        #: ring.  Timestamps let the probe window by wall time as well
        #: as by count.
        self.recent: deque = deque(maxlen=self.RECENT_WINDOW)
        #: Sliding window of recent *error* timestamps — ``recent``
        #: holds only successes (rejection latencies must not deflate
        #: percentiles), so the windowed error-ratio probe keeps its
        #: own ring of when failures happened.
        self.recent_errors: deque = deque(maxlen=self.RECENT_WINDOW)


class ServerMetrics:
    """Per-model serving metrics: throughput, latency percentiles,
    batch-size histogram, error counts.

    Writes come from flushes, which the batcher serializes under its
    flush lock; ``snapshot`` may be called from any thread, so every
    touch happens under one lock (the per-record cost is a few
    dict/list operations).

    Snapshot percentiles come from a per-model streaming log-bucketed
    histogram (:class:`repro.obs.metrics.LogHistogram`): constant
    memory, unbounded sample count, so they never freeze the way the
    old capped retention list did.  :meth:`p95_ms` SLO probes stay
    *exact* over the bounded ``recent`` window.

    Args:
        hub: optional :class:`repro.obs.metrics.MetricsHub` to mirror
            requests/errors/latencies into (labeled Prometheus series);
            may also be attached later via :meth:`bind_hub`.
        clock: seconds source for completion stamps and the sliding
            windows (overridable so tests drive the busy-time union
            and windowed probes deterministically).  Latencies are
            measured by the caller on ``time.perf_counter``.
    """

    def __init__(self, hub: Any = None,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._models: Dict[str, _ModelStats] = {}
        self._h_requests = None
        self._h_errors = None
        self._h_latency = None
        if hub is not None:
            self.bind_hub(hub)

    def bind_hub(self, hub: Any) -> None:
        """Mirror every subsequent record into ``hub`` as labeled
        series (``repro_server_requests_total{model}``,
        ``repro_server_errors_total{model,kind}``,
        ``repro_server_latency_seconds{model}``)."""
        self._h_requests = hub.counter(
            "repro_server_requests_total",
            "Requests served (successes and errors), per model",
        )
        self._h_errors = hub.counter(
            "repro_server_errors_total",
            "Failed requests per model and error kind",
        )
        self._h_latency = hub.histogram(
            "repro_server_latency_seconds",
            "Server-side success latency (enqueue to completion)",
        )

    def _stats(self, model: str) -> _ModelStats:
        stats = self._models.get(model)
        if stats is None:
            stats = self._models[model] = _ModelStats()
        return stats

    @staticmethod
    def _add_busy(stats: _ModelStats, start: float, now: float) -> None:
        """Merge one service interval into the busy-time union.

        Records arrive in completion order (the batcher serializes its
        flushes), so clipping ``start`` to the previous completion merges
        overlapping intervals on the fly; idle gaps between bursts
        contribute nothing.  Throughput = requests / busy time therefore
        measures the server while it serves, not the workload's pauses.
        """
        if stats.last_ts is not None:
            start = max(start, stats.last_ts)
        stats.busy_s += max(now - start, 0.0)
        stats.last_ts = now

    def record(
        self,
        model: str,
        version: int,
        latency_s: float,
        error: Optional[str] = None,
    ) -> None:
        now = self._clock()
        start = now - latency_s  # when the request arrived
        with self._lock:
            stats = self._stats(model)
            stats.requests += 1
            self._add_busy(stats, start, now)
            if error is not None:
                # Rejection latencies stay out of the percentile pool:
                # they measure validation, not decisions, and a stream
                # of malformed requests must not deflate the reported
                # serving percentiles.
                stats.errors += 1
                stats.error_kinds[error] += 1
                stats.recent_errors.append(now)
            else:
                stats.versions[version] += 1
                stats.recent.append((now, latency_s))
                stats.hist.observe(latency_s)
        if self._h_requests is not None:
            self._h_requests.labels(model=model).inc()
            if error is not None:
                self._h_errors.labels(model=model, kind=error).inc()
            else:
                self._h_latency.labels(model=model).observe(latency_s)

    def record_group(
        self, model: str, version: int, latencies: List[float]
    ) -> None:
        """Record one flush group's successes (including its batch size)
        under a single lock acquisition — the batcher's hot path."""
        if not latencies:
            return
        now = self._clock()
        start = now - max(latencies)  # earliest enqueue in the group
        with self._lock:
            stats = self._stats(model)
            stats.requests += len(latencies)
            self._add_busy(stats, start, now)
            stats.versions[version] += len(latencies)
            stats.batch_sizes[len(latencies)] += 1
            stats.recent.extend((now, lat) for lat in latencies)
            stats.hist.observe_many(latencies)
        if self._h_requests is not None:
            self._h_requests.labels(model=model).inc(len(latencies))
            self._h_latency.labels(model=model).observe_many(latencies)

    def total_requests(self) -> int:
        """Total recorded requests across all models — a cheap
        monotonic counter (no percentile math) for liveness/idleness
        probes like the cluster autoscaler's idle-tick clock."""
        with self._lock:
            return sum(stats.requests for stats in self._models.values())

    def p95_ms(self, window_s: Optional[float] = None) -> float:
        """Worst per-model p95 latency over each model's sliding window
        of recent successes, in milliseconds (0.0 before any success
        is recorded).

        The SLO reading the autoscaler compares against ``slo_p95_ms``.
        It reads the dedicated recent-window ring, not the lifetime
        histogram, because an SLO probe needs *exact* percentiles over
        *recent* traffic: the histogram covers the whole lifetime (a
        morning's latency spike would haunt it all day) and its
        percentiles are bucket-interpolated estimates.

        ``window_s`` additionally restricts the sweep to samples
        recorded in the last that-many seconds (None keeps the full
        count-bounded ring).  A time window makes the SLO signal
        forget a cold-start spike once it actually ages out, instead
        of holding it until 4096 newer samples dilute it — but an
        *empty* window reads 0.0, so callers that must distinguish
        "recently bad" from "currently idle" still pair this with a
        liveness signal (the autoscaler's idle-tick clock).
        """
        cutoff = None
        if window_s is not None:
            cutoff = self._clock() - window_s
        with self._lock:
            samples = []
            for stats in self._models.values():
                if not stats.recent:
                    continue
                if cutoff is None:
                    samples.append([lat for _ts, lat in stats.recent])
                else:
                    recent = [lat for ts, lat in stats.recent
                              if ts >= cutoff]
                    if recent:
                        samples.append(recent)
        worst = 0.0
        for latencies in samples:
            worst = max(
                worst, float(np.percentile(np.asarray(latencies), 95))
            )
        return worst * 1e3

    def error_ratio(self, window_s: Optional[float] = None) -> float:
        """Errors / all requests over the recent sliding windows,
        across every model, in ``[0, 1]``.

        The burn-rate companion to :meth:`p95_ms`: alert rules read
        the ratio directly instead of re-deriving it from raw
        counters.  ``window_s`` restricts both rings to requests
        recorded in the last that-many seconds (None keeps the full
        count-bounded rings).  An *empty* window reads 0.0 — "no
        traffic" is not "failing"; a window that saw only errors reads
        1.0.
        """
        cutoff = None
        if window_s is not None:
            cutoff = self._clock() - window_s
        with self._lock:
            errors = successes = 0
            for stats in self._models.values():
                if cutoff is None:
                    errors += len(stats.recent_errors)
                    successes += len(stats.recent)
                else:
                    errors += sum(
                        1 for ts in stats.recent_errors if ts >= cutoff
                    )
                    successes += sum(
                        1 for ts, _lat in stats.recent if ts >= cutoff
                    )
        total = errors + successes
        return errors / total if total else 0.0

    def snapshot(self) -> Dict[str, dict]:
        """Point-in-time metrics per model (plain dicts, JSON-friendly).

        The lock is held only while *copying* the accumulators; the
        histogram quantile math runs after release, so a monitoring
        read never stalls the batcher's hot path (which would inflate
        the very tail it is measuring).
        """
        with self._lock:
            copied = [
                (
                    name, stats.requests, stats.errors,
                    dict(stats.error_kinds), stats.hist.copy(),
                    dict(stats.batch_sizes), dict(stats.versions),
                    stats.busy_s,
                )
                for name, stats in self._models.items()
            ]
        out: Dict[str, dict] = {}
        for (name, requests, errors, error_kinds, hist, batch_sizes,
             versions, busy_s) in copied:
            if hist.total:
                latency_ms = {
                    "mean": float(hist.sum / hist.total * 1e3),
                    "p50": hist.quantile(0.50) * 1e3,
                    "p95": hist.quantile(0.95) * 1e3,
                    "p99": hist.quantile(0.99) * 1e3,
                }
            else:
                latency_ms = {"mean": 0.0, "p50": 0.0, "p95": 0.0,
                              "p99": 0.0}
            out[name] = {
                "requests": requests,
                "errors": errors,
                "error_kinds": error_kinds,
                "throughput_rps": requests / busy_s if busy_s > 0 else 0.0,
                "latency_ms": latency_ms,
                "batch_sizes": {
                    int(k): int(v) for k, v in sorted(batch_sizes.items())
                },
                "versions": {
                    int(k): int(v) for k, v in sorted(versions.items())
                },
            }
        return out


def register_serving_collectors(
    hub: MetricsHub,
    batcher: Any = None,
    delay: Optional[AdaptiveDelay] = None,
    splitter: Optional[TrafficSplitter] = None,
) -> None:
    """Register pull-style gauges shared by both serving tiers.

    Collectors run at every hub render/snapshot and read the live
    objects: batcher queue depth, adaptive-delay posture, process-wide
    native-kernel counters, and splitter shadow agreement.  Monotonic
    native counters are *assigned* (not ``inc``-ed) because the
    upstream values in :func:`repro.core.tree.native.native_stats` are
    themselves cumulative.
    """
    g_queue = hub.gauge(
        "repro_batcher_queue_depth",
        "Requests accepted but not yet gathered into a flush",
    ).labels() if batcher is not None else None
    g_fill = hub.gauge(
        "repro_batcher_adaptive_fill",
        "Adaptive-delay EWMA flush-fill estimate in [0, 1]",
    ).labels() if delay is not None else None
    g_delay = hub.gauge(
        "repro_batcher_adaptive_delay_seconds",
        "Deadline the next gather will use",
    ).labels() if delay is not None else None
    c_native = hub.counter(
        "repro_native_events_total",
        "Process-wide native kernel compile/cache/serve counters",
    )
    g_shadow_rate = hub.gauge(
        "repro_shadow_agreement_ratio",
        "Shadow fidelity: agreements / mirrored requests, per split ref",
    ) if splitter is not None else None
    c_shadow = hub.counter(
        "repro_shadow_requests_total",
        "Requests mirrored to a shadow version, per split ref",
    ) if splitter is not None else None

    def collect() -> None:
        if g_queue is not None:
            g_queue.set(batcher.queue_depth())
        if delay is not None:
            g_fill.set(delay.fill)
            g_delay.set(delay.current())
        for event, value in _native.native_stats().items():
            if isinstance(value, (int, float)):
                c_native.labels(event=event).value = float(value)
        if splitter is not None:
            for ref, row in splitter.shadow_report().items():
                g_shadow_rate.labels(ref=ref).set(row["agreement_rate"])
                c_shadow.labels(ref=ref).value = float(row["requests"])

    hub.register_collector(collect)


def _close_quietly(part: Any) -> None:
    """Close one tier component, best effort: teardown must go on."""
    try:
        part.close()
    except Exception:  # noqa: BLE001 - teardown best effort
        pass


class PolicyServer:
    """Threaded serving front door with futures-based submission.

    This is the one control plane both serving tiers share: registry,
    split table, journal, metrics hub, tracer, flight recorder,
    exporter, health monitor and online loop live here, and every
    control operation is written once.  The cluster tier
    (:class:`~repro.serve.cluster.ShardedPolicyService`) is a subclass
    whose batcher ships flushes to shard processes; it overrides the
    two batcher hooks (:meth:`_start_batcher`, :meth:`_stop_batcher`)
    and the replication hook (:meth:`_replicate`).

    Args:
        registry: shared registry (a fresh one is created by default).
        max_batch / max_delay_s: microbatching knobs (see
            :class:`~repro.serve.batcher.MicroBatcher`).
        adaptive_delay: replace the fixed flush deadline with a
            load-aware :class:`AdaptiveDelay` controller capped at
            ``max_delay_s``.
        split_seed: RNG seed for the server's traffic splitter (canary
            assignment); None draws fresh entropy.
        trace_sample: fraction of requests to trace (0 disables
            tracing; traced requests decompose into per-stage spans,
            see :mod:`repro.obs.trace`).
        exporter_port: when not None, start the observability HTTP
            exporter (``/metrics``, ``/traces``, ``/events``,
            ``/healthz``) on this port at construction (0 = ephemeral;
            read it back from ``server.exporter.port``).
        postmortem_dir: directory for black-box incident bundles
            (``None`` honours ``$REPRO_POSTMORTEM_DIR``; unset means
            capture is disabled — see
            :class:`repro.obs.postmortem.FlightRecorder`).

    Usage::

        with PolicyServer() as server:
            server.publish("abr", PolicyArtifact.from_tree(tree))
            result = server.submit("abr", state).result()
            stats = server.metrics()["abr"]
    """

    def __init__(
        self,
        registry: Optional[ModelRegistry] = None,
        max_batch: int = 64,
        max_delay_s: float = 2e-3,
        adaptive_delay: bool = False,
        split_seed: SeedLike = None,
        trace_sample: float = 0.0,
        exporter_port: Optional[int] = None,
        postmortem_dir: Optional[str] = None,
    ) -> None:
        # Lifecycle state first: close() must work on a tier whose
        # construction failed part-way.
        self.health = None
        self.online = None
        self.exporter = None
        #: The online loop's sampled (state, action) ring (None until
        #: :meth:`start_online`).
        self.capture = None
        self._batcher: Optional[MicroBatcher] = None
        self._kernels: Optional[KernelCompiler] = None
        self._event_hook = None
        self._closed = False
        self._close_lock = threading.Lock()
        try:
            self.registry = (registry if registry is not None
                             else ModelRegistry())
            self.hub = MetricsHub()
            self.tracer = Tracer(sample_rate=trace_sample)
            #: Structured flight log (see :mod:`repro.obs.events`):
            #: every publish/alias/split/fallback transition lands here,
            #: readable via :meth:`events` and the exporter's
            #: ``/events`` endpoint.
            self.journal = EventJournal(hub=self.hub)
            self._metrics = ServerMetrics(hub=self.hub)
            self.splitter = TrafficSplitter(seed=split_seed)
            # Control-plane emitters write through this server's
            # journal.  (A registry shared across servers journals into
            # whichever server attached last — acceptable: the journal
            # is a diagnostic stream, not a consistency surface.)
            self.registry.journal = self.journal
            self.splitter.journal = self.journal
            # Kernel fallbacks reach the newest live tier's journal;
            # close() hands them back to the tier installed before.
            self._event_hook = self.journal.emit
            _native.add_event_hook(self._event_hook)
            #: The one place this tier compiles published trees'
            #: kernels, off the publish path (see
            #: :mod:`repro.serve.kernels`).
            self._kernels = KernelCompiler(
                self.registry, self.journal,
                on_settled=self._kernel_settled,
            )
            # Serializes control-plane mutation (alias / retire /
            # splits, and on the cluster publish and scaling) and its
            # replication: the retire guard is check-then-act over the
            # split table, and interleaved broadcasts would diverge the
            # cluster's replicas.
            self._control_lock = threading.Lock()
            self.delay = (
                AdaptiveDelay(max_delay_s=max_delay_s) if adaptive_delay
                else None
            )
            #: Black-box capture (disabled unless a directory is
            #: configured); the health monitor triggers it on
            #: page-severity alerts.
            self.recorder = FlightRecorder(
                directory=postmortem_dir,
                journal=self.journal,
                metrics_fn=self.render_metrics,
                tracer=self.tracer,
                state_fn=self._blackbox_state,
            )
            self._batcher = self._start_batcher(max_batch, max_delay_s)
            register_serving_collectors(
                self.hub, batcher=self._batcher, delay=self.delay,
                splitter=self.splitter,
            )
            if exporter_port is not None:
                self.start_exporter(port=exporter_port)
        except BaseException:
            # The caller never gets an object to close(): stop what
            # already started (the batcher thread) before raising.
            self.close()
            raise

    def _start_batcher(self, max_batch: int,
                       max_delay_s: float) -> MicroBatcher:
        """Build and start the batcher that flushes this tier's
        requests (in process: predict locally)."""
        return MicroBatcher(
            self.registry,
            metrics=self._metrics,
            max_batch=max_batch,
            max_delay_s=max_delay_s,
            delay=self.delay,
            splitter=self.splitter,
            tracer=self.tracer,
            hub=self.hub,
        ).start()

    def _stop_batcher(self) -> None:
        """Drain the batcher: every accepted request completes."""
        if self._batcher is not None:
            self._batcher.close()

    # -- control plane ---------------------------------------------------
    def _replicate(self, op: str, payload: Any) -> None:
        """Carry one applied control change past this process.

        Called under the control lock, after the registry and split
        table changed, with the op and payload a shard worker applies
        (see :data:`repro.serve.cluster.wire.OPS`).  In process there
        is nothing to carry; the cluster logs the change for replay and
        broadcasts it to every shard.
        """

    def _kernel_settled(self, name: str, version: int,
                        artifact: PolicyArtifact) -> None:
        """Called on the compile thread once ``name@version``'s kernel
        is attached or known unavailable.  In process the batcher
        already serves the artifact this thread attached it to; the
        cluster tells its shards to load the kernel."""

    def publish(
        self,
        name: str,
        artifact: PolicyArtifact,
        alias: Optional[str] = None,
    ) -> int:
        """Publish a new version (and optionally alias it); hot-swaps
        live traffic at the next batch flush.

        The version serves at once.  A tree whose native kernel is not
        in the cache serves through numpy until this tier's compile
        thread attaches the kernel (:meth:`wait_kernels` waits for
        that); under ``REPRO_TREE_BACKEND=native`` publish compiles it
        inline instead.
        """
        version = self._kernels.publish(
            name, artifact, lambda: self.registry.publish(name, artifact)
        )
        if alias is not None:
            self.alias(alias, name)
        return version

    def wait_kernels(self, timeout_s: float = 60.0) -> bool:
        """Block until every published tree's kernel has settled —
        attached, or known unavailable — so what follows is timed on
        steady-state serving.  False on timeout."""
        return self._kernels.wait(timeout_s)

    def alias(
        self, alias: str, target: str, version: Optional[int] = None
    ) -> None:
        """Install (or repoint) an alias (see
        :meth:`ModelRegistry.alias`) — tracking ``target``'s latest
        version, or pinned when ``version`` is given."""
        with self._control_lock:
            self._alias_locked(alias, target, version)

    def _alias_locked(
        self, alias: str, target: str, version: Optional[int]
    ) -> None:
        self.registry.alias(alias, target, version)
        self._replicate("alias", (alias, target, version))

    def retire(self, name: str, version: int) -> None:
        """Drop one old version (see :meth:`ModelRegistry.retire`).

        Also refuses while an active traffic split still routes canary
        or shadow traffic to that version — the registry cannot see
        splits, but retiring under one would blackhole live traffic.
        """
        with self._control_lock:
            guard_retire_against_splits(
                self.splitter.splits(), self.registry, name, version
            )
            self.registry.retire(name, version)
            self._replicate("retire", (name, version))

    def rollback_publish(self, name: str, version: int) -> None:
        """Undo the most recent publish of ``name`` (see
        :meth:`ModelRegistry.rollback_publish`) — the auto-canary
        controller's escape hatch.  Refuses while an active split still
        routes traffic at that version, same guard as :meth:`retire`.
        """
        with self._control_lock:
            guard_retire_against_splits(
                self.splitter.splits(), self.registry, name, version
            )
            self.registry.rollback_publish(name, version)
            self._replicate("rollback_publish", (name, version))

    # -- traffic splitting -----------------------------------------------
    def set_split(
        self,
        ref: str,
        canary: Optional[str] = None,
        canary_fraction: float = 0.0,
        shadow: Optional[str] = None,
    ) -> None:
        """Canary and/or shadow a fraction of ``ref``'s traffic.

        Validates that every target reference resolves — and serves the
        same feature space as ``ref`` — before installing, so a typo
        cannot blackhole live traffic; the swap itself is atomic at
        flush granularity.
        """
        with self._control_lock:
            check_split_targets(self.registry, ref, canary, shadow)
            self.splitter.set_split(
                ref, canary=canary, canary_fraction=canary_fraction,
                shadow=shadow,
            )
            self._replicate(
                "set_split", (ref, canary, float(canary_fraction), shadow)
            )

    def clear_split(self, ref: str) -> None:
        with self._control_lock:
            self.splitter.clear(ref)
            self._replicate("clear_split", ref)

    def splits(self) -> Dict[str, TrafficSplit]:
        """Active traffic splits, keyed by split reference."""
        return self.splitter.splits()

    def shadow_report(self) -> Dict[str, dict]:
        """Shadow fidelity per split reference (never sent to clients)."""
        return self.splitter.shadow_report()

    # -- traffic ---------------------------------------------------------
    def submit(self, model: str, state: Any) -> "Future[ServeResult]":
        """One decision request; resolves to a :class:`ServeResult`.

        The future refuses ``cancel()``.  Called on a running event
        loop, the request is gathered with that loop's others and the
        future is one that loop's Tasks ``await`` directly, with done
        callbacks run on the loop (see :meth:`MicroBatcher.submit`);
        from any other thread it is a plain
        ``concurrent.futures.Future``."""
        return self._batcher.submit(model, state)

    def submit_many(
        self, model: str, states: Any
    ) -> List["Future[ServeResult]"]:
        """Submit a stack of single-state requests (they may co-batch)."""
        states = np.atleast_2d(np.asarray(states, dtype=float))
        return [self._batcher.submit(model, row) for row in states]

    def predict(
        self, model: str, states: Any, timeout_s: float = 30.0
    ) -> np.ndarray:
        """Synchronous batch convenience: submit, wait, stack actions.

        Raises :class:`ServeError` if any request fails — use ``submit``
        when per-request error handling is wanted.  Called on a running
        event loop it blocks that loop, so its requests wait for the
        batcher thread to adopt them (up to
        :data:`~repro.serve.batcher.ADOPT_AFTER_S`).
        """
        if self._batcher.closed:
            raise RuntimeError(
                "PolicyServer is closed: predict() after close() can "
                "never complete"
            )
        futures = self.submit_many(model, states)
        results = [f.result(timeout=timeout_s) for f in futures]
        for res in results:
            if not res.ok:
                raise ServeError(
                    f"{model}: {res.error} ({res.detail})"
                )
        return np.asarray([res.action for res in results])

    def submit_async(self, model: str, state: Any):
        """Asyncio submission path: the same future :meth:`submit`
        returns on a running event loop, awaited on that loop (see
        :meth:`MicroBatcher.submit_async`)."""
        return self._batcher.submit_async(model, state)

    # -- observability / lifecycle ---------------------------------------
    def metrics(self) -> Dict[str, dict]:
        """Per-model client-observed metrics snapshot (see
        :class:`ServerMetrics`)."""
        return self._metrics.snapshot()

    def backend_report(self) -> Dict[str, Any]:
        """Which engine serves each model: native kernel vs numpy.

        ``models`` maps every registered model to its summed
        native/numpy/fallback row counters, per-version breakdown, and
        kernel provenance; ``native`` is the process-wide compile/cache
        counter snapshot (:func:`repro.core.tree.native.native_stats`),
        where a silent degradation — no compiler, failed compile,
        corrupt cache — shows up as ``fallback_rows`` plus a
        ``last_error``.
        """
        from repro.serve.registry import registry_backend_report

        return {
            "models": registry_backend_report(self.registry),
            "native": _native.native_stats(),
        }

    def batching_state(self) -> Dict[str, Any]:
        """Current microbatching posture (adaptive-delay telemetry)."""
        return batching_state(self.delay, self._batcher.max_delay_s)

    def render_metrics(self) -> str:
        """This server's hub in Prometheus text exposition format."""
        return render_text(self.hub.snapshot())

    def events(self, since: int = 0) -> List[dict]:
        """Journal events newer than ``since`` (see
        :meth:`repro.obs.events.EventJournal.events_since`) — what the
        exporter's ``/events?since=`` endpoint serves."""
        return self.journal.events_since(since)

    def _blackbox_state(self) -> Dict[str, Any]:
        """What a postmortem bundle records about this tier's control
        state (cheap, lock-light, JSON-friendly)."""
        return {
            "tier": "PolicyServer",
            "registry": self.registry.fingerprint(),
            "splits": split_state(self.splitter.splits()),
            "batching": self.batching_state(),
        }

    def _refuse_if_closed(self, what: str) -> None:
        if self._closed:
            raise RuntimeError(
                f"{type(self).__name__} is closed: {what}() needs a "
                f"live tier"
            )

    def start_exporter(self, port: int = 0, host: str = "127.0.0.1"):
        """Start the observability HTTP endpoint; see
        :class:`repro.obs.exporter.MetricsExporter`.

        One-shot per server: calling it again while an exporter is
        running, or after :meth:`close`, raises ``RuntimeError`` — the
        old silent-return behaviour could leak a second HTTP server
        bound to a stale port.
        """
        self._refuse_if_closed("start_exporter")
        if self.exporter is not None:
            raise RuntimeError(
                f"exporter already running on {self.exporter.url}; "
                f"close() it before starting another"
            )
        from repro.obs.exporter import MetricsExporter

        self.exporter = MetricsExporter(
            self.render_metrics, tracer=self.tracer,
            host=host, port=port, events_fn=self.events,
        ).start()
        return self.exporter

    def start_health(self, rules: Optional[list] = None,
                     interval_s: float = 1.0, **rule_kwargs):
        """Start the SLO alert engine over this server's metrics.

        Without explicit ``rules``, the stock set from
        :func:`repro.obs.health.standard_rules` is wired to this
        server's live signal sources; ``rule_kwargs`` (``slo_p95_ms``,
        ``max_error_ratio``, window lengths, …) parameterize it.
        Returns the running :class:`~repro.obs.health.HealthMonitor`
        (subscribe to it for fire/resolve callbacks).
        """
        from repro.obs.health import HealthMonitor, standard_rules

        if self.health is not None:
            raise RuntimeError("health monitor already running")
        if rules is None:
            rules = standard_rules(
                self._metrics,
                queue_depth_fn=self._batcher.queue_depth,
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
        seed: SeedLike = None,
        min_samples: int = 256,
        leaf_nodes: int = 200,
        hist_bins: int = 256,
        n_classes: Optional[int] = None,
        **controller_kwargs: Any,
    ):
        """Close the loop: capture served traffic, refit against
        ``teacher``, and auto-canary the refits (see
        :mod:`repro.serve.online`).

        ``ref`` must be an alias — promotion repoints it at the refit.
        ``monitor`` defaults to this server's running health monitor
        (:meth:`start_health` first if drift-triggered refits are
        wanted).  ``interval_s`` starts the controller's background
        ticker; leave ``None`` and call ``controller.tick()`` to drive
        it explicitly (tests, cron).  Remaining keyword arguments reach
        :class:`~repro.serve.online.AutoCanaryController`.  One-shot
        per server, like :meth:`start_health`.
        """
        from repro.serve.online import (
            AutoCanaryController,
            Redistiller,
            TraceCapture,
        )

        self._refuse_if_closed("start_online")
        if self.online is not None:
            raise RuntimeError("online controller already running")
        self.capture = TraceCapture(
            capacity=capacity, sample_rate=sample_rate, seed=seed,
            hub=self.hub,
        )
        self._batcher.capture = self.capture
        redistiller = Redistiller(
            self.capture, teacher, min_samples=min_samples,
            leaf_nodes=leaf_nodes, hist_bins=hist_bins,
            n_classes=n_classes,
            name=controller_kwargs.get("candidate") or f"{ref}-refit",
        )
        self.online = AutoCanaryController(
            self, ref, redistiller,
            monitor=monitor if monitor is not None else self.health,
            journal=self.journal, hub=self.hub, **controller_kwargs,
        )
        if interval_s is not None:
            self.online.start(interval_s)
        return self.online

    def close(self) -> None:
        """Drain and stop; every submitted request still completes.

        The compile thread stops first (a compile in flight is killed),
        then the online loop and the health monitor, so nothing acts on
        the tier while :meth:`_stop_batcher` drains it; the exporter
        goes last.  Idempotent, and best effort past a part that fails
        to close.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        if self._kernels is not None:
            self._kernels.close()
        if self._event_hook is not None:
            _native.remove_event_hook(self._event_hook)
        if self.online is not None:
            _close_quietly(self.online)
            self.online = None
            self._batcher.capture = None
        if self.health is not None:
            _close_quietly(self.health)
            self.health = None
        self._stop_batcher()
        if self.exporter is not None:
            _close_quietly(self.exporter)
            self.exporter = None

    def __enter__(self) -> "PolicyServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
