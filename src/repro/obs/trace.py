"""Sampled per-request tracing across batcher, wire, and worker.

A trace answers "where did this request's 4 ms go?".  The lifecycle:

1. ``MicroBatcher.submit`` asks the tier's :class:`Tracer` for a
   :class:`TraceRecord` — ``None`` for unsampled requests, so the hot
   path pays one float compare when tracing is off or unsampled;
2. the record rides the request slot through the flush group.  The
   batcher stamps ``t_flush`` (queue wait ends, batch assembly
   begins); the cluster dispatcher stamps ``t_send`` just before the
   frame hits the shard's pipe and forwards the trace id in the frame's
   optional trace field (``WIRE_VERSION`` 2);
3. the worker continues the trace id inside ``handle_frame`` and
   returns *durations* (``service_s``, ``kernel_s``) in the reply —
   durations, not timestamps, because parent and worker clocks are
   not synchronized and ``time.perf_counter`` is explicitly
   process-local;
4. on completion the parent decomposes end-to-end latency into spans
   that **sum exactly** to the client-observed latency::

       queue_wait     = t_flush - t_submit
       batch_assembly = t_send  - t_flush
       wire           = (t_done - t_send) - service_s
       worker_service = service_s - kernel_s
       kernel         = kernel_s

   (the in-process tier has no wire; its decomposition is queue_wait /
   batch_assembly / kernel with service folded into kernel's bracket).

Finished traces land in a bounded ring (old traces evicted FIFO) and
export as Chrome ``trace_event`` JSON — load the file at
``chrome://tracing`` or https://ui.perfetto.dev for a flamegraph.
"""

from __future__ import annotations

import itertools
import json
import random
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

__all__ = ["Span", "TraceRecord", "Tracer"]

#: Canonical stage names, in pipeline order.  ``docs/observability.md``
#: documents these; the /traces endpoint and Chrome export use them
#: verbatim.
STAGES: Tuple[str, ...] = (
    "queue_wait", "batch_assembly", "wire", "worker_service", "kernel",
)


class Span:
    """One named stage of a trace: offset + duration, both seconds
    relative to the trace's ``t_submit``."""

    __slots__ = ("name", "start_s", "duration_s")

    def __init__(self, name: str, start_s: float, duration_s: float) -> None:
        self.name = name
        self.start_s = start_s
        self.duration_s = duration_s

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, +{self.start_s:.6f}s, {self.duration_s:.6f}s)"


class TraceRecord:
    """A single sampled request, from ``submit`` to completion.

    Mutable while in flight (the batcher/dispatcher stamp timestamps
    onto it); frozen into spans by :meth:`finish`.  All timestamps are
    ``time.perf_counter()`` readings from the *parent* process only.
    """

    __slots__ = (
        "trace_id", "model", "t_submit", "t_flush", "t_send",
        "t_done", "service_s", "kernel_s", "shard", "batch_size",
        "ok", "spans", "total_s",
    )

    def __init__(self, trace_id: int, model: str, t_submit: float) -> None:
        self.trace_id = trace_id
        self.model = model
        self.t_submit = t_submit
        self.t_flush: Optional[float] = None
        self.t_send: Optional[float] = None
        self.t_done: Optional[float] = None
        self.service_s: float = 0.0
        self.kernel_s: float = 0.0
        self.shard: Optional[int] = None
        self.batch_size: int = 0
        self.ok: bool = True
        self.spans: List[Span] = []
        self.total_s: float = 0.0

    # -- in-flight stamps (called by batcher / dispatcher) ----------------
    def mark_flush(self, now: Optional[float] = None) -> None:
        self.t_flush = time.perf_counter() if now is None else now

    def mark_send(self, now: Optional[float] = None) -> None:
        self.t_send = time.perf_counter() if now is None else now

    def finish(
        self,
        *,
        service_s: float = 0.0,
        kernel_s: float = 0.0,
        shard: Optional[int] = None,
        batch_size: int = 0,
        ok: bool = True,
        now: Optional[float] = None,
    ) -> "TraceRecord":
        """Close the trace and decompose it into stage spans.

        Spans partition ``[t_submit, t_done]`` exactly: each stage
        starts where the previous ended and the durations sum to
        ``total_s`` to float precision.  Worker-reported durations are
        clamped into the available wall-clock budget so a skewed or
        garbage reply can never produce negative spans.
        """
        self.t_done = time.perf_counter() if now is None else now
        self.shard = shard
        self.batch_size = batch_size
        self.ok = ok
        self.total_s = max(0.0, self.t_done - self.t_submit)

        t_flush = self.t_flush if self.t_flush is not None else self.t_submit
        t_flush = min(max(t_flush, self.t_submit), self.t_done)
        spans: List[Span] = []
        cursor = 0.0
        queue_wait = t_flush - self.t_submit
        spans.append(Span("queue_wait", cursor, queue_wait))
        cursor += queue_wait

        if self.t_send is not None:
            t_send = min(max(self.t_send, t_flush), self.t_done)
            assembly = t_send - t_flush
            spans.append(Span("batch_assembly", cursor, assembly))
            cursor += assembly
            round_trip = self.t_done - t_send
            service = min(max(service_s, 0.0), round_trip)
            kernel = min(max(kernel_s, 0.0), service)
            wire = round_trip - service
            spans.append(Span("wire", cursor, wire))
            cursor += wire
            spans.append(Span("worker_service", cursor, service - kernel))
            cursor += service - kernel
            spans.append(Span("kernel", cursor, kernel))
        else:
            # In-process tier: no wire hop; service brackets the kernel.
            in_proc = self.t_done - t_flush
            service = min(max(service_s, 0.0), in_proc)
            kernel = min(max(kernel_s, 0.0), service)
            assembly = in_proc - service
            spans.append(Span("batch_assembly", cursor, assembly))
            cursor += assembly
            spans.append(Span("worker_service", cursor, service - kernel))
            cursor += service - kernel
            spans.append(Span("kernel", cursor, kernel))
        self.spans = spans
        return self

    def as_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "model": self.model,
            "shard": self.shard,
            "batch_size": self.batch_size,
            "ok": self.ok,
            "total_s": self.total_s,
            "spans": [span.as_dict() for span in self.spans],
        }


class Tracer:
    """Sampling trace collector with a bounded completed-trace ring.

    ``sample_rate`` is the probability a ``submit`` is traced (0
    disables tracing entirely; 1 traces everything — useful in tests).
    Sampling uses a private :class:`random.Random` so tracing never
    perturbs user-visible randomness (the splitter's hash routing, the
    global seed).
    """

    def __init__(self, sample_rate: float = 0.0, capacity: int = 256,
                 seed: Optional[int] = None) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be within [0, 1]")
        self.sample_rate = float(sample_rate)
        self.capacity = int(capacity)
        self._rng = random.Random(seed)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._done: Deque[TraceRecord] = deque(maxlen=self.capacity)
        self.started = 0
        self.finished = 0

    @property
    def enabled(self) -> bool:
        return self.sample_rate > 0.0

    def maybe_start(self, model: str,
                    now: Optional[float] = None) -> Optional[TraceRecord]:
        """Mint a trace for this request, or ``None`` if unsampled."""
        if self.sample_rate <= 0.0:
            return None
        if self.sample_rate < 1.0 and self._rng.random() >= self.sample_rate:
            return None
        with self._lock:
            trace_id = next(self._ids)
            self.started += 1
        t_submit = time.perf_counter() if now is None else now
        return TraceRecord(trace_id, model, t_submit)

    def record(self, trace: TraceRecord) -> None:
        """File a finished trace into the ring."""
        with self._lock:
            self._done.append(trace)
            self.finished += 1

    def traces(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Most-recent-first finished traces as plain dicts."""
        with self._lock:
            records = list(self._done)
        records.reverse()
        if limit is not None:
            records = records[:limit]
        return [record.as_dict() for record in records]

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "sample_rate": self.sample_rate,
                "capacity": self.capacity,
                "started": self.started,
                "finished": self.finished,
                "stored": len(self._done),
            }

    def chrome_trace(self, limit: Optional[int] = None) -> Dict[str, Any]:
        """Chrome ``trace_event`` JSON for the stored traces.

        Each trace renders as one timeline row (``tid`` = trace id)
        of complete ("ph": "X") events, one per span, with
        microsecond offsets — the format chrome://tracing and
        Perfetto ingest directly.
        """
        events: List[Dict[str, Any]] = []
        for record in self.traces(limit):
            meta = {
                "model": record["model"],
                "shard": record["shard"],
                "batch_size": record["batch_size"],
                "ok": record["ok"],
            }
            for span in record["spans"]:
                events.append({
                    "name": span["name"],
                    "cat": "serve",
                    "ph": "X",
                    "pid": 1,
                    "tid": record["trace_id"],
                    "ts": round(span["start_s"] * 1e6, 3),
                    "dur": round(span["duration_s"] * 1e6, 3),
                    "args": meta,
                })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def chrome_trace_json(self, limit: Optional[int] = None) -> str:
        return json.dumps(self.chrome_trace(limit))
