"""Structured event journal: the serving stack's flight log.

Metrics answer "how much"; the journal answers "what happened, and in
what order".  Every control-plane and lifecycle transition — a publish
landing, a shard dying, the autoscaler actuating, an alert firing —
is recorded as one typed, timestamped, structured event in a bounded
in-memory ring with a monotonic sequence number, so operators (and the
health engine in :mod:`repro.obs.health`) can reconstruct an incident
without having scraped at the right moment.

Design points:

* **Process-local and thread-safe.**  Each serving tier owns one
  :class:`EventJournal`; every emitter (registry, splitter,
  autoscaler, native-kernel fallbacks) appends under one lock.  Worker
  processes keep their own journals, which the cluster parent drains
  over the control channel (the append-only ``events_since`` wire op)
  and re-sequences into its own journal via :meth:`EventJournal.ingest`
  with a ``shard`` label — so the merged stream still carries one
  globally monotonic ``seq``.
* **Typed.**  ``kind`` must come from :data:`EVENT_KINDS` and
  ``severity`` from :data:`SEVERITIES`; a typo in an emitter is a bug
  the journal refuses, not a silently unqueryable event.
* **Bounded.**  The ring holds the newest ``capacity`` events; the
  sequence number keeps counting, so a reader that asks
  ``events_since(seq)`` after an overflow can detect the gap.
* **Metrics-mirrored.**  With a hub bound, every emit increments
  ``repro_events_total{kind,severity}`` — the cheap aggregate view
  that alerting and dashboards consume without reading the ring.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any, Dict, Iterable, List, Optional

__all__ = [
    "EVENT_KINDS",
    "SEVERITIES",
    "EventJournal",
    "events_to_jsonl",
]

#: The complete event vocabulary.  Emitters must use one of these —
#: consumers (alert rules, postmortem tooling, dashboards) key off the
#: kind, so an open-ended namespace would rot into unqueryable strings.
EVENT_KINDS = (
    "publish",          # a model version landed in a registry
    "rollback",         # a just-published version was rolled back
    "alias_move",       # an alias was installed or repointed
    "shard_spawn",      # a worker replica process came up
    "shard_death",      # a worker replica died (crash or removal)
    "shard_heal",       # a replacement replica finished log replay
    "autoscale_up",     # the autoscaler grew the fleet
    "autoscale_down",   # the autoscaler shrank the fleet
    "canary_change",    # a traffic split was installed/updated/cleared
    "kernel_fallback",  # native kernel rows served by numpy instead
    "kernel_ready",     # a published tree's kernel compiled and attached
    "kernel_unavailable",  # a published tree's kernel could not be built
    "slo_breach",       # an alert predicate first went true (pending)
    "alert_fire",       # an alert survived its for_s window
    "alert_resolve",    # a firing alert's predicate went false again
)

#: Severity ladder; ``page`` is the postmortem-capture trigger level.
SEVERITIES = ("info", "warn", "error", "page")


class EventJournal:
    """Thread-safe bounded ring of structured events.

    Args:
        capacity: ring size; the newest that-many events are kept
            (sequence numbers keep counting past evictions).
        hub: optional :class:`repro.obs.metrics.MetricsHub` to mirror
            emits into as ``repro_events_total{kind,severity}``; may
            also be attached later via :meth:`bind_hub`.
        clock: epoch-seconds source (overridable for tests).
    """

    def __init__(self, capacity: int = 2048, hub: Any = None,
                 clock=time.time) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self._lock = threading.Lock()
        self._ring: deque = deque(maxlen=capacity)
        self._seq = 0
        self._clock = clock
        self._counter = None
        if hub is not None:
            self.bind_hub(hub)

    def bind_hub(self, hub: Any) -> None:
        """Mirror every subsequent emit into ``hub`` as
        ``repro_events_total{kind,severity}``."""
        self._counter = hub.counter(
            "repro_events_total",
            "Structured journal events, per kind and severity",
        )

    # -- writing ----------------------------------------------------------
    def emit(
        self,
        kind: str,
        severity: str = "info",
        labels: Optional[Dict[str, str]] = None,
        **fields: Any,
    ) -> Dict[str, Any]:
        """Append one event; returns the stored record (with its seq).

        ``labels`` are short low-cardinality identifiers (model, shard,
        ref, rule) — what consumers match on; ``fields`` carry the
        free-form payload (versions, counts, reasons).
        """
        if kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {kind!r} (not in EVENT_KINDS)"
            )
        if severity not in SEVERITIES:
            raise ValueError(
                f"unknown severity {severity!r} (not in SEVERITIES)"
            )
        record = {
            "ts": float(self._clock()),
            "kind": kind,
            "severity": severity,
            "labels": {str(k): str(v) for k, v in (labels or {}).items()},
            "fields": dict(fields),
        }
        with self._lock:
            self._seq += 1
            record["seq"] = self._seq
            self._ring.append(record)
        if self._counter is not None:
            self._counter.labels(kind=kind, severity=severity).inc()
        return record

    def ingest(
        self,
        events: Iterable[Dict[str, Any]],
        extra_labels: Optional[Dict[str, str]] = None,
    ) -> List[Dict[str, Any]]:
        """Re-sequence foreign events (a worker journal's drain) into
        this journal.

        Each event keeps its original timestamp, kind, severity, labels
        and fields; ``extra_labels`` (typically ``{"shard": id}``) are
        merged over its labels, its original sequence number is
        preserved as ``origin_seq``, and it gets a fresh ``seq`` here —
        so the merged stream stays globally monotonic.
        """
        out: List[Dict[str, Any]] = []
        stamped = {str(k): str(v)
                   for k, v in (extra_labels or {}).items()}
        for event in events:
            if not isinstance(event, dict) or "kind" not in event:
                continue
            record = {
                "ts": float(event.get("ts", self._clock())),
                "kind": str(event["kind"]),
                "severity": str(event.get("severity", "info")),
                "labels": {**dict(event.get("labels") or {}), **stamped},
                "fields": dict(event.get("fields") or {}),
            }
            if "seq" in event:
                record["fields"]["origin_seq"] = int(event["seq"])
            with self._lock:
                self._seq += 1
                record["seq"] = self._seq
                self._ring.append(record)
            if self._counter is not None:
                self._counter.labels(
                    kind=record["kind"], severity=record["severity"]
                ).inc()
            out.append(record)
        return out

    # -- reading ----------------------------------------------------------
    @property
    def last_seq(self) -> int:
        """Sequence number of the newest event (0 before any emit)."""
        with self._lock:
            return self._seq

    def events_since(self, seq: int = 0,
                     limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Events with ``seq`` strictly greater than the given one,
        oldest first (the incremental-drain / ``/events?since=`` read).

        A reader that falls more than ``capacity`` events behind sees a
        gap: the first returned seq exceeds ``since + 1``.
        """
        with self._lock:
            out = [dict(e) for e in self._ring if e["seq"] > seq]
        if limit is not None:
            out = out[-limit:]
        return out

    def tail(self, n: int) -> List[Dict[str, Any]]:
        """The newest ``n`` events, oldest first."""
        if n <= 0:
            return []
        with self._lock:
            ring = list(self._ring)
        return [dict(e) for e in ring[-n:]]

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)


def events_to_jsonl(events: Iterable[Dict[str, Any]]) -> str:
    """Serialize events as JSON Lines (one compact object per line) —
    the ``/events`` endpoint's body format."""
    return "".join(
        json.dumps(event, sort_keys=True, default=str) + "\n"
        for event in events
    )
