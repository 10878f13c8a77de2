"""Pluggable shard routing for the cluster front end.

PR 4's dispatcher rotated whole flush groups round-robin, which is
blind to two things the parent can observe for free: how many groups
each shard still has in flight, and how long that shard has been
taking to serve one (the worker reports its pure service time with
every reply).  Routing by observed service quality instead of position
is the gateway-selection lesson of the related work: the client sees
enough to avoid the slow replica without any shard-side coordination.

Two routers ship:

* :class:`RoundRobinRouter` — the PR-4 behaviour, kept as the baseline
  the benchmarks compare against;
* :class:`LeastLoadedRouter` — scores each live shard by its expected
  backlog drain time, ``inflight * service_estimate`` (an idle shard
  scores 0 regardless of history — see the class docstring for why
  the new group's own cost must not be charged), and picks the
  minimum.  The estimate is per-(shard, model) when the service has
  observed that model on that shard (PR 6: cheap and expensive models
  on one fleet no longer pollute each other's signal), falling back
  to the shard's aggregate EWMA for unseen models, then to the
  fleet's mean — so a cold shard is neither flooded (a zero estimate
  would win every contest) nor starved.  Ties break round-robin so
  idle fleets still spread.

Hash affinity is *not* a router: it is an override applied by the
dispatcher before routing (a sticky key pins its shard while that
shard lives), and the router only handles the remainder — dead-target
fallback and non-sticky traffic.

Routers are intentionally stateless about shards: they read the
``inflight`` / ``ewma_service_s`` counters the service maintains on
its shard handles, so a replacement shard slots in with no router
bookkeeping to repair.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence, Union


class Router:
    """Strategy interface: pick one shard for the next flush group.

    ``shards`` is the live candidate list (never empty — the service
    fails the group itself when no shard is alive).  ``ref`` is the
    model reference the group resolves through (None when unknown);
    model-aware routers use it to key per-model service-time signals.
    Implementations read each handle's ``inflight`` (outstanding
    predict groups), ``ewma_service_s`` (EWMA of worker-reported
    service time, 0.0 until the first reply), and ``ewma_by_model``
    (the same signal keyed by requested ref) and must not mutate them.
    The service always calls ``select(shards, ref)``.
    """

    name = "router"

    def select(self, shards: Sequence,
               ref: Optional[str] = None) -> Optional[object]:
        raise NotImplementedError

    def snapshot(self) -> dict:
        """Monitoring view (merged into ``cluster_metrics()``)."""
        return {"router": self.name}


class RoundRobinRouter(Router):
    """Rotate groups across live shards in arrival order (the PR-4
    baseline: position-aware, load-blind)."""

    name = "round_robin"

    def __init__(self) -> None:
        self._rr = itertools.count()

    def select(self, shards: Sequence,
               ref: Optional[str] = None) -> Optional[object]:
        if not shards:
            return None
        return shards[next(self._rr) % len(shards)]


class LeastLoadedRouter(Router):
    """Route each group to the shard with the smallest expected drain
    time.

    Score = ``inflight * service_estimate`` — how long the shard needs
    to finish what it already holds before this group could start.  An
    idle shard scores 0 regardless of its history: the estimate must
    not be charged for the *new* group's own cost, because aggregate
    EWMAs mix model costs (a shard that just drained an expensive
    batch would look worse than one actively serving a cheap one, and
    traffic would pile onto the busy shard — exactly the failure the
    router exists to avoid).  Estimate resolution, most specific
    first:

    1. the shard's per-(shard, model) EWMA for the group's ``ref``
       (PR 6 — the sharpest signal when the fleet serves a mix of
       cheap and expensive models);
    2. the shard's aggregate EWMA (a shard that has served *anything*
       has a cost scale even for a ref it has not seen);
    3. the mean of whichever per-model/aggregate estimates the other
       shards have (1.0 relative units when nobody has history, which
       reduces to least-in-flight).

    Ties — the whole fleet idle, typically — fall back to round-robin
    so load spreads instead of dogpiling shard 0.
    """

    name = "least_loaded"

    def __init__(self) -> None:
        self._rr = itertools.count()

    @staticmethod
    def _estimate(shard, ref: Optional[str]) -> float:
        """Shard's best-known service time for ``ref`` (0.0 = unknown).

        Reads via ``getattr`` so router unit tests (and any external
        caller) can use plain attribute doubles without a
        ``ewma_by_model`` dict.
        """
        if ref is not None:
            by_model = getattr(shard, "ewma_by_model", None)
            if by_model:
                per_model = by_model.get(ref, 0.0)
                if per_model > 0:
                    return per_model
        return getattr(shard, "ewma_service_s", 0.0)

    def select(self, shards: Sequence,
               ref: Optional[str] = None) -> Optional[object]:
        if not shards:
            return None
        if len(shards) == 1:
            return shards[0]
        estimates = [self._estimate(shard, ref) for shard in shards]
        known = [est for est in estimates if est > 0]
        baseline = (sum(known) / len(known)) if known else 1.0
        scores: List[float] = []
        for shard, estimate in zip(shards, estimates):
            if estimate <= 0:
                estimate = baseline
            scores.append(shard.inflight * estimate)
        best = min(scores)
        candidates = [
            shard for shard, score in zip(shards, scores) if score == best
        ]
        if len(candidates) == 1:
            return candidates[0]
        return candidates[next(self._rr) % len(candidates)]


#: Routing specs ``ShardedPolicyService(routing=...)`` accepts.  "hash"
#: is handled by the dispatcher (affinity override) with a
#: least-loaded router underneath for fallback traffic.
ROUTINGS = ("round_robin", "hash", "least_loaded")


def make_router(spec: Union[str, Router]) -> Router:
    """Build the router behind a routing spec.

    Accepts a :class:`Router` instance (used as-is — the pluggable
    path) or one of :data:`ROUTINGS`.
    """
    if isinstance(spec, Router):
        return spec
    if spec == "round_robin":
        return RoundRobinRouter()
    if spec in ("least_loaded", "hash"):
        return LeastLoadedRouter()
    raise ValueError(
        f"routing must be one of {ROUTINGS} or a Router instance, "
        f"not {spec!r}"
    )
