"""Per-reference traffic splitting: canary routing and shadow mirroring.

Staged rollout of a freshly distilled policy needs two primitives the
plain registry does not provide:

* **canary** — route a configurable fraction of one reference's traffic
  to a different version, so a new tree earns production trust on a
  slice of real requests before the alias flips;
* **shadow** — mirror requests to another version whose answers are
  *recorded for fidelity comparison but never returned*, so a candidate
  can be scored against live traffic at zero blast radius (the serving
  analogue of the paper's teacher-vs-student fidelity metrics).

:class:`TrafficSplitter` sits in the registry layer: it rewrites
*references* (``"abr/prod"`` → ``"abr/prod"`` or ``"abr@3"``) before
resolution, which keeps every downstream guarantee intact — the batcher
still resolves once per flush, responses still carry the exact (name,
version) that answered, and hot-swap stays atomic.  Split configuration
is swapped under one lock, so reconfiguration under load is atomic per
flush: a flush sees either the old split or the new one, never a blend.

Shadow outcomes accumulate in the splitter itself (`shadow_report`):
per reference, how many mirrored decisions agreed with the decision
actually served.  Both the in-process :class:`MicroBatcher` and the
cluster workers feed the same accumulator shape.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro.utils.rng import SeedLike, as_rng


@dataclass(frozen=True)
class TrafficSplit:
    """One reference's split configuration (immutable snapshot).

    Attributes:
        ref: the reference whose traffic is split (usually an alias).
        canary: reference receiving ``canary_fraction`` of the traffic,
            or None.
        canary_fraction: fraction in [0, 1] routed to ``canary``.
        shadow: reference mirrored on every request, or None.  Shadow
            decisions are recorded, never returned.
    """

    ref: str
    canary: Optional[str] = None
    canary_fraction: float = 0.0
    shadow: Optional[str] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.canary_fraction <= 1.0:
            raise ValueError("canary_fraction must be in [0, 1]")
        if self.canary is None and self.canary_fraction > 0.0:
            raise ValueError("canary_fraction set without a canary ref")
        if self.canary is not None and self.canary_fraction == 0.0:
            raise ValueError("canary ref set with a zero fraction")
        if self.canary is None and self.shadow is None:
            raise ValueError("a split needs a canary or a shadow")


class _ShadowStats:
    __slots__ = ("shadow_ref", "requests", "agreements", "errors")

    def __init__(self, shadow_ref: str) -> None:
        self.shadow_ref = shadow_ref
        self.requests = 0
        self.agreements = 0
        self.errors = 0


class TrafficSplitter:
    """Atomic per-reference canary/shadow routing table.

    Args:
        seed: RNG seed for canary assignment (deterministic splits in
            tests; fresh entropy in production).
    """

    def __init__(self, seed: SeedLike = None) -> None:
        self._lock = threading.Lock()
        self._splits: Dict[str, TrafficSplit] = {}
        self._shadow: Dict[str, _ShadowStats] = {}
        self._rng = as_rng(seed)
        #: Lock-free fast-path flag the batcher reads once per flush;
        #: bool reads are GIL-atomic, and staleness only lasts one flush.
        self.active = False
        #: Optional :class:`repro.obs.events.EventJournal` the owning
        #: tier attaches; split installs/clears are journaled as
        #: ``canary_change`` events (best effort).
        self.journal = None

    def _journal_change(self, ref: str, **fields) -> None:
        if self.journal is None:
            return
        try:
            self.journal.emit("canary_change", labels={"ref": ref},
                              **fields)
        except Exception:  # noqa: BLE001 - journaling is best effort
            pass

    # -- configuration ---------------------------------------------------
    def set_split(
        self,
        ref: str,
        canary: Optional[str] = None,
        canary_fraction: float = 0.0,
        shadow: Optional[str] = None,
    ) -> TrafficSplit:
        """Install (or replace) the split for ``ref`` atomically.

        The next flush that looks ``ref`` up sees the new configuration
        in full; in-flight flushes finish under the one they read.
        """
        split = TrafficSplit(
            ref=ref, canary=canary, canary_fraction=float(canary_fraction),
            shadow=shadow,
        )
        with self._lock:
            self._splits[ref] = split
            if shadow is not None:
                stats = self._shadow.get(ref)
                if stats is None or stats.shadow_ref != shadow:
                    self._shadow[ref] = _ShadowStats(shadow)
            else:
                # Replacing a shadowed split with a shadow-less one
                # (e.g. the auto-canary ramp taking over from a
                # drift-detection mirror) retires its agreement stats:
                # keeping them would hold shadow_agreement_floor
                # breached on traffic that no longer mirrors.
                self._shadow.pop(ref, None)
            self.active = True
        self._journal_change(
            ref, canary=canary, canary_fraction=float(canary_fraction),
            shadow=shadow,
        )
        return split

    def clear(self, ref: str) -> None:
        """Remove ``ref``'s split; its traffic flows undivided again."""
        with self._lock:
            removed = self._splits.pop(ref, None)
            self.active = bool(self._splits)
        if removed is not None:
            self._journal_change(ref, cleared=True)

    def splits(self) -> Dict[str, TrafficSplit]:
        """Snapshot of every active split, keyed by the split
        reference."""
        with self._lock:
            return dict(self._splits)

    def get(self, ref: str) -> Optional[TrafficSplit]:
        """The active split for ``ref``, or None when its traffic
        flows undivided."""
        with self._lock:
            return self._splits.get(ref)

    # -- request-time routing --------------------------------------------
    def assign(self, ref: str, n: int) -> Optional["SplitPlan"]:
        """Split plan for ``n`` requests arriving under ``ref``.

        Returns None when ``ref`` has no split (the common fast path).
        Canary assignment draws one vectorized Bernoulli sample per
        request from the splitter's own RNG stream.
        """
        with self._lock:
            split = self._splits.get(ref)
            if split is None:
                return None
            if split.canary is not None:
                mask = self._rng.random(n) < split.canary_fraction
            else:
                mask = np.zeros(n, dtype=bool)
        return SplitPlan(split=split, canary_mask=mask)

    # -- shadow accounting -----------------------------------------------
    def record_shadow(
        self,
        ref: str,
        shadow_ref: str,
        served_actions: Any,
        shadow_actions: Any,
    ) -> None:
        """Record one mirrored batch: agreement of shadow vs served.

        Must never raise — it runs on serving hot paths (a batcher
        flush, on the batcher thread or a client's event loop; the
        shard serve loop).  Anything uncomparable
        (ragged action lists from mixed-output-shape groups, dtype
        clashes) is counted as shadow error, not thrown.
        """
        n = len(served_actions)
        try:
            served = np.asarray(served_actions)
            mirrored = np.asarray(shadow_actions)
            if mirrored.shape != served.shape or served.dtype == object:
                self.record_shadow_error(ref, shadow_ref, n)
                return
            if served.ndim > 1:
                agree = int(np.all(mirrored == served, axis=1).sum())
            else:
                agree = int((mirrored == served).sum())
        except Exception:  # noqa: BLE001 - hot path must survive
            self.record_shadow_error(ref, shadow_ref, n)
            return
        with self._lock:
            stats = self._shadow_stats(ref, shadow_ref)
            stats.requests += n
            stats.agreements += agree

    def record_shadow_error(
        self, ref: str, shadow_ref: str, n: int
    ) -> None:
        """A mirrored predict failed for ``n`` requests (primary traffic
        was unaffected — that is the point of shadowing)."""
        with self._lock:
            stats = self._shadow_stats(ref, shadow_ref)
            stats.requests += n
            stats.errors += n

    def _shadow_stats(self, ref: str, shadow_ref: str) -> _ShadowStats:
        stats = self._shadow.get(ref)
        if stats is None or stats.shadow_ref != shadow_ref:
            stats = self._shadow[ref] = _ShadowStats(shadow_ref)
        return stats

    def shadow_report(self) -> Dict[str, dict]:
        """Fidelity of each shadow against the traffic it mirrored."""
        with self._lock:
            return {
                ref: {
                    "shadow": stats.shadow_ref,
                    "requests": stats.requests,
                    "agreements": stats.agreements,
                    "errors": stats.errors,
                    "agreement_rate": (
                        stats.agreements / stats.requests
                        if stats.requests else 0.0
                    ),
                }
                for ref, stats in self._shadow.items()
            }

    def merge_shadow_report(self, report: Dict[str, dict]) -> None:
        """Fold another splitter's :meth:`shadow_report` into this one
        (cluster aggregation: workers shadow locally, the parent sums)."""
        with self._lock:
            for ref, row in report.items():
                stats = self._shadow_stats(ref, row["shadow"])
                stats.requests += int(row["requests"])
                stats.agreements += int(row["agreements"])
                stats.errors += int(row["errors"])


def mirror_shadow(
    splitter: TrafficSplitter,
    resolved: Any,
    ref: str,
    shadow_ref: str,
    rows: np.ndarray,
    served: Any,
) -> None:
    """Predict ``rows`` on the shadow version and record agreement.

    The one implementation both serving tiers share (the in-process
    batcher and the cluster workers), so shadow accounting semantics
    can never drift between them.  Never raises and never returns the
    shadow's answers: an unresolvable shadow, a raising
    ``predict_batch``, or a mis-shaped output all count as shadow
    errors while the primary traffic stays untouched.
    """
    n = len(rows)
    if resolved is None:
        splitter.record_shadow_error(ref, shadow_ref, n)
        return
    if rows.shape[1] != resolved.artifact.n_features:
        # A narrower shadow would happily predict on the wrong columns
        # and report a meaningless-but-healthy agreement rate.
        splitter.record_shadow_error(ref, shadow_ref, n)
        return
    try:
        out = np.asarray(resolved.artifact.predict_batch(rows))
    except Exception:  # noqa: BLE001 - shadow must not hurt primaries
        splitter.record_shadow_error(ref, shadow_ref, n)
        return
    if out.shape[:1] != (n,):
        splitter.record_shadow_error(ref, shadow_ref, n)
        return
    splitter.record_shadow(ref, shadow_ref, served, out)


def split_state(splits: Dict[str, TrafficSplit]) -> Dict[str, dict]:
    """Canonical plain-dict view of a split table.

    Both serving tiers format their split state through this one
    function, so a parent mirror and a worker replica (or two worker
    replicas) can be compared for byte-identical routing state — the
    check the cluster's replacement-replay tests make after a shard is
    respawned.
    """
    return {
        ref: {
            "canary": split.canary,
            "canary_fraction": split.canary_fraction,
            "shadow": split.shadow,
        }
        for ref, split in sorted(splits.items())
    }


def check_split_targets(
    registry: Any,
    ref: str,
    canary: Optional[str],
    shadow: Optional[str],
) -> None:
    """Install-time validation for a split's target references.

    Every target must resolve (a typo must not blackhole traffic) and
    must serve ``ref``'s feature space — a canary with a different
    ``n_features`` would fail its whole traffic fraction with
    ``bad_shape`` errors, and a mismatched shadow would be rejected on
    every mirror anyway.
    """
    primary = registry.resolve(ref)
    for label, target in (("canary", canary), ("shadow", shadow)):
        if target is None:
            continue
        resolved = registry.resolve(target)
        if resolved.artifact.n_features != primary.artifact.n_features:
            raise ValueError(
                f"{label} {target!r} expects "
                f"{resolved.artifact.n_features} features but {ref!r} "
                f"serves {primary.artifact.n_features}: splitting "
                f"between them would misroute every affected request"
            )


def splits_targeting(
    splits: Dict[str, TrafficSplit], registry: Any, name: str, version: int
) -> list:
    """Which active splits route traffic to ``name@version``.

    The retire guard: a version may look unreferenced to the registry
    (no pinned alias) while a split still sends it the canary fraction
    or mirrors shadows at it — retiring it would blackhole that
    traffic.  Returns human-readable ``"'<split ref>' via '<target>'"``
    strings for every hit.
    """
    hits = []
    for split_ref, split in splits.items():
        for target in (split.ref, split.canary, split.shadow):
            if target is None:
                continue
            try:
                resolved = registry.resolve(target)
            except KeyError:
                continue
            if (resolved.name, resolved.version) == (name, version):
                hits.append(f"{split_ref!r} via {target!r}")
    return sorted(set(hits))


def guard_retire_against_splits(
    splits: Dict[str, TrafficSplit], registry: Any, name: str, version: int
) -> None:
    """Raise ``ValueError`` when an active split routes to
    ``name@version`` — the shared retire refusal both serving tiers
    apply before touching their registries."""
    hits = splits_targeting(splits, registry, name, version)
    if hits:
        raise ValueError(
            f"cannot retire {name}@{version}: active traffic "
            f"split(s) {hits} still route to it"
        )


@dataclass(frozen=True)
class SplitPlan:
    """One flush's routing decision for one reference.

    Attributes:
        split: the configuration snapshot the plan was drawn under.
        canary_mask: boolean per request — True routes to the canary.
    """

    split: TrafficSplit
    canary_mask: np.ndarray

    @property
    def shadow(self) -> Optional[str]:
        return self.split.shadow
