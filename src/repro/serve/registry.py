"""Versioned model registry with atomic publish and zero-downtime swap.

The registry maps a model *name* to an ordered list of immutable
:class:`~repro.serve.artifact.PolicyArtifact` versions, plus *aliases*
(``abr/prod`` -> ``abr`` latest, or pinned to a version).  All mutation
and resolution happens under one lock, so

* ``publish`` is atomic — a resolver sees either the old latest or the
  new latest, never a half-registered artifact (artifacts themselves are
  frozen dataclasses built before publish, so there is nothing to tear);
* hot-swap is zero-downtime — the batcher resolves a reference once per
  flush, so requests already grouped into a batch finish on the version
  they resolved, while every later flush sees the new one.

References accepted by :meth:`resolve`:

* ``"abr"`` — latest version of model ``abr``;
* ``"abr@2"`` — pinned version 2;
* ``"abr/prod"`` — an alias, tracking latest or pinned at alias time.

Old versions can be retired via :meth:`retire` (long-running servers must not
leak every artifact ever published).  Retirement tombstones the slot —
version numbers never shift, so ``abr@2`` means the same bundle forever
— and refuses to remove the latest version or any version a pinned
alias still routes traffic to.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.serve.artifact import PolicyArtifact


def control_state_digest(state: Mapping[str, Any]) -> str:
    """Compact digest of a replica control state (fingerprint+splits).

    The cluster tier compares full :meth:`ModelRegistry.fingerprint`
    states byte for byte to prove replicas are in lockstep — cheap
    between co-located processes, but across hosts a monitor wants a
    fixed-size value it can compare without shipping every version
    hash over the wire.  This hashes the ``repr`` of the state with
    its top-level keys sorted (fingerprints already sort models and
    aliases internally, so equal states produce equal reprs), giving
    16 hex chars that two replicas agree on iff their control state is
    identical.  Workers include it in their ``describe`` reply;
    ``replica_states()`` adds the parent's so the comparison stays
    symmetric.
    """
    payload = repr({key: state[key] for key in sorted(state)})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class ResolvedModel:
    """One resolution outcome: the exact (name, version, artifact) triple.

    Responses carry this triple, which is what makes every served
    decision attributable to exactly one published artifact.
    """

    name: str
    version: int
    artifact: PolicyArtifact


class ModelRegistry:
    """Thread-safe name -> ordered versions store (versions are 1-based)."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        # A slot is None once its version has been retired (tombstone:
        # version numbers are stable identifiers and never shift).
        self._models: Dict[str, List[Optional[PolicyArtifact]]] = {}
        self._aliases: Dict[str, Tuple[str, Optional[int]]] = {}
        #: Optional :class:`repro.obs.events.EventJournal` the owning
        #: tier attaches; publish / rollback / alias transitions are
        #: journaled through it (best effort, never a failure source).
        self.journal: Optional[Any] = None

    def _journal(self, kind: str, severity: str = "info",
                 labels: Optional[Dict[str, str]] = None,
                 **fields: Any) -> None:
        if self.journal is None:
            return
        try:
            self.journal.emit(kind, severity=severity, labels=labels,
                              **fields)
        except Exception:  # noqa: BLE001 - journaling is best effort
            pass

    # -- mutation --------------------------------------------------------
    def publish(self, name: str, artifact: PolicyArtifact) -> int:
        """Register ``artifact`` as the next version of ``name``.

        Returns the new version number.  Existing versions are never
        mutated or removed, so an in-flight batch holding version ``k``
        keeps serving exactly what ``k`` was.

        The registry only records the version: it compiles nothing.  A
        serving tier's publish attaches the tree's native kernel (see
        :class:`repro.serve.kernels.KernelCompiler`); an artifact
        published here directly serves through whatever kernel its
        tree already has, or through numpy.
        """
        if not name or "@" in name:
            raise ValueError("model names must be non-empty and free of '@'")
        if not isinstance(artifact, PolicyArtifact):
            raise TypeError("only PolicyArtifact instances can be published")
        with self._lock:
            if name in self._aliases:
                raise ValueError(f"{name!r} is an alias, not a model name")
            versions = self._models.setdefault(name, [])
            versions.append(artifact)
            version = len(versions)
        self._journal("publish", labels={"model": name},
                      version=version, artifact_kind=artifact.kind)
        return version

    def alias(
        self, alias: str, target: str, version: Optional[int] = None
    ) -> None:
        """Point ``alias`` at ``target`` (latest when ``version`` is None)."""
        if not alias or "@" in alias:
            raise ValueError("aliases must be non-empty and free of '@'")
        with self._lock:
            if alias in self._models:
                raise ValueError(f"{alias!r} is already a model name")
            if target not in self._models:
                raise KeyError(f"unknown model {target!r}")
            if version is not None:
                self._get_artifact(target, version)  # in-range, not retired
            self._aliases[alias] = (target, version)
        self._journal("alias_move", labels={"alias": alias,
                                            "model": target},
                      version=version)

    def publish_tombstone(self, name: str) -> int:
        """Append an already-retired version slot (replica replay only).

        When a replacement shard replays the cluster's linearized
        control log, versions that were retired before it was born must
        still occupy their slots — version numbers are stable
        identifiers, and a replica that compacted them away would
        resolve ``name@k`` to the wrong artifact.  The artifact bytes
        themselves are gone (retire released the shared segment), so
        the slot is born as a tombstone.  Returns the version number,
        which the caller cross-checks against the log.
        """
        if not name or "@" in name:
            raise ValueError("model names must be non-empty and free of '@'")
        with self._lock:
            if name in self._aliases:
                raise ValueError(f"{name!r} is an alias, not a model name")
            versions = self._models.setdefault(name, [])
            versions.append(None)
            return len(versions)

    def rollback_publish(self, name: str, version: int) -> None:
        """Crash-consistency helper: remove a *just-published latest*.

        Exists for replicated registries (the cluster tier): when a
        publish broadcast fails partway, every replica that applied it
        — and the parent mirror — must drop the new version again or
        the replicas diverge.  This is NOT retire: it only accepts the
        current latest version, refuses if a pinned alias already
        points at it, and removes the slot entirely (the number will be
        reused by the retried publish, which is the point — replicas
        must agree on numbering).
        """
        with self._lock:
            versions = self._models.get(name)
            if not versions or len(versions) != version:
                raise ValueError(
                    f"rollback_publish only removes the current latest "
                    f"of {name!r}, not version {version}"
                )
            holders = [
                alias for alias, (target, pinned) in self._aliases.items()
                if target == name and pinned == version
            ]
            if holders:
                raise ValueError(
                    f"cannot roll back {name}@{version}: alias(es) "
                    f"{sorted(holders)} already pin it"
                )
            versions.pop()
            if not versions or all(v is None for v in versions):
                # Nothing servable remains (first publish rolled back,
                # or only tombstones left) — drop the model entirely so
                # names()/latest_version() never advertise a model that
                # every bare-name reference would fail to resolve.
                # Aliases can only target it untracked (pins at retired
                # versions are impossible), so they go too.
                del self._models[name]
                for alias in [
                    a for a, (target, _v) in self._aliases.items()
                    if target == name
                ]:
                    del self._aliases[alias]
        self._journal("rollback", severity="error",
                      labels={"model": name}, version=version)

    def retire(self, name: str, version: int) -> None:
        """Delete one old version so long-running servers don't leak
        artifacts.

        Refuses (``ValueError``) to retire the *latest* version — that
        is what bare-name and latest-tracking-alias references serve —
        or a version a pinned alias still points at.  The slot becomes a
        tombstone: later versions keep their numbers, and resolving the
        retired reference raises ``KeyError``.
        """
        with self._lock:
            if name in self._aliases:
                raise ValueError(f"{name!r} is an alias, not a model name")
            if name not in self._models:
                raise KeyError(f"unknown model {name!r}")
            self._get_artifact(name, version)  # in-range, not yet retired
            versions = self._models[name]
            if version == self._effective_latest(versions):
                raise ValueError(
                    f"cannot retire {name}@{version}: it is the latest "
                    f"live version (publish a newer one first)"
                )
            holders = sorted(
                alias for alias, (target, pinned) in self._aliases.items()
                if target == name and pinned == version
            )
            if holders:
                raise ValueError(
                    f"cannot retire {name}@{version}: pinned alias(es) "
                    f"{holders} still route traffic to it"
                )
            versions[version - 1] = None

    # -- resolution ------------------------------------------------------
    def resolve(self, ref: str) -> ResolvedModel:
        """Resolve a reference to an exact (name, version, artifact)."""
        with self._lock:
            name, version = ref, None
            if name in self._aliases:
                name, version = self._aliases[name]
            elif "@" in name:
                name, _, suffix = name.partition("@")
                try:
                    version = int(suffix)
                except ValueError:
                    raise KeyError(f"bad version in reference {ref!r}")
            versions = self._models.get(name)
            if versions is None:
                raise KeyError(f"unknown model {ref!r}")
            if version is None:
                version = self._effective_latest(versions)
            return ResolvedModel(
                name, version, self._get_artifact(name, version)
            )

    def resolve_many(
        self, refs
    ) -> Dict[str, Optional[ResolvedModel]]:
        """Resolve several references under one lock acquisition.

        Unresolvable references map to None.  Because all resolutions
        share one critical section, a concurrent publish cannot land
        between them — the batcher uses this so one flush serves one
        version per model, even when clients mix aliases and canonical
        names.
        """
        with self._lock:
            out: Dict[str, Optional[ResolvedModel]] = {}
            for ref in refs:
                try:
                    out[ref] = self.resolve(ref)
                except KeyError:
                    out[ref] = None
            return out

    @staticmethod
    def _effective_latest(versions: List[Optional[PolicyArtifact]]) -> int:
        """The version bare-name traffic serves: the highest live slot
        (trailing tombstones from rolled-back publishes are skipped).
        The single definition of "latest" — resolve, retire's guard,
        and latest_version must never disagree on it."""
        version = len(versions)
        while version > 1 and versions[version - 1] is None:
            version -= 1
        return version

    def _get_artifact(self, name: str, version: int) -> PolicyArtifact:
        """Version bounds + tombstone check (caller holds the lock)."""
        versions = self._models[name]
        count = len(versions)
        if not 1 <= version <= count:
            raise KeyError(
                f"model {name!r} has versions 1..{count}, not {version}"
            )
        artifact = versions[version - 1]
        if artifact is None:
            raise KeyError(f"version {name}@{version} has been retired")
        return artifact

    # -- inspection ------------------------------------------------------
    def names(self) -> List[str]:
        """Sorted model names with at least one version slot (live or
        tombstoned)."""
        with self._lock:
            return sorted(self._models)

    def aliases(self) -> Dict[str, Tuple[str, Optional[int]]]:
        """Alias table snapshot: ``alias -> (target, pinned_version)``
        (``pinned_version`` is None for latest-tracking aliases)."""
        with self._lock:
            return dict(self._aliases)

    def fingerprint(self) -> Dict[str, Any]:
        """Replica-comparison view of the full registry state.

        Maps every model to its ordered version slots — each the
        artifact's ``content_hash`` or None for a tombstone — plus the
        alias table.  Two replicas kept in lockstep must produce
        *identical* fingerprints (the cluster tier's replacement-replay
        tests compare them byte for byte via ``repr``).
        """
        with self._lock:
            return {
                "models": {
                    name: [
                        art.content_hash if art is not None else None
                        for art in versions
                    ]
                    for name, versions in sorted(self._models.items())
                },
                "aliases": {
                    alias: tuple(target)
                    for alias, target in sorted(self._aliases.items())
                },
            }

    def latest_version(self, name: str) -> int:
        """Highest *live* version number (what a bare-name reference
        serves) — trailing tombstones are skipped, matching
        :meth:`resolve`'s latest semantics."""
        with self._lock:
            if name not in self._models:
                raise KeyError(f"unknown model {name!r}")
            return self._effective_latest(self._models[name])

    def live_versions(self, name: str) -> List[int]:
        """Version numbers of ``name`` that have not been retired."""
        with self._lock:
            if name not in self._models:
                raise KeyError(f"unknown model {name!r}")
            return [
                i + 1 for i, art in enumerate(self._models[name])
                if art is not None
            ]

    def __contains__(self, ref: str) -> bool:
        """Whether ``ref`` (name, ``name@k``, or alias) resolves to a
        live artifact."""
        try:
            self.resolve(ref)
            return True
        except KeyError:
            return False


def registry_backend_report(registry: ModelRegistry) -> Dict[str, Any]:
    """Per-model backend view over every live version in ``registry``.

    Maps model name -> summed native/numpy/fallback row counters plus a
    per-version breakdown (stats + kernel provenance).  Models whose
    artifacts carry no flat arrays (teachers, plain functions) report
    ``backend: "numpy-only"``.  Shared by :meth:`PolicyServer
    <repro.serve.server.PolicyServer>` and the cluster workers'
    ``backend_report`` op, so the single-process and sharded views
    aggregate identically.
    """
    report: Dict[str, Any] = {}
    for name in registry.names():
        try:
            versions = registry.live_versions(name)
        except KeyError:  # pragma: no cover - names() raced a delete
            continue
        entry: Dict[str, Any] = {
            "native_rows": 0, "numpy_rows": 0, "fallback_rows": 0,
            "versions": {},
        }
        tree_backed = False
        statuses = set()
        for version in versions:
            try:
                artifact = registry.resolve(f"{name}@{version}").artifact
            except KeyError:  # retired between the two reads
                continue
            stats = artifact.backend_stats()
            if stats is None:
                entry["versions"][str(version)] = None
                continue
            tree_backed = True
            statuses.add((stats.get("kernel") or {}).get("status"))
            entry["versions"][str(version)] = stats
            for key in ("native_rows", "numpy_rows", "fallback_rows"):
                entry[key] += int(stats.get(key, 0))
        # The label answers "what serves this model's traffic":
        # numpy-only (no flat arrays to compile), native (a compiled
        # kernel is attached), compiling (numpy serves while the
        # tier's compile thread builds the kernel — a healthy publish,
        # not a degradation), numpy-fallback (tree-backed, wanted a
        # kernel, could not get one — the row counters say how much
        # traffic that cost), or numpy (the operator pinned
        # REPRO_TREE_BACKEND=numpy at publish, or no serving tier
        # published it — by choice, not degradation).
        if not tree_backed:
            entry["backend"] = "numpy-only"
        elif "ready" in statuses:
            entry["backend"] = "native"
        elif "compiling" in statuses:
            entry["backend"] = "compiling"
        elif "unavailable" in statuses:
            entry["backend"] = "numpy-fallback"
        else:
            entry["backend"] = "numpy"
        report[name] = entry
    return report
