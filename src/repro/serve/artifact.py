"""Immutable, servable policy artifacts.

The paper's deployment story (§6.4) swaps a distilled tree *under the
same serving stack* as the DNN it replaces.  For that to be a swap rather
than a rewrite, both sides must compile to the same serving contract.
:class:`PolicyArtifact` is that contract: a frozen bundle of

* a batched decision function ``predict_batch`` — ``(n, d) -> (n,)``
  actions (or ``(n, k)`` outputs for regression policies),
* feature-count / action-space metadata the serving boundary validates
  requests against,
* a content hash so registry versions are attributable and tamper-evident
  (for snapshot artifacts — trees, plain functions — two artifacts with
  the same hash serve identical decisions; teacher artifacts are
  live-bound, see :meth:`PolicyArtifact.from_teacher` and
  :meth:`PolicyArtifact.is_intact`),
* optionally, the ``tree_to_python`` codegen source for tree policies —
  the dependency-free single-decision closure the on-device story uses.

Anything that answers decisions can be packaged: fitted CART trees (flat
arrays, snapshot semantics — later pruning of the source tree does not
mutate a published artifact), numpy MLP teachers (Pensieve, AuTO-lRLA),
or an arbitrary batch function.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence

import numpy as np

from repro.core.tree import native
from repro.core.tree.cart import DecisionTreeClassifier, _BaseTree
from repro.core.tree.codegen import tree_to_python
from repro.core.tree.flat import FlatTree

#: FlatTree fields a tree artifact's content hash covers, in hash order.
#: The same arrays are what the cluster ships through shared memory, so
#: a worker can re-hash exactly what it reconstructed.
TREE_HASH_FIELDS = (
    "feature", "threshold", "children_left", "children_right", "value",
)


def _hash_arrays(arrays: Sequence[np.ndarray]) -> str:
    """Stable short content hash over an array sequence."""
    digest = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        digest.update(str(arr.shape).encode())
        digest.update(str(arr.dtype).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()[:16]


def _find_weights(obj: Any) -> Optional[Sequence[np.ndarray]]:
    """Best-effort weight discovery for hashing teacher-backed artifacts.

    Walks the common teacher shapes in this repo: ``obj.net``,
    ``obj.policy.net`` (PensieveTeacher), ``obj.lrla.net`` (AutoTeacher).
    """
    candidates = [obj]
    for attr in ("net", "policy", "lrla"):
        sub = getattr(obj, attr, None)
        if sub is not None:
            candidates.append(sub)
            net = getattr(sub, "net", None)
            if net is not None:
                candidates.append(net)
    for cand in candidates:
        getter = getattr(cand, "get_weights", None)
        if callable(getter):
            return getter()
    return None


@dataclass(frozen=True, eq=False)
class PolicyArtifact:
    """One servable, versioned policy.

    Attributes:
        name: human label (the registry key is chosen at publish time).
        kind: "tree-classifier", "tree-regressor", "teacher", or
            "function".
        n_features: expected state dimensionality; the serve boundary
            rejects requests that do not match.
        n_outputs: action-space size (classifiers/teachers) or output
            dimensionality (regressors).
        predict_batch: the batched decision function ``(n, d) -> (n,)``
            or ``(n, k)``.
        content_hash: 16-hex-digit content hash (tree arrays / network
            weights); responses are attributable to exactly this bundle.
        source: optional generated single-decision source code
            (``tree_to_python``), the on-device artifact of §6.4.
        meta: free-form extra metadata (leaf counts, teacher names, ...).
        flat: for tree artifacts, the snapshot :class:`FlatTree` backing
            ``predict_batch`` — the contiguous arrays the cluster tier
            ships to worker processes through shared memory.
    """

    name: str
    kind: str
    n_features: int
    n_outputs: int
    predict_batch: Callable[[np.ndarray], np.ndarray]
    content_hash: str
    source: Optional[str] = None
    meta: Dict[str, Any] = field(default_factory=dict)
    flat: Optional[FlatTree] = None

    def __post_init__(self) -> None:
        if self.n_features < 1:
            raise ValueError("n_features must be positive")
        if self.n_outputs < 1:
            raise ValueError("n_outputs must be positive")
        if not callable(self.predict_batch):
            raise TypeError("predict_batch must be callable")

    # -- constructors ----------------------------------------------------
    @classmethod
    def from_tree(
        cls,
        tree: _BaseTree,
        name: str = "tree",
        codegen: bool = True,
    ) -> "PolicyArtifact":
        """Compile a fitted CART tree into an artifact.

        The flat arrays are captured *now*: pruning or refitting the tree
        afterwards does not change what a published artifact serves.
        Classification trees also carry their ``tree_to_python`` source
        when ``codegen`` is set (regression trees have no codegen path).
        """
        if tree.root is None:
            raise RuntimeError("tree is not fitted")
        is_classifier = isinstance(tree, DecisionTreeClassifier)
        source = (
            tree_to_python(tree) if (codegen and is_classifier) else None
        )
        return cls.from_flat(
            tree.flat,
            name=name,
            kind="tree-classifier" if is_classifier else "tree-regressor",
            n_features=int(tree.n_features),
            source=source,
        )

    @classmethod
    def from_flat(
        cls,
        flat: FlatTree,
        name: str,
        kind: str,
        n_features: int,
        source: Optional[str] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> "PolicyArtifact":
        """Build an artifact directly from a :class:`FlatTree` snapshot.

        This is the worker-side constructor of the cluster tier: a
        shard reconstructs the flat arrays from shared memory and
        rebuilds the exact artifact the parent published (the content
        hash, computed over the same arrays, proves it).
        """
        if kind not in ("tree-classifier", "tree-regressor"):
            raise ValueError(f"from_flat cannot build kind {kind!r}")
        content = _hash_arrays(
            [getattr(flat, field_) for field_ in TREE_HASH_FIELDS]
        )
        if kind == "tree-classifier":
            predict = flat.predict_class
            n_outputs = flat.n_outputs  # class count
        else:
            n_out = flat.n_outputs

            def predict(x, _flat=flat, _n=n_out):
                values = _flat.leaf_values(x)
                return values[:, 0] if _n == 1 else values

            n_outputs = n_out
        full_meta = {
            "n_leaves": int(flat.n_leaves),
            "depth": int(flat.max_depth),
        }
        if meta:
            full_meta.update(meta)
        return cls(
            name=name,
            kind=kind,
            n_features=int(n_features),
            n_outputs=int(n_outputs),
            predict_batch=predict,
            content_hash=content,
            source=source,
            meta=full_meta,
            flat=flat,
        )

    @classmethod
    def from_teacher(
        cls,
        teacher: Any,
        n_features: int,
        name: Optional[str] = None,
        n_outputs: Optional[int] = None,
    ) -> "PolicyArtifact":
        """Wrap a teacher exposing ``act_greedy_batch`` (numpy MLP path).

        The content hash is taken from the teacher's network weights when
        they are discoverable (all teachers in this repo expose
        ``get_weights`` somewhere); otherwise from the class name, which
        still versions but no longer detects weight changes.

        **Live-binding caveat** (unlike tree artifacts, which snapshot
        their flat arrays): ``predict_batch`` stays bound to the live
        teacher, so training it after publish changes served decisions
        while ``content_hash`` keeps recording the publish-time weights.
        Publish a fresh version after further training — or distill to a
        tree artifact for truly immutable serving.  :meth:`is_intact`
        detects drift by re-hashing the current weights.
        """
        fn = getattr(teacher, "act_greedy_batch", None)
        if fn is None:
            raise TypeError("teacher must expose act_greedy_batch")
        weights = _find_weights(teacher)
        if weights:
            content = _hash_arrays(list(weights))
        else:
            content = hashlib.sha256(
                type(teacher).__name__.encode()
            ).hexdigest()[:16]
        if n_outputs is None:
            n_outputs = int(getattr(teacher, "n_actions", 0)) or 1
        return cls(
            name=name or getattr(teacher, "name", type(teacher).__name__),
            kind="teacher",
            n_features=int(n_features),
            n_outputs=int(n_outputs),
            predict_batch=fn,
            content_hash=content,
            meta={"teacher": type(teacher).__name__},
        )

    @classmethod
    def from_policy(cls, policy: Any, name: Optional[str] = None,
                    n_features: Optional[int] = None) -> "PolicyArtifact":
        """Dispatch on the repo's policy shapes (DistilledPolicy, teachers)."""
        tree = getattr(policy, "tree", None)
        if isinstance(tree, _BaseTree):
            return cls.from_tree(
                tree, name=name or getattr(policy, "name", "tree")
            )
        if n_features is None:
            raise ValueError(
                "n_features is required for non-tree policies"
            )
        return cls.from_teacher(policy, n_features, name=name)

    # -- compiled backend ------------------------------------------------
    def compile_native(self, compile: bool = True,
                       cancel: Optional[threading.Event] = None) -> bool:
        """Attach this artifact's native kernel and record the outcome
        in ``meta["kernel"]``; returns whether a kernel is attached.

        Loads the kernel from the cache, or compiles it when ``compile``
        is set.  A serving tier's compile thread
        (:class:`repro.serve.kernels.KernelCompiler`) calls this off the
        publish path, and at publish only forced ``native`` mode does,
        because that mode's contract is every predict through the
        kernel.  A cache miss with ``compile`` unset, or a compile
        stopped through ``cancel``, records nothing: the kernel may
        still be on its way.  Best-effort by contract: a missing
        compiler or failed compile records ``status: "unavailable"``
        with the reason and returns False — the artifact keeps serving
        through the numpy backend.  Never raises.
        """
        if self.flat is None:
            return False
        try:
            if native.backend_mode() == "numpy":
                self.meta["kernel"] = {"status": "disabled"}
                return False
            kernel = self.flat.native_kernel(compile=compile, cancel=cancel)
        except Exception as exc:  # noqa: BLE001 - publish must survive
            self.meta["kernel"] = {
                "status": "unavailable", "error": str(exc),
            }
            return False
        if kernel is None:
            if compile and not (cancel is not None and cancel.is_set()):
                self.meta["kernel"] = {
                    "status": "unavailable",
                    "error": native.last_error() or "unknown",
                }
            return False
        self.meta["kernel"] = {
            "status": "ready",
            "hash": kernel.hash,
            "nodes": kernel.node_count,
            **{k: kernel.provenance[k]
               for k in ("compiler", "flags", "quantized", "kernel_api")
               if k in kernel.provenance},
        }
        return True

    def backend_stats(self) -> Optional[Dict[str, Any]]:
        """Per-artifact backend view: rows served native vs numpy, the
        fallback counter, and kernel provenance.  None for artifacts
        without flat arrays (teachers/functions are numpy-only)."""
        if self.flat is None:
            return None
        stats: Dict[str, Any] = dict(self.flat.backend_stats)
        stats["kernel"] = dict(self.meta.get("kernel") or {}) or None
        return stats

    # -- integrity -------------------------------------------------------
    def fingerprint(self) -> str:
        """Re-hash the current backing state.

        Tree/function artifacts are snapshots, so this is always the
        published ``content_hash``; teacher artifacts are live-bound
        (see :meth:`from_teacher`), so a fingerprint that no longer
        matches means the teacher's weights changed under a published
        version.
        """
        if self.kind != "teacher":
            return self.content_hash
        owner = getattr(self.predict_batch, "__self__", None)
        weights = _find_weights(owner) if owner is not None else None
        if not weights:
            return self.content_hash
        return _hash_arrays(list(weights))

    def is_intact(self) -> bool:
        """Whether serving still matches the published content hash."""
        return self.fingerprint() == self.content_hash

    # -- single-decision closure -----------------------------------------
    def compile_single(self) -> Callable[[Sequence[float]], int]:
        """Exec the codegen source into a dependency-free callable.

        Only available for artifacts carrying generated source
        (classification trees built with ``codegen=True``).
        """
        if self.source is None:
            raise RuntimeError(
                f"artifact {self.name!r} carries no generated source"
            )
        namespace: dict = {}
        exec(self.source, namespace)  # noqa: S102 - our own generated code
        fns = [v for k, v in namespace.items() if callable(v)]
        return fns[0]

    def __repr__(self) -> str:  # keep the callable out of the repr
        return (
            f"PolicyArtifact(name={self.name!r}, kind={self.kind!r}, "
            f"n_features={self.n_features}, n_outputs={self.n_outputs}, "
            f"hash={self.content_hash})"
        )
