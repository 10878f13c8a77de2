"""Flattened array representation of a fitted CART tree.

The linked :class:`~repro.core.tree.cart.Node` structure is convenient to
*grow* (best-first expansion mutates nodes in place) but terrible to
*serve*: per-row Python traversal chases pointers and re-enters the
interpreter for every comparison.  ``FlatTree`` stores the finished tree
as contiguous numpy arrays (sklearn ``tree_`` style) and answers batch
queries with level-wise index propagation — a handful of vectorized ops
per tree level instead of a Python loop per row.

Array layout (all length ``node_count``, preorder: a node is followed by
its entire left subtree, then its right subtree — so node ids are
bit-compatible with the legacy ``iter_nodes`` preorder ids):

* ``feature``        — split feature per node, ``-1`` for leaves;
* ``threshold``      — split point; rows with ``x[feature] < threshold``
  go left;
* ``children_left``  / ``children_right`` — child node ids, ``-1`` for
  leaves;
* ``value``          — ``(node_count, n_outputs)`` leaf/internal value
  vectors (class distribution or mean output);
* ``n_samples``      — weighted sample count reaching each node;
* ``impurity``       — weighted impurity per node;
* ``depths``         — comparisons needed to reach each node (root = 0),
  derived, used for latency proxies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

import repro.core.tree.native as _native

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.tree.cart import Node


@dataclass(eq=False)
class FlatTree:
    """Array-based inference engine for a fitted decision tree."""

    feature: np.ndarray
    threshold: np.ndarray
    children_left: np.ndarray
    children_right: np.ndarray
    value: np.ndarray
    n_samples: np.ndarray
    impurity: np.ndarray
    depths: np.ndarray = field(init=False)
    value_argmax: np.ndarray = field(init=False)
    feature_safe: np.ndarray = field(init=False)
    children_flat: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        n = self.feature.shape[0]
        for name in ("threshold", "children_left", "children_right",
                     "n_samples", "impurity"):
            if getattr(self, name).shape[0] != n:
                raise ValueError(f"{name} length mismatch with feature")
        if self.value.ndim != 2 or self.value.shape[0] != n:
            raise ValueError("value must be (node_count, n_outputs)")
        self.depths = self._compute_depths()
        # Precomputed per-node argmax: classifier predict becomes a pure
        # gather, no (n_rows, n_classes) intermediate.
        self.value_argmax = self.value.argmax(axis=1)
        # Dispatch tables for the branch-free batch walk: leaves loop to
        # themselves (their feature is remapped to 0 so gathers stay in
        # bounds — the comparison result is irrelevant for a self-loop).
        leaf = self.feature < 0
        self.feature_safe = np.where(leaf, 0, self.feature)
        self_idx = np.arange(self.feature.shape[0], dtype=np.intp)
        left_safe = np.where(leaf, self_idx, self.children_left)
        right_safe = np.where(leaf, self_idx, self.children_right)
        # children_flat[2 * node + go_right] -> next node id.
        self.children_flat = np.empty(2 * self.feature.shape[0],
                                      dtype=np.intp)
        self.children_flat[0::2] = left_safe
        self.children_flat[1::2] = right_safe
        # Compiled-backend state (see repro.core.tree.native): the
        # dlopened kernel once attached, whether a compile/load for
        # this tree already failed (don't retry per batch), whether the
        # disk cache was already probed, and per-tree row counters.
        self._native = None
        self._native_failed = False
        self._native_probed = False
        self.backend_stats = {
            "native_rows": 0, "numpy_rows": 0, "fallback_rows": 0,
        }

    # -- construction ----------------------------------------------------
    @classmethod
    def from_node(cls, root: "Node") -> "FlatTree":
        """Flatten a linked subtree, iteratively (deep trees are fine).

        Nodes are laid out in preorder so ids match the legacy
        ``iter_nodes`` numbering exactly.
        """
        if root is None:
            raise ValueError("cannot flatten an empty tree")
        feature: List[int] = []
        threshold: List[float] = []
        left: List[int] = []
        right: List[int] = []
        values: List[np.ndarray] = []
        n_samples: List[float] = []
        impurity: List[float] = []
        # (node, parent index, 0 = left child / 1 = right child)
        stack: List[Tuple["Node", int, int]] = [(root, -1, 0)]
        while stack:
            node, parent, side = stack.pop()
            i = len(feature)
            if parent >= 0:
                (left if side == 0 else right)[parent] = i
            feature.append(node.feature if not node.is_leaf else -1)
            threshold.append(float(node.threshold))
            left.append(-1)
            right.append(-1)
            values.append(np.asarray(node.value, dtype=float))
            n_samples.append(float(node.n_samples))
            impurity.append(float(node.impurity))
            if not node.is_leaf:
                stack.append((node.right, i, 1))
                stack.append((node.left, i, 0))
        return cls(
            feature=np.asarray(feature, dtype=np.intp),
            threshold=np.asarray(threshold, dtype=float),
            children_left=np.asarray(left, dtype=np.intp),
            children_right=np.asarray(right, dtype=np.intp),
            value=np.stack(values),
            n_samples=np.asarray(n_samples, dtype=float),
            impurity=np.asarray(impurity, dtype=float),
        )

    @classmethod
    def from_arrays(cls, arrays: dict) -> "FlatTree":
        """Rebuild from the plain-list dict produced by :meth:`to_arrays`."""
        return cls(
            feature=np.asarray(arrays["feature"], dtype=np.intp),
            threshold=np.asarray(arrays["threshold"], dtype=float),
            children_left=np.asarray(arrays["children_left"], dtype=np.intp),
            children_right=np.asarray(arrays["children_right"], dtype=np.intp),
            value=np.atleast_2d(np.asarray(arrays["value"], dtype=float)),
            n_samples=np.asarray(arrays["n_samples"], dtype=float),
            impurity=np.asarray(arrays["impurity"], dtype=float),
        )

    def to_arrays(self) -> dict:
        """JSON-serializable dict of the arrays."""
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "children_left": self.children_left.tolist(),
            "children_right": self.children_right.tolist(),
            "value": self.value.tolist(),
            "n_samples": self.n_samples.tolist(),
            "impurity": self.impurity.tolist(),
        }

    def to_node(self) -> "Node":
        """Rebuild the linked ``Node`` form (build-time structure)."""
        from repro.core.tree.cart import Node

        nodes = [
            Node(
                feature=int(self.feature[i]),
                threshold=float(self.threshold[i]),
                value=self.value[i].copy(),
                n_samples=float(self.n_samples[i]),
                impurity=float(self.impurity[i]),
            )
            for i in range(self.node_count)
        ]
        for i in range(self.node_count):
            if self.children_left[i] >= 0:
                nodes[i].left = nodes[self.children_left[i]]
                nodes[i].right = nodes[self.children_right[i]]
        return nodes[0]

    def _compute_depths(self) -> np.ndarray:
        # Preorder guarantees children come after their parent, so one
        # forward pass suffices.
        depths = np.zeros(self.feature.shape[0], dtype=np.intp)
        internal = np.nonzero(self.feature >= 0)[0]
        for i in internal:
            depths[self.children_left[i]] = depths[i] + 1
            depths[self.children_right[i]] = depths[i] + 1
        return depths

    # -- inspection ------------------------------------------------------
    @property
    def node_count(self) -> int:
        return int(self.feature.shape[0])

    @property
    def leaf_mask(self) -> np.ndarray:
        return self.feature < 0

    @property
    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.feature < 0))

    @property
    def n_outputs(self) -> int:
        return int(self.value.shape[1])

    @property
    def max_depth(self) -> int:
        return int(self.depths.max()) if self.node_count else 0

    # -- compiled backend ------------------------------------------------
    def attach_kernel(self, kernel) -> None:
        """Adopt an already-loaded native kernel; ``None`` records that
        this tree gets none (its numpy rows then count as fallback)."""
        self._native = kernel
        self._native_failed = kernel is None
        self._native_probed = True

    def native_kernel(self, compile: bool = True, cancel=None):
        """The attached/cached/compiled kernel for this tree, or None.

        With ``compile`` unset this only probes the cache.  Best-effort
        by contract (never raises): a missing compiler, a failed
        compile, or a corrupt cache entry just returns None and the
        numpy backend keeps serving.  A compile stopped through
        ``cancel`` (see :func:`~repro.core.tree.native.ensure_kernel`)
        records no failure.
        """
        if self._native is not None:
            return self._native
        if self._native_failed:
            return None
        kernel = _native.ensure_kernel(self, compile=compile, cancel=cancel)
        self._native_probed = True
        if kernel is not None:
            self._native = kernel
        elif compile and not (cancel is not None and cancel.is_set()):
            self._native_failed = True
        return kernel

    def _backend_kernel(self, mode: str):
        """Kernel to use under ``mode``, or None.

        ``native`` always tries, compiling if needed.  ``auto`` never
        compiles: it uses an attached kernel and probes the disk cache
        once.
        """
        if mode == "numpy" or self.feature[0] < 0:
            return None
        if self._native is not None:
            return self._native
        if self._native_failed or (mode == "auto" and self._native_probed):
            return None
        return self.native_kernel(compile=mode == "native")

    def _native_disable(self) -> None:
        """A kernel call blew up mid-serve: drop to numpy permanently
        for this tree and make the degradation metrics-visible."""
        self._native = None
        self._native_failed = True
        _native._bump("load_failures")
        _native._note_error("kernel call failed mid-batch")

    def _count_numpy(self, rows: int, mode: str) -> None:
        self.backend_stats["numpy_rows"] += rows
        # Only count a *fallback* when native was expected: forced
        # native mode, or auto mode after a failed compile/load.  Auto
        # serving numpy while no kernel is attached yet (a serving
        # tier's compile is still running, or nobody asked for one) is
        # policy, not degradation.
        if mode == "native" or (mode == "auto" and self._native_failed):
            self.backend_stats["fallback_rows"] += rows
            _native.note_fallback(rows)

    # -- vectorized inference --------------------------------------------
    def apply(self, x: np.ndarray,
              backend: Optional[str] = None) -> np.ndarray:
        """Leaf id (preorder index) each row lands in, fully vectorized.

        Level-wise index propagation: every iteration advances all rows
        still at an internal node one level down; rows that reached a
        leaf drop out.  Comparison semantics match the legacy per-row
        walk exactly (``<`` goes left, everything else — including NaN —
        goes right).

        ``backend`` selects the engine per call: ``"numpy"`` (the walks
        below), ``"native"`` (the compiled kernel, falling back to numpy
        if unavailable), or ``"auto"``; None defers to
        ``REPRO_TREE_BACKEND`` and defaults to auto.  Every backend
        returns bit-identical leaf ids.
        """
        x = np.ascontiguousarray(np.asarray(x, dtype=float))
        if x.ndim != 2:
            raise ValueError("apply expects a 2-D matrix")
        n = x.shape[0]
        if self.feature[0] < 0:
            self.backend_stats["numpy_rows"] += n
            return np.zeros(n, dtype=np.intp)
        mode = _native.backend_mode(backend)
        kernel = self._backend_kernel(mode)
        if kernel is not None:
            try:
                out = kernel.apply(x)
            except Exception:  # noqa: BLE001 - degrade, never fail serve
                self._native_disable()
            else:
                self.backend_stats["native_rows"] += n
                return out
        self._count_numpy(n, mode)
        if self.max_depth <= 64:
            return self._apply_dense(x)
        return self._apply_compacting(x)

    def _apply_dense(self, x: np.ndarray) -> np.ndarray:
        """Branch-free walk for shallow (balanced) trees.

        All rows advance ``max_depth`` levels through the dispatch
        tables; rows that reached a leaf early self-loop there, so no
        per-level leaf check or row compaction is needed.  Each level is
        four ``take`` gathers, one comparison, and one fused index
        computation over the full batch.
        """
        n, n_feat = x.shape
        x_flat = x.reshape(-1)
        row_base = np.arange(n, dtype=np.intp) * n_feat
        cur = np.zeros(n, dtype=np.intp)
        for _ in range(self.max_depth):
            flat_idx = self.feature_safe.take(cur)
            flat_idx += row_base
            vals = x_flat.take(flat_idx)
            # NaN compares false -> go right, matching the node walk.
            go_right = ~(vals < self.threshold.take(cur))
            cur *= 2
            cur += go_right
            cur = self.children_flat.take(cur)
        return cur

    def _apply_compacting(self, x: np.ndarray) -> np.ndarray:
        """Row-compacting walk for deep (chain-shaped) trees, where the
        dense walk would drag every finished row through thousands of
        no-op levels."""
        n = x.shape[0]
        out = np.zeros(n, dtype=np.intp)
        rows = np.arange(n, dtype=np.intp)
        cur = np.zeros(n, dtype=np.intp)
        feature = self.feature
        threshold = self.threshold
        left = self.children_left
        right = self.children_right
        while rows.size:
            go_left = x[rows, feature[cur]] < threshold[cur]
            cur = np.where(go_left, left[cur], right[cur])
            at_leaf = feature[cur] < 0
            if at_leaf.any():
                out[rows[at_leaf]] = cur[at_leaf]
                keep = ~at_leaf
                rows = rows[keep]
                cur = cur[keep]
        return out

    def leaf_values(self, x: np.ndarray,
                    backend: Optional[str] = None) -> np.ndarray:
        """Value vector of the leaf each row lands in."""
        return self.value[self.apply(x, backend=backend)]

    def predict_class(self, x: np.ndarray,
                      backend: Optional[str] = None) -> np.ndarray:
        """Argmax class per row via the precomputed per-leaf argmax.

        Bit-identical to ``np.argmax(leaf_values(x), axis=1)`` (numpy's
        argmax tie-breaking is applied once per node at build time), but
        skips the ``(n_rows, n_classes)`` intermediate entirely.  The
        native kernel bakes the same argmax table in, so its dedicated
        class entry point skips even the Python-side gather.
        """
        x = np.ascontiguousarray(np.asarray(x, dtype=float))
        if x.ndim == 2 and self.feature[0] >= 0:
            mode = _native.backend_mode(backend)
            kernel = self._backend_kernel(mode)
            if kernel is not None:
                try:
                    out = kernel.predict_class(x)
                except Exception:  # noqa: BLE001 - degrade transparently
                    self._native_disable()
                else:
                    self.backend_stats["native_rows"] += x.shape[0]
                    return out
        return self.value_argmax[self.apply(x, backend=backend)]

    def decision_path_length(self, x: np.ndarray,
                             backend: Optional[str] = None) -> np.ndarray:
        """Comparisons needed per row (the deployment latency proxy)."""
        return self.depths[self.apply(x, backend=backend)].astype(int)

    def visit_counts(self, x: np.ndarray) -> np.ndarray:
        """How many rows of ``x`` traverse each node (vectorized)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        counts = np.zeros(self.node_count, dtype=np.intp)
        n = x.shape[0]
        counts[0] = n
        idx = np.zeros(n, dtype=np.intp)
        rows = np.nonzero(self.feature[idx] >= 0)[0]
        while rows.size:
            cur = idx[rows]
            go_left = x[rows, self.feature[cur]] < self.threshold[cur]
            nxt = np.where(
                go_left, self.children_left[cur], self.children_right[cur]
            )
            idx[rows] = nxt
            np.add.at(counts, nxt, 1)
            rows = rows[self.feature[nxt] >= 0]
        return counts
