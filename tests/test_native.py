"""Tests for the compiled native inference tier (repro.core.tree.native).

The contract under test: every backend returns *bit-identical* results,
and every native failure — no compiler, corrupt cache entry, bad kernel
— degrades to numpy with a counter bump, never an exception.
"""

import threading

import numpy as np
import pytest

from repro.core.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.core.tree import native
from repro.core.tree.cart import Node
from repro.core.tree.flat import FlatTree
from repro.serve import ModelRegistry, PolicyArtifact, PolicyServer
from repro.serve.registry import registry_backend_report

HAS_CC = native.find_compiler() is not None
needs_cc = pytest.mark.skipif(not HAS_CC, reason="no C compiler on PATH")


@pytest.fixture(autouse=True)
def kernel_cache(tmp_path, monkeypatch):
    """Isolate every test: private kernel cache, zeroed counters, and no
    inherited backend forcing from the environment."""
    root = tmp_path / "kernels"
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(root))
    monkeypatch.delenv("REPRO_TREE_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_KERNEL_CACHE_LIMIT", raising=False)
    native.reset_native_stats()
    yield root
    native.reset_native_stats()


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(512, 6))
    y = ((x[:, 0] > 0) * 2 + (x[:, 1] + x[:, 2] > 0.3)).astype(int)
    tree = DecisionTreeClassifier(max_leaf_nodes=64).fit(x, y)
    # Awkward rows the kernel must handle like numpy: NaN and +-inf
    # compare false against any threshold, so they go right.
    hard = x.copy()
    hard[:7, 0] = np.nan
    hard[7:11, 1] = np.inf
    hard[11:15, 2] = -np.inf
    return tree, np.vstack([x, hard])


def fresh_flat(tree) -> FlatTree:
    """A FlatTree copy with no attached kernel or counter history."""
    return FlatTree.from_arrays(tree.flat.to_arrays())


def _chain_flat(depth: int) -> FlatTree:
    """A pathological chain tree ``depth`` internal nodes deep."""
    root = Node(feature=0, threshold=0.5, value=np.array([1.0, 0.0]))
    cur = root
    for i in range(depth):
        cur.left = Node(value=np.array([1.0, 0.0]))
        last = i == depth - 1
        cur.right = Node(
            feature=-1 if last else 0,
            threshold=float(i) + 1.5,
            value=np.array([0.0, 1.0]),
        )
        cur = cur.right
    return FlatTree.from_node(root)


class TestLayout:
    """BFS table construction and hashing (no compiler needed)."""

    def test_bfs_tables_shape_and_self_loops(self, fitted):
        tree, _ = fitted
        flat = tree.flat
        tables = native._bfs_tables(flat)
        n = flat.node_count
        assert tables["feat"].shape == (n,)
        assert tables["kids"].shape == (2 * n,)
        # The LEAF table is the BFS->preorder bijection.
        assert sorted(tables["leaf"].tolist()) == list(range(n))
        # Leaves self-loop in the packed children table.
        leaves = np.nonzero(tables["feat"] < 0)[0]
        assert np.array_equal(tables["kids"][2 * leaves], leaves)
        assert np.array_equal(tables["kids"][2 * leaves + 1], leaves)
        # Root of the BFS order is the preorder root.
        assert tables["leaf"][0] == 0

    def test_hash_is_content_based(self, fitted):
        tree, x = fitted
        a = native.kernel_hash(tree.flat)
        assert a == native.kernel_hash(fresh_flat(tree))
        rng = np.random.default_rng(3)
        other = DecisionTreeClassifier(max_leaf_nodes=4).fit(
            x[:100], (x[:100, 0] > 0).astype(int)
        )
        assert native.kernel_hash(other.flat) != a

    def test_source_embeds_abi_and_hash(self, fitted):
        tree, _ = fitted
        khash = native.kernel_hash(tree.flat)
        src = native.emit_kernel_source(tree.flat)
        for needle in ("repro_predict_batch", "repro_predict_class",
                       "repro_kernel_api", khash):
            assert needle in src
        assert src.count("{") == src.count("}")

    def test_backend_mode_resolution(self, monkeypatch):
        assert native.backend_mode() == "auto"
        monkeypatch.setenv("REPRO_TREE_BACKEND", "numpy")
        assert native.backend_mode() == "numpy"
        assert native.backend_mode("native") == "native"  # arg wins
        monkeypatch.setenv("REPRO_TREE_BACKEND", "cuda")
        with pytest.raises(ValueError, match="unknown tree backend"):
            native.backend_mode()

    def test_unkernelable_tree_counts_not_raises(self):
        # Feature ids beyond int16: no kernel, a counter, no exception.
        flat = FlatTree(
            feature=np.array([70_000, -1, -1], dtype=np.intp),
            threshold=np.array([0.5, 0.0, 0.0]),
            children_left=np.array([1, -1, -1], dtype=np.intp),
            children_right=np.array([2, -1, -1], dtype=np.intp),
            value=np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]),
            n_samples=np.ones(3),
            impurity=np.zeros(3),
        )
        assert native.ensure_kernel(flat) is None
        assert native.native_stats()["unkernelable"] == 1
        assert "int16" in native.last_error()


@needs_cc
class TestEquivalence:
    """Bit-for-bit agreement between the kernel and the numpy walks."""

    def test_apply_and_class_and_proba(self, fitted):
        tree, x = fitted
        flat = fresh_flat(tree)
        want_leaf = flat.apply(x, backend="numpy")
        want_cls = flat.predict_class(x, backend="numpy")
        want_val = flat.leaf_values(x, backend="numpy")
        assert np.array_equal(flat.apply(x, backend="native"), want_leaf)
        assert np.array_equal(
            flat.predict_class(x, backend="native"), want_cls
        )
        # leaf_values routes through apply, so proba vectors (and any
        # normalization of them) are bit-identical too.
        assert np.array_equal(
            flat.leaf_values(x, backend="native"), want_val
        )
        assert flat.backend_stats["native_rows"] > 0
        assert flat.backend_stats["fallback_rows"] == 0

    def test_wide_matrix_strides(self, fitted):
        # n_feat is a runtime argument, not baked in: a matrix wider
        # than the tree's feature span must index identically.
        tree, x = fitted
        flat = fresh_flat(tree)
        wide = np.hstack([x, np.full((x.shape[0], 3), 99.0)])
        assert np.array_equal(
            flat.apply(wide, backend="native"),
            flat.apply(wide, backend="numpy"),
        )

    def test_deep_chain_tree(self):
        flat = _chain_flat(2000)
        assert flat.max_depth > native.DENSE_DEPTH_LIMIT
        x = np.linspace(-5.0, 2005.0, 256).reshape(-1, 1)
        want = flat.apply(x, backend="numpy")
        got = _chain_flat(2000).apply(x, backend="native")
        assert np.array_equal(got, want)

    def test_single_leaf_short_circuits(self):
        flat = FlatTree(
            feature=np.array([-1], dtype=np.intp),
            threshold=np.zeros(1),
            children_left=np.array([-1], dtype=np.intp),
            children_right=np.array([-1], dtype=np.intp),
            value=np.array([[0.25, 0.75]]),
            n_samples=np.ones(1),
            impurity=np.zeros(1),
        )
        x = np.zeros((10, 3))
        assert np.array_equal(flat.apply(x, backend="native"), np.zeros(10))
        # A root-only tree never goes native (nothing to compile) and
        # that is not a fallback — it is the whole answer.
        assert flat.backend_stats["numpy_rows"] == 10
        assert flat.backend_stats["fallback_rows"] == 0

    def test_regressor_values(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, (400, 4))
        y = np.where(x[:, 0] > 0, x[:, 1], -x[:, 1])
        tree = DecisionTreeRegressor(max_leaf_nodes=32).fit(x, y)
        flat = fresh_flat(tree)
        assert np.array_equal(
            flat.leaf_values(x, backend="native"),
            flat.leaf_values(x, backend="numpy"),
        )

    def test_env_var_forces_native(self, fitted, monkeypatch):
        tree, x = fitted
        monkeypatch.setenv("REPRO_TREE_BACKEND", "native")
        flat = fresh_flat(tree)
        want = fresh_flat(tree).apply(x, backend="numpy")
        assert np.array_equal(flat.apply(x), want)
        assert flat.backend_stats["native_rows"] == x.shape[0]

    def test_auto_skips_compile_for_small_batches(self, fitted):
        tree, x = fitted
        flat = fresh_flat(tree)
        flat.apply(x[:16])  # auto, tiny batch: not worth a compile
        assert flat.backend_stats == {
            "native_rows": 0, "numpy_rows": 16, "fallback_rows": 0,
        }
        assert native.native_stats().get("compiles", 0) == 0


@needs_cc
class TestCache:
    """Content-hash cache: hits, healing, eviction, concurrency."""

    def test_cache_hit_after_compile(self, fitted, kernel_cache):
        tree, _ = fitted
        assert native.ensure_kernel(fresh_flat(tree)) is not None
        assert native.ensure_kernel(fresh_flat(tree)) is not None
        stats = native.native_stats()
        assert stats["compiles"] == 1
        assert stats["cache_hits"] == 1
        khash = native.kernel_hash(tree.flat)
        # The compile leaves full provenance next to the binary.
        assert (kernel_cache / f"{khash}.so").exists()
        assert (kernel_cache / f"{khash}.c").exists()
        assert (kernel_cache / f"{khash}.json").exists()

    def test_corrupt_so_heals_by_recompile(self, fitted, kernel_cache):
        tree, x = fitted
        khash = native.kernel_hash(tree.flat)
        kernel_cache.mkdir(parents=True, exist_ok=True)
        (kernel_cache / f"{khash}.so").write_bytes(b"not an ELF")
        flat = fresh_flat(tree)
        want = fresh_flat(tree).apply(x, backend="numpy")
        assert np.array_equal(flat.apply(x, backend="native"), want)
        stats = native.native_stats()
        assert stats["load_failures"] >= 1  # the corrupt entry
        assert stats["compiles"] == 1       # the heal
        assert flat.backend_stats["fallback_rows"] == 0

    def test_corrupt_so_without_compiler_falls_back(
        self, fitted, kernel_cache, monkeypatch
    ):
        tree, x = fitted
        khash = native.kernel_hash(tree.flat)
        kernel_cache.mkdir(parents=True, exist_ok=True)
        (kernel_cache / f"{khash}.so").write_bytes(b"not an ELF")
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        flat = fresh_flat(tree)
        want = fresh_flat(tree).apply(x, backend="numpy")
        assert np.array_equal(flat.apply(x, backend="native"), want)
        assert flat.backend_stats["fallback_rows"] == x.shape[0]
        assert native.native_stats()["compile_failures"] >= 1

    def test_lru_eviction_keeps_newest(self, kernel_cache, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_CACHE_LIMIT", "2")
        rng = np.random.default_rng(9)
        x = rng.uniform(0, 1, (200, 3))
        hashes = []
        for leaves in (2, 4, 8):
            y = (x[:, 0] > rng.uniform(0.3, 0.7)).astype(int)
            tree = DecisionTreeClassifier(max_leaf_nodes=leaves).fit(x, y)
            assert native.ensure_kernel(tree.flat) is not None
            hashes.append(native.kernel_hash(tree.flat))
        assert len(set(hashes)) == 3
        survivors = {p.stem for p in kernel_cache.glob("*.so")}
        assert len(survivors) == 2
        assert hashes[0] not in survivors  # oldest got evicted
        # Sidecars go with the binary: no orphaned .c / .json.
        for suffix in (".c", ".json"):
            assert {p.stem for p in kernel_cache.glob(f"*{suffix}")} \
                == survivors

    def test_concurrent_compiles_all_load(self, fitted):
        tree, x = fitted
        flats = [fresh_flat(tree) for _ in range(4)]
        kernels = [None] * 4
        barrier = threading.Barrier(4)

        def worker(i):
            barrier.wait()
            kernels[i] = native.ensure_kernel(flats[i])

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        want = fresh_flat(tree).apply(x, backend="numpy")
        for kernel in kernels:
            assert kernel is not None
            assert np.array_equal(kernel.apply(x), want)


class TestFallback:
    """No compiler anywhere: serving must not notice."""

    def test_forced_native_degrades_with_counters(
        self, fitted, monkeypatch
    ):
        tree, x = fitted
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        flat = fresh_flat(tree)
        want = fresh_flat(tree).apply(x, backend="numpy")
        assert np.array_equal(flat.apply(x, backend="native"), want)
        assert flat.backend_stats["fallback_rows"] == x.shape[0]
        stats = native.native_stats()
        assert stats["compile_failures"] == 1
        assert stats["fallback_rows"] == x.shape[0]
        assert "compiler" in stats["last_error"]
        # The failure is remembered: the second batch costs no re-probe
        # and still lands on numpy.
        flat.apply(x, backend="native")
        assert native.native_stats()["compile_failures"] == 1

    def test_kernel_call_failure_disables_native(self, fitted):
        tree, x = fitted

        class Bomb:
            def apply(self, x):
                raise RuntimeError("boom")

            predict_class = apply

        flat = fresh_flat(tree)
        flat.attach_kernel(Bomb())
        want = fresh_flat(tree).apply(x, backend="numpy")
        # First call survives the mid-batch explosion...
        assert np.array_equal(flat.apply(x, backend="native"), want)
        # ...and native stays off for this tree afterwards.
        assert flat._native is None and flat._native_failed
        assert native.native_stats()["load_failures"] >= 1


def _fresh_artifact(tree) -> PolicyArtifact:
    """An artifact over a *fresh* flat copy — publishes in one test must
    not leak attached kernels or failure flags into the next (the
    module-scoped tree's own FlatTree is shared)."""
    return PolicyArtifact.from_flat(
        fresh_flat(tree), name="toy", kind="tree-classifier",
        n_features=int(tree.n_features),
    )


def _publish_settled(art, name="toy") -> ModelRegistry:
    """Publish through a serving tier, wait for its compile thread to
    settle the kernel, and hand back the tier's registry."""
    with PolicyServer() as server:
        server.publish(name, art)
        assert server.wait_kernels(60)
        return server.registry


class TestServeIntegration:
    """Publish-time compilation, provenance, and the backend report."""

    @needs_cc
    def test_publish_compiles_and_records_provenance(self, fitted):
        tree, _ = fitted
        art = _fresh_artifact(tree)
        _publish_settled(art)
        kernel_meta = art.meta["kernel"]
        assert kernel_meta["status"] == "ready"
        assert kernel_meta["hash"] == native.kernel_hash(tree.flat)
        assert kernel_meta["compiler"]
        assert "-O2" in kernel_meta["flags"]
        assert kernel_meta["kernel_api"] == native.KERNEL_API

    def test_publish_respects_numpy_mode(self, fitted, monkeypatch):
        tree, _ = fitted
        monkeypatch.setenv("REPRO_TREE_BACKEND", "numpy")
        art = _fresh_artifact(tree)
        _publish_settled(art)
        assert art.meta["kernel"] == {"status": "disabled"}
        assert native.native_stats().get("compiles", 0) == 0

    def test_publish_without_compiler_serves_numpy(
        self, fitted, monkeypatch
    ):
        tree, x = fitted
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        art = _fresh_artifact(tree)
        registry = _publish_settled(art)  # must not raise
        assert art.meta["kernel"]["status"] == "unavailable"
        assert "compiler" in art.meta["kernel"]["error"]
        assert np.array_equal(art.predict_batch(x), tree.predict(x))
        report = registry_backend_report(registry)
        assert report["toy"]["backend"] == "numpy-fallback"

    @needs_cc
    def test_server_backend_report(self, fitted):
        tree, x = fitted
        with PolicyServer(max_batch=64, max_delay_s=1e-4) as server:
            server.publish("toy", _fresh_artifact(tree))
            assert server.wait_kernels(60)
            for row in x[:32]:
                assert server.submit("toy", row).result(10).ok
            report = server.backend_report()
        toy = report["models"]["toy"]
        assert toy["backend"] == "native"
        per_version = toy["versions"]["1"]
        assert per_version["native_rows"] + per_version["numpy_rows"] >= 32
        assert toy["fallback_rows"] == 0
        assert report["native"].get("compiles", 0) >= 1

    def test_teacher_artifacts_are_numpy_only(self):
        registry = ModelRegistry()
        art = PolicyArtifact(
            name="fn", kind="function", n_features=2, n_outputs=2,
            predict_batch=lambda x: np.zeros(x.shape[0], dtype=int),
            content_hash="f" * 16,
        )
        registry.publish("fn", art)
        assert art.backend_stats() is None
        report = registry_backend_report(registry)
        assert report["fn"]["backend"] == "numpy-only"
