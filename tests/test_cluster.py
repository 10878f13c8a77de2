"""Tests for the sharded multi-process serving tier (repro.serve.cluster)."""

import numpy as np
import pytest

from repro.core.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.serve import PolicyArtifact
from repro.serve.cluster import (
    ShardedPolicyService,
    load_shared_artifact,
    share_artifact,
)
from repro.serve.cluster.shm import ShmArtifactHandle


@pytest.fixture(scope="module")
def toy():
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, (800, 5))
    y = (x[:, 0] > 0.5).astype(int) * 2 + (x[:, 2] > 0.4).astype(int)
    tree = DecisionTreeClassifier(max_leaf_nodes=32).fit(x, y)
    return tree, x


@pytest.fixture(scope="module", params=["pipe"])
def transport(request):
    """The worker transport under test.  The pipe is the only one; the
    parameter keeps these tests' ``[pipe]`` ids, which their recorded
    history is keyed by."""
    return request.param


@pytest.fixture(scope="module")
def service(toy, transport):
    """One shared 2-shard service for the read-only tests (spawning
    processes per test would dominate the suite's runtime)."""
    tree, x = toy
    with ShardedPolicyService(n_shards=2, max_delay_s=1e-3) as svc:
        svc.publish("toy", PolicyArtifact.from_tree(tree, name="toy"),
                    alias="toy/prod")
        yield svc


class TestSharedMemoryTransport:
    def test_roundtrip_is_exact_and_zero_copy(self, toy):
        tree, x = toy
        artifact = PolicyArtifact.from_tree(tree, name="toy")
        handle, shm = share_artifact(artifact)
        try:
            assert isinstance(handle, ShmArtifactHandle)
            rebuilt, mapped = load_shared_artifact(handle)
            try:
                # same hash == same content, byte for byte
                assert rebuilt.content_hash == artifact.content_hash
                assert rebuilt.n_features == artifact.n_features
                assert rebuilt.kind == artifact.kind
                assert np.array_equal(
                    rebuilt.predict_batch(x), tree.predict(x)
                )
                # genuinely zero-copy: the views live on the segment
                assert rebuilt.flat.feature.base is not None
                assert not rebuilt.flat.feature.flags.writeable
            finally:
                mapped.close()
        finally:
            shm.close()
            shm.unlink()

    def test_corrupted_segment_refuses_to_serve(self, toy):
        tree, _ = toy
        artifact = PolicyArtifact.from_tree(tree, name="toy")
        handle, shm = share_artifact(artifact)
        try:
            # flip one byte of the threshold array
            spec = next(s for s in handle.arrays if s.field == "threshold")
            shm.buf[spec.offset] = (shm.buf[spec.offset] + 1) % 256
            with pytest.raises(RuntimeError, match="hash"):
                load_shared_artifact(handle)
        finally:
            shm.close()
            shm.unlink()

    def test_corrupted_statistics_also_refuse(self, toy):
        """n_samples/impurity are outside the decision-identity content
        hash; the transport hash must still catch tearing there."""
        tree, _ = toy
        artifact = PolicyArtifact.from_tree(tree, name="toy")
        handle, shm = share_artifact(artifact)
        try:
            spec = next(s for s in handle.arrays if s.field == "impurity")
            shm.buf[spec.offset] = (shm.buf[spec.offset] + 1) % 256
            with pytest.raises(RuntimeError, match="transport-hash"):
                load_shared_artifact(handle)
        finally:
            shm.close()
            shm.unlink()

    def test_regressor_artifacts_share_too(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, (300, 3))
        y = np.stack([x[:, 0] > 0, x[:, 1] * 2.0], axis=1)
        tree = DecisionTreeRegressor(max_leaf_nodes=16).fit(x, y)
        artifact = PolicyArtifact.from_tree(tree, name="reg")
        handle, shm = share_artifact(artifact)
        try:
            rebuilt, mapped = load_shared_artifact(handle)
            try:
                assert np.allclose(rebuilt.predict_batch(x), tree.predict(x))
            finally:
                mapped.close()
        finally:
            shm.close()
            shm.unlink()

    def test_non_tree_artifact_rejected(self):
        art = PolicyArtifact(
            name="fn", kind="function", n_features=2, n_outputs=2,
            predict_batch=lambda s: np.zeros(s.shape[0]),
            content_hash="0" * 16,
        )
        with pytest.raises(TypeError, match="flat arrays"):
            share_artifact(art)


class TestShardedService:
    def test_per_request_path_matches_tree(self, service, toy):
        tree, x = toy
        futures = [service.submit("toy/prod", row) for row in x[:64]]
        results = [f.result(timeout=30) for f in futures]
        assert all(r.ok and r.model == "toy" and r.version == 1
                   for r in results)
        assert np.array_equal(
            [r.action for r in results], tree.predict(x[:64])
        )

    def test_bulk_path_matches_tree(self, service, toy):
        tree, x = toy
        out = service.predict("toy", x)
        assert np.array_equal(out, tree.predict(x))

    def test_structured_errors_cross_process(self, service, toy):
        _, x = toy
        nan = service.submit("toy", np.full(5, np.nan)).result(30)
        assert (nan.ok, nan.error) == (False, "non_finite")
        ghost = service.submit("ghost", x[0]).result(30)
        assert (ghost.ok, ghost.error) == (False, "unknown_model")
        shape = service.submit("toy", np.ones(3)).result(30)
        assert (shape.ok, shape.error) == (False, "bad_shape")
        text = service.submit("toy", ["a", "b", "c", "d", "e"]).result(30)
        assert text.error in ("bad_input", "bad_shape")
        # the shards survived: valid traffic still flows
        ok = service.submit("toy", x[0]).result(30)
        assert ok.ok

    def test_poisoned_row_fails_alone_in_bulk(self, service, toy):
        tree, x = toy
        states = x[:8].copy()
        states[3, 2] = np.nan
        results = service.predict_batch("toy", states)
        assert [r.ok for r in results] == [
            True, True, True, False, True, True, True, True
        ]
        assert results[3].error == "non_finite"
        good = [r.action for i, r in enumerate(results) if i != 3]
        expected = tree.predict(np.delete(states, 3, axis=0))
        assert np.array_equal(good, expected)

    def test_requests_spread_across_shards(self, service, toy):
        _, x = toy
        service.predict("toy", x)
        view = service.cluster_metrics()
        assert view["n_shards"] == 2 and view["live_shards"] == 2
        per_shard = [
            shard["models"].get("toy", {}).get("requests", 0)
            for shard in view["shards"]
        ]
        assert all(count > 0 for count in per_shard)
        agg = view["aggregate"]["toy"]
        assert agg["requests"] == sum(per_shard)
        # cluster-level view saw every request the shards served
        assert view["cluster"]["toy"]["requests"] >= agg["requests"]

    def test_metrics_latency_shape(self, service):
        stats = service.metrics()["toy"]
        lat = stats["latency_ms"]
        assert 0 < lat["p50"] <= lat["p95"] <= lat["p99"]
        assert stats["throughput_rps"] > 0

    def test_backend_report_spans_shards(self, service, toy):
        import os

        from repro.core.tree import native

        _, x = toy
        assert service.wait_kernels(60)
        service.predict("toy", x)
        report = service.cluster_metrics()["backend"]
        assert set(report["per_shard"]) == {"0", "1"}
        toy_view = report["models"]["toy"]
        served = toy_view["native_rows"] + toy_view["numpy_rows"]
        assert served >= x.shape[0]
        # Workers inherit REPRO_TREE_BACKEND, so what the report must
        # say depends on how this suite was launched: pinned to numpy
        # it is an operator choice (label "numpy", zero fallbacks);
        # otherwise a toolchain means compiled kernels everywhere and
        # no toolchain means every row is a *visible* fallback.  In
        # all three cases: no exceptions, full row accounting.
        if os.environ.get("REPRO_TREE_BACKEND") == "numpy":
            assert toy_view["backend"] == "numpy"
            assert toy_view["fallback_rows"] == 0
        elif native.find_compiler() is not None:
            assert toy_view["backend"] == "native"
            assert toy_view["fallback_rows"] == 0
            assert toy_view["native_rows"] >= x.shape[0]
        else:
            assert toy_view["backend"] == "numpy-fallback"
            assert toy_view["fallback_rows"] >= x.shape[0]

    def test_retire_propagates_to_shards(self, toy, transport):
        tree, x = toy
        artifact = PolicyArtifact.from_tree(tree, name="m")
        with ShardedPolicyService(n_shards=2) as svc:
            svc.publish("m", artifact)
            svc.publish("m", artifact)
            assert svc.submit("m@1", x[0]).result(30).ok
            with pytest.raises(ValueError, match="latest"):
                svc.retire("m", 2)
            assert set(svc._segments) == {("m", 1), ("m", 2)}
            svc.retire("m", 1)
            # the retired version's shared segment was released, the
            # survivor's kept
            assert set(svc._segments) == {("m", 2)}
            gone = svc.submit("m@1", x[0]).result(30)
            assert (gone.ok, gone.error) == (False, "unknown_model")
            assert svc.submit("m@2", x[0]).result(30).ok
            assert np.array_equal(
                svc.predict("m", x[:16]), tree.predict(x[:16])
            )

    def test_hash_routing_is_sticky(self, toy):
        tree, x = toy
        with ShardedPolicyService(n_shards=2, routing="hash") as svc:
            svc.publish("toy", PolicyArtifact.from_tree(tree))
            row = x[0]
            results = [
                svc.submit("toy", row).result(30) for _ in range(10)
            ]
            assert all(r.ok for r in results)
            view = svc.cluster_metrics()
            served = [
                shard["models"].get("toy", {}).get("requests", 0)
                for shard in view["shards"]
            ]
            # the same state always hashes to the same shard
            assert sorted(served) == [0, 10]

    def test_close_completes_pending_and_rejects_new(self, toy, transport):
        tree, x = toy
        svc = ShardedPolicyService(n_shards=2, max_delay_s=1e-3)
        svc.publish("toy", PolicyArtifact.from_tree(tree))
        futures = [svc.submit("toy", row) for row in x[:40]]
        bulk = svc.submit_batch("toy", x[:32])
        svc.close()
        results = [f.result(timeout=10) for f in futures]
        assert all(r.ok for r in results)  # zero dropped futures
        assert all(r.ok for r in bulk.result(timeout=10))
        with pytest.raises(RuntimeError):
            svc.submit("toy", x[0])
        with pytest.raises(RuntimeError):
            svc.submit_batch("toy", x[:4])
        svc.close()  # idempotent

    def test_bulk_failures_attribute_the_requested_model(self, toy):
        """Bulk-path failures must carry the requested reference in
        results and metrics, never a placeholder."""
        tree, x = toy
        with ShardedPolicyService(n_shards=1, max_delay_s=1e-3) as svc:
            svc.publish("toy", PolicyArtifact.from_tree(tree))
            svc._shards[0].process.terminate()
            svc._shards[0].process.join(timeout=10)
            results = None
            for _ in range(50):
                results = svc.submit_batch("toy", x[:8]).result(30)
                if not results[0].ok:
                    break
            assert results is not None and not results[0].ok
            assert all(r.error == "shard_error" for r in results)
            assert all(r.model == "toy" for r in results)
            metrics = svc.metrics()
            assert "bulk" not in metrics
            assert metrics["toy"]["error_kinds"]["shard_error"] >= 8

    def test_worker_death_fails_futures_not_hangs(self, toy, transport):
        tree, x = toy
        with ShardedPolicyService(n_shards=2, max_delay_s=1e-3) as svc:
            svc.publish("toy", PolicyArtifact.from_tree(tree))
            assert svc.predict("toy", x[:16]).shape == (16,)
            # murder one shard mid-flight
            victim = svc._shards[0]
            victim.process.terminate()
            victim.process.join(timeout=10)
            deadline = 100
            while victim.alive and deadline:
                import time
                time.sleep(0.05)
                deadline -= 1
            # traffic keeps flowing on the survivor
            results = [
                svc.submit("toy", row).result(timeout=30) for row in x[:32]
            ]
            assert all(r.ok for r in results)
            view = svc.cluster_metrics()
            assert view["live_shards"] == 1

    def test_unpicklable_artifact_fails_cleanly(self, toy):
        """A caller's unshippable artifact must not kill a healthy
        shard or desync the registry replicas."""
        tree, x = toy
        art = PolicyArtifact(
            name="fn", kind="function", n_features=2, n_outputs=2,
            predict_batch=lambda s: np.zeros(s.shape[0]),
            content_hash="0" * 16,
        )
        with ShardedPolicyService(n_shards=1) as svc:
            with pytest.raises(TypeError, match="pickle"):
                svc.publish("fn", art)
            # the shard survived and the replicas stayed in sync: a
            # follow-up publish works and serves
            assert svc.cluster_metrics()["live_shards"] == 1
            assert svc.publish("toy", PolicyArtifact.from_tree(tree)) == 1
            assert np.array_equal(
                svc.predict("toy", x[:16]), tree.predict(x[:16])
            )
            # the rejected name was never registered anywhere
            assert "fn" not in svc.registry

    def test_teacher_artifact_pickles_to_shards(self, transport):
        from repro.envs.abr.env import STATE_DIM
        from repro.nn.policy import SoftmaxPolicy, ValueNet
        from repro.teachers.pensieve import PensieveTeacher
        from repro.utils.rng import as_rng

        teacher = PensieveTeacher(
            policy=SoftmaxPolicy(STATE_DIM, 6, hidden=(8,), seed=as_rng(0)),
            value=ValueNet(STATE_DIM, seed=as_rng(0)),
        )
        artifact = PolicyArtifact.from_teacher(teacher, n_features=STATE_DIM)
        states = np.abs(
            np.random.default_rng(3).normal(size=(20, STATE_DIM))
        )
        with ShardedPolicyService(n_shards=2) as svc:
            svc.publish("teacher", artifact)
            out = svc.predict("teacher", states)
        assert np.array_equal(out, teacher.act_greedy_batch(states))


class TestFig16ClusterMode:
    def test_cluster_serving_table(self):
        """The fig16 cluster table end to end with a small flow policy
        (auto_lab is bypassed — only the serving path is under test)."""
        from repro.core.tree import DecisionTreeClassifier
        from repro.experiments.fig16_latency_coverage import (
            _cluster_serving_table,
        )
        from repro.serve.loadgen import flow_request_states

        states = flow_request_states(duration_s=0.5, seed=3, min_rows=64)
        labels = (states[:, 0] > np.median(states[:, 0])).astype(int)
        tree = DecisionTreeClassifier(max_leaf_nodes=16).fit(
            states, labels
        )
        table, metrics = _cluster_serving_table(tree, fast=True)
        assert metrics["cluster_errors"] == 0
        assert metrics["cluster_shards"] == 2
        assert metrics["cluster_bulk_throughput_rps"] > 0
        assert metrics["cluster_aggregate_shard_rps"] > 0
        rendered = table.render()
        assert "closed-loop" in rendered and "bulk" in rendered

    def test_run_experiment_forwards_supported_options(self):
        """The CLI plumbing only forwards options an experiment's run()
        accepts (fig16 takes serve/cluster; fig7 takes neither)."""
        import inspect

        from repro.experiments import REGISTRY
        import importlib

        fig16 = importlib.import_module(REGISTRY["fig16"])
        params = inspect.signature(fig16.run).parameters
        assert "serve" in params and "cluster" in params
        fig7 = importlib.import_module(REGISTRY["fig7"])
        assert "cluster" not in inspect.signature(fig7.run).parameters
        # forwarding an unsupported option must not TypeError the run
        # (it is silently dropped) — prove via the filter logic itself
        from repro.experiments import run_experiment
        with pytest.raises(KeyError):
            run_experiment("nope", cluster=True)


class TestClusterLatencyReport:
    def test_rows_next_to_modeled(self, toy):
        from repro.deploy import cluster_latency_report

        tree, x = toy
        with ShardedPolicyService(n_shards=2) as svc:
            svc.publish("toy", PolicyArtifact.from_tree(tree))
            svc.predict("toy", x[:128])
            rows = cluster_latency_report(svc, "toy", tree=tree)
        sources = [r["source"] for r in rows]
        assert sources[0] == "measured-cluster"
        assert "aggregate-shards" in sources
        assert any(s.startswith("shard-") for s in sources)
        assert sources.count("modeled") == 2  # server-tree + smartnic
        measured = rows[0]
        assert measured["requests"] == 128
        assert measured["p50_ms"] > 0
        agg = next(r for r in rows if r["source"] == "aggregate-shards")
        assert agg["requests"] == 128
        assert agg["throughput_rps"] > 0
        with pytest.raises(KeyError):
            cluster_latency_report({"cluster": {}, "aggregate": {},
                                    "shards": []}, "missing")
