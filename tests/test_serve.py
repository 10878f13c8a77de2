"""Tests for the policy-serving subsystem (artifact/registry/batcher/server)."""

import queue
import threading

import numpy as np
import pytest

from repro.core.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.core.tree.codegen import compile_python, tree_to_c, tree_to_python
from repro.serve import (
    ModelRegistry,
    PolicyArtifact,
    PolicyServer,
    ServeError,
    ServerMetrics,
)
from repro.serve.batcher import _get_within


@pytest.fixture(scope="module")
def toy_tree():
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, (800, 5))
    y = (x[:, 0] > 0.5).astype(int) * 2 + (x[:, 2] > 0.4).astype(int)
    return DecisionTreeClassifier(max_leaf_nodes=32).fit(x, y), x, y


@pytest.fixture(scope="module")
def single_leaf_tree():
    """Degenerate policy: constant labels grow a root-only tree."""
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, (50, 4))
    y = np.full(50, 2, dtype=int)
    tree = DecisionTreeClassifier(n_classes=5, max_leaf_nodes=8).fit(x, y)
    assert tree.n_leaves == 1 and tree.root.is_leaf
    return tree, x


class TestArtifact:
    def test_from_tree_predicts_like_tree(self, toy_tree):
        tree, x, _ = toy_tree
        art = PolicyArtifact.from_tree(tree, name="toy")
        assert art.kind == "tree-classifier"
        assert art.n_features == 5
        assert art.n_outputs == 4
        assert np.array_equal(art.predict_batch(x), tree.predict(x))

    def test_content_hash_is_content_based(self, toy_tree):
        tree, x, y = toy_tree
        a = PolicyArtifact.from_tree(tree, name="a")
        b = PolicyArtifact.from_tree(tree, name="b")
        assert a.content_hash == b.content_hash  # same tree, same hash
        other = DecisionTreeClassifier(max_leaf_nodes=2).fit(x, y)
        c = PolicyArtifact.from_tree(other)
        assert c.content_hash != a.content_hash

    def test_artifact_is_a_snapshot(self, toy_tree):
        """Mutating the source tree must not change a published artifact."""
        tree, x, y = toy_tree
        full = DecisionTreeClassifier(max_leaf_nodes=32).fit(x, y)
        art = PolicyArtifact.from_tree(full, name="snap")
        before = art.predict_batch(x).copy()
        # Collapse the live tree to a single leaf (what pruning-style
        # mutation does) and rebuild its flat engine.
        full.root.feature = -1
        full.root.left = full.root.right = None
        full.invalidate_flat()
        assert full.n_leaves == 1
        assert np.array_equal(art.predict_batch(x), before)

    def test_codegen_source_round_trips(self, toy_tree):
        tree, x, _ = toy_tree
        art = PolicyArtifact.from_tree(tree, name="toy")
        fn = art.compile_single()
        got = np.asarray([fn(row) for row in x[:100]])
        assert np.array_equal(got, tree.predict(x[:100]))

    def test_regressor_artifact(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, (300, 3))
        y = np.stack([x[:, 0] > 0, x[:, 1] * 2.0], axis=1)
        tree = DecisionTreeRegressor(max_leaf_nodes=16).fit(x, y)
        art = PolicyArtifact.from_tree(tree, name="reg")
        assert art.kind == "tree-regressor"
        assert art.source is None
        assert np.allclose(art.predict_batch(x), tree.predict(x))

    def test_from_teacher_wraps_batch_greedy(self):
        from repro.envs.abr.env import STATE_DIM
        from repro.nn.policy import SoftmaxPolicy, ValueNet
        from repro.teachers.pensieve import PensieveTeacher
        from repro.utils.rng import as_rng

        teacher = PensieveTeacher(
            policy=SoftmaxPolicy(STATE_DIM, 6, hidden=(8,), seed=as_rng(0)),
            value=ValueNet(STATE_DIM, seed=as_rng(0)),
        )
        art = PolicyArtifact.from_teacher(teacher, n_features=STATE_DIM)
        states = np.abs(np.random.default_rng(3).normal(size=(20, STATE_DIM)))
        assert np.array_equal(
            art.predict_batch(states), teacher.act_greedy_batch(states)
        )
        # hash sourced from the network weights: perturbing them re-hashes
        before = art.content_hash
        assert art.is_intact()
        teacher.policy.net.params()[0][...] += 1.0
        after = PolicyArtifact.from_teacher(
            teacher, n_features=STATE_DIM
        ).content_hash
        assert after != before
        # teacher artifacts are live-bound: drift is detectable
        assert not art.is_intact() and art.fingerprint() == after

    def test_unfitted_tree_rejected(self):
        with pytest.raises(RuntimeError):
            PolicyArtifact.from_tree(DecisionTreeClassifier())


class TestDegeneratePolicy:
    """Satellite: a root-only tree compiles and serves end to end."""

    def test_codegen_compiles(self, single_leaf_tree):
        tree, x = single_leaf_tree
        c_src = tree_to_c(tree)
        assert "return 2;" in c_src
        py_src = tree_to_python(tree)
        fn = compile_python(tree)
        assert "return 2" in py_src
        assert all(fn(row) == 2 for row in x)

    def test_serves_via_artifact(self, single_leaf_tree):
        tree, x = single_leaf_tree
        art = PolicyArtifact.from_tree(tree, name="leaf")
        assert art.meta["n_leaves"] == 1 and art.meta["depth"] == 0
        assert art.compile_single()(x[0]) == 2
        with PolicyServer(max_batch=8, max_delay_s=1e-4) as server:
            server.publish("leaf", art)
            results = [f.result(timeout=10)
                       for f in server.submit_many("leaf", x)]
            assert all(r.ok and r.action == 2 for r in results)


class TestRegistry:
    def _artifact(self, tag: int) -> PolicyArtifact:
        return PolicyArtifact(
            name=f"a{tag}", kind="function", n_features=2, n_outputs=2,
            predict_batch=lambda x, t=tag: np.full(x.shape[0], t),
            content_hash=f"{tag:016x}",
        )

    def test_publish_versions_and_resolve(self):
        reg = ModelRegistry()
        assert reg.publish("m", self._artifact(0)) == 1
        assert reg.publish("m", self._artifact(1)) == 2
        latest = reg.resolve("m")
        assert (latest.name, latest.version) == ("m", 2)
        pinned = reg.resolve("m@1")
        assert pinned.version == 1 and pinned.artifact.content_hash.endswith("0")
        assert reg.latest_version("m") == 2
        assert "m" in reg and "m@2" in reg and "m@3" not in reg

    def test_aliases_track_latest_or_pin(self):
        reg = ModelRegistry()
        reg.publish("m", self._artifact(0))
        reg.alias("m/prod", "m")
        reg.alias("m/pinned", "m", version=1)
        reg.publish("m", self._artifact(1))
        assert reg.resolve("m/prod").version == 2
        assert reg.resolve("m/pinned").version == 1

    def test_bad_references(self):
        reg = ModelRegistry()
        with pytest.raises(KeyError):
            reg.resolve("missing")
        reg.publish("m", self._artifact(0))
        with pytest.raises(KeyError):
            reg.resolve("m@7")
        with pytest.raises(KeyError):
            reg.resolve("m@latest")
        with pytest.raises(ValueError):
            reg.publish("bad@name", self._artifact(0))
        with pytest.raises(KeyError):
            reg.alias("x", "missing")
        reg.alias("m/prod", "m")
        with pytest.raises(ValueError):
            reg.publish("m/prod", self._artifact(1))


class TestRegistryRetire:
    """Satellite: retire() frees old versions without shifting numbers."""

    def _artifact(self, tag: int) -> PolicyArtifact:
        return PolicyArtifact(
            name=f"a{tag}", kind="function", n_features=2, n_outputs=2,
            predict_batch=lambda x, t=tag: np.full(x.shape[0], t),
            content_hash=f"{tag:016x}",
        )

    def test_retire_tombstones_without_renumbering(self):
        reg = ModelRegistry()
        for tag in range(3):
            reg.publish("m", self._artifact(tag))
        reg.retire("m", 1)
        assert reg.live_versions("m") == [2, 3]
        assert reg.latest_version("m") == 3  # numbering is stable
        with pytest.raises(KeyError, match="retired"):
            reg.resolve("m@1")
        assert "m@1" not in reg
        # untouched versions keep serving, and publish keeps counting
        assert reg.resolve("m@2").version == 2
        assert reg.publish("m", self._artifact(9)) == 4
        # resolve_many maps the retired ref to None like any bad ref
        assert reg.resolve_many(["m@1", "m@2"])["m@1"] is None

    def test_refuses_latest(self):
        reg = ModelRegistry()
        reg.publish("m", self._artifact(0))
        reg.publish("m", self._artifact(1))
        with pytest.raises(ValueError, match="latest"):
            reg.retire("m", 2)
        reg.retire("m", 1)  # non-latest is fine

    def test_refuses_alias_backed_version(self):
        reg = ModelRegistry()
        reg.publish("m", self._artifact(0))
        reg.publish("m", self._artifact(1))
        reg.publish("m", self._artifact(2))
        reg.alias("m/pinned", "m", version=1)
        reg.alias("m/prod", "m")  # tracking latest: no pin on v2
        with pytest.raises(ValueError, match="m/pinned"):
            reg.retire("m", 1)
        reg.retire("m", 2)  # only pinned aliases block retirement

    def test_bad_retire_references(self):
        reg = ModelRegistry()
        reg.publish("m", self._artifact(0))
        reg.publish("m", self._artifact(1))
        with pytest.raises(KeyError):
            reg.retire("ghost", 1)
        with pytest.raises(KeyError):
            reg.retire("m", 7)
        reg.alias("m/prod", "m")
        with pytest.raises(ValueError, match="alias"):
            reg.retire("m/prod", 1)
        reg.retire("m", 1)
        with pytest.raises(KeyError, match="retired"):
            reg.retire("m", 1)  # double retire
        with pytest.raises(KeyError, match="retired"):
            reg.alias("m/old", "m", version=1)  # no aliasing a tombstone

    def test_server_passthrough(self, toy_tree):
        tree, x, _ = toy_tree
        with PolicyServer(max_batch=8, max_delay_s=1e-4) as server:
            server.publish("toy", PolicyArtifact.from_tree(tree))
            server.publish("toy", PolicyArtifact.from_tree(tree))
            server.retire("toy", 1)
            gone = server.submit("toy@1", x[0]).result(10)
            ok = server.submit("toy", x[0]).result(10)
        assert (gone.ok, gone.error) == (False, "unknown_model")
        assert ok.ok and ok.version == 2


class TestRollbackPublish:
    """Crash-consistency helper for replicated publishes."""

    def _artifact(self, tag: int) -> PolicyArtifact:
        return PolicyArtifact(
            name=f"a{tag}", kind="function", n_features=2, n_outputs=2,
            predict_batch=lambda x, t=tag: np.full(x.shape[0], t),
            content_hash=f"{tag:016x}",
        )

    def test_rolls_back_only_the_latest(self):
        reg = ModelRegistry()
        reg.publish("m", self._artifact(0))
        reg.publish("m", self._artifact(1))
        with pytest.raises(ValueError, match="latest"):
            reg.rollback_publish("m", 1)  # not the latest
        reg.rollback_publish("m", 2)
        assert reg.latest_version("m") == 1
        # the number is reusable — replicas must agree on numbering
        assert reg.publish("m", self._artifact(2)) == 2
        assert reg.resolve("m@2").artifact.content_hash.endswith("2")

    def test_first_publish_rollback_removes_the_model(self):
        reg = ModelRegistry()
        reg.publish("m", self._artifact(0))
        reg.alias("m/prod", "m")
        reg.rollback_publish("m", 1)
        assert "m" not in reg and "m/prod" not in reg
        assert reg.names() == [] and reg.aliases() == {}

    def test_all_tombstone_rollback_removes_the_model(self):
        """retire v1 then roll back v2: nothing servable remains, so
        the model must vanish rather than advertise only tombstones."""
        reg = ModelRegistry()
        reg.publish("m", self._artifact(0))
        reg.publish("m", self._artifact(1))
        reg.alias("m/prod", "m")
        reg.retire("m", 1)
        reg.rollback_publish("m", 2)
        assert "m" not in reg and "m/prod" not in reg
        assert reg.names() == []
        with pytest.raises(KeyError):
            reg.latest_version("m")
        # the name is fully reusable afterwards
        assert reg.publish("m", self._artifact(5)) == 1

    def test_refuses_when_pinned(self):
        reg = ModelRegistry()
        reg.publish("m", self._artifact(0))
        reg.alias("m/pin", "m", version=1)
        with pytest.raises(ValueError, match="pin"):
            reg.rollback_publish("m", 1)

    def test_trailing_tombstone_does_not_break_latest(self):
        """Rollback after a retire can leave a tombstone in the last
        slot; bare-name (and tracking-alias) traffic must keep flowing
        to the newest *live* version."""
        reg = ModelRegistry()
        reg.publish("m", self._artifact(0))
        reg.publish("m", self._artifact(1))
        reg.publish("m", self._artifact(2))
        reg.alias("m/prod", "m")
        reg.retire("m", 2)          # legal: not latest
        reg.rollback_publish("m", 3)  # failed replicated publish
        # versions are now [v1, tombstone]; latest live is v1
        assert reg.resolve("m").version == 1
        assert reg.resolve("m/prod").version == 1
        assert reg.resolve_many(["m"])["m"].version == 1
        assert reg.latest_version("m") == 1  # agrees with resolve
        # explicit pin at the tombstone still reports retirement
        with pytest.raises(KeyError, match="retired"):
            reg.resolve("m@2")
        # and the retire guard protects the *effective* latest: v1 is
        # what bare-name traffic serves, so it must refuse to go
        with pytest.raises(ValueError, match="latest"):
            reg.retire("m", 1)


class TestResolveMany:
    """Satellite: resolve_many edge cases the batcher's flush relies on."""

    def _artifact(self, tag: int) -> PolicyArtifact:
        return PolicyArtifact(
            name=f"a{tag}", kind="function", n_features=2, n_outputs=2,
            predict_batch=lambda x, t=tag: np.full(x.shape[0], t),
            content_hash=f"{tag:016x}",
        )

    def test_duplicate_refs_resolve_to_one_version(self):
        """Canonical name, @latest pin, and alias all land on the same
        ResolvedModel in one critical section — one flush, one group."""
        reg = ModelRegistry()
        reg.publish("m", self._artifact(0))
        reg.publish("m", self._artifact(1))
        reg.alias("m/prod", "m")
        out = reg.resolve_many(["m", "m@2", "m/prod", "m", "m/prod"])
        # dict semantics: each distinct ref resolved exactly once
        assert set(out) == {"m", "m@2", "m/prod"}
        triples = {
            (r.name, r.version, r.artifact.content_hash)
            for r in out.values()
        }
        assert triples == {("m", 2, self._artifact(1).content_hash)}

    def test_alias_pinned_version(self):
        reg = ModelRegistry()
        reg.publish("m", self._artifact(0))
        reg.alias("m/pinned", "m", version=1)
        reg.publish("m", self._artifact(1))
        out = reg.resolve_many(["m/pinned", "m"])
        assert out["m/pinned"].version == 1
        assert out["m"].version == 2
        # the pinned alias resolves to the old artifact, not the latest
        assert out["m/pinned"].artifact.content_hash == (
            self._artifact(0).content_hash
        )

    def test_unknown_refs_map_to_none_with_clear_messages(self):
        reg = ModelRegistry()
        reg.publish("m", self._artifact(0))
        out = reg.resolve_many(["m", "ghost", "m@9", "m@latest"])
        assert out["m"] is not None
        assert out["ghost"] is None
        assert out["m@9"] is None
        assert out["m@latest"] is None
        # the single-ref path spells out why each one failed
        with pytest.raises(KeyError, match="unknown model 'ghost'"):
            reg.resolve("ghost")
        with pytest.raises(KeyError, match="versions 1..1, not 9"):
            reg.resolve("m@9")
        with pytest.raises(KeyError, match="bad version"):
            reg.resolve("m@latest")


class TestServerBoundary:
    """Satellite: mis-shaped / non-finite states fail structurally."""

    def test_invalid_states_get_structured_errors(self, toy_tree):
        tree, x, _ = toy_tree
        with PolicyServer(max_batch=16, max_delay_s=1e-4) as server:
            server.publish("toy", PolicyArtifact.from_tree(tree))
            nan_res = server.submit("toy", np.full(5, np.nan)).result(10)
            inf_res = server.submit(
                "toy", [1.0, 2.0, np.inf, 0.0, 0.0]
            ).result(10)
            shape_res = server.submit("toy", np.ones(3)).result(10)
            text_res = server.submit("toy", ["a", "b", "c", "d", "e"]).result(10)
            missing = server.submit("ghost", x[0]).result(10)
            # the batcher thread survived: valid traffic still flows
            ok = server.submit("toy", x[0]).result(10)
            metrics = server.metrics()
        assert (nan_res.ok, nan_res.error) == (False, "non_finite")
        assert (inf_res.ok, inf_res.error) == (False, "non_finite")
        assert (shape_res.ok, shape_res.error) == (False, "bad_shape")
        assert text_res.error in ("bad_input", "bad_shape")
        assert (missing.ok, missing.error) == (False, "unknown_model")
        assert ok.ok and ok.action == tree.predict(x[:1])[0]
        toy = metrics["toy"]
        assert toy["errors"] == 4
        assert toy["error_kinds"]["non_finite"] == 2
        assert metrics["ghost"]["error_kinds"] == {"unknown_model": 1}

    def test_poisoned_request_does_not_fail_batchmates(self, toy_tree):
        """A NaN request co-batched with valid ones fails alone."""
        tree, x, _ = toy_tree
        with PolicyServer(max_batch=32, max_delay_s=50e-3) as server:
            server.publish("toy", PolicyArtifact.from_tree(tree))
            good = [server.submit("toy", row) for row in x[:8]]
            bad = server.submit("toy", np.full(5, np.nan))
            good += [server.submit("toy", row) for row in x[8:16]]
            results = [f.result(timeout=10) for f in good]
            bad_res = bad.result(timeout=10)
        assert all(r.ok for r in results)
        assert np.array_equal(
            [r.action for r in results], tree.predict(x[:16])
        )
        assert bad_res.error == "non_finite"

    def test_raising_artifact_fails_batch_not_thread(self, toy_tree):
        tree, x, _ = toy_tree

        def boom(states):
            raise RuntimeError("kaboom")

        broken = PolicyArtifact(
            name="broken", kind="function", n_features=5, n_outputs=2,
            predict_batch=boom, content_hash="0" * 16,
        )
        with PolicyServer(max_batch=8, max_delay_s=1e-4) as server:
            server.publish("broken", broken)
            server.publish("toy", PolicyArtifact.from_tree(tree))
            res = server.submit("broken", x[0]).result(timeout=10)
            ok = server.submit("toy", x[0]).result(timeout=10)
        assert (res.ok, res.error) == (False, "predict_error")
        assert "kaboom" in res.detail
        assert ok.ok

    def test_wrong_output_cardinality_is_structural(self, toy_tree):
        _, x, _ = toy_tree
        art = PolicyArtifact(
            name="short", kind="function", n_features=5, n_outputs=2,
            predict_batch=lambda s: np.zeros(s.shape[0] + 1),
            content_hash="1" * 16,
        )
        with PolicyServer(max_batch=4, max_delay_s=1e-4) as server:
            server.publish("short", art)
            res = server.submit("short", x[0]).result(timeout=10)
        assert (res.ok, res.error) == (False, "bad_output")


class TestServer:
    def test_predict_matches_tree(self, toy_tree):
        tree, x, _ = toy_tree
        with PolicyServer(max_batch=32, max_delay_s=1e-3) as server:
            server.publish("toy", PolicyArtifact.from_tree(tree),
                           alias="toy/prod")
            out = server.predict("toy/prod", x[:200])
        assert np.array_equal(out, tree.predict(x[:200]))

    def test_predict_raises_on_error(self, toy_tree):
        tree, _, _ = toy_tree
        with PolicyServer(max_batch=8, max_delay_s=1e-4) as server:
            server.publish("toy", PolicyArtifact.from_tree(tree))
            with pytest.raises(ServeError):
                server.predict("toy", np.full((3, 5), np.nan))

    def test_microbatching_coalesces(self, toy_tree):
        tree, x, _ = toy_tree
        with PolicyServer(max_batch=64, max_delay_s=20e-3) as server:
            server.publish("toy", PolicyArtifact.from_tree(tree))
            futures = server.submit_many("toy", x[:64])
            for f in futures:
                assert f.result(timeout=10).ok
            sizes = server.metrics()["toy"]["batch_sizes"]
        assert max(sizes) > 1  # at least one multi-request flush

    def test_alias_and_canonical_cobatch_one_version(self, toy_tree):
        """Mixed references to one model coalesce into a single predict
        and resolve to a single version per flush."""
        tree, x, _ = toy_tree
        with PolicyServer(max_batch=64, max_delay_s=30e-3) as server:
            server.publish("toy", PolicyArtifact.from_tree(tree),
                           alias="toy/prod")
            futures = [
                server.submit("toy" if i % 2 else "toy/prod", x[i])
                for i in range(16)
            ]
            results = [f.result(timeout=10) for f in futures]
            sizes = server.metrics()["toy"]["batch_sizes"]
        assert all(
            r.ok and r.model == "toy" and r.version == 1 for r in results
        )
        assert max(sizes) == 16  # both refs answered by one flush group

    def test_metrics_shape(self, toy_tree):
        tree, x, _ = toy_tree
        with PolicyServer(max_batch=16, max_delay_s=1e-4) as server:
            server.publish("toy", PolicyArtifact.from_tree(tree))
            server.predict("toy", x[:50])
            stats = server.metrics()["toy"]
        assert stats["requests"] == 50 and stats["errors"] == 0
        assert stats["versions"] == {1: 50}
        lat = stats["latency_ms"]
        assert 0 <= lat["p50"] <= lat["p95"] <= lat["p99"]
        assert stats["throughput_rps"] > 0
        assert sum(k * v for k, v in stats["batch_sizes"].items()) == 50

    def test_single_flush_throughput_is_nonzero(self, toy_tree):
        """A workload served in one flush still reports real throughput
        (span is anchored at the first request's arrival)."""
        tree, x, _ = toy_tree
        with PolicyServer(max_batch=64, max_delay_s=10e-3) as server:
            server.publish("toy", PolicyArtifact.from_tree(tree))
            server.predict("toy", x[:64])
            stats = server.metrics()["toy"]
        assert stats["batch_sizes"] == {64: 1}  # genuinely one flush
        assert stats["throughput_rps"] > 0

    def test_idle_gaps_do_not_deflate_throughput(self):
        """Throughput divides by busy time — the union of in-flight
        intervals — not by burst spacing (on a fake clock)."""
        now = [10.0]
        metrics = ServerMetrics(clock=lambda: now[0])
        now[0] = 10.004  # burst 1: 32 requests in flight since 10.000
        metrics.record_group("toy", 1, [0.004] * 32)
        burst = metrics.snapshot()["toy"]
        assert burst["throughput_rps"] == pytest.approx(32 / 0.004)
        now[0] = 10.260  # a 0.25 s idle gap, then burst 2 since 10.254
        metrics.record_group("toy", 1, [0.006] * 32)
        now[0] = 10.261  # a rejection that overlaps burst 2's tail
        metrics.record("toy", 1, 0.003, error="bad_shape")
        stats = metrics.snapshot()["toy"]
        assert stats["requests"] == 65 and stats["errors"] == 1
        # Busy: 4 ms + 6 ms + the 1 ms the rejection outlived burst 2.
        # Counting the gap would divide by 0.261 s instead.
        assert stats["throughput_rps"] == pytest.approx(65 / 0.011)

    def test_close_completes_pending_and_rejects_new(self, toy_tree):
        tree, x, _ = toy_tree
        server = PolicyServer(max_batch=8, max_delay_s=1e-3)
        server.publish("toy", PolicyArtifact.from_tree(tree))
        futures = server.submit_many("toy", x[:40])
        server.close()
        results = [f.result(timeout=10) for f in futures]
        assert all(r.ok for r in results)  # zero dropped futures
        with pytest.raises(RuntimeError):
            server.submit("toy", x[0])

    def test_submit_and_predict_after_close_raise_immediately(
        self, toy_tree
    ):
        """Satellite bugfix guard: a closed batcher must reject new work
        with a clear RuntimeError, never enqueue an unresolvable future
        or hang until the predict timeout."""
        import time as _time

        tree, x, _ = toy_tree
        server = PolicyServer(max_batch=8, max_delay_s=1e-3)
        server.publish("toy", PolicyArtifact.from_tree(tree))
        server.close()
        with pytest.raises(RuntimeError, match="close"):
            server.submit("toy", x[0])
        start = _time.perf_counter()
        with pytest.raises(RuntimeError, match="close"):
            server.predict("toy", x[:4], timeout_s=30.0)
        # the guard fired immediately, not via the 30s result timeout
        assert _time.perf_counter() - start < 1.0
        with pytest.raises(RuntimeError, match="close"):
            server.submit_many("toy", x[:4])


class TestGatherQueue:
    def test_timed_get_returns_once_its_timeout_passes(self):
        """The batcher thread's timed get must give up at its timeout,
        also when the queue's lock is free and the deadline passes
        inside the get (CPython 3.11's ``SimpleQueue.get`` then waits
        for the next put, which a closed loop whose requests are all in
        the gathering batch never makes).  The lapse needs the thread
        delayed >= 1 us inside the get, so the loop runs long enough to
        meet one."""
        q = queue.SimpleQueue()
        finished = threading.Event()

        def consume():
            for _ in range(40_000):
                q.put(1)
                q.get()  # taken without waiting: the lock is left free
                try:
                    _get_within(q, 1e-7)
                except queue.Empty:
                    pass
            finished.set()

        consumer = threading.Thread(target=consume, daemon=True)
        consumer.start()
        consumer.join(timeout=20)
        if not finished.is_set():
            q.put(None)  # release the stuck get
        assert finished.is_set(), "a 0.1 us get waited for the next put"


class TestServingLatencyReport:
    """deploy/latency.py measured mode sources from live server metrics."""

    def test_measured_rows_next_to_modeled(self, toy_tree):
        from repro.deploy import serving_latency_report
        from repro.nn.mlp import MLP

        tree, x, _ = toy_tree
        net = MLP(5, (16,), 4, seed=0)
        with PolicyServer(max_batch=16, max_delay_s=1e-4) as server:
            server.publish("toy", PolicyArtifact.from_tree(tree))
            server.predict("toy", x[:64])
            rows = serving_latency_report(server, "toy", tree=tree, net=net)
        assert [r["source"] for r in rows] == [
            "measured", "modeled", "modeled", "modeled"
        ]
        measured = rows[0]
        assert measured["requests"] == 64
        assert 0 < measured["p50_ms"] <= measured["p99_ms"]
        assert measured["throughput_rps"] > 0
        labels = {r["model"] for r in rows[1:]}
        assert labels == {"server-dnn", "server-tree", "smartnic-tree"}
        with pytest.raises(KeyError):
            serving_latency_report(server, "missing")


class TestAtomicWeightCache:
    """Satellite: save_weights writes via temp file + os.replace."""

    def test_roundtrip_and_no_stray_tmp(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.teachers.cache import load_weights, save_weights

        arrays = [np.arange(5.0), np.ones((2, 3))]
        path = save_weights("unit-atomic", arrays)
        assert path.exists() and path.name == "unit-atomic.npz"
        loaded = load_weights("unit-atomic")
        for a, b in zip(arrays, loaded):
            assert np.array_equal(a, b)
        # overwrite in place (the concurrent-reader scenario)
        save_weights("unit-atomic", [np.zeros(4)])
        assert np.array_equal(load_weights("unit-atomic")[0], np.zeros(4))
        leftovers = [p for p in tmp_path.iterdir() if p.suffix != ".npz"]
        assert leftovers == []

    def test_failed_write_leaves_no_artifacts(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.teachers.cache import load_weights, save_weights

        class Boom:
            def __array__(self, dtype=None, copy=None):
                raise RuntimeError("not array-convertible")

        with pytest.raises(RuntimeError):
            save_weights("unit-bad", [Boom()])
        assert load_weights("unit-bad") is None
        assert list(tmp_path.glob("*.tmp")) == []
