"""Tests for the elastic cluster tier: load-aware routing, shard
autoscaling, and self-healing control-log replay."""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core.tree import DecisionTreeClassifier
from repro.serve import PolicyArtifact, PolicyServer
from repro.serve.cluster import (
    AutoscaleConfig,
    LeastLoadedRouter,
    RoundRobinRouter,
    Router,
    ShardedPolicyService,
    make_router,
)
from repro.serve.cluster.autoscale import AutoscaleSignals, decide
from repro.serve.loadgen import (
    SyntheticCost,
    hot_key_states,
    run_load,
    synthetic_artifact,
)


@pytest.fixture(scope="module")
def toy():
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, (800, 5))
    y = (x[:, 0] > 0.5).astype(int) * 2 + (x[:, 2] > 0.4).astype(int)
    tree = DecisionTreeClassifier(max_leaf_nodes=32).fit(x, y)
    return tree, x


@pytest.fixture(params=["pipe"])
def transport(request):
    """The worker transport under test.  The pipe is the only one; the
    parameter keeps these tests' ``[pipe]`` ids, which their recorded
    history is keyed by."""
    return request.param


def _wait_live(svc, count, timeout_s=20.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if svc.cluster_metrics()["live_shards"] == count:
            return True
        time.sleep(0.05)
    return False


def _assert_replicas_identical(svc):
    states = svc.replica_states()
    parent = repr(states["parent"])
    for shard_id, state in states["shards"].items():
        assert repr(state) == parent, (
            f"shard {shard_id} diverged from the parent mirror:\n"
            f"{state}\nvs\n{states['parent']}"
        )
    return states


class _Fake:
    def __init__(self, inflight, ewma, by_model=None):
        self.inflight = inflight
        self.ewma_service_s = ewma
        if by_model is not None:
            self.ewma_by_model = by_model


class TestRouters:
    def test_least_loaded_prefers_smallest_drain_time(self):
        router = LeastLoadedRouter()
        idle = _Fake(0, 1e-3)
        busy = _Fake(6, 1e-3)
        assert router.select([busy, idle]) is idle
        # a slow shard loses even with less in flight
        slow = _Fake(1, 10e-3)
        fast = _Fake(3, 1e-3)
        assert router.select([slow, fast]) is fast

    def test_fresh_shard_competes_at_fleet_baseline(self):
        """A shard with no service history must not score 0 (it would
        swallow every group of a burst before its first reply)."""
        router = LeastLoadedRouter()
        seasoned = _Fake(0, 2e-3)
        fresh = _Fake(5, 0.0)  # cold but piled up
        assert router.select([seasoned, fresh]) is seasoned

    def test_per_model_estimate_beats_aggregate(self):
        """A shard whose *aggregate* EWMA is polluted by an expensive
        model must still win traffic for a model it serves quickly."""
        router = LeastLoadedRouter()
        # Shard A mostly serves the expensive model: aggregate looks
        # slow, but "cheap" is fast there.
        a = _Fake(2, 50e-3, by_model={"cheap": 1e-3, "pricey": 80e-3})
        b = _Fake(2, 5e-3, by_model={"cheap": 4e-3})
        assert router.select([a, b], ref="cheap") is a
        # aggregate-only routing would have picked b
        assert router.select([a, b]) is b

    def test_unseen_model_falls_back_to_aggregate(self):
        router = LeastLoadedRouter()
        a = _Fake(3, 2e-3, by_model={"other": 2e-3})
        b = _Fake(3, 9e-3, by_model={"other": 9e-3})
        # neither shard has seen "new": their aggregates decide
        assert router.select([a, b], ref="new") is a

    def test_attribute_only_doubles_still_work(self):
        """Routers must read shard handles via getattr — external
        callers (and these tests) pass plain objects without the
        per-model dict."""
        router = LeastLoadedRouter()
        lean = _Fake(0, 1e-3)
        deep = _Fake(6, 1e-3)
        assert router.select([deep, lean], ref="anything") is lean

    def test_idle_ties_spread_round_robin(self):
        router = LeastLoadedRouter()
        a, b = _Fake(0, 1e-3), _Fake(0, 1e-3)
        picks = {id(router.select([a, b])) for _ in range(4)}
        assert len(picks) == 2

    def test_round_robin_rotates(self):
        router = RoundRobinRouter()
        a, b, c = _Fake(0, 0), _Fake(9, 1), _Fake(3, 1)
        assert [router.select([a, b, c]) for _ in range(4)] == [a, b, c, a]

    def test_make_router_specs(self):
        assert isinstance(make_router("round_robin"), RoundRobinRouter)
        assert isinstance(make_router("least_loaded"), LeastLoadedRouter)
        assert isinstance(make_router("hash"), LeastLoadedRouter)
        custom = LeastLoadedRouter()
        assert make_router(custom) is custom
        with pytest.raises(ValueError, match="routing"):
            make_router("fastest")

    def test_custom_router_instance_plugs_in(self, toy):
        tree, x = toy

        class FirstShardRouter(Router):
            name = "first"

            def select(self, shards, ref=None):
                return shards[0] if shards else None

        with ShardedPolicyService(
            n_shards=2, routing=FirstShardRouter(), max_delay_s=1e-3
        ) as svc:
            svc.publish("toy", PolicyArtifact.from_tree(tree))
            results = [svc.submit("toy", row).result(30) for row in x[:20]]
            assert all(r.ok for r in results)
            served = [
                shard["models"].get("toy", {}).get("requests", 0)
                for shard in svc.cluster_metrics()["shards"]
            ]
            assert sorted(served) == [0, 20]


class TestAutoscaleDecide:
    CFG = AutoscaleConfig(
        min_shards=1, max_shards=4, scale_up_fill=0.75,
        scale_down_fill=0.15, queue_high_per_shard=64,
        slo_p95_ms=50.0, idle_ticks_down=8,
    )

    def test_below_min_scales_up(self):
        delta, reason = decide(
            self.CFG, AutoscaleSignals(live_shards=0)
        )
        assert delta == 1 and "min_shards" in reason

    def test_saturated_fill_scales_up(self):
        delta, _ = decide(self.CFG, AutoscaleSignals(
            live_shards=2, fill=0.9,
        ))
        assert delta == 1

    def test_queue_depth_scales_up_without_fill(self):
        delta, reason = decide(self.CFG, AutoscaleSignals(
            live_shards=2, fill=None, queue_depth=200,
        ))
        assert delta == 1 and "queue depth" in reason

    def test_slo_violation_scales_up(self):
        delta, reason = decide(self.CFG, AutoscaleSignals(
            live_shards=2, fill=0.3, p95_ms=80.0,
        ))
        assert delta == 1 and "SLO" in reason

    def test_at_max_never_scales_up(self):
        delta, _ = decide(self.CFG, AutoscaleSignals(
            live_shards=4, fill=1.0, queue_depth=10_000, p95_ms=500.0,
        ))
        assert delta == 0

    def test_persistent_idle_scales_down(self):
        delta, reason = decide(self.CFG, AutoscaleSignals(
            live_shards=3, fill=0.9, idle_ticks=8,
        ))
        # idle beats a stale fill estimate: no flushes are updating it
        assert delta == -1 and "idle" in reason

    def test_low_fill_with_empty_backlog_scales_down(self):
        delta, _ = decide(self.CFG, AutoscaleSignals(
            live_shards=3, fill=0.05, p95_ms=10.0,
        ))
        assert delta == -1

    def test_low_fill_with_backlog_holds(self):
        delta, _ = decide(self.CFG, AutoscaleSignals(
            live_shards=3, fill=0.05, inflight=4, p95_ms=10.0,
        ))
        assert delta == 0

    def test_at_min_never_scales_down(self):
        delta, _ = decide(self.CFG, AutoscaleSignals(
            live_shards=1, fill=0.0, idle_ticks=100,
        ))
        assert delta == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AutoscaleConfig(min_shards=0)
        with pytest.raises(ValueError):
            AutoscaleConfig(min_shards=3, max_shards=2)
        with pytest.raises(ValueError):
            AutoscaleConfig(scale_up_fill=0.2, scale_down_fill=0.5)
        with pytest.raises(ValueError, match="p95_window_s"):
            AutoscaleConfig(p95_window_s=0.0)
        with pytest.raises(ValueError, match="p95_window_s"):
            AutoscaleConfig(p95_window_s=-5.0)
        # None (full-ring reading) and positive windows are both legal
        assert AutoscaleConfig(p95_window_s=None).p95_window_s is None
        assert AutoscaleConfig(p95_window_s=10.0).p95_window_s == 10.0


class TestWindowedP95:
    """The SLO signal's sliding time window (ServerMetrics.p95_ms)."""

    def test_window_forgets_old_spike(self):
        from repro.serve.server import ServerMetrics

        metrics = ServerMetrics()
        # an old cold-start spike...
        for _ in range(20):
            metrics.record("m", 1, 0.500)
        # ...then make those samples old by aging their timestamps
        with metrics._lock:
            stats = metrics._models["m"]
            stats.recent = type(stats.recent)(
                ((ts - 60.0, lat) for ts, lat in stats.recent),
                maxlen=stats.recent.maxlen,
            )
        for _ in range(20):
            metrics.record("m", 1, 0.002)
        # the unwindowed reading still sees the spike; a 30s window
        # only sees current traffic
        assert metrics.p95_ms() > 100.0
        assert metrics.p95_ms(window_s=30.0) < 10.0

    def test_empty_window_reads_zero(self):
        from repro.serve.server import ServerMetrics

        metrics = ServerMetrics()
        metrics.record("m", 1, 0.010)
        with metrics._lock:
            stats = metrics._models["m"]
            stats.recent = type(stats.recent)(
                ((ts - 60.0, lat) for ts, lat in stats.recent),
                maxlen=stats.recent.maxlen,
            )
        assert metrics.p95_ms() > 0.0
        assert metrics.p95_ms(window_s=1.0) == 0.0

    def test_autoscaler_passes_window_to_signals(self, toy):
        tree, _ = toy
        config = AutoscaleConfig(slo_p95_ms=50.0, p95_window_s=5.0,
                                 interval_s=0.05)
        with ShardedPolicyService(
            n_shards=1, autoscale=config, max_delay_s=1e-3,
        ) as svc:
            svc.publish("toy", PolicyArtifact.from_tree(tree))
            raw = svc._autoscale_signals(want_p95=True, p95_window_s=5.0)
            assert raw is not None and raw["p95_ms"] >= 0.0


class TestElasticScaling:
    def test_add_shard_replays_full_state(self, toy, transport):
        tree, x = toy
        artifact = PolicyArtifact.from_tree(tree, name="m")
        with ShardedPolicyService(n_shards=1, split_seed=0) as svc:
            svc.publish("m", artifact, alias="m/prod")
            svc.publish("m", artifact)
            svc.set_split("m/prod", canary="m@2", canary_fraction=0.25)
            new_id = svc.add_shard()
            assert new_id == 1
            assert svc.cluster_metrics()["live_shards"] == 2
            _assert_replicas_identical(svc)
            # the new replica serves (route enough groups that both
            # shards see traffic)
            out = svc.predict("m@2", x[:64])
            assert np.array_equal(out, tree.predict(x[:64]))

    def test_remove_shard_drains_gracefully(self, toy):
        tree, x = toy
        with ShardedPolicyService(n_shards=3) as svc:
            svc.publish("toy", PolicyArtifact.from_tree(tree))
            removed = svc.remove_shard()
            view = svc.cluster_metrics()
            assert view["live_shards"] == 2 and view["n_shards"] == 2
            assert removed not in {
                shard["shard"] for shard in view["shards"]
            }
            results = [svc.submit("toy", row).result(30) for row in x[:16]]
            assert all(r.ok for r in results)
            with pytest.raises(KeyError):
                svc.remove_shard(removed)

    def test_remove_refuses_last_shard(self, toy):
        tree, _ = toy
        with ShardedPolicyService(n_shards=1) as svc:
            svc.publish("toy", PolicyArtifact.from_tree(tree))
            with pytest.raises(RuntimeError, match="last live shard"):
                svc.remove_shard()

    def test_autoscaler_scales_up_under_load_and_down_when_idle(self, toy):
        tree, x = toy
        config = AutoscaleConfig(
            min_shards=1, max_shards=3, interval_s=0.05, cooldown_s=0.25,
            scale_up_fill=0.35, scale_down_fill=0.1, idle_ticks_down=4,
        )
        with ShardedPolicyService(
            n_shards=1, adaptive_delay=True, max_batch=16,
            max_delay_s=1e-3, autoscale=config,
        ) as svc:
            svc.publish("toy", PolicyArtifact.from_tree(tree))
            run_load(svc, "toy", x[:400], n_clients=16, repeats=6)
            # generous deadlines: this is a wall-clock control loop,
            # and contended single-core CI boxes stretch every phase
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if svc.autoscaler.scale_ups >= 1:
                    break
                run_load(svc, "toy", x[:400], n_clients=16, repeats=2)
            snap = svc.autoscaler.snapshot()
            assert snap["scale_ups"] >= 1, f"never scaled up: {snap}"
            # scaled replicas are in lockstep too
            _assert_replicas_identical(svc)
            # idle long enough and capacity returns to min_shards.  The
            # victim stops counting as live as soon as it starts
            # draining, but the autoscaler counts the scale-down only
            # once remove_shard() has drained and joined it: wait for
            # both.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if (svc.cluster_metrics()["live_shards"] == 1
                        and svc.autoscaler.scale_downs >= 1):
                    break
                time.sleep(0.1)
            assert svc.cluster_metrics()["live_shards"] == 1, (
                f"never scaled back down: {svc.autoscaler.snapshot()}"
            )
            assert svc.autoscaler.scale_downs >= 1
            events = svc.scale_events()
            assert {e["action"] for e in events} == {"up", "down"}
            assert all(e["reason"] for e in events)


class TestSelfHealing:
    def test_killed_shard_is_replaced_with_identical_state(
        self, toy, transport
    ):
        """The resilient-republish headline: kill a shard under an
        active canary/shadow split and live traffic; the replacement
        must replay to byte-identical control state, and no future may
        be dropped (every submitted future resolves — ok or a
        structured shard_error, never a hang)."""
        tree, x = toy
        artifact = PolicyArtifact.from_tree(tree, name="m")
        with ShardedPolicyService(
            n_shards=2, self_heal=True, split_seed=7, max_delay_s=1e-3,
        ) as svc:
            svc.publish("m", artifact, alias="m/prod")
            svc.publish("m", artifact)
            svc.set_split("m/prod", canary="m@2", canary_fraction=0.3,
                          shadow="m@2")
            # second model through the pickle transport path
            svc.publish("syn", synthetic_artifact("syn", 1e-5,
                                                  n_features=5))
            before = _assert_replicas_identical(svc)

            futures = []
            stop = threading.Event()

            def pump():
                while not stop.is_set():
                    futures.append(svc.submit("m/prod", x[0]))
                    time.sleep(0.001)

            pumper = threading.Thread(target=pump, daemon=True)
            pumper.start()
            time.sleep(0.05)
            victim = svc._shards[0].shard_id
            svc.kill_shard(victim)
            assert _wait_live(svc, 2), "replacement never came up"
            time.sleep(0.1)
            stop.set()
            pumper.join(timeout=10)

            # zero dropped futures: every one resolves
            results = [f.result(timeout=30) for f in futures]
            assert len(results) == len(futures)
            ok = [r for r in results if r.ok]
            failed = [r for r in results if not r.ok]
            assert ok, "no request survived the kill window"
            assert all(r.error == "shard_error" for r in failed)
            # versions attribute to the published artifacts only
            assert {r.version for r in ok} <= {1, 2}

            # the replacement replayed to byte-identical control state
            after = _assert_replicas_identical(svc)
            assert repr(after["parent"]) == repr(before["parent"])
            assert victim not in after["shards"]
            # and it serves the same decisions
            out = svc.predict("m", x[:64])
            assert np.array_equal(out, tree.predict(x[:64]))
            assert svc.predict("syn", x[:8, :5]).shape == (8,)

    def test_retired_versions_replay_as_tombstones(self, toy, transport):
        tree, x = toy
        artifact = PolicyArtifact.from_tree(tree, name="m")
        with ShardedPolicyService(n_shards=2, self_heal=True) as svc:
            svc.publish("m", artifact)
            svc.publish("m", artifact)
            svc.publish("m", artifact)
            svc.retire("m", 2)
            victim = svc._shards[1].shard_id
            svc.kill_shard(victim)
            assert _wait_live(svc, 2), "replacement never came up"
            states = _assert_replicas_identical(svc)
            hashes = states["parent"]["models"]["m"]
            assert hashes[1] is None and hashes[0] == hashes[2]
            # numbering is stable on the replacement: @2 stays retired,
            # @3 still serves
            gone = svc.submit("m@2", x[0]).result(30)
            assert (gone.ok, gone.error) == (False, "unknown_model")
            assert svc.submit("m@3", x[0]).result(30).ok

    def test_healed_shards_predecessor_is_closed_and_reaped(
        self, toy, transport
    ):
        tree, x = toy
        with ShardedPolicyService(n_shards=1, self_heal=True) as svc:
            svc.publish("m", PolicyArtifact.from_tree(tree, name="m"))
            dead = svc._shards[0]
            # Killed behind the service's back: no kill_shard join.
            os.kill(dead.process.pid, signal.SIGKILL)
            deadline = time.monotonic() + 20.0
            while dead in svc._shards and time.monotonic() < deadline:
                time.sleep(0.05)
            assert dead not in svc._shards, "replacement never came up"
            dead.reader.join(timeout=10)
            assert not dead.reader.is_alive()
            assert dead.transport._conn.closed
            with pytest.raises(ChildProcessError):  # already reaped
                os.waitpid(dead.process.pid, os.WNOHANG)
            assert svc.submit("m", x[0]).result(30).ok

    def test_publish_after_heal_stays_in_lockstep(self, toy):
        tree, x = toy
        artifact = PolicyArtifact.from_tree(tree, name="m")
        with ShardedPolicyService(n_shards=2, self_heal=True) as svc:
            svc.publish("m", artifact)
            svc.kill_shard(svc._shards[0].shard_id)
            assert _wait_live(svc, 2)
            # the healed fleet accepts new control ops as one
            assert svc.publish("m", artifact) == 2
            svc.alias("m/prod", "m", version=2)
            _assert_replicas_identical(svc)
            assert np.array_equal(
                svc.predict("m/prod", x[:16]), tree.predict(x[:16])
            )

    def test_no_self_heal_without_optin(self, toy):
        tree, _ = toy
        with ShardedPolicyService(n_shards=2) as svc:
            svc.publish("toy", PolicyArtifact.from_tree(tree))
            svc.kill_shard(svc._shards[0].shard_id)
            deadline = time.monotonic() + 3.0
            while time.monotonic() < deadline:
                if svc.cluster_metrics()["live_shards"] == 1:
                    break
                time.sleep(0.05)
            time.sleep(0.3)  # give a hypothetical healer time to act
            assert svc.cluster_metrics()["live_shards"] == 1


class TestWarmupMeasurement:
    def test_warmup_requests_excluded_from_report(self, toy):
        tree, x = toy
        with PolicyServer(max_batch=32, max_delay_s=5e-4) as server:
            server.publish("toy", PolicyArtifact.from_tree(tree))
            report = run_load(
                server, "toy", x[:120], n_clients=4, warmup=10,
            )
            # the report counts only measured requests...
            assert report.n_requests == 120
            assert report.n_errors == 0
            # ...while the server actually served warmup ones on top
            assert server._metrics.total_requests() == 120 + 4 * 10

    def test_warmup_validation(self, toy):
        tree, x = toy
        with PolicyServer() as server:
            server.publish("toy", PolicyArtifact.from_tree(tree))
            with pytest.raises(ValueError, match="warmup"):
                run_load(server, "toy", x[:8], warmup=-1)


class TestLoadShapes:
    def test_hot_key_states_skew_and_determinism(self, toy):
        _, x = toy
        rows = hot_key_states(x, n_rows=1000, hot_fraction=0.9, seed=3)
        assert rows.shape == (1000, x.shape[1])
        uniques, counts = np.unique(rows, axis=0, return_counts=True)
        assert counts.max() >= 900  # the hot key dominates
        again = hot_key_states(x, n_rows=1000, hot_fraction=0.9, seed=3)
        assert np.array_equal(rows, again)
        with pytest.raises(ValueError, match="hot_fraction"):
            hot_key_states(x, hot_fraction=1.5)

    def test_bursty_async_load_counts_every_row(self, toy):
        """burst>1 fires chunks concurrently per round; every row must
        be submitted exactly once (including a final partial burst)."""
        from repro.serve.loadgen import run_load_async

        tree, x = toy
        with PolicyServer(max_batch=32, max_delay_s=5e-4) as server:
            server.publish("toy", PolicyArtifact.from_tree(tree))
            # 110 rows over 4 clients -> 27/28 per client: not
            # divisible by burst*chunk, so the last round is partial
            report = run_load_async(
                server, "toy", x[:110], n_clients=4, repeats=2,
                burst=3, burst_pause_s=1e-4, warmup=2,
            )
            assert report.n_requests == 220
            assert report.n_errors == 0
            assert report.versions == {1: 220}
        with PolicyServer() as server:
            server.publish("toy", PolicyArtifact.from_tree(tree))
            with pytest.raises(ValueError, match="burst"):
                run_load_async(server, "toy", x[:8], burst=0)

    def test_synthetic_cost_spins_and_pickles(self):
        import pickle

        cost = SyntheticCost(n_features=4, per_call_s=5e-3)
        start = time.perf_counter()
        out = cost(np.ones((3, 4)))
        assert time.perf_counter() - start >= 5e-3
        assert out.shape == (3,)
        clone = pickle.loads(pickle.dumps(cost))
        assert clone.per_call_s == cost.per_call_s
        art = synthetic_artifact("syn", 5e-3, n_features=4)
        twin = synthetic_artifact("other", 5e-3, n_features=4)
        assert art.content_hash == twin.content_hash
        assert art.flat is None  # ships via the pickle transport
