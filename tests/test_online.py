"""The online-loop test layer: chaos, property, and decision-table
proofs for :mod:`repro.serve.online`.

Every promote/rollback story runs on a fake clock — the controller and
monitor are explicit state machines, so no assertion ever sleeps for a
decision.  Wall-clock polling appears only where a real process death
must propagate (the chaos test), never in a decision assertion.
"""

import threading
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tree import DecisionTreeClassifier
from repro.obs.health import AlertRule, HealthMonitor, standard_rules
from repro.serve import PolicyArtifact, PolicyServer, TrafficSplitter
from repro.serve.online import (
    AutoCanaryController,
    Redistiller,
    RefitResult,
    TraceCapture,
)


class FakeClock:
    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class ThresholdTeacher:
    """Picklable policy: action = 1 iff feature 0 exceeds a threshold
    (publishable via ``PolicyArtifact.from_teacher``)."""

    def __init__(self, threshold: float) -> None:
        self.threshold = threshold

    def act_greedy_batch(self, states: np.ndarray) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=float))
        return (states[:, 0] > self.threshold).astype(int)


def _tree_artifact(name: str, threshold: float, seed: int = 0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (300, 4))
    y = (x[:, 0] > threshold).astype(int)
    tree = DecisionTreeClassifier(max_leaf_nodes=8).fit(x, y)
    return PolicyArtifact.from_tree(tree, name=name, codegen=False)


# ---------------------------------------------------------------------------
# TraceCapture
# ---------------------------------------------------------------------------
class TestTraceCapture:
    def test_bound_and_eviction(self):
        cap = TraceCapture(capacity=8, sample_rate=1.0, seed=0)
        rows = np.arange(40.0).reshape(10, 4)
        landed = cap.submit_group("m", 1, rows, list(range(10)))
        assert landed == 10
        assert len(cap) == 8
        assert cap.evicted == 2
        # Survivors are the newest entries, seq still monotonic.
        seqs = [e["seq"] for e in cap.entries_since(0)]
        assert seqs == sorted(seqs) and seqs[-1] == 10

    def test_zero_rate_is_free_and_clamped(self):
        cap = TraceCapture(capacity=4, sample_rate=0.0)
        assert cap.submit_group("m", 1, np.ones((5, 2)), [0] * 5) == 0
        assert len(cap) == 0
        cap.sample_rate = 7.5
        assert cap.sample_rate == 1.0
        cap.sample_rate = -3
        assert cap.sample_rate == 0.0

    def test_submit_never_raises(self):
        cap = TraceCapture(capacity=4, sample_rate=1.0)
        # Mismatched rows/actions and garbage rows are swallowed.
        assert cap.submit_group("m", 1, np.ones((3, 2)), [0]) == 0
        assert cap.submit_group("m", 1, "not an array", [0]) == 0
        assert cap.submit_group("m", 1, np.ones(3), [0, 1, 2]) == 0
        assert len(cap) == 0

    def test_entries_since_consumers_get_disjoint_batches(self):
        cap = TraceCapture(capacity=64, sample_rate=1.0, seed=0)
        cap.submit_group("m", 1, np.ones((5, 2)), list(range(5)))
        first = cap.entries_since(0)
        mark = first[-1]["seq"]
        cap.submit_group("m", 1, np.ones((3, 2)), list(range(3)))
        second = cap.entries_since(mark)
        assert {e["seq"] for e in first}.isdisjoint(
            {e["seq"] for e in second}
        )
        assert len(second) == 3

    def test_take_is_destructive_and_ordered(self):
        cap = TraceCapture(capacity=16, sample_rate=1.0, seed=0)
        cap.submit_group("m", 1, np.ones((6, 2)), list(range(6)))
        first = cap.take(4)
        rest = cap.take()
        assert [e["seq"] for e in first] == [1, 2, 3, 4]
        assert [e["seq"] for e in rest] == [5, 6]
        assert cap.take() == []

    def test_ingest_resequences_and_labels(self):
        parent = TraceCapture(capacity=16)
        parent.submit_group  # parent rate stays 0; ingest is explicit
        worker = TraceCapture(capacity=16, sample_rate=1.0, seed=1)
        worker.submit_group("m", 2, np.ones((3, 2)), [0, 1, 0])
        n = parent.ingest(worker.entries_since(0), {"shard": "7"})
        assert n == 3
        entries = parent.entries_since(0)
        assert [e["seq"] for e in entries] == [1, 2, 3]
        assert [e["origin_seq"] for e in entries] == [1, 2, 3]
        assert all(e["shard"] == "7" for e in entries)

    @settings(deadline=None, max_examples=10)
    @given(
        rate=st.floats(min_value=0.05, max_value=1.0),
        capacity=st.integers(min_value=4, max_value=48),
        per_thread=st.integers(min_value=5, max_value=40),
    )
    def test_concurrent_submit_drain_property(
            self, rate, capacity, per_thread):
        """Under concurrent submit/drain at a random sampling rate: the
        ring never exceeds its bound, every sampled pair matches a real
        served (state, action), and drained batches are disjoint."""
        cap = TraceCapture(capacity=capacity, sample_rate=rate, seed=3)
        n_threads = 3
        drained, depths = [], []
        stop = threading.Event()

        def submitter(tid: int) -> None:
            for i in range(per_thread):
                key = tid * 1000 + i
                rows = np.array([[tid, i, key, 0.5]])
                cap.submit_group(f"m{tid}", 1, rows, [key])

        def drainer() -> None:
            while not stop.is_set():
                depths.append(len(cap))
                batch = cap.take(5)
                if batch:
                    drained.append(batch)

        threads = [threading.Thread(target=submitter, args=(t,))
                   for t in range(n_threads)]
        drain = threading.Thread(target=drainer)
        drain.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        drain.join()
        drained.append(cap.take())
        depths.append(len(cap))

        assert all(d <= capacity for d in depths)
        seen = set()
        for batch in drained:
            batch_seqs = {e["seq"] for e in batch}
            assert seen.isdisjoint(batch_seqs), "overlapping drains"
            seen |= batch_seqs
            for e in batch:
                tid, i, key, _pad = e["state"]
                # The sampled pair is a real served (state, action):
                # the state row encodes exactly the action it was
                # served with.
                assert e["action"] == int(key) == int(tid) * 1000 + int(i)
                assert e["model"] == f"m{int(tid)}"
        # Nothing ever gets drained twice even counting eviction.
        assert len(seen) == sum(len(b) for b in drained)


# ---------------------------------------------------------------------------
# Redistiller
# ---------------------------------------------------------------------------
class TestRedistiller:
    def _fill(self, cap, n, served_threshold=0.5, seed=0):
        rng = np.random.default_rng(seed)
        rows = rng.uniform(0, 1, (n, 4))
        actions = (rows[:, 0] > served_threshold).astype(int)
        cap.submit_group("policy", 1, rows, actions.tolist())
        return rows

    def test_refit_below_min_samples_buffers(self):
        cap = TraceCapture(capacity=512, sample_rate=1.0, seed=0)
        rd = Redistiller(cap, ThresholdTeacher(0.3), min_samples=100)
        self._fill(cap, 60)
        assert rd.refit() is None
        assert rd.pending_samples() == 60  # buffered, not lost
        self._fill(cap, 60, seed=1)
        result = rd.refit()
        assert result is not None
        assert result.n_samples == 120

    def test_refit_tracks_teacher_and_measures_drift(self):
        cap = TraceCapture(capacity=2048, sample_rate=1.0, seed=0)
        rd = Redistiller(cap, ThresholdTeacher(0.3), min_samples=256,
                         leaf_nodes=16)
        self._fill(cap, 600, served_threshold=0.5)
        result = rd.refit()
        assert result.agreement >= 0.95, "refit tree must fit teacher"
        # The served policy used threshold 0.5 vs the teacher's 0.3 —
        # about 20% of uniform traffic disagrees.
        assert result.served_agreement < 0.9
        # The refit artifact itself now agrees with the teacher.
        rng = np.random.default_rng(9)
        x = rng.uniform(0, 1, (500, 4))
        want = ThresholdTeacher(0.3).act_greedy_batch(x)
        got = result.artifact.predict_batch(x)
        assert (want == got).mean() >= 0.95

    def test_teacher_swap_is_live(self):
        cap = TraceCapture(capacity=2048, sample_rate=1.0, seed=0)
        rd = Redistiller(cap, ThresholdTeacher(0.5), min_samples=64)
        rd.teacher = ThresholdTeacher(0.2)
        self._fill(cap, 200, served_threshold=0.5)
        result = rd.refit()
        assert result.served_agreement < 0.8  # drift vs swapped teacher

    def test_artifact_teacher_via_predict_batch_shim(self):
        cap = TraceCapture(capacity=512, sample_rate=1.0, seed=0)
        teacher_artifact = PolicyArtifact.from_teacher(
            ThresholdTeacher(0.3), n_features=4, name="teacher"
        )
        rd = Redistiller(cap, teacher_artifact, min_samples=64)
        self._fill(cap, 200)
        assert rd.refit().agreement >= 0.9


# ---------------------------------------------------------------------------
# Decision-table matrix (injected HealthMonitor callbacks, no sleeps)
# ---------------------------------------------------------------------------
class StubTier:
    def __init__(self):
        self.calls = []
        self._version = 0
        self.journal = None

    def publish(self, name, artifact, alias=None):
        self._version += 1
        self.calls.append(("publish", name, self._version))
        return self._version

    def set_split(self, ref, canary=None, canary_fraction=0.0,
                  shadow=None):
        self.calls.append(
            ("set_split", ref, canary, canary_fraction, shadow)
        )

    def clear_split(self, ref):
        self.calls.append(("clear_split", ref))

    def alias(self, alias, target, version=None):
        self.calls.append(("alias", alias, target, version))

    def rollback_publish(self, name, version):
        self.calls.append(("rollback_publish", name, version))

    def ops(self):
        return [c[0] for c in self.calls]


class StubMonitor:
    def __init__(self):
        self.callbacks = []
        self.phases = {}

    def subscribe(self, cb):
        self.callbacks.append(cb)

    def states(self):
        return dict(self.phases)

    def fire(self, name):
        self.phases[name] = "firing"
        rule = types.SimpleNamespace(name=name)
        for cb in self.callbacks:
            cb(rule, "fire", {"kind": "alert_fire"})

    def pend(self, name):
        self.phases[name] = "pending"

    def resolve(self, name):
        self.phases[name] = "inactive"
        rule = types.SimpleNamespace(name=name)
        for cb in self.callbacks:
            cb(rule, "resolve", {"kind": "alert_resolve"})


class StubRedistiller:
    def __init__(self, result=None):
        self.result = result
        self.refits = 0

    def refit(self):
        if self.result is None:
            return None
        self.refits += 1
        return self.result

    def pending_samples(self):
        return 0


def _controller(tier=None, monitor=None, **kwargs):
    clock = FakeClock()
    tier = tier if tier is not None else StubTier()
    monitor = monitor if monitor is not None else StubMonitor()
    kwargs.setdefault("stages", (0.01, 0.10, 0.50))
    kwargs.setdefault("hold_s", 10.0)
    ctl = AutoCanaryController(
        tier, "abr", StubRedistiller(), monitor, clock=clock, **kwargs
    )
    return ctl, tier, monitor, clock


def _ramp(ctl, clock):
    version = ctl.begin_ramp(object(), now=clock())
    return version


class TestDecisionTable:
    """The promote/rollback decision table: (agreement ok | low) x
    (SLO ok | burning) x (pending | firing) transitions, driven purely
    through injected monitor callbacks and explicit ticks."""

    def test_all_resolved_ramps_to_promotion(self):
        ctl, tier, _monitor, clock = _controller()
        _ramp(ctl, clock)
        assert ("set_split", "abr", "abr-refit@1", 0.01, None) in tier.calls
        for expected in (0.10, 0.50):
            clock.advance(10.0)
            ctl.tick(now=clock())
            assert ctl.status()["fraction"] == expected
        clock.advance(10.0)
        ctl.tick(now=clock())
        assert ctl.status()["state"] == "idle"
        assert ("alias", "abr", "abr-refit", 1) in tier.calls
        assert "rollback_publish" not in tier.ops()

    def test_agreement_fire_mid_ramp_rolls_back(self):
        ctl, tier, monitor, clock = _controller()
        _ramp(ctl, clock)
        monitor.fire("shadow_agreement_floor")
        ctl.tick(now=clock())
        assert tier.ops()[-2:] == ["clear_split", "rollback_publish"]
        assert ("rollback_publish", "abr-refit", 1) in tier.calls
        assert ctl.status()["state"] == "idle"
        assert ctl.history[-1]["reason"] == "shadow_agreement_floor"

    def test_slo_fire_mid_ramp_rolls_back(self):
        ctl, tier, monitor, clock = _controller()
        _ramp(ctl, clock)
        clock.advance(10.0)
        ctl.tick(now=clock())  # advanced to stage 1 first
        assert ctl.status()["fraction"] == 0.10
        monitor.fire("p95_slo_burn")
        ctl.tick(now=clock())
        assert ("rollback_publish", "abr-refit", 1) in tier.calls
        assert "alias" not in tier.ops()

    def test_pending_pauses_without_rollback(self):
        ctl, tier, monitor, clock = _controller()
        _ramp(ctl, clock)
        monitor.pend("p95_slo_burn")
        clock.advance(10.0)
        ctl.tick(now=clock())
        status = ctl.status()
        assert status["state"] == "ramping"
        assert status["fraction"] == 0.01  # held, not advanced
        assert status["paused_on"] == ["p95_slo_burn"]
        assert "rollback_publish" not in tier.ops()
        # A pending phase restarts the hold: resolving does not count
        # the paused time toward the stage hold.
        monitor.resolve("p95_slo_burn")
        clock.advance(5.0)
        ctl.tick(now=clock())
        assert ctl.status()["fraction"] == 0.01
        clock.advance(10.0)
        ctl.tick(now=clock())
        assert ctl.status()["fraction"] == 0.10

    def test_unwatched_rule_fire_is_ignored(self):
        ctl, tier, monitor, clock = _controller()
        _ramp(ctl, clock)
        monitor.fire("queue_depth_ceiling")
        clock.advance(10.0)
        ctl.tick(now=clock())
        assert ctl.status()["fraction"] == 0.10
        assert "rollback_publish" not in tier.ops()

    def test_labeled_rule_keys_match_watch_prefix(self):
        ctl, tier, monitor, clock = _controller()
        _ramp(ctl, clock)
        monitor.phases['p95_slo_burn{model=abr}'] = "firing"
        clock.advance(10.0)
        ctl.tick(now=clock())
        assert ctl.status()["paused_on"] == ["p95_slo_burn{model=abr}"]

    def test_drift_fire_while_idle_triggers_refit_and_ramp(self):
        ctl, tier, monitor, clock = _controller()
        ctl.redistiller = StubRedistiller(RefitResult(
            artifact=object(), n_samples=500, agreement=0.99,
            served_agreement=0.7,
        ))
        monitor.fire("shadow_agreement_floor")
        assert ctl.status()["drift_pending"]
        monitor.resolve("shadow_agreement_floor")
        ctl.tick(now=clock())
        assert ctl.status()["state"] == "ramping"
        assert tier.ops()[:2] == ["publish", "set_split"]

    def test_low_agreement_refit_never_serves(self):
        ctl, tier, _monitor, clock = _controller(
            min_refit_agreement=0.95
        )
        ctl.redistiller = StubRedistiller(RefitResult(
            artifact=object(), n_samples=500, agreement=0.80,
            served_agreement=0.7,
        ))
        ctl.request_refit()
        ctl.tick(now=clock())
        assert ctl.status()["state"] == "idle"
        assert tier.calls == []
        assert ctl.history[-1]["action"] == "refit_rejected"

    def test_insufficient_samples_keeps_drift_pending(self):
        ctl, tier, _monitor, clock = _controller()
        ctl.redistiller = StubRedistiller(None)
        ctl.request_refit()
        ctl.tick(now=clock())
        status = ctl.status()
        assert status["drift_pending"]  # retried on a later tick
        assert status["state"] == "idle"
        assert tier.calls == []

    def test_service_estimate_gate_pauses_ramp(self):
        estimate = {"value": 50.0}
        ctl, tier, _monitor, clock = _controller(
            slo_p95_ms=20.0,
            service_estimate_fn=lambda ref: estimate["value"],
        )
        _ramp(ctl, clock)
        clock.advance(10.0)
        ctl.tick(now=clock())
        status = ctl.status()
        assert status["fraction"] == 0.01
        assert status["paused_on"] and "service_estimate" in \
            status["paused_on"][0]
        estimate["value"] = 5.0
        clock.advance(10.0)
        ctl.tick(now=clock())
        assert ctl.status()["fraction"] == 0.10

    def test_shard_death_event_mid_ramp_rolls_back(self):
        from repro.obs.events import EventJournal

        journal = EventJournal()
        tier = StubTier()
        tier.journal = journal
        ctl, tier, _monitor, clock = _controller(tier=tier)
        _ramp(ctl, clock)
        journal.emit("shard_death", severity="error",
                     labels={"shard": "0"})
        ctl.tick(now=clock())
        assert ("rollback_publish", "abr-refit", 1) in tier.calls

    def test_begin_ramp_refuses_while_ramping(self):
        ctl, _tier, _monitor, clock = _controller()
        _ramp(ctl, clock)
        with pytest.raises(RuntimeError, match="already active"):
            ctl.begin_ramp(object(), now=clock())


# ---------------------------------------------------------------------------
# Splitter shadow-stat retirement (the drift-vs-ramp interaction)
# ---------------------------------------------------------------------------
class TestShadowStatRetirement:
    def test_shadowless_split_retires_stale_stats(self):
        splitter = TrafficSplitter(seed=0)
        splitter.set_split("abr", shadow="teacher")
        splitter.record_shadow("abr", "teacher", [0, 0], [1, 1])
        assert splitter.shadow_report()["abr"]["requests"] == 2
        # The auto-canary ramp replaces the detection mirror with a
        # canary-only split: the breached stats must retire with it.
        splitter.set_split("abr", canary="abr-refit@1",
                          canary_fraction=0.01)
        assert "abr" not in splitter.shadow_report()
        # Reinstalling the mirror after promotion starts fresh.
        splitter.set_split("abr", shadow="teacher")
        assert splitter.shadow_report()["abr"]["requests"] == 0


# ---------------------------------------------------------------------------
# rollback_publish tier surface
# ---------------------------------------------------------------------------
class TestRollbackPublishSurface:
    def test_server_rollback_guarded_by_splits(self):
        with PolicyServer(max_delay_s=0.0) as server:
            server.publish("policy", _tree_artifact("policy", 0.5))
            server.publish("cand", _tree_artifact("cand", 0.3))
            server.set_split("policy", canary="cand",
                            canary_fraction=0.5)
            with pytest.raises(ValueError, match="split"):
                server.rollback_publish("cand", 1)
            server.clear_split("policy")
            server.rollback_publish("cand", 1)
            with pytest.raises(KeyError):
                server.registry.resolve("cand")


# ---------------------------------------------------------------------------
# Per-(shard, model) service-time estimate (ROADMAP EWMA fix)
# ---------------------------------------------------------------------------
class TestRoutedServiceEstimate:
    def test_estimate_prefers_per_model_ewma(self):
        from repro.serve.cluster import ShardedPolicyService

        with ShardedPolicyService(n_shards=1, max_delay_s=1e-3) as svc:
            shard = svc._shards[0]
            shard.ewma_by_model = {"cheap": 0.001, "costly": 0.05}
            shard.ewma_service_s = 0.03
            # Per-(shard, model) estimate, not the blended per-shard
            # EWMA that mixes model costs.
            assert svc.routed_service_estimate_ms("cheap") == \
                pytest.approx(1.0)
            assert svc.routed_service_estimate_ms("costly") == \
                pytest.approx(50.0)
            # Unknown ref falls back to the blended EWMA.
            assert svc.routed_service_estimate_ms("other") == \
                pytest.approx(30.0)

    def test_estimate_none_without_signal_and_worst_across_shards(self):
        from repro.serve.cluster import ShardedPolicyService

        with ShardedPolicyService(n_shards=2, max_delay_s=1e-3) as svc:
            for shard in svc._shards:
                shard.ewma_by_model = {}
                shard.ewma_service_s = 0.0
            assert svc.routed_service_estimate_ms("m") is None
            svc._shards[0].ewma_by_model = {"m": 0.002}
            svc._shards[1].ewma_by_model = {"m": 0.008}
            # The controller gates on the worst shard.
            assert svc.routed_service_estimate_ms("m") == \
                pytest.approx(8.0)

    def test_start_online_wires_routed_estimate_into_controller(self):
        from repro.serve.cluster import ShardedPolicyService

        with ShardedPolicyService(n_shards=1, max_delay_s=1e-3) as svc:
            svc.publish("policy", _tree_artifact("policy", 0.5))
            svc.alias("abr", "policy")
            ctl = svc.start_online("abr", ThresholdTeacher(0.3),
                                   slo_p95_ms=25.0)
            assert ctl.service_estimate_fn == \
                svc.routed_service_estimate_ms
            svc._shards[0].ewma_by_model = {"abr": 0.1}
            assert "service_estimate" in " ".join(ctl._gates())
            svc._shards[0].ewma_by_model = {"abr": 0.001}
            assert ctl._gates() == []


# ---------------------------------------------------------------------------
# End-to-end on a fake clock
# ---------------------------------------------------------------------------
def _online_cluster(burn_flag=None, n_shards=1, self_heal=False):
    """A 4-feature cluster serving alias ``abr`` -> ``policy`` (trained
    at threshold 0.5), with a published teacher at threshold 0.3 and a
    fake-clock monitor watching shadow agreement (plus an injectable
    p95 burn predicate)."""
    from repro.serve.cluster import ShardedPolicyService

    svc = ShardedPolicyService(n_shards=n_shards, max_delay_s=1e-3,
                               self_heal=self_heal)
    svc.publish("policy", _tree_artifact("policy", 0.5))
    svc.alias("abr", "policy")
    svc.publish("teacher", PolicyArtifact.from_teacher(
        ThresholdTeacher(0.3), n_features=4, name="teacher"
    ))
    clock = FakeClock()
    rules = standard_rules(
        svc._metrics, max_error_ratio=None,
        shadow_report_fn=svc.shadow_report,
        min_shadow_requests=50, min_shadow_agreement=0.95, for_s=0.0,
    )
    if burn_flag is not None:
        rules.append(AlertRule(
            "p95_slo_burn", lambda: burn_flag["on"], severity="page",
            for_s=0.0,
        ))
    monitor = HealthMonitor(rules, journal=svc.journal, clock=clock)
    ctl = svc.start_online(
        "abr", ThresholdTeacher(0.3), sample_rate=1.0, capacity=4096,
        monitor=monitor, min_samples=64, leaf_nodes=16,
        stages=(0.01, 0.5), hold_s=10.0, min_refit_agreement=0.8,
        detection_shadow="teacher", clock=clock,
    )
    return svc, ctl, monitor, clock


def _drive(svc, n=256, seed=0):
    rng = np.random.default_rng(seed)
    futures = [svc.submit("abr", row)
               for row in rng.uniform(0, 1, (n, 4))]
    results = [f.result(timeout=30) for f in futures]
    assert all(r.ok for r in results)
    return results


# The pipe is the only worker transport; the parameter keeps these
# tests' [pipe] ids, which their recorded history is keyed by.
@pytest.mark.parametrize("transport", ["pipe"])
class TestOnlineEndToEnd:
    def test_drift_refit_ramp_promote(self, transport):
        """The paper's loop, closed: the served model degrades (its
        teacher moved), shadow_agreement_floor fires, a refit tree is
        produced from captured traffic, ramps through the canary
        stages, and is promoted to the alias — every decision on a
        fake clock."""
        svc, ctl, monitor, clock = _online_cluster()
        try:
            # Arm worker-side sampling (first drain pushes the rate).
            ctl.tick(now=clock())
            svc.set_split("abr", shadow="teacher")
            _drive(svc, 256)
            monitor.tick(now=clock())
            assert "shadow_agreement_floor" in monitor.active_alerts()

            status = ctl.tick(now=clock())
            assert status["state"] == "ramping"
            assert status["fraction"] == 0.01
            assert svc.splits()["abr"].canary == "abr-refit@1"
            assert svc.splits()["abr"].shadow is None

            # The detection mirror is gone, so the floor resolves while
            # the fix ramps (and the gate un-blocks).
            monitor.tick(now=clock())
            assert monitor.active_alerts() == []

            _drive(svc, 64, seed=1)
            clock.advance(11.0)
            assert ctl.tick(now=clock())["fraction"] == 0.5
            clock.advance(11.0)
            status = ctl.tick(now=clock())
            assert status["state"] == "idle"

            # Promotion repointed the alias at the pinned refit and
            # reinstalled the detection mirror with fresh stats.
            assert svc.registry.aliases()["abr"] == ("abr-refit", 1)
            assert svc.splits()["abr"].shadow == "teacher"
            _drive(svc, 128, seed=2)
            report = svc.shadow_report()["abr"]
            assert report["requests"] >= 100
            assert report["agreement_rate"] >= 0.95

            monitor.tick(now=clock())
            assert monitor.active_alerts() == []

            kinds = [e["kind"] for e in svc.events()]
            assert "canary_change" in kinds and "alias_move" in kinds
            history = [h["action"] for h in ctl.history]
            assert history[0] == "refit"
            assert history[-1] == "promote"
        finally:
            svc.close()

    def test_slo_burn_mid_ramp_rolls_back(self, transport):
        """The symmetric story: an injected p95 SLO burn mid-ramp
        triggers rollback_publish — the candidate version is gone
        everywhere, the split is cleared, and serving continues."""
        burn = {"on": False}
        svc, ctl, monitor, clock = _online_cluster(burn_flag=burn)
        try:
            ctl.tick(now=clock())
            refit = _tree_artifact("abr-refit", 0.3, seed=5)
            ctl.begin_ramp(refit, now=clock())
            assert "abr" in svc.splits()
            _drive(svc, 64)

            burn["on"] = True
            monitor.tick(now=clock())
            assert "p95_slo_burn" in monitor.active_alerts()
            status = ctl.tick(now=clock())
            assert status["state"] == "idle"

            # The candidate was rolled back on the parent and every
            # shard; the split is gone; the alias still serves.
            with pytest.raises(KeyError):
                svc.registry.resolve("abr-refit")
            assert "abr" not in {
                ref for ref, split in svc.splits().items()
                if split.canary is not None
            }
            states = svc.replica_states()
            assert all(
                "abr-refit" not in state["models"]
                for state in [states["parent"],
                              *states["shards"].values()]
            )
            _drive(svc, 64, seed=3)

            events = svc.events()
            rollbacks = [e for e in events if e["kind"] == "rollback"]
            assert rollbacks, "rollback_publish must be journaled"
            assert ctl.history[-1]["reason"] == "p95_slo_burn"
        finally:
            svc.close()

    def test_chaos_shard_death_mid_ramp(self, transport):
        """Kill a shard mid-canary-ramp with the controller active: the
        ramp rolls back cleanly, zero futures drop, and the journal
        orders shard_death before the rollback and the split clear."""
        import time as _time

        svc, ctl, monitor, clock = _online_cluster(
            n_shards=2, self_heal=False
        )
        try:
            ctl.tick(now=clock())
            refit = _tree_artifact("abr-refit", 0.3, seed=5)
            ctl.begin_ramp(refit, now=clock())
            rng = np.random.default_rng(4)
            futures = [svc.submit("abr", row)
                       for row in rng.uniform(0, 1, (128, 4))]

            victim = svc._shards[0].shard_id
            svc.kill_shard(victim)
            # Wall-clock wait only for the process death to propagate
            # into the journal; every *decision* below is fake-clocked.
            deadline = _time.monotonic() + 30
            while _time.monotonic() < deadline:
                if any(e["kind"] == "shard_death"
                       for e in svc.events()):
                    break
                _time.sleep(0.05)

            # Zero dropped futures: every one resolves (the victim's
            # in-flight work fails with shard_error, it never hangs).
            results = [f.result(timeout=30) for f in futures]
            assert all(r.ok or r.error == "shard_error"
                       for r in results)

            status = ctl.tick(now=clock())
            assert status["state"] == "idle"
            assert ctl.history[-1]["action"] == "rollback"
            assert ctl.history[-1]["reason"] == "shard_death"

            events = svc.events()
            death_seq = min(e["seq"] for e in events
                            if e["kind"] == "shard_death")
            rollback_seq = min(e["seq"] for e in events
                               if e["kind"] == "rollback")
            cleared_seq = min(
                e["seq"] for e in events
                if e["kind"] == "canary_change"
                and e["fields"].get("cleared")
            )
            assert death_seq < rollback_seq
            assert death_seq < cleared_seq

            # The survivor keeps serving and the candidate is gone.
            with pytest.raises(KeyError):
                svc.registry.resolve("abr-refit")
            _drive(svc, 32, seed=6)
        finally:
            svc.close()


# ---------------------------------------------------------------------------
# Worker capture drain plumbing
# ---------------------------------------------------------------------------
# The pipe is the only worker transport; the parameter keeps these
# tests' [pipe] ids, which their recorded history is keyed by.
@pytest.mark.parametrize("transport", ["pipe"])
class TestWorkerCaptureDrain:
    def test_capture_drains_from_workers_with_shard_labels(
            self, transport):
        svc, ctl, _monitor, clock = _online_cluster()
        try:
            ctl.tick(now=clock())  # arm worker sampling
            _drive(svc, 96)
            svc._drain_workers("capture_drain")
            entries = svc.capture.entries_since(0)
            assert len(entries) >= 90
            assert all("shard" in e and "origin_seq" in e
                       for e in entries)
            assert {e["model"] for e in entries} == {"policy"}
            # Drains are incremental: a second drain adds nothing new.
            before = len(svc.capture)
            svc._drain_workers("capture_drain")
            assert len(svc.capture) == before
        finally:
            svc.close()
