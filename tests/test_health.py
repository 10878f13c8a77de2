"""Tests for the health engine (events journal, alerting, postmortems).

Covers the :class:`~repro.obs.events.EventJournal` ring (sequence
monotonicity, overflow gaps, cross-process ingest), the
:class:`~repro.obs.health.HealthMonitor` hysteresis state machine
driven by a fake clock, the :class:`~repro.obs.postmortem`
flight recorder (atomic bundles, retention, opt-in), the
``ServerMetrics.error_ratio`` window reader, the exporter's ``/events``
endpoint and its one-shot start/close lifecycle, and the serving
tiers' emission hooks end to end (including the chaos path: a shard
killed under an active canary split must journal
``shard_death`` → ``shard_spawn`` → ``shard_heal`` and drop a
postmortem bundle).
"""

import json
import threading
import urllib.request

import numpy as np
import pytest

from repro.obs import (
    EVENT_KINDS,
    AlertRule,
    EventJournal,
    FlightRecorder,
    HealthMonitor,
    MetricsExporter,
    MetricsHub,
    burn_rate_rule,
    events_to_jsonl,
    load_bundle,
    standard_rules,
)
from repro.serve.server import ServerMetrics


class TestEventJournal:
    def test_emit_assigns_monotonic_seq(self):
        journal = EventJournal()
        records = [journal.emit("publish", labels={"model": "m"})
                   for _ in range(5)]
        assert [r["seq"] for r in records] == [1, 2, 3, 4, 5]
        assert journal.last_seq == 5

    def test_unknown_kind_and_severity_rejected(self):
        journal = EventJournal()
        with pytest.raises(ValueError, match="kind"):
            journal.emit("not_a_kind")
        with pytest.raises(ValueError, match="severity"):
            journal.emit("publish", severity="catastrophic")
        assert len(journal) == 0

    def test_ring_bounds_but_seq_keeps_counting(self):
        journal = EventJournal(capacity=4)
        for _ in range(10):
            journal.emit("publish")
        assert len(journal) == 4
        events = journal.events_since(0)
        # A reader that fell behind the ring sees the gap: the first
        # available seq exceeds since+1.
        assert [e["seq"] for e in events] == [7, 8, 9, 10]
        assert journal.last_seq == 10

    def test_events_since_is_strictly_greater(self):
        journal = EventJournal()
        for _ in range(6):
            journal.emit("publish")
        assert [e["seq"] for e in journal.events_since(4)] == [5, 6]
        assert journal.events_since(6) == []

    def test_tail_returns_newest_oldest_first(self):
        journal = EventJournal()
        for i in range(5):
            journal.emit("publish", idx=i)
        tail = journal.tail(2)
        assert [e["fields"]["idx"] for e in tail] == [3, 4]
        assert journal.tail(0) == []

    def test_ingest_relabels_and_resequences(self):
        worker = EventJournal()
        worker.emit("publish", labels={"model": "m"}, version=1)
        worker.emit("kernel_fallback", severity="warn", rows=8)
        parent = EventJournal()
        parent.emit("shard_spawn", labels={"shard": "0"})
        merged = parent.ingest(worker.events_since(0), {"shard": "0"})
        assert [e["seq"] for e in merged] == [2, 3]
        assert all(e["labels"]["shard"] == "0" for e in merged)
        # Worker-side identity survives the merge.
        assert merged[0]["labels"]["model"] == "m"
        assert merged[0]["fields"]["origin_seq"] == 1
        assert merged[1]["fields"]["origin_seq"] == 2
        assert parent.last_seq == 3

    def test_ingest_skips_garbage(self):
        parent = EventJournal()
        merged = parent.ingest(["nope", {}, {"kind": "publish"}], None)
        assert len(merged) == 1
        assert parent.last_seq == 1

    def test_hub_mirror_counts_by_kind_and_severity(self):
        hub = MetricsHub()
        journal = EventJournal(hub=hub)
        journal.emit("publish")
        journal.emit("shard_death", severity="error")
        journal.emit("shard_death", severity="error")
        page = hub.render()
        assert ('repro_events_total{kind="publish",severity="info"} 1'
                in page)
        assert ('repro_events_total{kind="shard_death",severity="error"}'
                ' 2' in page)

    def test_jsonl_roundtrip(self):
        journal = EventJournal()
        journal.emit("publish", labels={"model": "m"}, version=1)
        journal.emit("alias_move", labels={"alias": "prod"})
        body = events_to_jsonl(journal.events_since(0))
        lines = body.splitlines()
        assert len(lines) == 2 and body.endswith("\n")
        parsed = [json.loads(line) for line in lines]
        assert [p["seq"] for p in parsed] == [1, 2]
        assert parsed[0]["labels"] == {"model": "m"}

    def test_concurrent_emit_never_duplicates_seq(self):
        journal = EventJournal(capacity=4096)

        def hammer():
            for _ in range(200):
                journal.emit("publish")

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        seqs = [e["seq"] for e in journal.events_since(0)]
        assert len(seqs) == len(set(seqs)) == 800
        assert seqs == sorted(seqs)


class FakeClock:
    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class TestHealthMonitor:
    def _monitor(self, breached, rule_kwargs=None, **kwargs):
        clock = FakeClock()
        rule = AlertRule("r", lambda: breached[0], **(rule_kwargs or {}))
        monitor = HealthMonitor(rules=[rule], clock=clock, **kwargs)
        return monitor, clock, rule

    def test_fires_immediately_with_zero_for_s(self):
        breached = [False]
        monitor, clock, _ = self._monitor(breached)
        assert monitor.tick() == []
        breached[0] = True
        transitions = monitor.tick()
        assert [t["transition"] for t in transitions] == ["fire"]
        assert monitor.active_alerts() == ["r"]

    def test_for_s_hysteresis_blocks_blips(self):
        breached = [True]
        monitor, clock, _ = self._monitor(
            breached, rule_kwargs={"for_s": 10.0})
        assert monitor.tick() == []  # pending, not firing
        assert monitor.states()["r"] == "pending"
        clock.advance(5.0)
        breached[0] = False
        assert monitor.tick() == []  # blip: back to inactive, no fire
        assert monitor.states()["r"] == "inactive"
        breached[0] = True
        monitor.tick()
        clock.advance(10.0)
        assert [t["transition"] for t in monitor.tick()] == ["fire"]

    def test_resolve_and_cooldown_rearm(self):
        breached = [True]
        monitor, clock, _ = self._monitor(
            breached, rule_kwargs={"cooldown_s": 30.0})
        monitor.tick()
        assert monitor.active_alerts() == ["r"]
        breached[0] = False
        assert [t["transition"] for t in monitor.tick()] == ["resolve"]
        assert monitor.active_alerts() == []
        breached[0] = True
        clock.advance(10.0)
        assert monitor.tick() == []  # still cooling down
        assert monitor.states()["r"] == "inactive"
        clock.advance(30.0)
        transitions = monitor.tick()
        assert [t["transition"] for t in transitions] == ["fire"]

    def test_transitions_are_journaled_and_gauged(self):
        hub = MetricsHub()
        journal = EventJournal(hub=hub)
        breached = [True]
        clock = FakeClock()
        rule = AlertRule("slo", lambda: breached[0], severity="error")
        monitor = HealthMonitor(rules=[rule], journal=journal, hub=hub,
                                clock=clock)
        # Gauge pre-registered at 0 so dashboards see the rule exists.
        assert 'repro_alerts_active{rule="slo"} 0' in hub.render()
        monitor.tick()
        kinds = [e["kind"] for e in journal.events_since(0)]
        assert kinds == ["slo_breach", "alert_fire"]
        fire = journal.events_since(0)[-1]
        assert fire["severity"] == "error"
        assert fire["labels"]["rule"] == "slo"
        assert 'repro_alerts_active{rule="slo"} 1' in hub.render()
        breached[0] = False
        monitor.tick()
        assert 'repro_alerts_active{rule="slo"} 0' in hub.render()
        kinds = [e["kind"] for e in journal.events_since(0)]
        assert kinds[-1] == "alert_resolve"

    def test_callbacks_see_fire_and_resolve(self):
        breached = [True]
        monitor, _, rule = self._monitor(breached)
        seen = []
        monitor.subscribe(
            lambda r, transition, event: seen.append((r.name, transition))
        )
        monitor.subscribe(lambda *a: 1 / 0)  # raising observer swallowed
        monitor.tick()
        breached[0] = False
        monitor.tick()
        assert seen == [("r", "fire"), ("r", "resolve")]

    def test_raising_predicate_counts_not_pages(self):
        rule = AlertRule("broken", lambda: 1 / 0)
        monitor = HealthMonitor(rules=[rule], clock=FakeClock())
        assert monitor.tick() == []
        assert monitor.predicate_errors == 1
        assert monitor.active_alerts() == []

    def test_duplicate_rule_key_rejected(self):
        monitor = HealthMonitor(clock=FakeClock())
        monitor.add_rule(AlertRule("r", lambda: False,
                                   labels={"model": "m"}))
        monitor.add_rule(AlertRule("r", lambda: False))  # different key
        with pytest.raises(ValueError, match="duplicate"):
            monitor.add_rule(AlertRule("r", lambda: False,
                                       labels={"model": "m"}))

    def test_page_severity_fire_captures_postmortem(self, tmp_path):
        journal = EventJournal()
        recorder = FlightRecorder(directory=str(tmp_path),
                                  journal=journal)
        rule = AlertRule("meltdown", lambda: True, severity="page")
        monitor = HealthMonitor(rules=[rule], journal=journal,
                                recorder=recorder, clock=FakeClock())
        monitor.tick()
        bundles = recorder.bundles()
        assert len(bundles) == 1
        bundle = load_bundle(bundles[0])
        assert bundle["reason"] == "alert_meltdown"
        assert bundle["extra"]["rule"] == "meltdown"

    def test_background_ticker_lifecycle(self):
        breached = [True]
        rule = AlertRule("r", lambda: breached[0])
        with HealthMonitor(rules=[rule], interval_s=0.01) as monitor:
            deadline = 200
            while not monitor.active_alerts() and deadline:
                deadline -= 1
                import time as _time
                _time.sleep(0.01)
            assert monitor.active_alerts() == ["r"]
        assert monitor.ticks > 0

    def test_rule_validation(self):
        with pytest.raises(ValueError, match="severity"):
            AlertRule("r", lambda: True, severity="loud")
        with pytest.raises(ValueError, match="name"):
            AlertRule("", lambda: True)
        with pytest.raises(ValueError, match="for_s"):
            AlertRule("r", lambda: True, for_s=-1)

    def test_burn_rate_requires_both_windows(self):
        values = {60.0: 5.0, 1800.0: 0.0}
        rule = burn_rate_rule("burn", lambda w: values[w], threshold=1.0)
        assert not rule.predicate()  # fast only: old incident, no page
        values[1800.0] = 5.0
        assert rule.predicate()
        values[60.0] = 0.0
        assert not rule.predicate()  # slow only: already recovered

    def test_burn_rate_window_validation(self):
        with pytest.raises(ValueError, match="fast window"):
            burn_rate_rule("b", lambda w: 0.0, 1.0,
                           fast_window_s=60.0, slow_window_s=30.0)

    def test_standard_rules_cover_the_stock_signals(self):
        metrics = ServerMetrics()
        shadow = {"m": {"requests": 500, "agreement_rate": 0.5}}
        backend = {"models": {"m": {"native_rows": 50,
                                    "fallback_rows": 50}}}
        rules = standard_rules(
            metrics, slo_p95_ms=10.0,
            queue_depth_fn=lambda: 5000, max_queue_depth=1024,
            shadow_report_fn=lambda: shadow,
            backend_report_fn=lambda: backend,
        )
        by_name = {r.name: r for r in rules}
        assert set(by_name) == {
            "p95_slo_burn", "error_ratio_burn", "shadow_agreement_floor",
            "native_fallback_ratio", "queue_depth_ceiling",
        }
        assert by_name["p95_slo_burn"].severity == "page"
        assert by_name["queue_depth_ceiling"].predicate()
        assert by_name["shadow_agreement_floor"].predicate()
        assert by_name["native_fallback_ratio"].predicate()
        backend["models"]["m"]["fallback_rows"] = 0
        assert not by_name["native_fallback_ratio"].predicate()
        # Idle metrics: neither burn rule is breached.
        assert not by_name["p95_slo_burn"].predicate()
        assert not by_name["error_ratio_burn"].predicate()


class TestErrorRatio:
    def test_empty_window_reads_zero(self):
        metrics = ServerMetrics()
        assert metrics.error_ratio() == 0.0
        assert metrics.error_ratio(window_s=1.0) == 0.0

    def test_all_error_window_reads_one(self):
        metrics = ServerMetrics()
        for _ in range(10):
            metrics.record("m", 0, 0.001, error="bad-feature-shape")
        assert metrics.error_ratio() == 1.0
        assert metrics.error_ratio(window_s=60.0) == 1.0

    def test_mixed_stream_ratio(self):
        metrics = ServerMetrics()
        for _ in range(3):
            metrics.record("m", 1, 0.001, error="unknown-model")
        for _ in range(9):
            metrics.record("m", 1, 0.001)
        assert metrics.error_ratio() == pytest.approx(0.25)

    def test_window_ages_errors_out(self):
        metrics = ServerMetrics()
        metrics.record("m", 1, 0.001, error="unknown-model")
        # A window in the future of every recorded sample is empty.
        assert metrics.error_ratio(window_s=-1.0) == 0.0


class TestFlightRecorder:
    def test_disabled_without_directory(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_POSTMORTEM_DIR", raising=False)
        recorder = FlightRecorder()
        assert not recorder.enabled
        assert recorder.capture("whatever") is None
        assert recorder.bundles() == []

    def test_env_var_enables(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_POSTMORTEM_DIR", str(tmp_path))
        recorder = FlightRecorder()
        assert recorder.enabled
        path = recorder.capture("env-capture")
        assert path is not None and path.parent == tmp_path

    def test_bundle_contents_and_schema(self, tmp_path):
        journal = EventJournal()
        journal.emit("publish", labels={"model": "m"}, version=1)
        recorder = FlightRecorder(
            directory=str(tmp_path), journal=journal,
            metrics_fn=lambda: "# HELP x y\n# TYPE x counter\nx 1\n",
            state_fn=lambda: {"tier": "test"},
        )
        path = recorder.capture("unit", extra={"k": "v"})
        bundle = load_bundle(path)
        assert bundle["schema"] == 1
        assert bundle["reason"] == "unit"
        assert bundle["extra"] == {"k": "v"}
        assert bundle["events"][0]["kind"] == "publish"
        assert bundle["state"] == {"tier": "test"}
        assert "x 1" in bundle["metrics"]

    def test_retention_prunes_oldest(self, tmp_path):
        recorder = FlightRecorder(directory=str(tmp_path), retain=3)
        for i in range(7):
            recorder.capture(f"cap{i}")
        bundles = recorder.bundles()
        assert len(bundles) == 3
        assert [load_bundle(b)["reason"] for b in bundles] == [
            "cap4", "cap5", "cap6"]

    def test_capture_never_raises(self, tmp_path):
        recorder = FlightRecorder(
            directory=str(tmp_path / "sub"),
            metrics_fn=lambda: 1 / 0,
            state_fn=lambda: 1 / 0,
        )
        path = recorder.capture("broken-sources")
        bundle = load_bundle(path)
        assert bundle["metrics"] == "" and bundle["state"] is None
        # Even an unwritable directory must not raise.
        recorder.directory = tmp_path / "sub" / "file-not-dir"
        recorder.directory.write_text("block")
        assert recorder.capture("no-dir") is None

    def test_no_tmp_files_left_behind(self, tmp_path):
        recorder = FlightRecorder(directory=str(tmp_path))
        recorder.capture("atomic")
        assert not list(tmp_path.glob("*.tmp"))

    def test_load_bundle_rejects_garbage(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="not a postmortem"):
            load_bundle(path)
        path.write_text('{"schema": 99}')
        with pytest.raises(ValueError, match="newer"):
            load_bundle(path)


class TestExporterEventsAndLifecycle:
    def test_events_endpoint_serves_jsonl_with_since(self):
        journal = EventJournal()
        for i in range(4):
            journal.emit("publish", idx=i)
        with MetricsExporter(
            render_metrics=lambda: "",
            events_fn=journal.events_since,
        ) as exporter:
            body = urllib.request.urlopen(
                exporter.url + "/events", timeout=10).read().decode()
            seqs = [json.loads(line)["seq"]
                    for line in body.splitlines() if line]
            assert seqs == [1, 2, 3, 4]
            body = urllib.request.urlopen(
                exporter.url + "/events?since=2", timeout=10
            ).read().decode()
            seqs = [json.loads(line)["seq"]
                    for line in body.splitlines() if line]
            assert seqs == [3, 4]

    def test_events_empty_without_events_fn(self):
        with MetricsExporter(render_metrics=lambda: "") as exporter:
            response = urllib.request.urlopen(
                exporter.url + "/events", timeout=10)
            assert response.read() == b""

    def test_double_start_raises(self):
        exporter = MetricsExporter(render_metrics=lambda: "")
        exporter.start()
        try:
            with pytest.raises(RuntimeError, match="one-shot"):
                exporter.start()
        finally:
            exporter.close()

    def test_start_after_close_raises(self):
        exporter = MetricsExporter(render_metrics=lambda: "")
        exporter.start()
        exporter.close()
        exporter.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            exporter.start()

    def test_close_before_start_is_fine(self):
        exporter = MetricsExporter(render_metrics=lambda: "")
        exporter.close()
        with pytest.raises(RuntimeError, match="closed"):
            exporter.start()


def _toy_artifact(tag: int = 0):
    from repro.core.tree import DecisionTreeClassifier
    from repro.serve import PolicyArtifact

    rng = np.random.default_rng(tag)
    x = rng.uniform(0, 1, (120, 4))
    y = (x[:, 0] > 0.5).astype(int)
    tree = DecisionTreeClassifier(max_leaf_nodes=8).fit(x, y)
    return PolicyArtifact.from_tree(tree, name=f"toy{tag}")


class TestPolicyServerHealth:
    def test_journal_records_lifecycle_and_alert_cycle(self):
        from repro.serve import PolicyServer

        rng = np.random.default_rng(1)
        server = PolicyServer()
        try:
            server.publish("toy", _toy_artifact())
            server.alias("prod", "toy")
            kinds = [e["kind"] for e in server.events()]
            assert kinds == ["publish", "alias_move"]
            monitor = server.start_health(
                slo_p95_ms=1e-6, fast_window_s=1.0, slow_window_s=1.0,
                for_s=0.0, interval_s=0.01,
            )
            with pytest.raises(RuntimeError, match="already"):
                server.start_health()
            import time as _time
            deadline = _time.monotonic() + 10
            while (_time.monotonic() < deadline
                   and not monitor.active_alerts()):
                assert server.submit(
                    "toy", rng.uniform(0, 1, 4)).result(timeout=10).ok
                _time.sleep(0.005)
            assert any("p95_slo_burn" in k
                       for k in monitor.active_alerts())
            page = server.render_metrics()
            assert 'repro_alerts_active{rule="p95_slo_burn"} 1' in page
            deadline = _time.monotonic() + 15
            while _time.monotonic() < deadline and monitor.active_alerts():
                _time.sleep(0.05)
            kinds = [e["kind"] for e in server.events()]
            assert "slo_breach" in kinds
            assert "alert_fire" in kinds
            assert "alert_resolve" in kinds
        finally:
            server.close()
        assert server.health is None or monitor._thread is None

    def test_rollback_is_journaled_as_error(self):
        from repro.serve import PolicyServer

        server = PolicyServer()
        try:
            server.publish("toy", _toy_artifact())
            version = server.publish("toy", _toy_artifact(1))
            server.registry.rollback_publish("toy", version)
            events = server.events()
            rollback = [e for e in events if e["kind"] == "rollback"]
            assert len(rollback) == 1
            assert rollback[0]["severity"] == "error"
            assert rollback[0]["labels"]["model"] == "toy"
        finally:
            server.close()

    def test_canary_change_journaled(self):
        from repro.serve import PolicyServer

        server = PolicyServer()
        try:
            server.publish("a", _toy_artifact())
            server.publish("b", _toy_artifact(1))
            server.set_split("a", canary="b", canary_fraction=0.25)
            server.clear_split("a")
            server.clear_split("a")  # no-op: nothing to clear
            changes = [e for e in server.events()
                       if e["kind"] == "canary_change"]
            assert len(changes) == 2
            assert changes[0]["fields"]["canary"] == "b"
            assert changes[1]["fields"].get("cleared") is True
        finally:
            server.close()

    def test_start_exporter_is_one_shot(self):
        from repro.serve import PolicyServer

        server = PolicyServer(exporter_port=0)
        try:
            with pytest.raises(RuntimeError, match="already"):
                server.start_exporter(port=0)
        finally:
            server.close()
        with pytest.raises(RuntimeError, match="closed"):
            server.start_exporter(port=0)


class TestClusterHealth:
    # The pipe is the only worker transport; the parameter keeps the
    # test's [pipe] id, which its recorded history is keyed by.
    @pytest.mark.parametrize("transport", ["pipe"])
    def test_chaos_kill_under_canary_journals_and_captures(
            self, transport, tmp_path):
        """Kill a shard under an active canary split: the merged journal
        must show shard_death → shard_spawn → shard_heal with matching
        shard labels, worker-origin events must carry per-shard labels
        (the cross-process merge), and a postmortem bundle must land on
        disk and parse."""
        import time as _time

        from repro.serve.cluster import ShardedPolicyService

        rng = np.random.default_rng(2)
        with ShardedPolicyService(
            n_shards=2, self_heal=True,
            max_delay_s=1e-3, postmortem_dir=str(tmp_path),
        ) as service:
            service.publish("base", _toy_artifact())
            service.publish("canary", _toy_artifact(1))
            service.set_split("base", canary="canary",
                              canary_fraction=0.5)
            assert service.submit(
                "base", rng.uniform(0, 1, 4)).result(timeout=10).ok

            events = service.events()
            spawn_shards = {e["labels"]["shard"] for e in events
                            if e["kind"] == "shard_spawn"}
            assert len(spawn_shards) == 2
            worker_pubs = [e for e in events if e["kind"] == "publish"
                           and "shard" in e["labels"]]
            assert spawn_shards == {e["labels"]["shard"]
                                    for e in worker_pubs}
            assert all("origin_seq" in e["fields"] for e in worker_pubs)

            victim = service._shards[0].shard_id
            service.kill_shard(victim)
            deadline = _time.monotonic() + 30
            while _time.monotonic() < deadline:
                kinds = [e["kind"] for e in service.events()]
                if "shard_heal" in kinds:
                    break
                _time.sleep(0.05)
            events = service.events()
            by_kind = {e["kind"]: e for e in events}
            assert "shard_death" in by_kind and "shard_heal" in by_kind
            death = by_kind["shard_death"]
            heal = by_kind["shard_heal"]
            assert death["labels"]["shard"] == str(victim)
            assert death["severity"] == "error"
            assert heal["fields"]["replaced"] == victim
            # Death precedes the replacement's spawn precedes heal.
            respawn = [e for e in events if e["kind"] == "shard_spawn"
                       and e["labels"]["shard"]
                       == heal["labels"]["shard"]]
            assert respawn
            assert (death["seq"] < respawn[0]["seq"] < heal["seq"])
            # Merged stream stays globally monotonic.
            seqs = [e["seq"] for e in events]
            assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
            # The split survives and serving still works.
            assert service.submit(
                "base", rng.uniform(0, 1, 4)).result(timeout=10).ok

            bundles = sorted(tmp_path.glob("pm-*.json"))
            assert bundles, "shard death wrote no postmortem bundle"
            bundle = load_bundle(bundles[0])
            assert bundle["reason"] == f"shard_death_{victim}"
            assert bundle["state"]["tier"] == "ShardedPolicyService"
            assert any(e["kind"] == "shard_death"
                       for e in bundle["events"])

    def test_autoscale_actions_are_journaled(self):
        from repro.serve.cluster import ShardedPolicyService
        from repro.serve.cluster.autoscale import AutoscaleConfig

        with ShardedPolicyService(
            n_shards=1,
            autoscale=AutoscaleConfig(
                min_shards=2, max_shards=2, interval_s=0.02,
                cooldown_s=0.01,
            ),
        ) as service:
            import time as _time
            deadline = _time.monotonic() + 20
            while _time.monotonic() < deadline:
                kinds = [e["kind"] for e in service.events()]
                if "autoscale_up" in kinds:
                    break
                _time.sleep(0.05)
            ups = [e for e in service.events()
                   if e["kind"] == "autoscale_up"]
            assert ups
            assert ups[0]["fields"]["shards_after"] == 2

    def test_cluster_start_exporter_is_one_shot(self):
        from repro.serve.cluster import ShardedPolicyService

        service = ShardedPolicyService(n_shards=1, exporter_port=0)
        try:
            with pytest.raises(RuntimeError, match="already"):
                service.start_exporter(port=0)
        finally:
            service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.start_exporter(port=0)

    def test_events_kinds_are_valid_vocabulary(self):
        from repro.serve.cluster import ShardedPolicyService

        with ShardedPolicyService(n_shards=1) as service:
            service.publish("m", _toy_artifact())
            assert all(e["kind"] in EVENT_KINDS
                       for e in service.events())
