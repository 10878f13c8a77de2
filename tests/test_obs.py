"""Tests for the observability spine (repro.obs) and its serving hooks.

Covers the metrics hub (instruments, labels, collectors, Prometheus
rendering, multi-snapshot merge), the tracer (span decomposition that
must partition client-observed latency exactly), the HTTP exporter,
the ServerMetrics percentile rework (streaming histogram — no more
frozen percentiles at the retention cap), and the native-counter
snapshot/delta helpers.
"""

import json
import urllib.request

import numpy as np
import pytest

from repro.core.tree import native
from repro.obs.exporter import MetricsExporter
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    LogHistogram,
    MetricsHub,
    render_text,
    with_labels,
)
from repro.obs.trace import STAGES, Tracer
from repro.serve.server import ServerMetrics


class TestLogHistogram:
    def test_quantiles_monotone_and_clamped(self):
        hist = LogHistogram()
        rng = np.random.default_rng(3)
        samples = rng.lognormal(mean=-7.0, sigma=1.0, size=5000)
        hist.observe_many(samples)
        p50, p95, p99 = (hist.quantile(q) for q in (0.5, 0.95, 0.99))
        assert 0 < p50 <= p95 <= p99
        assert hist.quantile(0.0) >= float(samples.min())
        assert hist.quantile(1.0) <= float(samples.max()) + 1e-12
        # Bucket interpolation is an estimate, but a bounded one.
        assert abs(p50 - float(np.percentile(samples, 50))) <= p50

    def test_observe_many_matches_repeated_observe(self):
        a, b = LogHistogram(), LogHistogram()
        rng = np.random.default_rng(11)
        samples = rng.uniform(1e-5, 1e-2, 200)
        a.observe_many(samples)
        for s in samples:
            b.observe(float(s))
        assert a.state()["counts"] == b.state()["counts"]
        assert a.total == b.total
        assert a.sum == pytest.approx(b.sum)

    def test_empty_histogram_reads_zero(self):
        hist = LogHistogram()
        assert hist.total == 0
        assert hist.quantile(0.95) == 0.0

    def test_copy_is_independent(self):
        hist = LogHistogram()
        hist.observe(0.001)
        clone = hist.copy()
        hist.observe(0.002)
        assert clone.total == 1 and hist.total == 2

    def test_state_is_wire_friendly(self):
        hist = LogHistogram()
        hist.observe_many([0.001, 0.004, 0.1])
        state = hist.state()
        assert state["total"] == 3
        assert json.dumps(state)  # plain lists/floats only


class TestMetricsHub:
    def test_counter_render_has_help_and_type(self):
        hub = MetricsHub()
        hub.counter("repro_test_total", "A test counter").labels(
            model="m").inc(3)
        text = hub.render()
        assert "# HELP repro_test_total A test counter" in text
        assert "# TYPE repro_test_total counter" in text
        assert 'repro_test_total{model="m"} 3' in text

    def test_counter_rejects_negative_inc(self):
        hub = MetricsHub()
        counter = hub.counter("repro_neg_total", "h").labels()
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_inc_dec(self):
        hub = MetricsHub()
        gauge = hub.gauge("repro_depth", "queue depth").labels()
        gauge.set(5)
        gauge.inc(2)
        gauge.dec(3)
        assert "repro_depth 4" in hub.render()

    def test_histogram_renders_cumulative_buckets(self):
        hub = MetricsHub()
        h = hub.histogram("repro_lat_seconds", "latency",
                          buckets=[0.001, 0.01, 0.1]).labels(model="m")
        h.observe_many([0.0005, 0.005, 0.05, 5.0])
        text = hub.render()
        assert 'repro_lat_seconds_bucket{model="m",le="0.001"} 1' in text
        assert 'repro_lat_seconds_bucket{model="m",le="0.01"} 2' in text
        assert 'repro_lat_seconds_bucket{model="m",le="0.1"} 3' in text
        assert 'repro_lat_seconds_bucket{model="m",le="+Inf"} 4' in text
        assert 'repro_lat_seconds_count{model="m"} 4' in text

    def test_same_labels_return_same_child(self):
        hub = MetricsHub()
        family = hub.counter("repro_same_total", "h")
        family.labels(a="1", b="2").inc()
        family.labels(b="2", a="1").inc()  # order must not matter
        assert 'repro_same_total{a="1",b="2"} 2' in hub.render()

    def test_kind_conflict_rejected(self):
        hub = MetricsHub()
        hub.counter("repro_conflict", "h")
        with pytest.raises(ValueError):
            hub.gauge("repro_conflict", "h")

    def test_collectors_run_and_failures_are_dropped(self):
        hub = MetricsHub()
        gauge = hub.gauge("repro_pull", "pull-style").labels()
        hub.register_collector(lambda: gauge.set(42.0))

        def boom() -> None:
            raise RuntimeError("scrape must survive this")

        hub.register_collector(boom)
        assert "repro_pull 42" in hub.render()

    def test_with_labels_and_render_text_merge(self):
        parent, worker = MetricsHub(), MetricsHub()
        parent.counter("repro_reqs_total", "reqs").labels(model="m").inc(2)
        worker.counter("repro_reqs_total", "reqs").labels(model="m").inc(5)
        merged = render_text(
            parent.snapshot(),
            with_labels(worker.snapshot(), {"shard": "0"}),
        )
        # One HELP/TYPE pair per family even across snapshots.
        assert merged.count("# HELP repro_reqs_total") == 1
        assert merged.count("# TYPE repro_reqs_total") == 1
        assert 'repro_reqs_total{model="m"} 2' in merged
        assert 'repro_reqs_total{model="m",shard="0"} 5' in merged

    def test_render_text_dedups_identical_series(self):
        a, b = MetricsHub(), MetricsHub()
        a.counter("repro_dup_total", "h").labels().inc(1)
        b.counter("repro_dup_total", "h").labels().inc(9)
        merged = render_text(a.snapshot(), b.snapshot())
        # First occurrence wins; a duplicate series would be rejected
        # by any Prometheus scraper.
        assert merged.count("\nrepro_dup_total ") + merged.startswith(
            "repro_dup_total ") == 1

    def test_default_time_buckets_cover_serving_range(self):
        assert DEFAULT_TIME_BUCKETS[0] == pytest.approx(1e-6)
        assert DEFAULT_TIME_BUCKETS[-1] > 60.0  # past any sane latency


class TestTracer:
    def test_disabled_tracer_mints_nothing(self):
        tracer = Tracer(sample_rate=0.0)
        assert not tracer.enabled
        assert tracer.maybe_start("m") is None

    def test_sampling_rate_is_respected(self):
        tracer = Tracer(sample_rate=0.25, seed=5)
        minted = sum(
            tracer.maybe_start("m") is not None for _ in range(4000)
        )
        assert 800 <= minted <= 1200  # ~1000 expected

    def test_cluster_spans_partition_total_exactly(self):
        tracer = Tracer(sample_rate=1.0)
        trace = tracer.maybe_start("m", now=10.0)
        trace.mark_flush(10.002)
        trace.mark_send(10.003)
        trace.finish(service_s=0.004, kernel_s=0.001, shard=1,
                     batch_size=8, now=10.010)
        tracer.record(trace)
        names = [span.name for span in trace.spans]
        assert names == list(STAGES)
        assert sum(s.duration_s for s in trace.spans) == pytest.approx(
            trace.total_s, abs=1e-12)
        by_name = {s.name: s.duration_s for s in trace.spans}
        assert by_name["queue_wait"] == pytest.approx(0.002)
        assert by_name["batch_assembly"] == pytest.approx(0.001)
        assert by_name["wire"] == pytest.approx(0.003)
        assert by_name["worker_service"] == pytest.approx(0.003)
        assert by_name["kernel"] == pytest.approx(0.001)

    def test_inprocess_spans_have_no_wire(self):
        trace = Tracer(sample_rate=1.0).maybe_start("m", now=0.0)
        trace.mark_flush(0.001)
        trace.finish(service_s=0.002, kernel_s=0.002, now=0.004)
        names = [span.name for span in trace.spans]
        assert "wire" not in names
        assert sum(s.duration_s for s in trace.spans) == pytest.approx(
            trace.total_s, abs=1e-12)

    def test_garbage_worker_durations_never_go_negative(self):
        # A skewed or corrupt reply reporting more service time than
        # the round trip must clamp, not produce negative wire spans.
        trace = Tracer(sample_rate=1.0).maybe_start("m", now=0.0)
        trace.mark_flush(0.001)
        trace.mark_send(0.002)
        trace.finish(service_s=99.0, kernel_s=120.0, now=0.005)
        assert all(s.duration_s >= 0.0 for s in trace.spans)
        assert sum(s.duration_s for s in trace.spans) == pytest.approx(
            trace.total_s, abs=1e-12)

    def test_ring_is_bounded_and_most_recent_first(self):
        tracer = Tracer(sample_rate=1.0, capacity=4)
        for i in range(10):
            trace = tracer.maybe_start("m", now=float(i))
            trace.finish(now=float(i) + 0.5)
            tracer.record(trace)
        stored = tracer.traces()
        assert len(stored) == 4
        assert stored[0]["trace_id"] > stored[-1]["trace_id"]
        snap = tracer.snapshot()
        assert snap["started"] == 10 and snap["finished"] == 10
        assert snap["stored"] == 4

    def test_chrome_trace_event_shape(self):
        tracer = Tracer(sample_rate=1.0)
        trace = tracer.maybe_start("m", now=0.0)
        trace.mark_flush(0.001)
        trace.finish(service_s=0.001, now=0.003)
        tracer.record(trace)
        doc = tracer.chrome_trace()
        assert doc["displayTimeUnit"] == "ms"
        event = doc["traceEvents"][0]
        assert event["ph"] == "X" and event["tid"] == trace.trace_id
        assert event["ts"] >= 0 and event["dur"] >= 0
        json.loads(tracer.chrome_trace_json())  # valid JSON end to end

    def test_bad_sample_rate_rejected(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)


class TestExporter:
    def _scrape(self, url: str) -> bytes:
        try:
            with urllib.request.urlopen(url, timeout=5) as response:
                return response.read()
        except urllib.error.HTTPError as err:
            # The error holds the response and its socket; close it
            # before the caller inspects the status code.
            err.close()
            raise

    def test_endpoints(self):
        hub = MetricsHub()
        hub.counter("repro_exp_total", "h").labels().inc()
        tracer = Tracer(sample_rate=1.0)
        trace = tracer.maybe_start("m", now=0.0)
        trace.finish(now=0.002)
        tracer.record(trace)
        with MetricsExporter(hub.render, tracer=tracer) as exporter:
            assert self._scrape(exporter.url + "/healthz") == b"ok\n"
            body = self._scrape(exporter.url + "/metrics").decode()
            assert "repro_exp_total 1" in body
            traces = json.loads(self._scrape(exporter.url + "/traces"))
            assert len(traces["traces"]) == 1
            assert traces["finished"] == 1
            chrome = json.loads(self._scrape(
                exporter.url + "/traces?format=chrome"))
            assert chrome["traceEvents"]
            with pytest.raises(urllib.error.HTTPError) as err:
                self._scrape(exporter.url + "/nope")
            assert err.value.code == 404

    def test_render_failure_returns_500_not_crash(self):
        def broken() -> str:
            raise RuntimeError("bad scrape")

        with MetricsExporter(broken) as exporter:
            with pytest.raises(urllib.error.HTTPError) as err:
                self._scrape(exporter.url + "/metrics")
            assert err.value.code == 500
            # The server survives for the next request.
            assert self._scrape(exporter.url + "/healthz") == b"ok\n"

    def test_traces_empty_without_tracer(self):
        hub = MetricsHub()
        with MetricsExporter(hub.render) as exporter:
            traces = json.loads(self._scrape(exporter.url + "/traces"))
            assert traces == {"traces": []}


class TestServerMetricsPercentiles:
    def test_p95_empty_window_reads_zero(self):
        metrics = ServerMetrics()
        assert metrics.p95_ms() == 0.0
        assert metrics.p95_ms(window_s=1.0) == 0.0

    def test_p95_all_error_stream_reads_zero(self):
        # Rejection latencies stay out of the percentile pool: a flood
        # of malformed requests must not fabricate an SLO reading.
        metrics = ServerMetrics()
        for _ in range(50):
            metrics.record("m", 0, 0.5, error="bad_input")
        assert metrics.p95_ms() == 0.0
        snap = metrics.snapshot()["m"]
        assert snap["errors"] == 50
        assert snap["latency_ms"]["p95"] == 0.0

    def test_p95_window_older_than_every_sample_reads_zero(self):
        metrics = ServerMetrics()
        metrics.record_group("m", 1, [0.01] * 20)
        assert metrics.p95_ms() > 0.0
        # A window that pre-dates every sample is empty, not stale.
        assert metrics.p95_ms(window_s=0.0) == 0.0

    def test_snapshot_percentiles_never_freeze(self):
        # The old capped-list implementation stopped absorbing samples
        # at its retention cap; the streaming histogram must keep
        # tracking a shifted distribution past any cap.
        metrics = ServerMetrics()
        metrics.record_group("m", 1, [0.001] * 200)
        before = metrics.snapshot()["m"]["latency_ms"]["p50"]
        metrics.record_group("m", 1, [0.1] * 2000)
        after = metrics.snapshot()["m"]["latency_ms"]["p50"]
        assert after > before * 10

    def test_snapshot_percentiles_monotone(self):
        metrics = ServerMetrics()
        rng = np.random.default_rng(2)
        metrics.record_group(
            "m", 1, list(rng.lognormal(-7, 1, size=500)))
        lat = metrics.snapshot()["m"]["latency_ms"]
        assert 0 < lat["p50"] <= lat["p95"] <= lat["p99"]
        assert lat["mean"] > 0

    def test_hub_mirror_carries_model_labels(self):
        hub = MetricsHub()
        metrics = ServerMetrics(hub=hub)
        metrics.record("m", 1, 0.002)
        metrics.record("m", 1, 0.002, error="bad_input")
        text = hub.render()
        assert 'repro_server_requests_total{model="m"} 2' in text
        assert ('repro_server_errors_total{kind="bad_input",model="m"} 1'
                in text)
        assert 'repro_server_latency_seconds_count{model="m"} 1' in text


class TestNativeCounters:
    def test_snapshot_and_delta(self):
        base = native.snapshot()
        assert all(isinstance(v, int) for v in base.values())
        assert native.delta(base) == {}  # nothing moved
        # A synthetic "since" with a lower count surfaces as increment.
        if base:
            key = next(iter(base))
            since = dict(base)
            since[key] -= 3
            assert native.delta(since)[key] == 3
        assert native.delta({})  == {
            k: v for k, v in base.items() if v
        }
