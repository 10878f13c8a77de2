"""Traced runs: the per-layer metrics.

A serving workload's traced run builds its tier with
``trace_sample=1.0`` and alternates untraced and traced windows of the
workload's own traffic.  It reads the tier's public tracer,
``metrics()``, ``cluster_metrics()`` and ``backend_report()``, and times
calls into the modules' public functions from outside.  Metrics the
workload's traffic cannot give, because it bypasses the layer, come from
a short traced window of ``abr-decide-cluster``, whose traffic crosses
every serving layer.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

import load
import pipeline
import workloads
from pipeline import MODEL
from repro.serve.cluster.wire import Request, decode_frame, encode_request
from workloads import Run

#: Attribution closes when the gap is within this share of the mean
#: client latency, over at least this many traced requests.
CLOSURE_TOLERANCE = 0.10
CLOSURE_MIN_PAIRS = 1000
#: The tiers keep only the latest 256 traces; the traced run copies the
#: whole ring at random moments this far apart on average.
TRACE_POLL_S = 0.05
#: Shortest traced window of the ``abr-decide-cluster`` fill-in.
FILL_IN_MIN_S = 1.0


def _mean_us(fn: Callable[[], Any], min_s: float = 0.2) -> float:
    """Mean wall time of ``fn`` in microseconds over at least ``min_s``."""
    fn()
    calls = 0
    start = time.perf_counter()
    while True:
        fn()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_s:
            return elapsed / calls * 1e6


def _probes(artifact: Any, inputs: pipeline.Inputs,
            traffic: load.Traffic) -> Dict[str, float]:
    """Time the tree and wire layers on the workloads' predict frames."""
    out = {}
    for rows, x in (("rows64", np.ascontiguousarray(inputs.states[:64])),
                    ("rows2048", traffic.matrix)):
        out[f"tree.predict_batch_us.{rows}"] = _mean_us(
            lambda: artifact.predict_batch(x))
        request = Request(1, "predict", (MODEL, x))
        frame = encode_request(request)
        out[f"wire.encode_us.{rows}"] = _mean_us(
            lambda: encode_request(request))
        out[f"wire.decode_us.{rows}"] = _mean_us(lambda: decode_frame(frame))
    return out


def _ceiling(traffic: load.Traffic, seconds: float) -> float:
    """The generator against a tier that never makes it wait."""
    t_begin = time.perf_counter()
    samples = load.run(load.NullTier(traffic, MODEL), MODEL, traffic,
                       seconds)
    return load.window_stats(samples, t_begin,
                             t_begin + seconds).decisions_per_s


def _counts(before: Dict[Any, int], after: Dict[Any, int]) -> Dict[Any, int]:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def _engine_rows(tier: Any) -> Dict[str, int]:
    """Rows served per engine so far, from ``backend_report()``."""
    report = tier.backend_report()["models"][MODEL]
    return {k: int(report[k])
            for k in ("native_rows", "numpy_rows", "fallback_rows")}


def _flush_groups(tier: Any) -> Dict[int, int]:
    """Flush groups so far by size, from ``metrics()``."""
    return dict(tier.metrics().get(MODEL, {}).get("batch_sizes", {}))


def _shard_view(tier: Any) -> Tuple[Dict[int, int], int, list]:
    """Rows per shard, transport bytes and per-shard model stats, from
    ``cluster_metrics()``."""
    view = tier.cluster_metrics()
    stats = [s["models"].get(MODEL, {}) for s in view["shards"]]
    rows = {s["shard"]: int(m.get("requests", 0))
            for s, m in zip(view["shards"], stats)}
    wire = sum(s["bytes_sent"] + s["bytes_received"]
               for s in view["transport"]["per_shard"].values())
    return rows, wire, stats


@dataclass
class Window:
    """One load window and the tier-side counter deltas across it."""

    traced: bool
    seconds: float
    samples: load.Samples
    stats: load.WindowStats
    traces: Dict[int, dict] = field(default_factory=dict)
    flush_groups: Dict[int, int] = field(default_factory=dict)
    shard_rows: Dict[int, int] = field(default_factory=dict)
    wire_bytes: int = 0
    shard_stats: list = field(default_factory=list)


def _window(tier: Any, cluster: bool, traffic: load.Traffic,
            seconds: float, traced: bool) -> Window:
    tier.tracer.sample_rate = 1.0 if traced else 0.0
    traces: Dict[int, dict] = {}
    pauses = random.Random(0)

    async def poll() -> None:
        # Random pauses, so the copies do not lock onto the flush cadence
        # or the interpreter's switch interval.
        while True:
            for trace in tier.tracer.traces():
                traces.setdefault(trace["trace_id"], trace)
            await asyncio.sleep(pauses.expovariate(1 / TRACE_POLL_S))

    groups = _flush_groups(tier)
    shards = _shard_view(tier) if cluster else None
    t_begin = time.perf_counter()
    samples = load.run(tier, MODEL, traffic, seconds,
                       during=poll if traced else None)
    tier.tracer.sample_rate = 0.0
    window = Window(
        traced=traced, seconds=seconds, samples=samples,
        stats=load.window_stats(samples, t_begin, t_begin + seconds),
        traces=traces,
        flush_groups=_counts(groups, _flush_groups(tier)),
    )
    if cluster:
        rows, wire, window.shard_stats = _shard_view(tier)
        window.shard_rows = _counts(shards[0], rows)
        window.wire_bytes = wire - shards[1]
    return window


def _joined(windows: List[Window], name: str) -> np.ndarray:
    return np.concatenate([w.samples.values(name) for w in windows])


def _client_layers(traced: List[Window]) -> Dict[str, float]:
    submit = _joined(traced, "submit_s")
    delivery = _joined(traced, "delivery_s")
    return {
        "server.submit_us": float(submit.mean() * 1e6),
        "client.delivery_us": float(np.median(delivery) * 1e6),
    }


def _closure(traced: List[Window]) -> Dict[str, float]:
    """Attribution check over the traced requests.

    Three measurements taken independently of each other are added up
    per request and compared with the client latency (``submit`` call to
    coroutine resume):

    - the time inside ``submit``, timed by the client;
    - the trace's spans, timed by the tier;
    - delivery, from the future resolving to the coroutine resuming,
      timed by the client.

    The sum misses whatever the tier does between closing a trace and
    resolving its future, and counts twice the part of ``submit`` after
    the trace opened.  A tier that does unattributed work after its
    trace closes, or spans that do not cover the request, make the gap
    grow.  A trace's ``total_s`` and its request's
    ``ServeResult.latency_s`` are the same subtraction, so equal values
    pair each copied trace with its client record.

    Returns the relative gap of the means, the number of pairs, and the
    mean completion lag: from the trace's start to the future resolving,
    less the trace's length.  Measured from the ``submit`` call rather
    than the trace's start (a few µs earlier), it locates the gap.
    """
    latency = _joined(traced, "latency_s")
    submit = _joined(traced, "submit_s")
    delivery = _joined(traced, "delivery_s")
    server = _joined(traced, "server_s")
    index = {value: i for i, value in enumerate(server.tolist())}
    rows, span_sums = [], []
    for w in traced:
        for trace in w.traces.values():
            i = index.get(trace["total_s"])
            if i is not None:
                rows.append(i)
                span_sums.append(sum(s["duration_s"] for s in trace["spans"]))
    rows = np.asarray(rows, dtype=int)
    attributed = (submit[rows].mean() + np.mean(span_sums)
                  + delivery[rows].mean())
    lag = latency[rows] - delivery[rows] - server[rows]
    return {
        "closure_frac": float(attributed / latency[rows].mean() - 1.0),
        "closure_pairs": int(rows.size),
        "completion_lag_us": float(lag.mean() * 1e6),
    }


def _span_layers(traced: List[Window], cluster: bool) -> Dict[str, float]:
    spans: Dict[str, List[float]] = {}
    for w in traced:
        for trace in w.traces.values():
            for span in trace["spans"]:
                spans.setdefault(span["name"], []).append(span["duration_s"])
    us = {name: np.asarray(v) * 1e6 for name, v in spans.items()}
    out = {
        "batcher.queue_wait_us.mean": us["queue_wait"].mean(),
        "batcher.queue_wait_us.p99": np.percentile(us["queue_wait"], 99),
        "batcher.batch_assembly_us.mean": us["batch_assembly"].mean(),
        "tree.kernel_us.mean": us["kernel"].mean(),
    }
    if cluster:
        out["cluster.wire_us.mean"] = us["wire"].mean()
        out["cluster.worker_service_us.mean"] = us["worker_service"].mean()
    return {k: float(v) for k, v in out.items()}


def _flush_layers(traced: List[Window], max_batch: int) -> Dict[str, float]:
    groups: Dict[int, int] = {}
    for w in traced:
        for size, count in w.flush_groups.items():
            groups[size] = groups.get(size, 0) + count
    n_groups = sum(groups.values())
    rows = sum(size * count for size, count in groups.items()) / n_groups
    return {
        "batcher.flush_rows.mean": rows,
        "batcher.fill_frac": rows / max_batch,
        "batcher.flushes_per_s": n_groups / sum(w.seconds for w in traced),
    }


def _cluster_layers(traced: List[Window]) -> Dict[str, float]:
    rows: Dict[int, int] = {}
    for w in traced:
        for shard, n in w.shard_rows.items():
            rows[shard] = rows.get(shard, 0) + n
    served = traced[-1].shard_stats
    return {
        "cluster.shard_balance": min(rows.values()) / max(rows.values()),
        "wire.bytes_per_decision": (sum(w.wire_bytes for w in traced)
                                    / sum(rows.values())),
        "cluster.shard_service_us.mean": sum(
            s["latency_ms"]["mean"] * 1e3 * s["requests"] for s in served
        ) / sum(s["requests"] for s in served),
    }


def _engine_layers(before: Dict[str, int],
                   after: Dict[str, int]) -> Dict[str, float]:
    rows = _counts(before, after)
    return {
        "tree.native_rows_frac": rows["native_rows"] / (
            rows["native_rows"] + rows["numpy_rows"]),
        "tree.fallback_rows": float(rows["fallback_rows"]),
    }


def serving_layers(run: Run, kind: str, inputs: pipeline.Inputs,
                   traffic: load.Traffic, seconds: float,
                   overhead: bool) -> Tuple[Dict[str, float], dict]:
    """Per-layer metrics of the decide traffic on one tier.

    With ``overhead`` the measured time alternates untraced and traced
    windows (two each) and ``obs.trace_overhead_frac`` compares them;
    otherwise it is one traced window.
    """
    cluster = kind == "cluster"
    layers = {"gen.ceiling_per_s": _ceiling(traffic, min(2.0, seconds / 2))}
    tier, setup = workloads.set_up(run, kind, inputs, trace_sample=1.0)
    try:
        layers["registry.publish_s"] = setup["publish_s"]
        if cluster:
            layers["cluster.spawn_s"] = setup["construct_s"]
        load.run(tier, MODEL, traffic, workloads.WARMUP_S)
        engines = _engine_rows(tier)
        plan = [False, True, False, True] if overhead else [True]
        windows = [
            _window(tier, cluster, traffic, seconds / len(plan), on)
            for on in plan
        ]
        traced = [w for w in windows if w.traced]
        if overhead:
            on = statistics.median(w.stats.decisions_per_s for w in traced)
            off = statistics.median(w.stats.decisions_per_s
                                    for w in windows if not w.traced)
            layers["obs.trace_overhead_frac"] = 1.0 - on / off
        layers.update(_client_layers(traced))
        layers.update(_span_layers(traced, cluster))
        layers.update(_flush_layers(traced, workloads.max_batch(kind)))
        info: Dict[str, Any] = {
            "traces": sum(len(w.traces) for w in traced), **_closure(traced)}
        if cluster:
            layers.update(_cluster_layers(traced))
        layers.update(_engine_layers(engines, _engine_rows(tier)))
        layers["registry.resolve_us"] = _mean_us(
            lambda: tier.registry.resolve_many((MODEL,)))
        info["workers_stable"] = run.workers_stable()
        artifact = workloads.served_artifact(tier)
        info["kernel_status"] = workloads.kernel_status(artifact)
        layers.update(_probes(artifact, inputs, traffic))
    finally:
        tier.close()
    info["attempted"] = sum(w.samples.attempted for w in windows)
    info["failed"] = sum(w.samples.failed for w in windows)
    return layers, info


def _fill_in(run: Run, inputs: pipeline.Inputs, traffic: load.Traffic,
             seconds: float) -> Tuple[Dict[str, float], dict]:
    """Layers the workload bypasses, from ``abr-decide-cluster`` traffic."""
    return serving_layers(run, "cluster", inputs, traffic,
                          max(FILL_IN_MIN_S, seconds / 4), overhead=False)


def _distill_layers(phases: Dict[str, float]) -> Dict[str, float]:
    return {f"distill.{key}": value for key, value in phases.items()}


def _result(layers: Dict[str, float], infos: Dict[str, dict],
            inputs: pipeline.Inputs) -> dict:
    """The result line.  ``correct`` covers the program's outputs; the
    attribution check is reported beside it, per window, as ``closes``,
    because a gap is a finding about the tier's telemetry, not a wrong
    decision."""
    for i in infos.values():
        if "closure_frac" in i:
            i["closes"] = (abs(i["closure_frac"]) <= CLOSURE_TOLERANCE
                           and i["closure_pairs"] >= CLOSURE_MIN_PAIRS)
    failed = sum(i["failed"] for i in infos.values())
    stable = all(i["workers_stable"] for i in infos.values())
    return {
        "correct": failed == 0 and stable and inputs.deterministic,
        "attempted": sum(i["attempted"] for i in infos.values()),
        "failed": failed,
        "metrics": layers,
        "info": {"tree_hash": inputs.distilled.tree_hash, "windows": infos},
    }


def serving(run: Run, workload: str, seed: int, seconds: float) -> dict:
    kind = workloads.SERVING[workload]
    inputs = pipeline.serving_inputs(seed, phases=True)
    traffic = load.make_traffic(inputs.states, inputs.expected, seed)
    layers, info = serving_layers(run, kind, inputs, traffic, seconds,
                                  overhead=True)
    infos = {workload: info}
    if workload != "abr-decide-cluster":
        fill, infos["abr-decide-cluster"] = _fill_in(run, inputs, traffic,
                                                     seconds)
        layers = {**fill, **layers}
    layers.update(_distill_layers(inputs.phases))
    layers["distill_s"] = inputs.distilled.distill_s
    return _result(layers, infos, inputs)


def distill(run: Run, workload: str, seed: int, seconds: float) -> dict:
    """Distillations alternating without and with the phase timers, so
    the timers' own cost is measured; then the serving fill-in."""
    built = pipeline.build_teacher(seed)
    held = pipeline.held_out(built, seed)
    plain: List[pipeline.Distilled] = []
    timed: List[pipeline.Distilled] = []
    phases: Dict[str, float] = {}
    deadline = time.perf_counter() + seconds / 2
    while len(timed) < 2 or time.perf_counter() < deadline:
        plain.append(pipeline.distill(built, seed, held))
        with pipeline.phase_timers(phases):
            timed.append(pipeline.distill(built, seed, held))
    inputs = pipeline.make_inputs(plain + timed, held, {})
    layers = {k: v / len(timed) for k, v in _distill_layers(phases).items()}
    layers["distill_s"] = statistics.median(r.distill_s for r in plain)
    layers["obs.trace_overhead_frac"] = 1.0 - (
        layers["distill_s"] / statistics.median(r.distill_s for r in timed))
    traffic = load.make_traffic(inputs.states, inputs.expected, seed)
    fill, info = _fill_in(run, inputs, traffic, seconds)
    return _result({**fill, **layers}, {"abr-decide-cluster": info}, inputs)


TRACED = {**{w: serving for w in workloads.SERVING}, "distill": distill}
