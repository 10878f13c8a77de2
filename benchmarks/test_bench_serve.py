"""Micro-benchmark: policy-serving throughput and tail latency.

The serving-side counterpart of ``test_bench_tree_fit``: PR 2 showed one
batched query per step beats a scalar loop 6.4x during *training*
collection; this benchmark guards the same coalescing win at the
*serving* boundary.  A distilled ABR tree is published to a live
:class:`PolicyServer` and driven two ways:

* **single-request loop** — one closed-loop client, no coalescing
  (``max_batch=1``): every decision pays the full queue + wakeup +
  single-row predict round trip (the seed deployment style);
* **microbatched** — 64 concurrent closed-loop clients against a
  coalescing server: the batcher answers whole flushes with one
  vectorized predict;
* **microbatched, native backend** — the same coalescing server with
  ``REPRO_TREE_BACKEND=native``, so every flush runs through the
  artifact's compiled C kernel instead of the numpy walk (recorded as
  ``batched_native_rps``; falls back to numpy — and says so in the
  record — when the host has no C compiler).

The floor asserted locally is ``>= 5x`` throughput for the microbatched
path, in the median of five back-to-back serial/microbatched pairs.
The three load scenarios (ABR sessions, AuTO flow arrivals,
RouteNet routing queries) are each replayed against their own policy and
their p50/p99 latency recorded.  Results append to ``BENCH_serve.json``
at the repo root (same trajectory format as ``BENCH_tree.json``); set
``BENCH_REPORT_ONLY=1`` to record without asserting (CI smoke mode).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from bench_io import record_run

from repro.core.distill.rollout import collect_teacher_dataset_batch
from repro.core.distill.viper import distill_from_dataset
from repro.envs.abr import ABREnv, Video
from repro.envs.abr.env import STATE_DIM
from repro.envs.traces import trace_set
from repro.nn.policy import SoftmaxPolicy, ValueNet
from repro.serve import PolicyArtifact, PolicyServer
from repro.serve.loadgen import (
    flow_request_states,
    routing_request_states,
    run_load,
)
from repro.teachers.pensieve import PensieveTeacher
from repro.utils.rng import as_rng

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_serve.json"

REPORT_ONLY = bool(os.environ.get("BENCH_REPORT_ONLY"))

N_CONCURRENT_CLIENTS = 64
SERIAL_REQUESTS = 1_500
BATCHED_PASSES = 2  # each of the 64 clients replays its share this often
#: Back-to-back serial/microbatched pairs; the speedup is their median.
SERVE_ROUNDS = 5

MIN_SERVE_SPEEDUP = 5.0


def _distilled_abr():
    """A distilled ABR tree + the session states it was trained on.

    The teacher is an untrained Pensieve-shaped MLP (decision *shape* is
    what matters for serving cost, not QoE), so the benchmark needs no
    training time and stays deterministic.
    """
    video = Video.synthetic(n_chunks=48, seed=7)
    traces = trace_set("hsdpa", 16, duration_s=120, seed=8)
    env = ABREnv(video, traces)
    teacher = PensieveTeacher(
        policy=SoftmaxPolicy(
            STATE_DIM, env.n_actions, hidden=(64, 32), seed=as_rng(0)
        ),
        value=ValueNet(STATE_DIM, seed=as_rng(0)),
    )
    dataset = collect_teacher_dataset_batch(env, teacher, 16, rng=1)
    student = distill_from_dataset(
        dataset, leaf_nodes=200, n_classes=env.n_actions
    )
    return student.tree, dataset.states


def _fit_scenario_tree(states: np.ndarray, n_classes: int = 4):
    """A small policy for a scenario: labels = load-quartile of column 0."""
    edges = np.quantile(states[:, 0], np.linspace(0, 1, n_classes + 1)[1:-1])
    labels = np.digitize(states[:, 0], edges)
    from repro.core.tree import DecisionTreeClassifier

    return DecisionTreeClassifier(
        n_classes=n_classes, max_leaf_nodes=64
    ).fit(states, labels)


@contextmanager
def _backend(mode):
    """Pin ``REPRO_TREE_BACKEND`` for one serving run."""
    prev = os.environ.get("REPRO_TREE_BACKEND")
    os.environ["REPRO_TREE_BACKEND"] = mode
    try:
        yield
    finally:
        if prev is None:
            del os.environ["REPRO_TREE_BACKEND"]
        else:
            os.environ["REPRO_TREE_BACKEND"] = prev


def test_bench_serve_throughput_and_scenarios():
    tree, abr_states = _distilled_abr()
    artifact = PolicyArtifact.from_tree(tree, name="abr-distilled")

    # ------------------------------------------------------------------
    # single-request loop vs microbatched serving on the same artifact
    # (both pinned to the numpy backend so the trajectory stays the
    # coalescing story it always measured).  The two run back to back
    # in SERVE_ROUNDS rounds and the speedup is the median round's
    # ratio: on a shared 2-vCPU host, one pair measured minutes apart
    # read anywhere from ~3.8x to ~12x on the same code.
    # ------------------------------------------------------------------
    pool = abr_states[
        np.random.default_rng(0).integers(0, len(abr_states), 8192)
    ]

    def serial_run():
        with _backend("numpy"), PolicyServer(
            max_batch=1, max_delay_s=0.0
        ) as server:
            server.publish("abr", artifact)
            server.predict("abr", pool[:64])  # warm-up
            return run_load(
                server, "abr", pool[:SERIAL_REQUESTS],
                n_clients=1, scenario="abr-serial",
            )

    def batched_run():
        with _backend("numpy"), PolicyServer(
            max_batch=N_CONCURRENT_CLIENTS, max_delay_s=1e-3
        ) as server:
            server.publish("abr", artifact)
            server.predict("abr", pool[:64])  # warm-up
            report = run_load(
                server, "abr", pool,
                n_clients=N_CONCURRENT_CLIENTS, repeats=BATCHED_PASSES,
                scenario="abr-batched",
            )
            return report, server.metrics()["abr"]["batch_sizes"]

    rounds = []
    for _ in range(SERVE_ROUNDS):
        serial = serial_run()
        batched, batch_sizes = batched_run()
        rounds.append((batched.throughput_rps / serial.throughput_rps,
                       serial, batched, batch_sizes))
    round_speedups = [entry[0] for entry in rounds]
    speedup, serial, batched, batch_sizes = sorted(
        rounds, key=lambda entry: entry[0]
    )[len(rounds) // 2]

    # ------------------------------------------------------------------
    # microbatched again, this time through the compiled native kernel
    # ------------------------------------------------------------------
    native_artifact = PolicyArtifact.from_tree(tree, name="abr-distilled")
    with _backend("native"), PolicyServer(
        max_batch=N_CONCURRENT_CLIENTS, max_delay_s=1e-3
    ) as server:
        server.publish("abr", native_artifact)
        server.wait_kernels()
        server.predict("abr", pool[:64])  # warm-up
        batched_native = run_load(
            server, "abr", pool,
            n_clients=N_CONCURRENT_CLIENTS, repeats=BATCHED_PASSES,
            scenario="abr-batched-native",
        )
        backend_view = server.backend_report()["models"]["abr"]
    kernel_meta = native_artifact.meta.get("kernel") or {}

    # ------------------------------------------------------------------
    # three load scenarios, each against its own published policy
    # ------------------------------------------------------------------
    scenario_states = {
        "abr": abr_states,
        "flows": flow_request_states(duration_s=2.0, seed=3, min_rows=512),
        "routing": routing_request_states(n_queries=1024, seed=4),
    }
    scenario_reports = {}
    with PolicyServer(max_batch=64, max_delay_s=1e-3) as server:
        server.publish("abr", artifact, alias="abr/prod")
        for name in ("flows", "routing"):
            states = scenario_states[name]
            server.publish(
                name,
                PolicyArtifact.from_tree(
                    _fit_scenario_tree(states), name=f"{name}-policy"
                ),
                alias=f"{name}/prod",
            )
        for name, states in scenario_states.items():
            report = run_load(
                server, f"{name}/prod", states,
                n_clients=16, repeats=2, scenario=name,
            )
            assert report.n_errors == 0
            scenario_reports[name] = report.as_dict()

    record = {
        "benchmark": "serve",
        "serving": {
            "n_clients": N_CONCURRENT_CLIENTS,
            "serial_rps": serial.throughput_rps,
            "serial_p50_ms": serial.latency_p50_ms,
            "serial_p99_ms": serial.latency_p99_ms,
            "batched_rps": batched.throughput_rps,
            "batched_p50_ms": batched.latency_p50_ms,
            "batched_p99_ms": batched.latency_p99_ms,
            "serve_speedup": speedup,
            "serve_speedup_rounds": round_speedups,
            "max_batch_observed": int(max(batch_sizes)),
            "batched_native_rps": batched_native.throughput_rps,
            "batched_native_p50_ms": batched_native.latency_p50_ms,
            "batched_native_p99_ms": batched_native.latency_p99_ms,
            "native_backend": backend_view["backend"],
            "native_kernel_status": kernel_meta.get("status"),
            "native_vs_numpy_batched": (
                batched_native.throughput_rps / batched.throughput_rps
            ),
        },
        "scenarios": scenario_reports,
    }
    record_run(BENCH_PATH, record)

    if REPORT_ONLY:
        return
    assert batched.n_errors == 0 and serial.n_errors == 0
    assert all(entry[1].n_errors == 0 and entry[2].n_errors == 0
               for entry in rounds)
    # The native run must serve flawlessly whether or not a compiler
    # exists — that is the transparent-fallback contract.
    assert batched_native.n_errors == 0
    assert speedup >= MIN_SERVE_SPEEDUP, (
        f"microbatched serving only {speedup:.1f}x over the "
        f"single-request loop ({batched.throughput_rps:.0f} vs "
        f"{serial.throughput_rps:.0f} req/s)"
    )


# Telemetry must be close to free: anything past this is a wiring bug
# (a lock on the hot path, rendering per request), not noise.
MAX_TELEMETRY_SLOWDOWN = 2.0


def test_bench_serve_observability():
    """Cost of the telemetry spine at three postures.

    The same microbatched load runs with (a) the hub mirror detached —
    the bare pre-observability hot path, (b) metrics only (the default
    posture: every request feeds the labeled hub series), and
    (c) metrics plus 1%-sampled tracing.  The record captures the
    relative overheads; the asserted floor is catastrophic-only
    (``MAX_TELEMETRY_SLOWDOWN``) because shared runners cannot resolve
    single-digit percents — the <5% metrics-only target is a recorded
    claim, checked on quiet hardware.
    """
    tree, abr_states = _distilled_abr()
    artifact = PolicyArtifact.from_tree(tree, name="abr-distilled")
    pool = abr_states[
        np.random.default_rng(1).integers(0, len(abr_states), 8192)
    ]

    def run(trace_sample, mirror=True, scenario="obs"):
        with _backend("numpy"), PolicyServer(
            max_batch=N_CONCURRENT_CLIENTS, max_delay_s=1e-3,
            trace_sample=trace_sample,
        ) as server:
            if not mirror:
                # Detach the hub mirror to recover the bare seed path.
                # Internal knobs on purpose: production always mirrors,
                # so "telemetry off" exists only as this baseline.
                server._metrics._h_requests = None
                server._metrics._h_errors = None
                server._metrics._h_latency = None
                server._batcher._m_flushes = None
                server._batcher._m_flush_size = None
            server.publish("abr", artifact)
            server.predict("abr", pool[:64])  # warm-up
            report = run_load(
                server, "abr", pool,
                n_clients=N_CONCURRENT_CLIENTS, repeats=BATCHED_PASSES,
                scenario=scenario,
            )
            traced = server.tracer.snapshot()["finished"]
        assert report.n_errors == 0
        return report, traced

    off, _ = run(0.0, mirror=False, scenario="obs-off")
    metrics_only, _ = run(0.0, scenario="obs-metrics")
    traced, n_traces = run(0.01, scenario="obs-traced")

    metrics_loss = 1.0 - metrics_only.throughput_rps / off.throughput_rps
    trace_loss = 1.0 - traced.throughput_rps / off.throughput_rps
    record = {
        "benchmark": "serve-observability",
        "n_clients": N_CONCURRENT_CLIENTS,
        "telemetry_off_rps": off.throughput_rps,
        "metrics_only_rps": metrics_only.throughput_rps,
        "traced_1pct_rps": traced.throughput_rps,
        "metrics_overhead_frac": metrics_loss,
        "traced_1pct_overhead_frac": trace_loss,
        "traces_recorded": int(n_traces),
        "metrics_p99_ms": metrics_only.latency_p99_ms,
        "telemetry_off_p99_ms": off.latency_p99_ms,
    }
    record_run(BENCH_PATH, record)

    if REPORT_ONLY:
        return
    assert n_traces > 0, "1% sampling recorded no traces under load"
    assert (off.throughput_rps
            <= metrics_only.throughput_rps * MAX_TELEMETRY_SLOWDOWN), (
        f"metrics mirror halved throughput: {metrics_only.throughput_rps:.0f}"
        f" vs {off.throughput_rps:.0f} req/s bare"
    )
    assert (off.throughput_rps
            <= traced.throughput_rps * MAX_TELEMETRY_SLOWDOWN), (
        f"1% tracing halved throughput: {traced.throughput_rps:.0f}"
        f" vs {off.throughput_rps:.0f} req/s bare"
    )
