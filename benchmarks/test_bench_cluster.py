"""Micro-benchmark: the elastic sharded cluster vs the single-process
MicroBatcher.

PR 3's serving stack tops out at one GIL-bound batcher thread; the
cluster tier (``repro.serve.cluster``) shards the registry across
worker processes with shared-memory artifacts and adds an asyncio bulk
path.  Three benchmarks here, all appending to ``BENCH_cluster.json``
(see ``docs/benchmarks.md`` for every field):

* **scaling** — the same distilled ABR workload through the PR-3
  single-process baselines (64 threaded closed-loop clients; the
  server's own bulk ``predict``) and a 2-shard (``CLUSTER_SHARDS`` to
  override) :class:`ShardedPolicyService` (async closed loop for the
  latency view, the chunked bulk array path for aggregate throughput).
  Local floor: cluster bulk >= 2x the single-process closed loop
  (measured ~4x) and >= 1.5x the best single-process mode (~2.8x).
* **routing** — a skewed workload (one expensive synthetic model kept
  continuously in flight next to a cheap high-concurrency one) through
  the same 2-shard cluster under round-robin vs least-loaded routing.
  Round-robin is load-blind, so it parks cheap groups behind an
  in-flight expensive batch about half the time; the load-aware router
  must beat its throughput on the contended cheap workload (local
  floor 1.02x on the median of five back-to-back pairs asserts the win
  direction; measured ~1.1-1.35x).
* **elasticity** — autoscaler scale-up/scale-down event counts under a
  saturate-then-idle cycle, and shard-kill recovery under ``self_heal``
  (time until a replacement replica serves, replica-state fingerprint
  equality, zero dropped futures).

Earlier records with ``benchmark: "cluster-transport"`` compared the
pipe with a localhost-socket transport that has since been removed.

``BENCH_REPORT_ONLY=1`` records without asserting (CI smoke mode —
shared runners cannot promise multi-process timing floors).
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from pathlib import Path

import numpy as np

from bench_io import record_run
from test_bench_serve import _distilled_abr

from repro.serve import PolicyArtifact, PolicyServer
from repro.serve.cluster import AutoscaleConfig, ShardedPolicyService
from repro.serve.loadgen import (
    run_load,
    run_load_async,
    run_mixed_load_async,
    synthetic_artifact,
)

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_cluster.json"

REPORT_ONLY = bool(os.environ.get("BENCH_REPORT_ONLY"))
N_SHARDS = int(os.environ.get("CLUSTER_SHARDS", "2"))

N_CLIENTS = 64
POOL_ROWS = 8192
BULK_CHUNK = 256

MIN_CLUSTER_SPEEDUP = 2.0
#: Apples-to-apples floor: cluster bulk must also beat the single
#: process's own *best* mode (its bulk predict path), or the headline
#: would be measuring batching, not sharding.  Measured ~2.8x locally.
MIN_SPEEDUP_VS_BEST = 1.5
#: Load-aware routing must beat round-robin under the skewed mix.
#: Typical measurement is ~1.35x (even on one core); noisy contended
#: runs have dipped to ~1.08x, so the floor asserts the *direction* of
#: the win with a small margin rather than its magnitude — at or below
#: 1.0x the router has stopped reading the load signals.
MIN_ROUTING_GAIN = 1.02
#: Back-to-back round-robin/least-loaded pairs; the gain is their median.
ROUTING_ROUNDS = 5


def _bulk_rps(server, model: str, pool: np.ndarray, passes: int) -> float:
    """Rows/s of a server's synchronous bulk predict over the pool."""
    server.predict(model, pool[:64])  # warm-up
    start = time.perf_counter()
    for _ in range(passes):
        server.predict(model, pool)
    return passes * pool.shape[0] / (time.perf_counter() - start)


def test_bench_cluster_scaling():
    tree, abr_states = _distilled_abr()
    artifact = PolicyArtifact.from_tree(tree, name="abr-distilled")
    pool = abr_states[
        np.random.default_rng(0).integers(0, len(abr_states), POOL_ROWS)
    ]

    # ------------------------------------------------------------------
    # single-process MicroBatcher baselines (the PR-3 serving stack)
    # ------------------------------------------------------------------
    with PolicyServer(max_batch=64, max_delay_s=1e-3) as server:
        server.publish("abr", artifact)
        server.predict("abr", pool[:64])  # warm-up
        single_closed = run_load(
            server, "abr", pool[:4096],
            n_clients=N_CLIENTS, scenario="single-closed-loop",
            warmup=8,
        )
        single_bulk_rps = _bulk_rps(server, "abr", pool, passes=3)

    # ------------------------------------------------------------------
    # sharded multi-process cluster, same artifact, same workload
    # ------------------------------------------------------------------
    with ShardedPolicyService(
        n_shards=N_SHARDS, max_batch=128, max_delay_s=1e-3,
        adaptive_delay=True,
    ) as service:
        service.publish("abr", artifact)
        service.predict("abr", pool[:64])  # warm-up
        cluster_closed = run_load_async(
            service, "abr", pool[:4096],
            n_clients=N_CLIENTS, scenario="cluster-closed-loop",
            warmup=8,
        )
        cluster_bulk = run_load_async(
            service, "abr", pool,
            n_clients=16, chunk=BULK_CHUNK, repeats=3,
            scenario="cluster-bulk",
        )
        view = service.cluster_metrics()
        batching = service.batching_state()
    per_shard = {
        str(shard["shard"]): int(
            shard["models"].get("abr", {}).get("requests", 0)
        )
        for shard in view["shards"]
    }

    single_best_rps = max(single_closed.throughput_rps, single_bulk_rps)
    speedup_vs_batcher = (
        cluster_bulk.throughput_rps / single_closed.throughput_rps
    )
    speedup_vs_best = cluster_bulk.throughput_rps / single_best_rps

    record = {
        "benchmark": "cluster",
        "n_shards": N_SHARDS,
        "single_process": {
            "closed_loop_rps": single_closed.throughput_rps,
            "closed_loop_p50_ms": single_closed.latency_p50_ms,
            "closed_loop_p99_ms": single_closed.latency_p99_ms,
            "bulk_rps": single_bulk_rps,
        },
        "cluster": {
            "closed_loop_rps": cluster_closed.throughput_rps,
            "closed_loop_p50_ms": cluster_closed.latency_p50_ms,
            "closed_loop_p99_ms": cluster_closed.latency_p99_ms,
            "bulk_rps": cluster_bulk.throughput_rps,
            "bulk_chunk": BULK_CHUNK,
            "per_shard_requests": per_shard,
            "adaptive_delay": batching,
        },
        "aggregate_speedup_vs_single_process": speedup_vs_batcher,
        "speedup_vs_single_best_mode": speedup_vs_best,
    }
    record_run(BENCH_PATH, record)

    if REPORT_ONLY:
        return
    assert single_closed.n_errors == 0
    assert cluster_closed.n_errors == 0 and cluster_bulk.n_errors == 0
    # both shards actually served
    assert all(count > 0 for count in per_shard.values())
    assert speedup_vs_batcher >= MIN_CLUSTER_SPEEDUP, (
        f"cluster bulk only {speedup_vs_batcher:.1f}x over the "
        f"single-process MicroBatcher "
        f"({cluster_bulk.throughput_rps:.0f} vs "
        f"{single_closed.throughput_rps:.0f} req/s)"
    )
    assert speedup_vs_best >= MIN_SPEEDUP_VS_BEST, (
        f"cluster bulk only {speedup_vs_best:.2f}x over the best "
        f"single-process mode ({cluster_bulk.throughput_rps:.0f} vs "
        f"{single_best_rps:.0f} req/s) — sharding is not paying for "
        f"itself"
    )


# ----------------------------------------------------------------------
# routing: load-aware vs round-robin under a skewed workload
# ----------------------------------------------------------------------
HEAVY_CALL_S = 3e-3
LIGHT_CALL_S = 1e-4
SKEW_FEATURES = 8


def _skewed_mix_rps(routing: str, pool: np.ndarray) -> dict:
    """The heavy+light mix under ``routing``.

    The heavy job (2 clients, bursts of 3ms-per-call requests) is
    sized to outlast the light job, so the light traffic contends with
    heavy batches for its whole run; the light job's throughput and
    tail latency are the routing-quality reading.
    """
    with ShardedPolicyService(
        n_shards=N_SHARDS, routing=routing, max_batch=64,
        max_delay_s=5e-4,
    ) as service:
        service.publish(
            "heavy", synthetic_artifact("heavy", HEAVY_CALL_S,
                                        n_features=SKEW_FEATURES)
        )
        service.publish(
            "light", synthetic_artifact("light", LIGHT_CALL_S,
                                        n_features=SKEW_FEATURES)
        )
        result = run_mixed_load_async(
            service,
            jobs=[
                {"model": "light", "states": pool[:2048],
                 "n_clients": 16, "scenario": "light"},
                # one closed-loop heavy client keeps ~one shard's worth
                # of 3ms batches continuously in flight — the skew a
                # load-blind placement cannot see
                {"model": "heavy", "states": pool[:200],
                 "n_clients": 1, "scenario": "heavy"},
            ],
            warmup=4,
        )
        return {
            "aggregate_rps": result["aggregate"]["throughput_rps"],
            "n_errors": result["aggregate"]["n_errors"],
            "light_rps": result["jobs"]["light"].throughput_rps,
            "light_p50_ms": result["jobs"]["light"].latency_p50_ms,
            "light_p99_ms": result["jobs"]["light"].latency_p99_ms,
            "heavy_rps": result["jobs"]["heavy"].throughput_rps,
        }


def test_bench_routing_skew():
    """Load-aware routing must beat round-robin on a skewed mix.

    Round-robin parks ~half the light groups behind an in-flight 3ms
    heavy batch; least-loaded reads the in-flight/EWMA signals and
    sends them to the idle shard.  The floor is on the light job's
    throughput (the heavy job is capacity-bound either way).
    """
    rng = np.random.default_rng(7)
    pool = rng.uniform(0, 1, (2048, SKEW_FEATURES))

    def gain(runs: dict, key: str) -> float:
        base = runs["round_robin"][key]
        return runs["least_loaded"][key] / base if base > 0 else 0.0

    # The two routers run back to back, the first of each pair
    # alternating, and the median round decides: on a shared host, one
    # run per router measured seconds apart confounds host drift (and
    # one descheduling blip) with the router.
    order = ("round_robin", "least_loaded")
    rounds = []
    for i in range(ROUTING_ROUNDS):
        pair = order if i % 2 == 0 else order[::-1]
        rounds.append(
            {routing: _skewed_mix_rps(routing, pool) for routing in pair}
        )
    round_gains = [gain(runs, "light_rps") for runs in rounds]
    median_round = sorted(
        rounds, key=lambda runs: gain(runs, "light_rps")
    )[len(rounds) // 2]
    round_robin = median_round["round_robin"]
    least_loaded = median_round["least_loaded"]
    light_gain = gain(median_round, "light_rps")
    aggregate_gain = gain(median_round, "aggregate_rps")

    record = {
        "benchmark": "cluster-routing",
        "n_shards": N_SHARDS,
        "heavy_call_s": HEAVY_CALL_S,
        "light_call_s": LIGHT_CALL_S,
        "round_robin": round_robin,
        "least_loaded": least_loaded,
        "routing_gain_light": light_gain,
        "routing_gain_light_rounds": round_gains,
        "routing_gain_aggregate": aggregate_gain,
    }
    record_run(BENCH_PATH, record)

    if REPORT_ONLY:
        return
    assert round_robin["n_errors"] == 0
    assert least_loaded["n_errors"] == 0
    assert all(run["n_errors"] == 0
               for runs in rounds for run in runs.values())
    assert light_gain >= MIN_ROUTING_GAIN, (
        f"least-loaded routing only {light_gain:.2f}x round-robin on "
        f"the contended light workload "
        f"({least_loaded['light_rps']:.0f} vs "
        f"{round_robin['light_rps']:.0f} req/s)"
    )


# ----------------------------------------------------------------------
# elasticity: autoscaler events + shard-kill recovery
# ----------------------------------------------------------------------
def test_bench_cluster_elasticity():
    """Record autoscaler event counts and self-heal recovery metrics."""
    tree, abr_states = _distilled_abr()
    artifact = PolicyArtifact.from_tree(tree, name="abr-distilled")
    pool = abr_states[
        np.random.default_rng(1).integers(0, len(abr_states), 2048)
    ]

    # --- autoscaling under a saturate-then-idle cycle -----------------
    config = AutoscaleConfig(
        min_shards=1, max_shards=3, interval_s=0.05, cooldown_s=0.25,
        scale_up_fill=0.35, scale_down_fill=0.1, idle_ticks_down=4,
    )
    with ShardedPolicyService(
        n_shards=1, adaptive_delay=True, max_batch=16, max_delay_s=1e-3,
        autoscale=config,
    ) as service:
        service.publish("abr", artifact)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            run_load(service, "abr", pool[:512], n_clients=16, repeats=2)
            if service.autoscaler.scale_ups >= 1:
                break
        peak_shards = service.cluster_metrics()["live_shards"]
        # The victim stops counting as live as soon as it starts
        # draining, but the autoscaler counts the scale-down only once
        # remove_shard() has drained and joined it: wait for both.
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if (service.cluster_metrics()["live_shards"] == 1
                    and service.autoscaler.scale_downs >= 1):
                break
            time.sleep(0.1)
        autoscale_snap = service.autoscaler.snapshot()
        idle_shards = service.cluster_metrics()["live_shards"]

    # --- shard-kill recovery under self_heal --------------------------
    with ShardedPolicyService(
        n_shards=N_SHARDS, self_heal=True, max_delay_s=1e-3,
    ) as service:
        service.publish("abr", artifact, alias="abr/prod")
        fingerprint_before = repr(service.replica_states()["parent"])
        futures = []
        stop = threading.Event()

        def pump():
            while not stop.is_set():
                futures.append(service.submit("abr/prod", pool[0]))
                time.sleep(0.001)

        pumper = threading.Thread(target=pump, daemon=True)
        pumper.start()
        time.sleep(0.05)
        killed_at = time.perf_counter()
        service.kill_shard(service._shards[0].shard_id)
        recovery_s = None
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            if service.cluster_metrics()["live_shards"] == N_SHARDS:
                recovery_s = time.perf_counter() - killed_at
                break
            time.sleep(0.01)
        stop.set()
        pumper.join(timeout=10)
        # Count hung futures instead of raising on the first one — the
        # recorded dropped_futures metric must be able to go nonzero.
        results = []
        dropped = 0
        for future in futures:
            try:
                results.append(future.result(timeout=30))
            except FutureTimeoutError:  # builtin alias only since 3.11
                dropped += 1
        failed = sum(1 for r in results if not r.ok)
        states = service.replica_states()
        replicas_identical = all(
            repr(state) == fingerprint_before
            for state in states["shards"].values()
        ) and repr(states["parent"]) == fingerprint_before

    record = {
        "benchmark": "cluster-elasticity",
        "autoscale": {
            "scale_ups": autoscale_snap["scale_ups"],
            "scale_downs": autoscale_snap["scale_downs"],
            "peak_live_shards": peak_shards,
            "idle_live_shards": idle_shards,
        },
        "recovery": {
            "n_shards": N_SHARDS,
            "recovery_s": recovery_s,
            "requests_during_kill": len(futures),
            "structured_failures": failed,
            "dropped_futures": dropped,
            "replicas_identical_after_heal": replicas_identical,
        },
    }
    record_run(BENCH_PATH, record)

    if REPORT_ONLY:
        return
    assert autoscale_snap["scale_ups"] >= 1, autoscale_snap
    assert autoscale_snap["scale_downs"] >= 1, autoscale_snap
    assert idle_shards == 1
    assert recovery_s is not None, "replacement shard never came up"
    assert dropped == 0, f"{dropped} futures dropped during the kill"
    assert replicas_identical, "healed replica diverged"
