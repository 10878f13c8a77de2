"""Fig. 16 (§6.4): decision latency and per-flow decision coverage.

Replacing the AuTO DNN with the distilled tree cuts per-decision latency
~27x (62 ms -> 2.3 ms on the paper's testbed), which lets the central
scheduler cover flows that previously finished before their decision
arrived — +33% flows / +46% bytes on the data-mining trace.
"""

from __future__ import annotations

import numpy as np

from repro.deploy.latency import (
    SERVER_DNN,
    SERVER_TREE,
    decision_latency_dnn,
    decision_latency_tree,
    measure_batch_throughput,
    measure_wallclock_latency,
)
from repro.envs.flows import generate_flows
from repro.experiments.common import ExperimentResult, auto_lab
from repro.utils.rng import as_rng
from repro.utils.tables import ResultTable


def _coverage(flows, latency_s: float, capacity_bps: float, min_bytes: float):
    """Fraction of central-eligible flows/bytes still alive at decision
    time (ideal-FCT approximation of lifetime)."""
    eligible = [f for f in flows if f.size_bytes >= min_bytes]
    if not eligible:
        return 0.0, 0.0
    covered = [
        f for f in eligible if f.ideal_fct(capacity_bps) > latency_s
    ]
    flow_cov = len(covered) / len(eligible)
    byte_cov = (
        sum(f.size_bytes for f in covered)
        / sum(f.size_bytes for f in eligible)
    )
    return flow_cov, byte_cov


def _live_serving_table(tree, fast: bool):
    """Serve the distilled lRLA tree live and replay flow traffic at it.

    The measured substrate for the latency story: instead of only the
    modeled ``DeviceProfile`` constants, a real :class:`PolicyServer`
    answers microbatched decision traffic and reports observed tail
    latency and throughput.
    """
    from repro.serve import PolicyArtifact, PolicyServer
    from repro.serve.loadgen import flow_request_states, run_load

    states = flow_request_states(
        duration_s=1.0 if fast else 2.0, seed=9,
        min_rows=128 if fast else 512,
    )
    with PolicyServer(max_batch=64, max_delay_s=1e-3) as server:
        server.publish(
            "auto-lrla", PolicyArtifact.from_tree(tree, name="auto-lrla")
        )
        server.wait_kernels()
        report = run_load(
            server, "auto-lrla", states,
            n_clients=8, repeats=1 if fast else 2, scenario="flows",
        )
    table = ResultTable(
        "Measured serving latency (live PolicyServer)",
        ["scenario", "p50 (ms)", "p99 (ms)", "throughput (req/s)"],
    )
    table.add_row([
        report.scenario, report.latency_p50_ms, report.latency_p99_ms,
        report.throughput_rps,
    ])
    metrics = {
        "serve_p50_ms": report.latency_p50_ms,
        "serve_p99_ms": report.latency_p99_ms,
        "serve_throughput_rps": report.throughput_rps,
        "serve_errors": float(report.n_errors),
    }
    return table, metrics


def _cluster_serving_table(tree, fast: bool, n_shards: int = 2):
    """Serve the same tree through the sharded multi-process tier.

    Async closed-loop coroutine clients measure per-decision latency;
    the bulk array path measures aggregate throughput — the number that
    scales with shards.
    """
    from repro.deploy.latency import cluster_latency_report
    from repro.serve import PolicyArtifact
    from repro.serve.cluster import ShardedPolicyService
    from repro.serve.loadgen import flow_request_states, run_load_async

    states = flow_request_states(
        duration_s=1.0 if fast else 2.0, seed=9,
        min_rows=128 if fast else 512,
    )
    with ShardedPolicyService(
        n_shards=n_shards, max_batch=128, max_delay_s=1e-3,
        adaptive_delay=True,
    ) as service:
        service.publish(
            "auto-lrla", PolicyArtifact.from_tree(tree, name="auto-lrla")
        )
        service.wait_kernels()
        service.predict("auto-lrla", states[:64])  # warm-up
        closed = run_load_async(
            service, "auto-lrla", states,
            n_clients=8 if fast else 32, scenario="flows-cluster",
        )
        bulk = run_load_async(
            service, "auto-lrla", states,
            n_clients=4, chunk=128, repeats=2 if fast else 4,
            scenario="flows-cluster-bulk",
        )
        rows = cluster_latency_report(service, "auto-lrla", tree=tree)
    table = ResultTable(
        f"Cluster serving ({n_shards} shards, live ShardedPolicyService)",
        ["mode", "p50 (ms)", "p99 (ms)", "throughput (req/s)"],
    )
    table.add_row([
        "closed-loop", closed.latency_p50_ms, closed.latency_p99_ms,
        closed.throughput_rps,
    ])
    table.add_row([
        "bulk", bulk.latency_p50_ms, bulk.latency_p99_ms,
        bulk.throughput_rps,
    ])
    aggregate = next(
        (r for r in rows if r["source"] == "aggregate-shards"), None
    )
    metrics = {
        "cluster_p50_ms": closed.latency_p50_ms,
        "cluster_p99_ms": closed.latency_p99_ms,
        "cluster_bulk_throughput_rps": bulk.throughput_rps,
        "cluster_errors": float(closed.n_errors + bulk.n_errors),
        "cluster_shards": float(n_shards),
        "cluster_aggregate_shard_rps": (
            float(aggregate["throughput_rps"]) if aggregate else 0.0
        ),
    }
    return table, metrics


def run(
    fast: bool = False, serve: bool = False, cluster: bool = False
) -> ExperimentResult:
    """Reproduce Fig. 16; with ``serve=True`` the latency table is
    additionally measured against a live ``repro.serve`` PolicyServer,
    and with ``cluster=True`` against a sharded multi-process
    ``ShardedPolicyService`` (2 shards)."""
    lab = auto_lab("websearch", fast)
    teacher, tree = lab["teacher"], lab["lrla_tree"]

    # Modeled latency distributions (Fig. 16a).
    rng = as_rng(3)
    n = 100 if fast else 400
    dnn_lat = np.asarray([
        decision_latency_dnn(teacher.lrla.net, SERVER_DNN, rng)
        for _ in range(n)
    ])
    tree_lat = np.asarray([
        decision_latency_tree(tree.tree, SERVER_TREE, rng)
        for _ in range(n)
    ])
    latency = ResultTable(
        "Per-decision latency (Fig. 16a)",
        ["model", "mean (ms)", "p95 (ms)"],
    )
    latency.add_row([
        "AuTO (DNN)", float(dnn_lat.mean() * 1e3),
        float(np.percentile(dnn_lat, 95) * 1e3),
    ])
    latency.add_row([
        "Metis+AuTO (tree)", float(tree_lat.mean() * 1e3),
        float(np.percentile(tree_lat, 95) * 1e3),
    ])
    speedup = float(dnn_lat.mean() / tree_lat.mean())

    # Measured wall-clock of our own implementations (same asymmetry).
    states = lab["lrla_dataset"].states
    measured_dnn = measure_wallclock_latency(
        lambda s: teacher.lrla_greedy(s), states, repeats=100 if fast else 300
    )
    measured_tree = measure_wallclock_latency(
        lambda s: tree.tree.predict_one(s[0]), states,
        repeats=100 if fast else 300,
    )
    # Server-side batching: the flat-array engine answers a whole state
    # matrix per call, so amortized per-decision cost drops far below
    # even the single-decision tree walk.
    tree_batch_rows_s = measure_batch_throughput(
        tree.tree.predict, states, repeats=2 if fast else 3
    )

    # Coverage (Fig. 16b): a lower min size lets the tree reach median
    # flows; AuTO's 62 ms latency cannot.
    coverage = ResultTable(
        "Central-decision coverage (Fig. 16b)",
        ["workload", "model", "flow coverage", "byte coverage"],
    )
    cov_metrics = {}
    min_bytes = 100_000.0
    for workload_name in ("websearch", "datamining"):
        wl_lab = auto_lab(workload_name, fast)
        flows = generate_flows(
            wl_lab["workload"], load=0.75,
            capacity_bps=teacher.capacity_bps,
            duration_s=2.0 if fast else 5.0, seed=55,
        )
        for model, lat in (("AuTO", dnn_lat.mean()),
                           ("Metis+AuTO", tree_lat.mean())):
            fc, bc = _coverage(
                flows, float(lat), teacher.capacity_bps, min_bytes
            )
            coverage.add_row([workload_name, model, fc, bc])
            cov_metrics[f"{workload_name}_{model}_flows"] = fc
            cov_metrics[f"{workload_name}_{model}_bytes"] = bc

    gain = (
        cov_metrics["datamining_Metis+AuTO_flows"]
        - cov_metrics["datamining_AuTO_flows"]
    )
    tables = [latency, coverage]
    metrics = {
        "latency_speedup": speedup,
        "measured_wallclock_speedup": float(measured_dnn / measured_tree),
        "tree_batch_rows_per_s": float(tree_batch_rows_s),
        "dm_flow_coverage_gain": float(gain),
    }
    if serve:
        serve_table, serve_metrics = _live_serving_table(tree.tree, fast)
        tables.append(serve_table)
        metrics.update(serve_metrics)
    if cluster:
        cluster_table, cluster_metrics = _cluster_serving_table(
            tree.tree, fast
        )
        tables.append(cluster_table)
        metrics.update(cluster_metrics)
    return ExperimentResult(
        experiment="fig16",
        title="Decision latency drops ~27x; coverage expands",
        tables=tables,
        metrics=metrics,
        raw={"dnn_latencies": dnn_lat, "tree_latencies": tree_lat},
    )


if __name__ == "__main__":
    print(run().render())
