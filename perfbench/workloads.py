"""The three workloads, untraced: their end-to-end metrics.

Serving workloads build their tier only after the tree and the states
exist, set it up several times from a cold kernel cache, then drive it
with the lean generator of :mod:`load`.  ``distill`` repeats the
conversion for the run's length.  The traced runs are in :mod:`layers`.
"""

from __future__ import annotations

import copy
import inspect
import os
import resource
import statistics
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

import load
import pipeline
from pipeline import MODEL
from repro.serve import PolicyArtifact, PolicyServer
from repro.serve.cluster import ShardedPolicyService

#: workload -> tier
SERVING = {
    "abr-decide": "server",
    "abr-decide-cluster": "cluster",
}
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 7
#: Unmeasured load before the measured window opens.
WARMUP_S = 1.0
#: ``distill``: time the distilled tree spends deciding after each
#: distillation.
SELECT_S = 0.5
TIER_CLASSES = {"server": PolicyServer, "cluster": ShardedPolicyService}
#: Name of :class:`repro.serve.batcher.MicroBatcher`'s worker thread.
BATCHER_THREAD = "repro-serve-batcher"


class Run:
    """Per-run state: scratch space inside the checkout (kernel caches)
    and CPU placement.

    The benchmark process (event loop, cluster dispatcher and shard
    readers) runs on the first allowed CPU.  Shard workers, and the
    in-process tier's batcher thread, run on the others.  Left to the
    scheduler, in-process throughput flips within a run between about
    21k and 40k decisions/s on 2 vCPUs: the fast mode needs the event
    loop and the batcher thread on one CPU, and on one CPU it still
    flips.  With the batcher on its own CPU it stays at the cross-CPU
    figure.  Both decide workloads then use two CPUs.

    Placement happens once, after the tier is built.  With the tiers'
    default knobs (no self-heal, no autoscaler) no worker starts later;
    :meth:`workers_stable` checks that.
    """

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch
        self._caches = 0
        self.fresh_kernel_cache()
        cpus = sorted(os.sched_getaffinity(0))
        self.worker_cpus = set(cpus[1:]) or set(cpus)
        self.placed: set = set()
        os.sched_setaffinity(0, {cpus[0]})

    def place_workers(self) -> None:
        """Move this process's children (shard workers) off the front
        end's CPU."""
        self.placed = set(children())
        for pid in self.placed:
            try:
                os.sched_setaffinity(pid, self.worker_cpus)
            except OSError:
                continue

    def place_batcher(self) -> None:
        """Move the in-process tier's batcher thread off the event
        loop's CPU."""
        for thread in threading.enumerate():
            if thread.name == BATCHER_THREAD:
                os.sched_setaffinity(thread.native_id, self.worker_cpus)

    def workers_stable(self) -> bool:
        """Whether the children are still the ones placed at set-up."""
        return set(children()) == self.placed

    def fresh_kernel_cache(self) -> None:
        """Point ``REPRO_KERNEL_CACHE`` at a new empty directory, so a
        publish pays the compile a fresh deploy pays."""
        self._caches += 1
        path = self.scratch / f"kernels-{self._caches}"
        path.mkdir(parents=True)
        os.environ["REPRO_KERNEL_CACHE"] = str(path)


# ----------------------------------------------------------------------
# tiers
# ----------------------------------------------------------------------
def build_tier(run: Run, kind: str, inputs: pipeline.Inputs,
               trace_sample: float = 0.0) -> Tuple[Any, Dict[str, float]]:
    """Construct, publish (cold kernel cache) and serve one decision."""
    run.fresh_kernel_cache()
    artifact = PolicyArtifact.from_tree(
        copy.deepcopy(inputs.distilled.student.tree), name=MODEL)
    t0 = time.perf_counter()
    tier = TIER_CLASSES[kind](trace_sample=trace_sample)
    try:
        run.place_workers()
        if kind == "server":
            run.place_batcher()
        t1 = time.perf_counter()
        tier.publish(MODEL, artifact)
        t2 = time.perf_counter()
        first = tier.submit(MODEL, inputs.states[0]).result(timeout=60)
        t3 = time.perf_counter()
    except BaseException:
        tier.close()
        raise
    if not first.ok or first.action != inputs.expected[0]:
        tier.close()
        raise RuntimeError(f"first decision is wrong: {first}")
    return tier, {"construct_s": t1 - t0, "publish_s": t2 - t1,
                  "setup_s": t3 - t0}


def set_up(run: Run, kind: str, inputs: pipeline.Inputs,
           trace_sample: float = 0.0) -> Tuple[Any, Dict[str, float]]:
    """``SETUP_REPS`` cold set-ups; keeps the last tier, returns the
    median of each timing."""
    timings: Dict[str, List[float]] = {}
    tier = None
    for _ in range(SETUP_REPS):
        if tier is not None:
            tier.close()
        tier, times = build_tier(run, kind, inputs, trace_sample)
        for key, value in times.items():
            timings.setdefault(key, []).append(value)
    return tier, {k: statistics.median(v) for k, v in timings.items()}


def max_batch(kind: str) -> int:
    """The tier's default flush size (the workloads use defaults)."""
    sig = inspect.signature(TIER_CLASSES[kind])
    return int(sig.parameters["max_batch"].default)


def served_artifact(tier: Any) -> PolicyArtifact:
    return tier.registry.resolve(MODEL).artifact


def kernel_status(artifact: PolicyArtifact) -> str:
    """``meta["kernel"]["status"]`` as set by the publish-time compile."""
    return (artifact.meta.get("kernel") or {}).get("status", "none")


def children() -> List[int]:
    """Pids of this process's live children."""
    me = str(os.getpid())
    out = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            continue
        if stat.rsplit(")", 1)[1].split()[1] == me:
            out.append(int(pid))
    return out


def children_peak_kb() -> int:
    """Summed peak RSS of this process's live children (shard workers)."""
    total = 0
    for pid in children():
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total += int(line.split()[1])
    return total


def peak_rss_mb(children_kb: int = 0) -> float:
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own_kb + children_kb) / 1024.0


# ----------------------------------------------------------------------
# untraced runs: end-to-end metrics
# ----------------------------------------------------------------------
def serving(run: Run, workload: str, seed: int, seconds: float) -> dict:
    kind = SERVING[workload]
    # Only the tree and the held-out states outlive this call, so the
    # teacher is not in memory (or in forked workers) while serving.
    inputs = pipeline.serving_inputs(seed)
    traffic = load.make_traffic(inputs.states, inputs.expected, seed)
    tier, setup = set_up(run, kind, inputs)
    try:
        t_begin = time.perf_counter()
        samples = load.run(tier, MODEL, traffic, WARMUP_S + seconds)
        # Before the statistics' temporaries can raise the peak.
        rss_mb = peak_rss_mb(children_peak_kb())
        t_from = t_begin + WARMUP_S
        stats = load.window_stats(samples, t_from, t_from + seconds)
        artifact = served_artifact(tier)
        info = {
            "served_hash": artifact.content_hash,
            "kernel_status": kernel_status(artifact),
            "latency_samples": stats.n_latencies,
            "latency_slices": stats.slices,
            "workers_stable": run.workers_stable(),
        }
    finally:
        tier.close()
    distilled = inputs.distilled
    return {
        "correct": (samples.failed == 0 and inputs.deterministic
                    and info["workers_stable"]
                    and info["served_hash"] == distilled.tree_hash),
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": {
            "decisions_per_s": stats.decisions_per_s,
            "latency_p50_ms": stats.latency_p50_ms,
            "latency_p99_ms": stats.latency_p99_ms,
            "setup_s": setup["setup_s"],
            "peak_rss_mb": rss_mb,
            "fidelity": distilled.fidelity,
        },
        "info": {"tree_hash": distilled.tree_hash,
                 "distill_times_s": inputs.distill_times, **info},
    }


def _timed_setups(seed: int) -> Tuple[pipeline.Teacher, float]:
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        built = pipeline.build_teacher(seed)
        times.append(time.perf_counter() - start)
    return built, statistics.median(times)


def _select_phase(student, states: np.ndarray, seconds: float
                  ) -> Tuple[List[float], List[float], List[float], int, int]:
    """Decide held-out states one ``select()`` call at a time, as a
    deployed tree does (one decision per chunk), in passes over all of
    them, for ``seconds``.

    Returns each pass's decisions per second and its p50 and p99 latency
    in ms, the decisions made, and the number that differ from the
    tree's batch prediction.  Statistics are per pass (about 15 ms), so
    that the run can report its least-disturbed pass.
    """
    reference = np.asarray(student.act_greedy_batch(states)).tolist()
    select = student.select
    clock = time.perf_counter
    rates, p50, p99 = [], [], []
    made = wrong = 0
    begin = clock()
    while clock() < begin + seconds:
        latencies = []
        pass_start = clock()
        for state, want in zip(states, reference):
            t0 = clock()
            action = select(state)
            latencies.append(clock() - t0)
            if action != want:
                wrong += 1
        rates.append(len(latencies) / (clock() - pass_start))
        made += len(latencies)
        p50.append(np.percentile(latencies, 50) * 1e3)
        p99.append(np.percentile(latencies, 99) * 1e3)
    return rates, p50, p99, made, wrong


def distill(run: Run, workload: str, seed: int, seconds: float) -> dict:
    """Repeated distillations at one seed for ``seconds``; each is
    followed by the distilled tree deciding held-out states for
    ``SELECT_S``.

    The run reports, for ``select()``, the best pass's rate, p50 and p99
    (each the best over the passes): a pass is fixed work of about 15 ms,
    short enough that every run catches passes the host did not disturb.
    Every distillation's time is in the description line; ``distill_s``
    itself is a per-layer metric (see :mod:`layers`).
    """
    built, setup_s = _timed_setups(seed)
    held = pipeline.held_out(built, seed)
    results: List[pipeline.Distilled] = []
    rates: List[float] = []
    p50: List[float] = []
    p99: List[float] = []
    made = wrong = 0
    deadline = time.perf_counter() + seconds
    while len(results) < 2 or time.perf_counter() < deadline:
        results.append(pipeline.distill(built, seed, held))
        pass_rates, pass_p50, pass_p99, n, bad = _select_phase(
            results[-1].student, held.states, SELECT_S)
        rates += pass_rates
        p50 += pass_p50
        p99 += pass_p99
        made, wrong = made + n, wrong + bad
    inputs = pipeline.make_inputs(results, held, {})
    return {
        "correct": inputs.deterministic and wrong == 0,
        "attempted": made,
        "failed": wrong,
        "metrics": {
            "decisions_per_s": max(rates),
            "latency_p50_ms": min(p50),
            "latency_p99_ms": min(p99),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "fidelity": inputs.distilled.fidelity,
        },
        "info": {"tree_hash": inputs.distilled.tree_hash,
                 "distill_times_s": inputs.distill_times,
                 "deterministic": inputs.deterministic,
                 "latency_samples": made, "latency_slices": len(p50)},
    }


UNTRACED = {**{w: serving for w in SERVING}, "distill": distill}
