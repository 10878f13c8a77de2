"""Lean closed-loop load generator: coroutine clients on one event loop.

Each client awaits ``asyncio.wrap_future(tier.submit(...))`` directly,
with one run-wide deadline and no per-request ``wait_for``/``gather``, so
the generator costs as little as an asyncio client can.  :class:`NullTier` answers from already-resolved
futures; running the same generator against it gives the generator's own
ceiling.

Every answer is compared with the offline reference as it arrives; a
failed, refused or wrong decision counts in ``failed``.
"""

from __future__ import annotations

import asyncio
import time
from array import array
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

import numpy as np

from repro.serve.batcher import ServeResult

DECIDE_CLIENTS = 64
#: Rows of the bulk matrix the per-layer probes time (a what-if replay
#: frame).
BULK_ROWS = 2048


@dataclass
class Traffic:
    """Pre-built request inputs and their reference answers."""

    rows: List[np.ndarray]
    expected: List[Any]
    #: ``BULK_ROWS`` held-out states sampled with replacement.
    matrix: np.ndarray


def make_traffic(states: np.ndarray, expected: List[Any],
                 seed: int) -> Traffic:
    """Split the held-out states into request rows and draw the bulk
    matrix (seeded)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    idx = rng.integers(0, states.shape[0], BULK_ROWS)
    # Shuffle request order so consecutive requests come from
    # different sessions, as they would from independent clients.
    order = rng.permutation(states.shape[0])
    return Traffic(
        rows=[states[i] for i in order],
        expected=[expected[i] for i in order],
        matrix=np.ascontiguousarray(states[idx]),
    )


@dataclass
class Samples:
    """Per-request records of one load window, as parallel arrays.

    Send times are single-precision offsets from ``base``, client
    durations are single precision, and ``submit_s``,
    ``delivery_s`` and ``server_s`` are kept only when ``detail`` is set
    (traced runs), so the generator's own memory stays small next to the
    tier's in ``peak_rss_mb``.  ``server_s`` stays double precision: it
    equals the request's trace total bit for bit, which is how traces are
    matched to requests.
    """

    detail: bool = False
    #: ``perf_counter`` reading the send times are offsets from.
    base: float = 0.0
    #: When each request was sent, in seconds after ``base``.
    start: array = field(default_factory=lambda: array("f"))
    #: Client latency: ``submit`` until the awaiting coroutine resumed.
    latency_s: array = field(default_factory=lambda: array("f"))
    #: Time inside ``submit``/``submit_batch`` (detail only).
    submit_s: array = field(default_factory=lambda: array("f"))
    #: From the tier resolving the future, in its own thread, until the
    #: awaiting coroutine resumed (detail only).
    delivery_s: array = field(default_factory=lambda: array("f"))
    #: ``ServeResult.latency_s``, the tier's own latency (detail only).
    server_s: array = field(default_factory=lambda: array("d"))
    attempted: int = 0
    failed: int = 0

    def values(self, name: str) -> np.ndarray:
        values = getattr(self, name)
        return np.frombuffer(values, dtype=values.typecode).astype(float)


def _resolution_stamp(future: Future) -> List[float]:
    """A list that receives the moment ``future`` resolves.

    The callback is added before ``asyncio.wrap_future`` adds its own, so
    it runs first, in whichever thread resolves the future.
    """
    stamp: List[float] = []
    future.add_done_callback(lambda _: stamp.append(time.perf_counter()))
    return stamp


class NullTier:
    """A tier whose futures are resolved before ``submit`` returns."""

    def __init__(self, traffic: Traffic, model: str) -> None:
        self._answers = {
            id(row): ServeResult(True, action, model, 1)
            for row, action in zip(traffic.rows, traffic.expected)
        }

    def submit(self, model: str, state: Any) -> Future:
        future: Future = Future()
        future.set_result(self._answers[id(state)])
        return future


async def _decide_client(submit: Callable, model: str, traffic: Traffic,
                         first: int, stride: int, deadline: float,
                         out: Samples) -> None:
    rows, expected = traffic.rows, traffic.expected
    n = len(rows)
    clock = time.perf_counter
    wrap = asyncio.wrap_future
    start, latency, detail = out.start, out.latency_s, out.detail
    base = out.base
    k = first
    failed = attempted = 0
    while True:
        t0 = clock()
        if t0 >= deadline:
            break
        i = k % n
        k += stride
        future = submit(model, rows[i])
        t1 = clock()
        if detail:
            resolved = _resolution_stamp(future)
        result = await wrap(future)
        t2 = clock()
        attempted += 1
        if not result.ok or result.action != expected[i]:
            failed += 1
        start.append(t0 - base)
        latency.append(t2 - t0)
        if detail:
            out.submit_s.append(t1 - t0)
            out.delivery_s.append(t2 - resolved[0])
            out.server_s.append(result.latency_s)
    out.attempted += attempted
    out.failed += failed


async def drive(tier: Any, model: str, traffic: Traffic, seconds: float,
                during: Optional[Callable] = None) -> Samples:
    """Run the closed loop for ``seconds`` and return its samples.

    ``during`` is an optional coroutine function run beside the clients
    until they finish (the traced run's trace sampler); it also turns on
    the detailed per-request records.
    """
    out = Samples(detail=during is not None, base=time.perf_counter())
    deadline = out.base + seconds
    clients = [
        _decide_client(tier.submit, model, traffic, c, DECIDE_CLIENTS,
                       deadline, out)
        for c in range(DECIDE_CLIENTS)
    ]
    tasks = [asyncio.ensure_future(c) for c in clients]
    helper = asyncio.ensure_future(during()) if during is not None else None
    try:
        await asyncio.gather(*tasks)
    finally:
        if helper is not None:
            helper.cancel()
            try:
                await helper
            except asyncio.CancelledError:
                pass
    return out


def run(tier: Any, model: str, traffic: Traffic, seconds: float,
        during: Optional[Callable] = None) -> Samples:
    return asyncio.run(drive(tier, model, traffic, seconds, during))


#: Length of a sub-window, and the fewest client latencies it may hold:
#: its p99 then has at least 20 samples beyond it.
SLICE_S = 0.5
MIN_SLICE_SAMPLES = 2000


@dataclass
class WindowStats:
    decisions_per_s: float
    latency_p50_ms: float
    latency_p99_ms: float
    #: Client latencies in the window, and the sub-windows they span.
    n_latencies: int
    slices: int


def window_stats(samples: Samples, t_from: float, t_to: float
                 ) -> WindowStats:
    """Statistics over requests that started in ``[t_from, t_to)``.

    The window is cut into equal sub-windows of ``SLICE_S``, fewer if a
    sub-window would hold less than ``MIN_SLICE_SAMPLES`` latencies.
    Throughput and p50 are medians over the sub-windows; p99 is their
    lower quartile.  Client latencies show 10-20 ms stalls a few times a
    second on a 2-vCPU host (vCPU stalls and GIL hand-offs among the
    front end's threads), and how many a sub-window catches depends on
    the other tenants of the host.  A stall lifts the p99 of the
    sub-window it falls in; short sub-windows keep the stalled ones a
    minority, and the lower quartile reports the p99 between stalls, so
    a run does not flip with how disturbed its stretch of time was.  Over
    five seeds the lower quartile spread by 0.06-0.08 of its median where
    the median spread by 0.13.  A sub-window's throughput is its
    completions after the first over the time from the first to the
    last.
    """
    start = samples.base + samples.values("start")
    done = start + samples.values("latency_s")
    keep = (start >= t_from) & (start < t_to)
    start, done = start[keep], done[keep]
    slices = max(1, min(round((t_to - t_from) / SLICE_S),
                        start.size // MIN_SLICE_SAMPLES))
    edges = np.linspace(t_from, t_to, slices + 1)
    rates, p50, p99 = [], [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        inside = (start >= lo) & (start < hi)
        latency_ms = (done[inside] - start[inside]) * 1e3
        ends = np.sort(done[inside])
        if ends.size < 2:
            continue
        rates.append((ends.size - 1) / (ends[-1] - ends[0]))
        p50.append(np.percentile(latency_ms, 50))
        p99.append(np.percentile(latency_ms, 99))
    return WindowStats(
        decisions_per_s=float(np.median(rates)),
        latency_p50_ms=float(np.median(p50)),
        latency_p99_ms=float(np.percentile(p99, 25)),
        n_latencies=int(start.size),
        slices=len(rates),
    )
