"""Load-aware microbatch flush deadlines.

A fixed ``max_delay_s`` is the wrong constant at both ends of the load
curve: under light traffic every request eats the full coalescing wait
for nothing (no batchmates are coming), and under heavy traffic the
constant is irrelevant (the backlog fills ``max_batch`` instantly).  The
interesting regime is in between, where a *longer* wait buys genuinely
bigger batches.

:class:`AdaptiveDelay` closes the loop with the only signal the batcher
already has: how full each flush was (batch size + queue backlog at
gather time, relative to ``max_batch``).  An EWMA of that fill fraction
scales the deadline between ``floor_s`` (drain immediately when idle)
and ``max_delay_s`` (deep coalescing under sustained load):

    delay = floor + (cap - floor) * ewma_fill

The controller is written only under the batcher's flush lock, so it
needs no lock of its own; ``snapshot()`` reads are racy-but-atomic
floats, fine for monitoring.
"""

from __future__ import annotations


class AdaptiveDelay:
    """EWMA fill-fraction controller for the flush deadline.

    Args:
        max_delay_s: ceiling — the deadline under sustained load.
        floor_s: floor — the deadline when the server idles.
        alpha: EWMA smoothing weight for each new observation.
        initial_fill: starting fill estimate (0 starts snappy, 1 starts
            coalescing).
    """

    def __init__(
        self,
        max_delay_s: float = 2e-3,
        floor_s: float = 0.0,
        alpha: float = 0.2,
        initial_fill: float = 0.0,
    ) -> None:
        if max_delay_s < 0 or floor_s < 0:
            raise ValueError("delays must be non-negative")
        if floor_s > max_delay_s:
            raise ValueError("floor_s must not exceed max_delay_s")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if not 0.0 <= initial_fill <= 1.0:
            raise ValueError("initial_fill must be in [0, 1]")
        self.max_delay_s = float(max_delay_s)
        self.floor_s = float(floor_s)
        self.alpha = float(alpha)
        self._fill = float(initial_fill)
        self._observations = 0

    def observe(
        self, batch_size: int, queue_depth: int, max_batch: int
    ) -> None:
        """Fold one flush into the fill estimate.

        ``batch_size`` is how many requests the gather produced and
        ``queue_depth`` how many were still waiting behind it — together
        they measure offered load at flush time.
        """
        if max_batch < 1:
            return
        fill = min(1.0, (batch_size + queue_depth) / max_batch)
        self._fill += self.alpha * (fill - self._fill)
        self._observations += 1

    @property
    def fill(self) -> float:
        """The EWMA fill estimate in [0, 1] — how saturated recent
        flushes ran relative to ``max_batch``.  This is the cluster
        autoscaler's primary scale-up signal; note it only updates
        when flushes happen, so it goes stale on an idle server
        (idleness detection needs its own clock).
        """
        return self._fill

    def current(self) -> float:
        """The deadline the next gather should use."""
        return self.floor_s + (self.max_delay_s - self.floor_s) * self._fill

    def snapshot(self) -> dict:
        """Monitoring view: current fill estimate and deadline."""
        return {
            "fill": self._fill,
            "delay_s": self.current(),
            "max_delay_s": self.max_delay_s,
            "floor_s": self.floor_s,
            "observations": self._observations,
        }


def batching_state(delay, fixed_delay_s: float) -> dict:
    """The common ``batching_state()`` payload both serving tiers
    expose: the adaptive snapshot when a controller is wired in, the
    fixed deadline otherwise."""
    if delay is None:
        return {"adaptive": False, "delay_s": fixed_delay_s}
    return {"adaptive": True, **delay.snapshot()}
