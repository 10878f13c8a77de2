"""Production policy serving (§6.4's "same serving stack" made real).

The subsystem turns compiled policies into a served system:

* :class:`PolicyArtifact` — immutable servable bundle (flat tree arrays
  or MLP teacher) with a content hash;
* :class:`ModelRegistry` — versioned names + aliases, atomic publish,
  zero-downtime hot-swap;
* :class:`MicroBatcher` — coalesces concurrent single-state requests
  into one batched predict per flush;
* :class:`PolicyServer` — the futures-based front door with per-model
  throughput/latency/batch/error metrics;
* :mod:`repro.serve.kernels` — the tier's compile thread: a published
  tree serves at once and its native kernel attaches when ready;
* :class:`TrafficSplitter` — registry-layer canary routing and shadow
  mirroring for staged rollouts;
* :class:`AdaptiveDelay` — load-aware microbatch flush deadlines;
* :mod:`repro.serve.online` — the closed loop: :class:`TraceCapture`
  (sampled served (state, action) ring), :class:`Redistiller`
  (DAgger refits against the registered teacher), and
  :class:`AutoCanaryController` (gated canary ramp that promotes to
  the alias or calls ``rollback_publish`` — see ``docs/online.md``);
* :mod:`repro.serve.cluster` — the elastic sharded multi-process tier:
  shared-memory artifacts, load-aware routing, shard autoscaling, and
  self-healing control-log replay (imported lazily; it spawns
  processes — see ``docs/cluster.md``);
* :mod:`repro.serve.aio` — :class:`AsyncPolicyClient`, the asyncio
  front end over any server (imported lazily);
* :mod:`repro.serve.loadgen` — ABR / flows / routing trace-replay load
  generators plus threaded and asyncio closed-loop replay harnesses
  (imported lazily; it pulls in the simulators).
"""

from repro.serve.adaptive import AdaptiveDelay
from repro.serve.artifact import PolicyArtifact
from repro.serve.batcher import MicroBatcher, ServeResult
from repro.serve.online import (
    AutoCanaryController,
    Redistiller,
    RefitResult,
    TraceCapture,
)
from repro.serve.registry import ModelRegistry, ResolvedModel
from repro.serve.server import PolicyServer, ServeError, ServerMetrics
from repro.serve.splitter import TrafficSplit, TrafficSplitter

__all__ = [
    "PolicyArtifact",
    "MicroBatcher",
    "ServeResult",
    "ModelRegistry",
    "ResolvedModel",
    "PolicyServer",
    "ServeError",
    "ServerMetrics",
    "TrafficSplit",
    "TrafficSplitter",
    "AdaptiveDelay",
    "TraceCapture",
    "Redistiller",
    "RefitResult",
    "AutoCanaryController",
]
