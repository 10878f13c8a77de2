"""Elastic sharded multi-process serving tier on top of
:mod:`repro.serve`.

* :mod:`~repro.serve.cluster.wire` — the versioned, length-prefixed
  binary wire protocol every parent<->worker exchange speaks;
* :mod:`~repro.serve.cluster.transport` — how frames move: each
  worker's duplex pipe to its parent (``PipeTransport``), the worker's
  serve loop, and the worker spawn function;
* :mod:`~repro.serve.cluster.shm` — zero-copy shipping of flat tree
  arrays to workers through ``multiprocessing.shared_memory``, content
  and transport hashes verified on reconstruct (and re-verified when a
  replacement replica re-attaches during log replay);
* :mod:`~repro.serve.cluster.worker` — shard process: a full registry /
  metrics / splitter replica answering stacked predict batches and
  reporting its service time with every reply;
* :mod:`~repro.serve.cluster.router` — pluggable flush-group routing:
  least-loaded (EWMA service time x in-flight) by default, round-robin
  as baseline, hash affinity as an override;
* :mod:`~repro.serve.cluster.autoscale` — :class:`Autoscaler` grows and
  shrinks the fleet from the adaptive-delay fill estimate, queue depth,
  and a p95 SLO;
* :mod:`~repro.serve.cluster.service` — :class:`ShardedPolicyService`,
  a :class:`~repro.serve.server.PolicyServer` whose flushes go to
  shards: load-aware routing, bulk ``submit_batch``, self-healing shard
  replacement by control-log replay, cluster-level metrics
  aggregation, and every control change replicated to every shard.
"""

from repro.serve.cluster.autoscale import (
    Autoscaler,
    AutoscaleConfig,
    AutoscaleSignals,
)
from repro.serve.cluster.router import (
    LeastLoadedRouter,
    RoundRobinRouter,
    Router,
    make_router,
)
from repro.serve.cluster.service import ShardedPolicyService
from repro.serve.cluster.shm import (
    ShmArtifactHandle,
    load_shared_artifact,
    segment_footprint,
    share_artifact,
)
from repro.serve.cluster.transport import PipeTransport
from repro.serve.cluster.wire import (
    OPS,
    Reply,
    Request,
    WireError,
    decode_frame,
    encode_reply,
    encode_request,
)
from repro.serve.cluster.worker import ERR_SHARD, WorkerCore, serve_stacked

__all__ = [
    "ShardedPolicyService",
    "ShmArtifactHandle",
    "share_artifact",
    "load_shared_artifact",
    "segment_footprint",
    "serve_stacked",
    "ERR_SHARD",
    "WorkerCore",
    "Router",
    "RoundRobinRouter",
    "LeastLoadedRouter",
    "make_router",
    "Autoscaler",
    "AutoscaleConfig",
    "AutoscaleSignals",
    "PipeTransport",
    "Request",
    "Reply",
    "WireError",
    "OPS",
    "encode_request",
    "encode_reply",
    "decode_frame",
]
