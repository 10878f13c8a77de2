"""Shared-memory transport for :class:`PolicyArtifact` flat arrays.

Shipping a published tree to N worker processes by pickling would copy
the arrays N times and leave N private heaps holding identical bytes.
The flat-tree layout (PR 1) makes a better contract possible: every
servable tree is already a handful of contiguous numpy arrays, so the
parent packs them **once** into a ``multiprocessing.shared_memory``
segment and workers map numpy views directly onto that segment —
zero-copy reconstruct, one physical copy of every model no matter how
many shards serve it.

Integrity is verified twice on the worker side before anything can
serve: the artifact's ``content_hash`` (the decision-identity hash over
the split/value arrays) must match what the parent published, and a
``transport_hash`` computed over **all** shipped arrays — including the
``n_samples``/``impurity`` statistics the content hash does not cover —
must match the mapped bytes.  A torn or corrupted segment can never
answer traffic.

Lifecycle: the parent owns the segment (it unlinks at service close);
workers only attach and close, and never unlink or unregister — the
resource tracker is shared across the process tree, so the parent's
single ``unlink()`` is the one true cleanup.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.core.tree.flat import FlatTree
from repro.serve.artifact import PolicyArtifact, _hash_arrays

#: FlatTree fields shipped through the segment, in layout order.
FLAT_FIELDS = (
    "feature", "threshold", "children_left", "children_right",
    "value", "n_samples", "impurity",
)

_ALIGN = 16  # keep every array slice aligned for numpy views


@dataclass(frozen=True)
class SharedArraySpec:
    """Placement of one flat array inside the segment."""

    field: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int

    @property
    def nbytes(self) -> int:
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape)))


@dataclass(frozen=True)
class ShmArtifactHandle:
    """Everything a worker needs to rebuild one published artifact.

    The handle itself travels over the control pipe (it is tiny); the
    arrays it points at live in the shared segment ``shm_name``.
    """

    shm_name: str
    name: str
    kind: str
    n_features: int
    n_outputs: int
    content_hash: str
    source: Optional[str]
    meta: Dict[str, Any]
    arrays: Tuple[SharedArraySpec, ...]
    total_bytes: int
    #: Hash over ALL shipped arrays (content_hash covers only the
    #: decision-relevant ones); verified against the mapped bytes.
    transport_hash: str = ""


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def share_artifact(
    artifact: PolicyArtifact,
) -> Tuple[ShmArtifactHandle, shared_memory.SharedMemory]:
    """Pack ``artifact``'s flat arrays into a new shared-memory segment.

    Only tree artifacts carry flat arrays; teacher/function artifacts
    have live Python state and must travel by pickle instead.  Returns
    the handle plus the parent's segment object — the caller owns the
    segment and must keep it referenced until every worker has loaded
    it, then ``close()`` + ``unlink()`` it at teardown.
    """
    flat = artifact.flat
    if flat is None:
        raise TypeError(
            f"artifact {artifact.name!r} (kind {artifact.kind!r}) has no "
            f"flat arrays to share; only tree artifacts use the "
            f"shared-memory path"
        )
    specs = []
    arrays = []
    offset = 0
    for field in FLAT_FIELDS:
        arr = np.ascontiguousarray(getattr(flat, field))
        offset = _aligned(offset)
        specs.append(SharedArraySpec(
            field=field, dtype=str(arr.dtype), shape=arr.shape,
            offset=offset,
        ))
        arrays.append(arr)
        offset += arr.nbytes
    total = max(offset, 1)
    shm = shared_memory.SharedMemory(create=True, size=total)
    for spec, arr in zip(specs, arrays):
        view = np.ndarray(
            spec.shape, dtype=spec.dtype, buffer=shm.buf,
            offset=spec.offset,
        )
        view[...] = arr
    handle = ShmArtifactHandle(
        shm_name=shm.name,
        name=artifact.name,
        kind=artifact.kind,
        n_features=artifact.n_features,
        n_outputs=artifact.n_outputs,
        content_hash=artifact.content_hash,
        source=artifact.source,
        meta=dict(artifact.meta),
        arrays=tuple(specs),
        total_bytes=total,
        transport_hash=_hash_arrays(arrays),
    )
    return handle, shm


def ensure_tracker_running() -> None:
    """Start the multiprocessing resource tracker in *this* process.

    The parent must call this before forking workers: a tracker forked
    into existence by a worker's first ``SharedMemory`` attach would be
    private to that worker and would unlink the parent's live segments
    when the worker exits.  Starting it up front makes every fork child
    share the parent's tracker, whose cache is a set — duplicate
    attach-registrations collapse and the parent's single ``unlink()``
    is the one cleanup.
    """
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()


def segment_footprint(segments: Dict[Tuple[str, int], Any]) -> dict:
    """Memory accounting for a ``(name, version) -> SharedMemory`` map.

    The parent owns one segment per live tree version (retire releases
    them), so this is the cluster's resident model-memory story in two
    numbers — surfaced through ``cluster_metrics()`` so capacity
    planning can see artifact memory next to throughput.  Replacement
    replicas re-attach these same segments during log replay (the
    handle's ``transport_hash`` re-verifies the mapped bytes), which
    is why the parent must keep them alive for as long as the version
    lives, not just until the initial broadcast.
    """
    return {
        "n_segments": len(segments),
        "total_bytes": int(sum(shm.size for shm in segments.values())),
    }


def load_shared_artifact(
    handle: ShmArtifactHandle,
) -> Tuple[PolicyArtifact, shared_memory.SharedMemory]:
    """Worker side: map the segment and rebuild the artifact zero-copy.

    The returned views are read-only (a worker bug cannot corrupt its
    siblings' model) and the content hash is re-verified over the
    mapped bytes before anything can serve.  The caller must keep the
    returned segment object alive as long as the artifact serves, and
    ``close()`` (never ``unlink()``) it afterwards.
    """
    shm = shared_memory.SharedMemory(name=handle.shm_name)
    views = {}
    for spec in handle.arrays:
        view = np.ndarray(
            spec.shape, dtype=spec.dtype, buffer=shm.buf,
            offset=spec.offset,
        )
        view.flags.writeable = False
        views[spec.field] = view
    if handle.transport_hash:
        mapped = _hash_arrays([views[spec.field]
                               for spec in handle.arrays])
        if mapped != handle.transport_hash:
            shm.close()
            raise RuntimeError(
                f"shared artifact {handle.name!r} failed transport-hash "
                f"verification: expected {handle.transport_hash}, "
                f"mapped bytes hash to {mapped}"
            )
    flat = FlatTree(**views)
    artifact = PolicyArtifact.from_flat(
        flat,
        name=handle.name,
        kind=handle.kind,
        n_features=handle.n_features,
        source=handle.source,
        meta=handle.meta,
    )
    if artifact.content_hash != handle.content_hash:
        shm.close()
        raise RuntimeError(
            f"shared artifact {handle.name!r} failed content-hash "
            f"verification: expected {handle.content_hash}, mapped "
            f"bytes hash to {artifact.content_hash}"
        )
    return artifact, shm
