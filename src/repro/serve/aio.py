"""Asyncio front end for the serving stack.

The threaded client story (one blocking ``future.result()`` per
request) needs a thread per concurrent client — exactly the
thread-per-connection pattern the microbatcher was built to absorb, and
at hundreds of clients the GIL spends more time context-switching than
serving.  :class:`AsyncPolicyClient` drives the same batcher from a
single event loop.  Its submissions are batched on the client's own
loop, and their futures are ones the loop's Tasks await directly
(``asyncio.wrap_future`` returns them unchanged).  A
:class:`~repro.serve.server.PolicyServer` flushes the batch on the loop
at the end of the loop turn, so coroutines are predicted and resumed
with no cross-thread wake-up.  The cluster tier hands the batch to its
dispatcher thread instead (its flush writes to shard pipes and
sockets), and each reply frame wakes the loop once.

Works over anything with the server surface — a
:class:`~repro.serve.server.PolicyServer` or a
:class:`~repro.serve.cluster.ShardedPolicyService` — and automatically
uses the cluster's bulk ``submit_batch`` path for ``predict_many`` when
the backend offers one.

:class:`AsyncWorkerClient` (PR 6) is the other side of the socket
transport: a socket-mode shard worker runs an asyncio TCP server
speaking the :mod:`repro.serve.cluster.wire` protocol, and this client
connects to it *directly* — the same frames the parent sends, without
going through the parent at all.  ``ShardedPolicyService
.worker_endpoints()`` lists where to connect.
"""

from __future__ import annotations

import asyncio
from typing import Any, List, Sequence, Tuple

import numpy as np

from repro.serve.batcher import ServeResult
from repro.serve.server import ServeError


class AsyncPolicyClient:
    """Awaitable decision client over a running policy server.

    Args:
        server: any backend exposing ``submit(model, state)`` returning
            a ``concurrent.futures.Future`` (PolicyServer,
            ShardedPolicyService, or a bare MicroBatcher).  Called on
            the client's loop, each of these returns one that is also
            awaitable on that loop, which ``asyncio.wrap_future``
            passes through unchanged.

    Usage::

        client = AsyncPolicyClient(server)
        result = await client.predict("abr", state)      # ServeResult
        results = await client.predict_many("abr", states)
        action = await client.act("abr", state)          # or ServeError
    """

    def __init__(self, server: Any) -> None:
        if not callable(getattr(server, "submit", None)):
            raise TypeError("server must expose submit(model, state)")
        self._server = server
        self._submit_batch = getattr(server, "submit_batch", None)

    async def predict(self, model: str, state: Any) -> ServeResult:
        """One microbatched decision; errors arrive as data
        (``ServeResult.ok`` is False), never as exceptions."""
        return await asyncio.wrap_future(self._server.submit(model, state))

    async def predict_many(
        self, model: str, states: Sequence[Any]
    ) -> List[ServeResult]:
        """A stack of decisions, in request order.

        On a cluster backend this is one bulk submission (rows shipped
        to shards as arrays); elsewhere it fans out per-row submissions
        that the batcher coalesces.
        """
        if self._submit_batch is not None:
            return await asyncio.wrap_future(
                self._submit_batch(model, states)
            )
        rows = np.atleast_2d(np.asarray(states, dtype=float))
        return list(await asyncio.gather(*[
            asyncio.wrap_future(self._server.submit(model, row))
            for row in rows
        ]))

    async def act(self, model: str, state: Any) -> Any:
        """The action alone; raises :class:`ServeError` on failure."""
        result = await self.predict(model, state)
        if not result.ok:
            raise ServeError(
                f"{model}: {result.error} ({result.detail})"
            )
        return result.action


class AsyncWorkerClient:
    """Direct wire-protocol connection to one socket-mode shard worker.

    The worker's asyncio server multiplexes any number of connections
    (dispatch stays serialized on its loop), so an out-of-band client
    can probe or read a worker the parent is actively driving.  Only
    *read-side* ops make sense from here — ``ping``, ``describe``,
    ``metrics``, ``predict`` — because control mutations must go
    through the parent's lockstep broadcast or the replicas diverge.

    Requests run strictly sequentially per client (an asyncio lock
    serializes them): the wire protocol correlates replies by
    ``msg_id``, but one connection is FIFO anyway, and a worker serves
    one request at a time.

    Usage::

        host, port = service.worker_endpoints()[0]
        client = await AsyncWorkerClient.connect(host, port)
        try:
            state = await client.describe()
        finally:
            await client.close()
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._lock = asyncio.Lock()
        self._msg_id = 0

    @classmethod
    async def connect(cls, host: str, port: int) -> "AsyncWorkerClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def request(self, op: str, payload: Any = None) -> Any:
        """One wire round-trip; raises :class:`ServeError` when the
        worker replies with an error frame."""
        from repro.serve.cluster.wire import (
            HEADER_SIZE, Request, decode_frame, encode_request,
            frame_size,
        )

        async with self._lock:
            self._msg_id += 1
            msg_id = self._msg_id
            self._writer.write(
                encode_request(Request(msg_id, op, payload))
            )
            await self._writer.drain()
            header = await self._reader.readexactly(HEADER_SIZE)
            body = await self._reader.readexactly(
                frame_size(header) - HEADER_SIZE
            )
        reply = decode_frame(header + body)
        if reply.msg_id != msg_id:
            raise ServeError(
                f"worker answered msg {reply.msg_id}, expected {msg_id}"
            )
        if not reply.ok:
            raise ServeError(f"worker rejected {op!r}: {reply.payload}")
        return reply.payload

    async def ping(self) -> Tuple[str, int]:
        """Liveness probe: ``("pong", shard_id)``."""
        return await self.request("ping")

    async def describe(self) -> dict:
        """The worker's control-state fingerprint (same payload the
        parent's ``replica_states()`` collects)."""
        return await self.request("describe")

    async def metrics(self) -> dict:
        """The worker's per-model service metrics snapshot."""
        return await self.request("metrics")

    async def predict(self, ref: str, x: Any) -> dict:
        """Serve a batch on the worker, bypassing the parent's
        batcher/router (``x`` is a 2-D float array)."""
        rows = np.atleast_2d(np.asarray(x, dtype=float))
        return await self.request("predict", (ref, rows))

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


__all__ = ["AsyncPolicyClient", "AsyncWorkerClient"]
