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
dispatcher thread instead (its flush writes to shard pipes), and each
reply frame wakes the loop once.

Works over anything with the server surface — a
:class:`~repro.serve.server.PolicyServer` or a
:class:`~repro.serve.cluster.ShardedPolicyService` — and automatically
uses the cluster's bulk ``submit_batch`` path for ``predict_many`` when
the backend offers one.
"""

from __future__ import annotations

import asyncio
from typing import Any, List, Sequence

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


__all__ = ["AsyncPolicyClient"]
