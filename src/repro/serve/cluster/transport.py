"""The frame channel between the parent and its shard workers.

The protocol lives in :mod:`repro.serve.cluster.wire`; this module owns
*how the frames move*.  A worker's only channel is a duplex
``multiprocessing`` pipe to its parent:

* :class:`PipeTransport` — the parent-side end: ``send_frame`` /
  ``recv_frame`` / ``close`` plus sent/received byte counters (what
  ``cluster_metrics()["transport"]`` and the benchmark read);
* :func:`serve_pipe` — the worker-side loop.  A handler receives one
  request frame and returns ``(reply_frame, after_send, stop)``; the
  loop sends the reply, runs ``after_send`` (deferred shadow
  mirroring — it must never tax the primary reply), and exits on
  ``stop``;
* :func:`spawn_pipe_worker` — starts one worker process on a fresh
  pipe and returns ``(process, transport)``.

Error semantics are part of the contract: ``recv_frame`` raises
``EOFError`` on clean close and ``OSError`` on a broken channel —
exactly what the service's reader loop and death sweep already treat
as shard death — and ``send_frame`` raises ``OSError`` when the peer
is gone.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

#: Handler contract of the worker loop: request frame in,
#: ``(reply_frame, after_send_or_None, stop)`` out.
FrameHandler = Callable[[bytes], Tuple[bytes, Optional[Callable], bool]]


class PipeTransport:
    """Parent-side end of one worker's duplex ``multiprocessing`` pipe.

    Pipes preserve message boundaries, so one ``send_bytes`` is one
    frame; the header's length field lets the decoder check that a
    frame is complete.
    """

    def __init__(self, conn: Any) -> None:
        self._conn = conn
        self.bytes_sent = 0
        self.bytes_received = 0

    def send_frame(self, frame: bytes) -> None:
        self._conn.send_bytes(frame)
        self.bytes_sent += len(frame)

    def recv_frame(self) -> bytes:
        frame = self._conn.recv_bytes()
        self.bytes_received += len(frame)
        return frame

    def close(self) -> None:
        self._conn.close()


def serve_pipe(conn: Any, handler: FrameHandler) -> None:
    """Worker-side request/reply loop over the worker's pipe end (FIFO:
    everything queued before a stop is answered, then it returns)."""
    try:
        while True:
            try:
                frame = conn.recv_bytes()
            except (EOFError, OSError):
                break
            # A frame the handler cannot even decode is protocol
            # corruption — dying (like a torn pipe always did) is
            # safer than guessing; the parent sweeps the shard.
            reply, after_send, stop = handler(frame)
            conn.send_bytes(reply)
            if after_send is not None:
                after_send()
            if stop:
                break
    finally:
        try:
            conn.close()
        except Exception:  # noqa: BLE001 - teardown best effort
            pass


def spawn_pipe_worker(ctx: Any, shard_id: int,
                      seed: Optional[int]) -> Tuple[Any, PipeTransport]:
    """Start one shard worker on a fresh duplex pipe; the child end is
    handed to the worker and closed here.  Returns ``(process,
    transport)`` with the worker already serving."""
    from repro.serve.cluster.worker import worker_main

    parent_conn, child_conn = ctx.Pipe(duplex=True)
    process = ctx.Process(
        target=worker_main,
        args=(child_conn, shard_id, seed),
        name=f"repro-serve-shard-{shard_id}",
        daemon=True,
    )
    process.start()
    child_conn.close()
    return process, PipeTransport(parent_conn)
