"""Microbatching scheduler: coalesce single-state requests into batches.

The same trick that made DAgger rollout collection 6.4x faster (one
``act_greedy_batch`` per step across all live episodes, PR 2) applied at
the serving boundary: concurrent single-state requests are gathered into
one ``predict_batch`` call per model per flush, and each request's
future completes individually.

Where a request is gathered depends on the caller:

* **event-loop callers** — ``submit`` on a thread that is running an
  asyncio loop adds the request to that loop's pending batch.  The
  batch's first request schedules one ``loop.call_soon``, which runs at
  the end of the loop turn and, with no ``max_delay_s`` wait, either
  flushes the batch on the loop thread, ``max_batch`` requests at a
  time (the in-process tier), or hands the whole batch to the batcher
  thread in one queue put, which flushes it at once (a subclass whose
  flush blocks, see ``flush_on_loop``).  Either way the caller gets a
  :class:`_LoopFuture`: a ``concurrent.futures.Future`` that asyncio
  also accepts as its own, so ``asyncio.wrap_future`` returns it
  unchanged, a Task awaits it directly, and its done callbacks run on
  its loop.  A closed loop of coroutines flushed on its own loop is
  thus gathered, predicted and resumed with no cross-thread wake-up.
* **thread callers** — the request goes on a queue that one batcher
  thread drains under the flush policy below, and the caller gets a
  plain ``concurrent.futures.Future``.

Every returned future is running from ``submit`` on, so ``cancel()``
returns False: an accepted request is always answered, and no flush
ever meets a cancelled future.  asyncio treats a cancelled Task (or a
``wait_for`` timeout) on such a future as on any future that refuses
cancellation: the Task is cancelled when the answer arrives.

The batcher thread is also the loop batches' safety net: a loop batch
still pending ``ADOPT_AFTER_S`` after it opened (its loop is blocked in
a synchronous ``.result()``, stopped or closed) is flushed by the
batcher thread instead.  Every flush, on whichever thread, holds one
flush lock, so metrics, the adaptive delay, the splitter and capture see
one flush at a time.

A thread that resolves many loop futures at once (the batcher thread
flushing loop requests, a cluster shard's reply reader) does so inside
:func:`batched_wakeups`: each result is set at once, and each loop is
woken once for all of its futures' done callbacks.

Flush policy on the batcher thread (the two standard knobs):

* ``max_batch`` — flush as soon as this many requests are gathered;
* ``max_delay_s`` — flush when the *oldest* gathered request has waited
  this long, even if the batch is short.  The deadline is anchored at
  enqueue time, so under sustained load the worker never waits — the
  backlog that accumulated during the previous flush is already past its
  deadline and drains immediately.

Two optional request-path extensions (both off by default):

* an :class:`~repro.serve.adaptive.AdaptiveDelay` controller replaces
  the fixed ``max_delay_s`` with a load-aware deadline — near zero when
  the queue idles, growing toward the cap under sustained load;
* a :class:`~repro.serve.splitter.TrafficSplitter` rewrites references
  before resolution (canary fraction) and mirrors completed requests to
  a shadow version whose answers are recorded for fidelity comparison
  but never returned to a client future.

Robustness at the boundary (a flush must survive anything a request can
throw at it):

* mis-shaped / non-numeric / non-finite states are rejected per request
  with a structured :class:`ServeResult` error — they never reach numpy
  broadcasting where they could kill the worker and stall every queued
  future;
* a ``predict_batch`` that raises fails only the requests of that batch
  group, again structurally;
* ``close()`` flushes everything still queued or loop-batched before
  returning — no future is ever dropped.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import math
import queue
import threading
import time
from concurrent.futures import Future
from concurrent.futures._base import FINISHED, LOGGER, RUNNING
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.serve.adaptive import AdaptiveDelay
from repro.serve.registry import ModelRegistry
from repro.serve.splitter import TrafficSplitter, mirror_shadow

#: Error kinds a request can fail with (recorded in metrics).
ERR_UNKNOWN_MODEL = "unknown_model"
ERR_BAD_INPUT = "bad_input"
ERR_BAD_SHAPE = "bad_shape"
ERR_NON_FINITE = "non_finite"
ERR_PREDICT = "predict_error"
ERR_BAD_OUTPUT = "bad_output"


class ServeResult(NamedTuple):
    """Outcome of one serving request (futures resolve to this).

    A NamedTuple rather than a dataclass: one is built per served
    request on the batcher's hot path, and tuple construction is the
    cheapest structured record Python has.

    Attributes:
        ok: whether a decision was produced.
        action: the decision — an int for discrete policies, a float or
            array for regression policies; None on error.
        model: canonical model name that (would have) served the request.
        version: registry version that served it (0 when unresolved).
        error: error kind (one of the ``ERR_*`` constants) or None.
        detail: human-readable error detail.
        latency_s: enqueue-to-completion latency measured server-side.
    """

    ok: bool
    action: Any
    model: str
    version: int
    error: Optional[str] = None
    detail: str = ""
    latency_s: float = 0.0


class _LoopFuture(Future):
    """The future of a request submitted on a running event loop.

    A :class:`concurrent.futures.Future` that also speaks asyncio's
    Future-like protocol, so ``asyncio.wrap_future`` returns it unchanged
    and an awaiting Task waits on it directly: the flush's ``set_result``
    wakes the Task with one ``loop.call_soon`` instead of a second future
    chained through ``call_soon_threadsafe``.

    Done callbacks run on the future's loop, as asyncio's do: through
    ``call_soon`` when it resolves on the loop thread, and when another
    thread resolves it (the batcher thread, a cluster shard's reader)
    through one ``call_soon_threadsafe`` per loop that schedules them
    with ``call_soon`` (once per :func:`batched_wakeups` block).  They
    run inline in the resolving thread only once the loop is closed.
    The result itself is set on the resolving thread, so
    ``result(timeout)`` still blocks on the future's condition and wakes
    as soon as the answer is in.
    """

    #: asyncio's marker of a Future-like object; an awaiting Task sets
    #: it back to False when it starts waiting.
    _asyncio_future_blocking = False

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        super().__init__()
        self._loop = loop

    def get_loop(self) -> asyncio.AbstractEventLoop:
        return self._loop

    def __await__(self):
        if self._state != FINISHED:
            self._asyncio_future_blocking = True
            yield self  # the Task resumes from a done callback
        if self._state != FINISHED:
            raise RuntimeError("await wasn't used with future")
        return self.result()

    def result(self, timeout: Optional[float] = None) -> Any:
        # A finished future never changes again: read it without a lock.
        if self._state == FINISHED and self._exception is None:
            return self._result
        return super().result(timeout)

    def cancel(self, msg: Any = None) -> bool:
        """Refused once running, which every request is from submit;
        ``msg`` is asyncio's cancel message."""
        return super().cancel()

    def add_done_callback(self, fn, *, context=None) -> None:
        if context is None:
            context = contextvars.copy_context()
        with self._condition:
            if self._state != FINISHED:
                self._done_callbacks.append((fn, context))
                return
        self._dispatch([(fn, context)])

    def remove_done_callback(self, fn) -> int:
        with self._condition:
            if self._state == FINISHED:
                return 0  # already handed to the loop
            kept = [(f, ctx) for f, ctx in self._done_callbacks if f != fn]
            removed = len(self._done_callbacks) - len(kept)
            self._done_callbacks = kept
        return removed

    def _invoke_callbacks(self) -> None:
        # Called by set_result/set_exception once the state is final,
        # so no callback can be added to or removed from the list now.
        callbacks, self._done_callbacks = self._done_callbacks, []
        if callbacks:
            self._dispatch(callbacks)

    def _dispatch(self, callbacks) -> None:
        loop = self._loop
        if asyncio._get_running_loop() is loop:
            for fn, context in callbacks:
                loop.call_soon(fn, self, context=context)
            return
        calls = [(fn, self, context) for fn, context in callbacks]
        wakeups = getattr(_resolving, "wakeups", None)
        if wakeups is None:
            _wake(loop, calls)
        else:
            wakeups.setdefault(loop, []).extend(calls)


#: Per thread: the loops to wake, and their callbacks, while a
#: :func:`batched_wakeups` block is open on it.
_resolving = threading.local()


@contextlib.contextmanager
def batched_wakeups():
    """Wake each event loop once for the loop futures this thread
    resolves inside the block.

    For a thread that resolves many loop futures at once: a shard's
    reply reader, a shard's death sweep, the batcher thread flushing
    loop requests.  Each result is still set at once, so a loop blocked
    in ``.result()`` wakes as before; the futures' done callbacks are
    collected per loop and posted on exit with one
    ``call_soon_threadsafe`` per loop, which schedules them in order
    with ``call_soon``.  A nested block joins the outermost one.
    """
    if getattr(_resolving, "wakeups", None) is not None:
        yield
        return
    wakeups = _resolving.wakeups = {}
    try:
        yield
    finally:
        _resolving.wakeups = None
        for loop, calls in wakeups.items():
            _wake(loop, calls)


def _wake(loop: asyncio.AbstractEventLoop, calls) -> None:
    """Post ``(fn, future, context)`` done callbacks to ``loop`` with one
    ``call_soon_threadsafe``, or run them here if it is closed."""
    try:
        loop.call_soon_threadsafe(_schedule_in_order, loop, calls)
    except RuntimeError:  # the loop is closed: run them here
        for fn, future, context in calls:
            try:
                context.run(fn, future)
            except Exception:
                LOGGER.exception(
                    "exception calling callback for %r", future
                )


def _schedule_in_order(loop: asyncio.AbstractEventLoop, calls) -> None:
    # On the loop: one handle per callback, as call_soon from each
    # future's own resolution would have made.
    for fn, future, context in calls:
        loop.call_soon(fn, future, context=context)


def _get_within(q: "queue.SimpleQueue", timeout: float) -> Any:
    """``q.get(timeout=timeout)`` for the queue's only consumer, without
    CPython 3.11's ``SimpleQueue`` hang.

    ``SimpleQueue.get`` first tries its internal lock without waiting.
    When that try succeeds on an empty queue (a put released the lock
    and its item was taken without waiting), it recomputes the timeout,
    and if the deadline has already passed the result is negative,
    which the lock wait reads as "wait forever": the get blocks until
    the next put, however short its timeout.  A closed loop whose
    requests are all in the gathering batch never puts again, so that
    batch would never flush.  A failed ``get_nowait()`` leaves the lock
    taken, so the timed get goes straight to a wait with the positive
    timeout.
    """
    try:
        return q.get_nowait()
    except queue.Empty:
        return q.get(timeout=timeout)


class _Request:
    __slots__ = ("model", "state", "future", "enqueued", "row", "trace")

    def __init__(self, model: str, state: Any, future: Future) -> None:
        self.model = model
        self.state = state
        # Running from submit on, so cancel() refuses: every flush can
        # answer every request it meets.  This is what
        # set_running_or_notify_cancel() does, minus its lock: a future
        # no other thread has seen yet needs none, and the lock cost a
        # few percent of a microbatched thread request.
        future._state = RUNNING
        self.future = future
        self.enqueued = time.perf_counter()
        #: Validated float row, captured at flush time so shadow
        #: mirroring does not re-validate.
        self.row: Optional[np.ndarray] = None
        #: Sampled :class:`repro.obs.trace.TraceRecord`, or None for
        #: the (vast majority of) unsampled requests.
        self.trace: Optional[Any] = None


_STOP = object()

#: The batcher thread's idle poll, and the age at which it adopts a loop
#: batch whose own loop has not flushed it.
ADOPT_AFTER_S = 0.05


class MicroBatcher:
    """Gathers single-state requests into batched predicts.

    Requests submitted on a running asyncio loop are batched per loop,
    and the batch leaves at the end of the loop's turn; every other
    request goes through the queue one batcher thread drains (see the
    module docstring).

    Args:
        registry: model registry requests are resolved against (once per
            model per flush — the hot-swap granularity).
        metrics: optional sink with ``record(model, version, latency_s,
            error=None)`` and ``record_group(model, version, latencies)``
            methods (see :class:`repro.serve.server.ServerMetrics`).
        max_batch: flush threshold (requests per flush).
        max_delay_s: max time the oldest request may wait for co-batching
            (0 disables coalescing waits — flush whatever is queued).
        delay: optional :class:`AdaptiveDelay` controller; when present
            it supplies the per-gather deadline (its cap plays the role
            of ``max_delay_s``) and is fed every flush's fill level.
        splitter: optional :class:`TrafficSplitter` consulted once per
            flush for canary routing and shadow mirroring.
        tracer: optional :class:`repro.obs.trace.Tracer`; sampled
            requests get a trace minted at ``submit`` and finished at
            completion.  Unsampled requests pay one float compare.
        hub: optional :class:`repro.obs.metrics.MetricsHub`; when
            present the batcher records flush counts and flush-size
            distribution into it.
    """

    #: What the end-of-turn callback does with a loop's batch: flush it
    #: on the loop (True), or hand it whole to the batcher thread in one
    #: queue put, to be flushed there at once (False).  A subclass whose
    #: flush blocks (the cluster dispatcher writes to shard pipes)
    #: turns it off, so no flush stalls a client loop.  Loop callers get
    #: a :class:`_LoopFuture` either way.
    flush_on_loop = True

    def __init__(
        self,
        registry: ModelRegistry,
        metrics: Any = None,
        max_batch: int = 64,
        max_delay_s: float = 2e-3,
        delay: Optional[AdaptiveDelay] = None,
        splitter: Optional[TrafficSplitter] = None,
        tracer: Optional[Any] = None,
        hub: Optional[Any] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_delay_s < 0:
            raise ValueError("max_delay_s must be non-negative")
        self.registry = registry
        self.metrics = metrics
        self.max_batch = max_batch
        self.max_delay_s = max_delay_s
        self.delay = delay
        self.splitter = splitter
        self.tracer = tracer
        self.hub = hub
        #: Optional :class:`repro.serve.online.TraceCapture`: when set
        #: (by ``PolicyServer.start_online``), every flushed group is
        #: offered for sampling.  ``None`` keeps the hot path untouched.
        self.capture = None
        if hub is not None:
            from repro.obs.metrics import DEFAULT_SIZE_BUCKETS
            self._m_flushes = hub.counter(
                "repro_batcher_flushes_total",
                "Batches flushed by the microbatcher",
            ).labels()
            self._m_flush_size = hub.histogram(
                "repro_batcher_flush_size",
                "Requests gathered per flush",
                buckets=DEFAULT_SIZE_BUCKETS,
            ).labels()
        else:
            self._m_flushes = None
            self._m_flush_size = None
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._closed = False
        # Guards the closed-flag/enqueue pair: submit must win or lose
        # against close() atomically, so an accepted request is always
        # enqueued before the stop sentinel (zero dropped futures).  It
        # also guards the loop batches and their request counts.
        self._submit_lock = threading.Lock()
        self._loop_batches: Dict[Any, List[_Request]] = {}
        #: Requests in loop batches, pending or handed to the batcher
        #: thread and not yet taken off its queue.
        self._loop_pending = 0
        #: Handed-over loop batches on the queue (each one queue item).
        self._handed_over = 0
        # Held by every flush, on whichever thread runs it.  A loop
        # batch is only ever popped under it and flushed before it is
        # released, so close() can wait out a loop flush in progress.
        self._flush_lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None

    # -- client side -----------------------------------------------------
    def start(self) -> "MicroBatcher":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-batcher", daemon=True
        )
        self._thread.start()
        return self

    def submit(self, model: str, state: Any) -> "Future[ServeResult]":
        """Accept one request; the returned future resolves to a
        :class:`ServeResult` (never an exception — errors are data) and
        refuses ``cancel()``.

        On a thread running an asyncio loop the request joins that
        loop's batch, which leaves at the end of the loop's turn (see
        ``flush_on_loop``), and the future is also an asyncio
        Future-like bound to that loop: ``await`` it there directly
        (``asyncio.wrap_future`` returns it unchanged); its done
        callbacks run on the loop.  A blocking ``.result()`` there waits
        for the batcher thread to adopt the batch (up to
        ``ADOPT_AFTER_S``).  From any other thread the request goes on
        the batcher thread's queue and the future is a plain
        ``concurrent.futures.Future``.
        """
        # Returns None rather than raising when no loop is running.
        loop = asyncio._get_running_loop()
        request = _Request(
            model, state, Future() if loop is None else _LoopFuture(loop)
        )
        if self.tracer is not None and self.tracer.enabled:
            request.trace = self.tracer.maybe_start(
                model, now=request.enqueued
            )
        opened = False
        with self._submit_lock:
            if self._closed:
                raise RuntimeError(
                    "MicroBatcher is closed: submit() after close() "
                    "would enqueue a future that can never resolve"
                )
            if loop is None:
                self._queue.put(request)
            else:
                batch = self._loop_batches.get(loop)
                if batch is None:
                    batch = self._loop_batches[loop] = []
                    opened = True
                batch.append(request)
                self._loop_pending += 1
        if opened:
            loop.call_soon(self._flush_loop_batch, loop)
        return request.future

    def submit_async(self, model: str, state: Any) -> "asyncio.Future":
        """Asyncio submission path: no thread per client.

        Must be called with an event loop running; ``await`` the return
        value on that loop for the result.  It is the very future
        :meth:`submit` returns there.  Raises the same ``RuntimeError``
        as :meth:`submit` once closed.
        """
        return asyncio.wrap_future(self.submit(model, state))

    @property
    def closed(self) -> bool:
        return self._closed

    def queue_depth(self) -> int:
        """Requests accepted but not yet gathered into a flush: the
        batcher thread's queue plus every loop batch, pending or handed
        over (counted by its requests until the batcher thread takes
        it).

        An approximate, lock-free reading — good enough for the load
        signals it feeds (adaptive-delay observation, cluster
        autoscaling), not a synchronization primitive.
        """
        return (self._queue.qsize() - self._handed_over
                + self._loop_pending)

    def close(self) -> None:
        """Stop the worker; every already-submitted request completes,
        loop batches included (a loop flush in progress is waited
        out)."""
        with self._submit_lock:
            if self._closed:
                return
            self._closed = True
            self._queue.put(_STOP)
        if self._thread is None:
            self._drain_remaining()
            return
        self._thread.join()
        self._thread = None

    def __enter__(self) -> "MicroBatcher":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- worker side -----------------------------------------------------
    def _run(self) -> None:
        while True:
            batch, saw_stop = self._gather()
            if batch:
                with batched_wakeups(), self._flush_lock:
                    self._flush_chunks(batch)
            if saw_stop:
                self._drain_remaining()
                return
            if self._loop_batches and self._until_adoption() == 0.0:
                with batched_wakeups(), self._flush_lock:
                    self._flush_chunks(self._take_loop_batches(
                        time.perf_counter() - ADOPT_AFTER_S
                    ))

    def _gather(self) -> Tuple[List[_Request], bool]:
        """Collect one batch: first item blocks, the rest race the
        oldest item's deadline.  A handed-over loop batch ends the
        gather: it is flushed at once, with whatever came before it."""
        try:
            first = _get_within(self._queue, self._until_adoption())
        except queue.Empty:
            return [], False
        if first is _STOP:
            return [], True
        if type(first) is list:
            return self._take_handed(first), False
        batch = [first]
        delay_s = (
            self.delay.current() if self.delay is not None
            else self.max_delay_s
        )
        deadline = first.enqueued + delay_s
        while len(batch) < self.max_batch:
            remaining = deadline - time.perf_counter()
            try:
                if remaining > 0:
                    item = _get_within(self._queue, remaining)
                else:
                    item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _STOP:
                return batch, True
            if type(item) is list:
                batch.extend(self._take_handed(item))
                break
            batch.append(item)
        return batch, False

    def _take_handed(self, batch: List[_Request]) -> List[_Request]:
        """Account for a handed-over loop batch just taken off the
        queue."""
        with self._submit_lock:
            self._handed_over -= 1
            self._loop_pending -= len(batch)
        return batch

    def _until_adoption(self) -> float:
        """Seconds until the oldest pending loop batch is due for
        adoption by the batcher thread, capped at the idle poll."""
        if not self._loop_batches:
            return ADOPT_AFTER_S
        with self._submit_lock:
            oldest = min(
                (batch[0].enqueued for batch in self._loop_batches.values()),
                default=math.inf,
            )
        due = oldest + ADOPT_AFTER_S - time.perf_counter()
        return min(max(due, 0.0), ADOPT_AFTER_S)

    def _take_loop_batches(self, opened_by: float) -> List[_Request]:
        """Pop every loop batch whose first request arrived by
        ``opened_by``.  The caller holds the flush lock and flushes
        what this returns before releasing it."""
        with self._submit_lock:
            due = [loop for loop, batch in self._loop_batches.items()
                   if batch[0].enqueued <= opened_by]
            taken = [request for loop in due
                     for request in self._loop_batches.pop(loop)]
            self._loop_pending -= len(taken)
        return taken

    def _flush_loop_batch(self, loop: Any) -> None:
        """The ``call_soon`` callback a loop batch schedules when it
        opens, run at the end of the loop's turn: flush the batch on
        the loop's thread, or with ``flush_on_loop`` off hand it to the
        batcher thread in one queue put, unless the batcher thread
        adopted it first."""
        if not self.flush_on_loop:
            # Popped and queued in one lock hold, so _drain_remaining
            # meets the batch either pending or on the queue.
            with self._submit_lock:
                batch = self._loop_batches.pop(loop, None)
                if batch is not None:
                    self._handed_over += 1
                    self._queue.put(batch)
            return
        with self._flush_lock:
            with self._submit_lock:
                batch = self._loop_batches.pop(loop, None)
                if batch is None:
                    return
                self._loop_pending -= len(batch)
            self._flush_chunks(batch)

    def _drain_remaining(self) -> None:
        # Taking the flush lock also waits out a loop flush in progress.
        # Loop batches are taken before the queue is drained: a batch
        # handed over meanwhile is then already on the queue.
        with batched_wakeups(), self._flush_lock:
            leftover = self._take_loop_batches(math.inf)
            while True:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if type(item) is list:
                    leftover.extend(self._take_handed(item))
                elif item is not _STOP:
                    leftover.append(item)
            self._flush_chunks(leftover)

    def _flush_chunks(self, requests: List[_Request]) -> None:
        """Flush ``requests`` ``max_batch`` at a time; the caller holds
        the flush lock.  Each flush's fill (its size plus every request
        still waiting behind it) feeds the adaptive delay."""
        for start in range(0, len(requests), self.max_batch):
            batch = requests[start:start + self.max_batch]
            if self.delay is not None:
                behind = len(requests) - start - len(batch)
                self.delay.observe(len(batch), behind + self.queue_depth(),
                                   self.max_batch)
            self._flush(batch)

    def _flush(self, batch: List[_Request]) -> None:
        self._note_flush(batch)
        by_ref: Dict[str, List[_Request]] = {}
        for request in batch:
            by_ref.setdefault(request.model, []).append(request)
        # Traffic splitting rewrites references *before* resolution: a
        # canaried request simply becomes a request for the canary ref,
        # so attribution, grouping, and hot-swap semantics all hold
        # unchanged downstream.  Shadow mirroring happens after the
        # primary futures resolve (it compares served decisions).
        shadow_jobs: List[Tuple[str, str, List[_Request]]] = []
        splitter = self.splitter
        if splitter is not None and splitter.active:
            routed: Dict[str, List[_Request]] = {}
            for ref, requests in by_ref.items():
                plan = splitter.assign(ref, len(requests))
                if plan is None:
                    routed.setdefault(ref, []).extend(requests)
                    continue
                split = plan.split
                if split.canary is not None:
                    primaries = []
                    for request, to_canary in zip(requests,
                                                  plan.canary_mask):
                        target = split.canary if to_canary else ref
                        routed.setdefault(target, []).append(request)
                        if not to_canary:
                            primaries.append(request)
                else:
                    routed.setdefault(ref, []).extend(requests)
                    primaries = requests
                if split.shadow is not None and primaries:
                    # Only primary-served traffic is mirrored: canaried
                    # rows served by the candidate itself would
                    # trivially agree and inflate the fidelity rate.
                    shadow_jobs.append((ref, split.shadow, primaries))
            by_ref = routed
        # All references resolve in one registry critical section, then
        # requests regroup by the *resolved* (name, version): an alias
        # and its canonical name co-batch into one predict, and a
        # concurrent publish can never split one flush across versions.
        to_resolve = set(by_ref)
        to_resolve.update(shadow_ref for _, shadow_ref, _ in shadow_jobs)
        resolutions = self.registry.resolve_many(to_resolve)
        groups: Dict[Tuple[str, int], Tuple[Any, List[_Request]]] = {}
        for ref, requests in by_ref.items():
            resolved = resolutions[ref]
            if resolved is None:
                for request in requests:
                    self._complete_error(
                        request, ref, 0, ERR_UNKNOWN_MODEL,
                        f"unknown model {ref!r}",
                    )
                continue
            key = (resolved.name, resolved.version)
            if key in groups:
                groups[key][1].extend(requests)
            else:
                groups[key] = (resolved, list(requests))
        for resolved, requests in groups.values():
            self._flush_group(resolved, requests)
        for ref, shadow_ref, requests in shadow_jobs:
            self._mirror_shadow(
                ref, shadow_ref, resolutions.get(shadow_ref), requests
            )

    def _mirror_shadow(
        self,
        ref: str,
        shadow_ref: str,
        resolved,
        requests: List[_Request],
    ) -> None:
        """Replay one flush's served requests against the shadow version.

        Outcomes land only in the splitter's shadow report — a shadow
        answer is *never* written to a client future, and a shadow
        failure costs the primary traffic nothing.
        """
        rows: List[np.ndarray] = []
        served: List[Any] = []
        for request in requests:
            future = request.future
            # Futures in this flush resolved synchronously above; guard
            # anyway so a surprise never leaks into client state.
            if request.row is None or not future.done():
                continue
            result = future.result()
            if result.ok:
                rows.append(request.row)
                served.append(result.action)
        if not rows:
            return
        try:
            stacked = np.stack(rows)
        except ValueError:
            # Mixed row lengths cannot reach here (one flush serves one
            # primary version), but the worker thread's liveness must
            # never hinge on that invariant.
            self.splitter.record_shadow_error(ref, shadow_ref, len(rows))
            return
        mirror_shadow(
            self.splitter, resolved, ref, shadow_ref, stacked, served
        )

    def _flush_group(self, resolved, requests: List[_Request]) -> None:
        artifact = resolved.artifact
        shaped: List[_Request] = []
        rows: List[np.ndarray] = []
        for request in requests:
            row, error, detail = _validate_state(request.state, artifact)
            if error is not None:
                self._complete_error(
                    request, resolved.name, resolved.version, error, detail
                )
            else:
                request.row = row
                shaped.append(request)
                rows.append(row)
        if not shaped:
            return
        x = np.stack(rows)
        # One vectorized finiteness sweep for the whole batch: a poisoned
        # row is rejected individually, its batchmates proceed.
        finite = np.isfinite(x).all(axis=1)
        if finite.all():
            valid = shaped
        else:
            valid = []
            for keep, request in zip(finite, shaped):
                if keep:
                    valid.append(request)
                else:
                    self._complete_error(
                        request, resolved.name, resolved.version,
                        ERR_NON_FINITE,
                        "state contains NaN or infinite entries",
                    )
            if not valid:
                return
            x = x[finite]
        t_kernel = time.perf_counter()
        try:
            out = np.asarray(artifact.predict_batch(x))
        except Exception as exc:  # noqa: BLE001 - boundary must survive
            for request in valid:
                self._complete_error(
                    request, resolved.name, resolved.version,
                    ERR_PREDICT, f"{type(exc).__name__}: {exc}",
                )
            return
        kernel_s = time.perf_counter() - t_kernel
        if out.shape[:1] != (len(valid),):
            for request in valid:
                self._complete_error(
                    request, resolved.name, resolved.version, ERR_BAD_OUTPUT,
                    f"predict_batch returned shape {out.shape} for "
                    f"{len(valid)} requests",
                )
            return
        now = time.perf_counter()
        latencies = [now - request.enqueued for request in valid]
        if self.metrics is not None:
            self.metrics.record_group(
                resolved.name, resolved.version, latencies
            )
        if out.ndim == 1:
            actions = out.tolist()  # native ints/floats in one pass
        else:
            actions = [np.array(row) for row in out]
        name, version = resolved.name, resolved.version
        capture = self.capture
        if capture is not None and capture.sample_rate > 0.0:
            capture.submit_group(name, version, x, actions)
        for request, action, latency in zip(valid, actions, latencies):
            # In-process tier: service is the kernel bracket itself, so
            # the decomposition is queue_wait / batch_assembly / kernel.
            self._finish_trace(
                request, service_s=kernel_s, kernel_s=kernel_s,
                batch_size=len(valid), now=now,
            )
            request.future.set_result(ServeResult(
                ok=True, action=action, model=name, version=version,
                latency_s=latency,
            ))

    def _note_flush(self, batch: List[_Request]) -> None:
        """Per-flush bookkeeping shared by every tier: hub flush
        instruments and the queue-wait boundary stamp on sampled
        traces (queue wait ends when the flush picks the request up)."""
        if self._m_flushes is not None:
            self._m_flushes.inc()
            self._m_flush_size.observe(len(batch))
        now = time.perf_counter()
        for request in batch:
            if request.trace is not None:
                request.trace.mark_flush(now)

    # -- completion ------------------------------------------------------

    def _finish_trace(
        self,
        request: _Request,
        *,
        service_s: float = 0.0,
        kernel_s: float = 0.0,
        shard: Optional[int] = None,
        batch_size: int = 0,
        ok: bool = True,
        now: Optional[float] = None,
    ) -> None:
        trace = request.trace
        if trace is None or self.tracer is None:
            return
        trace.finish(
            service_s=service_s, kernel_s=kernel_s, shard=shard,
            batch_size=batch_size, ok=ok, now=now,
        )
        self.tracer.record(trace)

    def _complete_error(
        self,
        request: _Request,
        model: str,
        version: int,
        error: str,
        detail: str,
    ) -> None:
        now = time.perf_counter()
        latency = now - request.enqueued
        if self.metrics is not None:
            self.metrics.record(model, version, latency, error=error)
        self._finish_trace(request, ok=False, now=now)
        request.future.set_result(ServeResult(
            ok=False, action=None, model=model, version=version,
            error=error, detail=detail, latency_s=latency,
        ))


def coerce_state_row(
    state: Any,
) -> Tuple[Optional[np.ndarray], Optional[str], str]:
    """Coerce one request state into a flat float row.

    The artifact-independent half of serve-boundary validation, shared
    by the in-process batcher and the cluster front end (which cannot
    know the feature count — its workers do).  Returns ``(row, None,
    "")`` or ``(None, error_kind, detail)``.
    """
    try:
        row = np.asarray(state, dtype=float)
    except (TypeError, ValueError) as exc:
        return None, ERR_BAD_INPUT, f"state is not numeric: {exc}"
    if row.ndim == 2 and row.shape[0] == 1:
        row = row[0]
    if row.ndim != 1:
        return None, ERR_BAD_SHAPE, (
            f"expected a flat state vector, got shape {np.shape(state)}"
        )
    return row, None, ""


def _validate_state(
    state: Any, artifact
) -> Tuple[Optional[np.ndarray], Optional[str], str]:
    """Check one request state's type and shape against the artifact.

    Returns ``(row, None, "")`` on success or ``(None, error_kind,
    detail)`` — the mis-shaped rejection the batcher needs to keep a
    poisoned request from corrupting its whole batch.  Finiteness is
    checked afterwards in one vectorized sweep over the stacked batch.
    """
    row, error, detail = coerce_state_row(state)
    if error is not None:
        if error == ERR_BAD_SHAPE:
            detail = (
                f"expected a flat state of {artifact.n_features} "
                f"features, got shape {np.shape(state)}"
            )
        return None, error, detail
    if row.shape[0] != artifact.n_features:
        return None, ERR_BAD_SHAPE, (
            f"expected a flat state of {artifact.n_features} features, "
            f"got shape {np.shape(state)}"
        )
    return row, None, ""
