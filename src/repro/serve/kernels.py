"""The serving tier's compile thread: a published tree serves at once,
and its native kernel attaches when it is ready.

Compiling a tree's kernel (:mod:`repro.core.tree.native`) costs about
a tenth of a second of ``cc``; the kernel then answers a 64-row flush
about five times faster than the numpy walk.  So a publish must not
wait for the compile, and the kernel must still arrive.
:class:`KernelCompiler` is the one place a serving tier compiles:

* at publish it attaches what needs no compile — a kernel already in
  the cache — and under the default ``auto`` backend queues a cache
  miss, marking ``meta["kernel"]`` as ``compiling``; the version serves
  through numpy from its first request.  Forced ``native`` mode
  compiles inline instead (its contract is every predict through the
  kernel), and ``numpy`` mode records ``disabled``;
* one thread compiles the queued kernels in publish order, attaches
  each to its artifact's ``FlatTree``, records ``ready`` (or
  ``unavailable``) in ``meta["kernel"]``, journals ``kernel_ready`` /
  ``kernel_unavailable`` with ``compile_s`` and ``publish_to_ready_s``,
  and hands the version to the tier's ``on_settled`` callback (the
  cluster tells its shards to load the kernel there);
* a version retired or rolled back before its compile starts is
  skipped, and :meth:`KernelCompiler.close` kills a compile in flight.

:meth:`KernelCompiler.wait` is for callers that time steady-state
serving: it returns once every queued kernel has settled.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Optional

from repro.core.tree import native
from repro.serve.artifact import PolicyArtifact

#: Name of the compile thread (one per serving tier, started on the
#: first queued compile).
THREAD_NAME = "repro-serve-kernel-compiler"


class KernelCompiler:
    """Compiles published trees' kernels on one background thread.

    Args:
        registry: the tier's registry; a job whose version no longer
            serves its artifact there is skipped.
        journal: the tier's :class:`~repro.obs.events.EventJournal`.
        on_settled: called on the compile thread as ``on_settled(name,
            version, artifact)`` once a version's kernel is ready or
            known unavailable.
    """

    def __init__(self, registry: Any, journal: Any,
                 on_settled: Callable[[str, int, PolicyArtifact],
                                      None]) -> None:
        self._registry = registry
        self._journal = journal
        self._on_settled = on_settled
        self._cancel = threading.Event()
        self._cond = threading.Condition()
        #: (name, version, artifact, publish start); the head stays
        #: queued while it compiles, so :meth:`wait` covers it.
        self._jobs: deque = deque()
        self._thread: Optional[threading.Thread] = None

    def publish(self, name: str, artifact: PolicyArtifact,
                register: Callable[[], int]) -> int:
        """Publish ``artifact`` through ``register`` (which records the
        version and returns its number) with its kernel attached now or
        queued for the compile thread."""
        start = time.perf_counter()
        mode = native.backend_mode()
        queue = False
        if artifact.flat is not None:
            # numpy records "disabled", native compiles inline, auto
            # only probes the cache.
            attached = artifact.compile_native(compile=mode == "native")
            queue = mode == "auto" and not attached
        if queue:
            artifact.meta["kernel"] = {"status": "compiling"}
        version = register()
        if queue:
            self._submit((name, version, artifact, start))
        return version

    def _submit(self, job: tuple) -> None:
        with self._cond:
            if self._cancel.is_set():
                return
            self._jobs.append(job)
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name=THREAD_NAME, daemon=True
                )
                self._thread.start()
            self._cond.notify_all()

    def wait(self, timeout_s: float = 60.0) -> bool:
        """Block until every queued kernel has settled (and reached
        ``on_settled``); False on timeout or once closed."""
        deadline = time.monotonic() + timeout_s
        with self._cond:
            while self._jobs:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
        return not self._cancel.is_set()

    def close(self) -> None:
        """Stop the thread: a compile in flight is killed, queued ones
        are dropped.  Idempotent."""
        with self._cond:
            self._cancel.set()
            self._jobs.clear()
            self._cond.notify_all()
            thread = self._thread
        if thread is not None:
            thread.join()

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._jobs and not self._cancel.is_set():
                    self._cond.wait()
                if self._cancel.is_set():
                    return
                job = self._jobs[0]
            try:
                self._settle(*job)
            except Exception as exc:  # noqa: BLE001 - the thread must survive
                self._journal.emit(
                    "kernel_unavailable", severity="error",
                    labels={"model": job[0]}, version=job[1],
                    error=f"{type(exc).__name__}: {exc}",
                )
            with self._cond:
                if self._jobs and self._jobs[0] is job:
                    self._jobs.popleft()
                self._cond.notify_all()

    def serves(self, name: str, version: int,
               artifact: PolicyArtifact) -> bool:
        """Whether ``name@version`` still serves ``artifact``."""
        try:
            resolved = self._registry.resolve(f"{name}@{version}")
        except KeyError:
            return False
        return resolved.artifact is artifact

    def _settle(self, name: str, version: int, artifact: PolicyArtifact,
                published: float) -> None:
        if not self.serves(name, version, artifact):
            return  # retired or rolled back before its turn
        start = time.perf_counter()
        ready = artifact.compile_native(cancel=self._cancel)
        if self._cancel.is_set():
            return
        now = time.perf_counter()
        kernel = artifact.meta.get("kernel") or {}
        self._journal.emit(
            "kernel_ready" if ready else "kernel_unavailable",
            severity="info" if ready else "warn",
            labels={"model": name},
            version=version,
            compile_s=now - start,
            publish_to_ready_s=now - published,
            **({"hash": kernel.get("hash")} if ready
               else {"error": kernel.get("error")}),
        )
        self._on_settled(name, version, artifact)
