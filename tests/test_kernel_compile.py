"""Tests for off-publish kernel compilation (repro.serve.kernels).

The contract under test: a publish returns and serves at once while the
tier's compile thread builds the kernel; decisions stay bit-identical
before and after the kernel attaches; exactly one place compiles (the
tier's thread, never a worker, single-flight per kernel); and closing a
tier leaves no compile thread and no compiler process behind.
"""

import os
import socket
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.tree import DecisionTreeClassifier, native
from repro.core.tree.flat import FlatTree
from repro.serve import PolicyArtifact, PolicyServer
from repro.serve.cluster import ShardedPolicyService
from repro.serve.kernels import THREAD_NAME

needs_cc = pytest.mark.skipif(native.find_compiler() is None,
                              reason="no C compiler on PATH")


@pytest.fixture(autouse=True)
def kernel_cache(tmp_path, monkeypatch):
    """A private kernel cache (forked shard workers inherit it) and the
    default ``auto`` backend for every test."""
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "kernels"))
    monkeypatch.delenv("REPRO_TREE_BACKEND", raising=False)
    native.reset_native_stats()
    yield
    native.reset_native_stats()


@pytest.fixture(scope="module")
def toy():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(400, 5))
    y = ((x[:, 0] > 0) * 2 + (x[:, 1] - x[:, 3] > 0.2)).astype(int)
    return DecisionTreeClassifier(max_leaf_nodes=48).fit(x, y), x


def artifact_of(tree, leaves=None, x=None) -> PolicyArtifact:
    """An artifact over a fresh FlatTree copy (no kernel attached), or
    over a new ``leaves``-leaf tree fitted on ``x``: a distinct kernel."""
    if leaves is not None:
        tree = DecisionTreeClassifier(max_leaf_nodes=leaves).fit(
            x, (x[:, 2] > 0).astype(int) + (x[:, 4] > 0.5))
    return PolicyArtifact.from_flat(
        FlatTree.from_arrays(tree.flat.to_arrays()), name="toy",
        kind="tree-classifier", n_features=int(tree.n_features),
    )


@pytest.fixture
def held_compile(monkeypatch):
    """Hold every compile until ``release`` is set (``started`` tells a
    compile has begun); a held compile still honours its cancel."""
    started, release = threading.Event(), threading.Event()
    real = native.compile_kernel

    def held(flat, khash=None, cancel=None):
        started.set()
        while not release.wait(0.01):
            if cancel is not None and cancel.is_set():
                raise native.NativeUnavailable("compile cancelled")
        return real(flat, khash, cancel=cancel)

    monkeypatch.setattr(native, "compile_kernel", held)
    yield started, release
    release.set()


def children() -> set:
    me = os.getpid()
    out = set()
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            out.add(int(pid))
    return out


def compile_threads() -> list:
    return [t for t in threading.enumerate()
            if t.name == THREAD_NAME and t.is_alive()]


def wait_for_heal(service, timeout_s: float = 30.0) -> None:
    """Wait until a replica replaced shard 0."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        shards = service.replica_states()["shards"]
        if shards and 0 not in shards:
            return
        time.sleep(0.05)
    raise AssertionError("shard 0 was not replaced")


def kernel_ops(service) -> list:
    """Spy on the ``kernel`` broadcasts: the (name, version) each one
    carried."""
    sent = []
    real = service._broadcast_tolerant

    def spy(op, payload):
        if op == "kernel":
            sent.append(tuple(payload[:2]))
        return real(op, payload)

    service._broadcast_tolerant = spy
    return sent


@needs_cc
class TestInProcess:
    def test_publish_serves_numpy_until_the_kernel_attaches(
        self, toy, held_compile
    ):
        tree, x = toy
        started, release = held_compile
        art = artifact_of(tree)
        want = tree.predict(x[:64])
        with PolicyServer(max_batch=64, max_delay_s=1e-4) as server:
            server.publish("toy", art)
            assert started.wait(10)
            assert art.meta["kernel"] == {"status": "compiling"}
            before = np.asarray(server.predict("toy", x[:64]))
            view = server.backend_report()["models"]["toy"]
            assert view["backend"] == "compiling"
            assert view["native_rows"] == 0 and view["fallback_rows"] == 0
            release.set()
            assert server.wait_kernels(60)
            assert art.meta["kernel"]["status"] == "ready"
            after = np.asarray(server.predict("toy", x[:64]))
            view = server.backend_report()["models"]["toy"]
            events = [e for e in server.events()
                      if e["kind"].startswith("kernel_")]
        assert np.array_equal(before, want)
        assert np.array_equal(after, want)
        assert view["backend"] == "native"
        assert view["native_rows"] >= 64 and view["fallback_rows"] == 0
        assert [e["kind"] for e in events] == ["kernel_ready"]
        fields = events[0]["fields"]
        assert fields["version"] == 1
        assert 0 < fields["compile_s"] <= fields["publish_to_ready_s"]

    def test_forced_native_compiles_inline(self, toy, monkeypatch):
        tree, x = toy
        monkeypatch.setenv("REPRO_TREE_BACKEND", "native")
        art = artifact_of(tree)
        with PolicyServer() as server:
            server.publish("toy", art)
            assert art.meta["kernel"]["status"] == "ready"
            assert compile_threads() == []
            assert np.array_equal(server.predict("toy", x[:16]),
                                  tree.predict(x[:16]))

    def test_cached_kernel_attaches_at_publish(self, toy):
        tree, _ = toy
        assert native.ensure_kernel(artifact_of(tree).flat) is not None
        art = artifact_of(tree)
        with PolicyServer() as server:
            server.publish("toy", art)
            assert art.meta["kernel"]["status"] == "ready"
            assert compile_threads() == []

    def test_close_kills_a_compile_in_flight(self, toy, tmp_path,
                                             monkeypatch):
        tree, _ = toy
        slow_cc = tmp_path / "slow-cc"
        slow_cc.write_text("#!/bin/sh\nexec sleep 30\n")
        slow_cc.chmod(0o755)
        monkeypatch.setenv("CC", str(slow_cc))
        before = children()
        server = PolicyServer()
        server.publish("toy", artifact_of(tree))
        deadline = time.monotonic() + 10
        while not children() - before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert children() - before, "the compiler never started"
        start = time.monotonic()
        server.close()
        assert time.monotonic() - start < 5
        assert children() - before == set()
        assert compile_threads() == []
        assert server.wait_kernels(1) is False


class TestNative:
    @needs_cc
    def test_concurrent_callers_compile_once(self, toy):
        tree, x = toy
        flats = [artifact_of(tree).flat for _ in range(4)]
        kernels = [None] * 4
        barrier = threading.Barrier(4)

        def call(i):
            barrier.wait()
            kernels[i] = native.ensure_kernel(flats[i])

        threads = [threading.Thread(target=call, args=(i,))
                   for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(k is not None for k in kernels)
        stats = native.native_stats()
        assert stats["compiles"] == 1
        assert stats["cache_hits"] == 3

    def test_auto_never_compiles_on_a_serve_path(self, toy):
        tree, x = toy
        flat = artifact_of(tree).flat
        big = np.repeat(x, 25, axis=0)  # 10k rows
        assert np.array_equal(flat.predict_class(big), tree.predict(big))
        assert native.native_stats().get("compiles", 0) == 0
        assert flat.backend_stats["fallback_rows"] == 0


class TestLifecycle:
    def test_constructor_failure_leaks_no_thread(self):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            before = set(threading.enumerate())
            with pytest.raises(OSError):
                PolicyServer(exporter_port=port)
        leaked = [t.name for t in threading.enumerate()
                  if t not in before and t.is_alive()
                  and t.name.startswith("repro-serve-")]
        assert leaked == []

    def test_closed_tier_gets_no_kernel_events(self):
        a, b = PolicyServer(), PolicyServer()
        try:
            b.close()
            native.note_fallback(1)

            def fallbacks(server):
                return sum(e["kind"] == "kernel_fallback"
                           for e in server.events())

            assert fallbacks(b) == 0
            assert fallbacks(a) == 1
        finally:
            a.close()
            b.close()


@needs_cc
class TestCluster:
    def test_compiles_run_in_the_parent_only(self, toy, tmp_path,
                                             monkeypatch):
        tree, x = toy
        pids = tmp_path / "compile-pids"
        real = native.compile_kernel

        def recording(flat, khash=None, cancel=None):
            with open(pids, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return real(flat, khash, cancel=cancel)

        monkeypatch.setattr(native, "compile_kernel", recording)
        with ShardedPolicyService(n_shards=2) as svc:
            svc.publish("toy", artifact_of(tree))
            assert svc.wait_kernels(60)
            assert np.array_equal(svc.predict("toy", x),
                                  tree.predict(x))
            report = svc.backend_report()
        assert pids.read_text().split() == [str(os.getpid())]
        toy_view = report["models"]["toy"]
        assert toy_view["backend"] == "native"
        assert toy_view["native_rows"] >= x.shape[0]
        assert toy_view["fallback_rows"] == 0

    def test_native_mode_shard_never_compiles(self, toy, tmp_path,
                                              monkeypatch):
        # Forced native compiles inline in the parent.  A replica born
        # after the cached kernel vanished must serve numpy (visibly,
        # as fallback), not compile its own.
        tree, x = toy
        monkeypatch.setenv("REPRO_TREE_BACKEND", "native")
        pids = tmp_path / "compile-pids"
        real = native.compile_kernel

        def recording(flat, khash=None, cancel=None):
            with open(pids, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return real(flat, khash, cancel=cancel)

        monkeypatch.setattr(native, "compile_kernel", recording)
        with ShardedPolicyService(n_shards=1, self_heal=True) as svc:
            svc.publish("toy", artifact_of(tree))
            for so in (tmp_path / "kernels").glob("*.so"):
                so.unlink()
            svc.kill_shard(0)
            wait_for_heal(svc)
            assert np.array_equal(svc.predict("toy", x), tree.predict(x))
            view = svc.backend_report()["models"]["toy"]
        assert pids.read_text().split() == [str(os.getpid())]
        assert view["backend"] == "numpy-fallback"
        assert view["fallback_rows"] >= x.shape[0]

    def test_retired_version_gets_no_kernel_op(self, toy, held_compile):
        tree, x = toy
        started, release = held_compile
        with ShardedPolicyService(n_shards=2) as svc:
            sent = kernel_ops(svc)
            svc.publish("m", artifact_of(tree))
            assert started.wait(10)
            svc.publish("m", artifact_of(tree, leaves=6, x=x))
            svc.retire("m", 1)  # mid-compile
            release.set()
            assert svc.wait_kernels(60)
            assert sent == [("m", 2)]
            assert svc.backend_report()["models"]["m"]["backend"] == \
                "native"

    def test_rolled_back_version_gets_no_kernel_op(self, toy,
                                                   held_compile):
        tree, x = toy
        started, release = held_compile
        release.set()
        with ShardedPolicyService(n_shards=2) as svc:
            sent = kernel_ops(svc)
            svc.publish("m", artifact_of(tree))
            assert svc.wait_kernels(60)
            release.clear()
            started.clear()
            svc.publish("m", artifact_of(tree, leaves=6, x=x))
            assert started.wait(10)
            svc.rollback_publish("m", 2)  # mid-compile
            release.set()
            assert svc.wait_kernels(60)
            assert sent == [("m", 1)]

    def test_healed_shard_serves_native(self, toy):
        tree, x = toy
        with ShardedPolicyService(n_shards=1, self_heal=True) as svc:
            svc.publish("toy", artifact_of(tree))
            assert svc.wait_kernels(60)
            svc.kill_shard(0)
            wait_for_heal(svc)
            assert np.array_equal(svc.predict("toy", x), tree.predict(x))
            report = svc.backend_report()
        (shard_id, shard_report), = report["per_shard"].items()
        assert shard_id != "0"
        assert shard_report["toy"]["backend"] == "native"
        assert shard_report["toy"]["native_rows"] >= x.shape[0]
        assert shard_report["toy"]["numpy_rows"] == 0

    def test_scale_up_during_a_held_compile(self, toy, held_compile):
        tree, x = toy
        started, release = held_compile
        with ShardedPolicyService(n_shards=1) as svc:
            svc.publish("toy", artifact_of(tree))
            assert started.wait(10)
            added = []
            scaler = threading.Thread(
                target=lambda: added.append(svc.add_shard()))
            scaler.start()
            scaler.join(60)
            assert not scaler.is_alive(), "add_shard deadlocked"
            assert np.array_equal(svc.predict("toy", x), tree.predict(x))
            release.set()
            assert svc.wait_kernels(60)
            report = svc.backend_report()
        assert len(added) == 1
        assert set(report["per_shard"]) == {"0", str(added[0])}
        for shard_report in report["per_shard"].values():
            assert shard_report["toy"]["backend"] == "native"
