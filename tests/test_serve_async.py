"""Asyncio front end, loop-batched flushes, adaptive microbatching, and
loadgen RNG plumbing."""

import asyncio
import concurrent.futures
import math
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest

from repro.core.tree import DecisionTreeClassifier
from repro.serve import (
    AdaptiveDelay,
    MicroBatcher,
    ModelRegistry,
    PolicyArtifact,
    PolicyServer,
    ServeError,
)


@pytest.fixture(scope="module")
def toy():
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, (800, 5))
    y = (x[:, 0] > 0.5).astype(int) * 2 + (x[:, 2] > 0.4).astype(int)
    return DecisionTreeClassifier(max_leaf_nodes=32).fit(x, y), x


class TestAsyncClient:
    def test_predict_and_act(self, toy):
        from repro.serve.aio import AsyncPolicyClient

        tree, x = toy
        with PolicyServer(max_batch=16, max_delay_s=1e-3) as server:
            server.publish("toy", PolicyArtifact.from_tree(tree))
            client = AsyncPolicyClient(server)

            async def main():
                result = await client.predict("toy", x[0])
                action = await client.act("toy", x[1])
                many = await client.predict_many("toy", x[:32])
                bad = await client.predict("toy", np.full(5, np.nan))
                with pytest.raises(ServeError):
                    await client.act("ghost", x[0])
                return result, action, many, bad

            result, action, many, bad = asyncio.run(main())
        assert result.ok and result.action == tree.predict(x[:1])[0]
        assert action == tree.predict(x[1:2])[0]
        assert np.array_equal(
            [r.action for r in many], tree.predict(x[:32])
        )
        assert (bad.ok, bad.error) == (False, "non_finite")

    def test_concurrent_coroutines_cobatch(self, toy):
        """Many coroutine clients coalesce through the same batcher."""
        from repro.serve.aio import AsyncPolicyClient

        tree, x = toy
        with PolicyServer(max_batch=64, max_delay_s=20e-3) as server:
            server.publish("toy", PolicyArtifact.from_tree(tree))

            async def main():
                client = AsyncPolicyClient(server)
                return await asyncio.gather(*[
                    client.predict("toy", row) for row in x[:48]
                ])

            results = asyncio.run(main())
            sizes = server.metrics()["toy"]["batch_sizes"]
        assert all(r.ok for r in results)
        assert np.array_equal(
            [r.action for r in results], tree.predict(x[:48])
        )
        assert max(sizes) > 1  # coroutines co-batched without threads

    def test_cluster_backend_uses_bulk_path(self, toy):
        from repro.serve.aio import AsyncPolicyClient
        from repro.serve.cluster import ShardedPolicyService

        tree, x = toy
        with ShardedPolicyService(n_shards=2) as service:
            service.publish("toy", PolicyArtifact.from_tree(tree))
            client = AsyncPolicyClient(service)

            async def main():
                return await client.predict_many("toy", x[:256])

            results = asyncio.run(main())
        assert len(results) == 256
        assert np.array_equal(
            [r.action for r in results], tree.predict(x[:256])
        )

    def test_requires_a_server_surface(self):
        from repro.serve.aio import AsyncPolicyClient

        with pytest.raises(TypeError):
            AsyncPolicyClient(object())

    def test_submit_async_after_close_raises(self, toy):
        tree, x = toy
        server = PolicyServer(max_batch=8, max_delay_s=1e-3)
        server.publish("toy", PolicyArtifact.from_tree(tree))
        server.close()

        async def main():
            return server.submit_async("toy", x[0])

        with pytest.raises(RuntimeError, match="closed"):
            asyncio.run(main())


def _record_resolver(future, resolvers):
    """Append the ident of the thread that runs ``future``'s done
    callback: its loop's thread while that loop can still run it."""
    future.add_done_callback(
        lambda _: resolvers.append(threading.get_ident())
    )
    return future


def _recording_artifact(tree, flushers):
    """``tree`` as a function artifact whose predict records the ident
    of the thread that flushes each batch."""

    def predict(rows):
        flushers.append(threading.get_ident())
        return tree.predict(rows)

    return PolicyArtifact(
        name="toy", kind="function", n_features=5, n_outputs=4,
        predict_batch=predict, content_hash="0" * 16,
    )


class TestLoopFlush:
    """Requests submitted on a running event loop flush on that loop;
    the batcher thread only takes the batches the loop cannot flush."""

    def test_gathered_coroutines_flush_on_the_loop_thread(self, toy,
                                                          monkeypatch):
        # A turn stalled past the adoption age (a GC pause, a busy host)
        # would let the batcher thread take part of the batch early.
        monkeypatch.setattr("repro.serve.batcher.ADOPT_AFTER_S", 10.0)
        tree, x = toy
        n, max_batch = 40, 16
        flushers = []
        # A thread flush would wait out this deadline; a loop flush
        # never waits.
        with PolicyServer(max_batch=max_batch, max_delay_s=1.0) as server:
            server.publish("toy", _recording_artifact(tree, flushers))

            async def one(row):
                future = server.submit("toy", row)
                assert not future.done()  # flushed after this loop turn
                return await asyncio.wrap_future(future)

            async def main():
                results = await asyncio.gather(*[one(row) for row in x[:n]])
                return threading.get_ident(), results

            loop_thread, results = asyncio.run(main())
            sizes = server.metrics()["toy"]["batch_sizes"]
        assert flushers == [loop_thread] * math.ceil(n / max_batch)
        assert sum(sizes.values()) == math.ceil(n / max_batch)
        assert sizes == {8: 1, 16: 2}
        assert [r.action for r in results] == tree.predict(x[:n]).tolist()

    def test_blocked_loop_is_answered_by_the_batcher_thread(self, toy):
        tree, x = toy
        flushers = []
        with PolicyServer(max_batch=16, max_delay_s=1e-3) as server:
            server.publish("toy", _recording_artifact(tree, flushers))

            async def main():
                future = server.submit("toy", x[0])
                begin = time.perf_counter()
                result = future.result(timeout=2)  # blocks the loop
                waited = time.perf_counter() - begin
                return threading.get_ident(), result, waited

            loop_thread, result, waited = asyncio.run(main())
        assert result.ok and result.action == tree.predict(x[:1])[0]
        assert len(flushers) == 1 and flushers[0] != loop_thread
        assert waited < 1.0

    def test_unawaited_future_resolves_after_the_loop_closes(self, toy):
        tree, x = toy
        resolvers = []
        with PolicyServer(max_batch=16, max_delay_s=1e-3) as server:
            server.publish("toy", PolicyArtifact.from_tree(tree))

            async def main():
                return server.submit("toy", x[0])

            returned = asyncio.run(main())
            # A loop stopped in the turn that opened its batch closes
            # with the batch's flush still scheduled: only the batcher
            # thread can answer it.
            loop = asyncio.new_event_loop()
            orphaned = []

            def submit_and_stop():
                orphaned.append(_record_resolver(
                    server.submit("toy", x[1]), resolvers
                ))
                loop.stop()

            loop.call_soon(submit_and_stop)
            loop.run_forever()
            loop.close()
            results = [returned.result(timeout=2),
                       orphaned[0].result(timeout=2)]
        assert [r.action for r in results] == tree.predict(x[:2]).tolist()
        assert len(resolvers) == 1
        assert resolvers[0] != threading.get_ident()

    def test_close_resolves_pending_loop_batches(self, toy):
        tree, x = toy
        server = PolicyServer(max_batch=8, max_delay_s=1e-3)
        server.publish("toy", PolicyArtifact.from_tree(tree))
        # A stopped (not closed) loop keeps its batch pending.
        stopped = asyncio.new_event_loop()
        parked = []

        def submit_and_stop():
            parked.extend(server.submit("toy", row) for row in x[20:30])
            stopped.stop()

        stopped.call_soon(submit_and_stop)
        stopped.run_forever()

        async def main():
            futures = [server.submit("toy", row) for row in x[:20]]
            server.close()  # before this turn ends and its flush runs
            return [f.done() for f in futures + parked], futures

        try:
            done, futures = asyncio.run(main())
        finally:
            stopped.close()
        assert all(done)
        actions = [f.result().action for f in futures + parked]
        assert actions == tree.predict(x[:30]).tolist()
        with pytest.raises(RuntimeError, match="closed"):
            server.submit("toy", x[0])

    def test_close_waits_for_a_loop_flush_in_progress(self):
        entered, release = threading.Event(), threading.Event()

        def gated(x):
            entered.set()
            release.wait(timeout=10)
            return np.zeros(x.shape[0], dtype=int)

        server = PolicyServer(max_batch=8, max_delay_s=1e-3)
        server.publish("gated", PolicyArtifact(
            name="gated", kind="function", n_features=2, n_outputs=2,
            predict_batch=gated, content_hash="0" * 16,
        ))
        futures = []

        async def client():
            futures.append(server.submit("gated", [0.0, 1.0]))
            await asyncio.wrap_future(futures[0])

        loop_thread = threading.Thread(target=asyncio.run, args=(client(),))
        loop_thread.start()
        closer = threading.Thread(target=server.close)
        try:
            assert entered.wait(timeout=10)  # the loop thread is flushing
            closer.start()
            closer.join(timeout=0.2)
            assert closer.is_alive()  # close() waits for that flush
        finally:
            release.set()
            loop_thread.join(timeout=10)
            if closer.ident is not None:
                closer.join(timeout=10)
        assert not loop_thread.is_alive() and not closer.is_alive()
        assert futures[0].result(timeout=0).ok

    def test_queue_depth_counts_a_pending_loop_batch(self, toy):
        tree, x = toy
        registry = ModelRegistry()
        registry.publish("toy", PolicyArtifact.from_tree(tree))
        # Never started: loop batches still flush on their loop, and no
        # batcher thread can adopt this one while its depth is read.
        batcher = MicroBatcher(registry, max_batch=8)

        async def main():
            futures = [batcher.submit("toy", row) for row in x[:5]]
            pending = batcher.queue_depth()
            await asyncio.gather(*map(asyncio.wrap_future, futures))
            return pending, batcher.queue_depth()

        try:
            assert asyncio.run(main()) == (5, 0)
        finally:
            batcher.close()

    def test_adaptive_fill_moves_under_loop_only_traffic(self, toy):
        tree, x = toy
        with PolicyServer(max_batch=16, max_delay_s=2e-3,
                          adaptive_delay=True) as server:
            server.publish("toy", PolicyArtifact.from_tree(tree))
            before = server.batching_state()

            async def main():
                return await asyncio.gather(*[
                    server.submit_async("toy", row) for row in x[:64]
                ])

            results = asyncio.run(main())
            after = server.batching_state()
        assert all(r.ok for r in results)
        assert (before["fill"], before["observations"]) == (0.0, 0)
        # Four full flushes, each with the rest of the batch behind it.
        assert after["observations"] >= 4
        assert after["fill"] > 0.5


class TestLoopFuture:
    """A loop caller's future is awaited directly by its Task, and its
    done callbacks run on its loop."""

    def test_loop_submit_returns_an_awaitable_concurrent_future(self, toy):
        tree, x = toy
        with PolicyServer(max_batch=8, max_delay_s=1e-3) as server:
            server.publish("toy", PolicyArtifact.from_tree(tree))

            async def main():
                future = server.submit("toy", x[0])
                return future, asyncio.wrap_future(future), await future

            future, wrapped, result = asyncio.run(main())
            from_thread = server.submit("toy", x[1])
            assert from_thread.result(timeout=10).ok
        assert wrapped is future
        assert isinstance(future, concurrent.futures.Future)
        assert result.ok and result.action == tree.predict(x[:1])[0]
        assert future.result(timeout=0) is result
        assert type(from_thread) is concurrent.futures.Future
        assert not asyncio.isfuture(from_thread)

    def test_cluster_submit_on_a_loop_returns_a_loop_future(self, toy):
        from repro.serve.cluster import ShardedPolicyService

        tree, x = toy
        with ShardedPolicyService(n_shards=1, max_delay_s=1e-3) as service:
            service.publish("toy", PolicyArtifact.from_tree(tree))

            async def main():
                future = service.submit("toy", x[0])
                return future, asyncio.wrap_future(future), await future

            future, wrapped, result = asyncio.run(main())
            from_thread = service.submit("toy", x[1])
            assert from_thread.result(timeout=10).ok
        assert wrapped is future
        assert isinstance(future, concurrent.futures.Future)
        assert result.ok and result.action == tree.predict(x[:1])[0]
        assert type(from_thread) is concurrent.futures.Future

    def test_gather_wait_and_shield(self, toy):
        tree, x = toy
        with PolicyServer(max_batch=8, max_delay_s=1e-3) as server:
            server.publish("toy", PolicyArtifact.from_tree(tree))

            async def main():
                gathered = await asyncio.gather(*[
                    server.submit("toy", row) for row in x[:20]
                ])
                done, pending = await asyncio.wait(
                    [server.submit("toy", row) for row in x[20:24]]
                )
                shielded = await asyncio.shield(server.submit("toy", x[24]))
                waited = await asyncio.wait_for(
                    server.submit("toy", x[25]), 10
                )
                return gathered, done, pending, shielded, waited

            gathered, done, pending, shielded, waited = asyncio.run(main())
        expected = tree.predict(x[:26]).tolist()
        assert [r.action for r in gathered] == expected[:20]
        assert pending == set() and len(done) == 4
        assert sorted(f.result().action for f in done) \
            == sorted(expected[20:24])
        assert shielded.action == expected[24]
        assert waited.action == expected[25]

    def test_cancelled_task_ends_after_the_flush(self, toy):
        tree, x = toy
        expected = tree.predict(x[:2]).tolist()
        with PolicyServer(max_batch=8, max_delay_s=1e-3) as server:
            server.publish("toy", PolicyArtifact.from_tree(tree))
            futures = []

            async def client():
                futures.append(server.submit("toy", x[0]))
                return await futures[0]

            async def main():
                task = asyncio.ensure_future(client())
                await asyncio.sleep(0)  # the task now awaits its future
                assert futures and not futures[0].done()
                assert task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                answered = futures[0].done()
                return answered, await server.submit("toy", x[1])

            answered, following = asyncio.run(main())
        assert answered  # the Task was cancelled once the answer came
        assert futures[0].cancel() is False
        assert futures[0].result(timeout=0).action == expected[0]
        assert following.ok and following.action == expected[1]

    def test_adopted_batch_callbacks_run_on_the_loop_thread(self, toy):
        tree, x = toy
        flushers, ran_on = [], []
        with PolicyServer(max_batch=8, max_delay_s=1e-3) as server:
            server.publish("toy", _recording_artifact(tree, flushers))

            async def main():
                loop = asyncio.get_running_loop()
                called = loop.create_future()
                future = server.submit("toy", x[0])
                future.add_done_callback(lambda _: (
                    ran_on.append(threading.get_ident()),
                    called.set_result(None),
                ))
                result = future.result(timeout=2)  # blocks the loop
                before_resuming = list(ran_on)
                await asyncio.wait_for(called, 10)
                return threading.get_ident(), result, before_resuming

            loop_thread, result, before_resuming = asyncio.run(main())
        assert result.action == tree.predict(x[:1])[0]
        assert len(flushers) == 1 and flushers[0] != loop_thread
        assert before_resuming == []
        assert ran_on == [loop_thread]

    def test_awaiting_from_another_loop_raises(self, toy):
        tree, x = toy
        registry = ModelRegistry()
        registry.publish("toy", PolicyArtifact.from_tree(tree))
        # Never started: no batcher thread adopts the home loop's batch,
        # so the future stays pending until that loop runs again.
        batcher = MicroBatcher(registry, max_batch=8)
        home = asyncio.new_event_loop()
        futures = []

        def submit_and_stop():
            futures.append(batcher.submit("toy", x[0]))
            home.stop()

        async def foreign():
            return await futures[0]

        try:
            home.call_soon(submit_and_stop)
            home.run_forever()
            with pytest.raises(RuntimeError,
                               match="attached to a different loop"):
                asyncio.run(foreign())
            assert not futures[0].done()
            home.run_until_complete(futures[0])
            assert futures[0].result(timeout=0).action \
                == tree.predict(x[:1])[0]
        finally:
            batcher.close()
            home.close()


def _serving_tier(kind):
    if kind == "process":
        return PolicyServer(max_batch=64, max_delay_s=0.05)
    from repro.serve.cluster import ShardedPolicyService

    return ShardedPolicyService(n_shards=1, max_batch=64, max_delay_s=0.05)


def _close_within(tier, timeout_s):
    closer = threading.Thread(target=tier.close, daemon=True)
    closer.start()
    closer.join(timeout=timeout_s)
    return not closer.is_alive()


TIERS = [
    pytest.param("process", id="process"),
    pytest.param("cluster", id="cluster-pipe"),
]


# The pipe is the only worker transport; the parameter keeps these
# tests' [pipe] ids, which their recorded history is keyed by.
@pytest.mark.parametrize("transport", ["pipe"])
class TestClusterLoopPath:
    """The cluster tier gathers a loop's requests on that loop, hands the
    batch to its dispatcher thread at the end of the turn, and wakes the
    loop once per reply frame."""

    def test_gathered_coroutines_ship_as_one_flush_group(
        self, toy, transport, monkeypatch
    ):
        from repro.serve.cluster import ShardedPolicyService

        # A turn stalled past the adoption age (a GC pause, a busy host)
        # would let the dispatcher thread take half the batch early.
        monkeypatch.setattr("repro.serve.batcher.ADOPT_AFTER_S", 10.0)
        tree, x = toy
        n = 40
        # A thread gather of 40 requests would wait out this deadline.
        with ShardedPolicyService(n_shards=1, max_batch=64,
                                  max_delay_s=1.0) as service:
            service.publish("toy", PolicyArtifact.from_tree(tree))

            async def main():
                begin = time.perf_counter()
                results = await asyncio.gather(*[
                    asyncio.wrap_future(service.submit("toy", row))
                    for row in x[:n]
                ])
                return results, time.perf_counter() - begin

            results, took = asyncio.run(main())
            sizes = service.metrics()["toy"]["batch_sizes"]
        assert took < 0.5
        assert sizes == {n: 1}
        assert [r.action for r in results] == tree.predict(x[:n]).tolist()

    def test_one_wakeup_per_reply_frame(self, toy, transport,
                                        monkeypatch):
        from repro.serve.cluster import ShardedPolicyService

        # One frame only: no early adoption of a stalled turn's batch.
        monkeypatch.setattr("repro.serve.batcher.ADOPT_AFTER_S", 10.0)
        tree, x = toy
        with ShardedPolicyService(n_shards=1, max_batch=64,
                                  max_delay_s=1.0) as service:
            service.publish("toy", PolicyArtifact.from_tree(tree))

            async def main():
                loop = asyncio.get_running_loop()
                posts = []
                post = loop.call_soon_threadsafe

                def counted(*args, **kwargs):
                    posts.append(threading.get_ident())
                    return post(*args, **kwargs)

                loop.call_soon_threadsafe = counted
                futures = [service.submit("toy", row) for row in x[:40]]
                resumed = []
                for future in futures:
                    future.add_done_callback(
                        lambda _: resumed.append(threading.get_ident())
                    )
                results = await asyncio.gather(
                    *map(asyncio.wrap_future, futures)
                )
                return results, list(posts), resumed, threading.get_ident()

            results, posts, resumed, loop_thread = asyncio.run(main())
            sizes = service.metrics()["toy"]["batch_sizes"]
        assert sizes == {40: 1}  # one reply frame
        assert len(posts) == 1 and posts[0] != loop_thread
        assert resumed == [loop_thread] * 40
        assert [r.action for r in results] == tree.predict(x[:40]).tolist()

    def test_blocked_loop_is_answered(self, toy, transport):
        from repro.serve.cluster import ShardedPolicyService

        tree, x = toy
        with ShardedPolicyService(n_shards=1, max_delay_s=1e-3) as service:
            service.publish("toy", PolicyArtifact.from_tree(tree))

            async def main():
                begin = time.perf_counter()
                result = service.submit("toy", x[0]).result(timeout=2)
                return result, time.perf_counter() - begin

            result, waited = asyncio.run(main())
        assert result.ok and result.action == tree.predict(x[:1])[0]
        assert waited < 1.0

    def test_unawaited_future_resolves_after_the_loop_closes(self, toy,
                                                            transport):
        from repro.serve.cluster import ShardedPolicyService

        tree, x = toy
        resolvers = []
        with ShardedPolicyService(n_shards=1, max_delay_s=1e-3) as service:
            service.publish("toy", PolicyArtifact.from_tree(tree))

            async def main():
                return service.submit("toy", x[0])

            returned = asyncio.run(main())
            # Stopped in the turn that opened its batch: only the
            # dispatcher thread's adoption can answer it.
            loop = asyncio.new_event_loop()
            orphaned = []

            def submit_and_stop():
                orphaned.append(_record_resolver(
                    service.submit("toy", x[1]), resolvers
                ))
                loop.stop()

            loop.call_soon(submit_and_stop)
            loop.run_forever()
            loop.close()
            results = [returned.result(timeout=2),
                       orphaned[0].result(timeout=2)]
        assert [r.action for r in results] == tree.predict(x[:2]).tolist()
        assert len(resolvers) == 1
        assert resolvers[0] != threading.get_ident()

    def test_close_resolves_pending_and_parked_loop_batches(self, toy,
                                                            transport):
        from repro.serve.cluster import ShardedPolicyService

        tree, x = toy
        service = ShardedPolicyService(n_shards=1, max_batch=8,
                                       max_delay_s=1e-3)
        service.publish("toy", PolicyArtifact.from_tree(tree))
        # A stopped (not closed) loop keeps its batch parked.
        stopped = asyncio.new_event_loop()
        parked = []

        def submit_and_stop():
            parked.extend(service.submit("toy", row) for row in x[20:30])
            stopped.stop()

        stopped.call_soon(submit_and_stop)
        stopped.run_forever()

        async def main():
            futures = [service.submit("toy", row) for row in x[:20]]
            service.close()  # before this turn ends and hands them over
            return [f.done() for f in futures + parked], futures

        try:
            done, futures = asyncio.run(main())
        finally:
            stopped.close()
        assert all(done)
        actions = [f.result().action for f in futures + parked]
        assert actions == tree.predict(x[:30]).tolist()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit("toy", x[0])

    def test_queue_depth_counts_pending_and_handed_over_batches(
        self, toy, transport
    ):
        from repro.serve.cluster import ShardedPolicyService
        from repro.serve.cluster.service import _ClusterDispatcher

        tree, x = toy
        with ShardedPolicyService(n_shards=1) as service:
            service.publish("toy", PolicyArtifact.from_tree(tree))
            # Never started: no dispatcher thread takes the handed-over
            # batch off the queue while its depth is read.
            dispatcher = _ClusterDispatcher(service, max_batch=64)

            async def main():
                futures = [dispatcher.submit("toy", row) for row in x[:5]]
                depths = [dispatcher.queue_depth()]
                await asyncio.sleep(0)  # the turn ended: handed over
                depths.append(dispatcher.queue_depth())
                futures += [dispatcher.submit("toy", row)
                            for row in x[5:8]]
                depths.append(dispatcher.queue_depth())
                dispatcher.close()  # ships both batches to the shard
                depths.append(dispatcher.queue_depth())
                return depths, await asyncio.gather(*futures)

            depths, results = asyncio.run(main())
        assert depths == [5, 5, 8, 0]
        assert [r.action for r in results] == tree.predict(x[:8]).tolist()

    def test_killed_shard_wakes_loop_tasks_with_shard_error(self, toy,
                                                            transport):
        from repro.serve.cluster import ShardedPolicyService
        from repro.serve.loadgen import synthetic_artifact

        tree, x = toy
        with ShardedPolicyService(n_shards=1, max_delay_s=1e-3) as service:
            # Each predict holds the shard for 30 s: the frame is still
            # in flight when the shard dies.
            service.publish("slow", synthetic_artifact("slow", 30.0,
                                                       n_features=5))

            async def client(row):
                return await service.submit("slow", row)

            async def main():
                tasks = [asyncio.ensure_future(client(row))
                         for row in x[:8]]
                await asyncio.sleep(0.2)
                service.kill_shard(service._shards[0].shard_id)
                return await asyncio.wait_for(asyncio.gather(*tasks), 10)

            results = asyncio.run(main())
        assert len(results) == 8
        assert {(r.ok, r.error) for r in results} == {(False, "shard_error")}


class TestCancelIsRefused:
    """Every accepted request is running from submit on: cancel() is
    refused, so no flush or reply ever meets a cancelled future."""

    @pytest.mark.parametrize("caller", ["thread", "loop"])
    @pytest.mark.parametrize("kind", TIERS)
    def test_a_cancelled_request_does_not_stop_serving(self, toy, kind,
                                                       caller):
        tree, x = toy
        expected = tree.predict(x[:9]).tolist()
        tier = _serving_tier(kind)

        async def cancel_a_wrapper():
            futures = [tier.submit("toy", row) for row in x[:8]]
            wrappers = [asyncio.wrap_future(f) for f in futures]
            wrappers[0].cancel()
            await asyncio.wait_for(asyncio.gather(*wrappers[1:]), 10)
            return futures

        try:
            tier.publish("toy", PolicyArtifact.from_tree(tree))
            if caller == "loop":
                futures = asyncio.run(cancel_a_wrapper())
            else:
                # A 50 ms deadline keeps the batch gathering while the
                # first request is cancelled.
                futures = [tier.submit("toy", row) for row in x[:8]]
            assert futures[0].cancel() is False
            results = [f.result(timeout=10) for f in futures]
            assert [r.action for r in results] == expected[:8]
            if kind == "cluster":
                bulk = tier.submit_batch("toy", x[:8])
                assert bulk.cancel() is False
                assert [r.action for r in bulk.result(timeout=10)] \
                    == expected[:8]
            later = tier.submit("toy", x[8]).result(timeout=10)
            assert later.ok and later.action == expected[8]
        finally:
            closed = _close_within(tier, 30)
        assert closed


class TestLoopAndThreadStress:
    """Loop-batched and queued requests from more submitters than cores,
    with the interpreter switching threads as often as it can."""

    N_LOOPS = 4
    COROUTINES = 8
    N_THREADS = 4
    PER_CLIENT = 30

    @pytest.mark.parametrize("kind", TIERS)
    def test_every_future_resolves_once_with_the_offline_answer(
        self, toy, kind
    ):
        tree, x = toy
        artifact = PolicyArtifact.from_tree(tree)
        expected = np.asarray(artifact.predict_batch(x)).tolist()
        n_rows = x.shape[0]
        resolutions: Counter = Counter()
        wrong = []
        futures = []
        errors = []
        record = threading.Lock()

        def submit(server, rid):
            row = rid % n_rows
            future = server.submit("toy", x[row])

            def done(f):
                result = f.result()
                with record:
                    resolutions[rid] += 1
                    if not result.ok or result.action != expected[row]:
                        wrong.append((rid, result))

            future.add_done_callback(done)
            with record:
                futures.append(future)
            return future

        async def coroutine_client(server, base):
            for k in range(self.PER_CLIENT):
                future = submit(server, base + k)
                if k == self.PER_CLIENT // 2:
                    future.result(timeout=10)  # blocks this loop
                else:
                    await asyncio.wait_for(asyncio.wrap_future(future), 10)

        async def loop_clients(server, first):
            await asyncio.gather(*[
                coroutine_client(server, (first + c) * self.PER_CLIENT)
                for c in range(self.COROUTINES)
            ])

        def loop_thread(server, index):
            asyncio.run(loop_clients(server, index * self.COROUTINES))

        def plain_thread(server, index):
            base = (self.N_LOOPS * self.COROUTINES + index) * self.PER_CLIENT
            for k in range(self.PER_CLIENT):
                submit(server, base + k).result(timeout=10)

        def guarded(target, *args):
            try:
                target(*args)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        total = (self.N_LOOPS * self.COROUTINES + self.N_THREADS) \
            * self.PER_CLIENT
        if kind == "process":
            tier = PolicyServer(max_batch=16, max_delay_s=1e-3)
        else:
            from repro.serve.cluster import ShardedPolicyService

            tier = ShardedPolicyService(n_shards=2, max_batch=16,
                                        max_delay_s=1e-3)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with tier as server:
                server.publish("toy", artifact)
                threads = [
                    threading.Thread(target=guarded,
                                     args=(loop_thread, server, i))
                    for i in range(self.N_LOOPS)
                ] + [
                    threading.Thread(target=guarded,
                                     args=(plain_thread, server, i))
                    for i in range(self.N_THREADS)
                ]
                for thread in threads:
                    thread.start()
                deadline = time.monotonic() + 60
                for thread in threads:
                    thread.join(timeout=max(deadline - time.monotonic(), 0))
                assert not any(t.is_alive() for t in threads)
            stats = server.metrics()["toy"]
        finally:
            sys.setswitchinterval(switch)
        assert errors == []
        assert len(futures) == total and all(f.done() for f in futures)
        assert len(resolutions) == total
        assert set(resolutions.values()) == {1}
        assert wrong == []
        assert stats["requests"] == total and stats["errors"] == 0
        assert max(stats["batch_sizes"]) <= 16


class TestRunLoadAsync:
    def test_closed_loop_report(self, toy):
        from repro.serve.loadgen import run_load_async

        tree, x = toy
        with PolicyServer(max_batch=32, max_delay_s=1e-3) as server:
            server.publish("toy", PolicyArtifact.from_tree(tree),
                           alias="toy/prod")
            report = run_load_async(
                server, "toy/prod", x[:128], n_clients=8,
                scenario="async-unit",
            )
        assert report.scenario == "async-unit"
        assert report.n_requests == 128 and report.n_errors == 0
        assert report.throughput_rps > 0
        assert 0 < report.latency_p50_ms <= report.latency_p99_ms
        assert report.versions == {1: 128}

    def test_chunked_mode_counts_every_row(self, toy):
        from repro.serve.cluster import ShardedPolicyService
        from repro.serve.loadgen import run_load_async

        tree, x = toy
        with ShardedPolicyService(n_shards=2) as service:
            service.publish("toy", PolicyArtifact.from_tree(tree))
            report = run_load_async(
                service, "toy", x[:256], n_clients=4, chunk=32,
                repeats=2, scenario="async-bulk",
            )
        assert report.n_requests == 512 and report.n_errors == 0
        assert report.versions == {1: 512}

    def test_bad_chunk_rejected(self, toy):
        from repro.serve.loadgen import run_load_async

        with pytest.raises(ValueError):
            run_load_async(None, "m", np.ones((4, 2)), chunk=0)


class TestAdaptiveDelay:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveDelay(max_delay_s=-1.0)
        with pytest.raises(ValueError):
            AdaptiveDelay(max_delay_s=1e-3, floor_s=2e-3)
        with pytest.raises(ValueError):
            AdaptiveDelay(alpha=0.0)
        with pytest.raises(ValueError):
            AdaptiveDelay(initial_fill=2.0)

    def test_idle_shrinks_loaded_grows(self):
        delay = AdaptiveDelay(max_delay_s=2e-3, alpha=0.5,
                              initial_fill=0.5)
        mid = delay.current()
        for _ in range(20):  # sustained full flushes with backlog
            delay.observe(batch_size=64, queue_depth=64, max_batch=64)
        assert delay.current() > mid
        assert delay.current() == pytest.approx(2e-3, rel=1e-3)
        for _ in range(20):  # traffic dries up
            delay.observe(batch_size=1, queue_depth=0, max_batch=64)
        assert delay.current() < 0.1 * 2e-3
        snap = delay.snapshot()
        assert snap["observations"] == 40
        assert 0 <= snap["fill"] <= 1

    def test_server_exposes_batching_state(self, toy):
        tree, x = toy
        with PolicyServer(max_batch=16, max_delay_s=2e-3,
                          adaptive_delay=True) as server:
            server.publish("toy", PolicyArtifact.from_tree(tree))
            server.predict("toy", x[:64])
            state = server.batching_state()
        assert state["adaptive"] is True
        assert state["observations"] > 0
        assert 0 <= state["delay_s"] <= 2e-3
        with PolicyServer(max_batch=16, max_delay_s=2e-3) as server:
            assert server.batching_state() == {
                "adaptive": False, "delay_s": 2e-3,
            }

    def test_adaptive_server_serves_correctly(self, toy):
        tree, x = toy
        with PolicyServer(max_batch=32, max_delay_s=2e-3,
                          adaptive_delay=True) as server:
            server.publish("toy", PolicyArtifact.from_tree(tree))
            out = server.predict("toy", x[:200])
        assert np.array_equal(out, tree.predict(x[:200]))


class TestLoadgenGeneratorRng:
    """Satellite: generators accept an explicit Generator and share one
    deterministic stream across successive calls."""

    def test_routing_states_shared_stream(self):
        from repro.serve.loadgen import routing_request_states

        rng = np.random.default_rng(42)
        first = routing_request_states(n_queries=64, seed=rng)
        second = routing_request_states(n_queries=64, seed=rng)
        # the stream advanced: two clients get distinct workloads
        assert not np.array_equal(first, second)
        # replaying the stream reproduces both exactly
        rng2 = np.random.default_rng(42)
        assert np.array_equal(
            routing_request_states(n_queries=64, seed=rng2), first
        )
        assert np.array_equal(
            routing_request_states(n_queries=64, seed=rng2), second
        )

    def test_flow_states_shared_stream(self):
        from repro.serve.loadgen import flow_request_states

        rng = np.random.default_rng(7)
        first = flow_request_states(duration_s=0.5, seed=rng, min_rows=32)
        second = flow_request_states(duration_s=0.5, seed=rng, min_rows=32)
        assert first.shape[1] == 12
        assert not np.array_equal(first, second)
        rng2 = np.random.default_rng(7)
        assert np.array_equal(
            flow_request_states(duration_s=0.5, seed=rng2, min_rows=32),
            first,
        )

    def test_abr_states_accept_generator(self):
        from repro.serve.loadgen import abr_request_states

        rng = np.random.default_rng(3)
        first = abr_request_states(n_sessions=2, n_chunks=8, seed=rng)
        assert first.shape[1] == 25
        rng2 = np.random.default_rng(3)
        assert np.array_equal(
            abr_request_states(n_sessions=2, n_chunks=8, seed=rng2), first
        )
