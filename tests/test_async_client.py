"""The concurrent serving plane: pipelined clients, worker pool, admission.

What PR 9 must prove end to end:

* the worker pool changes latency, never answers — N pipelined async
  clients with interleaved ingest stay bit-identical to
  :class:`LocalClient` on both executors and both stores, and every
  request id each client sent comes back exactly once;
* admission control refuses with a typed ``Overloaded`` frame *before*
  executing (so the client may retry anything, including ingest), and
  the retry budget absorbs transient overload;
* the handshake enforces ``auth_token`` without echoing the secret;
* concurrent large response frames on one connection never interleave
  mid-frame (the per-connection write lock's regression test).
"""

from __future__ import annotations

import asyncio
import gc
import logging
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.client.aio as aio
import repro.service.server as server_module
from benchmarks.suite.oracle import answer
from repro.client import (
    AsyncRemoteClient,
    LocalClient,
    OverloadedError,
    RemoteClient,
    ServerError,
)
from repro.service import QueryService, serve_in_thread
from repro.service.requests import PROTOCOL_VERSION
from repro.workloads import RangeQueryWorkload
from tests.conftest import make_trajectory, serving_db, shifted_batch
from tests.test_server import _RawConnection


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------- handshake
class TestAuthToken:
    @pytest.fixture()
    def guarded(self):
        handle = serve_in_thread(
            QueryService(serving_db(16), n_shards=2),
            close_service=True,
            auth_token="s3cret",
        )
        try:
            yield handle
        finally:
            handle.stop()

    def test_correct_token_serves(self, guarded):
        with RemoteClient(
            guarded.host, guarded.port, auth_token="s3cret"
        ) as client:
            assert client.describe()["trajectories"] == 16

    def test_missing_token_rejected_without_echoing_secret(self, guarded):
        with pytest.raises(ServerError, match="AuthError") as excinfo:
            RemoteClient(guarded.host, guarded.port)
        assert "s3cret" not in str(excinfo.value)

    def test_wrong_token_rejected(self, guarded):
        with pytest.raises(ServerError, match="AuthError"):
            RemoteClient(guarded.host, guarded.port, auth_token="nope")

    @pytest.mark.parametrize("token", [123, None, "s3crët"])
    def test_non_string_or_non_ascii_token_is_a_mismatch(self, guarded, token):
        raw = _RawConnection(guarded.host, guarded.port)
        try:
            raw.send_frame(
                {"type": "hello", "version": PROTOCOL_VERSION, "token": token}
            )
            reply = raw.read_frame()
            assert reply["type"] == "error"
            assert reply["error"]["type"] == "AuthError"
            assert "s3cret" not in reply["error"]["message"]
            assert raw.read_frame() is None  # server closed the connection
        finally:
            raw.close()
        assert guarded.server.error_frames == 1

    def test_async_client_sends_token(self, guarded):
        async def scenario():
            async with await AsyncRemoteClient.open(
                guarded.host, guarded.port, auth_token="s3cret"
            ) as client:
                return await client.describe()

        assert run(scenario())["trajectories"] == 16

    def test_unguarded_server_ignores_stray_token(self):
        handle = serve_in_thread(
            QueryService(serving_db(16), n_shards=2), close_service=True
        )
        try:
            with RemoteClient(
                handle.host, handle.port, auth_token="anything"
            ) as client:
                assert client.describe()["trajectories"] == 16
        finally:
            handle.stop()


def test_hello_advertises_worker_pool():
    handle = serve_in_thread(
        QueryService(serving_db(16), n_shards=2),
        close_service=True,
        workers=3,
        max_inflight=7,
    )
    try:
        with RemoteClient(handle.host, handle.port) as client:
            assert client.server_info["workers"] == 3
            assert client.server_info["max_inflight"] == 7
    finally:
        handle.stop()


# ----------------------------------------------------------- admission control
class TestOverload:
    def test_refused_frame_is_typed_and_preexecution(self):
        """With one admission slot held, the next frame gets Overloaded —
        and because refusal happens before execution, the occupied slot's
        request still completes untouched."""
        db = serving_db(16)
        service = QueryService(db, n_shards=2)
        release = threading.Event()
        original = service.execute

        def gated(request, **kwargs):
            release.wait(timeout=30.0)
            return original(request, **kwargs)

        service.execute = gated
        handle = serve_in_thread(
            service, close_service=True, workers=1, max_inflight=1
        )
        workload = RangeQueryWorkload.from_data_distribution(db, 1, seed=3)

        async def scenario():
            client = await AsyncRemoteClient.open(
                handle.host, handle.port, max_inflight=8, retries=0
            )
            try:
                first = asyncio.create_task(client.range(workload))
                await asyncio.sleep(0.3)  # let it occupy the only slot
                with pytest.raises(OverloadedError):
                    await client.histogram(8)
                release.set()
                return await first
            finally:
                await client.close()

        try:
            response = run(scenario())
        finally:
            release.set()
            handle.stop()
        with LocalClient(db) as local:
            assert response.result_sets == local.range(workload).result_sets

    def test_cache_hit_is_answered_while_the_only_slot_is_held(self):
        """A hit is answered on the event loop before admission: with the
        only slot held, a request answered once before still comes back
        (cached), while a fresh one is refused; the server counts the hit
        in ``loop_hits``."""
        db = serving_db(16)
        service = QueryService(db, n_shards=2)
        release = threading.Event()
        release.set()
        original = service.execute

        def gated(request, **kwargs):
            release.wait(timeout=30.0)
            return original(request, **kwargs)

        service.execute = gated
        handle = serve_in_thread(
            service, close_service=True, workers=1, max_inflight=1
        )
        workload = RangeQueryWorkload.from_data_distribution(db, 1, seed=3)

        async def scenario():
            client = await AsyncRemoteClient.open(
                handle.host, handle.port, max_inflight=8, retries=0
            )
            try:
                warm = await client.histogram(8)
                release.clear()
                first = asyncio.create_task(client.range(workload))
                await asyncio.sleep(0.3)  # let it occupy the only slot
                again = await client.histogram(8)
                with pytest.raises(OverloadedError):
                    await client.histogram(16)
                release.set()
                await first
                return warm, again, await client.metrics()
            finally:
                await client.close()

        try:
            warm, again, metrics = run(scenario())
        finally:
            release.set()
            handle.stop()
        assert not warm.cached and again.cached
        assert np.array_equal(again.histogram, warm.histogram)
        server = metrics["server"]
        assert server["loop_hits"] == 1
        assert server["overloaded_frames"] == 1
        assert server["frames_served"] == 3  # warm, again, the range

    def test_retry_budget_absorbs_transient_overload(self):
        db = serving_db(16)
        service = QueryService(db, n_shards=2)
        original = service.execute

        def slow(request, **kwargs):
            time.sleep(0.03)
            return original(request, **kwargs)

        service.execute = slow
        handle = serve_in_thread(
            service, close_service=True, workers=1, max_inflight=2
        )
        workload = RangeQueryWorkload.from_data_distribution(db, 2, seed=3)

        async def scenario():
            client = await AsyncRemoteClient.open(
                handle.host,
                handle.port,
                max_inflight=16,
                retries=8,
                retry_backoff=0.02,
            )
            try:
                return await asyncio.gather(
                    *(client.range(workload) for _ in range(10))
                )
            finally:
                await client.close()

        try:
            responses = run(scenario())
        finally:
            handle.stop()
        with LocalClient(db) as local:
            want = local.range(workload).result_sets
        assert len(responses) == 10
        assert all(r.result_sets == want for r in responses)

    def test_overload_counted_in_server_metrics(self):
        db = serving_db(16)
        service = QueryService(db, n_shards=2)
        release = threading.Event()
        original = service.execute

        def gated(request, **kwargs):
            release.wait(timeout=30.0)
            return original(request, **kwargs)

        service.execute = gated
        handle = serve_in_thread(
            service, close_service=True, workers=1, max_inflight=1
        )
        workload = RangeQueryWorkload.from_data_distribution(db, 1, seed=3)

        async def scenario():
            client = await AsyncRemoteClient.open(
                handle.host, handle.port, max_inflight=8, retries=0
            )
            try:
                first = asyncio.create_task(client.range(workload))
                await asyncio.sleep(0.3)
                with pytest.raises(OverloadedError):
                    await client.histogram(8)
                release.set()
                await first
                return await client.metrics()
            finally:
                await client.close()

        try:
            metrics = run(scenario())
        finally:
            release.set()
            handle.stop()
        server = metrics["server"]
        assert server["overloaded_frames"] == 1
        assert server["max_inflight"] == 1
        assert server["workers"] == 1
        # Queue instruments surfaced through the ordinary summary.
        assert metrics["summary"]["queue_depth_hwm"] >= 1
        assert "queue_wait_p99_ms" in metrics["summary"]


# --------------------------------------------------- write-lock interleaving
def test_concurrent_large_frames_never_corrupt_the_stream():
    """Eight ~100KB+ responses pipelined on ONE connection: without the
    per-connection write lock the event loop could interleave two
    responses' chunks mid-frame and the framing would collapse."""
    db = serving_db(24)
    handle = serve_in_thread(
        QueryService(db, n_shards=3), close_service=True, workers=4
    )
    grids = [96, 112, 128, 96, 112, 128, 96, 128]

    async def scenario():
        client = await AsyncRemoteClient.open(
            handle.host, handle.port, max_inflight=len(grids)
        )
        try:
            return await asyncio.gather(
                *(client.histogram(g, normalize=True) for g in grids)
            )
        finally:
            await client.close()

    try:
        responses = run(scenario())
    finally:
        handle.stop()
    with LocalClient(db) as local:
        for grid, response in zip(grids, responses):
            np.testing.assert_array_equal(
                response.histogram, local.histogram(grid, normalize=True).histogram
            )


# ----------------------------------------------------------- unsendable frames
def test_oversized_request_leaves_no_inflight_entry(monkeypatch, caplog):
    """A request whose frame exceeds the cap fails at encode, before any
    reply future is registered: the in-flight table stays empty (it steers
    the least-loaded connection choice), the same client serves the next
    request, and close() has no orphaned future to report. RemoteClient
    sends through the same round trip."""
    monkeypatch.setattr(server_module, "MAX_FRAME_BYTES", 64 * 1024)
    db = serving_db(16)
    boxes = RangeQueryWorkload.from_data_distribution(db, 3, seed=1).boxes
    big = make_trajectory(n=5000, seed=3)  # ~160 KB of base64 points
    handle = serve_in_thread(QueryService(db, n_shards=2), close_service=True)

    async def scenario():
        client = await AsyncRemoteClient.open(handle.host, handle.port)
        try:
            with pytest.raises(ValueError, match="MAX_FRAME_BYTES"):
                await client.ingest([big])
            assert [len(conn.inflight) for conn in client._conns] == [0]
            return await client.count(boxes)
        finally:
            await client.close()

    with caplog.at_level(logging.ERROR, logger="asyncio"):
        try:
            response = run(scenario())
        finally:
            handle.stop()
        gc.collect()
    assert caplog.records == []
    with LocalClient(db) as local:
        np.testing.assert_array_equal(response.counts, local.count(boxes).counts)


# ------------------------------------------------------------ pipelined parity
PLANES = [
    ("serial", "heap"),
    ("serial", "shm"),
    ("process", "heap"),
    ("process", "shm"),
]


@pytest.mark.parametrize("executor,store", PLANES)
@settings(
    max_examples=2,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_pipelined_clients_match_local_and_echo_every_id(
    executor, store, data
):
    """N pipelined async clients, interleaved ingest + queries, both
    executors x both stores: responses bit-identical to LocalClient and
    every request id each client sent is echoed exactly once."""
    seed = data.draw(st.integers(0, 2**16), label="seed")
    n_phases = data.draw(st.integers(1, 2), label="phases")
    db = serving_db(12, seed=seed % 97)
    reference = serving_db(12, seed=seed % 97)
    service = QueryService(db, n_shards=2, executor=executor, store=store)
    handle = serve_in_thread(service, close_service=True, workers=4)

    echoed: dict[int, list[int]] = {}
    original_read = aio._read_frame

    async def recording_read(reader):
        frame = await original_read(reader)
        if frame.get("id") is not None:
            echoed.setdefault(id(reader), []).append(frame["id"])
        return frame

    workload = RangeQueryWorkload.from_data_distribution(db, 3, seed=5)

    async def scenario(local):
        clients = [
            await AsyncRemoteClient.open(
                handle.host, handle.port, max_inflight=4, retries=0
            )
            for _ in range(3)
        ]
        try:
            for phase in range(n_phases):
                # Ingest is a barrier: applied to server and reference
                # alike, then the next wave of queries pipelines freely.
                batch = shifted_batch(
                    db, 2, seed=seed + phase, shift=(35.0, -25.0)
                )
                result = await clients[phase % 3].ingest(batch)
                local.ingest(batch)
                assert result.added == 2

                async def wave(client):
                    return await asyncio.gather(
                        client.range(workload),
                        client.count(workload.boxes),
                        client.histogram(16),
                        client.range(workload),
                    )

                waves = await asyncio.gather(*(wave(c) for c in clients))
                want = [
                    answer(local.range(workload)),
                    answer(local.count(workload.boxes)),
                    answer(local.histogram(16)),
                    answer(local.range(workload)),
                ]
                for replies in waves:
                    assert [answer(r) for r in replies] == want
            return [c._next_id for c in clients]
        finally:
            for c in clients:
                await c.close()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(aio, "_read_frame", recording_read)
        try:
            with LocalClient(reference) as local:
                minted = run(scenario(local))
        finally:
            handle.stop()

    # Exactly-once echo accounting. Each client owns exactly one
    # connection (pool size 1) and mints ids 0..n-1 on it, so the echoed
    # id streams — one per reader — must be precisely those ranges: every
    # id each client sent came back exactly once, none dropped, none
    # duplicated, none leaked across connections.
    assert sorted(minted) == sorted(len(ids) for ids in echoed.values())
    assert sorted(sorted(ids) for ids in echoed.values()) == sorted(
        list(range(n)) for n in minted
    )
