"""Replication & failover — the property suite.

Four contracts:

* **Transparent failover** — with ``replicas >= 2``, SIGKILL of any single
  worker mid-workload loses zero queries: a sibling replica answers, the
  request layer never sees an error, and answers stay bit-identical to a
  fresh single engine. Only when *every* replica of a shard is dead does
  a query raise, naming exactly that shard.
* **Restart = snapshot + replay** — a replica restarted by
  ``restart_dead()`` (or the watchdog) rebuilds from the shard's original
  snapshot segments plus the replayed ingest log and answers identically
  to the replicas that never died.
* **Chaos closure** — arbitrary interleavings of ingest / query / kill /
  restart across {heap, shm} x {serial, process} keep the service
  bit-identical to the reference at every query point. The oracle in
  ``tests/test_oracle.py`` drives the same rules through the whole
  serving matrix; the fixed scenarios here pin the named cases.
* **Client-visible failover** — the async client retries a reset query
  but never an ingest, and a served ``--replicas 2`` configuration loses
  zero requests across a SIGKILL.
"""

from __future__ import annotations

import asyncio
import os
import signal
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.client import AsyncRemoteClient, LocalClient, ServiceClient
from repro.data.store import shared_memory_available
from repro.service import (
    QueryService,
    ShardExecutionError,
    Watchdog,
    serve_in_thread,
)
from repro.service.replication import _Message
from repro.workloads import RangeQueryWorkload
from tests.conftest import initial_db, make_trajectory, service_segments, serving_db
from tests.test_oracle import assert_answers_match, kill_replica, oracle_requests


# ---------------------------------------------------------------------------
# Topology & probes
# ---------------------------------------------------------------------------

class TestReplicaTopology:
    def test_replicas_spawn_probe_and_report(self):
        db = initial_db(11, n=8)
        with QueryService(
            db, n_shards=3, executor="process", replicas=2
        ) as service:
            executor = service._executor
            assert executor.n_workers == 6
            assert len(set(executor.worker_pids())) == 6
            probe = executor.liveness()
            assert probe["alive"] is True
            assert probe["dead_shards"] == []
            assert probe["replicas_live"] == probe["replicas_total"] == 6
            assert [s["shard"] for s in probe["shards"]] == [0, 1, 2]

            info = service.describe()
            assert info["replicas"] == 2
            assert info["replication"]["replicas_per_shard"] == 2
            assert info["replication"]["dead_shards"] == []

            report = service.metrics_report()
            assert report["replication"]["replicas_live"] == 6
            gauges = report["replication"]["counters"]["gauges"]
            assert gauges["replication.replicas_live"] == 6

    def test_parameter_validation(self):
        db = initial_db(1, n=4)
        with pytest.raises(ValueError, match="replicas"):
            QueryService(db, n_shards=2, replicas=0)

    def test_serial_executor_implements_the_same_probe_surface(self):
        db = initial_db(2, n=6)
        with QueryService(
            db, n_shards=2, executor="serial", replicas=2
        ) as service:
            executor = service._executor
            probe = executor.liveness()
            assert probe["alive"] is True
            assert probe["dead_shards"] == []
            assert probe["replicas_live"] == probe["replicas_total"] == 2
            assert executor.ping(deadline=0.1) == 0
            assert executor.restart_dead() == 0
            stats = executor.replication_stats()
            assert stats["replicas_per_shard"] == 1  # in-process: no peers
            assert stats["dead_shards"] == []
            assert service.metrics_report()["replication"]["replicas_live"] == 2
            info = service.describe()
            assert info["replicas"] == info["replication"]["replicas_per_shard"] == 1


# ---------------------------------------------------------------------------
# Failover & restart
# ---------------------------------------------------------------------------

class TestFailover:
    def test_single_kill_is_invisible_and_restart_replays_pending(self):
        seed = 23
        db = initial_db(seed, n=9)
        requests = oracle_requests(db, seed).values()
        current = db
        with QueryService(
            db, n_shards=3, executor="process", replicas=2
        ) as service:
            executor = service._executor
            client = ServiceClient(service)
            # A pending-tier batch the restarted replica must replay.
            batch = [make_trajectory(n=6, seed=9100 + i) for i in range(3)]
            service.ingest(batch)
            current = current.extended(batch)
            assert_answers_match(client, LocalClient(current), requests)

            kill_replica(executor.replica_sets[1].replicas[0])
            # Queries keep answering through the sibling replica.
            assert_answers_match(client, LocalClient(current), requests)
            probe = executor.liveness()
            assert probe["dead_shards"] == []
            assert probe["replicas_live"] == 5

            assert executor.restart_dead() == 1
            assert executor.liveness()["replicas_live"] == 6
            # The restarted replica answers too (snapshot + replayed log).
            assert_answers_match(client, LocalClient(current), requests)

            # Delta catch-up: ingest after the restart stays consistent.
            batch = [make_trajectory(n=5, seed=9200 + i) for i in range(2)]
            service.ingest(batch)
            current = current.extended(batch)
            assert_answers_match(client, LocalClient(current), requests)

            stats = executor.replication_stats()
            assert stats["counters"]["counters"]["replication.restarts"] == 1
            latency = stats["counters"]["histograms"][
                "replication.restart_latency_s"
            ]
            assert latency["count"] == 1

    def test_liveness_names_fully_dead_shard_without_any_query(self):
        db = initial_db(31, n=8)
        with QueryService(
            db, n_shards=3, executor="process", replicas=2
        ) as service:
            executor = service._executor
            for replica in list(executor.replica_sets[1].replicas):
                kill_replica(replica)
            # The non-blocking probe names the dead shard immediately —
            # no pipe traffic, no scatter needed to find out.
            probe = executor.liveness()
            assert probe["alive"] is False
            assert probe["dead_shards"] == [1]
            assert probe["replicas_live"] == 4

            with pytest.raises(ShardExecutionError) as excinfo:
                executor.broadcast("info", {})
            message = str(excinfo.value)
            assert "shard 1" in message
            assert "shard 0" not in message and "shard 2" not in message
            # Survivors drained clean.
            for shard in (0, 2):
                status, info = executor.replica_sets[shard].request(
                    _Message("info", {})
                )
                assert status == "ok" and info["index"] == shard

            # Both replicas come back, and the service serves again.
            assert executor.restart_dead() == 2
            assert executor.liveness()["dead_shards"] == []
            requests = oracle_requests(db, 31).values()
            assert_answers_match(ServiceClient(service), LocalClient(db), requests)

    def test_restart_finds_replicas_killed_with_no_request_in_between(self):
        """SIGKILL every replica of a shard back to back — no query, no
        probe — and ``restart_dead()`` must still see them: the cached
        ``live`` flags are all stale."""
        seed = 37
        db = initial_db(seed, n=8)
        with QueryService(
            db, n_shards=2, executor="process", replicas=2
        ) as service:
            executor = service._executor
            for replica in list(executor.replica_sets[0].replicas):
                kill_replica(replica)
            assert executor.restart_dead() == 2
            batch = [make_trajectory(n=6, seed=9300 + i) for i in range(3)]
            service.ingest(batch)
            requests = oracle_requests(db, seed).values()
            assert_answers_match(
                ServiceClient(service), LocalClient(db.extended(batch)), requests
            )

    def test_hung_replica_misses_ping_deadline_and_is_retired(self):
        db = initial_db(41, n=8)
        with QueryService(
            db, n_shards=2, executor="process", replicas=2
        ) as service:
            executor = service._executor
            # Warm every replica first (under a spawn context workers can
            # still be importing) so a short deadline only means "hung".
            assert executor.ping(deadline=30.0) == 0
            victim = executor.replica_sets[0].replicas[0]
            os.kill(victim.proc.pid, signal.SIGSTOP)
            try:
                assert executor.ping(deadline=0.5) == 1
            finally:
                # retire() already SIGKILLed it; CONT is belt and braces
                # in case the test failed before retirement.
                try:
                    os.kill(victim.proc.pid, signal.SIGCONT)
                except ProcessLookupError:
                    pass
            stats = executor.replication_stats()
            counters = stats["counters"]["counters"]
            assert counters["replication.hung_replicas"] == 1
            assert executor.restart_dead() == 1
            assert executor.liveness()["replicas_live"] == 4
            requests = oracle_requests(db, 41).values()
            assert_answers_match(ServiceClient(service), LocalClient(db), requests)


# ---------------------------------------------------------------------------
# Watchdog
# ---------------------------------------------------------------------------

class TestWatchdog:
    def test_poll_once_restarts_a_killed_replica(self):
        seed = 51
        db = initial_db(seed, n=8)
        # Interval far in the future: the thread exists but this test
        # drives polls by hand for determinism.
        with QueryService(
            db,
            n_shards=2,
            executor="process",
            replicas=2,
            watchdog_interval=3600.0,
        ) as service:
            watchdog = service.watchdog
            assert watchdog is not None and watchdog.running
            kill_replica(service._executor.replica_sets[1].replicas[1])
            report = watchdog.poll_once()
            assert report["restarted"] == 1
            # The report shows what the probe SAW (pre-restart) ...
            assert report["replicas_live"] == 3
            # ... and the repair it triggered is visible right after.
            assert service._executor.liveness()["replicas_live"] == 4
            requests = oracle_requests(db, seed).values()
            assert_answers_match(ServiceClient(service), LocalClient(db), requests)
            stats = watchdog.stats()
            assert stats["ticks"] == 1
            assert stats["restarts"] == 1
            assert stats["errors"] == 0
            assert service.metrics_report()["watchdog"]["restarts"] == 1

    def test_background_thread_heals_without_intervention(self):
        seed = 61
        db = initial_db(seed, n=8)
        with QueryService(
            db,
            n_shards=2,
            executor="process",
            replicas=2,
            watchdog_interval=0.05,
            watchdog_deadline=5.0,
        ) as service:
            executor = service._executor
            kill_replica(executor.replica_sets[0].replicas[0])
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if executor.liveness()["replicas_live"] == 4:
                    break
                time.sleep(0.02)
            assert executor.liveness()["replicas_live"] == 4
            requests = oracle_requests(db, seed).values()
            assert_answers_match(ServiceClient(service), LocalClient(db), requests)
            watchdog = service.watchdog
        # close() stopped the thread before tearing the executor down.
        assert not watchdog.running

    def test_standalone_watchdog_never_raises(self):
        class Exploding:
            def ping(self, deadline):
                raise RuntimeError("boom")

            def liveness(self):
                raise RuntimeError("boom")

        watchdog = Watchdog(Exploding(), interval=3600.0)
        report = watchdog.poll_once()
        assert report["tick"] == 1
        stats = watchdog.stats()
        assert stats["errors"] == 1
        assert "boom" in stats["last_error"]


# ---------------------------------------------------------------------------
# Chaos: arbitrary interleavings stay bit-identical
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "store,executor",
    [("heap", "serial"), ("heap", "process"), ("shm", "process")],
)
@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 50),
    plan=st.lists(
        st.sampled_from(["ingest", "query", "kill", "restart"]),
        min_size=3,
        max_size=7,
    ),
)
def test_chaos_interleaving_matches_reference(store, executor, seed, plan):
    """Kill / restart at arbitrary points never change answers: the
    service stays bit-identical to a fresh single engine. Under shm the
    snapshot store's family stays at matrix+offsets per shard throughout:
    workers, killed or restarted, never add a segment."""
    if store == "shm" and not shared_memory_available():
        pytest.skip("no shared memory on this platform")
    n_shards = 2
    db = initial_db(seed, n=8)
    requests = oracle_requests(db, seed).values()
    current = db
    rng = np.random.default_rng(seed)
    next_seed = 50_000 + 1000 * seed
    with QueryService(
        db,
        n_shards=n_shards,
        executor=executor,
        store=store,
        # compact on most ingests, so restarts replay through compactions
        min_compact_points=8,
        **({"replicas": 2} if executor == "process" else {}),
    ) as service:
        exe = service._executor
        client = ServiceClient(service)
        for action in plan:
            if action == "ingest":
                batch = [
                    make_trajectory(n=5, seed=next_seed + i) for i in range(2)
                ]
                next_seed += 2
                service.ingest(batch)
                current = current.extended(batch)
            elif action == "query":
                assert_answers_match(client, LocalClient(current), requests)
            elif action == "kill" and hasattr(exe, "replica_sets"):
                replica_set = exe.replica_sets[
                    int(rng.integers(len(exe.replica_sets)))
                ]
                live = replica_set.live_replicas()
                if len(live) >= 2:  # never orphan a shard mid-plan
                    kill_replica(live[int(rng.integers(len(live)))])
            elif action == "restart":
                exe.restart_dead()
            if store == "shm":
                assert len(service_segments(service)) == 2 * n_shards
        exe.restart_dead()
        assert_answers_match(client, LocalClient(current), requests)


# ---------------------------------------------------------------------------
# Client-visible failover
# ---------------------------------------------------------------------------

def run(coro):
    return asyncio.run(coro)


class TestAsyncClientFailover:
    @pytest.fixture()
    def handle(self):
        handle = serve_in_thread(
            QueryService(serving_db(16), n_shards=2), close_service=True
        )
        try:
            yield handle
        finally:
            handle.stop()

    def _make_flaky(self, client):
        """Arm the live connection to reset exactly once at drain time —
        what a server-side failover/restart window looks like mid-send."""
        conn = client._conns[0]
        original = conn.writer.drain
        state = {"fired": False}

        async def flaky_drain():
            if not state["fired"]:
                state["fired"] = True
                raise ConnectionResetError("peer reset during failover")
            await original()

        conn.writer.drain = flaky_drain
        return state

    def test_reset_mid_query_is_retried_and_counted(self, handle):
        async def scenario():
            client = await AsyncRemoteClient.open(
                handle.host, handle.port, retries=3, retry_backoff=0.01
            )
            try:
                assert client.failover_retries == 0
                before = (await client.describe())["trajectories"]
                self._make_flaky(client)
                after = (await client.describe())["trajectories"]
                assert after == before
                assert client.failover_retries == 1
            finally:
                await client.close()

        run(scenario())

    def test_reset_mid_ingest_stays_fatal_and_uncounted(self, handle):
        async def scenario():
            client = await AsyncRemoteClient.open(
                handle.host, handle.port, retries=3, retry_backoff=0.01
            )
            try:
                await client.describe()
                self._make_flaky(client)
                with pytest.raises((ConnectionError, OSError)):
                    await client.ingest([make_trajectory(n=5, seed=1)])
                # Never replayed: the batch may have applied server-side.
                assert client.failover_retries == 0
            finally:
                await client.close()

        run(scenario())


def test_served_replicas_lose_zero_queries_across_kill():
    """The acceptance bar: ``--replicas 2``, SIGKILL any single worker
    mid-workload, every request comes back with the right answer."""
    db = serving_db(16)
    workload = RangeQueryWorkload.from_data_distribution(db, 5, seed=7)
    with LocalClient(db) as local:
        expected = local.count(workload.boxes).counts
    service = QueryService(
        db,
        n_shards=2,
        executor="process",
        replicas=2,
        watchdog_interval=0.1,
    )
    pids = service._executor.worker_pids()
    handle = serve_in_thread(service, close_service=True)
    try:

        async def scenario():
            client = await AsyncRemoteClient.open(handle.host, handle.port)
            try:
                assert client.server_info["replicas"] == 2
                answers = []
                for i in range(30):
                    if i == 10:
                        os.kill(pids[0], signal.SIGKILL)
                    answers.append((await client.count(workload.boxes)).counts)
                # Failover is server-side: the connection never reset.
                assert client.failover_retries == 0
                return answers

            finally:
                await client.close()

        answers = run(scenario())
        assert len(answers) == 30
        for counts in answers:
            assert np.array_equal(counts, expected)
    finally:
        handle.stop()
