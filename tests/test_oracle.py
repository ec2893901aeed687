"""The serving layer's differential oracle.

Every serving configuration answers bit-identically to a fresh in-process
engine over the same data: ``LocalClient(db.extended(all batches so
far))``, compared with the benchmark suite's own comparator
(:func:`benchmarks.suite.oracle.answer`). One hypothesis state machine
drives each cell of the config matrix through ingest, the five query
kinds, replica kills, whole-shard loss, restarts and reconnects. After
every step it checks the serving invariants (epochs, cache hits, store,
shared-memory segments, restarts, membership), and its teardown checks
that closing the configuration leaves no child process, thread or
segment behind.

The matrix covers every executor x store pair, two replicas on both
stores, and the socket transport on both executors. ``n_shards`` is drawn
per example.
"""

from __future__ import annotations

import multiprocessing
import os
import re
import signal
import threading
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from benchmarks.suite.oracle import answer
from repro.client import LocalClient, RemoteClient, ServiceClient
from repro.data import Trajectory
from repro.data.stats import spatial_scale
from repro.data.store import shared_memory_available
from repro.service import (
    CountRequest,
    HistogramRequest,
    KnnRequest,
    QueryService,
    RangeRequest,
    ShardExecutionError,
    SimilarityRequest,
    serve_in_thread,
)
from repro.service.replication import _Message
from repro.workloads import RangeQueryWorkload
from tests.conftest import initial_db, knn_suite, make_trajectory, service_segments


def oracle_requests(db, seed: int) -> dict:
    """The query suite the oracle replays over ``db``: all five kinds,
    each with and without its options."""
    workload = RangeQueryWorkload.from_data_distribution(db, 6, seed=seed)
    # Plus the whole initial extent, which most ingested points fall in.
    boxes = (*workload.boxes, db.bounding_box)
    queries, windows = knn_suite(db, n_queries=2, seed=seed)
    queries, windows = tuple(queries), tuple(windows)
    eps = 0.10 * spatial_scale(db)
    delta = 0.15 * spatial_scale(db)
    return {
        "range": RangeRequest(boxes),
        "count": CountRequest(boxes),
        "histogram": HistogramRequest(8),
        "histogram_normalized": HistogramRequest(16, normalize=True),
        "knn": KnnRequest(queries, 2, windows, eps=eps),
        "knn_unwindowed": KnnRequest(queries, 3, eps=eps),
        "similarity": SimilarityRequest(queries, delta),
        "similarity_windowed": SimilarityRequest(queries, delta, windows),
    }


def assert_answers_match(client, reference, requests) -> list:
    """Serve each request on ``client`` and assert that its answer equals
    ``reference``'s: a fresh :class:`LocalClient` over the data ``client``
    should hold. Returns ``client``'s replies."""
    replies = [client.execute(request) for request in requests]
    for request, reply in zip(requests, replies):
        assert answer(reply) == answer(reference.execute(request)), (
            f"{request.kind} diverged from a fresh engine"
        )
    return replies


def kill_replica(replica) -> None:
    os.kill(replica.proc.pid, signal.SIGKILL)
    replica.proc.join(timeout=5.0)


@dataclass(frozen=True)
class Cell:
    """One serving configuration. ``transport="local"`` is a bare
    :class:`LocalClient`; the other fields then do not apply."""

    transport: str
    executor: str = "serial"
    store: str = "heap"
    replicas: int = 1
    #: Process cells spawn a worker per replica per shard, and again per
    #: restart, so they draw fewer examples.
    max_examples: int = 10


CELLS = {
    "local": Cell("local"),
    "serial-heap-service": Cell("service", "serial", "heap"),
    "serial-shm-remote": Cell("remote", "serial", "shm"),
    "process-heap-service-r2": Cell("service", "process", "heap", 2, 4),
    "process-shm-remote-r2": Cell("remote", "process", "shm", 2, 4),
    # One replica per shard: losing a shard loses its only copy, so the
    # restarted worker alone answers, from snapshot + replayed ingest log.
    "process-shm-service-r1": Cell("service", "process", "shm", 1, 4),
}

REQUEST_NAMES = (
    "range", "count", "histogram", "histogram_normalized",
    "knn", "knn_unwindowed", "similarity", "similarity_windowed",
)

#: A shard compacts once its pending tier holds this many points: one
#: long trajectory, or three short ones. Queries thus see compacted
#: bases and pending rows alike.
MIN_COMPACT_POINTS = 12
LONG, SHORT = 12, 4

#: Moves an ingest batch partly outside the current extent, so the
#: default-box histogram must re-resolve against the grown one.
FAR = np.array([60.0, -40.0, 0.0])


class ServingOracle(RuleBasedStateMachine):
    """One cell's configuration, driven step by step. ``current`` is the
    database its answers must match, and ``reference`` a fresh
    :class:`LocalClient` over it."""

    def __init__(self, cell: Cell) -> None:
        super().__init__()
        self.cell = cell
        self.threads_before = set(threading.enumerate())
        self.client = self.service = self.handle = None

    @initialize(
        seed=st.integers(0, 80),
        n_shards=st.integers(1, 4),
        opening=st.integers(1, 3),
    )
    def open(self, seed, n_shards, opening):
        """Serve ``initial_db(seed)``, then stream an opening batch of
        long trajectories: every example compacts at least one shard."""
        db = initial_db(seed)
        self.requests = oracle_requests(db, seed)
        self.current = db
        #: A fresh engine over ``current``, rebuilt at every epoch.
        self.reference = LocalClient(db)
        self.next_seed = 10_000 * (seed + 1)
        self.n_shards = n_shards
        self.epoch = 0
        #: Names of the requests answered at the current epoch: a repeat
        #: of one must be a cache hit, anything else a miss.
        self.served: set[str] = set()
        #: Replicas killed and not yet restarted, and restarts so far.
        self.dead = 0
        self.restarts = 0
        #: A shard is lost at most once per example: each loss respawns
        #: every replica of the shard, and spawns dominate the run time.
        self.lost_shard = False
        cell = self.cell
        if cell.transport == "local":
            self.client = LocalClient(db)
        else:
            self.service = QueryService(
                db,
                n_shards=n_shards,
                executor=cell.executor,
                store=cell.store,
                replicas=cell.replicas,
                min_compact_points=MIN_COMPACT_POINTS,
                compact_threshold=0.1,
            )
            if cell.transport == "remote":
                self.handle = serve_in_thread(self.service, close_service=True)
                self.client = RemoteClient(self.handle.host, self.handle.port)
            else:
                self.client = ServiceClient(self.service)
        self.ingest(opening, long=True, far=False)

    # ------------------------------------------------------------------ rules
    @rule(size=st.integers(0, 3), long=st.booleans(), far=st.booleans())
    def ingest(self, size, long, far):
        n = LONG if long else SHORT
        batch = [make_trajectory(n=n, seed=self.next_seed + i) for i in range(size)]
        if far:
            batch = [Trajectory(t.points + FAR) for t in batch]
        self.next_seed += size
        result = self.client.ingest(batch)
        self.current = self.current.extended(batch)
        assert result.added == size
        if size:
            assert result.epoch == self.epoch + 1
            self.epoch += 1
            self.served.clear()
            self.reference = LocalClient(self.current)
        else:
            assert result.epoch == self.epoch

    @rule(names=st.lists(st.sampled_from(REQUEST_NAMES), min_size=1, max_size=6))
    def query(self, names):
        replies = assert_answers_match(
            self.client, self.reference, [self.requests[n] for n in names]
        )
        for name, reply in zip(names, replies):
            assert reply.epoch == self.epoch
            assert reply.cached == (name in self.served), name
            self.served.add(name)

    @precondition(lambda self: self.cell.replicas >= 2)
    @rule(shard=st.integers(0, 3), which=st.integers(0, 1), at_once=st.booleans())
    def kill_one(self, shard, which, at_once):
        """SIGKILL a replica whose sibling lives on: the loss is invisible.
        ``at_once`` restarts it before anything has probed the set, so
        ``restart_dead`` must find it behind a stale live flag."""
        replica_set = self.service._executor.replica_sets[shard % self.n_shards]
        live = replica_set.live_replicas()
        if len(live) >= 2:
            kill_replica(live[which % len(live)])
            self.dead += 1
            if at_once:
                self.restart()

    @precondition(lambda self: self.cell.executor == "process" and not self.lost_shard)
    @rule(shard=st.integers(0, 3))
    def lose_shard(self, shard):
        """SIGKILL every replica of one shard: the loss is named, only that
        shard is, the others still answer, and ``restart_dead`` heals it."""
        self.lost_shard = True
        shard %= self.n_shards
        executor = self.service._executor
        for replica in executor.replica_sets[shard].live_replicas():
            kill_replica(replica)
            self.dead += 1
        probe = executor.liveness()
        assert probe["alive"] is False
        assert probe["dead_shards"] == [shard]
        assert probe["replicas_live"] == probe["replicas_total"] - self.dead
        with pytest.raises(ShardExecutionError) as excinfo:
            executor.broadcast("info", {})
        assert set(re.findall(r"shard (\d+)", str(excinfo.value))) == {str(shard)}
        for survivor in range(self.n_shards):
            if survivor != shard:
                status, info = executor.replica_sets[survivor].request(
                    _Message("info", {})
                )
                assert status == "ok" and info["index"] == survivor
        self.restart()
        assert executor.liveness()["dead_shards"] == []

    @precondition(lambda self: self.dead > 0)
    @rule()
    def restart(self):
        assert self.service._executor.restart_dead() == self.dead
        self.restarts += self.dead
        self.dead = 0

    @precondition(lambda self: self.handle is not None)
    @rule()
    def reconnect(self):
        self.client.close()
        self.client = RemoteClient(self.handle.host, self.handle.port)

    # ------------------------------------------------------------- invariants
    @invariant()
    def serving_state(self):
        # Every kind after every step, as a miss after each ingest and as
        # a cache hit otherwise.
        self.query(REQUEST_NAMES)
        info = self.client.describe()
        assert info["epoch"] == self.epoch
        assert info["trajectories"] == len(self.current)
        assert info["compaction"] == {"policy": "exact"}
        if self.service is None:
            return
        assert info["store"] == self.cell.store
        assert self.service.manager.n_trajectories == len(self.current)
        # Every shard holds its share, restarted replicas included.
        assert sum(
            shard["base_trajectories"] + shard["pending_trajectories"]
            for shard in info["shards"]
        ) == len(self.current)
        executor = self.service._executor
        probe = executor.liveness()
        assert probe["dead_shards"] == []
        assert probe["replicas_live"] == probe["replicas_total"] - self.dead
        replication = executor.replication_stats()["counters"]
        restarts = replication["counters"].get("replication.restarts", 0)
        latency = replication["histograms"].get("replication.restart_latency_s")
        assert restarts == self.restarts
        assert (latency["count"] if latency else 0) == self.restarts
        if self.cell.store == "shm":
            # Workers, killed, restarted or compacting, never add a
            # segment: matrix + offsets per shard is the whole family.
            assert len(service_segments(self.service)) == 2 * self.n_shards

    def teardown(self):
        summary = None
        if self.service is not None:
            summary = self.service.stats.summary()
        if self.client is not None:
            self.client.close()
        if self.handle is not None:
            self.handle.stop()
        elif self.service is not None:
            self.service.close()
        # Closing leaves nothing behind: no worker, no thread, no segment.
        assert multiprocessing.active_children() == []
        assert set(threading.enumerate()) <= self.threads_before
        if self.cell.store == "shm" and self.service is not None:
            assert service_segments(self.service) == []
        if summary is not None:
            # The exact policy folds pending rows and never drops a point.
            assert summary["compactions"] > 0
            assert summary["points_dropped"] == 0


@pytest.mark.parametrize(
    "cell", [pytest.param(cell, id=name) for name, cell in CELLS.items()]
)
def test_serving_matches_fresh_engine(cell):
    if cell.store == "shm" and not shared_memory_available():
        pytest.skip("no shared memory on this platform")
    run_state_machine_as_test(
        lambda: ServingOracle(cell),
        settings=settings(
            max_examples=cell.max_examples,
            stateful_step_count=8,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )
