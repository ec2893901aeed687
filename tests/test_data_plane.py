"""End-to-end tests of the zero-copy data plane.

Three contracts:

* **Bit-identity** — every query kind returns the same answer under every
  combination of {heap, shm} store x {serial, process} executor, with
  ingest batches interleaved between queries. The fresh single-engine
  evaluation is the common reference, so any two cells of the matrix are
  transitively identical. The oracle in ``tests/test_oracle.py`` drives
  the same matrix through arbitrary interleavings; this is its fixed
  three-shard scenario.
* **Worker death** — killing one process-executor worker mid-service
  surfaces as a single :class:`ShardExecutionError` naming exactly that
  shard; surviving shards keep answering (their pipes are drained clean).
* **Re-attach** — a rebuilt executor maps the *same* shared segments the
  first one did; nothing is re-snapshotted (the `/dev/shm` family is
  unchanged), which is the zero-copy restart the store layer exists for.
"""

from __future__ import annotations

import os
import pickle
import signal

import pytest

from repro.client import LocalClient, ServiceClient
from repro.data import TrajectoryDatabase
from repro.data.store import SharedMemoryStore, shared_memory_available
from repro.service import QueryService, ShardExecutionError, ShardManager
from repro.service.executors import ShardExecutor
from repro.service.replication import _Message
from tests.conftest import initial_db, make_trajectory, service_segments
from tests.test_oracle import assert_answers_match, oracle_requests

needs_shm = pytest.mark.skipif(
    not shared_memory_available(), reason="no shared memory on this platform"
)


# ---------------------------------------------------------------------------
# Bit-identity across the full data-plane matrix
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("store", ["heap", "shm"])
@pytest.mark.parametrize("executor", ["serial", "process"])
def test_query_matrix_bit_identical_under_interleaved_ingest(store, executor):
    """{heap,shm} x {serial,process} == fresh engine, always."""
    if store == "shm" and not shared_memory_available():
        pytest.skip("no shared memory on this platform")
    seed = 17
    db = initial_db(seed, n=9)
    requests = oracle_requests(db, seed).values()
    current = db
    next_seed = 9000
    with QueryService(
        db,
        n_shards=3,
        executor=executor,
        store=store,
        # tiny compaction bound: the second round compacts the base tier
        # (onto each runtime's heap), the first stays pending
        min_compact_points=12,
        compact_threshold=0.1,
    ) as service:
        assert service.describe()["store"] == store
        client = ServiceClient(service)

        def assert_snapshot_segments_only():
            # Compaction never adds segments: the snapshot store's two per
            # shard (matrix, offsets) are the whole family.
            if store == "shm":
                assert len(service_segments(service)) == 2 * 3

        assert_answers_match(client, LocalClient(current), requests)
        assert_snapshot_segments_only()
        for batch_size in (2, 3):
            batch = [
                make_trajectory(n=6, seed=next_seed + i)
                for i in range(batch_size)
            ]
            next_seed += batch_size
            service.ingest(batch)
            current = current.extended(batch)
            assert_snapshot_segments_only()
            assert_answers_match(client, LocalClient(current), requests)
            assert_snapshot_segments_only()
        assert service.stats.summary()["compactions"] > 0


# ---------------------------------------------------------------------------
# Worker death (satellite: one error, named shard, clean survivors)
# ---------------------------------------------------------------------------

@needs_shm
class TestWorkerDeath:
    def test_single_error_names_dead_shard_and_survivors_stay_clean(self):
        db = initial_db(3, n=10)
        with QueryService(
            db, n_shards=3, executor="process", store="shm"
        ) as service:
            executor = service._executor
            victim = 1
            os.kill(executor.worker_pids()[victim], signal.SIGKILL)
            executor._procs[victim].join(timeout=5.0)
            with pytest.raises(ShardExecutionError) as excinfo:
                executor.broadcast("info", {})
            message = str(excinfo.value)
            assert "shard 1" in message
            assert "shard 0" not in message and "shard 2" not in message
            # Survivors' pipes were drained clean: each answers the next
            # request with a fresh reply, not a leftover of the failed one.
            for shard in (0, 2):
                status, info = executor.replica_sets[shard].request(
                    _Message("info", {})
                )
                assert status == "ok" and info["index"] == shard

    def test_service_close_reclaims_killed_workers_segments(self):
        n_shards = 2
        db = initial_db(5, n=10)
        service = QueryService(
            db,
            n_shards=n_shards,
            executor="process",
            store="shm",
            # compact on the first ingest: each worker rebuilds its base
            # tier on its own heap, not in a new segment...
            min_compact_points=1,
            compact_threshold=0.0,
        )
        try:
            service.ingest([make_trajectory(n=6, seed=777)])
            assert service.stats.summary()["compactions"] >= 1
            # ...so the family is the snapshot's matrix+offsets per shard
            assert len(service_segments(service)) == 2 * n_shards
            # SIGKILL every worker: no close() runs in the children, and
            # there is nothing of theirs to orphan.
            for pid in service._executor.worker_pids():
                os.kill(pid, signal.SIGKILL)
            for proc in service._executor._procs:
                proc.join(timeout=5.0)
            assert len(service_segments(service)) == 2 * n_shards
        finally:
            service.close()
        # The snapshot store's close unlinked every segment it created.
        assert service_segments(service) == []


# ---------------------------------------------------------------------------
# Snapshots ship descriptors, not membership
# ---------------------------------------------------------------------------

@needs_shm
def test_shm_snapshot_pickle_stays_small_for_a_large_shard():
    """A shard's members follow from ``(index, n_shards)``, so an shm
    snapshot pickles to segment names alone, whatever the shard's size."""
    db = TrajectoryDatabase([make_trajectory(n=3, seed=i) for i in range(2000)])
    with SharedMemoryStore() as store:
        snapshot = ShardManager.create(db, 1).export_snapshot(store, 0)
        assert snapshot.offsets.shape == (2001,)
        assert len(pickle.dumps(snapshot)) < 1024


# ---------------------------------------------------------------------------
# Re-attach without re-snapshotting
# ---------------------------------------------------------------------------

@needs_shm
def test_rebuilt_executor_reattaches_same_segments():
    db = initial_db(7, n=9)
    manager = ShardManager.create(db, 3)
    with SharedMemoryStore() as store:
        snapshots = manager.export_snapshots(store)
        base_segments = sorted(
            f for f in os.listdir("/dev/shm") if f.startswith(store.prefix)
        )
        assert len(base_segments) == 6  # 3 shards x (matrix, offsets)

        first = ShardExecutor(snapshots, "process")
        os.kill(first.worker_pids()[0], signal.SIGKILL)
        first._procs[0].join(timeout=5.0)
        with pytest.raises(ShardExecutionError):
            first.broadcast("info", {})
        first.close()

        # Rebuild from the SAME snapshot handles: workers re-map the
        # existing segments; nothing is copied or re-exported.
        second = ShardExecutor(snapshots, "process")
        try:
            infos = second.broadcast("info", {})
            assert sum(i["base_trajectories"] for i in infos) == len(db)
        finally:
            second.close()
        after = sorted(
            f for f in os.listdir("/dev/shm") if f.startswith(store.prefix)
        )
        assert after == base_segments
