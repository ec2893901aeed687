"""Tests for the sharded query service subsystem (:mod:`repro.service`).

The service's contract is *bit-identical* results to a fresh single-engine
evaluation of the same database state, for every request kind, shard
count, and executor — sharding and process fan-out are pure execution
concerns and must never change an answer. ``tests/test_oracle.py`` holds
that contract across the serving matrix; this file pins fixed cases of
it and the parts underneath it (partitioning, merge edge cases, cache,
executors).
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from benchmarks.suite.oracle import answer
from repro.client import LocalClient, ServiceClient
from repro.data import Trajectory, TrajectoryDatabase
from repro.data.stats import spatial_scale
from repro.data.store import HeapStore
from repro.eval.harness import QueryAccuracyEvaluator
from repro.obs.metrics import Histogram
from repro.queries import QueryEngine, knn_query_batch, similarity_query_batch
from repro.obs.tracing import mint_trace_id
from repro.service import (
    HistogramRequest,
    KnnRequest,
    QueryService,
    RangeRequest,
    Response,
    ShardExecutionError,
    ShardExecutor,
    ShardManager,
    ShardRuntime,
)
from repro.service import executors as executors_module
from repro.service._sync import RWLock
from repro.service.replication import _Message
from repro.service.requests import CacheLookup
from repro.workloads import RangeQueryWorkload
from tests.conftest import knn_suite, make_trajectory, serving_db


def empty_shard_snapshot():
    """Shard 1 of a 2-shard manager over a 1-trajectory database: empty."""
    manager = ShardManager.create(serving_db(1), n_shards=2)
    snapshot = manager.export_snapshots(HeapStore())[1]
    assert snapshot.offsets.resolve().tolist() == [0]
    return snapshot


@pytest.fixture(scope="module")
def served_db():
    return serving_db(20)


@pytest.fixture(scope="module")
def served_workload(served_db):
    return RangeQueryWorkload.from_data_distribution(served_db, 20, seed=3)


def snapshot_rows(snapshot) -> list[np.ndarray]:
    """The point arrays of a snapshot's members, in row order."""
    matrix = snapshot.matrix.resolve()
    offsets = snapshot.offsets.resolve()
    return [matrix[a:b] for a, b in zip(offsets[:-1], offsets[1:])]


def same_points(rows, trajectories) -> bool:
    return len(rows) == len(trajectories) and all(
        np.array_equal(row, t.points) for row, t in zip(rows, trajectories)
    )


class TestPartitioning:
    def test_hash_partition_is_exhaustive_and_disjoint(self, small_db):
        """Global id ``g`` starts on shard ``g % K`` at position ``g // K``:
        shard ``s``'s snapshot rows are ``db[s::K]``."""
        manager = ShardManager.create(small_db, 3)
        snapshots = manager.export_snapshots(HeapStore())
        assert [(s.index, s.n_shards) for s in snapshots] == [(0, 3), (1, 3), (2, 3)]
        for s, snapshot in enumerate(snapshots):
            assert same_points(snapshot_rows(snapshot), small_db[s::3])

    def test_more_shards_than_trajectories_gives_empty_shards(self, small_db):
        n_shards = len(small_db) + 4
        manager = ShardManager.create(small_db, n_shards=n_shards)
        assert manager.n_shards == n_shards
        sizes = [
            len(snapshot_rows(s)) for s in manager.export_snapshots(HeapStore())
        ]
        assert sizes == [1] * len(small_db) + [0] * 4

    def test_ingest_routes_new_ids_to_gid_mod_k(self, small_db):
        manager = ShardManager.create(small_db, 3)
        batch = [make_trajectory(n=6, seed=77 + i) for i in range(4)]
        routed = manager.plan_ingest(batch)
        # batch[j] takes global id n + j, so shard s gets the j with
        # n + j == s (mod 3), in batch order.
        n = len(small_db)
        assert routed == {s: batch[(s - n) % 3 :: 3] for s in range(3)}

    def test_zero_shards_rejected(self, small_db):
        with pytest.raises(ValueError, match="n_shards"):
            ShardManager.create(small_db, 0)


class TestShardManager:
    def test_database_roundtrip_preserves_global_order(self, small_db):
        manager = ShardManager.create(small_db, n_shards=3)
        rebuilt = manager.database()
        assert len(rebuilt) == len(small_db)
        for tid in range(len(small_db)):
            assert np.array_equal(rebuilt[tid].points, small_db[tid].points)

    def test_extent_matches_database_bounding_box(self, small_db):
        manager = ShardManager.create(small_db, n_shards=3)
        assert manager.extent() == small_db.bounding_box

    def test_ingest_assigns_sequential_ids_and_bumps_epoch(self, small_db):
        manager = ShardManager.create(small_db, n_shards=2)
        assert manager.epoch == 0
        batch = [make_trajectory(n=5, seed=900 + i) for i in range(3)]
        manager.plan_ingest(batch)
        assert manager.epoch == 0
        manager.commit_ingest(batch)
        assert manager.epoch == 1
        assert manager.n_trajectories == len(small_db) + 3
        for j, traj in enumerate(batch):
            assert manager.trajectory(len(small_db) + j) is traj
        # reference materialization equals extended()
        reference = small_db.extended(batch)
        rebuilt = manager.database()
        for tid in range(len(reference)):
            assert np.array_equal(rebuilt[tid].points, reference[tid].points)
        assert manager.extent() == reference.bounding_box

    def test_ingest_rejects_non_trajectories(self, small_db):
        manager = ShardManager.create(small_db, n_shards=2)
        with pytest.raises(TypeError):
            manager.plan_ingest([np.zeros((3, 3))])

    def test_trajectory_lookup(self, small_db):
        manager = ShardManager.create(small_db, n_shards=3)
        assert np.array_equal(manager.trajectory(5).points, small_db[5].points)
        with pytest.raises(KeyError):
            manager.trajectory(999)
        with pytest.raises(KeyError):
            manager.trajectory(-1)


@pytest.mark.parametrize("executor", ["serial", "process"])
class TestServiceParity:
    """Acceptance: K >= 2 sharded results == single-engine results, bitwise."""

    def test_all_request_kinds_match_single_engine(
        self, served_db, served_workload, executor
    ):
        engine = QueryEngine(served_db)
        eps = 0.10 * spatial_scale(served_db)
        delta = 0.15 * spatial_scale(served_db)
        queries, windows = knn_suite(served_db, n_queries=4)
        ref_range = engine.evaluate(served_workload)
        ref_count = engine.count(served_workload.boxes)
        ref_hist = engine.histogram(16)
        ref_hist_norm = engine.histogram(16, normalize=True)
        ref_knn = knn_query_batch(served_db, queries, 3, windows, "edr", eps=eps)
        ref_sim = similarity_query_batch(served_db, queries, delta)
        with QueryService(
            served_db, n_shards=3, executor=executor
        ) as service:
            client = ServiceClient(service)
            assert client.range(served_workload).result_sets == ref_range
            counts = client.count(served_workload.boxes).counts
            assert counts.dtype == np.int64
            assert np.array_equal(counts, ref_count)
            assert np.array_equal(client.histogram(16).histogram, ref_hist)
            assert np.array_equal(
                client.histogram(16, normalize=True).histogram, ref_hist_norm
            )
            assert client.knn(queries, 3, windows, eps=eps).neighbors == ref_knn
            assert client.similarity(queries, delta).result_sets == ref_sim

    def test_ingest_matches_fresh_engine_on_final_state(
        self, served_db, served_workload, executor
    ):
        extra = [make_trajectory(n=8, seed=500 + i) for i in range(6)]
        final = served_db.extended(extra)
        engine = QueryEngine(final)
        eps = 0.10 * spatial_scale(served_db)
        queries, windows = knn_suite(served_db, n_queries=4)
        with QueryService(
            served_db, n_shards=3, executor=executor
        ) as service:
            client = ServiceClient(service)
            assert service.ingest(extra) == len(extra)
            assert client.range(served_workload).result_sets == engine.evaluate(
                served_workload
            )
            assert np.array_equal(
                client.count(served_workload.boxes).counts,
                engine.count(served_workload.boxes),
            )
            # default histogram box follows the *current* (grown) extent
            assert np.array_equal(
                client.histogram(12).histogram, engine.histogram(12)
            )
            assert (
                client.knn(queries, 3, windows, eps=eps).neighbors
                == knn_query_batch(final, queries, 3, windows, "edr", eps=eps)
            )


def cluster_db(
    centers=(0.0, 100.0, 200.0, 300.0), per_cluster: int = 8, seed: int = 0
) -> TrajectoryDatabase:
    """Well-separated spatial clusters sharing one time range."""
    rng = np.random.default_rng(seed)
    trajs = []
    tid = 0
    for cx in centers:
        for _ in range(per_cluster):
            n = int(rng.integers(6, 14))
            xy = rng.uniform(-3.0, 3.0, size=(n, 2)) + [cx, 0.0]
            t = np.sort(rng.uniform(0.0, 100.0, size=n)) + np.arange(n) * 1e-3
            trajs.append(Trajectory(np.column_stack([xy, t]), traj_id=tid))
            tid += 1
    return TrajectoryDatabase(trajs)


def assert_knn_matches_local(db, queries, k, n_shards, executor, **options):
    """The service's kNN reply equals a fresh :class:`LocalClient`'s."""
    with LocalClient(db) as local, ServiceClient.for_database(
        db, n_shards=n_shards, executor=executor
    ) as service:
        want = local.knn(queries, k, **options)
        assert answer(service.knn(queries, k, **options)) == answer(want)


@pytest.mark.parametrize("executor", ["serial", "process"])
class TestKnnMerge:
    """The k-way ``(distance, id)`` merge over shard partials equals the
    single-database pairs on targeted tie and cluster data (the oracle in
    ``tests/test_oracle.py`` covers random data)."""

    def test_parity_on_clustered_data(self, executor):
        db = cluster_db()
        queries = [db[0], db[1]]  # both in the x=0 cluster
        assert_knn_matches_local(db, queries, 4, 4, executor, eps=5.0)

    def test_parity_on_one_cluster(self, executor):
        db = cluster_db(centers=(0.0,), per_cluster=12)
        assert_knn_matches_local(db, [db[0]], 3, 3, executor, eps=5.0)

    def test_parity_with_eps_spanning_the_clusters(self, executor):
        db = cluster_db(centers=(0.0, 100.0), per_cluster=6)
        assert_knn_matches_local(db, [db[0]], 5, 2, executor, eps=500.0)

    def test_parity_under_time_windows_and_ingest(self, executor):
        db = cluster_db(centers=(0.0, 150.0), per_cluster=6, seed=3)
        rng = np.random.default_rng(9)
        extra = []
        for j in range(4):
            n = 8
            xy = rng.uniform(-3.0, 3.0, size=(n, 2)) + [150.0, 0.0]
            t = np.sort(rng.uniform(0.0, 100.0, size=n)) + np.arange(n) * 1e-3
            extra.append(Trajectory(np.column_stack([xy, t]), traj_id=j))
        queries = [db[2]]
        windows = [(10.0, 60.0)]
        with LocalClient(db) as local, ServiceClient.for_database(
            db, n_shards=3, executor=executor
        ) as service:
            local.ingest(extra)
            service.ingest(extra)
            want = local.knn(queries, 3, time_windows=windows, eps=5.0)
            got = service.knn(queries, 3, time_windows=windows, eps=5.0)
            assert answer(got) == answer(want)

    @pytest.mark.parametrize("n_shards", [2, 3])
    def test_ties_at_k_boundary_rank_by_id(self, executor, n_shards):
        """Identical copies of one trajectory tie on distance; ``g % K``
        spreads them over every shard, and k cuts through the tied group,
        so only the ``(distance, id)`` order decides who is kept."""
        far = cluster_db(centers=(300.0,), per_cluster=3, seed=4)
        twin = cluster_db(centers=(0.0,), per_cluster=1, seed=5)[0]
        copies = [Trajectory(twin.points.copy(), traj_id=i) for i in range(7)]
        db = TrajectoryDatabase([*far, *copies])
        tied = list(range(len(far), len(db)))
        assert {gid % n_shards for gid in tied} == set(range(n_shards))
        k = 5  # keeps 5 of the 7 tied copies
        with LocalClient(db) as local, ServiceClient.for_database(
            db, n_shards=n_shards, executor=executor
        ) as service:
            for eps in (5.0, 0.5):
                want = local.knn([twin], k, eps=eps)
                got = service.knn([twin], k, eps=eps)
                assert answer(got) == answer(want)
                assert [gid for _, gid in got.pairs[0]] == tied[:k]
                assert len({d for d, _ in got.pairs[0]}) == 1


class TestRuntimeBackendSpec:
    @pytest.mark.parametrize("backend", ["grid"])
    def test_service_index_round_trip(self, backend):
        db = cluster_db(centers=(0.0, 50.0), per_cluster=5)
        boxes = [db[0].bounding_box, db[7].bounding_box]
        expected = QueryEngine(db).evaluate(boxes)
        with QueryService(db, n_shards=2, index=backend) as service:
            assert ServiceClient(service).range(boxes).result_sets == expected
            assert service.describe()["index"] == backend

    def test_unknown_backend_rejected(self):
        db = cluster_db(centers=(0.0,), per_cluster=4)
        with pytest.raises(ValueError, match=r"unknown index backend 'rtree'.*\['grid'\]"):
            QueryService(db, n_shards=2, index="rtree")


class TestServiceCacheAndStats:
    def test_repeat_request_hits_cache(self, served_db, served_workload):
        with QueryService(served_db, n_shards=2) as service:
            client = ServiceClient(service)
            first = client.range(served_workload)
            second = client.range(served_workload)
            assert not first.cached and second.cached
            assert second.result_sets == first.result_sets
            assert service.stats.summary()["range_cache_hits"] == 1

    def test_equal_requests_share_a_cache_line(self, served_db, served_workload):
        with QueryService(served_db, n_shards=2) as service:
            service.execute(RangeRequest.from_workload(served_workload))
            # a fresh request object over the same boxes must hit
            response = service.execute(
                RangeRequest.from_workload(list(served_workload.boxes))
            )
            assert response.cached

    def test_ingest_invalidates_cache_via_epoch(self, served_db, served_workload):
        with QueryService(served_db, n_shards=2) as service:
            client = ServiceClient(service)
            client.range(served_workload)
            service.ingest([make_trajectory(n=5, seed=321)])
            refreshed = client.range(served_workload)
            assert not refreshed.cached
            assert refreshed.epoch == 1

    def test_list_shaped_time_windows_are_served_and_cached(self, served_db):
        """JSON-decoded windows arrive as lists; they must not crash the key."""
        queries, windows = knn_suite(served_db, n_queries=2)
        as_lists = [list(w) for w in windows]
        with QueryService(served_db, n_shards=2) as service:
            client = ServiceClient(service)
            first = client.knn(queries, 2, as_lists)
            again = client.knn(queries, 2, tuple(windows))
            assert again.cached  # tuple- and list-shaped windows share a key
            assert again.neighbors == first.neighbors
            sim = client.similarity(queries, 1.0, as_lists)
            assert client.similarity(queries, 1.0, windows).cached
            assert sim.result_sets is not None

    def test_callable_measure_is_not_cached(self, served_db):
        queries, windows = knn_suite(served_db, n_queries=2)
        request = KnnRequest(
            tuple(queries), 2, tuple(windows), measure=lambda a, b: 1.0
        )
        assert request.cache_key() is None
        with QueryService(served_db, n_shards=2) as service:
            first = service.execute(request)
            second = service.execute(request)
            assert not first.cached and not second.cached

    def test_stats_summary_counts_latency(self, served_db, served_workload):
        with QueryService(served_db, n_shards=2) as service:
            client = ServiceClient(service)
            client.range(served_workload)
            client.range(served_workload)
            client.histogram(8)
            summary = service.stats.summary()
            assert summary["requests"] == 3
            assert summary["range_requests"] == 2
            assert summary["range_cache_hits"] == 1
            assert summary["range_mean_latency_ms"] >= 0.0
            assert summary["histogram_requests"] == 1

    def test_queue_instruments_absent_until_recorded(self, served_db):
        """Single-threaded transports never record queue stats, so their
        summary keeps the exact historical key set."""
        with QueryService(served_db, n_shards=2) as service:
            ServiceClient(service).histogram(8)
            summary = service.stats.summary()
            assert "queue_depth_hwm" not in summary
            assert "queue_wait_p99_ms" not in summary
            assert "queue_wait" not in service.stats.histograms()

    def test_queue_depth_hwm_and_wait_quantiles(self, served_db):
        with QueryService(served_db, n_shards=2) as service:
            stats = service.stats
            for depth in (1, 3, 2, 3, 1):
                stats.record_queue_depth(depth)
            rng = np.random.default_rng(11)
            waits = rng.uniform(1e-4, 0.2, size=200)
            for wait in waits:
                stats.record_queue_wait(float(wait))
            summary = stats.summary()
            assert summary["queue_depth_hwm"] == 3
            assert summary["queue_wait_max_ms"] == pytest.approx(
                1000.0 * waits.max()
            )
            # The histogram's accuracy contract: each reported quantile
            # sits within one bucket width of the exact sample quantile.
            hist = Histogram.from_json(stats.histograms()["queue_wait"])
            exact_sorted = np.sort(waits)
            for q, key in (
                (0.50, "queue_wait_p50_ms"),
                (0.95, "queue_wait_p95_ms"),
                (0.99, "queue_wait_p99_ms"),
            ):
                exact = float(
                    np.quantile(exact_sorted, q, method="inverted_cdf")
                )
                approx = summary[key] / 1000.0
                idx = hist.bucket_index(exact)
                width = hist.upper_edge(idx) - hist.lower_edge(idx)
                assert abs(approx - exact) <= width
            assert "queue_wait" in stats.histograms()

    def test_describe_reports_shard_layout(self, served_db):
        with QueryService(served_db, n_shards=3) as service:
            info = service.describe()
            assert info["n_shards"] == 3
            assert info["trajectories"] == len(served_db)
            assert len(info["shards"]) == 3
            assert sum(s["base_trajectories"] for s in info["shards"]) == len(
                served_db
            )

    def test_closed_service_refuses_requests(self, served_db, served_workload):
        service = QueryService(served_db, n_shards=2)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            ServiceClient(service).range(served_workload)

    def test_failed_delivery_leaves_manager_uncommitted(
        self, served_db, served_workload
    ):
        """A dead worker at ingest must not desynchronize the manager."""
        with QueryService(served_db, n_shards=2, executor="process") as service:
            client = ServiceClient(service)
            baseline = client.range(served_workload).result_sets
            for proc in service._executor._procs:
                proc.terminate()
                proc.join()
            with pytest.raises(ShardExecutionError):
                service.ingest([make_trajectory(n=5, seed=1)])
            # nothing committed: same epoch, same membership...
            assert service.manager.epoch == 0
            assert service.manager.n_trajectories == len(served_db)
            # ...and the service refuses to keep serving from diverged shards
            with pytest.raises(RuntimeError, match="failed state"):
                client.range(served_workload)
            # the manager's database still rebuilds the consistent state
            rebuilt = service.manager.database()
            from repro.queries import QueryEngine, knn_query_batch, similarity_query_batch

            assert QueryEngine(rebuilt).evaluate(served_workload) == baseline


class TestEpochLock:
    """The RWLock's non-blocking read side, which the event loop uses."""

    @staticmethod
    def _wait_for(predicate, timeout=10.0):
        deadline = time.monotonic() + timeout
        while not predicate():
            assert time.monotonic() < deadline, "condition never held"
            time.sleep(0.001)

    def test_try_read_succeeds_alongside_readers(self):
        lock = RWLock()
        assert lock.try_acquire_read()
        lock.acquire_read()
        assert lock.try_acquire_read()
        for _ in range(3):
            lock.release_read()
        # Every reader released: a writer gets in without waiting.
        lock.acquire_write()
        lock.release_write()

    def test_try_read_fails_while_a_writer_holds_the_lock(self):
        lock = RWLock()
        lock.acquire_write()
        assert not lock.try_acquire_read()
        lock.release_write()
        assert lock.try_acquire_read()
        lock.release_read()

    def test_try_read_fails_while_a_writer_waits(self):
        """Writer preference: once a writer queues behind a reader, the
        non-blocking read side refuses too, so the writer is not starved."""
        lock = RWLock()
        lock.acquire_read()
        acquired = threading.Event()
        release = threading.Event()

        def writer():
            with lock.write():
                acquired.set()
                release.wait(timeout=10.0)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            self._wait_for(lambda: lock._writers_waiting == 1)
            assert not lock.try_acquire_read()
            assert not acquired.is_set()
            lock.release_read()
            assert acquired.wait(timeout=10.0)
            assert not lock.try_acquire_read()
        finally:
            release.set()
            thread.join(timeout=10.0)
        assert lock.try_acquire_read()
        lock.release_read()


class TestServiceProbe:
    """``QueryService.probe``: the non-blocking cache probe."""

    def test_hit_is_answered_and_miss_handed_to_execute(self, served_db):
        request = HistogramRequest(8)
        with QueryService(served_db, n_shards=2) as service:
            trace = mint_trace_id()
            miss = service.probe(request, trace_id=trace)
            assert isinstance(miss, CacheLookup) and not miss.hit
            first = service.execute(request, trace_id=trace, lookup=miss)
            assert not first.cached
            # One request, one LRU probe, one span of each, one record.
            names = [s.name for s in service.tracer.spans(trace)]
            assert names.count("cache_lookup") == 1
            assert names.count("request") == 1
            assert service.stats.summary()["histogram_requests"] == 1
            hit = service.probe(request)
            assert isinstance(hit, Response) and hit.cached
            assert np.array_equal(hit.histogram, first.histogram)
            summary = service.stats.summary()
            assert summary["histogram_requests"] == 2
            assert summary["histogram_cache_hits"] == 1

    def test_miss_from_an_older_epoch_is_served_at_the_current_one(
        self, served_db
    ):
        request = HistogramRequest(8)
        with QueryService(served_db, n_shards=2) as service:
            service.execute(request)
            stale = service.probe(HistogramRequest(16))
            service.ingest([make_trajectory(n=5, seed=321)])
            response = service.execute(HistogramRequest(16), lookup=stale)
            assert response.epoch == 1 and not response.cached
            again = service.probe(HistogramRequest(16))
            assert isinstance(again, Response) and again.cached
            assert again.epoch == 1
            assert np.array_equal(again.histogram, response.histogram)

    def test_probe_never_waits_on_a_writer(self, served_db):
        request = HistogramRequest(8)
        with QueryService(served_db, n_shards=2) as service:
            service.execute(request)
            requests_before = service.stats.summary()["requests"]
            service._epoch_lock.acquire_write()
            try:
                assert service.probe(request) is None
            finally:
                service._epoch_lock.release_write()
            # Nothing was looked up or recorded by the refused probe.
            assert service.stats.summary()["requests"] == requests_before
            assert isinstance(service.probe(request), Response)

    def test_closed_service_probe_defers_to_execute(self, served_db):
        request = HistogramRequest(8)
        service = QueryService(served_db, n_shards=2)
        service.execute(request)
        service.close()
        assert service.probe(request) is None
        with pytest.raises(RuntimeError, match="closed"):
            service.execute(request)


class TestShardRuntimeTiers:
    def test_small_ingest_keeps_base_engine(self, served_db, served_workload):
        """Streaming ingest must not rebuild the CSR layout per batch."""
        with QueryService(
            served_db, n_shards=2, min_compact_points=10**9
        ) as service:
            client = ServiceClient(service)
            client.range(served_workload)  # builds base engines
            runtimes = service._executor.runtimes
            engines = [r.engine for r in runtimes]
            service.ingest([make_trajectory(n=6, seed=41 + i) for i in range(4)])
            assert [r.engine for r in runtimes] == engines  # same objects
            assert sum(r.n_pending for r in runtimes) == 4
            final = service.database()
            assert client.range(served_workload).result_sets == QueryEngine(
                final
            ).evaluate(served_workload)

    def test_compaction_folds_pending_and_preserves_results(
        self, served_db, served_workload
    ):
        with QueryService(
            served_db, n_shards=2, min_compact_points=1, compact_threshold=0.0
        ) as service:
            service.ingest([make_trajectory(n=6, seed=51 + i) for i in range(4)])
            runtimes = service._executor.runtimes
            assert all(r.n_pending == 0 for r in runtimes)
            assert sum(r.compactions for r in runtimes) >= 1
            final = service.database()
            assert ServiceClient(service).range(served_workload).result_sets == QueryEngine(
                final
            ).evaluate(served_workload)

    def test_empty_shard_answers_every_kind(self):
        runtime = ShardRuntime(empty_shard_snapshot())
        db = serving_db(6)
        workload = RangeQueryWorkload.from_data_distribution(db, 4, seed=0)
        queries, windows = knn_suite(db, n_queries=2)
        assert runtime.op_range(workload.boxes) == [set()] * 4
        assert runtime.op_count(workload.boxes).tolist() == [0] * 4
        assert runtime.op_histogram(8, db.bounding_box).sum() == 0
        assert runtime.op_knn(queries, 2, windows) == [[], []]
        assert runtime.op_similarity(queries, 1.0) == [set(), set()]

    def test_ingest_into_initially_empty_shard(self, served_workload, served_db):
        """Shard 1 of 2 maps its local position ``i`` to global id
        ``1 + 2 i``, for pending rows as for base rows."""
        runtime = ShardRuntime(empty_shard_snapshot(), min_compact_points=10**9)
        runtime.ingest(list(served_db))
        expected = [
            {1 + 2 * i for i in ids}
            for ids in QueryEngine(served_db).evaluate(served_workload)
        ]
        assert runtime.op_range(served_workload.boxes) == expected
        runtime.compact()
        assert runtime.n_pending == 0
        assert runtime.op_range(served_workload.boxes) == expected


class TestExecutors:
    def test_executor_rejects_unknown_kind(self, small_db):
        manager = ShardManager.create(small_db, 2)
        with pytest.raises(ValueError, match="unknown executor"):
            ShardExecutor(manager.export_snapshots(HeapStore()), "threads")

    def test_process_executor_runs_one_worker_per_shard(self, served_db):
        manager = ShardManager.create(served_db, 3)
        snapshots = manager.export_snapshots(HeapStore())
        with ShardExecutor(snapshots, "process") as executor:
            assert executor.n_workers == 3
            pids = executor.worker_pids()
            assert len(set(pids)) == 3
            infos = executor.broadcast("info", {})
            assert sum(i["base_trajectories"] for i in infos) == len(served_db)

    def test_process_executor_propagates_shard_errors(self, served_db):
        manager = ShardManager.create(served_db, 2)
        snapshots = manager.export_snapshots(HeapStore())
        with ShardExecutor(snapshots, "process") as executor:
            with pytest.raises(ShardExecutionError, match="shard 0"):
                executor.broadcast("no_such_op", {})
            # the worker survives an error and keeps serving
            assert len(executor.broadcast("info", {})) == 2

    def test_in_process_shard_reraises_the_runtime_error_and_keeps_serving(
        self, served_db
    ):
        manager = ShardManager.create(served_db, 2)
        snapshots = manager.export_snapshots(HeapStore())
        with ShardExecutor(snapshots, "serial") as executor:
            # the runtime's own exception type, not a ShardExecutionError
            with pytest.raises(KeyError, match="no_such_op"):
                executor.broadcast("no_such_op", {})
            assert len(executor.broadcast("info", {})) == 2
            assert executor.liveness()["replicas_live"] == 2

    def test_dead_worker_surfaces_as_shard_execution_error(self, served_db):
        """A killed worker must not leak BrokenPipeError or stale replies."""
        manager = ShardManager.create(served_db, 2)
        snapshots = manager.export_snapshots(HeapStore())
        with ShardExecutor(snapshots, "process") as executor:
            executor._procs[0].terminate()
            executor._procs[0].join()
            with pytest.raises(ShardExecutionError, match="shard 0"):
                executor.broadcast("info", {})
            # repeatable: no stale reply from the earlier failed round
            with pytest.raises(ShardExecutionError, match="shard 0"):
                executor.broadcast("info", {})
            # targeted ingest to the live shard alone still works
            executor.ingest({1: [make_trajectory(n=4, seed=2)]})
            with pytest.raises(ShardExecutionError):
                executor.broadcast("info", {})

    def test_process_executor_close_is_idempotent(self, served_db):
        manager = ShardManager.create(served_db, 2)
        executor = ShardExecutor(manager.export_snapshots(HeapStore()), "process")
        executor.close()
        executor.close()
        with pytest.raises(ShardExecutionError, match="closed"):
            executor.broadcast("info", {})

    def test_unpicklable_request_fails_every_shard_and_leaves_pipes_clean(
        self, served_db, served_workload
    ):
        """A lambda measure cannot be pickled: both shards report ``send
        failed`` in one error, no byte reaches a pipe, and the next request
        is answered correctly."""
        queries, windows = knn_suite(served_db, n_queries=2)
        request = KnnRequest(
            tuple(queries), 2, tuple(windows), measure=lambda a, b: 1.0
        )
        with QueryService(served_db, n_shards=2, executor="process") as service:
            with pytest.raises(ShardExecutionError) as excinfo:
                service.execute(request)
            message = str(excinfo.value)
            assert "shard 0: send failed" in message
            assert "shard 1: send failed" in message
            answer = service.execute(RangeRequest.from_workload(served_workload))
            assert answer.result_sets == QueryEngine(served_db).evaluate(
                served_workload
            )

    def test_broadcast_pickles_once_and_sends_the_same_bytes_to_every_shard(
        self, served_db, monkeypatch
    ):
        made: list[_Message] = []

        class RecordingMessage(_Message):
            def __init__(self, op, payload) -> None:
                super().__init__(op, payload)
                made.append(self)

        monkeypatch.setattr(executors_module, "_Message", RecordingMessage)
        manager = ShardManager.create(served_db, 3)
        boxes = RangeQueryWorkload.from_data_distribution(served_db, 5, seed=9).boxes
        snapshots = manager.export_snapshots(HeapStore())
        with ShardExecutor(snapshots, "process") as executor:
            before = executor.transport_stats()
            executor.broadcast("range", {"boxes": boxes})
            after = executor.transport_stats()
        assert len(made) == 1
        blob = made[0].blob()
        assert after["messages_sent"] - before["messages_sent"] == 3
        assert after["pipe_bytes_sent"] - before["pipe_bytes_sent"] == 3 * len(blob)

    def test_serial_executor_matches_runtime_directly(self, served_db):
        manager = ShardManager.create(served_db, 2)
        executor = ShardExecutor(manager.export_snapshots(HeapStore()), "serial")
        boxes = RangeQueryWorkload.from_data_distribution(served_db, 5, seed=9).boxes
        partials = executor.broadcast("range", {"boxes": boxes})
        assert len(partials) == 2
        merged = [set() for _ in boxes]
        for shard_sets in partials:
            for qi, ids in enumerate(shard_sets):
                merged[qi] |= ids
        assert merged == QueryEngine(served_db).evaluate(boxes)


class TestServiceBackedEvaluation:
    def test_harness_scores_identical_through_service(self, served_db):
        from repro.baselines import get_baseline, simplify_database

        evaluator = QueryAccuracyEvaluator(served_db)
        simplified = simplify_database(
            served_db, 0.4, get_baseline("Top-Down(E,SED)")
        )
        tasks = ("range", "knn_edr", "similarity")
        direct = evaluator.evaluate(simplified, tasks)
        with QueryService(simplified, n_shards=3) as service:
            via_service = evaluator.evaluate(
                simplified, tasks, client=ServiceClient(service)
            )
        assert via_service == direct

    def test_harness_rejects_mismatched_service(self, served_db):
        evaluator = QueryAccuracyEvaluator(served_db)
        wrong = serving_db(6, seed=123)
        with QueryService(wrong, n_shards=2) as service:
            with pytest.raises(ValueError, match="service"):
                evaluator.evaluate(
                    served_db, ("range",), client=ServiceClient(service)
                )


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 100),
    n_shards=st.integers(2, 5),
)
def test_property_sharded_range_equals_engine(seed, n_shards):
    db = TrajectoryDatabase(
        [make_trajectory(n=4 + (seed + i) % 8, seed=seed + i) for i in range(9)]
    )
    workload = RangeQueryWorkload.from_data_distribution(db, 8, seed=seed)
    with QueryService(db, n_shards=n_shards) as service:
        client = ServiceClient(service)
        assert client.range(workload).result_sets == QueryEngine(db).evaluate(
            workload
        )
        assert np.array_equal(
            client.count(workload.boxes).counts,
            QueryEngine(db).count(workload.boxes),
        )


def test_t2vec_measure_rejected_at_request_construction():
    db = serving_db(6)
    with pytest.raises(ValueError, match="t2vec"):
        KnnRequest((db[0],), 2, measure="t2vec")
