"""Shard-local kNN pruning: exactness, skip accounting, and extents.

The service may only skip a shard when the admissible lower bound proves
the shard cannot change any query's top-k — so every test here pins the
sharded result bit-identical to the single-database
:func:`repro.queries.knn.knn_query_batch` reference while also asserting
that skips actually happen on spatially separable data (and never lie).
"""

import numpy as np
import pytest

from repro.client import ServiceClient
from repro.data import BoundingBox, Trajectory, TrajectoryDatabase
from repro.queries import knn_query_batch
from repro.service import (
    QueryService,
    ShardExecutor,
    knn_shard_lower_bound,
)
from repro.service.service import chebyshev_gap


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


def as_pairs(pairs_lists):
    return [[(float(d), int(t)) for d, t in pairs] for pairs in pairs_lists]


class TestLowerBound:
    def test_empty_shard_is_infinite(self):
        box = BoundingBox(0.0, 1.0, 0.0, 1.0, 0.0, 1.0)
        assert np.isinf(knn_shard_lower_bound(None, box, 5, 1.0, True))

    def test_temporal_disjoint_is_infinite_for_any_measure(self):
        shard = BoundingBox(0.0, 1.0, 0.0, 1.0, 0.0, 1.0)
        window = BoundingBox(0.0, 1.0, 0.0, 1.0, 5.0, 6.0)
        assert np.isinf(knn_shard_lower_bound(shard, window, 5, 1.0, True))
        assert np.isinf(knn_shard_lower_bound(shard, window, 5, 1.0, False))

    def test_edr_gap_bound_is_window_length(self):
        shard = BoundingBox(0.0, 1.0, 0.0, 1.0, 0.0, 10.0)
        window = BoundingBox(50.0, 51.0, 0.0, 1.0, 0.0, 10.0)
        # Chebyshev gap 49 > eps 2 -> no match possible -> EDR >= n_window
        assert knn_shard_lower_bound(shard, window, 7, 2.0, True) == 7.0
        # ... but only under EDR; an opaque measure gets no spatial bound
        assert knn_shard_lower_bound(shard, window, 7, 2.0, False) == 0.0
        # gap <= eps: the shard may hold arbitrarily close candidates
        assert knn_shard_lower_bound(shard, window, 7, 100.0, True) == 0.0


class TestShardExtents:
    def test_manager_and_runtime_extents_agree(self):
        db = cluster_db()
        service = QueryService(db, n_shards=4, partitioner="spatial")
        try:
            runtime_extents = [
                r.extent() for r in service._executor.runtimes
            ]
            assert service.manager.shard_extents() == runtime_extents
        finally:
            service.close()

    def test_extents_grow_with_ingest(self):
        db = cluster_db(centers=(0.0, 100.0), per_cluster=4)
        service = QueryService(db, n_shards=2, partitioner="spatial")
        try:
            before = service.manager.shard_extents()
            far = Trajectory(
                np.array([[500.0, 0.0, 1.0], [501.0, 1.0, 2.0]]), traj_id=0
            )
            service.ingest([far])
            after = service.manager.shard_extents()
            grown = [
                a for a, b in zip(after, before) if a is not None and a != b
            ]
            assert grown  # the receiving shard's extent widened
            assert service.manager.shard_extents() == [
                r.extent() for r in service._executor.runtimes
            ]
        finally:
            service.close()

    def test_runtime_op_extent_exposed(self):
        db = cluster_db(centers=(0.0,), per_cluster=4)
        executor = ShardExecutor(
            QueryService(db, n_shards=2).manager.snapshots(), "serial"
        )
        extents = executor.broadcast("extent", {})
        assert any(isinstance(e, BoundingBox) for e in extents)


@pytest.mark.parametrize("executor", ["serial", "process"])
class TestKnnShardSkipping:
    def test_parity_with_skips_on_clustered_data(self, executor):
        db = cluster_db()
        queries = [db[0], db[1]]  # both in the x=0 cluster
        expected = as_pairs(
            knn_query_batch(db, queries, 4, eps=5.0, return_pairs=True)
        )
        service = QueryService(
            db, n_shards=4, partitioner="spatial", executor=executor
        )
        try:
            response = ServiceClient(service).knn(queries, 4, eps=5.0)
            assert as_pairs(response.pairs) == expected
            summary = service.stats.summary()
            assert summary["knn_shards_skipped"] >= 1
            assert (
                summary["knn_shards_dispatched"] + summary["knn_shards_skipped"]
                == 4
            )
        finally:
            service.close()

    def test_parity_without_spatial_separation(self, executor):
        """Hash-partitioned overlapping shards: nothing skippable, still exact."""
        db = cluster_db(centers=(0.0,), per_cluster=12)
        queries = [db[0]]
        expected = as_pairs(
            knn_query_batch(db, queries, 3, eps=5.0, return_pairs=True)
        )
        service = QueryService(db, n_shards=3, executor=executor)
        try:
            response = ServiceClient(service).knn(queries, 3, eps=5.0)
            assert as_pairs(response.pairs) == expected
            assert service.stats.summary()["knn_shards_skipped"] == 0
        finally:
            service.close()

    def test_parity_with_large_eps_disables_spatial_skips(self, executor):
        """eps spanning the clusters: the gap bound cannot fire, results exact."""
        db = cluster_db(centers=(0.0, 100.0), per_cluster=6)
        queries = [db[0]]
        expected = as_pairs(
            knn_query_batch(db, queries, 5, eps=500.0, return_pairs=True)
        )
        service = QueryService(
            db, n_shards=2, partitioner="spatial", executor=executor
        )
        try:
            response = ServiceClient(service).knn(queries, 5, eps=500.0)
            assert as_pairs(response.pairs) == expected
        finally:
            service.close()

    def test_parity_under_time_windows_and_ingest(self, executor):
        db = cluster_db(centers=(0.0, 150.0), per_cluster=6, seed=3)
        queries = [db[2]]
        windows = [(10.0, 60.0)]
        service = QueryService(
            db, n_shards=3, partitioner="spatial", executor=executor
        )
        try:
            rng = np.random.default_rng(9)
            extra = []
            for j in range(4):
                n = 8
                xy = rng.uniform(-3.0, 3.0, size=(n, 2)) + [150.0, 0.0]
                t = np.sort(rng.uniform(0.0, 100.0, size=n)) + np.arange(n) * 1e-3
                extra.append(Trajectory(np.column_stack([xy, t]), traj_id=j))
            service.ingest(extra)
            reference_db = service.database()
            expected = as_pairs(
                knn_query_batch(
                    reference_db, queries, 3, windows, eps=5.0, return_pairs=True
                )
            )
            response = ServiceClient(service).knn(
                queries, 3, time_windows=windows, eps=5.0
            )
            assert as_pairs(response.pairs) == expected
        finally:
            service.close()

    def test_knn_after_many_queries_still_counts(self, executor):
        """Counters accumulate across requests; cache hits dispatch nothing."""
        db = cluster_db(centers=(0.0, 100.0), per_cluster=6)
        queries = [db[0]]
        service = QueryService(
            db, n_shards=2, partitioner="spatial", executor=executor
        )
        try:
            ServiceClient(service).knn(queries, 3, eps=5.0)
            first = service.stats.summary()["knn_shards_dispatched"]
            ServiceClient(service).knn(queries, 3, eps=5.0)  # cache hit
            assert service.stats.summary()["knn_shards_dispatched"] == first
        finally:
            service.close()


class TestRuntimeBackendSpec:
    @pytest.mark.parametrize("backend", ["grid"])
    def test_service_index_round_trip(self, backend):
        db = cluster_db(centers=(0.0, 50.0), per_cluster=5)
        boxes = [db[0].bounding_box, db[7].bounding_box]
        from repro.queries import QueryEngine

        expected = QueryEngine(db).evaluate(boxes)
        service = QueryService(db, n_shards=2, index=backend)
        try:
            assert ServiceClient(service).range(boxes).result_sets == expected
            assert service.describe()["index"] == backend
        finally:
            service.close()

    def test_unknown_backend_rejected(self):
        db = cluster_db(centers=(0.0,), per_cluster=4)
        with pytest.raises(ValueError, match=r"unknown index backend 'rtree'.*\['grid'\]"):
            QueryService(db, n_shards=2, index="rtree")


def random_db(seed: int, n_traj: int = 8) -> TrajectoryDatabase:
    rng = np.random.default_rng(seed)
    trajs = []
    for i in range(n_traj):
        n = int(rng.integers(2, 15))
        xy = rng.uniform(0.0, 100.0, size=(n, 2))
        t = np.sort(rng.uniform(0.0, 40.0, size=n)) + np.arange(n) * 1e-3
        trajs.append(Trajectory(np.column_stack([xy, t]), traj_id=i))
    return TrajectoryDatabase(trajs)


class TestDistanceLowerBound:
    """``chebyshev_gap`` (the geometry under ``knn_shard_lower_bound``)
    never over-estimates: that admissibility is what makes kNN shard
    skipping exact."""

    def test_zero_when_boxes_overlap(self):
        db = random_db(7)
        assert chebyshev_gap(db.bounding_box, db.bounding_box) == 0.0

    def test_infinite_when_temporally_disjoint(self):
        ext = random_db(7).bounding_box
        far = BoundingBox(
            ext.xmin, ext.xmax, ext.ymin, ext.ymax,
            ext.tmax + 10.0, ext.tmax + 20.0,
        )
        assert np.isinf(chebyshev_gap(ext, far))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_admissible_against_brute_force(self, seed):
        """The bound never exceeds the true min Chebyshev point distance."""
        db = random_db(seed, n_traj=5)
        rng = np.random.default_rng(seed + 50)
        points = db.point_matrix()
        for _ in range(10):
            lo = rng.uniform(-50.0, 150.0, size=3)
            hi = lo + rng.uniform(0.0, 60.0, size=3)
            box = BoundingBox(lo[0], hi[0], lo[1], hi[1], lo[2], hi[2])
            in_window = (points[:, 2] >= box.tmin) & (points[:, 2] <= box.tmax)
            if not in_window.any():
                continue  # inf bound is trivially admissible
            dx = np.maximum(
                np.maximum(box.xmin - points[:, 0], points[:, 0] - box.xmax), 0.0
            )
            dy = np.maximum(
                np.maximum(box.ymin - points[:, 1], points[:, 1] - box.ymax), 0.0
            )
            true_min = float(np.maximum(dx, dy)[in_window].min())
            bound = chebyshev_gap(db.bounding_box, box)
            assert bound <= true_min + 1e-9, (bound, true_min)

    def test_chebyshev_gap_matches_axis_arithmetic(self):
        a = BoundingBox(0.0, 1.0, 0.0, 1.0, 0.0, 1.0)
        b = BoundingBox(4.0, 5.0, 2.0, 3.0, 0.5, 2.0)
        assert chebyshev_gap(a, b) == 3.0  # max(x gap 3, y gap 1)
        assert chebyshev_gap(a, BoundingBox(0.5, 2.0, 0.5, 2.0, 0.0, 1.0)) == 0.0
