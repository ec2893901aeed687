"""Closed-box boundary semantics and out-of-extent query regressions.

Boxes are closed on every face: a point exactly on ``xmax`` / ``ymax`` /
``tmax`` is inside. These tests pin that convention consistently across
:meth:`BoundingBox.contains_points`, :func:`range_query` (naive and engine
paths) and :func:`density_histogram` binning — and that the engine's
results never depend on its grid resolution, nor break on a point with a
non-finite coordinate (which lies in no box).
"""

import warnings

import numpy as np
import pytest

from repro.data import BoundingBox, Trajectory, TrajectoryDatabase
from repro.queries import (
    QueryEngine,
    RangeQuery,
    count_query_scan,
    density_histogram,
    density_histogram_scan,
    knn_query,
    knn_query_batch,
    range_query,
    similarity_query,
)
from repro.workloads import RangeQueryWorkload


@pytest.fixture
def edge_db() -> TrajectoryDatabase:
    """Two trajectories; trajectory 1 ends exactly at the extent's max corner."""
    inner = Trajectory(
        np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 1.0], [3.0, 3.0, 2.0]]), traj_id=0
    )
    edge = Trajectory(
        np.array([[5.0, 5.0, 5.0], [10.0, 10.0, 10.0]]), traj_id=1
    )
    return TrajectoryDatabase([inner, edge])


#: A box whose max faces pass exactly through the extent corner (10, 10, 10).
CORNER_BOX = BoundingBox(9.5, 10.0, 9.5, 10.0, 9.5, 10.0)


class TestClosedBoxBoundaries:
    def test_contains_points_includes_max_faces(self):
        box = BoundingBox(0.0, 1.0, 0.0, 1.0, 0.0, 1.0)
        on_faces = np.array(
            [[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0], [1.0, 1.0, 1.0]]
        )
        beyond = np.array([[1.0 + 1e-9, 0.5, 0.5]])
        assert box.contains_points(on_faces).all()
        assert not box.contains_points(beyond).any()

    def test_range_query_includes_boundary_point_on_all_paths(self, edge_db):
        query = RangeQuery(CORNER_BOX)
        naive = range_query(edge_db, query)
        engine = QueryEngine(edge_db).evaluate([query])[0]
        assert naive == engine == {1}

    def test_density_histogram_counts_max_edge_points(self, edge_db):
        hist = density_histogram(edge_db, grid=4)
        # Every point is binned — including (10, 10), exactly on xmax/ymax,
        # which lands in the last cell instead of falling off the raster.
        assert hist.sum() == edge_db.total_points
        assert hist[-1, -1] >= 1


class TestOutOfExtentQueries:
    def test_grid_disjoint_box_has_no_candidates(self):
        """Regression: clipped corners used to snap onto border cells.

        A box fully disjoint from unit-cube data — e.g. (10..11)^3 — returned
        the border-cell occupants (typically ``{0}``) instead of nothing.
        """
        rng = np.random.default_rng(0)
        trajs = [
            Trajectory(
                np.column_stack(
                    [rng.random(6), rng.random(6), np.sort(rng.random(6))]
                ),
                traj_id=i,
            )
            for i in range(4)
        ]
        db = TrajectoryDatabase(trajs)
        far = BoundingBox(10.0, 11.0, 10.0, 11.0, 10.0, 11.0)
        assert range_query(db, RangeQuery(far)) == set()
        assert QueryEngine(db).evaluate([far]) == [set()]
        assert QueryEngine(db).count([far]).tolist() == [0]

    def test_partially_overlapping_box_still_prunes_correctly(self, edge_db):
        # Sticking out beyond the extent on every max face must not lose the
        # boundary trajectory.
        box = BoundingBox(9.5, 20.0, 9.5, 20.0, 9.5, 20.0)
        assert range_query(edge_db, RangeQuery(box)) == {1}
        assert QueryEngine(edge_db).evaluate([box]) == [{1}]

    def test_engine_matches_naive_for_straddling_workload(self, edge_db):
        box = edge_db.bounding_box
        centres = np.array(
            [
                [box.xmax, box.ymax, box.tmax],  # straddles the max corner
                [box.xmax + 100.0, box.ymax + 100.0, box.tmax + 100.0],  # far out
                [box.xmin, box.ymin, box.tmin],  # straddles the min corner
            ]
        )
        workload = RangeQueryWorkload.from_centres(
            centres, spatial_extent=2.0, temporal_extent=2.0
        )
        engine_results = QueryEngine(edge_db).evaluate(workload)
        naive = [range_query(edge_db, q) for q in workload]
        assert engine_results == naive
        assert engine_results[1] == set()


def random_db(seed: int, n_traj: int = 6) -> TrajectoryDatabase:
    rng = np.random.default_rng(seed)
    trajs = []
    for i in range(n_traj):
        n = int(rng.integers(2, 12))
        xy = rng.uniform(0.0, 50.0, size=(n, 2))
        t = np.sort(rng.uniform(0.0, 20.0, size=n)) + np.arange(n) * 1e-3
        trajs.append(Trajectory(np.column_stack([xy, t]), traj_id=i))
    return TrajectoryDatabase(trajs)


def tricky_boxes(db: TrajectoryDatabase, seed: int) -> list[BoundingBox]:
    """Random boxes plus the adversarial shapes of this module: boxes whose
    faces pass exactly through data points, extent-corner straddlers,
    fully disjoint boxes, and zero-extent point probes."""
    rng = np.random.default_rng(seed)
    ext = db.bounding_box
    boxes = []
    for _ in range(6):
        lo = rng.uniform([ext.xmin, ext.ymin, ext.tmin], [ext.xmax, ext.ymax, ext.tmax])
        hi = lo + rng.uniform(0.0, 15.0, size=3)
        boxes.append(BoundingBox(lo[0], hi[0], lo[1], hi[1], lo[2], hi[2]))
    p = db[0].points[-1]  # max faces exactly on a data point
    boxes.append(BoundingBox(p[0] - 1.0, p[0], p[1] - 1.0, p[1], p[2] - 1.0, p[2]))
    boxes.append(BoundingBox(p[0], p[0], p[1], p[1], p[2], p[2]))  # zero-extent hit
    boxes.append(  # straddles the extent's max corner
        BoundingBox(ext.xmax - 1.0, ext.xmax + 5.0, ext.ymax - 1.0,
                    ext.ymax + 5.0, ext.tmax - 1.0, ext.tmax + 5.0)
    )
    boxes.append(  # fully disjoint from the extent
        BoundingBox(ext.xmax + 10.0, ext.xmax + 20.0, ext.ymax + 10.0,
                    ext.ymax + 20.0, ext.tmax + 10.0, ext.tmax + 20.0)
    )
    return boxes


class TestCrossIndexCandidateCompleteness:
    """The engine's verified results are identical at every grid resolution."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_engine_results_identical_across_resolutions(self, seed):
        db = random_db(seed)
        boxes = tricky_boxes(db, seed + 200)
        naive = [range_query(db, RangeQuery(b)) for b in boxes]
        scan = np.array([count_query_scan(db, b) for b in boxes])
        for engine in (
            QueryEngine(db),
            QueryEngine(db, resolution=(1, 1, 1)),
            QueryEngine(db, resolution=(64, 64, 64)),
            QueryEngine(db, resolution=(5, 2, 9)),
        ):
            assert engine.evaluate(boxes) == naive, engine.resolution
            assert np.array_equal(engine.count(boxes), scan), engine.resolution


class TestNonFiniteCoordinates:
    """A point with a non-finite coordinate lies in no box. A database
    holding one still builds an engine whose every batched path equals its
    per-query reference, without a RuntimeWarning."""

    @pytest.fixture
    def nan_db(self) -> TrajectoryDatabase:
        """Trajectory 1 has one NaN x; the last one has nothing but NaN x."""
        db = random_db(4, n_traj=8)
        trajs = list(db)
        points = trajs[1].points.copy()
        points[len(points) // 2, 0] = np.nan
        trajs[1] = Trajectory(points, traj_id=1)
        points = trajs[-1].points.copy()
        points[:, 0] = np.nan
        trajs[-1] = Trajectory(points, traj_id=len(trajs) - 1)
        return TrajectoryDatabase(trajs)

    def test_every_batched_path_equals_its_reference(self, nan_db):
        ext = nan_db.bounding_box
        assert np.isfinite([ext.xmin, ext.xmax, ext.ymin, ext.ymax]).all()
        assert not nan_db[len(nan_db) - 1].bounding_box.intersects(ext)
        boxes = tricky_boxes(nan_db, 7) + [ext]
        queries = [nan_db[0], nan_db[1]]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            engine = QueryEngine(nan_db)
            assert engine.evaluate(boxes) == [
                range_query(nan_db, RangeQuery(b)) for b in boxes
            ]
            assert engine.count(boxes).tolist() == [
                count_query_scan(nan_db, b) for b in boxes
            ]
            assert np.array_equal(
                engine.histogram(8, ext), density_histogram_scan(nan_db, 8, ext)
            )
            assert knn_query_batch(
                nan_db, queries, 3, eps=5.0, engine=engine
            ) == [knn_query(nan_db, q, 3, eps=5.0) for q in queries]
            assert engine.similarity(queries, 30.0) == [
                similarity_query(nan_db, q, 30.0) for q in queries
            ]


class TestDegenerateKnnQuery:
    def test_degenerate_query_window_returns_empty(self, small_db):
        from repro.queries import knn_query

        query = small_db[0]
        # A window strictly before the query's first sample leaves < 2 points.
        t0 = float(query.times[0])
        result = knn_query(
            small_db, query, k=3, time_window=(t0 - 100.0, t0 - 50.0)
        )
        assert result == []

    def test_healthy_window_still_ranks(self, small_db):
        from repro.queries import knn_query

        result = knn_query(small_db, small_db[0], k=3, eps=10.0)
        assert len(result) == 3
