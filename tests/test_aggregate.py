"""Tests for aggregate (count / heatmap) queries."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import uniform_simplify_database
from repro.data import BoundingBox, Trajectory, TrajectoryDatabase
from repro.queries import (
    QueryEngine,
    count_query,
    count_query_scan,
    density_histogram,
    density_histogram_scan,
    heatmap_f1,
    histogram_similarity,
)
from repro.queries.aggregate import spatial_bin_counts
from tests.conftest import make_trajectory


class TestCountQuery:
    def test_whole_region_counts_everything(self, small_db):
        assert count_query(small_db, small_db.bounding_box) == (
            small_db.total_points
        )

    def test_empty_region(self, small_db):
        box = small_db.bounding_box
        far = BoundingBox(
            box.xmax + 1, box.xmax + 2, box.ymax + 1, box.ymax + 2,
            box.tmax + 1, box.tmax + 2,
        )
        assert count_query(small_db, far) == 0

    def test_matches_brute_force(self, small_db):
        rng = np.random.default_rng(0)
        points = small_db.all_points()
        for _ in range(10):
            c = points[int(rng.integers(len(points)))]
            box = BoundingBox(c[0] - 15, c[0] + 15, c[1] - 15, c[1] + 15,
                              c[2] - 10, c[2] + 10)
            expected = int(box.contains_points(points).sum())
            assert count_query(small_db, box) == expected

    def test_simplification_reduces_counts(self, small_db):
        simplified = uniform_simplify_database(small_db, 0.3)
        box = small_db.bounding_box
        assert count_query(simplified, box) < count_query(small_db, box)

    @given(seed=st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_engine_route_matches_scan_on_random_boxes(self, seed):
        """count_query (engine-batched) == the per-trajectory reference scan,
        including boxes disjoint from the extent (the PR 1 out-of-extent
        regression scenario)."""
        rng = np.random.default_rng(seed)
        db = TrajectoryDatabase(
            [
                make_trajectory(n=4 + (seed + i) % 9, seed=seed + i, traj_id=i)
                for i in range(6)
            ]
        )
        extent = db.bounding_box
        span = max(extent.spans)
        for _ in range(5):
            centre = rng.uniform(-0.5 * span, 1.5 * span, size=3) + np.array(
                [extent.xmin, extent.ymin, extent.tmin]
            )
            sides = rng.uniform(0.05 * span, 0.8 * span, size=3)
            box = BoundingBox(
                centre[0] - sides[0], centre[0] + sides[0],
                centre[1] - sides[1], centre[1] + sides[1],
                centre[2] - sides[2], centre[2] + sides[2],
            )
            assert count_query(db, box) == count_query_scan(db, box)

    def test_engine_batched_counts_match_scan_batchwise(self, small_db):
        box = small_db.bounding_box
        boxes = [
            box,
            BoundingBox(
                box.xmax + 5, box.xmax + 6, box.ymin, box.ymax, box.tmin,
                box.tmax,
            ),
            BoundingBox(
                box.xmin, box.center[0], box.ymin, box.center[1], box.tmin,
                box.tmax,
            ),
        ]
        engine = QueryEngine(small_db)
        assert engine.count(boxes).tolist() == [
            count_query_scan(small_db, b) for b in boxes
        ]


class TestDensityHistogram:
    def test_total_mass_equals_points(self, small_db):
        hist = density_histogram(small_db, grid=16)
        assert hist.sum() == small_db.total_points

    def test_normalized_sums_to_one(self, small_db):
        hist = density_histogram(small_db, grid=16, normalize=True)
        assert hist.sum() == pytest.approx(1.0)

    def test_shape(self, small_db):
        assert density_histogram(small_db, grid=7).shape == (7, 7)

    def test_rejects_bad_grid(self, small_db):
        with pytest.raises(ValueError):
            density_histogram(small_db, grid=0)

    def test_external_box_ignores_outside_points(self, small_db):
        box = small_db.bounding_box
        shrunk = BoundingBox(
            box.xmin, box.center[0], box.ymin, box.center[1], box.tmin, box.tmax
        )
        hist = density_histogram(small_db, grid=8, box=shrunk)
        assert hist.sum() <= small_db.total_points

    def test_point_lands_in_correct_cell(self):
        # Two points at known positions in a unit box.
        points = np.array([[0.1, 0.1, 0.0], [0.9, 0.9, 1.0]])
        db = TrajectoryDatabase([Trajectory(points)])
        box = BoundingBox(0, 1, 0, 1, 0, 1)
        hist = density_histogram(db, grid=2, box=box)
        assert hist[0, 0] == 1
        assert hist[1, 1] == 1

    def test_cell_edge_assignment(self):
        """Interior cell edges belong to the upper cell; the closing edge of
        the raster folds into the last cell."""
        points = np.array(
            [
                [0.0, 0.0, 0.0],   # lower corner -> cell (0, 0)
                [0.5, 0.5, 1.0],   # interior edge -> upper cell (1, 1)
                [1.0, 1.0, 2.0],   # closing edge -> clamped to (1, 1)
                [0.5, 0.0, 3.0],   # mixed: edge on x only -> (1, 0)
            ]
        )
        db = TrajectoryDatabase([Trajectory(points)])
        box = BoundingBox(0, 1, 0, 1, 0, 3)
        expected = np.array([[1.0, 0.0], [1.0, 2.0]])
        np.testing.assert_array_equal(
            density_histogram(db, grid=2, box=box), expected
        )
        np.testing.assert_array_equal(
            density_histogram_scan(db, grid=2, box=box), expected
        )

    @given(seed=st.integers(0, 300), grid=st.integers(1, 12))
    @settings(max_examples=25, deadline=None)
    def test_engine_route_matches_scan(self, seed, grid):
        db = TrajectoryDatabase(
            [make_trajectory(n=5 + i, seed=seed + i, traj_id=i) for i in range(4)]
        )
        np.testing.assert_array_equal(
            density_histogram(db, grid=grid), density_histogram_scan(db, grid=grid)
        )
        np.testing.assert_array_equal(
            density_histogram(db, grid=grid, normalize=True),
            density_histogram_scan(db, grid=grid, normalize=True),
        )


    @pytest.mark.parametrize(
        "xmin, xmax, ymin, ymax",
        [
            (-np.inf, np.inf, -np.inf, np.inf),
            (0.0, np.inf, 0.0, 100.0),
            (-np.inf, 50.0, 0.0, 100.0),
            (0.0, 100.0, 20.0, np.inf),
            (np.inf, np.inf, 0.0, 100.0),
            (-1e308, 1e308, 0.0, 100.0),  # finite bounds, infinite span
        ],
    )
    def test_infinite_viewport_raises_the_same_error_on_every_path(
        self, small_db, xmin, xmax, ymin, ymax
    ):
        box = BoundingBox(xmin, xmax, ymin, ymax, 0.0, 1.0)
        for rasterize in (
            lambda: QueryEngine(small_db).histogram(8, box),
            lambda: density_histogram_scan(small_db, 8, box),
            lambda: spatial_bin_counts(small_db.all_points()[:, :2], 8, box),
        ):
            with pytest.raises(ValueError, match="spatial span is not finite"):
                rasterize()

    def test_empty_nan_viewport_rasterizes_to_zeros(self, small_db):
        box = BoundingBox.from_points(np.full((2, 3), np.nan))
        assert np.isnan(box.xmin)
        for hist in (
            QueryEngine(small_db).histogram(8, box),
            density_histogram_scan(small_db, 8, box),
        ):
            np.testing.assert_array_equal(hist, np.zeros((8, 8)))


class TestHistogramSimilarity:
    def test_identical(self, small_db):
        h = density_histogram(small_db, grid=8)
        assert histogram_similarity(h, h) == pytest.approx(1.0)

    def test_disjoint(self):
        a = np.zeros((4, 4))
        b = np.zeros((4, 4))
        a[0, 0] = 5
        b[3, 3] = 5
        assert histogram_similarity(a, b) == 0.0

    def test_scale_invariance(self, small_db):
        """Uniform thinning preserves the (normalized) heatmap shape."""
        h = density_histogram(small_db, grid=8)
        assert histogram_similarity(h, 0.25 * h) == pytest.approx(1.0)

    def test_both_empty(self):
        z = np.zeros((3, 3))
        assert histogram_similarity(z, z) == 1.0

    def test_one_empty(self):
        a = np.zeros((3, 3))
        b = np.ones((3, 3))
        assert histogram_similarity(a, b) == 0.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            histogram_similarity(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_normalization_is_internal(self):
        """Inputs are normalized inside: pre-normalizing must not change the
        score, whatever the raw totals."""
        rng = np.random.default_rng(3)
        a = 1e9 * rng.random((5, 5))
        b = 1e-9 * rng.random((5, 5))
        raw = histogram_similarity(a, b)
        assert raw == pytest.approx(
            histogram_similarity(a / a.sum(), b / b.sum())
        )
        assert 0.0 < raw < 1.0

    def test_single_cell_mass(self):
        a = np.zeros((3, 3))
        a[1, 1] = 7.0
        assert histogram_similarity(a, a * 123.0) == pytest.approx(1.0)

    def test_empty_vs_normalized_empty(self):
        """A zero histogram cannot be normalized; one-sided zero is 0.0 and
        two-sided zero is perfect agreement, regardless of the other side's
        scale."""
        z = np.zeros((4, 4))
        tiny = np.full((4, 4), 1e-300)
        assert histogram_similarity(z, tiny) == 0.0
        assert histogram_similarity(tiny, tiny) == pytest.approx(1.0)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_property_bounded_and_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.random((6, 6))
        b = rng.random((6, 6))
        s = histogram_similarity(a, b)
        assert 0.0 <= s <= 1.0
        assert s == pytest.approx(histogram_similarity(b, a))


class TestHeatmapF1:
    def test_identity(self, small_db):
        assert heatmap_f1(small_db, small_db) == pytest.approx(1.0)

    def test_simplification_degrades_gracefully(self, small_db):
        light = uniform_simplify_database(small_db, 0.8)
        heavy = uniform_simplify_database(small_db, 0.1)
        s_light = heatmap_f1(small_db, light)
        s_heavy = heatmap_f1(small_db, heavy)
        assert 0.0 < s_heavy <= s_light <= 1.0

    def test_uses_original_box(self, small_db):
        """A simplified database with a smaller extent must still compare."""
        db = TrajectoryDatabase(
            [make_trajectory(n=30, seed=1), make_trajectory(n=30, seed=2)]
        )
        # Keep only endpoints: extent shrinks to the endpoints' hull.
        endpoints = db.map_simplify(lambda t: [0, len(t) - 1])
        score = heatmap_f1(db, endpoints)
        assert 0.0 <= score < 1.0
