"""Unit tests for the spatio-temporal octree and grid index."""

import numpy as np
import pytest

from repro.index import Octree


class TestOctreeBuild:
    def test_root_is_level_one(self, small_db):
        tree = Octree(small_db)
        assert tree.root.level == 1

    def test_invalid_params_rejected(self, small_db):
        with pytest.raises(ValueError):
            Octree(small_db, max_depth=0)
        with pytest.raises(ValueError):
            Octree(small_db, leaf_capacity=0)

    def test_all_points_indexed_once(self, small_db):
        tree = Octree(small_db, max_depth=6, leaf_capacity=4)
        entries = tree.collect_points(tree.root)
        assert len(entries) == small_db.total_points
        assert len(set(entries)) == small_db.total_points

    def test_point_counts_consistent(self, small_db):
        tree = Octree(small_db, max_depth=6, leaf_capacity=4)
        for node in tree.iter_nodes():
            assert node.n_points == len(tree.collect_points(node))
            if node.children is not None:
                child_sum = sum(
                    c.n_points for c in node.children if c is not None
                )
                assert child_sum == node.n_points

    def test_trajectory_counts(self, small_db):
        tree = Octree(small_db, max_depth=6, leaf_capacity=4)
        for node in tree.iter_nodes():
            owners = {tid for tid, _ in tree.collect_points(node)}
            assert node.n_trajectories == len(owners)

    def test_max_depth_respected(self, small_db):
        tree = Octree(small_db, max_depth=3, leaf_capacity=1)
        assert tree.depth() <= 3

    def test_leaf_capacity_respected(self, small_db):
        tree = Octree(small_db, max_depth=12, leaf_capacity=8)
        for node in tree.iter_nodes():
            if node.is_leaf and node.level < 12:
                assert node.n_points <= 8

    def test_points_inside_node_boxes(self, small_db):
        tree = Octree(small_db, max_depth=5, leaf_capacity=4)
        for node in tree.iter_nodes():
            if node.is_leaf:
                for tid, idx in node.entries:
                    x, y, t = small_db[tid].points[idx]
                    assert node.box.contains_point(x, y, t)


class TestLevels:
    def test_nodes_at_level_tile_all_points(self, small_db):
        tree = Octree(small_db, max_depth=6, leaf_capacity=4)
        for level in (2, 3, 4):
            nodes = tree.nodes_at_level(level)
            total = sum(n.n_points for n in nodes)
            assert total == small_db.total_points

    def test_nodes_at_level_memoized(self, small_db):
        tree = Octree(small_db)
        assert tree.nodes_at_level(3) is tree.nodes_at_level(3)

    def test_child_accessors(self, small_db):
        tree = Octree(small_db, max_depth=4, leaf_capacity=4)
        root = tree.root
        assert set(root.nonempty_children()) == {
            k for k in range(8) if root.child(k) is not None
        }


class TestQueryAnnotation:
    def test_annotate_counts_intersections(self, small_db, small_workload):
        tree = Octree(small_db, max_depth=5, leaf_capacity=4)
        tree.annotate_queries(small_workload.boxes)
        assert tree.root.n_queries == len(small_workload)
        for node in tree.iter_nodes():
            expected = sum(
                1 for b in small_workload.boxes if node.box.intersects(b)
            )
            assert node.n_queries == expected

    def test_reannotation_resets(self, small_db, small_workload):
        tree = Octree(small_db, max_depth=5)
        tree.annotate_queries(small_workload.boxes)
        tree.annotate_queries([])
        assert all(n.n_queries == 0 for n in tree.iter_nodes())

    def test_child_fractions_shape_and_range(self, small_db, small_workload):
        tree = Octree(small_db, max_depth=5, leaf_capacity=4)
        tree.annotate_queries(small_workload.boxes)
        state = tree.child_fractions(tree.root)
        assert state.shape == (16,)
        assert (state >= 0.0).all()
        # Query fractions can exceed... no: each child's count <= parent's.
        assert (state <= 1.0 + 1e-12).all()

    def test_child_fractions_leaf_zero(self, small_db):
        tree = Octree(small_db, max_depth=2, leaf_capacity=10**9)
        assert np.allclose(tree.child_fractions(tree.root), 0.0)


class TestStartSampling:
    def test_sampling_prefers_query_mass(self, small_db, small_workload):
        tree = Octree(small_db, max_depth=5, leaf_capacity=4)
        tree.annotate_queries(small_workload.boxes)
        rng = np.random.default_rng(0)
        nodes = [tree.sample_node_at_level(3, rng) for _ in range(100)]
        assert all(n.n_points > 0 for n in nodes)

    def test_sampling_without_annotation_falls_back_to_points(self, small_db):
        tree = Octree(small_db, max_depth=5, leaf_capacity=4)
        rng = np.random.default_rng(0)
        node = tree.sample_node_at_level(3, rng, by="queries")
        assert node.n_points > 0

    def test_sampling_by_points(self, small_db):
        tree = Octree(small_db, max_depth=5, leaf_capacity=4)
        rng = np.random.default_rng(0)
        node = tree.sample_node_at_level(2, rng, by="points")
        assert node.level <= 2

    def test_unknown_weighting_rejected(self, small_db):
        tree = Octree(small_db)
        with pytest.raises(ValueError):
            tree.sample_node_at_level(2, np.random.default_rng(0), by="area")

    def test_level_beyond_depth_clamped(self, small_db):
        tree = Octree(small_db, max_depth=3, leaf_capacity=2)
        node = tree.sample_node_at_level(99, np.random.default_rng(0))
        assert node.level <= 3

