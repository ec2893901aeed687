"""Tests for utility helpers not exercised elsewhere."""

import numpy as np
import pytest

from repro.data.simplification import insort_unique
from repro.queries.edr import edr_distance, edr_similarity_matrix
from repro.queries.clustering.distances import (
    segment_distance,
    segment_distance_matrix,
)
from repro.baselines.skyline import dominates
from tests.conftest import make_trajectory


class TestInsortUnique:
    def test_inserts_in_order(self):
        values = [1, 4, 9]
        assert insort_unique(values, 5)
        assert values == [1, 4, 5, 9]

    def test_duplicate_not_inserted(self):
        values = [1, 4, 9]
        assert not insort_unique(values, 4)
        assert values == [1, 4, 9]

    def test_empty_list(self):
        values = []
        assert insort_unique(values, 3)
        assert values == [3]


class TestEDRMatrix:
    def test_matrix_matches_pairwise(self):
        trajs = [make_trajectory(n=6 + i, seed=i) for i in range(4)]
        matrix = edr_similarity_matrix(trajs, eps=20.0)
        assert matrix.shape == (4, 4)
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 0.0)
        assert matrix[0, 2] == edr_distance(trajs[0], trajs[2], 20.0)


class TestSegmentDistanceMatrix:
    def test_matrix_matches_pairwise(self):
        rng = np.random.default_rng(0)
        segments = rng.uniform(0, 10, size=(5, 2, 2))
        matrix = segment_distance_matrix(segments)
        assert matrix.shape == (5, 5)
        assert np.allclose(matrix, matrix.T)
        assert matrix[1, 3] == pytest.approx(
            segment_distance(segments[1], segments[3])
        )


class TestDominates:
    def test_strict_domination(self):
        assert dominates([1.0, 1.0], [0.5, 1.0])
        assert not dominates([0.5, 1.0], [1.0, 1.0])

    def test_equal_vectors_do_not_dominate(self):
        assert not dominates([0.5, 0.5], [0.5, 0.5])

    def test_incomparable(self):
        assert not dominates([1.0, 0.0], [0.0, 1.0])
        assert not dominates([0.0, 1.0], [1.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dominates([1.0], [1.0, 2.0])
