"""Tests for the hyper-parameter grid search."""

from __future__ import annotations

import pytest

from repro.core import RL4QDTSConfig
from repro.eval import TrialResult, grid_search
from repro.workloads import RangeQueryWorkload

_FAST = RL4QDTSConfig(
    start_level=2,
    end_level=4,
    delta=10,
    n_training_queries=10,
    n_inference_queries=20,
    episodes=1,
    n_train_databases=1,
    train_db_size=8,
)


class TestGridSearch:
    @pytest.fixture(scope="class")
    def class_db(self):
        from repro.data import TrajectoryDatabase
        from tests.conftest import make_trajectory

        return TrajectoryDatabase(
            [make_trajectory(n=10 + 2 * i, seed=i, traj_id=i) for i in range(12)]
        )

    @pytest.fixture(scope="class")
    def results(self, class_db):
        return grid_search(
            class_db,
            {"k_candidates": [1, 2], "delta": [5, 10]},
            base_config=_FAST,
            budget_ratio=0.4,
            n_test_queries=20,
            seed=0,
        )

    def test_all_combinations_run(self, results):
        assert len(results) == 4
        seen = {tuple(sorted(r.overrides.items())) for r in results}
        assert len(seen) == 4

    def test_sorted_best_first(self, results):
        f1s = [r.f1 for r in results]
        assert f1s == sorted(f1s, reverse=True)

    def test_result_fields(self, results):
        for r in results:
            assert isinstance(r, TrialResult)
            assert 0.0 <= r.f1 <= 1.0
            assert r.train_seconds > 0
            assert r.simplify_seconds > 0
            assert set(r.overrides) == {"k_candidates", "delta"}

    def test_str_contains_params(self, results):
        assert "k_candidates" in str(results[0])

    def test_deterministic(self, class_db, results):
        again = grid_search(
            class_db,
            {"k_candidates": [1, 2], "delta": [5, 10]},
            base_config=_FAST,
            budget_ratio=0.4,
            n_test_queries=20,
            seed=0,
        )
        assert [r.f1 for r in again] == [r.f1 for r in results]

    def test_explicit_test_workload(self, small_db):
        workload = RangeQueryWorkload.from_data_distribution(small_db, 10, seed=1)
        results = grid_search(
            small_db,
            {"delta": [10]},
            base_config=_FAST,
            budget_ratio=0.4,
            test_workload=workload,
            seed=0,
        )
        assert len(results) == 1

    def test_rejects_empty_grid(self, small_db):
        with pytest.raises(ValueError):
            grid_search(small_db, {})

    def test_rejects_unknown_field(self, small_db):
        with pytest.raises(ValueError):
            grid_search(small_db, {"not_a_field": [1]})
