"""Tests for the similarity reference and progressive refinement."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import uniform_simplify_database
from repro.core import RL4QDTS, RL4QDTSConfig
from repro.queries import QueryEngine, similarity_query


class TestSimilarityReference:
    def test_similarity_query_matches_engine(self, small_db):
        query = small_db[0]
        window = (float(query.times[2]), float(query.times[-2]))
        reference = similarity_query(small_db, query, delta=80.0, time_window=window)
        batched = QueryEngine(small_db).similarity([query], 80.0, [window])
        assert batched == [reference]


class TestProgressiveRefinement:
    @pytest.fixture(scope="class")
    def setup(self):
        from repro.data import TrajectoryDatabase
        from tests.conftest import make_trajectory

        db = TrajectoryDatabase(
            [make_trajectory(n=14 + 2 * i, seed=i, traj_id=i) for i in range(10)]
        )
        config = RL4QDTSConfig(
            start_level=2,
            end_level=4,
            delta=10,
            n_training_queries=10,
            n_inference_queries=20,
            episodes=1,
            n_train_databases=1,
            train_db_size=8,
        )
        model = RL4QDTS.train(db, config=config)
        return db, model

    def test_refine_grows_to_budget(self, setup):
        db, model = setup
        coarse = model.simplify(db, budget_ratio=0.3, seed=1)
        refined = model.refine(db, coarse, budget_ratio=0.6, seed=2)
        assert refined.total_points == db.budget_for_ratio(0.6)

    def test_refine_retains_existing_points(self, setup):
        db, model = setup
        coarse = model.simplify(db, budget_ratio=0.3, seed=1)
        refined = model.refine(db, coarse, budget_ratio=0.6, seed=2)
        for orig, small, big in zip(db, coarse, refined):
            small_rows = {tuple(r) for r in small.points}
            big_rows = {tuple(r) for r in big.points}
            assert small_rows <= big_rows
            orig_rows = {tuple(r) for r in orig.points}
            assert big_rows <= orig_rows

    def test_refine_from_foreign_simplifier(self, setup):
        """Refinement works from any subsequence simplification."""
        db, model = setup
        coarse = uniform_simplify_database(db, 0.25)
        refined = model.refine(db, coarse, budget_ratio=0.5, seed=3)
        assert refined.total_points == db.budget_for_ratio(0.5)

    def test_refine_rejects_shrinking_budget(self, setup):
        db, model = setup
        coarse = model.simplify(db, budget_ratio=0.5, seed=1)
        with pytest.raises(ValueError):
            model.refine(db, coarse, budget_ratio=0.2)

    def test_refine_requires_single_budget_argument(self, setup):
        db, model = setup
        coarse = model.simplify(db, budget_ratio=0.3, seed=1)
        with pytest.raises(ValueError):
            model.refine(db, coarse)
        with pytest.raises(ValueError):
            model.refine(db, coarse, budget_ratio=0.5, budget=100)

    def test_refined_at_least_as_accurate(self, setup):
        """More budget on top of the same base cannot hurt range accuracy."""
        from repro.workloads import RangeQueryWorkload
        from repro.queries import f1_score

        db, model = setup
        workload = RangeQueryWorkload.from_data_distribution(db, 20, seed=9)
        coarse = model.simplify(db, budget_ratio=0.3, seed=1)
        refined = model.refine(db, coarse, budget_ratio=0.7, seed=2)
        truths = workload.evaluate(db)

        def score(simplified):
            results = workload.evaluate(simplified)
            return sum(
                f1_score(t, r) for t, r in zip(truths, results)
            ) / len(workload)

        assert score(refined) >= score(coarse) - 0.05


class TestEnvLoadKept:
    def test_load_kept_restores_state(self, small_db):
        from repro.core import QDTSEnvironment
        from repro.workloads import RangeQueryWorkload

        config = RL4QDTSConfig(start_level=2, end_level=4)
        workload = RangeQueryWorkload.from_data_distribution(small_db, 10, seed=0)
        env = QDTSEnvironment(
            small_db, workload, config, np.random.default_rng(0)
        )
        kept = [[0, len(t) // 2, len(t) - 1] for t in small_db]
        env.load_kept(kept)
        assert env.state.total_kept == 3 * len(small_db)
        for tid, lst in enumerate(kept):
            for idx in lst:
                assert env.state.is_kept(tid, idx)

    def test_load_kept_validates_length(self, small_db):
        from repro.core import QDTSEnvironment
        from repro.workloads import RangeQueryWorkload

        config = RL4QDTSConfig(start_level=2, end_level=4)
        workload = RangeQueryWorkload.from_data_distribution(small_db, 5, seed=0)
        env = QDTSEnvironment(
            small_db, workload, config, np.random.default_rng(0)
        )
        with pytest.raises(ValueError):
            env.load_kept([[0, 1]])
