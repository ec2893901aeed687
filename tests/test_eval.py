"""Tests for the evaluation harness and the deformation study."""

import pytest

from repro.baselines import get_baseline
from repro.eval import (
    ALL_TASKS,
    QueryAccuracyEvaluator,
    QuerySuiteConfig,
    query_deformation,
)
from repro.workloads import RangeQueryWorkload


@pytest.fixture(scope="module")
def evaluator(geolife_db):
    config = QuerySuiteConfig(
        n_range_queries=15,
        n_knn_queries=4,
        n_similarity_queries=4,
        clustering_subset=8,
        seed=1,
    )
    return QueryAccuracyEvaluator(geolife_db, config)


class TestKnnSuiteGuard:
    def test_degenerate_central_windows_are_skipped(self):
        """2-point trajectories (middle half contains no sample) must not be
        chosen as kNN query trajectories: their truth would be the empty
        list and every method's F1 a vacuous empty-set comparison."""
        from repro.data import Trajectory, TrajectoryDatabase
        from tests.conftest import make_trajectory

        def two_point(seed, traj_id):
            t = make_trajectory(n=10, seed=seed, traj_id=traj_id)
            return Trajectory(t.points[[0, -1]], traj_id=traj_id)

        # Half the database is unusable as a kNN query.
        db = TrajectoryDatabase(
            [make_trajectory(n=12, seed=i, traj_id=i) for i in range(6)]
            + [two_point(100 + i, 6 + i) for i in range(6)]
        )
        config = QuerySuiteConfig(
            n_range_queries=5, n_knn_queries=12, n_similarity_queries=2,
            clustering_subset=4, seed=0,
        )
        evaluator = QueryAccuracyEvaluator(db, config)
        assert evaluator._knn_query_ids  # some eligible queries exist
        assert all(qid < 6 for qid in evaluator._knn_query_ids)
        assert all(truth for truth in evaluator._knn_edr_truth)
        # And the suite still scores cleanly end to end.
        scores = evaluator.evaluate(db, tasks=("knn_edr",))
        assert scores["knn_edr"] == pytest.approx(1.0)

    def test_all_degenerate_scores_vacuous_perfect(self):
        """A database with no eligible query trajectory yields an empty kNN
        suite that scores 1.0 instead of NaN."""
        from repro.data import Trajectory, TrajectoryDatabase
        from tests.conftest import make_trajectory

        db = TrajectoryDatabase(
            [
                Trajectory(
                    make_trajectory(n=10, seed=i).points[[0, -1]], traj_id=i
                )
                for i in range(5)
            ]
        )
        config = QuerySuiteConfig(
            n_range_queries=5, n_knn_queries=4, n_similarity_queries=2,
            clustering_subset=3, seed=0,
        )
        evaluator = QueryAccuracyEvaluator(db, config)
        assert evaluator._knn_query_ids == []
        scores = evaluator.evaluate(db, tasks=("knn_edr", "knn_t2vec"))
        assert scores["knn_edr"] == 1.0
        assert scores["knn_t2vec"] == 1.0


class TestEvaluator:
    def test_identity_scores_one_on_all_tasks(self, geolife_db, evaluator):
        scores = evaluator.evaluate(geolife_db)
        assert set(scores) == set(ALL_TASKS)
        for task, value in scores.items():
            assert value == pytest.approx(1.0), task

    def test_scores_in_unit_interval(self, geolife_db, evaluator):
        coarse = geolife_db.map_simplify(lambda t: [0, len(t) - 1])
        scores = evaluator.evaluate(coarse)
        for task, value in scores.items():
            assert 0.0 <= value <= 1.0, task

    def test_subset_of_tasks(self, geolife_db, evaluator):
        scores = evaluator.evaluate(geolife_db, tasks=("range", "similarity"))
        assert set(scores) == {"range", "similarity"}

    def test_range_only_scoring_builds_no_other_truth(
        self, geolife_db, monkeypatch
    ):
        """kNN, t2vec, similarity and clustering truth are built on first
        use, so scoring ``range`` alone never runs their queries."""
        from repro.baselines import simplify_database
        from repro.eval import harness
        from repro.queries.t2vec import T2VecEmbedder

        def forbidden(*args, **kwargs):
            raise AssertionError("built truth of a task that was not scored")

        monkeypatch.setattr(harness, "traclus_cluster", forbidden)
        monkeypatch.setattr(harness, "knn_query_batch", forbidden)
        monkeypatch.setattr(harness, "similarity_query_batch", forbidden)
        monkeypatch.setattr(T2VecEmbedder, "fit", forbidden)
        ev = QueryAccuracyEvaluator(geolife_db, QuerySuiteConfig(seed=2))
        simplified = simplify_database(
            geolife_db, 0.3, get_baseline("Top-Down(E,SED)")
        )
        assert 0.0 <= ev.evaluate(simplified, ("range",))["range"] <= 1.0

    def test_unknown_task_rejected(self, geolife_db, evaluator):
        with pytest.raises(ValueError):
            evaluator.evaluate(geolife_db, tasks=("join",))

    def test_size_mismatch_rejected(self, geolife_db, evaluator, small_db):
        with pytest.raises(ValueError):
            evaluator.evaluate(small_db)

    def test_thresholds_derived_from_scale(self, geolife_db):
        from repro.data.stats import spatial_scale

        ev = QueryAccuracyEvaluator(geolife_db, QuerySuiteConfig(seed=0))
        scale = spatial_scale(geolife_db)
        assert ev.edr_eps == pytest.approx(0.10 * scale)
        assert ev.similarity_delta == pytest.approx(0.15 * scale)

    def test_explicit_thresholds_respected(self, geolife_db):
        ev = QueryAccuracyEvaluator(
            geolife_db,
            QuerySuiteConfig(edr_eps=123.0, similarity_delta=55.0, seed=0),
        )
        assert ev.edr_eps == 123.0
        assert ev.similarity_delta == 55.0

    def test_more_budget_means_no_worse_range_f1(self, geolife_db, evaluator):
        from repro.baselines import simplify_database

        spec = get_baseline("Top-Down(E,SED)")
        light = simplify_database(geolife_db, 0.5, spec)
        heavy = simplify_database(geolife_db, 0.05, spec)
        light_f1 = evaluator.evaluate(light, ("range",))["range"]
        heavy_f1 = evaluator.evaluate(heavy, ("range",))["range"]
        assert light_f1 >= heavy_f1 - 0.05


class TestDeformation:
    def test_zero_for_identity(self, geolife_db):
        wl = RangeQueryWorkload.from_data_distribution(geolife_db, 10, seed=2)
        assert query_deformation(geolife_db, geolife_db, wl) == pytest.approx(0.0)

    def test_positive_for_endpoint_simplification(self, geolife_db):
        wl = RangeQueryWorkload.from_data_distribution(geolife_db, 10, seed=2)
        coarse = geolife_db.map_simplify(lambda t: [0, len(t) - 1])
        assert query_deformation(geolife_db, coarse, wl) > 0.0

    def test_size_mismatch_rejected(self, geolife_db, small_db):
        wl = RangeQueryWorkload.from_data_distribution(geolife_db, 5, seed=2)
        with pytest.raises(ValueError):
            query_deformation(geolife_db, small_db, wl)


class TestEvaluateExtended:
    def test_identity_scores_perfect(self, small_db):
        from repro.eval import QueryAccuracyEvaluator, QuerySuiteConfig

        evaluator = QueryAccuracyEvaluator(
            small_db,
            QuerySuiteConfig(n_range_queries=10, clustering_subset=8, seed=0),
        )
        scores = evaluator.evaluate_extended(small_db)
        assert scores["range_jaccard"] == 1.0
        assert scores["knn_edr_tau"] == 1.0
        assert scores["clustering_ari"] == 1.0
        assert scores["heatmap"] == 1.0

    def test_simplified_scores_bounded(self, small_db):
        from repro.baselines import uniform_simplify_database
        from repro.eval import QueryAccuracyEvaluator, QuerySuiteConfig

        evaluator = QueryAccuracyEvaluator(
            small_db,
            QuerySuiteConfig(n_range_queries=10, clustering_subset=8, seed=0),
        )
        simplified = uniform_simplify_database(small_db, 0.3)
        scores = evaluator.evaluate_extended(simplified)
        assert 0.0 <= scores["range_jaccard"] <= 1.0
        assert -1.0 <= scores["knn_edr_tau"] <= 1.0
        assert 0.0 <= scores["heatmap"] <= 1.0
        # Jaccard can never exceed F1.
        f1 = evaluator.evaluate(simplified, ("range",))["range"]
        assert scores["range_jaccard"] <= f1 + 1e-9

    def test_rejects_mismatched_database(self, small_db):
        import pytest as _pytest

        from repro.eval import QueryAccuracyEvaluator, QuerySuiteConfig

        evaluator = QueryAccuracyEvaluator(
            small_db, QuerySuiteConfig(n_range_queries=5, seed=0)
        )
        with _pytest.raises(ValueError):
            evaluator.evaluate_extended(small_db.subset([0, 1]))
