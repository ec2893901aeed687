"""Tests for the experiment drivers shared by the benchmark harness."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import get_baseline, uniform_simplify_database
from repro.core import RL4QDTS, RL4QDTSConfig
from repro.eval import (
    MethodResult,
    QueryAccuracyEvaluator,
    QuerySuiteConfig,
    baseline_method,
    compare_methods,
    grid_search,
    rl4qdts_method,
    score_configs,
)
from repro.eval.experiments import PAPER_SKYLINES, format_results_table
from repro.workloads import RangeQueryWorkload


@pytest.fixture
def evaluator(small_db):
    return QueryAccuracyEvaluator(
        small_db,
        QuerySuiteConfig(
            n_range_queries=8,
            n_knn_queries=3,
            n_similarity_queries=3,
            clustering_subset=6,
            seed=0,
        ),
    )


@pytest.fixture
def methods():
    return {
        "Top-Down(E,SED)": baseline_method(get_baseline("Top-Down(E,SED)")),
        "uniform": lambda db, ratio: uniform_simplify_database(db, ratio),
    }


class TestCompareMethods:
    def test_one_row_per_method_ratio_pair(self, small_db, evaluator, methods):
        results = compare_methods(
            small_db, methods, (0.3, 0.6), evaluator, tasks=("range",)
        )
        assert len(results) == 4
        assert {(r.method, r.ratio) for r in results} == {
            ("Top-Down(E,SED)", 0.3),
            ("Top-Down(E,SED)", 0.6),
            ("uniform", 0.3),
            ("uniform", 0.6),
        }

    def test_scores_cover_requested_tasks(self, small_db, evaluator, methods):
        results = compare_methods(
            small_db, methods, (0.5,), evaluator,
            tasks=("range", "similarity"),
        )
        for r in results:
            assert set(r.scores) == {"range", "similarity"}
            assert all(0.0 <= v <= 1.0 for v in r.scores.values())
            assert r.simplify_seconds > 0.0

    def test_accuracy_monotone_in_ratio_for_uniform(
        self, small_db, evaluator, methods
    ):
        results = compare_methods(
            small_db, {"uniform": methods["uniform"]},
            (0.2, 0.8), evaluator, tasks=("range",),
        )
        by_ratio = {r.ratio: r.scores["range"] for r in results}
        assert by_ratio[0.8] >= by_ratio[0.2] - 0.05

    def test_as_row_flattening(self):
        r = MethodResult("m", 0.1, {"range": 0.5}, 1.234)
        row = r.as_row()
        assert row == {
            "method": "m", "ratio": 0.1, "range": 0.5, "time_s": 1.234,
        }


def test_paper_skylines_resolve_to_baselines():
    for names in PAPER_SKYLINES.values():
        for name in names:
            assert get_baseline(name).name == name


class TestRL4QDTSMethod:
    @pytest.fixture
    def model(self):
        return RL4QDTS(
            RL4QDTSConfig(
                start_level=3, end_level=5, n_training_queries=10,
                n_inference_queries=10, episodes=1, n_train_databases=1,
                train_db_size=6,
            )
        )

    def test_rl4qdts_method_wrapper(self, small_db, evaluator, model):
        method = rl4qdts_method(model, seed=3)
        results = compare_methods(
            small_db, {"RL4QDTS": method}, (0.5,), evaluator, tasks=("range",)
        )
        assert results[0].scores["range"] >= 0.0

    def test_workload_passes_through_to_simplify(self, small_db, model):
        workload = RangeQueryWorkload.generate("data", small_db, 20, seed=5)
        got = rl4qdts_method(model, seed=3, workload=workload)(small_db, 0.5)
        want = model.simplify(small_db, budget_ratio=0.5, seed=3, workload=workload)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g.points, w.points)


_TINY = RL4QDTSConfig(
    start_level=3, end_level=5, n_training_queries=10, n_inference_queries=10,
    episodes=1, n_train_databases=1, train_db_size=6,
)


class TestScoreConfigs:
    @pytest.fixture
    def factory(self):
        return lambda db, seed: RangeQueryWorkload.generate(
            "gaussian", db, 12, seed=seed
        )

    @pytest.fixture
    def annotation(self, small_db):
        return RangeQueryWorkload.generate("data", small_db, 20, seed=5)

    def test_row_equals_hand_run(self, small_db, evaluator, factory, annotation):
        row = score_configs(
            small_db, {"row": _TINY}, 0.5, evaluator, factory,
            seeds=(3,), workload=annotation,
        )["row"]
        model = RL4QDTS.train(small_db, config=_TINY, workload_factory=factory)
        simplified = model.simplify(
            small_db, budget_ratio=0.5, seed=3, workload=annotation
        )
        want = evaluator.evaluate(simplified, ("range",))
        assert row.model.history.episode_diffs == model.history.episode_diffs
        (result,) = row.results
        assert (result.method, result.ratio) == ("row", 0.5)
        assert result.scores == want
        got = row.model.simplify(
            small_db, budget_ratio=0.5, seed=3, workload=annotation
        )
        assert len(got) == len(simplified)
        for g, w in zip(got, simplified):
            assert np.array_equal(g.points, w.points)

    def test_one_result_per_seed_in_order(self, small_db, evaluator, annotation):
        seeds = (7, 2, 11)
        configs = {"a": _TINY, 4: replace(_TINY, delta=5)}
        rows = score_configs(
            small_db, configs, 0.3, evaluator, seeds=seeds, workload=annotation
        )
        assert list(rows) == ["a", 4]
        for name, row in rows.items():
            assert row.train_seconds > 0
            assert [r.method for r in row.results] == [str(name)] * len(seeds)
            want = [
                evaluator.evaluate(
                    row.model.simplify(
                        small_db, budget_ratio=0.3, seed=s, workload=annotation
                    ),
                    ("range",),
                )["range"]
                for s in seeds
            ]
            assert row.range_scores() == want
            assert all(r.simplify_seconds > 0 for r in row.results)

    def test_grid_search_trial_f1_is_the_evaluators(self, small_db):
        test_workload = RangeQueryWorkload.from_data_distribution(
            small_db, 15, seed=2
        )
        deltas = [5, 10]
        trials = grid_search(
            small_db, {"delta": deltas}, base_config=_TINY, budget_ratio=0.4,
            test_workload=test_workload, seed=3,
        )
        evaluator = QueryAccuracyEvaluator(small_db, workload=test_workload)
        for trial in trials:
            i = deltas.index(trial.overrides["delta"])
            model = RL4QDTS.train(
                small_db, config=replace(_TINY, delta=deltas[i], seed=3 + i)
            )
            simplified = model.simplify(small_db, budget_ratio=0.4, seed=3 + i)
            assert trial.f1 == evaluator.evaluate(simplified, ("range",))["range"]


class TestFormatResultsTable:
    def test_contains_all_rows_and_headers(self, small_db, evaluator, methods):
        results = compare_methods(
            small_db, methods, (0.4,), evaluator, tasks=("range",)
        )
        text = format_results_table(results, tasks=("range",))
        lines = text.splitlines()
        assert "method" in lines[0] and "range" in lines[0]
        assert len(lines) == 2 + len(results)
        assert any("uniform" in line for line in lines)

    def test_missing_task_renders_nan(self):
        text = format_results_table(
            [MethodResult("m", 0.1, {"range": 0.5}, 0.0)],
            tasks=("range", "similarity"),
        )
        assert "0.5000" in text and "nan" in text

    def test_long_method_name_keeps_columns_aligned(self):
        long_name = "w/o Agent-Cube and Agent-Point"
        assert len(long_name) == 30
        text = format_results_table(
            [
                MethodResult(long_name, 0.1, {"range": 0.5}, 1.0),
                MethodResult("m", 0.2, {"range": 0.7}, 2.0),
            ],
            tasks=("range",),
        )
        header, _, *rows = text.splitlines()
        column = header.index("ratio")
        assert [row[column:column + 6] for row in rows] == ["0.1000", "0.2000"]
