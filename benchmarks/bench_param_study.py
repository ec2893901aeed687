"""Parameter studies (paper, Section V-B(5-8); details in its tech report).

Sweeps the four hyper-parameters the paper studies:

* ``S``  — Agent-Cube start level,
* ``E``  — Agent-Cube end (max traversal) level,
* ``K``  — Agent-Point candidate count,
* ``k``  — kNN result size (an evaluation knob, not a model knob).

Each sweep trains/rolls out on the Geolife profile and reports range-query
F1 (kNN-k reports the kNN-EDR F1), mirroring the paper's finding that
moderate S/E and K=2 are the sweet spot and that accuracy rises with k.
"""

from __future__ import annotations

from dataclasses import replace

from benchmarks.conftest import (
    SETTINGS,
    inference_workload,
    make_workload_factory,
    score_rows,
)
from repro.core import RL4QDTS
from repro.eval import QueryAccuracyEvaluator, QuerySuiteConfig
from repro.eval.experiments import BENCH_CONFIG

_RATIO = 0.045
_S_VALUES = (4, 5, 6, 7)
_E_VALUES = (7, 8, 9)
_K_VALUES = (1, 2, 4)
_KNN_KS = (1, 3, 5, 7)
_CONFIG = replace(
    BENCH_CONFIG, n_inference_queries=800, episodes=3, n_train_databases=2,
    train_budget_ratio=_RATIO,
)


def _run_model_param_sweeps(db):
    def sweep(field, values):
        configs = {v: replace(_CONFIG, **{field: v}) for v in values}
        scored = score_rows(db, SETTINGS["geolife"], configs, _RATIO)
        return {v: row.range_scores()[0] for v, row in scored.items()}

    return {
        "S (start level)": sweep("start_level", _S_VALUES),
        "E (end level)": sweep("end_level", _E_VALUES),
        "K (candidates)": sweep("k_candidates", _K_VALUES),
    }


def bench_param_study_model(benchmark, geolife_bench_db):
    results = benchmark.pedantic(
        _run_model_param_sweeps, args=(geolife_bench_db,), rounds=1, iterations=1
    )
    for param, values in results.items():
        print(f"\n=== Parameter study: {param} (range F1 at r={_RATIO:.1%}) ===")
        print("  ".join(f"{k}={v:.4f}" for k, v in values.items()))
    print("paper: moderate S/E best; K=2 the effectiveness/efficiency sweet spot")

    for param, values in results.items():
        assert all(0.0 <= v <= 1.0 for v in values.values()), param


def _run_knn_k_sweep(db):
    setting = SETTINGS["geolife"]
    factory = make_workload_factory("data", setting, db, 200)
    model = RL4QDTS.train(db, config=_CONFIG, workload_factory=factory)
    annotation = inference_workload(db, setting, "data")
    simplified = model.simplify(db, budget_ratio=_RATIO, seed=1, workload=annotation)
    scores = {}
    for k in _KNN_KS:
        evaluator = QueryAccuracyEvaluator(
            db,
            QuerySuiteConfig(n_knn_queries=6, k=k, clustering_subset=4, seed=0),
        )
        per_task = evaluator.evaluate(simplified, ("knn_edr", "knn_t2vec"))
        scores[k] = (per_task["knn_edr"], per_task["knn_t2vec"])
    return scores


def bench_param_study_knn_k(benchmark, geolife_bench_db):
    scores = benchmark.pedantic(
        _run_knn_k_sweep, args=(geolife_bench_db,), rounds=1, iterations=1
    )
    print("\n=== Parameter study: kNN k (F1 of kNN queries) ===")
    print("k".ljust(6) + "knn_edr".rjust(10) + "knn_t2vec".rjust(12))
    for k, (edr, t2v) in scores.items():
        print(str(k).ljust(6) + f"{edr:.4f}".rjust(10) + f"{t2v:.4f}".rjust(12))
    print("paper: effectiveness improves as k increases")

    ks = sorted(scores)
    # Larger k makes the task more forgiving on average (paper's trend);
    # allow small non-monotonicity at this scale.
    assert scores[ks[-1]][0] >= scores[ks[0]][0] - 0.15
