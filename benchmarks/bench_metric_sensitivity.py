"""Extension bench — are the conclusions an artifact of the F1 metric?

The paper scores everything with the F1 of Eq. 3. This bench re-scores the
same simplified databases under alternative measures — Jaccard for range
results, Kendall tau over kNN *rankings*, adjusted Rand index for the
clustering partition, and heatmap intersection — and checks whether the
method ordering survives the metric change.
"""

from __future__ import annotations

from benchmarks.conftest import SETTINGS, inference_workload, make_evaluator, train_model
from repro.baselines import get_baseline, simplify_database, uniform_simplify_database
from repro.eval import ExperimentTable

_RATIO = 0.045


def _run_metric_study(db):
    setting = SETTINGS["geolife"]
    evaluator = make_evaluator(db, setting, distribution="data", seed=0)
    model = train_model(db, setting, distribution="data", seed=0)
    annotation = inference_workload(db, setting, "data")

    methods = {
        "RL4QDTS": lambda: model.simplify(
            db, budget_ratio=_RATIO, seed=11, workload=annotation
        ),
        "Top-Down(E,PED)": lambda: simplify_database(
            db, _RATIO, get_baseline("Top-Down(E,PED)")
        ),
        "Bottom-Up(E,SED)": lambda: simplify_database(
            db, _RATIO, get_baseline("Bottom-Up(E,SED)")
        ),
        "uniform": lambda: uniform_simplify_database(db, _RATIO),
    }
    rows = {}
    for name, run in methods.items():
        simplified = run()
        f1 = evaluator.evaluate(simplified, ("range",))["range"]
        extended = evaluator.evaluate_extended(simplified)
        rows[name] = (f1, extended)
    return rows


def bench_metric_sensitivity(benchmark, geolife_bench_db):
    rows = benchmark.pedantic(
        _run_metric_study, args=(geolife_bench_db,), rounds=1, iterations=1
    )
    table = ExperimentTable(
        f"Metric sensitivity (Geolife profile, r={_RATIO:.1%})",
        ["method", "range F1", "range Jaccard", "kNN tau",
         "clustering ARI", "heatmap"],
    )
    for name, (f1, ext) in rows.items():
        table.add_row(
            name, f1, ext["range_jaccard"], ext["knn_edr_tau"],
            ext["clustering_ari"], ext["heatmap"],
        )
    table.print()

    # F1 and Jaccard are monotone-equivalent per query, so the mean scores
    # must order the methods (nearly) identically.
    by_f1 = sorted(rows, key=lambda m: -rows[m][0])
    by_jaccard = sorted(rows, key=lambda m: -rows[m][1]["range_jaccard"])
    assert by_f1[0] == by_jaccard[0], "metric choice flipped the winner"
    for name, (f1, ext) in rows.items():
        # Jaccard is always <= F1 (J = F1 / (2 - F1)).
        assert ext["range_jaccard"] <= f1 + 1e-9
        assert -1.0 <= ext["knn_edr_tau"] <= 1.0
        assert 0.0 <= ext["heatmap"] <= 1.0
