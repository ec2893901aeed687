"""Extension bench — does QDTS need RL, or is greedy coverage enough?

GreedyQDTS maximizes the training workload's F1 directly (exact marginal
gains, no learning). If the test queries were *identical* to the training
queries it would be near-unbeatable; the interesting question is held-out
behaviour: train/annotate on one sample of the query distribution, evaluate
on an independent sample — exactly the protocol RL4QDTS faces.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import (
    SETTINGS,
    inference_workload,
    make_evaluator,
    train_model,
)
from repro.baselines import get_baseline, greedy_qdts, simplify_database
from repro.eval import ExperimentTable, QueryAccuracyEvaluator

_RATIO = 0.045


def _run_study(db):
    setting = SETTINGS["geolife"]
    evaluator = make_evaluator(db, setting, distribution="data", seed=0)
    model = train_model(db, setting, distribution="data", seed=0)
    annotation = inference_workload(db, setting, "data")

    budget = db.budget_for_ratio(_RATIO)
    methods = {
        # Greedy sees the same annotation workload RL4QDTS simplifies with.
        "GreedyQDTS": lambda: greedy_qdts(
            db, budget, annotation, rng=np.random.default_rng(1)
        ),
        "RL4QDTS": lambda: model.simplify(
            db, budget_ratio=_RATIO, seed=11, workload=annotation
        ),
        "Bottom-Up(E,SED)": lambda: simplify_database(
            db, _RATIO, get_baseline("Bottom-Up(E,SED)")
        ),
    }
    training = QueryAccuracyEvaluator(db, workload=annotation)
    rows = {}
    for name, run in methods.items():
        simplified = run()
        rows[name] = (
            training.evaluate(simplified, ("range",))["range"],
            evaluator.evaluate(simplified, ("range",))["range"],
        )
    return rows


def bench_greedy_qdts(benchmark, geolife_bench_db):
    rows = benchmark.pedantic(
        _run_study, args=(geolife_bench_db,), rounds=1, iterations=1
    )
    table = ExperimentTable(
        f"Greedy coverage vs learned policies (Geolife profile, r={_RATIO:.1%})",
        ["method", "training-workload F1", "held-out range F1"],
    )
    for name, (training, held_out) in rows.items():
        table.add_row(name, training, held_out)
    table.print()
    print(
        "GreedyQDTS optimizes the annotation queries exactly; the held-out "
        "column shows how much of that is overfitting to the sample."
    )

    # Greedy must dominate everything on the queries it optimizes...
    assert rows["GreedyQDTS"][0] >= rows["RL4QDTS"][0] - 1e-9
    assert rows["GreedyQDTS"][0] >= rows["Bottom-Up(E,SED)"][0] - 1e-9
    # ...and all methods must stay in a sane band on held-out queries.
    for name, (_, held_out) in rows.items():
        assert held_out > 0.2, f"{name} collapsed"
