"""Extension bench — index ablation.

The paper leaves one question open (Section I: "we leave other indexes,
e.g., kd-tree, for future exploration"): does RL4QDTS behave differently
over the median-split kd-tree than over the midpoint-split octree?
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from benchmarks.conftest import (
    SETTINGS,
    inference_workload,
    make_evaluator,
    make_workload_factory,
)
from repro.core import RL4QDTS
from repro.eval import ExperimentTable
from repro.eval.experiments import BENCH_CONFIG

_RATIO = 0.045
_ROLLOUTS = 3


def _run_tree_comparison(db):
    setting = SETTINGS["geolife"]
    evaluator = make_evaluator(db, setting, distribution="data", seed=0)
    factory = make_workload_factory("data", setting, db, 200)
    annotation = inference_workload(db, setting, "data")
    rows = {}
    for index in ("octree", "kdtree"):
        config = replace(
            BENCH_CONFIG, index=index, n_train_databases=2,
            train_budget_ratio=_RATIO,
        )
        start = time.perf_counter()
        model = RL4QDTS.train(db, config=config, workload_factory=factory)
        train_time = time.perf_counter() - start
        f1s = []
        start = time.perf_counter()
        for rollout in range(_ROLLOUTS):
            simplified = model.simplify(
                db, budget_ratio=_RATIO, seed=100 + rollout, workload=annotation
            )
            f1s.append(evaluator.evaluate(simplified, ("range",))["range"])
        simplify_time = (time.perf_counter() - start) / _ROLLOUTS
        rows[index] = (
            float(np.mean(f1s)),
            float(np.std(f1s)),
            train_time,
            simplify_time,
        )
    return rows


def bench_tree_index_variants(benchmark, geolife_bench_db):
    rows = benchmark.pedantic(
        _run_tree_comparison, args=(geolife_bench_db,), rounds=1, iterations=1
    )
    table = ExperimentTable(
        "Index ablation: RL4QDTS over octree vs kd-tree (Geolife profile, "
        f"r={_RATIO:.1%})",
        ["index", "range F1", "std", "train (s)", "simplify (s)"],
    )
    for index, (mean, std, train_s, simp_s) in rows.items():
        table.add_row(index, mean, std, train_s, simp_s)
    table.print()

    # Both trees must produce usable policies; neither should collapse.
    for index, (mean, _, _, _) in rows.items():
        assert mean > 0.2, f"{index} policy collapsed"
