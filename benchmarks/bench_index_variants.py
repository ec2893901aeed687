"""Extension bench — index ablation.

The paper leaves one question open (Section I: "we leave other indexes,
e.g., kd-tree, for future exploration"): does RL4QDTS behave differently
over the median-split kd-tree than over the midpoint-split octree?
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from benchmarks.conftest import SETTINGS, score_rows
from repro.eval import ExperimentTable
from repro.eval.experiments import BENCH_CONFIG

_RATIO = 0.045
_ROLLOUTS = 3


def _run_tree_comparison(db):
    config = replace(BENCH_CONFIG, n_train_databases=2, train_budget_ratio=_RATIO)
    scored = score_rows(
        db,
        SETTINGS["geolife"],
        {index: replace(config, index=index) for index in ("octree", "kdtree")},
        _RATIO,
        seeds=range(100, 100 + _ROLLOUTS),
    )
    rows = {}
    for index, row in scored.items():
        f1s = row.range_scores()
        rows[index] = (
            float(np.mean(f1s)),
            float(np.std(f1s)),
            row.train_seconds,
            float(np.mean([r.simplify_seconds for r in row.results])),
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
