"""Table II — ablation study of RL4QDTS (Geolife).

Four variants are trained and rolled out: the full model, without
Agent-Cube (the start-level cube is sampled by the query distribution and
returned immediately), without Agent-Point (the maximum-``v_s`` candidate is
inserted), and without both. The paper reports range-query F1 (mean ± std
over repeated stochastic rollouts) and the simplification time.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from benchmarks.conftest import SETTINGS, score_rows
from repro.eval.experiments import BENCH_CONFIG

_RATIO = 0.045
_ROLLOUTS = 5  # paper: 50 random-start rollouts; scaled down


def _run_ablation(db):
    config = replace(BENCH_CONFIG, n_train_databases=2, train_budget_ratio=_RATIO)
    variants = {
        "RL4QDTS": (True, True),
        "w/o Agent-Cube": (False, True),
        "w/o Agent-Point": (True, False),
        "w/o Agent-Cube and Agent-Point": (False, False),
    }
    scored = score_rows(
        db,
        SETTINGS["geolife"],
        {
            name: replace(config, use_agent_cube=cube, use_agent_point=point)
            for name, (cube, point) in variants.items()
        },
        _RATIO,
        seeds=range(100, 100 + _ROLLOUTS),
    )
    rows = {}
    for name, row in scored.items():
        f1s = row.range_scores()
        seconds = np.mean([r.simplify_seconds for r in row.results])
        rows[name] = (float(np.mean(f1s)), float(np.std(f1s)), float(seconds))
    return rows


def bench_table2_ablation(benchmark, geolife_bench_db):
    rows = benchmark.pedantic(
        _run_ablation, args=(geolife_bench_db,), rounds=1, iterations=1
    )

    print("\n=== Table II: ablation study (Geolife profile, range query) ===")
    header = "variant".ljust(34) + "Range F1".rjust(18) + "Time (s)".rjust(10)
    print(header)
    print("-" * len(header))
    for name, (mean, std, seconds) in rows.items():
        print(
            name.ljust(34)
            + f"{mean:.3f} ± {std:.3f}".rjust(18)
            + f"{seconds:.2f}".rjust(10)
        )
    print(
        "paper (0.25% Geolife): full 0.733, w/o cube 0.673, w/o point 0.716, "
        "w/o both 0.641"
    )

    full = rows["RL4QDTS"][0]
    neither = rows["w/o Agent-Cube and Agent-Point"][0]
    # The full model should not lose to the agent-free heuristic by more
    # than noise (the paper finds it strictly better).
    assert full >= neither - 0.05
