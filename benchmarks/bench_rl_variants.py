"""Extension bench — RL learner ablation (DQN / Double-DQN / REINFORCE).

The paper trains both agents with vanilla DQN and notes that "other RL
algorithms such as policy gradient can also be used" (Section IV-C). This
bench swaps the learner while holding everything else fixed: same octree,
same MDPs, same shared Δ-window rewards, same training workloads.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from benchmarks.conftest import SETTINGS, score_rows
from repro.eval import ExperimentTable
from repro.eval.experiments import BENCH_CONFIG
from repro.rl import DQNConfig

_RATIO = 0.045
_ROLLOUTS = 3

_VARIANTS = {
    "DQN (paper)": {"learner": "dqn", "dqn": DQNConfig()},
    "Double DQN": {"learner": "dqn", "dqn": DQNConfig(double_dqn=True)},
    "REINFORCE": {"learner": "reinforce", "dqn": DQNConfig()},
}


def _run_learner_comparison(db):
    config = replace(BENCH_CONFIG, n_train_databases=2, train_budget_ratio=_RATIO)
    scored = score_rows(
        db,
        SETTINGS["geolife"],
        {name: replace(config, **overrides) for name, overrides in _VARIANTS.items()},
        _RATIO,
        seeds=range(100, 100 + _ROLLOUTS),
    )
    rows = {}
    for name, row in scored.items():
        f1s = row.range_scores()
        rows[name] = (float(np.mean(f1s)), float(np.std(f1s)), row.train_seconds)
    return rows


def bench_rl_learner_variants(benchmark, geolife_bench_db):
    rows = benchmark.pedantic(
        _run_learner_comparison, args=(geolife_bench_db,), rounds=1, iterations=1
    )
    table = ExperimentTable(
        f"RL learner ablation (Geolife profile, range query, r={_RATIO:.1%})",
        ["learner", "range F1", "std", "train (s)"],
    )
    for name, (mean, std, train_s) in rows.items():
        table.add_row(name, mean, std, train_s)
    table.print()

    # All three learners must produce usable (non-collapsed) policies.
    for name, (mean, _, _) in rows.items():
        assert mean > 0.2, f"{name} collapsed"
