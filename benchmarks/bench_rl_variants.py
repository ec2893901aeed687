"""Extension bench — RL learner ablation (DQN / Double-DQN / REINFORCE).

The paper trains both agents with vanilla DQN and notes that "other RL
algorithms such as policy gradient can also be used" (Section IV-C). This
bench swaps the learner while holding everything else fixed: same octree,
same MDPs, same shared Δ-window rewards, same training workloads.
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
from repro.rl import DQNConfig

_RATIO = 0.045
_ROLLOUTS = 3

_VARIANTS = {
    "DQN (paper)": {"learner": "dqn", "dqn": DQNConfig()},
    "Double DQN": {"learner": "dqn", "dqn": DQNConfig(double_dqn=True)},
    "REINFORCE": {"learner": "reinforce", "dqn": DQNConfig()},
}


def _run_learner_comparison(db):
    setting = SETTINGS["geolife"]
    evaluator = make_evaluator(db, setting, distribution="data", seed=0)
    factory = make_workload_factory("data", setting, db, 200)
    annotation = inference_workload(db, setting, "data")
    rows = {}
    for name, overrides in _VARIANTS.items():
        config = replace(
            BENCH_CONFIG, n_train_databases=2, train_budget_ratio=_RATIO,
            **overrides,
        )
        start = time.perf_counter()
        model = RL4QDTS.train(db, config=config, workload_factory=factory)
        train_time = time.perf_counter() - start
        f1s = []
        for rollout in range(_ROLLOUTS):
            simplified = model.simplify(
                db, budget_ratio=_RATIO, seed=100 + rollout, workload=annotation
            )
            f1s.append(evaluator.evaluate(simplified, ("range",))["range"])
        rows[name] = (float(np.mean(f1s)), float(np.std(f1s)), train_time)
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
