"""Design-choice ablations beyond Table II.

Three design choices, each with its own evidence:

1. **v_s vs v_t candidate ranking** — the paper states the v_t-based state
   "performs worse" (Section IV-B); we measure both.
2. **Incremental vs naive reward evaluation** — the incremental evaluator
   makes Eq. 10 exact at O(#queries) per insertion; this quantifies the
   speedup over re-running the workload at every reward window.
3. **Naive floors** — uniform and random down-sampling, the sanity floor
   every published method must clear.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from benchmarks.conftest import (
    SETTINGS,
    make_evaluator,
    make_workload_factory,
    score_rows,
)
from repro.baselines import random_simplify_database, uniform_simplify_database
from repro.core.reward import IncrementalRangeEvaluator
from repro.data import SimplificationState
from repro.eval.experiments import BENCH_CONFIG
from repro.queries.metrics import f1_score

_RATIO = 0.045


def _run_point_feature_ablation(db):
    config = replace(
        BENCH_CONFIG, n_inference_queries=800, episodes=3,
        n_train_databases=2, train_budget_ratio=_RATIO,
    )
    scored = score_rows(
        db,
        SETTINGS["geolife"],
        {f: replace(config, point_feature=f) for f in ("vs", "vt")},
        _RATIO,
    )
    return {feature: row.range_scores()[0] for feature, row in scored.items()}


def bench_point_feature_ablation(benchmark, geolife_bench_db):
    scores = benchmark.pedantic(
        _run_point_feature_ablation, args=(geolife_bench_db,), rounds=1,
        iterations=1,
    )
    print("\n=== Design ablation: Agent-Point candidate ranking ===")
    print(f"rank by v_s (paper): range F1 = {scores['vs']:.4f}")
    print(f"rank by v_t:         range F1 = {scores['vt']:.4f}")
    print("paper: the v_t-based state performs worse than the v_s-based one")
    assert 0.0 <= scores["vt"] <= 1.0


def _run_evaluator_comparison(db):
    """Time incremental reward maintenance vs naive full re-evaluation."""
    setting = SETTINGS["geolife"]
    workload = make_workload_factory("data", setting, db, 200)(db, 0)
    state = SimplificationState(db)
    evaluator = IncrementalRangeEvaluator(db, workload)
    evaluator.reset(state)

    rng = np.random.default_rng(0)
    insertions = []
    for _ in range(300):
        tid = int(rng.integers(len(db)))
        interior = [
            i for i in range(1, len(db[tid]) - 1) if not state.is_kept(tid, i)
        ]
        if interior:
            insertions.append((tid, int(rng.choice(interior))))
            state.insert(tid, insertions[-1][1])

    # Incremental: notify per insertion, read diff every 10.
    state_a = SimplificationState(db)
    evaluator.reset(state_a)
    start = time.perf_counter()
    for i, (tid, idx) in enumerate(insertions):
        state_a.insert(tid, idx)
        evaluator.notify_insert(tid, db[tid].points[idx])
        if (i + 1) % 10 == 0:
            evaluator.diff()
    incremental_s = time.perf_counter() - start
    incremental_diff = evaluator.diff()

    # Naive: materialize + full workload re-run at every reward window.
    state_b = SimplificationState(db)
    truth = workload.evaluate(db)
    start = time.perf_counter()
    naive_diff = None
    for i, (tid, idx) in enumerate(insertions):
        state_b.insert(tid, idx)
        if (i + 1) % 10 == 0:
            results = workload.evaluate(state_b.materialize())
            naive_diff = 1.0 - float(
                np.mean([f1_score(t, r) for t, r in zip(truth, results)])
            )
    naive_s = time.perf_counter() - start
    return incremental_s, naive_s, incremental_diff, naive_diff


def bench_incremental_evaluator(benchmark, geolife_bench_db):
    inc_s, naive_s, inc_diff, naive_diff = benchmark.pedantic(
        _run_evaluator_comparison, args=(geolife_bench_db,), rounds=1,
        iterations=1,
    )
    print("\n=== Design ablation: incremental reward evaluation ===")
    print(f"incremental: {inc_s:.3f}s   naive re-run: {naive_s:.3f}s   "
          f"speedup: {naive_s / max(inc_s, 1e-9):.1f}x")
    print(f"final diff agrees: {inc_diff:.6f} vs {naive_diff:.6f}")
    assert abs(inc_diff - naive_diff) < 1e-9
    assert naive_s > inc_s


def _run_floors(db):
    setting = SETTINGS["geolife"]
    evaluator = make_evaluator(db, setting, distribution="data", seed=0)
    return {
        "uniform down-sampling": evaluator.evaluate(
            uniform_simplify_database(db, _RATIO), ("range",)
        )["range"],
        "random down-sampling": evaluator.evaluate(
            random_simplify_database(db, _RATIO, seed=0), ("range",)
        )["range"],
    }


def bench_naive_floors(benchmark, geolife_bench_db):
    scores = benchmark.pedantic(
        _run_floors, args=(geolife_bench_db,), rounds=1, iterations=1
    )
    print("\n=== Sanity floors (range F1 at r=4.5%) ===")
    for name, f1 in scores.items():
        print(f"{name}: {f1:.4f}")
    for f1 in scores.values():
        assert 0.0 <= f1 <= 1.0
