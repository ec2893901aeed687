"""Training cost study (paper, Section V-B(11); details in its tech report).

Measures RL4QDTS training wall time and the resulting range-query F1 as two
knobs vary:

* the number of training trajectories (the paper: 6000 suffice),
* the reward period ``delta`` (the paper: 50 is the sweet spot — too small is
  noisy and slow, too large starves credit assignment).
"""

from __future__ import annotations

from dataclasses import replace

from benchmarks.conftest import SETTINGS, score_rows
from repro.eval.experiments import BENCH_CONFIG

_RATIO = 0.045
_TRAIN_SIZES = (20, 40, 80)
_DELTAS = (5, 10, 25)


def _run_training_study(db):
    config = replace(
        BENCH_CONFIG, n_inference_queries=800, episodes=3,
        n_train_databases=2, train_budget_ratio=_RATIO,
    )

    def study(configs):
        scored = score_rows(db, SETTINGS["geolife"], configs, _RATIO)
        return {
            key: (row.train_seconds, row.range_scores()[0])
            for key, row in scored.items()
        }

    by_size = study(
        {n: replace(config, train_db_size=n, delta=10) for n in _TRAIN_SIZES}
    )
    by_delta = study(
        {d: replace(config, train_db_size=40, delta=d) for d in _DELTAS}
    )
    return by_size, by_delta


def bench_training_time(benchmark, geolife_bench_db):
    by_size, by_delta = benchmark.pedantic(
        _run_training_study, args=(geolife_bench_db,), rounds=1, iterations=1
    )

    print("\n=== Training cost vs #training trajectories (delta=10) ===")
    print("trajs".ljust(8) + "train (s)".rjust(12) + "range F1".rjust(12))
    for n, (seconds, f1) in by_size.items():
        print(str(n).ljust(8) + f"{seconds:.2f}".rjust(12) + f"{f1:.4f}".rjust(12))

    print("\n=== Training cost vs delta (40 training trajectories) ===")
    print("delta".ljust(8) + "train (s)".rjust(12) + "range F1".rjust(12))
    for d, (seconds, f1) in by_delta.items():
        print(str(d).ljust(8) + f"{seconds:.2f}".rjust(12) + f"{f1:.4f}".rjust(12))
    print("paper: moderate training set suffices; moderate delta most effective")

    # Training time grows with the training-set size.
    sizes = sorted(by_size)
    assert by_size[sizes[-1]][0] >= by_size[sizes[0]][0] * 0.8
