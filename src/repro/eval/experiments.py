"""Experiment drivers shared by the benchmark harness.

A *method* is a named callable ``(db, ratio) -> simplified_db``. The drivers
run methods across compression ratios against one
:class:`~repro.eval.harness.QueryAccuracyEvaluator` and collect per-task F1
rows — the exact series the paper's comparison figures plot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.baselines.registry import BaselineSpec, simplify_database
from repro.baselines.rlts import RLTSPolicy
from repro.core.config import RL4QDTSConfig
from repro.core.rl4qdts import RL4QDTS
from repro.data.database import TrajectoryDatabase
from repro.eval.harness import ALL_TASKS, QueryAccuracyEvaluator, QuerySuiteConfig
from repro.workloads.generators import RangeQueryWorkload

Method = Callable[[TrajectoryDatabase, float], TrajectoryDatabase]

#: The benches' RL4QDTS scale: the paper's algorithm with S = 6, E = 9,
#: Δ = 10, trained on 3 sub-databases x 80 trajectories x 4 episodes.
#: A bench that differs writes ``dataclasses.replace(BENCH_CONFIG, ...)``;
#: each one sets ``train_budget_ratio`` to the ratio it simplifies at.
BENCH_CONFIG = RL4QDTSConfig(
    start_level=6,
    end_level=9,
    delta=10,
    n_training_queries=200,
    n_inference_queries=1000,
    episodes=4,
    n_train_databases=3,
    train_db_size=80,
    seed=0,
)

#: The benches' evaluator sizes for the kNN, similarity and clustering tasks.
BENCH_QUERY_SUITE = QuerySuiteConfig(
    n_knn_queries=6, n_similarity_queries=6, clustering_subset=14, seed=0
)

#: The paper's skyline baselines per query distribution (Section V-B(1)).
PAPER_SKYLINES = {
    "data": (
        "Top-Down(E,PED)",
        "Top-Down(W,PED)",
        "Bottom-Up(W,PED)",
        "Bottom-Up(E,DAD)",
        "Bottom-Up(E,SED)",
    ),
    "gaussian": (
        "Bottom-Up(E,SED)",
        "RLTS+(E,SED)",
        "Bottom-Up(E,PED)",
        "Top-Down(E,PED)",
    ),
    "real": ("Top-Down(W,PED)", "Top-Down(E,SAD)"),
}


@dataclass(slots=True)
class MethodResult:
    """One (method, ratio) evaluation row."""

    method: str
    ratio: float
    scores: dict[str, float] = field(default_factory=dict)
    simplify_seconds: float = 0.0

    def as_row(self) -> dict:
        row: dict = {"method": self.method, "ratio": self.ratio}
        row.update(self.scores)
        row["time_s"] = round(self.simplify_seconds, 3)
        return row


def baseline_method(
    spec: BaselineSpec, rlts_policy: RLTSPolicy | None = None
) -> Method:
    """Wrap a baseline spec as a method callable."""

    def method(db: TrajectoryDatabase, ratio: float) -> TrajectoryDatabase:
        return simplify_database(db, ratio, spec, rlts_policy=rlts_policy)

    return method


def rl4qdts_method(
    model: RL4QDTS, seed: int = 0, workload: RangeQueryWorkload | None = None
) -> Method:
    """Wrap a trained RL4QDTS model as a method callable.

    ``workload`` passes through to :meth:`RL4QDTS.simplify` as the
    annotation workload.
    """

    def method(db: TrajectoryDatabase, ratio: float) -> TrajectoryDatabase:
        return model.simplify(db, budget_ratio=ratio, seed=seed, workload=workload)

    return method


def compare_methods(
    db: TrajectoryDatabase,
    methods: Mapping[str, Method],
    ratios: Sequence[float],
    evaluator: QueryAccuracyEvaluator,
    tasks: tuple[str, ...] = ALL_TASKS,
) -> list[MethodResult]:
    """Evaluate every method at every ratio; returns one row per pair."""
    results: list[MethodResult] = []
    for ratio in ratios:
        for name, method in methods.items():
            start = time.perf_counter()
            simplified = method(db, ratio)
            elapsed = time.perf_counter() - start
            scores = evaluator.evaluate(simplified, tasks)
            results.append(
                MethodResult(
                    method=name,
                    ratio=ratio,
                    scores=scores,
                    simplify_seconds=elapsed,
                )
            )
    return results


def format_results_table(
    results: Sequence[MethodResult], tasks: tuple[str, ...] = ALL_TASKS
) -> str:
    """A printable fixed-width table of comparison rows."""
    headers = ["method", "ratio", *tasks, "time_s"]
    method_width = max([len(headers[0]), *(len(r.method) for r in results)])
    widths = [method_width, 7] + [11] * len(tasks) + [8]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for r in results:
        cells = [
            r.method.ljust(widths[0]),
            f"{r.ratio:.4f}".ljust(widths[1]),
            *(
                f"{r.scores.get(t, float('nan')):.4f}".ljust(11)
                for t in tasks
            ),
            f"{r.simplify_seconds:.2f}".ljust(8),
        ]
        lines.append("  ".join(cells))
    return "\n".join(lines)
