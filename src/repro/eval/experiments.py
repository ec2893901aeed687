"""Experiment drivers shared by the benchmark harness.

A *method* is a named callable ``(db, ratio) -> simplified_db``. The drivers
run methods across compression ratios against one
:class:`~repro.eval.harness.QueryAccuracyEvaluator` and collect per-task F1
rows — the exact series the paper's comparison figures plot.
:func:`score_configs` trains named RL4QDTS configs and scores their
rollouts through :func:`compare_methods`; :func:`grid_search` runs on it.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Hashable, Mapping, Sequence, TypeVar

from repro.baselines.registry import BaselineSpec, simplify_database
from repro.baselines.rlts import RLTSPolicy
from repro.core.config import RL4QDTSConfig
from repro.core.rl4qdts import RL4QDTS, WorkloadFactory
from repro.data.database import TrajectoryDatabase
from repro.eval.harness import ALL_TASKS, QueryAccuracyEvaluator, QuerySuiteConfig
from repro.workloads.generators import RangeQueryWorkload

Method = Callable[[TrajectoryDatabase, float], TrajectoryDatabase]
Row = TypeVar("Row", bound=Hashable)

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


@dataclass(slots=True)
class ConfigResult:
    """One trained RL4QDTS row: its model, training time and scored rollouts.

    ``results`` holds one :class:`MethodResult` per rollout seed, in the
    order the seeds were given.
    """

    model: RL4QDTS
    train_seconds: float
    results: list[MethodResult]

    def range_scores(self) -> list[float]:
        """One range F1 per rollout, in seed order."""
        return [r.scores["range"] for r in self.results]


def score_configs(
    db: TrajectoryDatabase,
    configs: Mapping[Row, RL4QDTSConfig],
    ratio: float,
    evaluator: QueryAccuracyEvaluator,
    workload_factory: WorkloadFactory | None = None,
    *,
    seeds: Sequence[int],
    workload: RangeQueryWorkload | None = None,
) -> dict[Row, ConfigResult]:
    """Train every named config on ``db`` once and score its rollouts.

    Each row is trained (and timed) by :meth:`RL4QDTS.train` with
    ``workload_factory``, then rolled out once per seed in ``seeds`` as
    ``rl4qdts_method(model, seed, workload=workload)`` at ``ratio`` and
    scored for range F1 by :func:`compare_methods`, which names each
    result ``str(row)``. Rows are trained and scored in the mapping's
    order.
    """
    rows: dict[Row, ConfigResult] = {}
    for name, config in configs.items():
        start = time.perf_counter()
        model = RL4QDTS.train(db, config=config, workload_factory=workload_factory)
        train_seconds = time.perf_counter() - start
        results = [
            compare_methods(
                db,
                {str(name): rl4qdts_method(model, seed, workload=workload)},
                (ratio,),
                evaluator,
                ("range",),
            )[0]
            for seed in seeds
        ]
        rows[name] = ConfigResult(model, train_seconds, results)
    return rows


@dataclass(frozen=True, slots=True)
class TrialResult:
    """Outcome of one hyper-parameter combination."""

    overrides: dict
    f1: float
    train_seconds: float
    simplify_seconds: float

    def __str__(self) -> str:
        params = ", ".join(f"{k}={v}" for k, v in self.overrides.items())
        return f"F1={self.f1:.3f} ({params})"


def grid_search(
    db: TrajectoryDatabase,
    param_grid: dict[str, list],
    base_config: RL4QDTSConfig | None = None,
    budget_ratio: float = 0.05,
    test_workload: RangeQueryWorkload | None = None,
    n_test_queries: int = 100,
    seed: int = 0,
) -> list[TrialResult]:
    """Train and score every combination of ``param_grid``; best first.

    Each trial is one :func:`score_configs` row, scored for range F1 by a
    :class:`QueryAccuracyEvaluator` over ``test_workload``.

    Parameters
    ----------
    db:
        Database to tune on (training samples sub-databases from it; the
        final evaluation simplifies all of it).
    param_grid:
        Mapping of :class:`RL4QDTSConfig` field names to candidate values,
        e.g. ``{"start_level": [4, 6], "delta": [10, 25]}``.
    base_config:
        Config the overrides are applied to; defaults to
        :class:`RL4QDTSConfig()`.
    budget_ratio:
        Compression ratio used for the evaluation rollout.
    test_workload:
        Held-out range queries for scoring. Defaults to a data-distribution
        workload that none of the trials trains on (seeded separately).
    n_test_queries:
        Size of the default test workload.
    seed:
        Base seed; trial ``i`` trains and rolls out with ``seed + i`` so
        trials are independent but reproducible.
    """
    if not param_grid:
        raise ValueError("param_grid must contain at least one parameter")
    base_config = base_config or RL4QDTSConfig()
    unknown = set(param_grid) - set(RL4QDTSConfig.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    if test_workload is None:
        test_workload = RangeQueryWorkload.from_data_distribution(
            db, n_test_queries, seed=seed + 987_654
        )
    evaluator = QueryAccuracyEvaluator(db, workload=test_workload)

    names = list(param_grid)
    results: list[TrialResult] = []
    for i, combo in enumerate(itertools.product(*param_grid.values())):
        overrides = dict(zip(names, combo))
        config = replace(base_config, **overrides, seed=seed + i)
        row = score_configs(
            db, {"trial": config}, budget_ratio, evaluator, seeds=(seed + i,)
        )["trial"]
        (rollout,) = row.results
        results.append(
            TrialResult(
                overrides,
                rollout.scores["range"],
                row.train_seconds,
                rollout.simplify_seconds,
            )
        )
    results.sort(key=lambda r: -r.f1)
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
