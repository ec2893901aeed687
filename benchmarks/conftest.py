"""Shared fixtures and scales for the benchmark harness.

Every paper table/figure has one ``bench_*.py`` module here. The benches run
the *same algorithms* as the paper at laptop scale: datasets are the
synthetic profile analogues, a few hundred trajectories instead of hundreds
of thousands, and compression-ratio sweeps adjusted for the ~10x shorter
trajectories. Each bench prints the series/rows the paper reports so the
output can be compared figure-by-figure.

Heavy shared artifacts (databases, evaluators, trained models) are
session-scoped so the suite does each expensive step once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache

import pytest

from repro.baselines import RLTSPolicy, get_baseline
from repro.core import RL4QDTS
from repro.data import TrajectoryDatabase, synthetic_database
from repro.data.stats import spatial_scale
from repro.eval import (
    QueryAccuracyEvaluator,
    baseline_method,
    compare_methods,
    rl4qdts_method,
)
from repro.eval.experiments import (
    BENCH_CONFIG,
    BENCH_QUERY_SUITE,
    PAPER_SKYLINES,
    Method,
    score_configs,
)
from repro.workloads import RangeQueryWorkload

#: Compression-ratio sweeps. The paper sweeps 0.25%-2% on Geolife/T-Drive
#: (trajectories of ~1.4k-1.7k points) and 2%-20% on Chengdu (~178 points).
#: Our scaled trajectories are ~10x shorter than Geolife's, so the ratios
#: scale up by ~10x to hit the same points-per-trajectory regime.
GEOLIFE_RATIOS = (0.02, 0.03, 0.045, 0.07, 0.1)
CHENGDU_RATIOS = (0.03, 0.045, 0.06, 0.1, 0.2)


@dataclass(frozen=True)
class BenchSetting:
    """One dataset's benchmark configuration."""

    profile: str
    n_trajectories: int
    points_scale: float
    ratios: tuple[float, ...]
    query_extent_factor: float = 0.15  # fraction of the spatial scale
    seed: int = 7


SETTINGS = {
    "geolife": BenchSetting("geolife", 150, 0.12, GEOLIFE_RATIOS, 0.25),
    "tdrive": BenchSetting("tdrive", 120, 0.1, GEOLIFE_RATIOS, 0.25),
    "chengdu": BenchSetting("chengdu", 200, 1.0, CHENGDU_RATIOS, 0.15),
}

#: Distribution-specific workload parameters (paper: Gaussian(0.5, 0.25);
#: we tighten sigma slightly so the concentration survives the scaled-down
#: region sizes).
DISTRIBUTION_KWARGS = {
    "gaussian": {"mu": 0.5, "sigma": 0.2},
}


def build_db(setting: BenchSetting) -> TrajectoryDatabase:
    return synthetic_database(
        setting.profile,
        n_trajectories=setting.n_trajectories,
        points_scale=setting.points_scale,
        seed=setting.seed,
    )


def query_extents(db: TrajectoryDatabase, setting: BenchSetting) -> tuple[float, float]:
    """(spatial, temporal) query extents for a database."""
    spatial = setting.query_extent_factor * spatial_scale(db)
    temporal = db.bounding_box.spans[2] / 2.0
    return spatial, temporal


def make_workload_factory(
    distribution: str,
    setting: BenchSetting,
    db: TrajectoryDatabase,
    n_queries: int,
):
    """A (db, seed) -> workload factory with dataset-scaled extents."""
    spatial, temporal = query_extents(db, setting)
    extra = DISTRIBUTION_KWARGS.get(distribution, {})

    def factory(target_db, seed):
        return RangeQueryWorkload.generate(
            distribution,
            target_db,
            n_queries,
            seed=seed,
            spatial_extent=spatial,
            temporal_extent=temporal,
            **extra,
        )

    return factory


def make_evaluator(
    db: TrajectoryDatabase,
    setting: BenchSetting,
    distribution: str = "data",
    n_range_queries: int = 100,
    seed: int = 0,
) -> QueryAccuracyEvaluator:
    workload = make_workload_factory(distribution, setting, db, n_range_queries)(
        db, seed
    )
    return QueryAccuracyEvaluator(
        db, replace(BENCH_QUERY_SUITE, seed=seed), workload=workload
    )


@cache
def train_model(
    db: TrajectoryDatabase,
    setting: BenchSetting,
    distribution: str = "data",
    seed: int = 0,
) -> RL4QDTS:
    """Train RL4QDTS for one dataset/distribution pair (benchmark scale).

    Memoized for the session on the database object and the arguments as
    spelled (pass ``distribution`` and ``seed`` by keyword): training is
    seeded, so an equal call would rebuild the same model, and the benches
    only run its read-only ``simplify``.
    """
    config = replace(
        BENCH_CONFIG,
        train_db_size=min(BENCH_CONFIG.train_db_size, len(db)),
        train_budget_ratio=setting.ratios[len(setting.ratios) // 2],
        seed=seed,
    )
    factory = make_workload_factory(distribution, setting, db, 200)
    return RL4QDTS.train(db, config=config, workload_factory=factory)


def inference_workload(
    db: TrajectoryDatabase,
    setting: BenchSetting,
    distribution: str,
    seed: int = 4242,
) -> RangeQueryWorkload:
    """The large annotation workload RL4QDTS simplifies against."""
    return make_workload_factory(distribution, setting, db, 1000)(db, seed)


def score_rows(db, setting, configs, ratio, seeds=(1,)):
    """:func:`score_configs` with the benches' data-distribution workloads.

    Each row trains on 200-query workloads, rolls out against
    :func:`inference_workload` and is scored for range F1 by
    :func:`make_evaluator`.
    """
    return score_configs(
        db,
        configs,
        ratio,
        make_evaluator(db, setting, distribution="data", seed=0),
        make_workload_factory("data", setting, db, 200),
        seeds=seeds,
        workload=inference_workload(db, setting, "data"),
    )


def print_series(title: str, ratios, rows: dict[str, list[float]]) -> None:
    """Print one figure's series: methods x ratios."""
    print(f"\n=== {title} ===")
    header = "method".ljust(24) + "".join(f"{r:>9.3%}" for r in ratios)
    print(header)
    print("-" * len(header))
    for name, values in rows.items():
        print(name.ljust(24) + "".join(f"{v:>9.4f}" for v in values))


def paper_methods(
    db: TrajectoryDatabase,
    setting: BenchSetting,
    distribution: str,
    rlts_policies: dict,
    seed: int = 0,
) -> dict[str, Method]:
    """The paper's skyline for ``distribution`` plus RL4QDTS trained on ``db``."""
    model = train_model(db, setting, distribution=distribution, seed=seed)
    methods = {}
    for name in PAPER_SKYLINES[distribution]:
        spec = get_baseline(name)
        methods[name] = baseline_method(spec, rlts_policies.get(spec.measure))
    methods["RL4QDTS"] = rl4qdts_method(
        model, seed + 1, workload=inference_workload(db, setting, distribution)
    )
    return methods


def run_comparison(
    db: TrajectoryDatabase,
    setting: BenchSetting,
    distribution: str,
    rlts_policies: dict,
    tasks=("range", "knn_edr", "knn_t2vec", "similarity", "clustering"),
    seed: int = 0,
):
    """One comparison figure: RL4QDTS vs the paper's skyline baselines.

    Returns ``(ratios, {task: {method: [f1 per ratio]}})``.
    """
    evaluator = make_evaluator(db, setting, distribution=distribution, seed=seed)
    methods = paper_methods(db, setting, distribution, rlts_policies, seed)
    results = compare_methods(db, methods, setting.ratios, evaluator, tasks)
    series = {
        task: {
            name: [r.scores[task] for r in results if r.method == name]
            for name in methods
        }
        for task in tasks
    }
    return setting.ratios, series


def print_comparison(title: str, ratios, series) -> None:
    for task, rows in series.items():
        print_series(f"{title} — {task}", ratios, rows)


# ------------------------------------------------------------------ fixtures
@pytest.fixture(scope="session")
def geolife_bench_db():
    return build_db(SETTINGS["geolife"])


@pytest.fixture(scope="session")
def tdrive_bench_db():
    return build_db(SETTINGS["tdrive"])


@pytest.fixture(scope="session")
def chengdu_bench_db():
    return build_db(SETTINGS["chengdu"])


@pytest.fixture(scope="session")
def rlts_policies(geolife_bench_db):
    """One trained RLTS+ policy per error measure (shared by all benches)."""
    policies = {}
    for measure in ("sed", "ped", "dad", "sad"):
        policies[measure] = RLTSPolicy(measure, seed=1).train(
            geolife_bench_db, n_trajectories=6, episodes=1, seed=1
        )
    return policies
