"""Figure 9 — transferability under query-distribution changes.

RL4QDTS is trained once with Gaussian(0.5, 0.2) range queries on the Geolife
profile, then evaluated on range workloads whose distribution drifts:

* Gaussian mean mu in 0.5..0.9 (moderate shift),
* Gaussian sigma in 0.2..0.85 (moderate spread change),
* Zipf exponent a in 4..8 (drastic change),

against the Bottom-Up(E,SED) baseline, as in the paper.
"""

from __future__ import annotations

from dataclasses import replace

from benchmarks.conftest import (
    SETTINGS,
    inference_workload,
    make_workload_factory,
    query_extents,
)
from repro.baselines import get_baseline, simplify_database
from repro.core import RL4QDTS
from repro.eval import QueryAccuracyEvaluator
from repro.eval.experiments import BENCH_CONFIG
from repro.workloads import RangeQueryWorkload

_RATIO = 0.045
_MUS = (0.5, 0.6, 0.7, 0.8, 0.9)
_SIGMAS = (0.2, 0.4, 0.55, 0.7, 0.85)
_ZIPF_AS = (4.0, 5.0, 6.0, 7.0, 8.0)


def _train_gaussian_model(db):
    setting = SETTINGS["geolife"]
    factory = make_workload_factory("gaussian", setting, db, 200)
    config = replace(BENCH_CONFIG, n_train_databases=2, train_budget_ratio=_RATIO)
    return RL4QDTS.train(db, config=config, workload_factory=factory)


def _score(db, simplified, workload) -> float:
    evaluator = QueryAccuracyEvaluator(db, workload=workload)
    return evaluator.evaluate(simplified, ("range",))["range"]


def _run_transferability(db, rlts_policies):
    setting = SETTINGS["geolife"]
    spatial, temporal = query_extents(db, setting)
    model = _train_gaussian_model(db)
    annotation = inference_workload(db, setting, "gaussian")
    rl_simplified = model.simplify(
        db, budget_ratio=_RATIO, seed=1, workload=annotation
    )
    baseline = simplify_database(db, _RATIO, get_baseline("Bottom-Up(E,SED)"))

    def gaussian_wl(mu, sigma):
        return RangeQueryWorkload.from_gaussian(
            db, 100, mu=mu, sigma=sigma,
            spatial_extent=spatial, temporal_extent=temporal, seed=99,
        )

    def zipf_wl(a):
        return RangeQueryWorkload.from_zipf(
            db, 100, a=a,
            spatial_extent=spatial, temporal_extent=temporal, seed=99,
        )

    panels = {}
    panels["gaussian mu"] = (
        _MUS,
        {
            "RL4QDTS": [
                _score(db, rl_simplified, gaussian_wl(mu, 0.25)) for mu in _MUS
            ],
            "Bottom-Up(E,SED)": [
                _score(db, baseline, gaussian_wl(mu, 0.25)) for mu in _MUS
            ],
        },
    )
    panels["gaussian sigma"] = (
        _SIGMAS,
        {
            "RL4QDTS": [
                _score(db, rl_simplified, gaussian_wl(0.5, s)) for s in _SIGMAS
            ],
            "Bottom-Up(E,SED)": [
                _score(db, baseline, gaussian_wl(0.5, s)) for s in _SIGMAS
            ],
        },
    )
    panels["zipf a"] = (
        _ZIPF_AS,
        {
            "RL4QDTS": [_score(db, rl_simplified, zipf_wl(a)) for a in _ZIPF_AS],
            "Bottom-Up(E,SED)": [_score(db, baseline, zipf_wl(a)) for a in _ZIPF_AS],
        },
    )
    return panels


def bench_fig9_transferability(benchmark, geolife_bench_db, rlts_policies):
    panels = benchmark.pedantic(
        _run_transferability,
        args=(geolife_bench_db, rlts_policies),
        rounds=1,
        iterations=1,
    )

    for panel, (xs, rows) in panels.items():
        print(f"\n=== Figure 9 ({panel}): range F1 under distribution shift ===")
        header = "method".ljust(20) + "".join(f"{x:>9.2f}" for x in xs)
        print(header)
        print("-" * len(header))
        for name, values in rows.items():
            print(name.ljust(20) + "".join(f"{v:>9.4f}" for v in values))
    print(
        "paper: RL4QDTS stays at or above the baseline across all shifts "
        "(robustness of the learned, measure-free policy)"
    )

    for panel, (xs, rows) in panels.items():
        for name, values in rows.items():
            assert all(0.0 <= v <= 1.0 for v in values), (panel, name)
        # RL4QDTS should stay within reach of the baseline even under the
        # most drastic shift (the paper's robustness claim, loosely).
        gaps = [
            b - r
            for r, b in zip(rows["RL4QDTS"], rows["Bottom-Up(E,SED)"])
        ]
        assert max(gaps) < 0.35, panel
