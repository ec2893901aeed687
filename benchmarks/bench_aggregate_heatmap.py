"""Extension bench — aggregate (heatmap) preservation across simplifiers.

Density aggregates are the "possibly others" of the paper's query remarks
(Section III-B): unlike range/kNN/similarity results, a cell's count drops
with *every* dropped point, so aggregate preservation stresses how evenly a
simplifier spends its budget. This bench scores heatmap intersection (the
normalized-histogram overlap) for RL4QDTS, a skyline error-driven baseline,
the uniform-thinning floor, and the stay-aware rule.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import SETTINGS, inference_workload, train_model
from repro.baselines import get_baseline, simplify_database, uniform_simplify_database
from repro.data import stay_aware_simplify_database, stay_statistics
from repro.data.stats import spatial_scale
from repro.eval import ExperimentTable
from repro.queries import heatmap_f1

_RATIO = 0.045
_GRID = 24


def _run_heatmap_study(db):
    setting = SETTINGS["geolife"]
    model = train_model(db, setting, distribution="data", seed=0)
    annotation = inference_workload(db, setting, "data")

    # Geolife-style stay definition: within 2% of a trajectory diameter for
    # at least ~10 sampling periods.
    radius = 0.02 * spatial_scale(db)
    dwell = 10.0 * float(
        np.median(np.concatenate([t.sampling_intervals() for t in db]))
    )
    methods = {
        "RL4QDTS": lambda: model.simplify(
            db, budget_ratio=_RATIO, seed=101, workload=annotation
        ),
        "Bottom-Up(E,SED)": lambda: simplify_database(
            db, _RATIO, get_baseline("Bottom-Up(E,SED)")
        ),
        "uniform thinning": lambda: uniform_simplify_database(db, _RATIO),
        "stay-aware (no budget)": lambda: stay_aware_simplify_database(
            db, radius, dwell
        ),
    }
    rows = []
    for name, run in methods.items():
        simplified = run()
        rows.append(
            (
                name,
                simplified.total_points / db.total_points,
                heatmap_f1(db, simplified, grid=_GRID),
            )
        )
    stays = stay_statistics(db, radius, dwell)
    return rows, stays


def bench_aggregate_heatmap(benchmark, geolife_bench_db):
    rows, stays = benchmark.pedantic(
        _run_heatmap_study, args=(geolife_bench_db,), rounds=1, iterations=1
    )
    table = ExperimentTable(
        f"Heatmap preservation (Geolife profile, {_GRID}x{_GRID} raster, "
        f"budget r={_RATIO:.1%} where applicable)",
        ["method", "kept fraction", "heatmap intersection"],
    )
    for name, kept, score in rows:
        table.add_row(name, kept, score)
    table.print()
    print(
        f"stay structure: {stays['n_stays']:.0f} episodes, "
        f"{stays['stay_point_fraction']:.1%} of points inside stays"
    )

    scores = {name: score for name, _, score in rows}
    # Uniform thinning is the heatmap-optimal strategy at a fixed budget (it
    # preserves relative density by construction) — nothing should beat it
    # by a margin, and every method must stay in a sane band.
    for name, score in scores.items():
        assert 0.1 < score <= 1.0, f"{name} heatmap collapsed"
    assert scores["uniform thinning"] >= scores["Bottom-Up(E,SED)"] - 0.1
