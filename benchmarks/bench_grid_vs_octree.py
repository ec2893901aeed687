"""Octree vs fixed-granularity grid (the paper's Section-I motivation).

The paper motivates the octree by arguing that a *predefined* partitioning
granularity is hard to set and unlikely to work across databases: small
cubes hold too few candidates, large cubes make candidate selection coarse.
This bench tests that claim: RL4QDTS's cube sampler is run over

* the adaptive octree (start level S, traversal down to E), vs
* uniform grids of several fixed granularities (realized as an octree forced
  to split uniformly to one level, with the traversal pinned there),

on two dataset profiles with different spatial scales. The octree should be
competitive with the *best* fixed granularity on each profile while no single
granularity wins on both — which is exactly the paper's argument.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from benchmarks.conftest import SETTINGS, score_rows
from repro.eval.experiments import BENCH_CONFIG

_RATIO = 0.045
_GRID_LEVELS = (4, 6, 8)


def _run(db, setting):
    octree = replace(
        BENCH_CONFIG, n_inference_queries=800, episodes=3,
        n_train_databases=2, train_budget_ratio=_RATIO,
    )
    configs = {"octree (S=6, E=9)": octree}
    for level in _GRID_LEVELS:
        # Uniform grid: force splits down to `level` (leaf_capacity=1) and
        # pin the traversal there — a fixed (2^(level-1))^3-cell partition.
        configs[f"grid 2^{level - 1} per axis"] = replace(
            octree, start_level=level, end_level=level, leaf_capacity=1,
            use_agent_cube=False,
        )
    scored = score_rows(db, setting, configs, _RATIO)
    return {name: row.range_scores()[0] for name, row in scored.items()}


@pytest.mark.parametrize("profile", ["geolife", "chengdu"])
def bench_grid_vs_octree(benchmark, profile, geolife_bench_db, chengdu_bench_db):
    db = geolife_bench_db if profile == "geolife" else chengdu_bench_db
    setting = SETTINGS[profile]
    results = benchmark.pedantic(_run, args=(db, setting), rounds=1, iterations=1)

    print(f"\n=== Octree vs fixed grids ({profile}, range F1 at r={_RATIO:.1%}) ===")
    for name, f1 in results.items():
        print(f"{name:<24}{f1:.4f}")
    print(
        "paper (Section I): a predefined granularity is hard to set and "
        "unlikely to work across databases; the octree adapts"
    )

    octree_f1 = results["octree (S=6, E=9)"]
    best_grid = max(v for k, v in results.items() if k.startswith("grid"))
    # The adaptive index should stay within reach of the best fixed grid.
    assert octree_f1 >= best_grid - 0.1
