"""Figure 8 — efficiency and scalability.

(a) Running time as the database size ``N`` grows at fixed compression ratio
    (the paper scales OSM to 10^9 points; we sweep the OSM profile at laptop
    scale — the *relative ordering* of methods is the reproduced result).
(b) Running time as the budget ``W`` grows at fixed ``N``.

The paper's finding: Top-Down adaptations are fastest, Bottom-Up adaptations
slowest (they must build the full candidate pool), RL4QDTS in between and
overtaking Top-Down as ``W`` grows.
"""

from __future__ import annotations

import time

from benchmarks.conftest import BenchSetting, inference_workload, train_model
from repro.baselines import get_baseline, simplify_database
from repro.data import synthetic_database

_METHODS = (
    "Top-Down(E,PED)",
    "Top-Down(W,PED)",
    "Bottom-Up(E,SED)",
    "Bottom-Up(W,PED)",
    "RLTS+(E,SED)",
)
_SIZES = (30, 60, 120)  # trajectories of ~570 points each (osm profile)
_RATIOS = (0.01, 0.02, 0.045, 0.1)


def _time_method(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _osm_setting(n: int) -> BenchSetting:
    return BenchSetting("osm", n, 0.1, (0.02,), 0.25)


def _run_scalability(rlts_policies):
    """Fig 8(a): vary N at fixed ratio."""
    rows: dict[str, list[float]] = {m: [] for m in (*_METHODS, "RL4QDTS")}
    sizes_in_points = []
    for n in _SIZES:
        setting = _osm_setting(n)
        db = synthetic_database("osm", n_trajectories=n, points_scale=0.1, seed=7)
        sizes_in_points.append(db.total_points)
        for name in _METHODS:
            spec = get_baseline(name)
            rows[name].append(
                _time_method(
                    lambda: simplify_database(
                        db, 0.02, spec, rlts_policy=rlts_policies.get(spec.measure)
                    )
                )
            )
        model = train_model(db, setting, seed=0)
        annotation = inference_workload(db, setting, "data")
        rows["RL4QDTS"].append(
            _time_method(
                lambda: model.simplify(
                    db, budget_ratio=0.02, seed=1, workload=annotation
                )
            )
        )
    return sizes_in_points, rows


def _run_budget_sweep(rlts_policies):
    """Fig 8(b): vary W at fixed N."""
    setting = _osm_setting(_SIZES[-1])
    db = synthetic_database(
        "osm", n_trajectories=_SIZES[-1], points_scale=0.1, seed=7
    )
    model = train_model(db, setting, seed=0)
    annotation = inference_workload(db, setting, "data")
    rows: dict[str, list[float]] = {m: [] for m in (*_METHODS, "RL4QDTS")}
    for ratio in _RATIOS:
        for name in _METHODS:
            spec = get_baseline(name)
            rows[name].append(
                _time_method(
                    lambda: simplify_database(
                        db, ratio, spec, rlts_policy=rlts_policies.get(spec.measure)
                    )
                )
            )
        rows["RL4QDTS"].append(
            _time_method(
                lambda: model.simplify(
                    db, budget_ratio=ratio, seed=1, workload=annotation
                )
            )
        )
    return db.total_points, rows


def bench_fig8a_scalability(benchmark, rlts_policies):
    sizes, rows = benchmark.pedantic(
        _run_scalability, args=(rlts_policies,), rounds=1, iterations=1
    )
    print("\n=== Figure 8(a): running time (s) vs data size (OSM profile) ===")
    header = "method".ljust(20) + "".join(f"N={s}".rjust(12) for s in sizes)
    print(header)
    print("-" * len(header))
    for name, values in rows.items():
        print(name.ljust(20) + "".join(f"{v:>12.3f}" for v in values))

    for name, values in rows.items():
        # Time grows with N for every method.
        assert values[-1] >= values[0] * 0.5, name


def bench_fig8b_budget(benchmark, rlts_policies):
    n_points, rows = benchmark.pedantic(
        _run_budget_sweep, args=(rlts_policies,), rounds=1, iterations=1
    )
    print(f"\n=== Figure 8(b): running time (s) vs budget (N={n_points}) ===")
    header = "method".ljust(20) + "".join(f"{r:>10.2%}" for r in _RATIOS)
    print(header)
    print("-" * len(header))
    for name, values in rows.items():
        print(name.ljust(20) + "".join(f"{v:>10.3f}" for v in values))
    print(
        "paper: Bottom-Up slowest, Top-Down fastest at small W, RL4QDTS "
        "overtakes Top-Down as W grows"
    )

    # The paper's headline ordering: Bottom-Up(W) is the slowest family.
    assert rows["Bottom-Up(W,PED)"][0] > rows["Top-Down(E,PED)"][0]
