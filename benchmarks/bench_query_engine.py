"""Batch QueryEngine vs the per-query reference paths.

The training loop evaluates its whole range-query workload on every reward
window, and the evaluation harness re-runs the same workload — plus kNN and
aggregate queries — per simplified database, so batched execution
throughput bounds both. Three benchmark sections, each asserting exact
equivalence with its per-query reference before timing:

* ``range``     — workload evaluation: the trajectory-walking
  ``range_query_batch`` vs the engine cold (construction + evaluation),
  warm (memo cleared each run), and memo (cache hit) modes;
* ``knn``       — a ``knn_query`` loop vs ``knn_query_batch`` (CSR
  candidate generation + one batched EDR DP) in two shapes: the harness
  kNN scoring path (central-window queries) and the offline shape
  (full-length queries over a 5% uniform simplification);
* ``aggregate`` — per-box point counts and the density heatmap, over the
  whole extent and over viewports shaped like the serving suite's: the
  per-trajectory scans vs ``QueryEngine.count`` / ``.histogram``.

At default scale the engine must beat the references by >= 5x (range warm)
and >= 3x (kNN batch).

Run standalone::

    python benchmarks/bench_query_engine.py            # default scale
    python benchmarks/bench_query_engine.py --smoke    # tiny CI smoke run
    python benchmarks/bench_query_engine.py --section knn
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.baselines import uniform_simplify_database
from repro.data import synthetic_database
from repro.data.stats import spatial_scale
from repro.queries.aggregate import count_query_scan, density_histogram_scan
from repro.queries.engine import QueryEngine
from repro.queries.knn import knn_query, knn_query_batch
from repro.queries.range_query import range_query_batch
from repro.workloads import RangeQueryWorkload

#: Default scale: the acceptance scenario — 100 range queries over a
#: 200-trajectory synthetic database (8 kNN queries, 64 aggregate boxes).
DEFAULT_TRAJECTORIES = 200
DEFAULT_QUERIES = 100
DEFAULT_KNN_QUERIES = 8
DEFAULT_AGG_BOXES = 64
SECTIONS = ("range", "knn", "aggregate")


def _setup(n_trajectories: int, n_queries: int, seed: int = 7):
    db = synthetic_database(
        "geolife", n_trajectories=n_trajectories, points_scale=0.1, seed=seed
    )
    workload = RangeQueryWorkload.from_data_distribution(db, n_queries, seed=seed)
    return db, workload


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_comparison(
    n_trajectories: int = DEFAULT_TRAJECTORIES,
    n_queries: int = DEFAULT_QUERIES,
    repeats: int = 3,
) -> dict[str, float]:
    """Time all modes; returns seconds per mode (plus the warm speedup)."""
    db, workload = _setup(n_trajectories, n_queries)
    queries = list(workload.queries)

    engine = QueryEngine(db)
    reference = range_query_batch(db, queries)
    assert engine.evaluate(workload) == reference, "engine diverged from reference"

    t_naive = _best_of(lambda: range_query_batch(db, queries), repeats)

    def cold():
        QueryEngine(db).evaluate(workload)

    t_cold = _best_of(cold, repeats)

    def warm():
        engine.clear_cache()
        engine.evaluate(workload)

    t_warm = _best_of(warm, repeats)
    t_memo = _best_of(lambda: engine.evaluate(workload), repeats)

    return {
        "per-query": t_naive,
        "engine cold": t_cold,
        "engine warm": t_warm,
        "engine memo": t_memo,
        "speedup (warm)": t_naive / max(t_warm, 1e-12),
    }


def run_knn_comparison(
    n_trajectories: int = DEFAULT_TRAJECTORIES,
    n_queries: int = DEFAULT_KNN_QUERIES,
    repeats: int = 3,
) -> dict[str, float]:
    """Time the harness kNN scoring path: per-query loop vs batch engine.

    Mirrors :class:`repro.eval.harness.QueryAccuracyEvaluator`: central
    middle-half windows over sampled query trajectories, EDR at the
    dataset-relative threshold. The batch path must return results
    identical to the loop.
    """
    from repro.eval.harness import QueryAccuracyEvaluator

    db, _ = _setup(n_trajectories, 1)
    eps = 0.10 * spatial_scale(db)
    queries = _knn_queries(db, n_queries)
    windows = [QueryAccuracyEvaluator._central_window(q) for q in queries]
    return _time_knn(db, queries, windows, eps, repeats)


def run_knn_offline_comparison(
    n_trajectories: int = DEFAULT_TRAJECTORIES,
    n_queries: int = DEFAULT_KNN_QUERIES,
    repeats: int = 3,
) -> dict[str, float]:
    """Time the offline kNN shape: per-query loop vs batch engine.

    Mirrors the suite's ``offline_simplify`` kNN traffic: full-length query
    trajectories (each over its own time span) against a 5% uniform
    simplification, so every (query, candidate) pair is long x short. The
    batch path must return results identical to the loop.
    """
    db, _ = _setup(n_trajectories, 1)
    eps = 0.10 * spatial_scale(db)
    queries = _knn_queries(db, n_queries)
    simplified = uniform_simplify_database(db, 0.05)
    return _time_knn(simplified, queries, [None] * len(queries), eps, repeats)


def _knn_queries(db, n_queries: int) -> list:
    rng = np.random.default_rng(13)
    qids = rng.choice(len(db), size=n_queries, replace=False)
    return [db[int(qid)] for qid in qids]


def _time_knn(
    db, queries, windows, eps: float, repeats: int
) -> dict[str, float]:
    engine = QueryEngine(db)
    reference = [
        knn_query(db, q, 3, w, "edr", eps=eps) for q, w in zip(queries, windows)
    ]
    batched = knn_query_batch(db, queries, 3, windows, "edr", eps=eps, engine=engine)
    assert batched == reference, "batch kNN diverged from the per-query loop"

    t_loop = _best_of(
        lambda: [
            knn_query(db, q, 3, w, "edr", eps=eps)
            for q, w in zip(queries, windows)
        ],
        repeats,
    )

    def batch():
        engine.clear_cache()
        knn_query_batch(db, queries, 3, windows, "edr", eps=eps, engine=engine)

    t_batch = _best_of(batch, repeats)
    t_memo = _best_of(
        lambda: knn_query_batch(
            db, queries, 3, windows, "edr", eps=eps, engine=engine
        ),
        repeats,
    )
    return {
        "per-query": t_loop,
        "engine batch": t_batch,
        "candidate memo": t_memo,
        "speedup (batch)": t_loop / max(t_batch, 1e-12),
    }


def run_aggregate_comparison(
    n_trajectories: int = DEFAULT_TRAJECTORIES,
    n_boxes: int = DEFAULT_AGG_BOXES,
    grid: int = 32,
    repeats: int = 3,
) -> dict[str, float]:
    """Time batched counts + histogram vs the per-trajectory scans."""
    db, workload = _setup(n_trajectories, n_boxes)
    boxes = workload.boxes

    engine = QueryEngine(db)
    reference_counts = [count_query_scan(db, b) for b in boxes]
    assert engine.count(boxes).tolist() == reference_counts, (
        "engine counts diverged from the scan"
    )
    assert np.array_equal(
        engine.histogram(grid), density_histogram_scan(db, grid)
    ), "engine histogram diverged from the scan"
    # Viewports shaped like the serving suite's: each reads only its slab
    # of the engine's sorted columns.
    viewports = RangeQueryWorkload.from_data_distribution(
        db, n_boxes, spatial_extent=2 * spatial_scale(db), seed=11
    ).boxes
    for box in viewports:
        assert np.array_equal(
            engine.histogram(grid, box), density_histogram_scan(db, grid, box)
        ), f"engine viewport histogram diverged from the scan on {box}"

    t_count_scan = _best_of(
        lambda: [count_query_scan(db, b) for b in boxes], repeats
    )

    def count_batch():
        engine.clear_cache()
        engine.count(boxes)

    t_count_batch = _best_of(count_batch, repeats)
    t_hist_scan = _best_of(lambda: density_histogram_scan(db, grid), repeats)

    def hist_batch():
        engine.clear_cache()
        engine.histogram(grid)

    t_hist_batch = _best_of(hist_batch, repeats)
    t_view_scan = _best_of(
        lambda: [density_histogram_scan(db, grid, b) for b in viewports], repeats
    )

    def view_batch():
        engine.clear_cache()
        for box in viewports:
            engine.histogram(grid, box)

    t_view_batch = _best_of(view_batch, repeats)
    return {
        "count scan": t_count_scan,
        "count batch": t_count_batch,
        "hist scan": t_hist_scan,
        "hist batch": t_hist_batch,
        "viewport scan": t_view_scan,
        "viewport batch": t_view_batch,
        "speedup (count)": t_count_scan / max(t_count_batch, 1e-12),
        "speedup (hist)": t_hist_scan / max(t_hist_batch, 1e-12),
        "speedup (view)": t_view_scan / max(t_view_batch, 1e-12),
    }


def _report(results: dict[str, float], header: str) -> None:
    print(f"\n=== {header} ===")
    for name, value in results.items():
        if name.startswith("speedup"):
            print(f"{name:<16}{value:>10.1f}x")
        else:
            print(f"{name:<16}{value * 1000:>10.3f} ms")


def bench_query_engine(benchmark):
    """pytest-benchmark entry: steady-state engine evaluation."""
    db, workload = _setup(DEFAULT_TRAJECTORIES, DEFAULT_QUERIES)
    engine = QueryEngine(db)
    reference = range_query_batch(db, list(workload.queries))

    def warm():
        engine.clear_cache()
        return engine.evaluate(workload)

    assert benchmark(warm) == reference
    results = run_comparison()
    _report(
        results,
        f"Batch QueryEngine vs per-query loop ({DEFAULT_TRAJECTORIES} "
        f"trajectories, {DEFAULT_QUERIES} range queries)",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny database + workload; checks correctness, skips the speedup bars",
    )
    parser.add_argument(
        "--section",
        choices=SECTIONS + ("all",),
        default="all",
        help="which benchmark section(s) to run",
    )
    parser.add_argument("--trajectories", type=int, default=DEFAULT_TRAJECTORIES)
    parser.add_argument("--queries", type=int, default=DEFAULT_QUERIES)
    parser.add_argument("--knn-queries", type=int, default=DEFAULT_KNN_QUERIES)
    parser.add_argument("--agg-boxes", type=int, default=DEFAULT_AGG_BOXES)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=5.0,
        help="fail unless the warm engine beats the per-query range loop by this",
    )
    parser.add_argument(
        "--min-knn-speedup",
        type=float,
        default=3.0,
        help="fail unless batch kNN beats the per-query loop by this factor",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        n_trajectories, n_queries = 20, 10
        n_knn, n_boxes = 4, 8
    else:
        n_trajectories, n_queries = args.trajectories, args.queries
        n_knn, n_boxes = args.knn_queries, args.agg_boxes
    sections = SECTIONS if args.section == "all" else (args.section,)
    failures: list[str] = []

    if "range" in sections:
        results = run_comparison(n_trajectories, n_queries)
        _report(
            results,
            f"Batch QueryEngine vs per-query loop ({n_trajectories} "
            f"trajectories, {n_queries} range queries)",
        )
        if not args.smoke and results["speedup (warm)"] < args.min_speedup:
            failures.append(
                f"range: warm speedup {results['speedup (warm)']:.1f}x is "
                f"below the {args.min_speedup:.1f}x bar"
            )
    if "knn" in sections:
        results = run_knn_comparison(n_trajectories, n_knn)
        _report(
            results,
            f"Batch kNN (harness scoring path) vs knn_query loop "
            f"({n_trajectories} trajectories, {n_knn} kNN queries, EDR)",
        )
        if not args.smoke and results["speedup (batch)"] < args.min_knn_speedup:
            failures.append(
                f"knn: batch speedup {results['speedup (batch)']:.1f}x is "
                f"below the {args.min_knn_speedup:.1f}x bar"
            )
        _report(
            run_knn_offline_comparison(n_trajectories, n_knn),
            f"Batch kNN (offline shape: full-length queries over a 5% "
            f"uniform simplification) vs knn_query loop ({n_trajectories} "
            f"trajectories, {n_knn} kNN queries, EDR)",
        )
    if "aggregate" in sections:
        results = run_aggregate_comparison(n_trajectories, n_boxes)
        _report(
            results,
            f"Batch aggregates vs per-trajectory scans ({n_trajectories} "
            f"trajectories, {n_boxes} count boxes, 32x32 heatmap over the "
            f"extent and {n_boxes} viewports)",
        )

    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
