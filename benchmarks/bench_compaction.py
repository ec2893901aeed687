"""Storage / accuracy / latency frontier of the compaction policies.

The tiered storage engine (``repro.service.compaction``) trades query
accuracy for base-tier storage: the exact policy keeps every point, the
simplifying policies (uniform, greedy QDTS, RL4QDTS) rebuild the cold
base through a simplifier under a per-trajectory error budget. This
benchmark charts that trade at K shards — for each policy it reports

* **storage** — base-tier points and delta-encoded bytes after the
  construction-time compaction pass (the exact row encodes the original
  database with the same codec, so the bytes column is comparable);
* **accuracy** — the paper's F1 harness (range, kNN-EDR, similarity)
  scored through a :class:`~repro.client.ServiceClient` over the
  compacting service, against ground truth on the original database;
* **latency** — the policy's mean per-pass compaction time (from
  :class:`~repro.service.ServiceStats`) and the warm wall-clock of the
  benchmark request mix on the compacted service.

Full runs append to ``BENCH_compaction.json`` at the repo root (smoke
runs only to an explicit ``--out``) through
:func:`repro.obs.provenance.log_run`, with config provenance.

Run standalone::

    python benchmarks/bench_compaction.py            # default scale
    python benchmarks/bench_compaction.py --smoke    # tiny CI smoke run
    python benchmarks/bench_compaction.py --policies exact uniform --shards 4
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.client import ServiceClient
from repro.data import synthetic_database
from repro.data.codec import storage_report
from repro.data.stats import spatial_scale
from repro.eval.harness import QueryAccuracyEvaluator, QuerySuiteConfig
from repro.obs.provenance import build_provenance, log_run
from repro.service import QueryService
from repro.service.compaction import COMPACTION_POLICIES

TASKS = ("range", "knn_edr", "similarity")
DEFAULT_TRAJECTORIES = 100
DEFAULT_SHARDS = 2
DEFAULT_BUDGET_FRACTION = 0.05


def _setup(n_trajectories: int, seed: int, smoke: bool):
    db = synthetic_database(
        "geolife", n_trajectories=n_trajectories, points_scale=0.1, seed=seed
    )
    config = (
        QuerySuiteConfig(
            n_range_queries=10, n_knn_queries=2, k=2,
            n_similarity_queries=2, clustering_subset=5, seed=seed,
        )
        if smoke
        else QuerySuiteConfig(
            n_range_queries=40, n_knn_queries=6, k=3,
            n_similarity_queries=6, clustering_subset=10, seed=seed,
        )
    )
    return db, QueryAccuracyEvaluator(db, config)


def _request_mix(client, evaluator) -> None:
    """The timed serving mix: the harness's own query suite."""
    client.range(evaluator.workload)
    client.count(evaluator.workload.boxes)
    client.histogram(16)


def _frontier_row(
    policy: str,
    db,
    evaluator,
    n_shards: int,
    budget: float | None,
    repeats: int,
) -> dict:
    """Build one compacting service; measure storage, accuracy, latency."""
    with ServiceClient.for_database(
        db,
        n_shards=n_shards,
        compaction=policy,
        error_budget=None if policy == "exact" else budget,
    ) as client:
        service = client.service
        summary = service.stats.summary()
        if policy == "exact":
            # no construction pass ran; encode the base with the same
            # codec so the storage column is comparable across rows
            report = storage_report(db)
            points_after = db.total_points
            bytes_after = report.encoded_bytes
            compaction_ms = 0.0
        else:
            points_after = db.total_points - summary["points_dropped"]
            bytes_after = summary["bytes_base"]
            compaction_ms = summary.get("compaction_mean_latency_ms", 0.0)
        scores = evaluator.evaluate(db, tasks=TASKS, client=client)
        best = float("inf")
        for _ in range(repeats):
            service.clear_cache(deep=True)
            start = time.perf_counter()
            _request_mix(client, evaluator)
            best = min(best, time.perf_counter() - start)
    return {
        "policy": policy,
        "error_budget": None if policy == "exact" else budget,
        "shards": n_shards,
        "points_before": db.total_points,
        "points_after": int(points_after),
        "bytes_after": int(bytes_after),
        "compactions": summary["compactions"],
        "compaction_mean_latency_ms": compaction_ms,
        "mix_latency_ms": 1000.0 * best,
        "scores": {task: float(scores[task]) for task in TASKS},
    }


def run_frontier(
    n_trajectories: int,
    policies: tuple[str, ...],
    n_shards: int,
    budget_fraction: float,
    repeats: int,
    seed: int = 7,
    smoke: bool = False,
) -> list[dict]:
    db, evaluator = _setup(n_trajectories, seed, smoke)
    budget = budget_fraction * spatial_scale(db)
    print(
        f"=== Compaction frontier: {len(db)} trajectories, "
        f"{db.total_points} points, K={n_shards} shards, "
        f"error budget {budget:.1f} ({budget_fraction:.0%} of scale) ==="
    )
    rows = [
        _frontier_row(policy, db, evaluator, n_shards, budget, repeats)
        for policy in policies
    ]
    header = (
        f"{'policy':<9}{'points kept':>16}{'bytes':>10}{'compact':>10}"
        f"{'mix':>9}" + "".join(f"{t:>12}" for t in TASKS)
    )
    print(header)
    for r in rows:
        kept = r["points_after"] / max(r["points_before"], 1)
        points = f"{r['points_after']} ({kept:.0%})"
        print(
            f"{r['policy']:<9}{points:>16}"
            f"{r['bytes_after'] / 1024:>7.1f}KB"
            f"{r['compaction_mean_latency_ms']:>8.1f}ms"
            f"{r['mix_latency_ms']:>7.1f}ms"
            + "".join(f"{r['scores'][t]:>12.3f}" for t in TASKS)
        )
    exact = next((r for r in rows if r["policy"] == "exact"), None)
    if exact is not None:
        for r in rows:
            if r["policy"] != "exact" and r["bytes_after"] > exact["bytes_after"]:
                print(
                    f"note: {r['policy']} stored more bytes than exact — "
                    "the error budget re-inserted nearly every point"
                )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny database + query suite (CI gate: every policy builds, "
        "serves, and scores)",
    )
    parser.add_argument("--trajectories", type=int, default=DEFAULT_TRAJECTORIES)
    parser.add_argument("--shards", type=int, default=DEFAULT_SHARDS)
    parser.add_argument(
        "--policies", nargs="+", default=list(COMPACTION_POLICIES),
        choices=list(COMPACTION_POLICIES),
    )
    parser.add_argument(
        "--budget-fraction", type=float, default=DEFAULT_BUDGET_FRACTION,
        help="error budget as a fraction of the database's spatial scale",
    )
    parser.add_argument(
        "--out", default=None,
        help="persist results as JSON (default: BENCH_compaction.json at the "
        "repo root for full runs; smoke runs persist only with an "
        "explicit --out)",
    )
    args = parser.parse_args(argv)

    n_trajectories = 16 if args.smoke else args.trajectories
    repeats = 1 if args.smoke else 3

    frontier = run_frontier(
        n_trajectories,
        tuple(args.policies),
        args.shards,
        args.budget_fraction,
        repeats,
        smoke=args.smoke,
    )

    out = args.out
    if out is None and not args.smoke:
        out = os.path.join(
            os.path.dirname(os.path.abspath(__file__)),
            "..", "BENCH_compaction.json",
        )
    if out:
        out = os.path.normpath(out)
        config = {
            "smoke": bool(args.smoke),
            "trajectories": n_trajectories,
            "shards": args.shards,
            "policies": list(args.policies),
            "budget_fraction": args.budget_fraction,
            "tasks": list(TASKS),
            "repeats": repeats,
            "provenance": build_provenance(),
        }
        log_run(out, "bench_compaction", {"config": config, "frontier": frontier})
        print(f"\npersisted results -> {out}")
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
