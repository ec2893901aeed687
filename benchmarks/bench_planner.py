"""Pluggable index backends: pruning cost vs workload shape + kNN shard skips.

Two sections, each asserting bit-parity before reporting any number:

* **backends** — for three workload shapes (selective boxes, whole-extent
  time slabs, zero-extent point probes), every backend answers the range
  workload through :class:`~repro.queries.engine.QueryEngine`; the report
  shows wall-clock per backend next to the cost-based planner's estimate
  and its pick, which is how to judge whether the planner's ranking tracks
  reality on this machine.
* **knn-skip** — a spatially clustered database served at K shards under
  the ``spatial`` partitioner: the kNN scatter must return exactly the
  single-database ranking while skipping every shard whose distance lower
  bound proves it irrelevant. The report shows dispatched/skipped counts
  per K and executor; the skip *rate* is the benchmark's headline.

Run standalone::

    python benchmarks/bench_planner.py            # default scale
    python benchmarks/bench_planner.py --smoke    # tiny CI smoke run
    python benchmarks/bench_planner.py --section knn-skip --shards 2 4 8
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.data import BoundingBox, Trajectory, TrajectoryDatabase, synthetic_database
from repro.queries import QueryEngine, knn_query_batch, plan_workload
from repro.queries.planner import PLANNER_BACKENDS
from repro.client import ServiceClient
from repro.service import QueryService
from repro.workloads import RangeQueryWorkload

DEFAULT_TRAJECTORIES = 150
DEFAULT_QUERIES = 80
DEFAULT_SHARDS = (2, 4, 8)


# ------------------------------------------------------------- backends section
def _workload_shapes(db, n_queries: int, seed: int = 7):
    """Three pruning regimes: boxes, temporal slabs, zero-extent probes."""
    ext = db.bounding_box
    rng = np.random.default_rng(seed)
    shapes = {"boxes": RangeQueryWorkload.from_data_distribution(db, n_queries, seed=seed)}
    t_span = ext.tmax - ext.tmin
    shapes["time slabs"] = [
        BoundingBox(
            ext.xmin, ext.xmax, ext.ymin, ext.ymax,
            ext.tmin + f * t_span, ext.tmin + (f + 0.02) * t_span,
        )
        for f in rng.uniform(0.0, 0.98, size=max(n_queries // 4, 4))
    ]
    points = db.point_matrix()
    probe_rows = rng.choice(len(points), size=max(n_queries // 4, 4), replace=False)
    shapes["point probes"] = [
        BoundingBox(p[0], p[0], p[1], p[1], p[2], p[2]) for p in points[probe_rows]
    ]
    return shapes


def run_backends(
    n_trajectories: int = DEFAULT_TRAJECTORIES,
    n_queries: int = DEFAULT_QUERIES,
    repeats: int = 3,
) -> list[tuple[str, str, dict[str, float], dict[str, float]]]:
    """Per (workload shape, backend): measured seconds + planner estimate."""
    db = synthetic_database(
        "geolife", n_trajectories=n_trajectories, points_scale=0.1, seed=7
    )
    rows = []
    for shape_name, workload in _workload_shapes(db, n_queries).items():
        reference = QueryEngine(db).evaluate(workload)
        plan = plan_workload(db, workload)
        measured: dict[str, float] = {}
        for name in PLANNER_BACKENDS:
            backend = plan_workload(db, workload, index=name).backend
            engine = QueryEngine(db, backend=backend)
            result = engine.evaluate(workload)
            assert result == reference, (
                f"{name} diverged on {shape_name!r} — backends must be "
                "answer-invariant"
            )
            best = float("inf")
            for _ in range(repeats):
                engine.clear_cache()
                start = time.perf_counter()
                engine.evaluate(workload)
                best = min(best, time.perf_counter() - start)
            measured[name] = best
        rows.append((shape_name, plan.name, measured, dict(plan.costs)))
    return rows


def _report_backends(rows) -> None:
    print("\n=== backend pruning cost vs workload shape (parity asserted) ===")
    for shape_name, pick, measured, costs in rows:
        fastest = min(measured, key=measured.get)
        print(f"\n{shape_name}:  planner picks '{pick}', fastest measured '{fastest}'")
        for name in PLANNER_BACKENDS:
            marker = " <- planned" if name == pick else ""
            print(
                f"  {name:<10}{measured[name] * 1000:>9.3f} ms   "
                f"(est. cost {costs[name]:>12.1f}){marker}"
            )


# ------------------------------------------------------------- knn-skip section
def _clustered_db(n_clusters: int, per_cluster: int, seed: int = 11):
    """Spatially separated clusters — the shard-skipping-friendly regime."""
    rng = np.random.default_rng(seed)
    trajs = []
    tid = 0
    for c in range(n_clusters):
        cx = 200.0 * c
        for _ in range(per_cluster):
            n = int(rng.integers(8, 20))
            xy = rng.uniform(-5.0, 5.0, size=(n, 2)) + [cx, 0.0]
            t = np.sort(rng.uniform(0.0, 100.0, size=n)) + np.arange(n) * 1e-3
            trajs.append(Trajectory(np.column_stack([xy, t]), traj_id=tid))
            tid += 1
    return TrajectoryDatabase(trajs)


def run_knn_skip(
    shard_counts: tuple[int, ...] = DEFAULT_SHARDS,
    per_cluster: int = 12,
    n_queries: int = 6,
    k: int = 5,
    executors: tuple[str, ...] = ("serial", "process"),
) -> list[tuple[str, int, int, int, float]]:
    """Per (executor, K): dispatched, skipped, and wall-clock — parity first."""
    n_clusters = max(shard_counts)
    db = _clustered_db(n_clusters, per_cluster)
    rng = np.random.default_rng(3)
    qids = [int(i) for i in rng.choice(per_cluster, size=n_queries, replace=False)]
    queries = [db[q] for q in qids]  # all inside the first cluster
    eps = 10.0
    reference = [
        [(float(d), int(t)) for d, t in pairs]
        for pairs in knn_query_batch(db, queries, k, eps=eps, return_pairs=True)
    ]
    rows = []
    for executor in executors:
        for shards in shard_counts:
            with QueryService(
                db, n_shards=shards, partitioner="spatial", executor=executor
            ) as service:
                start = time.perf_counter()
                response = ServiceClient(service).knn(queries, k, eps=eps)
                elapsed = time.perf_counter() - start
                got = [
                    [(float(d), int(t)) for d, t in pairs]
                    for pairs in response.pairs
                ]
                assert got == reference, (
                    f"kNN diverged under shard skipping ({executor}, K={shards})"
                )
                summary = service.stats.summary()
                dispatched = summary["knn_shards_dispatched"]
                skipped = summary["knn_shards_skipped"]
                if shards > 1:
                    assert skipped >= 1, (
                        f"expected >= 1 skipped shard on spatially partitioned "
                        f"clusters ({executor}, K={shards}), got {skipped}"
                    )
                rows.append((executor, shards, dispatched, skipped, elapsed))
    return rows


def _report_knn_skip(rows) -> None:
    print("\n=== kNN shard skipping (top-k parity asserted per row) ===")
    print(f"{'executor':<10}{'K':>4}{'dispatched':>12}{'skipped':>9}{'rate':>7}{'ms':>10}")
    for executor, shards, dispatched, skipped, elapsed in rows:
        rate = skipped / max(dispatched + skipped, 1)
        print(
            f"{executor:<10}{shards:>4}{dispatched:>12}{skipped:>9}"
            f"{rate:>6.0%}{elapsed * 1000:>10.3f}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny scale; still asserts parity and >= 1 skipped shard",
    )
    parser.add_argument(
        "--section", default="all", choices=["all", "backends", "knn-skip"]
    )
    parser.add_argument("--trajectories", type=int, default=DEFAULT_TRAJECTORIES)
    parser.add_argument("--queries", type=int, default=DEFAULT_QUERIES)
    parser.add_argument("--shards", type=int, nargs="+", default=list(DEFAULT_SHARDS))
    parser.add_argument(
        "--executors", nargs="+", default=["serial", "process"],
        choices=["serial", "process"],
    )
    args = parser.parse_args(argv)

    if args.smoke:
        n_trajectories, n_queries, repeats = 25, 12, 1
        shard_counts: tuple[int, ...] = (2, 4)
        per_cluster = 6
    else:
        n_trajectories, n_queries, repeats = args.trajectories, args.queries, 3
        shard_counts = tuple(args.shards)
        per_cluster = 12

    if args.section in ("all", "backends"):
        _report_backends(run_backends(n_trajectories, n_queries, repeats))
    if args.section in ("all", "knn-skip"):
        _report_knn_skip(
            run_knn_skip(
                shard_counts,
                per_cluster=per_cluster,
                executors=tuple(args.executors),
            )
        )
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
