"""kNN shard skipping: exact top-k while skipping provably irrelevant shards.

A spatially clustered database is served at K shards under the ``spatial``
partitioner: the kNN scatter must return exactly the single-database
ranking while skipping every shard whose distance lower bound proves it
irrelevant. Parity is asserted before any number is reported. The report
shows dispatched/skipped counts per K and executor; the skip *rate* is the
benchmark's headline.

Run standalone::

    python benchmarks/bench_planner.py            # default scale
    python benchmarks/bench_planner.py --smoke    # tiny CI smoke run
    python benchmarks/bench_planner.py --shards 2 4 8
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.client import ServiceClient
from repro.data import Trajectory, TrajectoryDatabase
from repro.queries import knn_query_batch
from repro.service import QueryService

DEFAULT_SHARDS = (2, 4, 8)


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
    parser.add_argument("--shards", type=int, nargs="+", default=list(DEFAULT_SHARDS))
    parser.add_argument(
        "--executors", nargs="+", default=["serial", "process"],
        choices=["serial", "process"],
    )
    args = parser.parse_args(argv)

    if args.smoke:
        shard_counts: tuple[int, ...] = (2, 4)
        per_cluster = 6
    else:
        shard_counts = tuple(args.shards)
        per_cluster = 12

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
