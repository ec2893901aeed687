"""Sharded QueryService vs the single-process QueryEngine.

Serving is only worth its indirection if fan-out buys wall-clock time, so
this benchmark reports the shard-count scaling curve: the same request mix
(a range workload, per-box counts, the density heatmap, an EDR kNN suite,
and a similarity suite) answered by one engine, then by the service at
K = 1, 2, 4, ... shards under both executors. Before any timing, every service configuration
must return results bit-identical to the single-engine path — the
acceptance gate of the subsystem; scaling numbers for wrong answers are
meaningless.

Expectations, not assertions, for the curve itself: the serial executor
tracks the single engine (same work, small fan-out overhead); the process
executor overlaps shards across cores, so it needs (a) more than one core
and (b) per-request compute that dwarfs the pipe round-trips before K > 1
beats the single engine. The report prints the visible core count — on a
single-core box the whole process column measures pure fan-out overhead.

The second section measures the data plane itself: worker startup time,
broadcast round-trip latency, and peak RSS for ``--store heap`` (each
process-executor worker unpickles a private copy of its shard's columnar
matrix) vs ``--store shm`` (workers map named shared-memory segments
zero-copy). Each (store, K) cell runs in a fresh child process so
``resource.getrusage(RUSAGE_CHILDREN)`` sees exactly that
configuration's workers, and workers use the ``spawn`` start method so
fork's copy-on-write pages cannot mask the private copies. Results are
persisted to ``BENCH_service.json`` with config provenance.

Run standalone::

    python benchmarks/bench_service.py            # default scale
    python benchmarks/bench_service.py --smoke    # tiny CI smoke run
    python benchmarks/bench_service.py --shards 1 2 4 8 --store shm
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone

import numpy as np

from repro.data import synthetic_database
from repro.data.io import load_database, save_database
from repro.data.stats import spatial_scale
from repro.data.store import make_store, shared_memory_available
from repro.eval.harness import QueryAccuracyEvaluator
from repro.queries.engine import QueryEngine
from repro.queries.knn import knn_query_batch
from repro.client import ServiceClient
from repro.service import QueryService, ShardManager
from repro.service.executors import ShardExecutor
from repro.workloads import RangeQueryWorkload

DEFAULT_TRAJECTORIES = 200
DEFAULT_QUERIES = 100
DEFAULT_KNN_QUERIES = 8
DEFAULT_SHARDS = (1, 2, 4)


def _setup(n_trajectories: int, n_queries: int, n_knn: int, seed: int = 7):
    db = synthetic_database(
        "geolife", n_trajectories=n_trajectories, points_scale=0.1, seed=seed
    )
    workload = RangeQueryWorkload.from_data_distribution(db, n_queries, seed=seed)
    rng = np.random.default_rng(seed)
    qids = [int(i) for i in rng.choice(len(db), size=n_knn, replace=False)]
    queries = [db[q] for q in qids]
    windows = [QueryAccuracyEvaluator._central_window(q) for q in queries]
    eps = 0.10 * spatial_scale(db)
    delta = 0.15 * spatial_scale(db)
    return db, workload, queries, windows, eps, delta


def _best_of(fn, repeats: int, setup=None) -> float:
    """Best wall-clock of ``repeats`` runs; ``setup`` runs outside the timer."""
    best = float("inf")
    for _ in range(repeats):
        if setup is not None:
            setup()
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _clear_caches(service_or_engine, single: bool) -> None:
    """Deep cache clear (request LRU *and* engine memos on both sides).

    Run OUTSIDE the timed region: the service's deep clear is a K-worker
    broadcast round-trip while the engine's is a local dict clear, so
    timing it would bias the curve against the service.
    """
    if single:
        service_or_engine.clear_cache()
    else:
        service_or_engine.clear_cache(deep=True)


def _request_mix(
    service_or_engine, workload, queries, windows, eps, delta, single: bool
):
    """The benchmark's request mix on either execution path.

    Callers clear caches first (see :func:`_clear_caches`), so this times
    warm batched execution, not memo lookups.
    """
    if single:
        engine = service_or_engine
        return (
            engine.evaluate(workload),
            engine.count(workload.boxes),
            engine.histogram(32),
            knn_query_batch(
                engine.db, queries, 3, windows, "edr", eps=eps, engine=engine
            ),
            engine.similarity(queries, delta),
        )
    client = ServiceClient(service_or_engine)
    return (
        client.range(workload).result_sets,
        client.count(workload.boxes).counts,
        client.histogram(32).histogram,
        client.knn(queries, 3, windows, eps=eps).neighbors,
        client.similarity(queries, delta).result_sets,
    )


def run_scaling(
    n_trajectories: int = DEFAULT_TRAJECTORIES,
    n_queries: int = DEFAULT_QUERIES,
    n_knn: int = DEFAULT_KNN_QUERIES,
    shard_counts: tuple[int, ...] = DEFAULT_SHARDS,
    repeats: int = 3,
    executors: tuple[str, ...] = ("serial", "process"),
    store: str = "heap",
) -> dict[str, float]:
    """Time the request mix per configuration; parity is asserted first."""
    db, workload, queries, windows, eps, delta = _setup(
        n_trajectories, n_queries, n_knn
    )
    engine = QueryEngine(db)
    _clear_caches(engine, single=True)
    reference = _request_mix(
        engine, workload, queries, windows, eps, delta, single=True
    )

    results: dict[str, float] = {}
    counters: dict[str, dict] = {}
    results["single engine"] = _best_of(
        lambda: _request_mix(
            engine, workload, queries, windows, eps, delta, single=True
        ),
        repeats,
        setup=lambda: _clear_caches(engine, single=True),
    )
    for executor in executors:
        for k in shard_counts:
            with QueryService(
                db, n_shards=k, executor=executor,
                store=store,
            ) as service:
                _clear_caches(service, single=False)
                mix = _request_mix(
                    service, workload, queries, windows, eps, delta, single=False
                )
                assert mix[0] == reference[0], f"range diverged ({executor}, K={k})"
                assert np.array_equal(mix[1], reference[1]), (
                    f"count diverged ({executor}, K={k})"
                )
                assert np.array_equal(mix[2], reference[2]), (
                    f"histogram diverged ({executor}, K={k})"
                )
                assert mix[3] == reference[3], f"kNN diverged ({executor}, K={k})"
                assert mix[4] == reference[4], (
                    f"similarity diverged ({executor}, K={k})"
                )
                results[f"{executor} K={k}"] = _best_of(
                    lambda: _request_mix(
                        service, workload, queries, windows, eps, delta,
                        single=False,
                    ),
                    repeats,
                    setup=lambda: _clear_caches(service, single=False),
                )
                summary = service.stats.summary()
                counters[f"{executor} K={k}"] = {
                    key: summary[key]
                    for key in ("compactions", "points_dropped", "bytes_base")
                }
    print("\ncompaction counters (exact policy; see bench_compaction.py for "
          "the simplifying-policy frontier)")
    for name, c in counters.items():
        print(
            f"{name:<16} compactions={c['compactions']} "
            f"points_dropped={c['points_dropped']} bytes_base={c['bytes_base']}"
        )
    return results


# ---------------------------------------------------------------------------
# Data-plane section: worker startup / broadcast latency / peak RSS per store
# ---------------------------------------------------------------------------

def _vm_hwm_kb(pid: int) -> int:
    """Peak resident set size of a live process in kB (Linux /proc)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _child_measure(cfg: dict) -> dict:
    """One (store, K) data-plane measurement; runs in a fresh process.

    Isolation matters twice over: ``getrusage(RUSAGE_CHILDREN)`` is a
    monotone high-water mark over *all* waited-for children, so each
    configuration must own its process tree; and the ``spawn`` start
    method makes heap-store workers actually pay the snapshot
    pickle/unpickle that fork's copy-on-write would hide.
    """
    import resource

    db = load_database(cfg["db"])
    manager = ShardManager.create(db, cfg["shards"])
    store = make_store(cfg["store"])
    try:
        t0 = time.perf_counter()
        snapshots = manager.export_snapshots(store)
        export_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        executor = ShardExecutor(snapshots, "process", mp_context="spawn")
        executor.broadcast("info", {})  # workers up and answering
        startup_s = time.perf_counter() - t0

        # Workers are idle with engines unbuilt: what is resident now is
        # the data plane itself — a private unpickled snapshot per worker
        # under heap, a not-yet-touched mapping under shm.
        workers_rss_kb = sum(_vm_hwm_kb(p) for p in executor.worker_pids())

        broadcast_s = _best_of(
            lambda: executor.broadcast("info", {}), cfg["repeats"]
        )
        executor.close()
    finally:
        store.close()
    return {
        "store": cfg["store"],
        "shards": cfg["shards"],
        "export_s": export_s,
        "startup_s": startup_s,
        "broadcast_s": broadcast_s,
        "workers_total_peak_rss_kb": workers_rss_kb,
        "worker_max_rss_kb": resource.getrusage(
            resource.RUSAGE_CHILDREN
        ).ru_maxrss,
        "self_max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def run_data_plane(
    n_trajectories: int,
    points_scale: float,
    shard_counts: tuple[int, ...],
    stores: tuple[str, ...],
    repeats: int = 3,
    seed: int = 7,
) -> list[dict]:
    """Per-(store, K) startup/latency/RSS rows, each from a fresh child."""
    db = synthetic_database(
        "geolife", n_trajectories=n_trajectories, points_scale=points_scale,
        seed=seed,
    )
    matrix_mb = db.point_matrix().nbytes / 1e6
    print(
        f"\n=== Data plane: {len(db)} trajectories, "
        f"{matrix_mb:.1f} MB columnar matrix, spawn workers ==="
    )
    rows: list[dict] = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bench_db.npz")
        save_database(db, path)
        for store in stores:
            for k in shard_counts:
                cfg = {
                    "db": path, "store": store, "shards": k,
                    "repeats": repeats,
                }
                proc = subprocess.run(
                    [sys.executable, os.path.abspath(__file__),
                     "--child-measure", json.dumps(cfg)],
                    capture_output=True, text=True, env=os.environ,
                )
                if proc.returncode != 0:
                    raise RuntimeError(
                        f"data-plane child failed ({store}, K={k}):\n"
                        f"{proc.stderr}"
                    )
                rows.append(json.loads(proc.stdout.splitlines()[-1]))
    header = (
        f"{'store':<6}{'K':>3}{'export':>10}{'startup':>10}"
        f"{'broadcast':>11}{'workers RSS':>13}{'max worker':>12}"
    )
    print(header)
    for r in rows:
        print(
            f"{r['store']:<6}{r['shards']:>3}"
            f"{r['export_s'] * 1000:>8.1f}ms"
            f"{r['startup_s'] * 1000:>8.1f}ms"
            f"{r['broadcast_s'] * 1000:>9.2f}ms"
            f"{r['workers_total_peak_rss_kb'] / 1024:>10.1f}MB"
            f"{r['worker_max_rss_kb'] / 1024:>9.1f}MB"
        )
    return rows


# ---------------------------------------------------------------------------
# Replication section: failover recovery, watchdog restart
# ---------------------------------------------------------------------------

def run_replication(
    n_trajectories: int,
    n_queries: int,
    repeats: int = 3,
    seed: int = 7,
) -> dict:
    """Fault-tolerance latencies of the replicated process data plane.

    * **failover_recovery** — SIGKILL one of a shard's two replicas, then
      time the next query burst: the gap over the pre-kill burst is what
      failover (detecting the dead pipe, retrying on the sibling) costs
      the caller.
    * **watchdog_restart** — `restart_dead()` wall time (snapshot attach +
      ingest-log replay + readiness ping), plus the per-replica
      `replication.restart_latency_s` histogram the executor records.

    Parity is asserted around every fault.
    """
    import signal as _signal

    db = synthetic_database(
        "geolife", n_trajectories=n_trajectories, points_scale=0.1, seed=seed
    )
    workload = RangeQueryWorkload.from_data_distribution(
        db, n_queries, seed=seed
    )
    print(
        f"\n=== Replication: {len(db)} trajectories, 2 shards x 2 replicas, "
        f"{n_queries} range queries per burst ==="
    )
    row: dict = {"shards": 2, "replicas": 2}
    with QueryService(
        db,
        n_shards=2,
        executor="process",
        replicas=2,
    ) as service:
        client = ServiceClient(service)
        executor = service._executor

        def burst():
            service.clear_cache(deep=True)
            start = time.perf_counter()
            counts = client.count(workload.boxes).counts
            return time.perf_counter() - start, counts

        reference = burst()[1]
        baseline_s = min(burst()[0] for _ in range(repeats))

        failover, restart = [], []
        for _ in range(repeats):
            victim = executor.replica_sets[0].replicas[0]
            os.kill(victim.proc.pid, _signal.SIGKILL)
            victim.proc.join(timeout=10.0)
            recovery_s, counts = burst()
            assert np.array_equal(counts, reference), "failover changed answers"
            failover.append(recovery_s)
            start = time.perf_counter()
            restarted = executor.restart_dead()
            restart.append(time.perf_counter() - start)
            assert restarted == 1

        stats = executor.replication_stats()
        row.update(
            query_burst_s=baseline_s,
            failover_recovery_s=min(failover),
            restart_s=min(restart),
            counters=stats["counters"]["counters"],
            restart_latency=stats["counters"]["histograms"].get(
                "replication.restart_latency_s"
            ),
        )
    print(
        f"query burst {baseline_s * 1000:>8.2f}ms   "
        f"failover recovery {row['failover_recovery_s'] * 1000:>8.2f}ms\n"
        f"replica restart {row['restart_s'] * 1000:>8.2f}ms"
    )
    return row


def _persist(
    path: str,
    config: dict,
    scaling: dict,
    data_plane: list,
    replication: dict | None = None,
) -> None:
    """Append this run to ``BENCH_service.json`` (config provenance kept)."""
    runs = []
    if os.path.exists(path):
        try:
            with open(path) as fh:
                runs = json.load(fh).get("runs", [])
        except (OSError, ValueError):
            runs = []
    runs.append(
        {
            "config": config,
            "scaling": scaling,
            "data_plane": data_plane,
            **({"replication": replication} if replication else {}),
        }
    )
    with open(path, "w") as fh:
        json.dump(
            {"schema": 1, "benchmark": "bench_service", "runs": runs},
            fh, indent=2, sort_keys=True,
        )
        fh.write("\n")
    print(f"\npersisted results -> {path}")


def _report(results: dict[str, float], header: str) -> None:
    print(f"\n=== {header} ===")
    print(f"visible CPU cores: {os.cpu_count()}")
    base = results["single engine"]
    for name, seconds in results.items():
        rel = base / max(seconds, 1e-12)
        print(f"{name:<16}{seconds * 1000:>10.3f} ms   ({rel:4.2f}x vs single)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny database + workload; checks exact parity, skips speed bars",
    )
    parser.add_argument("--trajectories", type=int, default=DEFAULT_TRAJECTORIES)
    parser.add_argument("--queries", type=int, default=DEFAULT_QUERIES)
    parser.add_argument("--knn-queries", type=int, default=DEFAULT_KNN_QUERIES)
    parser.add_argument(
        "--shards", type=int, nargs="+", default=list(DEFAULT_SHARDS)
    )
    parser.add_argument(
        "--executors", nargs="+", default=["serial", "process"],
        choices=["serial", "process"],
    )
    parser.add_argument(
        "--store", default="heap", choices=["heap", "shm"],
        help="array-store provider for the scaling section (parity is "
        "asserted either way; shm additionally exercises the zero-copy "
        "snapshot path)",
    )
    parser.add_argument(
        "--dp-trajectories", type=int, default=400,
        help="database size for the data-plane section (bigger shows the "
        "heap-vs-shm RSS gap above interpreter baseline)",
    )
    parser.add_argument("--dp-points-scale", type=float, default=1.0)
    parser.add_argument(
        "--skip-data-plane", action="store_true",
        help="scaling/parity section only",
    )
    parser.add_argument(
        "--skip-replication", action="store_true",
        help="skip the failover/restart latency section",
    )
    parser.add_argument(
        "--out", default=None,
        help="persist results as JSON (default: BENCH_service.json at the "
        "repo root for full runs; smoke runs persist only with an "
        "explicit --out)",
    )
    parser.add_argument("--child-measure", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child_measure:
        print(json.dumps(_child_measure(json.loads(args.child_measure))))
        return 0

    if args.smoke:
        n_trajectories, n_queries, n_knn = 20, 10, 4
        shard_counts: tuple[int, ...] = (1, 2)
        repeats = 1
        dp_trajectories, dp_points_scale = 20, 0.1
        dp_shards: tuple[int, ...] = (2,)
    else:
        n_trajectories, n_queries = args.trajectories, args.queries
        n_knn = args.knn_queries
        shard_counts = tuple(args.shards)
        repeats = 3
        dp_trajectories = args.dp_trajectories
        dp_points_scale = args.dp_points_scale
        dp_shards = tuple(k for k in shard_counts if k > 1) or shard_counts

    results = run_scaling(
        n_trajectories,
        n_queries,
        n_knn,
        shard_counts,
        repeats,
        tuple(args.executors),
        store=args.store,
    )
    _report(
        results,
        f"QueryService scaling ({n_trajectories} trajectories, "
        f"{n_queries} range + {n_knn} kNN queries, shard counts "
        f"{list(shard_counts)}, {args.store} store)",
    )

    data_plane: list[dict] = []
    if not args.skip_data_plane:
        stores = ("heap", "shm") if shared_memory_available() else ("heap",)
        data_plane = run_data_plane(
            dp_trajectories, dp_points_scale, dp_shards, stores,
            repeats=repeats,
        )

    replication: dict | None = None
    if not args.skip_replication:
        replication = run_replication(
            n_trajectories, n_queries, repeats=repeats
        )

    out = args.out
    if out is None and not args.smoke:
        out = os.path.join(
            os.path.dirname(os.path.abspath(__file__)),
            "..", "BENCH_service.json",
        )
    if out:
        _persist(
            os.path.normpath(out),
            {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "platform": platform.platform(),
                "cpu_count": os.cpu_count(),
                "timestamp": datetime.now(timezone.utc).isoformat(
                    timespec="seconds"
                ),
                "smoke": bool(args.smoke),
                "scaling": {
                    "trajectories": n_trajectories,
                    "queries": n_queries,
                    "knn_queries": n_knn,
                    "shards": list(shard_counts),
                    "executors": list(args.executors),
                    "store": args.store,
                    "repeats": repeats,
                },
                "data_plane": {
                    "trajectories": dp_trajectories,
                    "points_scale": dp_points_scale,
                    "shards": list(dp_shards),
                    "mp_context": "spawn",
                    "rss_source": "resource.getrusage + /proc VmHWM",
                },
                "replication": None
                if replication is None
                else {
                    "trajectories": n_trajectories,
                    "queries": n_queries,
                    "shards": 2,
                    "replicas": 2,
                    "repeats": repeats,
                },
            },
            results,
            data_plane,
            replication,
        )
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
