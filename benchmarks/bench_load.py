"""Seeded load harness against a live ``repro serve --listen``.

Two driving modes against the same deterministic schedule machinery:

**Open-loop** (default): the request schedule is generated *up front*
from one seed (so two runs with the same seed replay the identical
workload — the schedule digest printed and stored proves it), and
requests are dispatched at scheduled arrival times whether or not
earlier requests have returned, so a slow server accumulates queueing
delay in the measured latency instead of silently throttling the offered
load (closed-loop harnesses hide exactly the tail this repo's histograms
are built to expose). ``--rate-profile diurnal`` modulates the arrival
rate sinusoidally around ``--qps`` (one cycle over the run by default) —
the rate profile is part of the digested config, so diurnal schedules
prove their determinism the same way constant ones do.

**Closed-loop concurrency sweep** (``--sweep``): measures how serving
throughput *scales* with pipelined async clients. Level ``C`` drives the
query-only schedule through ``C`` :class:`repro.client.AsyncRemoteClient`
connections, each pipelining ``--pipeline`` requests; the baseline level
is one client at pipeline depth 1 (the historical strict request/reply
client). Per level the run records aggregate throughput, p50/p99, and
``scaling_vs_single`` — the throughput ratio against the baseline, which
is the machine-normalized number CI gates on.

The mix is Zipf-skewed twice over, mirroring the paper's skewed-workload
study: range-query centres come from
:meth:`repro.workloads.RangeQueryWorkload.from_zipf`, and *which* pooled
query a slot replays is itself Zipf-distributed — popular queries repeat,
so the server's ``(request, epoch)`` LRU sees a realistic hit rate.
Streamed ingest batches interleave at ``--ingest-ratio`` (open-loop
only), bumping the epoch mid-run the way a live service would.

Latencies are recorded client-side into the same log-bucketed
:class:`repro.obs.metrics.Histogram` the server uses, and every run is
appended to ``BENCH_load.json`` with full provenance (seed, config,
schedule digest, python/numpy versions) plus the server's own metrics
report fetched over the wire ``metrics`` op. ``--gate NEW --against
BASE`` turns the stored trajectory into a regression gate: each new run
is compared against the last stored run with the same config profile and
fails the build when its gate metric (open-loop: throughput; sweep: the
top level's scaling ratio) drops more than ``--gate-threshold``.

Run standalone::

    python benchmarks/bench_load.py --qps 50 --seed 7
    python benchmarks/bench_load.py --rate-profile diurnal --qps 50
    python benchmarks/bench_load.py --sweep --workers 8
    python benchmarks/bench_load.py --smoke --out BENCH_load_smoke.json
    python benchmarks/bench_load.py --validate BENCH_load_smoke.json
    python benchmarks/bench_load.py --gate BENCH_load_smoke.json \\
        --against BENCH_load.json
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.client import AsyncRemoteClient, RemoteClient
from repro.data import save_database, synthetic_database
from repro.data.stats import spatial_scale
from repro.data.trajectory import Trajectory
from repro.obs.metrics import Histogram
from repro.obs.provenance import build_provenance, load_runs, log_run, validate_run
from repro.workloads import RangeQueryWorkload

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_load.json"

#: Offered mix over the five query kinds (Zipf-ish: rank^-1 over the kinds
#: ordered by how often an analytics dashboard issues them).
KIND_WEIGHTS = {
    "range": 1.0,
    "count": 1.0 / 2.0,
    "histogram": 1.0 / 3.0,
    "knn": 1.0 / 4.0,
    "similarity": 1.0 / 5.0,
}

POOL_SIZE = 24  # distinct queries per kind; slots replay Zipf-ranked entries

#: The sweep measures serving concurrency, so its schedule keeps only the
#: bounded-payload kinds: knn/similarity frames inline full trajectory
#: point arrays (tens of KB each), which turns the measurement into wire
#: bandwidth on the single core the client and server share. The
#: open-loop run still exercises all five kinds.
SWEEP_KINDS = ("range", "count", "histogram")


# --------------------------------------------------------------- the schedule
def _zipf_pick(rng: np.random.Generator, n: int, a: float) -> int:
    """One Zipf(``a``)-distributed index into a pool of ``n`` entries."""
    ranks = np.arange(1, n + 1, dtype=float)
    probs = ranks**-a
    return int(rng.choice(n, p=probs / probs.sum()))


def rate_config(args) -> dict:
    """The arrival-rate profile as JSON-safe config (part of the digest)."""
    cfg = {"profile": args.rate_profile, "qps": args.qps}
    if args.rate_profile == "diurnal":
        cfg["amplitude"] = args.rate_amplitude
        cfg["period_s"] = args.rate_period  # None -> one cycle over the run
    return cfg


def arrival_offsets(args, n_slots: int) -> list[float]:
    """Deterministic open-loop arrival offsets (seconds from run start).

    ``constant`` is the historical ``i / qps`` grid. ``diurnal`` modulates
    the instantaneous rate sinusoidally, ``r(t) = qps * (1 + A sin(2πt/T))``,
    and integrates it by incremental inversion (``t += 1/r(t)``), so one
    run sweeps through a rush-hour peak and a trough. Pure arithmetic on
    the digested config — no RNG — so equal configs replay equal arrivals.
    """
    if args.rate_profile == "constant":
        return [i / args.qps for i in range(n_slots)]
    if args.rate_profile != "diurnal":
        raise ValueError(f"unknown rate profile {args.rate_profile!r}")
    amplitude = min(max(float(args.rate_amplitude), 0.0), 0.95)
    period = args.rate_period or n_slots / args.qps
    offsets: list[float] = []
    t = 0.0
    for _ in range(n_slots):
        offsets.append(t)
        rate = args.qps * (1.0 + amplitude * math.sin(2.0 * math.pi * t / period))
        t += 1.0 / max(rate, 1e-9)
    return offsets


def build_schedule(
    db, args, *, ingest_ratio: float | None = None, kinds=None
):
    """The full deterministic request schedule and its provenance digest.

    Returns ``(schedule, pools, digest)``: ``schedule`` is one JSON-safe
    entry per slot (op + pool index, or an ingest batch seed), ``pools``
    holds the concrete query payloads each entry references, and
    ``digest`` is the sha256 of the canonical JSON of both plus the
    arrival-rate config — identical seeds therefore prove themselves
    identical across runs and machines. ``ingest_ratio`` overrides the
    CLI value (the sweep forces 0: scaling measures query throughput);
    ``kinds`` keeps only those ops (filtered *before* digesting, so the
    digest always covers exactly the slots that run).
    """
    if ingest_ratio is None:
        ingest_ratio = args.ingest_ratio
    rng = np.random.default_rng(args.seed)
    pool_n = min(POOL_SIZE, args.requests)
    range_pool = RangeQueryWorkload.from_zipf(
        db, pool_n, a=args.zipf_a, seed=args.seed
    )
    boxes = [
        [b.xmin, b.xmax, b.ymin, b.ymax, b.tmin, b.tmax]
        for b in range_pool.boxes
    ]
    traj_ids = [
        int(i) for i in rng.choice(len(db), size=min(4, len(db)), replace=False)
    ]
    pools = {
        "boxes": boxes,
        "traj_ids": traj_ids,
        "grids": [16, 24, 32],
        "eps": round(0.10 * spatial_scale(db), 9),
        "delta": round(0.15 * spatial_scale(db), 9),
    }

    query_kinds = list(KIND_WEIGHTS)
    weights = np.array([KIND_WEIGHTS[k] for k in query_kinds], dtype=float)
    weights /= weights.sum()
    schedule: list[dict] = []
    for slot in range(args.requests):
        if ingest_ratio > 0 and rng.random() < ingest_ratio:
            schedule.append(
                {"op": "ingest", "batch_seed": int(args.seed + 1000 + slot)}
            )
            continue
        kind = query_kinds[int(rng.choice(len(query_kinds), p=weights))]
        entry: dict = {"op": kind}
        if kind in ("range", "count"):
            entry["pool"] = _zipf_pick(rng, len(boxes), args.zipf_a)
        elif kind == "histogram":
            entry["grid"] = pools["grids"][_zipf_pick(rng, 3, args.zipf_a)]
        elif kind in ("knn", "similarity"):
            entry["ids"] = traj_ids[: 1 + int(rng.integers(len(traj_ids)))]
        schedule.append(entry)

    if kinds is not None:
        schedule = [e for e in schedule if e["op"] in kinds]
    canonical = json.dumps(
        {"pools": pools, "rate": rate_config(args), "schedule": schedule},
        sort_keys=True,
    )
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    return schedule, pools, digest


def _ingest_batch(db, batch_seed: int, n: int = 3) -> list[Trajectory]:
    """A small deterministic batch of jittered copies of existing tracks."""
    rng = np.random.default_rng(batch_seed)
    batch = []
    for _ in range(n):
        base = db[int(rng.integers(len(db)))].points
        shift = rng.uniform(-40.0, 40.0, size=2)
        batch.append(Trajectory(base + np.array([shift[0], shift[1], 0.0])))
    return batch


# ----------------------------------------------------------------- the server
def launch_server(db_path: Path, args, env: dict) -> tuple[subprocess.Popen, str]:
    """Start ``repro serve --listen 127.0.0.1:0``; return (proc, address)."""
    argv = [
        sys.executable, "-m", "repro", "serve",
        "--db", str(db_path),
        "--shards", str(args.shards),
        "--executor", args.executor,
        "--index", args.index,
        "--store", args.store,
        "--listen", "127.0.0.1:0",
    ]
    if args.workers is not None:
        argv += ["--workers", str(args.workers)]
    if getattr(args, "server_max_inflight", None) is not None:
        argv += ["--max-inflight", str(args.server_max_inflight)]
    if getattr(args, "replicas", 1) != 1:
        argv += ["--replicas", str(args.replicas)]
    if getattr(args, "watchdog_interval", None):
        argv += ["--watchdog-interval", str(args.watchdog_interval)]
    proc = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    address = None
    deadline = time.monotonic() + 90
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line and proc.poll() is not None:
            break
        if line.startswith("listening on "):
            address = line.split()[-1].strip()
            break
    if not address:
        proc.kill()
        raise RuntimeError("server never printed its listen address")
    # Keep draining stdout so the server can never block on a full pipe.
    threading.Thread(
        target=lambda: [None for _ in proc.stdout], daemon=True
    ).start()
    return proc, address


def server_replica_pids(server_pid: int) -> list[int]:
    """Pids of the server's shard worker children (chaos-injection targets).

    Workers are direct children of the serve process; multiprocessing's
    resource tracker (also a child) is filtered out by its cmdline.
    """
    try:
        out = subprocess.run(
            ["ps", "-o", "pid=,args=", "--ppid", str(server_pid)],
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return []
    pids = []
    for line in out.splitlines():
        fields = line.strip().split(None, 1)
        if len(fields) != 2 or "tracker" in fields[1]:
            continue
        pids.append(int(fields[0]))
    return pids


def stop_server(proc: subprocess.Popen) -> int:
    proc.send_signal(signal.SIGINT)
    try:
        return proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        return proc.wait()


def _base_config(args, digest: str) -> dict:
    """Config scalars shared by both run modes (the gate's profile key)."""
    return {
        "seed": args.seed,
        "qps": args.qps,
        "requests": args.requests,
        "clients": args.clients,
        "ingest_ratio": args.ingest_ratio,
        "zipf_a": args.zipf_a,
        "trajectories": args.trajectories,
        "shards": args.shards,
        "executor": args.executor,
        "index": args.index,
        "store": args.store,
        "workers": args.workers,
        "max_inflight": getattr(args, "server_max_inflight", None),
        # None (not 1) for the unreplicated default, so runs recorded
        # before replication existed keep matching this profile.
        "replicas": getattr(args, "replicas", 1)
        if getattr(args, "replicas", 1) != 1
        else None,
        "chaos": getattr(args, "chaos", None),
        "rate_profile": args.rate_profile,
        "rate_amplitude": args.rate_amplitude,
        "rate_period": args.rate_period,
        "provenance": build_provenance(),
        "workload_digest": digest,
    }


# ------------------------------------------------------------------- the run
def _issue(client: RemoteClient, entry: dict, pools: dict, db) -> None:
    from repro.data.bbox import BoundingBox

    op = entry["op"]
    if op == "ingest":
        client.ingest(_ingest_batch(db, entry["batch_seed"]))
    elif op == "range":
        client.range([BoundingBox(*pools["boxes"][entry["pool"]])])
    elif op == "count":
        client.count([BoundingBox(*pools["boxes"][entry["pool"]])])
    elif op == "histogram":
        client.histogram(entry["grid"])
    elif op == "knn":
        client.knn([db[i] for i in entry["ids"]], 3, eps=pools["eps"])
    elif op == "similarity":
        client.similarity([db[i] for i in entry["ids"]], pools["delta"])
    else:
        raise ValueError(f"unknown scheduled op {op!r}")


async def _issue_async(
    client: AsyncRemoteClient, entry: dict, pools: dict, db
) -> None:
    from repro.data.bbox import BoundingBox

    op = entry["op"]
    if op == "ingest":
        await client.ingest(_ingest_batch(db, entry["batch_seed"]))
    elif op == "range":
        await client.range([BoundingBox(*pools["boxes"][entry["pool"]])])
    elif op == "count":
        await client.count([BoundingBox(*pools["boxes"][entry["pool"]])])
    elif op == "histogram":
        await client.histogram(entry["grid"])
    elif op == "knn":
        await client.knn([db[i] for i in entry["ids"]], 3, eps=pools["eps"])
    elif op == "similarity":
        await client.similarity([db[i] for i in entry["ids"]], pools["delta"])
    else:
        raise ValueError(f"unknown scheduled op {op!r}")


def run_load(args) -> dict:
    """Generate, serve, drive open-loop, measure; return the run record."""
    db = synthetic_database(
        "geolife",
        n_trajectories=args.trajectories,
        points_scale=0.08,
        seed=args.seed,
    )
    schedule, pools, digest = build_schedule(db, args)
    offsets = arrival_offsets(args, len(schedule))
    print(
        f"schedule: {len(schedule)} slots ({args.rate_profile} arrivals), "
        f"digest {digest[:16]}..."
    )

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"

    overall = Histogram()
    per_kind: dict[str, Histogram] = {}
    samples: list[float] = []
    errors: list[str] = []
    record_lock = threading.Lock()

    with tempfile.TemporaryDirectory(prefix="bench_load_") as tmp:
        db_path = Path(tmp) / "db.npz"
        save_database(db, db_path)
        proc, address = launch_server(db_path, args, env)
        try:
            host, _, port = address.rpartition(":")
            clients = [
                RemoteClient(host, int(port)) for _ in range(args.clients)
            ]

            def _fire(slot: int, entry: dict) -> None:
                client = clients[slot % len(clients)]
                start = time.perf_counter()
                try:
                    _issue(client, entry, pools, db)
                except Exception as exc:
                    with record_lock:
                        errors.append(f"slot {slot} {entry['op']}: {exc}")
                    return
                elapsed = time.perf_counter() - start
                with record_lock:
                    overall.record(elapsed)
                    per_kind.setdefault(entry["op"], Histogram()).record(elapsed)
                    samples.append(elapsed)

            chaos = None
            if args.chaos == "kill-replica":
                targets = server_replica_pids(proc.pid)
                if not targets:
                    raise RuntimeError(
                        "chaos: found no shard worker children to kill"
                    )
                chaos = {
                    "mode": "kill-replica",
                    "victim_pid": targets[0],
                    "kill_slot": max(1, len(schedule) // 3),
                }

            # Open-loop: slot i is *offered* at t0 + offsets[i] regardless
            # of completions; the pool only bounds client-side concurrency.
            pool = ThreadPoolExecutor(max_workers=args.clients)
            t0 = time.perf_counter()
            futures = []
            for slot, entry in enumerate(schedule):
                wait = t0 + offsets[slot] - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                if chaos is not None and slot == chaos["kill_slot"]:
                    # SIGKILL one replica mid-workload: with --replicas 2
                    # failover + the watchdog must absorb it completely.
                    os.kill(chaos["victim_pid"], signal.SIGKILL)
                futures.append(pool.submit(_fire, slot, entry))
            for f in futures:
                f.result()
            elapsed = time.perf_counter() - t0
            pool.shutdown()

            server_metrics = clients[0].metrics()
            for client in clients:
                client.close()
        finally:
            code = stop_server(proc)
    if code != 0:
        errors.append(f"server exited with code {code}")

    # Self-check: bucketed quantiles must sit within one bucket width of
    # the exact sample quantiles (the histogram's accuracy contract).
    arr = np.sort(np.asarray(samples))
    for q in (0.5, 0.95, 0.99):
        exact = float(np.quantile(arr, q, method="inverted_cdf"))
        approx = overall.quantile(q)
        idx = overall.bucket_index(exact)
        width = overall.upper_edge(idx) - overall.lower_edge(idx)
        assert abs(approx - exact) <= max(width, 1e-12), (
            f"p{int(q * 100)} drifted: bucketed {approx} vs exact {exact}"
        )

    completed = overall.count
    run = {
        "config": {"mode": "open-loop", **_base_config(args, digest)},
        "latency": {
            "p50_ms": 1000.0 * overall.quantile(0.5),
            "p95_ms": 1000.0 * overall.quantile(0.95),
            "p99_ms": 1000.0 * overall.quantile(0.99),
            "mean_ms": 1000.0 * overall.sum / max(completed, 1),
            "max_ms": 1000.0 * overall.max,
            "histogram": overall.to_json(),
            "per_kind": {k: h.to_json() for k, h in sorted(per_kind.items())},
        },
        "throughput_qps": completed / elapsed if elapsed > 0 else 0.0,
        "offered_qps": args.qps,
        "completed": completed,
        "errors": errors,
        "server_metrics": server_metrics,
    }
    if chaos is not None:
        chaos["failed_requests"] = len(errors)
        run["chaos"] = chaos
    problems = validate_run(run)
    assert not problems, f"run record failed validation: {problems}"
    return run


# ------------------------------------------------------------------ the sweep
async def _run_level_async(
    host: str,
    port: int,
    schedule: list[dict],
    pools: dict,
    db,
    n_clients: int,
    pipeline: int,
) -> tuple[Histogram, float, list[str]]:
    """One closed-loop level: ``n_clients`` async clients, each keeping
    ``pipeline`` requests in flight over its own connection. Returns the
    latency histogram, wall-clock seconds, and any errors."""
    clients: list[AsyncRemoteClient] = []
    hist = Histogram()
    errors: list[str] = []
    try:
        for _ in range(n_clients):
            clients.append(
                await AsyncRemoteClient.open(
                    host, port, max_inflight=pipeline, timeout=120.0,
                    trace=False,
                )
            )

        async def worker(client: AsyncRemoteClient, entries: list[dict]) -> None:
            for entry in entries:
                start = time.perf_counter()
                try:
                    await _issue_async(client, entry, pools, db)
                except Exception as exc:
                    errors.append(f"{entry['op']}: {exc}")
                    continue
                hist.record(time.perf_counter() - start)

        # Closed-loop with pipelining: each client runs `pipeline` worker
        # coroutines over disjoint slices of its slots, so it keeps up to
        # `pipeline` requests outstanding at all times (until its slots
        # drain). Total offered concurrency = n_clients * pipeline.
        tasks = []
        t0 = time.perf_counter()
        for ci, client in enumerate(clients):
            slots = schedule[ci::n_clients]
            for wi in range(pipeline):
                tasks.append(worker(client, slots[wi::pipeline]))
        await asyncio.gather(*tasks)
        elapsed = time.perf_counter() - t0
        return hist, elapsed, errors
    finally:
        for client in clients:
            await client.close()


def run_sweep(args) -> dict:
    """Closed-loop concurrency sweep; returns the provenance run record.

    One server process serves every level (its request LRU is warmed once
    up front, so all levels measure the same warm-cache serving path);
    the baseline level is 1 client at pipeline depth 1 and every level
    reports its throughput ratio against it (``scaling_vs_single``).
    """
    db = synthetic_database(
        "geolife",
        n_trajectories=args.trajectories,
        points_scale=0.08,
        seed=args.seed,
    )
    # Query-only, bounded-payload schedule: an ingest slot would
    # serialize every level behind the epoch write lock AND cold the
    # cache mid-level, and knn/similarity frames would turn the number
    # into wire bandwidth (see SWEEP_KINDS) — either way "scaling" would
    # stop measuring serving concurrency.
    schedule, pools, digest = build_schedule(
        db, args, ingest_ratio=0.0, kinds=SWEEP_KINDS
    )
    levels = [int(c) for c in str(args.sweep_levels).split(",") if c.strip()]
    pipeline = max(1, args.pipeline)
    if getattr(args, "server_max_inflight", None) is None:
        # The sweep's own concurrency must fit the server's admission
        # window — refusal/backoff cycles at the top level would measure
        # the retry policy, not the serving plane.
        args.server_max_inflight = 2 * max(max(levels) * pipeline, 4)
    print(
        f"sweep: {len(schedule)} query slots, levels {levels} "
        f"(pipeline depth {pipeline}), digest {digest[:16]}..."
    )

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"

    level_records: list[dict] = []
    errors: list[str] = []
    with tempfile.TemporaryDirectory(prefix="bench_sweep_") as tmp:
        db_path = Path(tmp) / "db.npz"
        save_database(db, db_path)
        proc, address = launch_server(db_path, args, env)
        try:
            host, _, port_s = address.rpartition(":")
            port = int(port_s)
            # Warmup: one full pass at high concurrency, discarded. Every
            # measured level then sees the same warm LRU / engine memos.
            asyncio.run(
                _run_level_async(
                    host, port, schedule, pools, db, max(levels), pipeline
                )
            )
            baseline_qps = None
            for n_clients in [1] + levels:
                depth = 1 if baseline_qps is None else pipeline
                hist, elapsed, level_errors = asyncio.run(
                    _run_level_async(
                        host, port, schedule, pools, db, n_clients, depth
                    )
                )
                errors.extend(
                    f"level {n_clients}x{depth}: {e}" for e in level_errors
                )
                qps = hist.count / elapsed if elapsed > 0 else 0.0
                record = {
                    "clients": n_clients,
                    "pipeline": depth,
                    "completed": hist.count,
                    "elapsed_s": elapsed,
                    "throughput_qps": qps,
                    "p50_ms": 1000.0 * hist.quantile(0.5),
                    "p99_ms": 1000.0 * hist.quantile(0.99),
                    "histogram": hist.to_json(),
                }
                if baseline_qps is None:
                    baseline_qps = qps
                    record["role"] = "baseline"
                record["scaling_vs_single"] = (
                    qps / baseline_qps if baseline_qps else 0.0
                )
                level_records.append(record)
                print(
                    f"  {n_clients} client(s) x pipeline {depth}: "
                    f"{qps:.1f} qps ({record['scaling_vs_single']:.2f}x), "
                    f"p99 {record['p99_ms']:.2f}ms"
                )
            server_metrics = asyncio.run(_fetch_metrics(host, port))
        finally:
            code = stop_server(proc)
    if code != 0:
        errors.append(f"server exited with code {code}")

    top = level_records[-1]
    run = {
        "config": {
            "mode": "sweep",
            "pipeline": pipeline,
            "sweep_levels": ",".join(str(c) for c in levels),
            **_base_config(args, digest),
        },
        # The headline latency/throughput is the top (max-concurrency)
        # level's, so validate/compare tooling works on sweep runs too.
        "latency": {
            "p50_ms": top["p50_ms"],
            "p95_ms": 1000.0
            * Histogram.from_json(top["histogram"]).quantile(0.95),
            "p99_ms": top["p99_ms"],
            "histogram": top["histogram"],
        },
        "throughput_qps": top["throughput_qps"],
        "completed": sum(r["completed"] for r in level_records),
        "sweep": {
            "baseline_qps": level_records[0]["throughput_qps"],
            "scaling_vs_single": top["scaling_vs_single"],
            "levels": level_records,
        },
        "errors": errors,
        "server_metrics": server_metrics,
    }
    problems = validate_run(run)
    assert not problems, f"run record failed validation: {problems}"
    return run


async def _fetch_metrics(host: str, port: int) -> dict:
    client = await AsyncRemoteClient.open(host, port)
    try:
        return await client.metrics()
    finally:
        await client.close()


def print_summary(run: dict) -> None:
    if run["config"].get("mode") == "sweep":
        sweep = run["sweep"]
        top = sweep["levels"][-1]
        print(
            f"sweep: baseline {sweep['baseline_qps']:.1f} qps -> "
            f"{top['clients']} clients x pipeline {top['pipeline']} at "
            f"{top['throughput_qps']:.1f} qps "
            f"({sweep['scaling_vs_single']:.2f}x), p99 {top['p99_ms']:.2f}ms"
        )
    else:
        latency = run["latency"]
        print(
            f"completed {run['completed']}/{run['config']['requests']} at "
            f"{run['throughput_qps']:.1f} qps (offered {run['offered_qps']}): "
            f"p50 {latency['p50_ms']:.2f}ms  p95 {latency['p95_ms']:.2f}ms  "
            f"p99 {latency['p99_ms']:.2f}ms"
        )
    chaos = run.get("chaos")
    if chaos:
        replication = run["server_metrics"].get("replication", {})
        counters = replication.get("counters", {}).get("counters", {})
        print(
            f"chaos [{chaos['mode']}]: killed pid {chaos['victim_pid']} at "
            f"slot {chaos['kill_slot']}, {chaos['failed_requests']} failed "
            f"requests, {replication.get('replicas_live', '?')}/"
            f"{replication.get('replicas_total', '?')} replicas live, "
            f"restarts={counters.get('replication.restarts', 0)}"
        )
    summary = run["server_metrics"].get("summary", {})
    hits = sum(v for k, v in summary.items() if k.endswith("_cache_hits"))
    misses = sum(v for k, v in summary.items() if k.endswith("_cache_misses"))
    if hits + misses:
        print(
            f"server cache: {hits} hits / {misses} misses "
            f"({hits / (hits + misses):.1%} hit rate)"
        )
    if "queue_depth_hwm" in summary:
        print(
            f"server queue: depth hwm {summary['queue_depth_hwm']}, "
            f"wait p99 {summary.get('queue_wait_p99_ms', 0.0):.2f}ms"
        )
    if run["errors"]:
        print(f"errors ({len(run['errors'])}):")
        for line in run["errors"]:
            print(f"  {line}")


def validate_file(path: Path) -> int:
    """``--validate``: schema-check every stored run; exit nonzero on drift."""
    payload = json.loads(path.read_text())
    problems: list[str] = []
    if payload.get("benchmark") != "bench_load":
        problems.append(f"benchmark is {payload.get('benchmark')!r}")
    runs = load_runs(path)
    if not runs:
        problems.append("no runs recorded")
    for i, run in enumerate(runs):
        for issue in validate_run(run):
            problems.append(f"run {i}: {issue}")
        try:
            hist = Histogram.from_json(run["latency"]["histogram"])
            for q, key in ((0.5, "p50_ms"), (0.95, "p95_ms"), (0.99, "p99_ms")):
                stored = run["latency"][key]
                derived = 1000.0 * hist.quantile(q)
                if not np.isclose(stored, derived, rtol=1e-9, atol=1e-9):
                    problems.append(
                        f"run {i}: {key} {stored} != histogram-derived {derived}"
                    )
        except Exception as exc:
            problems.append(f"run {i}: histogram unreadable: {exc}")
    if problems:
        for line in problems:
            print(f"INVALID: {line}")
        return 1
    print(f"{path}: {len(runs)} run(s), schema valid, quantiles consistent")
    return 0


# ------------------------------------------------------------------- the gate
#: Config scalars that define a comparable profile: two runs gate against
#: each other only when ALL of these match (absent on both sides counts
#: as matching). Machine facts (provenance) deliberately excluded.
PROFILE_KEYS = (
    "mode", "seed", "qps", "requests", "clients", "pipeline", "sweep_levels",
    "workers", "max_inflight", "ingest_ratio", "zipf_a", "trajectories",
    "shards", "executor", "index", "store",
    "replicas", "chaos",
    "rate_profile", "rate_amplitude", "rate_period",
)


def _profile(run: dict) -> tuple:
    config = run.get("config", {})
    return tuple(config.get(k) for k in PROFILE_KEYS)


def _gate_metric(run: dict) -> tuple[str, float]:
    """The machine-robust regression metric of one run.

    Open-loop runs gate on achieved throughput — with a keeping-up server
    it approximates the *offered* qps, so it transfers across machines.
    Sweep runs gate on the top level's ``scaling_vs_single`` ratio, which
    normalizes out absolute machine speed entirely.
    """
    if run.get("config", {}).get("mode") == "sweep":
        return "sweep.scaling_vs_single", float(
            run["sweep"]["scaling_vs_single"]
        )
    return "throughput_qps", float(run["throughput_qps"])


def gate_files(new_path: Path, base_path: Path, threshold: float) -> int:
    """``--gate``: fail when any new run regresses its stored baseline.

    Every run in ``new_path`` must find a baseline in ``base_path`` with
    an identical config profile (the last stored one wins); its gate
    metric must not drop more than ``threshold`` relative. A new run with
    no matching baseline fails too — an unguarded profile is exactly how
    regressions slip into the trajectory.
    """
    new_runs = load_runs(new_path)
    base_runs = load_runs(base_path)
    if not new_runs:
        print(f"GATE FAIL: {new_path} holds no runs")
        return 1
    failures = 0
    for i, run in enumerate(new_runs):
        matches = [b for b in base_runs if _profile(b) == _profile(run)]
        if not matches:
            print(
                f"GATE FAIL: run {i} ({run.get('config', {}).get('mode')}) "
                f"has no baseline with a matching profile in {base_path}"
            )
            failures += 1
            continue
        base = matches[-1]
        if run["config"].get("workload_digest") != base["config"].get(
            "workload_digest"
        ):
            # Digest differences on equal configs mean the generator (or a
            # dependency's RNG stream) changed — worth a loud warning, but
            # latency/throughput comparison is still meaningful.
            print(
                f"GATE WARN: run {i} workload digest differs from baseline "
                "(schedule generator changed?)"
            )
        key, new_value = _gate_metric(run)
        _, base_value = _gate_metric(base)
        drop = 0.0 if base_value == 0 else (base_value - new_value) / base_value
        status = "FAIL" if drop > threshold else "ok"
        print(
            f"gate run {i} [{key}]: baseline {base_value:.2f} -> "
            f"{new_value:.2f} ({-drop:+.1%} vs -{threshold:.0%} allowed) "
            f"{status}"
        )
        if drop > threshold:
            failures += 1
    if failures:
        print(f"GATE FAIL: {failures} run(s) regressed")
        return 1
    print("gate passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--qps", type=float, default=50.0,
                        help="offered load (open-loop slot rate)")
    parser.add_argument("--seed", type=int, default=7,
                        help="single seed for database, pools, and schedule")
    parser.add_argument("--requests", type=int, default=200,
                        help="total schedule slots (queries + ingests)")
    parser.add_argument("--clients", type=int, default=4,
                        help="concurrent socket connections (open-loop)")
    parser.add_argument("--ingest-ratio", type=float, default=0.05,
                        help="fraction of slots that stream an ingest batch")
    parser.add_argument("--zipf-a", type=float, default=1.5,
                        help="skew of both query centres and pool popularity")
    parser.add_argument("--trajectories", type=int, default=120)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--executor", default="serial")
    parser.add_argument("--index", default="grid")
    parser.add_argument("--store", default="heap")
    parser.add_argument("--workers", type=int, default=None,
                        help="server worker threads (--workers of repro "
                        "serve; default lets the server pick)")
    parser.add_argument("--server-max-inflight", type=int, default=None,
                        help="server admission window (--max-inflight of "
                        "repro serve); the sweep defaults it to twice its "
                        "own top-level concurrency")
    parser.add_argument("--rate-profile", default="constant",
                        choices=["constant", "diurnal"],
                        help="open-loop arrival-rate shape: 'diurnal' "
                        "modulates qps sinusoidally (one cycle per run "
                        "unless --rate-period is given)")
    parser.add_argument("--rate-amplitude", type=float, default=0.6,
                        help="diurnal modulation depth in [0, 0.95]: rate "
                        "swings between qps*(1-A) and qps*(1+A)")
    parser.add_argument("--rate-period", type=float, default=None,
                        help="diurnal cycle length in seconds (default: one "
                        "full cycle over the run)")
    parser.add_argument("--sweep", action="store_true",
                        help="closed-loop concurrency sweep over pipelined "
                        "async clients instead of the open-loop run")
    parser.add_argument("--pipeline", type=int, default=4,
                        help="sweep: in-flight requests per async client")
    parser.add_argument("--sweep-levels", default="1,2,4,8",
                        help="sweep: comma-separated client counts (a 1-"
                        "client pipeline-1 baseline always runs first)")
    parser.add_argument("--replicas", type=int, default=1,
                        help="server replicas per shard (--replicas of "
                        "repro serve; needs --executor process)")
    parser.add_argument("--watchdog-interval", type=float, default=None,
                        help="server watchdog poll interval in seconds "
                        "(--watchdog-interval of repro serve)")
    parser.add_argument("--chaos", choices=["kill-replica"], default=None,
                        help="inject a fault mid-run: 'kill-replica' "
                        "SIGKILLs one shard worker a third of the way "
                        "through the schedule (forces a process executor "
                        "with >= 2 replicas and a fast watchdog) and the "
                        "run fails unless zero requests are lost")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for the CI smoke run")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="provenance log to append the run to")
    parser.add_argument("--validate", type=Path, metavar="FILE",
                        help="validate an existing provenance log and exit")
    parser.add_argument("--gate", type=Path, metavar="NEW",
                        help="regression-gate the runs in NEW against "
                        "--against and exit")
    parser.add_argument("--against", type=Path, default=DEFAULT_OUT,
                        metavar="BASE",
                        help="baseline provenance log for --gate "
                        "(default: the committed BENCH_load.json)")
    parser.add_argument("--gate-threshold", type=float, default=0.30,
                        help="max allowed relative drop of the gate metric")
    args = parser.parse_args(argv)
    if args.validate:
        return validate_file(args.validate)
    if args.gate:
        return gate_files(args.gate, args.against, args.gate_threshold)
    if args.chaos:
        # Chaos needs something to fail over to: out-of-process workers,
        # a live sibling replica, and a watchdog to put the victim back.
        args.executor = "process"
        args.replicas = max(args.replicas, 2)
        if args.watchdog_interval is None:
            args.watchdog_interval = 0.25
    if args.smoke:
        args.qps = min(args.qps, 20.0)
        args.requests = min(args.requests, 30 if not args.sweep else 48)
        args.trajectories = min(args.trajectories, 40)
        args.clients = min(args.clients, 2)
        if args.sweep:
            args.sweep_levels = "1,2"
            args.pipeline = min(args.pipeline, 2)
            args.workers = 2 if args.workers is None else args.workers
    run = run_sweep(args) if args.sweep else run_load(args)
    log_run(args.out, "bench_load", run)
    print_summary(run)
    print(f"appended run to {args.out}")
    return 1 if run["errors"] else 0


if __name__ == "__main__":
    sys.exit(main())
