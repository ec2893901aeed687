"""The ``serve_*`` workloads: closed-loop traffic against ``repro serve``.

Closed loop, and meant as such: the callers modelled are dashboards and
evaluators that wait for each reply, and a fixed number of waiting
callers scales itself to the machine where a fixed arrival rate does not
(``bench_load.py`` keeps owning open-loop and chaos runs). One process,
one asyncio thread, two connections: the box has two cores and the server
needs both.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

from repro.client import AsyncRemoteClient, LocalClient
from repro.data import load_database

from . import host, layers
from .data import dataset_path
from .oracle import Scorecard
from .schedule import KINDS, build_plan, materialize
from .spec import Sizes

CONNECTIONS = 2
INFLIGHT_PER_CONNECTION = 4


@dataclass
class Outcome:
    """What one run hands back to the command line."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: timing oddities worth a look; never a failed operation, because a
    #: noisy host must not be able to make a correct run incorrect
    warnings: list[str] = field(default_factory=list)
    record: dict = field(default_factory=dict)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


@dataclass
class LatRound:
    """One request in flight: every request timed on its own."""

    samples: list[tuple[str, float]]  # (kind, seconds)
    wall_s: float
    steal: float


@dataclass
class SatRound:
    """Eight requests in flight: only the round is timed."""

    qps: float
    wall_s: float
    steal: float


def latency_metrics(rounds: list[LatRound]) -> tuple[dict[str, float], dict[str, int]]:
    """Median across (clean) rounds of each round's statistic, in ms, and
    the pooled sample count per kind."""
    steal = [r.steal for r in rounds]

    def across(stat) -> float:
        return 1000.0 * host.median_of_clean([float(stat(r)) for r in rounds], steal)

    metrics = {
        "p50_ms": across(lambda r: np.median([s for _, s in r.samples])),
        "p95_ms": across(lambda r: np.quantile([s for _, s in r.samples], 0.95)),
    }
    samples = {}
    for kind in (*KINDS, "ingest"):
        per_round = [[s for k, s in r.samples if k == kind] for r in rounds]
        samples[kind] = sum(len(r) for r in per_round)
        if all(per_round):
            metrics[f"{kind}_p50_ms"] = 1000.0 * host.median_of_clean(
                [float(np.median(r)) for r in per_round], steal
            )
    return metrics, samples


def every_nth_of_each_kind(requests, every: dict[str, int]) -> list:
    seen = dict.fromkeys(every, 0)
    picked = []
    for kind, request in requests:
        if kind in seen:
            if seen[kind] % every[kind] == 0:
                picked.append((kind, request))
            seen[kind] += 1
    return picked


def _open(server: host.Server, *, trace: bool = False):
    # retries=0: a refused (Overloaded) request is a failed operation,
    # not a longer latency. trace=False: a minted trace id turns the
    # server's span recording on.
    return AsyncRemoteClient.open(
        server.host,
        server.port,
        max_inflight=INFLIGHT_PER_CONNECTION,
        timeout=120.0,
        retries=0,
        trace=trace,
    )


class Traffic:
    """Runs rounds against one server and keeps what they measured."""

    def __init__(self, base_db, outcome: Outcome) -> None:
        self.base_db = base_db
        self.outcome = outcome
        #: ingested batches in the order the server applied them
        self.applied: list[list] = []

    async def lat_round(self, client, requests, spans: dict | None = None) -> LatRound:
        """One connection, one request in flight. ``spans`` collects each
        request's (start, end) under its index."""
        samples = []
        with host.StealMeter() as meter:
            for index, (kind, payload) in enumerate(requests):
                self.outcome.attempted += 1
                start = time.perf_counter()
                try:
                    if kind == "ingest":
                        await client.ingest(payload)
                        self.applied.append(payload)
                    else:
                        await client.execute(payload)
                except Exception as exc:  # every failure is counted, none aborts
                    self.outcome.fail(f"{kind}: {type(exc).__name__}: {exc}")
                    continue
                end = time.perf_counter()
                samples.append((kind, end - start))
                if spans is not None:
                    spans[index] = (start, end)
        return LatRound(samples, sum(s for _, s in samples), meter.share)

    async def sat_round(self, clients, requests) -> SatRound:
        """Two connections, four requests in flight on each."""
        todo = iter(requests)
        # Writes go out one at a time, in schedule order (the lock queues
        # FIFO and nothing awaits between taking an entry and queueing),
        # so the ids the server assigns are the ids the oracle assigns.
        write_order = asyncio.Lock()
        completed = 0

        async def worker(client) -> None:
            nonlocal completed
            for kind, payload in todo:
                self.outcome.attempted += 1
                try:
                    if kind == "ingest":
                        async with write_order:
                            await client.ingest(payload)
                            self.applied.append(payload)
                    else:
                        await client.execute(payload)
                except Exception as exc:
                    self.outcome.fail(f"{kind}: {type(exc).__name__}: {exc}")
                    continue
                completed += 1

        with host.StealMeter() as meter:
            start = time.perf_counter()
            await asyncio.gather(
                *(worker(c) for c in clients for _ in range(INFLIGHT_PER_CONNECTION))
            )
            wall = time.perf_counter() - start
        return SatRound(completed / wall, wall, meter.share)

    async def check(self, client, requests, card: Scorecard) -> None:
        """Re-send ``requests`` and compare with a fresh in-process engine
        over the data the server holds right now."""
        state = self.base_db
        if self.applied:
            state = state.extended([t for batch in self.applied for t in batch])
        oracle = LocalClient(state)
        for kind, request in requests:
            self.outcome.attempted += 1
            try:
                got = await client.execute(request)
            except Exception as exc:
                self.outcome.fail(f"check {kind}: {type(exc).__name__}: {exc}")
                continue
            if not card.compare(oracle.execute(request), got):
                self.outcome.fail(f"{kind} reply differs from the oracle")


def counter_deltas(before: dict, after: dict) -> dict[str, float]:
    """Serving counters of the timed rounds, from two ``metrics`` replies."""
    a, b = before["summary"], after["summary"]

    def delta(key: str) -> float:
        return b.get(key, 0) - a.get(key, 0)

    requests = delta("requests")
    skipped, dispatched = delta("knn_shards_skipped"), delta("knn_shards_dispatched")
    return {
        "service.cache.hit_ratio": delta("cache_hits") / requests if requests else 0.0,
        "service.knn_shard_skip_ratio": skipped / (skipped + dispatched)
        if skipped + dispatched
        else 0.0,
        "service.compaction.count": delta("compactions"),
        "service.compaction.pause_mean_ms": b.get("compaction_mean_latency_ms", 0.0),
        "service.compaction.pause_max_ms": b.get("compaction_max_latency_ms", 0.0),
        "service.queue_wait_p95_ms": b.get("queue_wait_p95_ms", 0.0),
        "service.queue_depth_hwm": b.get("queue_depth_hwm", 0),
    }


def _boot(db_path, first_requests) -> tuple[host.Server, dict[str, float]]:
    """One cold boot: spawn -> "listening" -> handshake -> one answered
    request of every kind (which is when the lazy indexes get built)."""

    async def first(server) -> float:
        opened = time.perf_counter()
        client = await _open(server)
        handshake = time.perf_counter() - opened
        try:
            for request in first_requests:
                await client.execute(request)
        finally:
            await client.close()
        return handshake

    with host.StealMeter() as meter:
        start = time.perf_counter()
        server = host.start_server(db_path)
        try:
            handshake_s = asyncio.run(first(server))
        except BaseException:
            host.stop_server(server)
            raise
        setup_s = time.perf_counter() - start
    return server, {
        "setup_s": setup_s,
        "boot_s": server.boot_s,
        "handshake_s": handshake_s,
        "steal": meter.share,
    }


def run(workload: str, seed: int, sizes: Sizes, traced: bool) -> Outcome:
    outcome = Outcome()
    db_path, generate_s = dataset_path(sizes.trajectories)
    load_start = time.perf_counter()
    db = load_database(db_path)
    load_ms = 1000.0 * (time.perf_counter() - load_start)
    plan = build_plan(workload, db, seed, sizes)
    rounds, probes = materialize(plan, db)
    first_of_kind: dict = {}
    for kind, request in rounds["warm"]:
        first_of_kind.setdefault(kind, request)
    first_requests = [first_of_kind[k] for k in KINDS]

    spin_before = host.spin_ms()
    host.require_clean("precondition")
    card = Scorecard(exact=True)
    traffic = Traffic(db, outcome)
    boots: list[dict[str, float]] = []
    server = None
    try:
        for _ in range(1 if traced else sizes.setups):
            if server is not None and host.stop_server(server) != 0:
                outcome.fail("a server exited non-zero on SIGINT")
            server, timing = _boot(db_path, first_requests)
            boots.append(timing)
        names = ["lat1", "lat2", "sat1"] if traced else [
            r.name for r in plan.rounds if r.mode != "warm"
        ]
        run_state = asyncio.run(
            _drive(server, names, rounds, probes, sizes, traffic, card, traced)
        )
        mem_mb = host.tree_memory_mb(server.proc.pid)
    finally:
        if server is not None and host.stop_server(server) != 0:
            outcome.fail("the server exited non-zero on SIGINT")
    try:
        host.require_clean("postcondition")
    except host.HygieneError as exc:
        outcome.fail(str(exc))
    spin_after = host.spin_ms()

    lat, sat = run_state["lat"], run_state["sat"]
    latency, samples = latency_metrics(lat)
    counters = counter_deltas(run_state["metrics_before"], run_state["metrics_after"])
    outcome.record.update(
        digest=plan.digest,
        samples=samples,
        checked=card.checked,
        counters=counters,
        trajectories=len(db),
        points=db.total_points,
        spin_ms=[spin_before, spin_after],
        setups=[{"s": b["setup_s"], "steal": b["steal"]} for b in boots],
        lat_rounds=[{"s": r.wall_s, "steal": r.steal} for r in lat],
        sat_rounds=[{"s": r.wall_s, "steal": r.steal} for r in sat],
    )
    if not traced:
        outcome.metrics = {
            "setup_s": host.median_of_clean(
                [b["setup_s"] for b in boots], [b["steal"] for b in boots]
            ),
            "qps": host.median_of_clean([r.qps for r in sat], [r.steal for r in sat]),
            **{k: v for k, v in latency.items() if k != "ingest_p50_ms"},
            "mem_mb": mem_mb,
            "range_f1": card.mean_f1("range"),
            "knn_f1": card.mean_f1("knn"),
            "similarity_f1": card.mean_f1("similarity"),
        }
        return outcome

    untraced, with_tracing = (np.median([s for _, s in r.samples]) for r in lat)
    outcome.metrics = layers.serving_layers(
        db_path, first_requests, probes, run_state["probe_spans"], workload, seed, outcome
    )
    outcome.metrics.update(counters)
    outcome.metrics.update(
        {
            "client.ingest_p50_ms": latency.get("ingest_p50_ms", 0.0),
            "service.server.boot_ms": 1000.0 * boots[0]["boot_s"],
            "client.aio.handshake_ms": 1000.0 * boots[0]["handshake_s"],
            "data.load_ms": load_ms,
            "trace.overhead_ratio": float(with_tracing / untraced),
            **layers.run_context(spin_before, spin_after, generate_s),
        }
    )
    if outcome.metrics["trace.overhead_ratio"] > 1.25:
        outcome.warnings.append("the traced latency round's p50 is over 25% above the untraced one's")
    return outcome


async def _drive(server, names, rounds, probes, sizes, traffic, card, traced) -> dict:
    """Everything that talks to the last-booted server; returns the rounds
    and the two ``metrics`` replies around them. A traced run is ``lat1``
    untraced, ``lat2`` traced, ``sat1``."""
    clients = [await _open(server) for _ in range(CONNECTIONS)]
    tracing = await _open(server, trace=True) if traced else None
    lat, sat = [], []
    run_state = {"lat": lat, "sat": sat, "probe_spans": {}}
    try:
        if traced:
            # The ladder's top rung: each probe once over the wire, traced,
            # while the server still holds exactly the base data.
            await traffic.lat_round(tracing, probes, run_state["probe_spans"])
        await traffic.lat_round(clients[0], rounds["warm"])
        run_state["metrics_before"] = await clients[0].metrics()
        for name in names:
            if name.startswith("sat"):
                sat.append(await traffic.sat_round(clients, rounds[name]))
                continue
            client = tracing if traced and name == "lat2" else clients[0]
            lat.append(await traffic.lat_round(client, rounds[name]))
            if name == "lat1":
                await traffic.check(
                    clients[0],
                    every_nth_of_each_kind(rounds[name], sizes.check_every),
                    card,
                )
        run_state["metrics_after"] = await clients[0].metrics()
        if traffic.applied:
            # The data grew: check again against base + every ingested batch.
            last_lat = [n for n in names if n.startswith("lat")][-1]
            await traffic.check(
                clients[0],
                every_nth_of_each_kind(rounds[last_lat], sizes.check_every),
                card,
            )
        return run_state
    finally:
        for client in (*clients, tracing):
            if client is not None:
                await client.close()
