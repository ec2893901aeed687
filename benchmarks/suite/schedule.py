"""The request schedule: generated whole from ``--seed``, then digested.

The program under test only ever sees the generated requests. A schedule
is a list of rounds; a round is a list of JSON-safe entries ``(kind,
param)`` where ``param`` is a six-number box (range / count / histogram),
a trajectory id (knn / similarity) or a batch seed (ingest). The sha256 of
the canonical JSON proves two runs replayed the same traffic.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from repro.data.bbox import BoundingBox
from repro.data.stats import spatial_scale
from repro.data.trajectory import Trajectory
from repro.service.requests import (
    CountRequest,
    HistogramRequest,
    KnnRequest,
    RangeRequest,
    SimilarityRequest,
)
from repro.workloads import RangeQueryWorkload

KINDS = ("range", "count", "histogram", "knn", "similarity")
#: Rank^-1 over the kinds in the order an analytics dashboard issues them
#: (the mix of ``bench_load.py``): 44 / 22 / 15 / 11 / 9 percent.
KIND_WEIGHTS = {"range": 1.0, "count": 1 / 2, "histogram": 1 / 3, "knn": 1 / 4, "similarity": 1 / 5}
POOL_SIZE = 10  # distinct requests per kind on the hit workloads
ZIPF_A = 1.5
#: Which pool entry is the popular one is re-drawn every so many slots.
#: Under a fixed ranking half of a kind's traffic is one entry, and that
#: entry's cost (a kNN query's candidate count, a reply's size) becomes the
#: kind's median: a property of the seed, not of the program.
POPULARITY_SPAN = 50
WRITE_EVERY = 5  # serve_mixed_rw: every 5th request is an ingest
INGEST_BATCH = 3
KNN_K = 3
HISTOGRAM_GRID = 32
#: kNN / similarity query trajectories come from the middle fifth by
#: length: a request's cost grows with the query's length, and on the hit
#: workloads half of a kind's traffic is one pool entry, so an unbounded
#: draw would make the per-kind medians a property of the seed.
LENGTH_BAND = (0.4, 0.6)


@dataclass(frozen=True)
class Round:
    name: str
    #: "warm" (untimed), "lat" (one in flight) or "sat" (eight in flight)
    mode: str
    entries: tuple


@dataclass(frozen=True)
class Plan:
    workload: str
    rounds: tuple[Round, ...]
    #: fresh requests for the rung ladder of the traced run
    probes: tuple
    digest: str


class _Fresh:
    """Streams of never-repeating request parameters."""

    def __init__(self, db, rng: np.random.Generator, n: int) -> None:
        scale = spatial_scale(db)
        self._boxes = iter(self._draw_boxes(db, rng, n, None))
        # A heatmap covers a viewport, not a 0.3-diameter probe box.
        self._viewports = iter(self._draw_boxes(db, rng, n, 2.0 * scale))
        lengths = np.array([len(t) for t in db])
        lo, hi = np.quantile(lengths, LENGTH_BAND)
        eligible = np.flatnonzero((lengths >= lo) & (lengths <= hi))
        self._ids = {
            kind: self._cycle(eligible, rng) for kind in ("knn", "similarity")
        }

    @staticmethod
    def _draw_boxes(db, rng, n, spatial_extent):
        workload = RangeQueryWorkload.from_data_distribution(
            db, n, spatial_extent=spatial_extent, seed=int(rng.integers(2**31))
        )
        for b in workload.boxes:
            yield [float(v) for v in (b.xmin, b.xmax, b.ymin, b.ymax, b.tmin, b.tmax)]

    @staticmethod
    def _cycle(ids, rng):
        # Back-to-back permutations: a repeat is a whole pass (far more
        # than the 64-entry LRU) away from its first use.
        while True:
            for i in rng.permutation(ids):
                yield int(i)

    def entry(self, kind: str) -> tuple:
        if kind in ("range", "count"):
            return (kind, next(self._boxes))
        if kind == "histogram":
            return (kind, next(self._viewports))
        return (kind, next(self._ids[kind]))


def _kind_sequence(rng: np.random.Generator, n: int) -> list[str]:
    """``n`` kinds in exactly the weighted proportions, in seeded order.

    Exact (largest-remainder) shares instead of an independent draw per
    slot: the number of expensive kNN requests in a round would otherwise
    vary binomially with the seed and move every all-kinds metric.
    """
    weights = np.array([KIND_WEIGHTS[k] for k in KINDS])
    exact = n * weights / weights.sum()
    counts = np.floor(exact).astype(int)
    for i in np.argsort(exact - counts)[::-1][: n - counts.sum()]:
        counts[i] += 1
    kinds = np.repeat(np.arange(len(KINDS)), counts)
    return [KINDS[i] for i in rng.permutation(kinds)]


def build_plan(workload: str, db, seed: int, sizes) -> Plan:
    """The whole schedule of one run of ``workload`` at ``sizes`` (a
    :class:`~benchmarks.suite.spec.Sizes`).

    ``serve_miss`` / ``offline_simplify``: every request is fresh in a
    parameter its ``cache_key()`` covers. ``serve_hit``: Zipf(1.5) draws
    from a pool of 10 per kind (50 distinct requests, inside the 64-entry
    LRU) whose popularity order drifts, warmed by one untimed pass over
    the pool. ``serve_mixed_rw``:
    the same pool traffic with every 5th request an ingest.
    """
    rng = np.random.default_rng(seed)
    pooled = workload in ("serve_hit", "serve_mixed_rw")
    n_fresh = len(KINDS) * (POOL_SIZE + sizes.probes_per_kind)
    if not pooled:
        n_fresh += sizes.warm_requests + sizes.rounds * (
            sizes.lat_requests + sizes.sat_requests
        )
    fresh = _Fresh(db, rng, n_fresh)
    pool = {k: [fresh.entry(k) for _ in range(POOL_SIZE)] for k in KINDS}
    ranks = np.arange(1, POOL_SIZE + 1, dtype=float) ** -ZIPF_A
    ranks /= ranks.sum()
    batch_seeds = iter(range(seed * 1_000_003 + 1, 2**62))

    def entries(n: int) -> tuple:
        out = []
        writes = n // WRITE_EVERY if workload == "serve_mixed_rw" else 0
        kinds = iter(_kind_sequence(rng, n - writes))
        picks = iter(rng.choice(POOL_SIZE, size=n, p=ranks)) if pooled else None
        for slot in range(n):
            if pooled and slot % POPULARITY_SPAN == 0:
                popular = {k: rng.permutation(POOL_SIZE) for k in KINDS}
            if writes and slot % WRITE_EVERY == WRITE_EVERY - 1:
                out.append(("ingest", next(batch_seeds)))
                continue
            kind = next(kinds)
            if pooled:
                out.append(pool[kind][popular[kind][next(picks)]])
            else:
                out.append(fresh.entry(kind))
        return tuple(out)

    if pooled:
        warm = tuple(e for k in KINDS for e in pool[k])
    else:
        warm = entries(sizes.warm_requests)
    rounds = [Round("warm", "warm", warm)]
    for r in range(1, sizes.rounds + 1):
        # Alternate so both kinds of round see the same machine conditions.
        rounds.append(Round(f"lat{r}", "lat", entries(sizes.lat_requests)))
        rounds.append(Round(f"sat{r}", "sat", entries(sizes.sat_requests)))
    probes = tuple(fresh.entry(k) for k in KINDS for _ in range(sizes.probes_per_kind))
    canonical = json.dumps(
        {
            "workload": workload,
            "rounds": [[r.name, r.mode, r.entries] for r in rounds],
            "probes": probes,
        },
        sort_keys=True,
    )
    return Plan(workload, tuple(rounds), probes, hashlib.sha256(canonical.encode()).hexdigest())


def materialize(plan: Plan, db) -> tuple[dict[str, list], list]:
    """``({round name: [(kind, typed request)]}, [probe requests])``: every
    request object is built before anything is timed."""
    make = Materializer(db)
    rounds = {r.name: [(e[0], make(e)) for e in r.entries] for r in plan.rounds}
    return rounds, [(e[0], make(e)) for e in plan.probes]


def ingest_batch(db, batch_seed: int) -> list[Trajectory]:
    """``INGEST_BATCH`` jittered copies of tracks of the base database."""
    rng = np.random.default_rng(batch_seed)
    batch = []
    for _ in range(INGEST_BATCH):
        base = db[int(rng.integers(len(db)))].points
        shift = rng.uniform(-40.0, 40.0, size=2)
        batch.append(Trajectory(base + np.array([shift[0], shift[1], 0.0])))
    return batch


class Materializer:
    """Turns schedule entries into the typed requests the clients send."""

    def __init__(self, db) -> None:
        self._db = db
        scale = spatial_scale(db)
        self._eps = 0.10 * scale
        self._delta = 0.15 * scale

    def __call__(self, entry: tuple):
        kind, param = entry
        if kind == "range":
            return RangeRequest((BoundingBox(*param),))
        if kind == "count":
            return CountRequest((BoundingBox(*param),))
        if kind == "histogram":
            return HistogramRequest(HISTOGRAM_GRID, BoundingBox(*param))
        if kind == "knn":
            return KnnRequest((self._db[param],), KNN_K, eps=self._eps)
        if kind == "similarity":
            return SimilarityRequest((self._db[param],), self._delta)
        if kind == "ingest":
            return ingest_batch(self._db, param)
        raise ValueError(f"unknown schedule kind {kind!r}")
