"""Per-layer numbers, measured from outside the program.

Layers are this repo's modules. Everything here times calls into public
functions from the benchmark's own files; spans inside the program are a
later change. The serving layers come from a **rung ladder**: the same
fresh request is answered by ever more of the stack, and each layer's cost
is the difference between two neighbouring rungs:

====  ===================  =================================================
rung  span name            what answers the request
====  ===================  =================================================
0     queries.engine       one fresh ``QueryEngine``
1     service.service      ``QueryService(shards=2, executor="serial")``
2     service.executors    the same with ``executor="process", store="shm"``
3     service.requests     rung 2 wrapped in the JSON wire codec, both ways
4     service.server       the live server over the socket, tracing on
====  ===================  =================================================

Rung *k* is the child of rung *k+1*, so a layer's self time is its
span's duration minus its child's. The differences are signed: a layer
that hides time (two shard workers running in parallel) reads negative.
Only the top residual cannot be negative but for noise, because the live
server does everything rung 3 does and more; a negative one is a warning in
the run's record.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path

import numpy as np

from repro.data import load_database
from repro.queries.engine import QueryEngine
from repro.queries.knn import knn_query_batch
from repro.service import QueryService
from repro.service.requests import (
    request_from_json,
    request_to_json,
    response_from_json,
    response_to_json,
)
from repro.service.server import encode_frame
from repro.workloads import RangeQueryWorkload

from . import host
from .schedule import KINDS, ingest_batch
from .spec import PER_LAYER

LADDER = (
    "queries.engine",
    "service.service",
    "service.executors",
    "service.requests",
    "service.server",
)


class SpanLog:
    """Spans kept in memory and written out once, when the run ends."""

    def __init__(self) -> None:
        self.spans: list[dict] = []

    def add(self, trace_id, name: str, start: float, end: float, parent) -> None:
        self.spans.append(
            {"trace_id": trace_id, "name": name, "start": start, "end": end, "parent": parent}
        )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def trace_path(workload: str, seed: int) -> Path:
    return host.CACHE_DIR / "traces" / f"{workload}-seed{seed}" / "trace.jsonl"


def zeros() -> dict[str, float]:
    """Every per-layer metric at "this workload never entered the layer"."""
    return dict.fromkeys(PER_LAYER, 0.0)


def run_context(spin_before: float, spin_after: float, generate_s: float) -> dict[str, float]:
    """The metrics that explain a run and that nothing is predicted to move."""
    return {
        "host.spin_ms_before": spin_before,
        "host.spin_ms_after": spin_after,
        "host.load1": os.getloadavg()[0],
        "data.generate_s": generate_s,
    }


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, start, time.perf_counter()


def median_ms(call, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        _, start, end = timed(call)
        samples.append(end - start)
    return 1000.0 * statistics.median(samples)


def engine_call(engine: QueryEngine, db, request):
    """Rung 0: the request straight on the engine, as LocalClient would."""
    kind = request.kind
    if kind in ("range", "count"):
        return engine.execute(kind, boxes=list(request.boxes))
    if kind == "histogram":
        return engine.execute(
            kind, grid=request.grid, box=request.box, normalize=request.normalize
        )
    if kind == "similarity":
        return engine.execute(
            kind,
            queries=list(request.queries),
            delta=request.delta,
            n_checkpoints=request.n_checkpoints,
        )
    return knn_query_batch(
        db, list(request.queries), request.k, None, request.measure,
        eps=request.eps, engine=engine, return_pairs=True,
    )


def _through_codec(service: QueryService, request):
    """Rung 3: what the wire adds around rung 2, with rung 2 inside."""
    outer_start = time.perf_counter()
    frame = encode_frame(request_to_json(request))
    decoded = request_from_json(json.loads(frame[4:]))
    response, start, end = timed(service.execute, decoded)
    reply = encode_frame(response_to_json(response))
    response_from_json(json.loads(reply[4:]))
    outer = (outer_start, time.perf_counter())
    return (start, end), outer, len(frame), len(reply)


def engine_ladder(db, warm, probes, log: SpanLog, parent) -> tuple[dict[str, float], list[float]]:
    """Rung 0 alone: ``queries.engine.*`` and each probe's seconds on it.
    ``parent`` names the rung above, or is None where this is the only rung."""
    engine = QueryEngine(db)
    for request in warm:
        engine_call(engine, db, request)
    samples: dict[str, list[float]] = {k: [] for k in KINDS}
    seconds = []
    for i, (kind, request) in enumerate(probes):
        _, s, e = timed(engine_call, engine, db, request)
        log.add(i, LADDER[0], s, e, parent)
        samples[kind].append(e - s)
        seconds.append(e - s)
    metrics = {
        f"queries.engine.{k}_ms": 1000.0 * statistics.median(v)
        for k, v in samples.items()
    }
    return metrics, seconds


def engine_basics(db) -> dict[str, float]:
    """Building an engine over ``db``, and a 200-query range workload on it."""
    engine = QueryEngine(db)
    evaluations = []
    for seed in range(3):  # a fresh workload each time: the engine memoizes
        workload = RangeQueryWorkload.from_data_distribution(db, 200, seed=seed)
        _, start, end = timed(engine.evaluate, workload)
        evaluations.append(end - start)
    return {
        "queries.engine_build_ms": median_ms(lambda: QueryEngine(db), 3),
        "queries.evaluate_ms": 1000.0 * statistics.median(evaluations),
    }


def serving_layers(db_path, warm, probes, remote_spans, workload: str, seed: int, outcome):
    """The rung ladder over ``probes`` plus the serving micro-measurements.

    ``remote_spans`` maps a probe's index to the (start, end) of its traced
    trip through the live server. Each in-process rung gets a database of
    its own, loaded afresh, so no rung inherits another's memo, and answers
    ``warm`` (one request of every kind) first, as the live server did.
    """
    metrics = zeros()
    log = SpanLog()
    db = load_database(db_path)
    rung0, engine_seconds = engine_ladder(db, warm, probes, log, LADDER[1])
    metrics.update(rung0)
    metrics.update(engine_basics(db))
    durations: dict[str, list[list[float]]] = {k: [] for k in KINDS}
    sizes: dict[str, list[tuple[int, int]]] = {k: [] for k in KINDS}

    serial, start, end = timed(
        QueryService, load_database(db_path), n_shards=2, executor="serial", index="grid"
    )
    metrics["service.sharding.build_ms"] = 1000.0 * (end - start)
    process = QueryService(
        load_database(db_path), n_shards=2, executor="process", store="shm", index="grid"
    )
    try:
        for request in warm:
            serial.execute(request)
            process.execute(request)
        for i, (kind, request) in enumerate(probes):
            if i not in remote_spans:
                continue  # the remote attempt failed and was counted there
            _, s1, e1 = timed(serial.execute, request)
            (s2, e2), (s3, e3), req_bytes, resp_bytes = _through_codec(process, request)
            s4, e4 = remote_spans[i]
            log.add(i, LADDER[1], s1, e1, LADDER[2])
            log.add(i, LADDER[2], s2, e2, LADDER[3])
            log.add(i, LADDER[3], s3, e3, LADDER[4])
            log.add(i, LADDER[4], s4, e4, None)
            durations[kind].append(
                [engine_seconds[i], e1 - s1, e2 - s2, e3 - s3, e4 - s4]
            )
            sizes[kind].append((req_bytes, resp_bytes))
        hit = probes[0][1]
        serial.execute(hit)  # 200 probes later, the 64-entry LRU has dropped it
        metrics["service.cache.hit_ms"] = median_ms(lambda: serial.execute(hit), 200)
        batches = [ingest_batch(db, s) for s in range(20)]
        ingests = []
        for batch in batches:
            _, s, e = timed(process.ingest, batch)
            ingests.append(e - s)
        metrics["service.runtime.ingest_ms"] = 1000.0 * statistics.median(ingests)
    finally:
        serial.close()
        process.close()

    telescoped = {}
    for kind in KINDS:
        rungs = np.array(durations[kind])
        if not len(rungs):
            outcome.fail(f"no {kind} probe made it through the ladder")
            continue
        self_times = np.diff(rungs, axis=1, prepend=0.0)
        for layer, column in zip(LADDER, self_times.T):
            if layer != LADDER[0]:  # rung 0 is already reported, over every probe
                metrics[f"{layer}.{kind}_ms"] = 1000.0 * float(np.median(column))
        req_bytes, resp_bytes = np.median(np.array(sizes[kind]), axis=0)
        metrics[f"service.requests.{kind}_req_bytes"] = float(req_bytes)
        metrics[f"service.requests.{kind}_resp_bytes"] = float(resp_bytes)
        if metrics[f"service.server.{kind}_ms"] < 0:
            outcome.warnings.append(f"the live server answered {kind} faster than rung 3")
        telescoped[kind] = {
            "layers_sum_ms": 1000.0 * float(np.median(self_times, axis=0).sum()),
            "remote_p50_ms": 1000.0 * float(np.median(rungs[:, -1])),
        }
    outcome.record["ladder"] = telescoped
    path = trace_path(workload, seed)
    log.write(path)
    outcome.record["trace_file"] = str(path)
    return metrics
