"""Names and sizes: the four workloads and the metric vocabulary.

``BENCHMARK.json`` at the repository root is what the driver reads; the
smoke test keeps the two in step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .schedule import KINDS

WORKLOADS = ("offline_simplify", "serve_miss", "serve_hit", "serve_mixed_rw")

#: What a user of the system sees; printed by every workload with ``--trace 0``.
END_TO_END = {
    "setup_s": "s",
    "qps": "1/s",
    "p50_ms": "ms",
    "p95_ms": "ms",
    **{f"{k}_p50_ms": "ms" for k in KINDS},
    "mem_mb": "MiB",
    "range_f1": "F1",
    "knn_f1": "F1",
    "similarity_f1": "F1",
}

#: One number per layer (this repo's modules); printed with ``--trace 1``.
#: A layer the workload never enters reads 0: no work, no time.
PER_LAYER = {
    # the rung ladder: what one cache miss costs in each layer
    **{f"queries.engine.{k}_ms": "ms" for k in KINDS},
    **{f"service.service.{k}_ms": "ms" for k in KINDS},
    **{f"service.executors.{k}_ms": "ms" for k in KINDS},
    **{f"service.requests.{k}_ms": "ms" for k in KINDS},
    **{f"service.requests.{k}_req_bytes": "B" for k in KINDS},
    **{f"service.requests.{k}_resp_bytes": "B" for k in KINDS},
    **{f"service.server.{k}_ms": "ms" for k in KINDS},
    # serving counters of the workload's own traffic
    "service.cache.hit_ms": "ms",
    "service.cache.hit_ratio": "ratio",
    "service.queue_wait_p95_ms": "ms",
    "service.queue_depth_hwm": "count",
    "service.knn_shard_skip_ratio": "ratio",
    "service.runtime.ingest_ms": "ms",
    "service.compaction.count": "count",
    "service.compaction.pause_mean_ms": "ms",
    "service.compaction.pause_max_ms": "ms",
    "client.ingest_p50_ms": "ms",
    # what set-up is made of
    "service.sharding.build_ms": "ms",
    "service.server.boot_ms": "ms",
    "client.aio.handshake_ms": "ms",
    "data.load_ms": "ms",
    "queries.engine_build_ms": "ms",
    "queries.evaluate_ms": "ms",
    # the paper's pipeline
    "queries.evaluate_state_ms": "ms",
    "queries.incremental_insert_us": "us",
    "index.octree_build_ms": "ms",
    "errors.sed_ms": "ms",
    "rl.act_us": "us",
    "rl.learn_ms": "ms",
    "core.train_s": "s",
    "core.simplify_s": "s",
    "core.inserted": "count",
    "core.windows": "count",
    "core.fallback_inserted": "count",
    "core.simplify_us_per_insert": "us",
    "core.train_ms_per_episode": "ms",
    "baselines.topdown_w_sed.simplify_s": "s",
    "baselines.topdown_w_sed.range_f1": "F1",
    "eval.score_ms": "ms",
    # these explain a run; nothing is predicted to move them
    "trace.overhead_ratio": "ratio",
    "host.spin_ms_before": "ms",
    "host.spin_ms_after": "ms",
    "host.load1": "load",
    "data.generate_s": "s",
}


@dataclass(frozen=True)
class Sizes:
    """How much work one run does. Every count is fixed before the run:
    rounds are bounded by operations, never by a clock, so the ingested
    volume (hence memory, hence compactions) repeats exactly."""

    trajectories: int
    #: set-ups timed per run (the median is ``setup_s``)
    setups: int
    rounds: int
    lat_requests: int
    sat_requests: int
    warm_requests: int
    probes_per_kind: int
    #: kind -> n: every n-th request of that kind in latency round 1 goes
    #: to the oracle (kinds left out are not checked)
    check_every: dict[str, int]


#: ``--seconds`` the sizes below are calibrated for: about that much timed
#: traffic (3 rounds x (3 s + 3 s)) on the 2-core reference box.
REFERENCE_SECONDS = 18

EVERY_20TH = dict.fromkeys(KINDS, 20)

REFERENCE = {
    "serve_miss": Sizes(4000, 5, 3, 1100, 1400, 40, 40, EVERY_20TH),
    "serve_hit": Sizes(4000, 5, 3, 2900, 9700, 0, 40, EVERY_20TH),
    "serve_mixed_rw": Sizes(1000, 5, 3, 900, 1200, 0, 40, EVERY_20TH),
    # In process there is one caller, so a round measures latency and
    # throughput at once and the saturation rounds are left out. Only the
    # kinds with an F1 are scored; similarity scores are nearly all 0 or 1
    # and cheap to compute, so all ~700 of them are.
    "offline_simplify": Sizes(
        1000, 3, 3, 8000, 0, 40, 40, {"range": 3, "knn": 3, "similarity": 1}
    ),
}


def sizes_for(workload: str, seconds: float) -> Sizes:
    """``REFERENCE`` with the request counts scaled to ``--seconds``."""
    ref = REFERENCE[workload]
    scale = seconds / REFERENCE_SECONDS

    def scaled(n: int, floor: int) -> int:
        return max(floor, round(n * scale))

    return replace(
        ref,
        lat_requests=scaled(ref.lat_requests, 30),
        sat_requests=scaled(ref.sat_requests, 30) if ref.sat_requests else 0,
        probes_per_kind=scaled(ref.probes_per_kind, 3),
    )
