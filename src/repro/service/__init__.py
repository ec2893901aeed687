"""The sharded online query service (serving layer over the batch engine).

Layering (see ``ARCHITECTURE.md`` at the repository root)::

    data (TrajectoryDatabase) -> index/engine (CSR + QueryEngine)
        -> service (shards + executors + request layer)

* :mod:`~repro.service.sharding` — the placement rule (global id ``g``
  lives on shard ``g % K`` at position ``g // K``) and
  :class:`ShardManager`: one global-id-ordered trajectory list that it
  freezes into per-shard :class:`ShardSnapshot` objects, routes streamed
  ingests by, and versions with the shard epoch;
* :mod:`~repro.service.runtime` — :class:`ShardRuntime`: per-shard
  execution, a compacted base :class:`~repro.queries.engine.QueryEngine`
  plus a streamed pending tier (ingest without rebuild), answering in
  global ids by arithmetic (local position ``i`` is ``s + K * i``);
* :mod:`~repro.service.compaction` — pluggable base-rebuild policies:
  :class:`ExactCompaction` (bit-identical default) and
  :class:`SimplifyingCompaction` (the paper's simplifiers as the storage
  engine, under a per-trajectory error budget);
* :mod:`~repro.service.executors` — :class:`ShardExecutor`: the one
  scatter/gather over shards; its name picks the replica transport
  (``"serial"`` in-process runtimes, ``"process"`` worker processes);
* :mod:`~repro.service.replication` — :class:`ReplicaSet`: the replicas
  of one shard behind either transport (workers share the shm base
  segments), query failover on worker death, replicated ingest,
  restart-with-replay;
* :mod:`~repro.service.watchdog` — :class:`Watchdog`: background
  heartbeat/liveness monitor that restarts dead or hung replicas;
* :mod:`~repro.service.requests` — the typed request/response API, which
  doubles as the canonical versioned wire schema (``to_json``/``from_json``
  codecs, :class:`RequestError` decode-time validation);
* :mod:`~repro.service.service` — :class:`QueryService`: caching, stats,
  ingestion, and the exact k-way/union/sum merges;
* :mod:`~repro.service.server` — the asyncio TCP front-end
  (length-prefixed JSON frames, version handshake, concurrent clients,
  graceful shutdown) behind ``repro serve --listen``.

Quickstart (the unified client API — :mod:`repro.client`)::

    from repro import QueryService, ServiceClient, synthetic_database

    db = synthetic_database("geolife", n_trajectories=100, seed=7)
    service = QueryService(db, n_shards=4, executor="process")
    with ServiceClient(service, own_service=True) as client:
        hot = client.range(workload)             # == LocalClient results
        client.ingest(more_trajectories)         # streamed, no rebuild
        counts = client.count(boxes).counts
"""

from repro.service.compaction import (
    COMPACTION_POLICIES,
    CompactionPolicy,
    CompactionResult,
    ExactCompaction,
    SimplifyingCompaction,
    make_compaction,
)
from repro.service.executors import (
    EXECUTORS,
    ShardExecutionError,
    ShardExecutor,
)
from repro.service.requests import (
    PROTOCOL_VERSION,
    REQUEST_TYPES,
    CountRequest,
    CountResponse,
    HistogramRequest,
    HistogramResponse,
    KnnRequest,
    KnnResponse,
    RangeRequest,
    RangeResponse,
    RequestError,
    Response,
    SimilarityRequest,
    SimilarityResponse,
    build_response,
    request_from_json,
    request_to_json,
    response_from_json,
    response_to_json,
)
from repro.service.replication import ReplicaSet
from repro.service.runtime import ShardRuntime
from repro.service.server import QueryServer, ServerHandle, serve_in_thread
from repro.service.watchdog import Watchdog
from repro.service.service import QueryService, ServiceStats
from repro.service.sharding import ShardManager, ShardSnapshot

__all__ = [
    "QueryService",
    "ServiceStats",
    "ShardManager",
    "ShardSnapshot",
    "ShardRuntime",
    "ShardExecutor",
    "ShardExecutionError",
    "ReplicaSet",
    "Watchdog",
    "EXECUTORS",
    "CompactionPolicy",
    "CompactionResult",
    "ExactCompaction",
    "SimplifyingCompaction",
    "make_compaction",
    "COMPACTION_POLICIES",
    "RangeRequest",
    "CountRequest",
    "HistogramRequest",
    "KnnRequest",
    "SimilarityRequest",
    "Response",
    "RangeResponse",
    "CountResponse",
    "HistogramResponse",
    "KnnResponse",
    "SimilarityResponse",
    "REQUEST_TYPES",
    "PROTOCOL_VERSION",
    "RequestError",
    "build_response",
    "request_to_json",
    "request_from_json",
    "response_to_json",
    "response_from_json",
    "QueryServer",
    "ServerHandle",
    "serve_in_thread",
]
