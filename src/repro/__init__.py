"""RL4QDTS: query-accuracy-driven collective trajectory simplification.

This package reproduces the system described in "Collectively Simplifying
Trajectories in a Database: A Query Accuracy Driven Approach" (ICDE 2024).
It provides:

* a numpy-backed trajectory data model and synthetic dataset generators
  (:mod:`repro.data`),
* the four classical simplification error measures SED / PED / DAD / SAD
  (:mod:`repro.errors`),
* spatio-temporal indexes — octree, kd-tree, and the query engine's grid
  geometry (:mod:`repro.index`),
* range / kNN / similarity / clustering query operators together with the
  F1-based quality measures used by the paper (:mod:`repro.queries`),
* a vectorized batch :class:`~repro.queries.engine.QueryEngine` evaluating
  whole range-query workloads in columnar passes over the database's flat
  point matrix, pruned by one grid CSR cell sweep, with per-state
  memoization — the training-reward and evaluation hot path
  (:mod:`repro.queries.engine`),
* query workload generators over several spatial distributions
  (:mod:`repro.workloads`),
* a from-scratch numpy DQN stack and the two cooperative agents, Agent-Cube
  and Agent-Point (:mod:`repro.rl`),
* the RL4QDTS algorithm itself (:mod:`repro.core`),
* the paper's 25 error-driven baselines with "E" and "W" adaptations
  (:mod:`repro.baselines`),
* the evaluation harness regenerating every table and figure
  (:mod:`repro.eval`),
* the sharded online query service — K-shard scatter/gather over per-shard
  engines (serial or one worker process per shard), streaming ingestion
  without rebuilds, and a typed request layer with caching and stats
  (:mod:`repro.service`) — plus an asyncio socket front-end
  (:mod:`repro.service.server`, ``repro serve --listen``),
* the unified query client API (:mod:`repro.client`): one typed
  :class:`~repro.client.Client` surface with three property-tested
  bit-identical transports — :class:`~repro.client.LocalClient` (one
  engine), :class:`~repro.client.ServiceClient` (sharded service), and
  :class:`~repro.client.RemoteClient` (socket), and
* end-to-end observability (:mod:`repro.obs`): mergeable log-bucketed
  latency histograms behind every serving stat, request tracing across
  the wire, and run provenance for the seeded open-loop load harness
  (``benchmarks/bench_load.py``).

Quickstart::

    from repro import LocalClient, RangeQueryWorkload, RL4QDTS, synthetic_database

    db = synthetic_database("geolife", n_trajectories=50, seed=7)
    workload = RangeQueryWorkload.from_data_distribution(db, n_queries=40, seed=7)
    simplifier = RL4QDTS.train(db, workload, budget_ratio=0.05, seed=7)
    simplified = simplifier.simplify(db, budget_ratio=0.05)

    with LocalClient(simplified) as client:      # the unified query surface:
        hits = client.range(workload).result_sets   # swap in ServiceClient /
        counts = client.count(workload.boxes).counts  # RemoteClient unchanged
"""

from repro.data import (
    Trajectory,
    TrajectoryDatabase,
    BoundingBox,
    synthetic_database,
    DATASET_PROFILES,
)
from repro.errors import sed_error, ped_error, dad_error, sad_error, trajectory_error
from repro.index import Octree, KDTree
from repro.queries import (
    RangeQuery,
    QueryEngine,
    range_query,
    knn_query,
    knn_query_batch,
    similarity_query,
    similarity_query_batch,
    traclus_cluster,
    f1_score,
)
from repro.workloads import RangeQueryWorkload
from repro.core import RL4QDTS, RL4QDTSConfig
from repro.service import (
    CompactionPolicy,
    CompactionResult,
    ExactCompaction,
    QueryService,
    ShardManager,
    SimplifyingCompaction,
    make_compaction,
)
from repro.client import (
    Client,
    IngestResult,
    LocalClient,
    RemoteClient,
    RequestError,
    ServiceClient,
)
from repro.obs import (
    Histogram,
    MetricsRegistry,
    Tracer,
    mint_trace_id,
)
from repro.baselines import (
    top_down,
    bottom_up,
    span_search,
    simplify_database,
    BaselineSpec,
    all_baselines,
    greedy_qdts,
    optimal_min_error,
)

__version__ = "1.0.0"

__all__ = [
    "Trajectory",
    "TrajectoryDatabase",
    "BoundingBox",
    "synthetic_database",
    "DATASET_PROFILES",
    "sed_error",
    "ped_error",
    "dad_error",
    "sad_error",
    "trajectory_error",
    "Octree",
    "KDTree",
    "RangeQuery",
    "QueryEngine",
    "range_query",
    "knn_query",
    "knn_query_batch",
    "similarity_query",
    "similarity_query_batch",
    "traclus_cluster",
    "f1_score",
    "QueryService",
    "CompactionPolicy",
    "CompactionResult",
    "ExactCompaction",
    "SimplifyingCompaction",
    "make_compaction",
    "ShardManager",
    "Client",
    "IngestResult",
    "LocalClient",
    "ServiceClient",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "mint_trace_id",
    "RemoteClient",
    "RequestError",
    "RangeQueryWorkload",
    "RL4QDTS",
    "RL4QDTSConfig",
    "top_down",
    "bottom_up",
    "span_search",
    "simplify_database",
    "BaselineSpec",
    "all_baselines",
    "greedy_qdts",
    "optimal_min_error",
    "__version__",
]
