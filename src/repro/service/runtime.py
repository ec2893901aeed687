"""Per-shard query execution: a base engine plus a streamed pending delta.

A :class:`ShardRuntime` owns one shard's data and answers every service
query kind in *global*-id space. Execution is two-tier, LSM-style:

* the **base** tier is an immutable :class:`~repro.data.TrajectoryDatabase`
  over the shard's compacted trajectories with its own columnar
  :class:`~repro.queries.engine.QueryEngine` (CSR layout + memo), built
  lazily on first query;
* the **pending** tier holds trajectories streamed in since the last
  compaction. Queries answer over ``base U pending``: the base part runs
  through the engine's batched methods, the pending part through the exact
  per-trajectory reference predicates — so an ingest is ``O(batch)``
  (list append + cache drop), never a CSR rebuild.

When the pending tier outgrows ``compact_threshold`` of the base (or
``min_compact_points``), :meth:`compact` folds it into a fresh base engine —
one rebuild amortized over many ingests. *What* the rebuilt base contains
is delegated to a pluggable :class:`~repro.service.compaction.CompactionPolicy`:
the default :class:`~repro.service.compaction.ExactCompaction` keeps
the merged tier unchanged (bit-identical answers), while a
:class:`~repro.service.compaction.SimplifyingCompaction` routes the cold
base through one of the paper's simplifiers under an error budget — the
hot pending tier always stays exact.

Every result is bit-identical to evaluating the same query on a fresh
single-database engine over the shard's trajectories: the pending paths
reuse the same reference arithmetic the engine is property-tested against
(:func:`~repro.queries.similarity.candidate_matches`,
:func:`~repro.queries.aggregate.spatial_bin_counts`, the EDR batch DP).

Runtimes are executor-side objects: the ``serial`` transport keeps them
in-process, the ``process`` transport builds one inside each shard worker
from the shard's :class:`~repro.service.sharding.ShardSnapshot`.

Answers are in global-id space with no stored ids: placement is
``g % K`` (see :mod:`repro.service.sharding`), and compaction keeps one row
per trajectory in arrival order, so the trajectory at local position ``i``
— the base tier first, then the pending tier — has global id
``index + n_shards * i``.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.data.bbox import BoundingBox
from repro.data.database import TrajectoryDatabase
from repro.data.trajectory import Trajectory
from repro.obs.metrics import MetricsRegistry
from repro.queries.aggregate import spatial_bin_counts
from repro.queries.edr import edr_distances_pairs
from repro.queries.engine import QueryEngine
from repro.queries.knn import (
    _resolve_measure,
    _window_restriction,
    knn_query_batch,
    top_k_pairs,
)
from repro.queries.similarity import (
    candidate_matches,
    query_checkpoints,
    resolve_time_windows,
)
from repro.service.compaction import CompactionResult, make_compaction
from repro.service.sharding import ShardSnapshot


class ShardRuntime:
    """Executes service queries over one shard (base engine + pending delta).

    Parameters
    ----------
    shard:
        Columnar membership snapshot (see
        :meth:`~repro.service.sharding.ShardManager.export_snapshots`);
        later manager-side bookkeeping does not leak into the runtime
        (deltas arrive only via :meth:`ingest`).
    compact_threshold:
        Compact when pending points exceed this fraction of base points.
    min_compact_points:
        ... but never before the pending tier holds this many points.
    compaction:
        Base-rebuild policy: a :class:`~repro.service.compaction.CompactionPolicy`,
        a name from :data:`~repro.service.compaction.COMPACTION_POLICIES`,
        or ``None`` for the exact default. A non-exact policy also runs
        once at construction — the shard's initial base is already a cold
        tier.
    """

    def __init__(
        self,
        shard: ShardSnapshot,
        compact_threshold: float = 0.5,
        min_compact_points: int = 2048,
        compaction=None,
    ) -> None:
        self.index = shard.index
        self.n_shards = shard.n_shards
        self.compact_threshold = float(compact_threshold)
        self.min_compact_points = int(min_compact_points)
        #: Columnar-backed base database (views into the mapped snapshot or
        #: the last compaction's heap arrays); None while the base is empty.
        self._base_db: TrajectoryDatabase | None = None
        matrix = shard.matrix.resolve()
        offsets = shard.offsets.resolve()
        #: Snapshot handles this runtime attached (released, never unlinked
        #: — the exporting store owns those segments).
        self._attached: list = [shard.matrix, shard.offsets]
        if len(offsets) > 1:
            self._base_db = TrajectoryDatabase.from_columnar(matrix, offsets)
            self._base = list(self._base_db.trajectories)
        else:
            self._base = []
        self._base_points = sum(len(t) for t in self._base)
        self._pending: list[Trajectory] = []
        self._pending_points = 0
        self._engine: QueryEngine | None = None
        self._pending_matrix: np.ndarray | None = None
        self._pending_owner_gids: np.ndarray | None = None
        self.compactions = 0
        #: Shard-local instrumentation: per-op latency histograms
        #: (``op.range``, ``op.ingest``, ...) and counters, shipped to the
        #: service as a JSON snapshot via the ``metrics`` scatter op and
        #: merged across shards there.
        self.metrics = MetricsRegistry()
        self._closed = False
        self.compaction = make_compaction(compaction)
        #: Last policy pass (None until the first rebuild under this policy).
        self.last_compaction: CompactionResult | None = None
        #: Counter dicts of policy passes not yet drained by the service.
        self._compaction_log: list[dict] = []
        if not self.compaction.is_exact and self._base:
            # The initial base is already a cold tier: run the policy once.
            # Exact policies skip this, preserving the zero-copy snapshot
            # mapping.
            self.rebuild_base()

    # ------------------------------------------------------------------- tiers
    @property
    def engine(self) -> QueryEngine | None:
        """The base tier's engine, built on first use (None while the base
        is empty)."""
        if self._engine is None and self._base:
            self._engine = QueryEngine(self._base_db)
        return self._engine

    @property
    def n_pending(self) -> int:
        return len(self._pending)

    def info(self) -> dict:
        """Shard-tier sizes (for service describe / stats output)."""
        return {
            "index": self.index,
            "base_trajectories": len(self._base),
            "pending_trajectories": len(self._pending),
            "points": self._base_points + self._pending_points,
            "compactions": self.compactions,
            "compaction": self.compaction.name,
        }

    def take_compactions(self) -> list[dict]:
        """Drain the per-pass compaction counters accumulated since the
        last drain (the service absorbs them into its stats)."""
        log, self._compaction_log = self._compaction_log, []
        return log

    def ingest(self, batch: list[Trajectory]) -> list[dict]:
        """Append a routed batch to the pending tier (auto-compacting);
        its trajectories take this shard's next global ids, in order.

        Returns the compaction counters of any policy passes this ingest
        triggered (usually empty), so executors can carry them back to
        the service's stats without an extra round-trip.
        """
        start = time.perf_counter()
        batch_points = sum(len(t) for t in batch)
        self._pending.extend(batch)
        self._pending_points += batch_points
        self._pending_matrix = None
        self._pending_owner_gids = None
        if self._pending_points >= max(
            self.min_compact_points, self.compact_threshold * self._base_points
        ):
            self.compact()
        self.metrics.histogram("op.ingest").record(time.perf_counter() - start)
        self.metrics.counter("ingest.trajectories").inc(len(batch))
        self.metrics.counter("ingest.points").inc(batch_points)
        return self.take_compactions()

    def replay(self, batches: list[list[Trajectory]]) -> None:
        """Re-apply logged ingest batches (replica restart catch-up).

        A restarted replica is built from the shard's *original* base
        snapshot and must replay every batch ingested since, in arrival
        order — compaction decisions are deterministic in that order, so
        the replica converges on the same tiers its siblings hold. The
        replayed passes' compaction counters are discarded: the service
        already absorbed them from the replica that first acked each
        batch, and draining them again would double-count.
        """
        for batch in batches:
            self.ingest(batch)
        self._compaction_log = []
        self.metrics.counter("replay.batches").inc(len(batches))

    def compact(self) -> None:
        """Fold the pending tier into a fresh base engine.

        An empty pending tier makes this a **no-op**: no policy pass, no
        new epoch, and the base database object is kept (regression-tested
        — a spurious rebuild would drop the base engine's memo).

        The merged base runs through the compaction policy and becomes the
        new base tier on this runtime's heap (see :meth:`rebuild_base`).
        Pending tiers never touch the policy — they stay heap-local and
        exact until folded here.
        """
        if not self._pending:
            return
        self._base.extend(self._pending)
        self._pending = []
        self._pending_points = 0
        self._pending_matrix = None
        self._pending_owner_gids = None
        self.compactions += 1
        self.rebuild_base()

    def rebuild_base(self) -> None:
        """Run the compaction policy over the staged base and swap it in.

        The policy decides what the new base *contains*
        (:class:`~repro.service.compaction.ExactCompaction` keeps the
        staged arrays untouched); this method owns the mechanics — a
        columnar re-view of the result's read-only heap arrays, and
        releasing the snapshot segments the old base was mapped from.
        The compacted tier is private to this runtime: no other process
        reads it (a restarted replica rebuilds from the original snapshot
        plus the replayed ingest log), so it never goes to shared memory.
        """
        staged = TrajectoryDatabase(self._base)
        result = self.compaction.compact(staged)
        self.last_compaction = result
        counters = result.counters()
        self._compaction_log.append(counters)
        self.metrics.counter("compaction.passes").inc()
        self.metrics.counter("compaction.points_dropped").inc(
            int(counters.get("points_dropped", 0))
        )
        self.metrics.histogram("op.compact").record(
            float(counters.get("elapsed_s", 0.0))
        )
        published = result.database
        self._engine = None
        base_db = TrajectoryDatabase.from_columnar(
            published.point_matrix(), published.point_offsets()
        )
        # Swap in the new views, then release the snapshot mapping (its
        # store owns those segments; the parent unlinks them on close).
        self._base_db = base_db
        self._base = list(base_db.trajectories)
        self._base_points = base_db.total_points
        for handle in self._attached:
            handle.release()
        self._attached = []

    def close(self) -> None:
        """Release the mapped snapshot segments (never unlinks them).

        Idempotent. Called by executors on shutdown (the worker main loop
        runs it in a ``finally``); after close the runtime holds no data.
        """
        if self._closed:
            return
        self._closed = True
        self._engine = None
        self._base_db = None
        self._base = []
        self._pending = []
        self._pending_matrix = None
        self._pending_owner_gids = None
        for handle in self._attached:
            handle.release()
        self._attached = []

    def _pending_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Stacked pending points and the owning global id per row."""
        if self._pending_matrix is None:
            if self._pending:
                self._pending_matrix = np.concatenate(
                    [t.points for t in self._pending]
                )
                self._pending_owner_gids = np.repeat(
                    self._pending_gids(), [len(t) for t in self._pending]
                )
            else:
                self._pending_matrix = np.empty((0, 3))
                self._pending_owner_gids = np.empty(0, dtype=np.int64)
        return self._pending_matrix, self._pending_owner_gids

    def _pending_gids(self) -> np.ndarray:
        """Global ids of the pending tier, in order (they follow the base)."""
        first = len(self._base)
        positions = np.arange(first, first + len(self._pending), dtype=np.int64)
        return self.index + self.n_shards * positions

    def _to_global(self, local_sets: list[set[int]]) -> list[set[int]]:
        index, n_shards = self.index, self.n_shards
        return [{index + n_shards * t for t in s} for s in local_sets]

    #: Scatter ops whose shard-side wall time is recorded into the shard
    #: registry's ``op.<name>`` histogram (query kinds; bookkeeping ops
    #: like info/metrics are not timed).
    TIMED_OPS = frozenset({"range", "count", "histogram", "knn", "similarity"})

    # ------------------------------------------------------------------ queries
    def execute(self, op: str, payload: dict):
        """Dispatch one scatter/gather operation (the executor wire API)."""
        try:
            fn = getattr(self, "op_" + op)
        except AttributeError:
            raise KeyError(f"shard runtime has no operation {op!r}") from None
        if op in self.TIMED_OPS:
            start = time.perf_counter()
            result = fn(**payload)
            self.metrics.histogram("op." + op).record(
                time.perf_counter() - start
            )
            return result
        return fn(**payload)

    def op_range(self, boxes: list[BoundingBox]) -> list[set[int]]:
        """Per-box matching global ids (the shard's share of a range workload)."""
        engine = self.engine
        if engine is not None:
            results = self._to_global(engine.evaluate(boxes))
        else:
            results = [set() for _ in boxes]
        if self._pending:
            points, owners = self._pending_columns()
            for qi, box in enumerate(boxes):
                mask = box.contains_points(points)
                if mask.any():
                    results[qi].update(int(g) for g in np.unique(owners[mask]))
        return results

    def op_count(self, boxes: list[BoundingBox]) -> np.ndarray:
        """Per-box point counts over ``base U pending`` (int64, exact)."""
        engine = self.engine
        counts = (
            engine.count(boxes)
            if engine is not None
            else np.zeros(len(boxes), dtype=np.int64)
        )
        if self._pending:
            points, _ = self._pending_columns()
            counts = counts + np.array(
                [int(box.contains_points(points).sum()) for box in boxes],
                dtype=np.int64,
            )
        return counts

    def op_histogram(self, grid: int, box: BoundingBox) -> np.ndarray:
        """The shard's raw (unnormalized) partial density raster over ``box``.

        Partial rasters are integer-valued, so the service-side sum over
        shards is bit-identical to one single-database binning pass.
        """
        engine = self.engine
        hist = (
            engine.histogram(grid, box, normalize=False)
            if engine is not None
            else np.zeros((grid, grid))
        )
        if self._pending:
            points, _ = self._pending_columns()
            hist = hist + spatial_bin_counts(points[:, :2], grid, box)
        return hist

    def op_knn(
        self,
        queries: list[Trajectory],
        k: int,
        time_windows: list[tuple[float, float] | None] | None,
        measure="edr",
        eps: float = 2000.0,
    ) -> list[list[tuple[float, int]]]:
        """Per-query top-``k`` ``(distance, global_id)`` pairs of this shard.

        Finite distances only, sorted by ``(distance, global id)``. Any
        global top-``k`` neighbour ranks within the top-``k`` of its own
        shard, so the service's k-way merge of these pairs reproduces the
        single-database ranking exactly.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        windows = resolve_time_windows(queries, time_windows)
        merged: list[list[tuple[float, int]]] = [[] for _ in queries]
        engine = self.engine
        if engine is not None and queries:
            base_pairs = knn_query_batch(
                self._base_db,
                queries,
                k,
                windows,
                measure,
                eps=eps,
                engine=engine,
                return_pairs=True,
            )
            index, n_shards = self.index, self.n_shards
            for qi, pairs in enumerate(base_pairs):
                merged[qi].extend((d, index + n_shards * tid) for d, tid in pairs)
        if self._pending and queries:
            self._knn_pending(merged, queries, windows, measure, eps)
        return [top_k_pairs(pairs, k) for pairs in merged]

    def _knn_pending(self, merged, queries, windows, measure, eps) -> None:
        """Score pending trajectories against every non-degenerate query."""
        query_windows = [
            _window_restriction(q, ts, te) for q, (ts, te) in zip(queries, windows)
        ]
        flat_q: list[Trajectory] = []
        flat_c: list[Trajectory] = []
        flat_at: list[tuple[int, int]] = []  # (query index, candidate gid)
        gids = self._pending_gids().tolist()
        for qi, (qw, (ts, te)) in enumerate(zip(query_windows, windows)):
            if qw is None:
                continue
            for gid, traj in zip(gids, self._pending):
                restricted = _window_restriction(traj, ts, te)
                if restricted is None:
                    continue
                flat_q.append(qw)
                flat_c.append(restricted)
                flat_at.append((qi, gid))
        if not flat_at:
            return
        if measure == "edr":
            # Same batched DP as the engine's base path (exactly equal to
            # the per-pair reference, see repro.queries.edr).
            distances = edr_distances_pairs(flat_q, flat_c, eps)
        else:
            theta = _resolve_measure(measure, eps, None)
            distances = [theta(a, b) for a, b in zip(flat_q, flat_c)]
        for (qi, gid), d in zip(flat_at, distances):
            merged[qi].append((float(d), gid))

    def op_similarity(
        self,
        queries: list[Trajectory],
        delta: float,
        time_windows: list[tuple[float, float] | None] | None = None,
        n_checkpoints: int = 32,
    ) -> list[set[int]]:
        """Per-query matching global ids under the synchronized-distance test."""
        engine = self.engine
        if engine is not None:
            results = self._to_global(
                engine.similarity(queries, delta, time_windows, n_checkpoints)
            )
        else:
            results = [set() for _ in queries]
        if not self._pending:
            return results
        windows = resolve_time_windows(queries, time_windows)
        gids = self._pending_gids().tolist()
        for qi, (q, (ts, te)) in enumerate(zip(queries, windows)):
            checkpoints = query_checkpoints(q, ts, te, n_checkpoints)
            if len(checkpoints) == 0:
                continue
            query_positions = q.positions_at(checkpoints)
            query_alive = (checkpoints >= q.times[0]) & (checkpoints <= q.times[-1])
            for gid, traj in zip(gids, self._pending):
                if traj.times[-1] < ts or traj.times[0] > te:
                    continue
                if candidate_matches(
                    traj, checkpoints, query_positions, query_alive, delta
                ):
                    results[qi].add(gid)
        return results

    def op_info(self) -> dict:
        return self.info()

    def op_metrics(self) -> dict:
        """This shard's registry snapshot (merged service-side over shards)."""
        return self.metrics.snapshot()

    def op_take_compactions(self) -> list[dict]:
        return self.take_compactions()

    def op_clear_cache(self) -> None:
        """Drop the base engine's memo (benchmark fairness / memory release)."""
        if self._engine is not None:
            self._engine.clear_cache()

    def op_ping(self) -> dict:
        """Liveness heartbeat: answers iff the worker's serve loop is
        responsive (the watchdog's deadline probe — a hung worker whose
        process is still alive never reaches this)."""
        return {
            "index": self.index,
            "pid": os.getpid(),
            "base_trajectories": len(self._base),
            "pending_trajectories": len(self._pending),
        }
