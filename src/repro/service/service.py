"""The online serving layer: :class:`QueryService`.

One service object owns a :class:`~repro.service.sharding.ShardManager`
(membership, routing, epoch), a scatter/gather executor (in-process
runtimes or per-shard worker processes), a per-``(request, shard-epoch)``
LRU result cache, and latency/throughput counters. Typed requests
(:mod:`repro.service.requests`) go in; typed responses with serving
metadata come out.

Merge semantics (all exact — the service is property-tested bit-identical
to a fresh single-database :class:`~repro.queries.engine.QueryEngine`):

* **range / similarity** — shards hold disjoint trajectory sets, so the
  per-query union of shard result sets is the global result set;
* **count / histogram** — integer-valued partials summed over shards equal
  the one-pass global tally; normalization happens once, after the merge;
* **kNN** — each shard returns its top-``k`` ``(distance, global id)``
  pairs; any global top-``k`` neighbour ranks within the top-``k`` of its
  own shard, so a k-way merge ordered by ``(distance, id)`` — the same
  total order the single-database path sorts by — reproduces the global
  ranking exactly.

Every kind broadcasts to every shard: one scatter, one gather, one merge.

Streaming ingestion (:meth:`QueryService.ingest`) routes each new global
id ``g`` to shard ``g % K``, into the shard runtime's pending tier (no CSR
rebuild; shards auto-compact when the delta outgrows the base), and bumps
the shard epoch, which invalidates the result cache by construction.
"""

from __future__ import annotations

import numpy as np

from repro.data.database import TrajectoryDatabase
from repro.data.store import make_store
from repro.data.trajectory import Trajectory
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.service._sync import RWLock
from repro.service.compaction import make_compaction
from repro.service.executors import EXECUTORS, ShardExecutor
from repro.service.requests import CacheLookup, ResultCache
from repro.service.sharding import ShardManager
from repro.service.watchdog import Watchdog


class ServiceStats:
    """Latency / throughput / cache counters of one service instance.

    A view over one :class:`~repro.obs.metrics.MetricsRegistry`: each
    ``record*`` call writes its named instruments (``requests.<kind>``,
    ``cache_hits.<kind>``, ``uncacheable.<kind>``, ``latency.<kind>``,
    ``ingest.*``, ``compaction.*``,
    ``queue.depth_hwm``, ``queue.wait``) under one hold of the registry
    lock, and :meth:`summary` / :meth:`histograms` derive the report.
    Requests with no cache key (callable-measure kNN) are
    ``uncacheable``, never misses. ``bytes_base`` sums each shard's latest
    absorbed pass (0 for a shard with none yet).
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        #: Memoized ``(requests, cache_hits, uncacheable, latency)``
        #: instruments per request kind, so the per-request path formats no
        #: names; a kind appears here once its first request is counted.
        self._per_kind: dict[str, tuple] = {}
        #: Latest absorbed pass's ``(bytes_before, bytes_after)`` per shard.
        self._base_bytes: list[tuple[int, int]] = []

    def record(
        self, kind: str, latency_s: float, cached: bool, cacheable: bool = True
    ) -> None:
        reg = self.registry
        with reg.lock:
            handles = self._per_kind.get(kind)
            if handles is None:
                handles = self._per_kind[kind] = (
                    reg.counter(f"requests.{kind}"),
                    reg.counter(f"cache_hits.{kind}"),
                    reg.counter(f"uncacheable.{kind}"),
                    reg.histogram(f"latency.{kind}"),
                )
            requests, hits, uncacheable, latency = handles
            requests.inc()
            if cached:
                hits.inc()
            elif not cacheable:
                uncacheable.inc()
            latency.record(latency_s)

    def record_ingest(self, trajectories: list[Trajectory]) -> None:
        reg = self.registry
        with reg.lock:
            reg.inc("ingest.batches")
            reg.inc("ingest.trajectories", len(trajectories))
            reg.inc("ingest.points", sum(len(t) for t in trajectories))

    def record_compaction(self, shard: int, counters: dict) -> None:
        """Absorb one shard-side policy pass (a ``CompactionResult.counters()``
        dict drained through the executor)."""
        reg, get = self.registry, counters.get
        with reg.lock:
            reg.inc("compaction.points_dropped", int(get("points_dropped", 0)))
            reg.record("compaction.latency", float(get("elapsed_s", 0.0)))
            base = self._base_bytes
            base.extend([(0, 0)] * (shard + 1 - len(base)))
            base[shard] = (int(get("bytes_before", 0)), int(get("bytes_after", 0)))
            reg.set("compaction.bytes_base_before", sum(b for b, _ in base))
            reg.set("compaction.bytes_base", sum(a for _, a in base))

    def record_queue_depth(self, depth: int) -> None:
        """Track the admission-time in-flight depth (high-water mark)."""
        with self.registry.lock:
            hwm = self.registry.gauge("queue.depth_hwm")
            if depth > hwm.value:
                hwm.set(depth)

    def record_queue_wait(self, wait_s: float) -> None:
        """One request's decode-to-worker-pickup wait (seconds)."""
        self.registry.record("queue.wait", wait_s)

    def summary(self) -> dict[str, float | int]:
        """A flat report: per-kind counts, hit rates, and latency stats.

        Means and maxes come from the histograms' exact sum/max; the
        per-kind ``*_p50/p95/p99_latency_ms`` keys are bucket-derived.
        ``compactions``, ``points_dropped`` and ``bytes_base`` are always
        present; ``bytes_base_before`` and the ``compaction_*_latency_ms``
        keys appear once a compaction pass was recorded, and the
        ``queue_*`` keys once a queue depth or wait was, so
        single-threaded transports keep their historical key set.
        """
        reg = self.registry
        with reg.lock:
            per_kind = sorted(self._per_kind.items())

            def count(name: str) -> int:
                return reg.counter(name).value

            def total(which: int) -> int:
                return sum(handles[which].value for _, handles in per_kind)

            comp = reg.histogram("compaction.latency")
            queue_wait = reg.histogram("queue.wait")
            depth_hwm = reg.gauge("queue.depth_hwm").value
            out: dict[str, float | int] = {
                "requests": total(0),
                "cache_hits": total(1),
                "ingest_batches": count("ingest.batches"),
                "ingest_trajectories": count("ingest.trajectories"),
                "ingest_points": count("ingest.points"),
                "uncacheable_requests": total(2),
                "compactions": comp.count,
                "points_dropped": count("compaction.points_dropped"),
                "bytes_base": reg.gauge("compaction.bytes_base").value,
            }
            if comp.count:
                out["bytes_base_before"] = reg.gauge(
                    "compaction.bytes_base_before"
                ).value
                out["compaction_mean_latency_ms"] = 1000.0 * comp.sum / comp.count
                out["compaction_max_latency_ms"] = 1000.0 * comp.max
                out["compaction_p95_latency_ms"] = 1000.0 * comp.quantile(0.95)
            if queue_wait.count or depth_hwm:
                out["queue_depth_hwm"] = depth_hwm
                out["queue_wait_p50_ms"] = 1000.0 * queue_wait.quantile(0.50)
                out["queue_wait_p95_ms"] = 1000.0 * queue_wait.quantile(0.95)
                out["queue_wait_p99_ms"] = 1000.0 * queue_wait.quantile(0.99)
                out["queue_wait_max_ms"] = 1000.0 * queue_wait.max
            for kind, (requests, hits, uncacheable, hist) in per_kind:
                n = requests.value
                out[f"{kind}_requests"] = n
                out[f"{kind}_cache_hits"] = hits.value
                out[f"{kind}_cache_misses"] = n - hits.value - uncacheable.value
                out[f"{kind}_mean_latency_ms"] = 1000.0 * hist.sum / n
                out[f"{kind}_max_latency_ms"] = 1000.0 * hist.max
                out[f"{kind}_p50_latency_ms"] = 1000.0 * hist.quantile(0.50)
                out[f"{kind}_p95_latency_ms"] = 1000.0 * hist.quantile(0.95)
                out[f"{kind}_p99_latency_ms"] = 1000.0 * hist.quantile(0.99)
            return out

    def histograms(self) -> dict[str, dict]:
        """JSON-safe encodings of every latency histogram (per request
        kind, plus ``"compaction"`` and ``"queue_wait"`` once something
        recorded into them)."""
        reg = self.registry
        with reg.lock:
            out = {
                kind: handles[3].to_json()
                for kind, handles in sorted(self._per_kind.items())
            }
            for key, name in (
                ("compaction", "compaction.latency"),
                ("queue_wait", "queue.wait"),
            ):
                hist = reg.histogram(name)
                if hist.count:
                    out[key] = hist.to_json()
            return out


class QueryService:
    """Sharded online query service over a trajectory database.

    Parameters
    ----------
    db:
        Database to serve (partitioned at construction).
    n_shards:
        Shard count, forwarded to :meth:`ShardManager.create` (global id
        ``g`` lives on shard ``g % n_shards``).
    executor:
        ``"serial"`` (in-process reference) or ``"process"`` (worker
        processes per shard): the replica transport of the one
        :class:`~repro.service.executors.ShardExecutor`.
    compact_threshold, min_compact_points:
        Pending-tier compaction policy of the shard runtimes.
    index:
        Candidate index of the per-shard engines; ``"grid"`` (the CSR cell
        sweep) is the only one.
    mp_context:
        Multiprocessing start method for the process executor.
    store:
        Array-store provider for the shard base tiers: ``"heap"``
        (private copies; default) or ``"shm"`` (named shared-memory
        segments that process-executor workers map zero-copy instead of
        unpickling). The service owns the store and closes it.
        Store choice never changes results, only memory layout.
    compaction:
        Base-rebuild policy of the shard runtimes: ``"exact"`` (default;
        bit-identical answers), one of ``"uniform"``/``"greedy"``/``"rl"``
        (the cold base tiers run through that simplifier on every rebuild
        — answers become approximate within the error budget), or a
        prebuilt :class:`~repro.service.compaction.CompactionPolicy`
        instance (e.g. carrying a trained RL4QDTS model loaded via
        :func:`~repro.service.compaction.make_compaction`).
    error_budget:
        Per-trajectory, per-pass error bound for a named simplifying
        policy (see :mod:`repro.service.compaction`); ignored for
        ``"exact"`` and for policy instances (which carry their own).
    replicas:
        Worker processes per shard for the process executor (default 1).
        With R > 1 each query routes to one live replica and fails over
        to a sibling on worker death; ingest fans out to every replica.
        See :mod:`repro.service.replication`.
    watchdog_interval:
        Poll period in seconds of the background
        :class:`~repro.service.watchdog.Watchdog` (heartbeat dead/hung
        replicas and restart them from snapshot + replayed ingest log);
        ``None`` (default) runs no watchdog.
    watchdog_deadline:
        Seconds a heartbeat may take before a replica counts as hung.
    """

    def __init__(
        self,
        db: TrajectoryDatabase,
        *,
        n_shards: int = 4,
        executor: str = "serial",
        compact_threshold: float = 0.5,
        min_compact_points: int = 2048,
        index: str = "grid",
        mp_context: str | None = None,
        store: str = "heap",
        compaction="exact",
        error_budget: float | None = None,
        replicas: int = 1,
        watchdog_interval: float | None = None,
        watchdog_deadline: float = 5.0,
    ) -> None:
        if index != "grid":
            raise ValueError(f"unknown index backend {index!r}; choose from ['grid']")
        self.manager = ShardManager.create(db, n_shards)
        self.index = index
        self.tracer = Tracer()
        self.executor_name = executor
        self.compaction = make_compaction(compaction, error_budget=error_budget)
        self._store = make_store(store)
        self.store_name = self._store.kind
        try:
            self._executor = ShardExecutor(
                self.manager.export_snapshots(self._store),
                executor,
                compact_threshold=compact_threshold,
                min_compact_points=min_compact_points,
                compaction=self.compaction,
                mp_context=mp_context,
                replicas=replicas,
            )
        except BaseException:
            self._store.close()
            raise
        #: Worker replicas per shard as built: the in-process executor
        #: always runs one, whatever ``replicas`` asked for.
        self.replicas = self._executor.replication_stats()["replicas_per_shard"]
        self.stats = ServiceStats()
        self._cache = ResultCache(self.stats, self.tracer)
        self._closed = False
        self._failed = False
        # The concurrency contract (see ARCHITECTURE.md "Concurrency
        # model"): any number of queries execute concurrently under the
        # epoch lock's read side; ingest — the only epoch bump — takes the
        # write side exclusively, so reads of a given epoch never
        # interleave with the write that produces the next one.
        self._epoch_lock = RWLock()
        if not self.compaction.is_exact:
            # A simplifying policy already ran once per shard at runtime
            # construction (the initial base is a cold tier); absorb those
            # passes so stats start consistent with the published tiers.
            self._absorb_compactions(
                dict(enumerate(self._executor.broadcast("take_compactions", {})))
            )
        self._watchdog: Watchdog | None = None
        if watchdog_interval is not None:
            # Restarts run under the epoch READ lock: concurrent with
            # queries (replica membership changes are internal to a
            # set) but excluded from ingest, whose write side must never
            # race a replica's replay catch-up.
            self._watchdog = Watchdog(
                self._executor,
                interval=watchdog_interval,
                deadline=watchdog_deadline,
                lock=self._epoch_lock.read,
            ).start()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("service is closed")
        if self._failed:
            raise RuntimeError(
                "service is in a failed state (a shard delivery failed "
                "partway; manager and shard runtimes may disagree) — "
                "rebuild the service from its manager's database"
            )

    # ----------------------------------------------------------------- requests
    def execute(
        self,
        request,
        *,
        trace_id: str | None = None,
        lookup: CacheLookup | None = None,
    ):
        """Serve one typed request: cache lookup, shard fan-out, exact merge.

        ``trace_id`` (minted in a client or accepted from the wire) turns
        on span emission for this request: cache lookup, per-shard
        execution, and merge land in :attr:`tracer`. Untraced
        requests (``None``) serve identically with no spans recorded.
        ``lookup`` is the miss a :meth:`probe` of this request returned;
        passing it skips a second LRU probe.
        """
        self._check_open()
        with self._epoch_lock.read():
            epoch = self.manager.epoch
            if lookup is None:
                lookup = self._cache.lookup(request, epoch, trace_id)
            return self._serve(request, lookup, epoch, trace_id)

    def probe(self, request, *, trace_id: str | None = None):
        """Answer ``request`` from the LRU without waiting on the epoch
        lock: for a caller that must not block behind ingest (the socket
        server's event loop).

        Returns the typed response on a hit and the :class:`CacheLookup`
        on a miss (hand it to :meth:`execute`, so the request is looked up
        and recorded once). Returns ``None``, having looked nothing up,
        when a writer holds or awaits the epoch lock or the service is
        closed or failed; :meth:`execute` then waits or raises as usual.
        """
        if not self._epoch_lock.try_acquire_read():
            return None
        try:
            if self._closed or self._failed:
                return None
            epoch = self.manager.epoch
            lookup = self._cache.lookup(request, epoch, trace_id)
            if not lookup.hit:
                return lookup
            return self._serve(request, lookup, epoch, trace_id)
        finally:
            self._epoch_lock.release_read()

    def _serve(self, request, lookup: CacheLookup, epoch: int, trace_id):
        """Answer a lookup (caller holds the epoch read lock)."""
        return self._cache.serve(
            request,
            lookup,
            epoch=epoch,
            n_shards=self.manager.n_shards,
            dispatch=lambda req: self._dispatch(req, trace_id),
            trace_id=trace_id,
        )

    def _dispatch(self, request, trace_id: str | None = None):
        """Scatter one request across the shards and merge exactly."""
        shard_results = self._executor.broadcast(
            request.kind, request.payload(self), (self.tracer, trace_id)
        )
        with self.tracer.span(trace_id, "merge", kind=request.kind):
            return self._merge(request, shard_results)

    def _merge(self, request, shard_results):
        """Combine per-shard partials into the canonical (immutable) payload."""
        kind = request.kind
        if kind in ("range", "similarity"):
            n_queries = len(shard_results[0]) if shard_results else 0
            merged = [set() for _ in range(n_queries)]
            for shard_sets in shard_results:
                for qi, ids in enumerate(shard_sets):
                    merged[qi] |= ids
            return tuple(frozenset(s) for s in merged)
        if kind == "count":
            total = np.sum(shard_results, axis=0, dtype=np.int64)
            total = np.asarray(total, dtype=np.int64)
            total.setflags(write=False)
            return total
        if kind == "histogram":
            hist = np.sum(shard_results, axis=0)
            hist = np.asarray(hist, dtype=float)
            if request.normalize:
                # Normalize once, after the merge — identical arithmetic to
                # the single-engine path (sum then one division).
                total = hist.sum()
                if total > 0:
                    hist = hist / total
            hist.setflags(write=False)
            return hist
        if kind == "knn":
            from repro.queries.knn import top_k_pairs

            n_queries = len(request.queries)
            merged_pairs = []
            for qi in range(n_queries):
                pairs = [
                    pair for shard_pairs in shard_results for pair in shard_pairs[qi]
                ]
                merged_pairs.append(tuple(top_k_pairs(pairs, request.k)))
            return tuple(merged_pairs)
        raise ValueError(f"unknown request kind {kind!r}")

    # ------------------------------------------------------------------- ingest
    def ingest(self, trajectories, *, trace_id: str | None = None) -> int:
        """Stream a batch of trajectories into the service.

        Routes each trajectory to its shard (pending tier — no engine
        rebuild) and bumps the shard epoch, so cached results from earlier
        epochs can no longer be served. Returns the number ingested.

        Delivery is transactional from the manager's point of view: ids and
        membership commit only after every target shard accepted its rows,
        so a failed delivery leaves queries consistent. If delivery fails
        *partway* (some shard runtimes applied rows the manager never
        committed), runtimes and manager can no longer agree — the service
        then latches into a failed state and refuses further work instead
        of silently serving from diverged shards.

        Ingest holds the epoch **write** lock: no query executes while
        shard state changes and the epoch bumps, so concurrent readers
        always observe a consistent ``(epoch, shard state)`` pair.
        """
        self._check_open()
        batch = list(trajectories)
        if not batch:
            return 0
        with self._epoch_lock.write():
            return self._ingest_locked(batch, trace_id)

    def _ingest_locked(self, batch: list, trace_id: str | None) -> int:
        with self.tracer.span(trace_id, "ingest", batch=len(batch)):
            routed = self.manager.plan_ingest(batch)
            try:
                drained = self._executor.ingest(routed)
            except Exception:
                # The executor may have applied the batch on a subset of
                # shards before failing; results would silently omit or
                # double-count rows, so stop serving.
                self._failed = True
                raise
            self.manager.commit_ingest(batch)
            self.stats.record_ingest(batch)
            self._absorb_compactions(drained, trace_id=trace_id)
        return len(batch)

    def _absorb_compactions(
        self, per_shard: dict[int, list], trace_id: str | None = None
    ) -> None:
        """Fold ``{shard: [counter dict, ...]}`` compaction passes into the
        stats (and, when tracing, emit one ``compaction_pass`` span per pass
        with the shard-measured wall time)."""
        for shard_idx, counters_list in per_shard.items():
            for counters in counters_list or []:
                self.stats.record_compaction(shard_idx, counters)
                self.tracer.record(
                    trace_id,
                    "compaction_pass",
                    float(counters.get("elapsed_s", 0.0)),
                    shard=shard_idx,
                    points_dropped=int(counters.get("points_dropped", 0)),
                    bytes_after=int(counters.get("bytes_after", 0)),
                )

    # ------------------------------------------------------------ observability
    def metrics_report(self, include_shards: bool = True) -> dict:
        """One JSON-safe snapshot of everything this service can measure.

        The report the wire ``metrics`` op (and ``repro serve
        --metrics-interval``) ships::

            {
              "summary":    ServiceStats.summary() (bit-identical),
              "histograms": per-kind latency histograms (bucket encodings),
              "store":      array-store counters (segments/bytes for shm),
              "transport":  executor pipe accounting (zeros in-process),
              "shards":     merged per-shard runtime registries
                            (op.* histograms folded over shards),
              "trace":      ring-buffer occupancy,
              "epoch", "n_shards", "executor"
            }

        ``include_shards=False`` skips the shard broadcast (one scatter
        round-trip) for cheap periodic snapshots.
        """
        self._check_open()
        with self._epoch_lock.read():
            return self._metrics_report_locked(include_shards)

    def _metrics_report_locked(self, include_shards: bool) -> dict:
        report: dict = {
            "summary": self.stats.summary(),
            "histograms": self.stats.histograms(),
            "epoch": self.manager.epoch,
            "n_shards": self.manager.n_shards,
            "executor": self.executor_name,
            "trace": {
                "buffered_spans": len(self.tracer),
                "recorded_spans": self.tracer.recorded,
            },
        }
        report["store"] = self._store.stats()
        report["transport"] = self._executor.transport_stats()
        try:
            report["replication"] = self._executor.replication_stats()
        except Exception as exc:
            report["replication_error"] = f"{type(exc).__name__}: {exc}"
        if self._watchdog is not None:
            report["watchdog"] = self._watchdog.stats()
        if include_shards:
            try:
                merged = MetricsRegistry()
                for snapshot in self._executor.broadcast("metrics", {}):
                    merged.merge_snapshot(snapshot)
                report["shards"] = merged.snapshot()
            except Exception as exc:
                # A broken executor must stay visible in the report, not
                # take the whole snapshot down with it.
                report["shards_error"] = f"{type(exc).__name__}: {exc}"
        return report

    def trace_export(self, trace_id: str | None = None) -> str:
        """The buffered spans as JSONL (optionally for one trace id)."""
        return self.tracer.export_jsonl(trace_id)

    # ---------------------------------------------------------------- lifecycle
    def describe(self) -> dict:
        """Shard layout and counters (CLI ``repro serve`` banner)."""
        with self._epoch_lock.read():
            return self._describe_locked()

    def _describe_locked(self) -> dict:
        info = {
            "n_shards": self.manager.n_shards,
            "executor": self.executor_name,
            "store": self.store_name,
            "index": self.index,
            "epoch": self.manager.epoch,
            "trajectories": self.manager.n_trajectories,
            "points": self.manager.total_points,
            "compaction": self.compaction.spec(),
            "replicas": self.replicas,
        }
        try:
            info["replication"] = self._executor.replication_stats()
        except Exception as exc:
            info["replication_error"] = f"{type(exc).__name__}: {exc}"
        try:
            info["shards"] = self._executor.broadcast("info", {})
        except Exception as exc:
            # Layout is still useful when workers are gone, but a broken
            # executor must stay visible, not be silently omitted.
            info["shards_error"] = f"{type(exc).__name__}: {exc}"
        return info

    @property
    def watchdog(self) -> "Watchdog | None":
        """The background liveness monitor (None unless enabled)."""
        return self._watchdog

    def database(self) -> TrajectoryDatabase:
        """The served database materialized in global-id order (reference)."""
        return self.manager.database()

    def clear_cache(self, deep: bool = False) -> None:
        """Drop the request LRU; ``deep`` also clears every shard engine memo."""
        self._cache.clear()
        if deep:
            with self._epoch_lock.read():
                self._executor.broadcast("clear_cache", {})

    def close(self) -> None:
        """Release executor workers, then the snapshot store (idempotent).

        Order matters: the store must outlive the executor so that shard
        runtimes can detach their mapped segments before the store
        unlinks them. The store created every segment there is, so its
        close reclaims them all, even after killed workers.
        """
        if self._closed:
            return
        # Stop the watchdog before taking the write lock: its restart
        # phase holds the read side, and a poll firing mid-teardown would
        # try to resurrect workers the executor is stopping.
        if self._watchdog is not None:
            self._watchdog.stop()
        # Drain in-flight readers before tearing the executor down: the
        # write side excludes every concurrent execute()/metrics call.
        with self._epoch_lock.write():
            if self._closed:
                return
            self._closed = True
            try:
                self._executor.close()
            finally:
                self._store.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = [
    "QueryService",
    "ServiceStats",
    "EXECUTORS",
]
