""":class:`LocalClient` — the Client protocol over one in-process engine.

The reference transport: requests dispatch straight onto the database's
shared :class:`~repro.queries.engine.QueryEngine` (so repeated scoring of
the same database state hits the engine memo that the training and
evaluation paths already share). Semantics mirror the sharded service
exactly — the same :class:`~repro.service.requests.ResultCache` serving
loop (``(cache key, epoch)`` LRU, spans, stats), the same canonical
payload forms, the same response metadata — which is what makes the
three-transport parity property testable bit for bit.

Ingest materializes ``db.extended(batch)`` and bumps the epoch: the
documented reference behavior that the sharded service's streaming path
is property-tested against.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.client.base import Client, IngestResult
from repro.data.database import TrajectoryDatabase
from repro.data.trajectory import Trajectory
from repro.obs.tracing import Tracer, mint_trace_id
from repro.queries.engine import QueryEngine
from repro.queries.knn import knn_query_batch
from repro.service.requests import ResultCache, Response
from repro.service.service import ServiceStats


class LocalClient(Client):
    """Typed query client over a single in-process database.

    Parameters
    ----------
    db:
        The served database, queried through its shared engine. Results
        are memoized the service's way: a
        :data:`~repro.service.requests.CACHE_SIZE`-entry LRU keyed on
        ``(request cache key, epoch)``.
    """

    transport = "local"

    def __init__(self, db: TrajectoryDatabase) -> None:
        self._db = db
        self._engine = QueryEngine.for_database(db)
        self._epoch = 0
        self.stats = ServiceStats()
        self.tracer = Tracer()
        self._cache = ResultCache(self.stats, self.tracer)
        self._closed = False

    # ---------------------------------------------------------------- protocol
    @property
    def database(self) -> TrajectoryDatabase:
        """The currently served database state (grows with ingest)."""
        return self._db

    @property
    def epoch(self) -> int:
        return self._epoch

    def execute(self, request, *, trace_id: str | None = None) -> Response:
        if self._closed:
            raise RuntimeError("client is closed")
        if trace_id is None:
            trace_id = mint_trace_id()
        self.last_trace_id = trace_id
        # QueryService's serving loop with the engine as the dispatch, so
        # cache/epoch/stats semantics cannot drift between transports.
        lookup = self._cache.lookup(request, self._epoch, trace_id)
        return self._cache.serve(
            request,
            lookup,
            epoch=self._epoch,
            n_shards=1,
            dispatch=self._dispatch,
            trace_id=trace_id,
        )

    def metrics(self) -> dict:
        """Summary + latency histograms of this client's serving loop
        (shape-compatible with the sharded service's report)."""
        return {
            "summary": self.stats.summary(),
            "histograms": self.stats.histograms(),
            "epoch": self._epoch,
            "n_shards": 1,
            "executor": "local",
            "trace": {
                "buffered_spans": len(self.tracer),
                "recorded_spans": self.tracer.recorded,
            },
        }

    def _dispatch(self, request):
        """Run one request on the engine, in canonical payload form."""
        kind = request.kind
        if kind == "range":
            results = self._engine.evaluate(list(request.boxes))
            return tuple(frozenset(s) for s in results)
        if kind == "count":
            counts = np.asarray(self._engine.count(request.boxes), dtype=np.int64)
            counts.setflags(write=False)
            return counts
        if kind == "histogram":
            hist = np.asarray(
                self._engine.histogram(
                    grid=request.grid, box=request.box, normalize=request.normalize
                ),
                dtype=float,
            )
            hist.setflags(write=False)
            return hist
        if kind == "knn":
            pairs = knn_query_batch(
                self._db,
                list(request.queries),
                request.k,
                None if request.time_windows is None else list(request.time_windows),
                request.measure,
                eps=request.eps,
                engine=self._engine,
                return_pairs=True,
            )
            return tuple(tuple(tuple(p) for p in query_pairs) for query_pairs in pairs)
        if kind == "similarity":
            results = self._engine.similarity(
                list(request.queries),
                request.delta,
                None if request.time_windows is None else list(request.time_windows),
                n_checkpoints=request.n_checkpoints,
            )
            return tuple(frozenset(s) for s in results)
        raise ValueError(f"unknown request kind {kind!r}")

    def ingest(
        self, trajectories: Iterable[Trajectory], *, trace_id: str | None = None
    ) -> IngestResult:
        if self._closed:
            raise RuntimeError("client is closed")
        self.last_trace_id = trace_id if trace_id is not None else mint_trace_id()
        batch = list(trajectories)
        if not batch:
            return IngestResult(added=0, epoch=self._epoch)
        for t in batch:
            if not isinstance(t, Trajectory):
                raise TypeError(f"expected Trajectory, got {type(t).__name__}")
        self._db = self._db.extended(batch)
        self._engine = QueryEngine.for_database(self._db)
        self._epoch += 1
        self.stats.record_ingest(batch)
        return IngestResult(added=len(batch), epoch=self._epoch)

    def describe(self) -> dict:
        return {
            "transport": self.transport,
            "n_shards": 1,
            "executor": "local",
            "index": "grid",
            "epoch": self._epoch,
            "trajectories": len(self._db),
            "points": self._db.total_points,
            # The local transport has no storage engine to compact: it is
            # always exact (same key shape as the sharded describe()).
            "compaction": {"policy": "exact"},
            # One in-process engine == one replica (same key shape as the
            # replicated sharded describe()).
            "replicas": 1,
        }

    def close(self) -> None:
        self._closed = True
        self._cache.clear()
