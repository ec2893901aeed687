""":class:`ServiceClient` — the Client protocol over a sharded QueryService.

A thin adapter: requests go straight to
:meth:`~repro.service.service.QueryService.execute` (caching, stats, and
the exact shard merges live in the service), ingest routes through the
manager's transactional streaming path. The client can either wrap an
existing service (``ServiceClient(service)``) or own one built from a
database (``ServiceClient.for_database(db, n_shards=4, ...)``), in which
case ``close()`` also releases the service's executor workers.
"""

from __future__ import annotations

from typing import Iterable

from repro.client.base import Client, IngestResult
from repro.data.database import TrajectoryDatabase
from repro.data.trajectory import Trajectory
from repro.obs.tracing import mint_trace_id
from repro.service.requests import Response
from repro.service.service import QueryService


class ServiceClient(Client):
    """Typed query client over a (possibly multi-process) sharded service."""

    transport = "service"

    def __init__(self, service: QueryService, *, own_service: bool = False) -> None:
        self.service = service
        self._own_service = bool(own_service)

    @classmethod
    def for_database(cls, db: TrajectoryDatabase, **service_kwargs) -> "ServiceClient":
        """Build (and own) a :class:`QueryService` over ``db``."""
        return cls(QueryService(db, **service_kwargs), own_service=True)

    # ---------------------------------------------------------------- protocol
    @property
    def epoch(self) -> int:
        return self.service.manager.epoch

    def execute(self, request, *, trace_id: str | None = None) -> Response:
        self.last_trace_id = trace_id if trace_id is not None else mint_trace_id()
        return self.service.execute(request, trace_id=self.last_trace_id)

    def ingest(
        self, trajectories: Iterable[Trajectory], *, trace_id: str | None = None
    ) -> IngestResult:
        self.last_trace_id = trace_id if trace_id is not None else mint_trace_id()
        added = self.service.ingest(trajectories, trace_id=self.last_trace_id)
        return IngestResult(added=added, epoch=self.service.manager.epoch)

    def metrics(self) -> dict:
        return self.service.metrics_report()

    def describe(self) -> dict:
        return {"transport": self.transport, **self.service.describe()}

    def close(self) -> None:
        if self._own_service:
            self.service.close()
