"""The :class:`Client` protocol — one typed query surface, any transport.

A client answers the five query kinds of the wire schema
(:mod:`repro.service.requests`) and streams ingest batches. The three
implementations are interchangeable and property-tested bit-identical:

* :class:`~repro.client.local.LocalClient` — a
  :class:`~repro.queries.engine.QueryEngine` over one in-process database;
* :class:`~repro.client.service.ServiceClient` — a sharded
  :class:`~repro.service.service.QueryService` (serial or process
  executor);
* :class:`~repro.client.remote.RemoteClient` — a synchronous facade over
  the asyncio socket front-end (:mod:`repro.service.server`).

Subclasses implement :meth:`execute`, :meth:`ingest`, :meth:`describe`,
and :meth:`close`; the typed convenience methods (``range``, ``count``,
``histogram``, ``knn``, ``similarity``) are shared here and only build
the corresponding request dataclass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.data.trajectory import Trajectory
from repro.service.requests import (
    CountRequest,
    CountResponse,
    HistogramRequest,
    HistogramResponse,
    KnnRequest,
    KnnResponse,
    RangeRequest,
    RangeResponse,
    Response,
    SimilarityRequest,
    SimilarityResponse,
)


@dataclass(frozen=True)
class IngestResult:
    """Outcome of one streamed ingest batch."""

    #: Trajectories accepted into the served database.
    added: int
    #: The serving epoch after the batch (bumped once per non-empty batch).
    epoch: int


class Client:
    """Abstract typed query client; see the module docstring."""

    #: Transport name, for banners and benchmarks.
    transport = "abstract"

    #: Trace id of the most recent :meth:`execute` or :meth:`ingest` call.
    #: Every transport mints one per call (or forwards the caller's), so
    #: any response can be correlated with the serving side's exported
    #: spans.
    last_trace_id: str | None = None

    # ------------------------------------------------------------- core surface
    def execute(self, request, *, trace_id: str | None = None) -> Response:
        """Serve one typed request from :mod:`repro.service.requests`.

        ``trace_id`` propagates to the serving side's span buffer; when
        omitted the transport mints one (see :attr:`last_trace_id`).
        """
        raise NotImplementedError

    def metrics(self) -> dict:
        """The serving side's metrics report (summary + latency histograms).

        Shape matches :meth:`repro.service.service.QueryService.metrics_report`;
        over the socket transport this is the wire ``metrics`` op.
        """
        raise NotImplementedError

    def ingest(
        self, trajectories: Iterable[Trajectory], *, trace_id: str | None = None
    ) -> IngestResult:
        """Stream a trajectory batch into the served database.

        ``trace_id`` propagates like :meth:`execute`'s.
        """
        raise NotImplementedError

    def describe(self) -> dict:
        """Serving metadata; always includes ``trajectories``, ``points``,
        ``n_shards``, and ``epoch``."""
        raise NotImplementedError

    def close(self) -> None:
        """Release transport resources (idempotent)."""
        raise NotImplementedError

    # ------------------------------------------------------------- conveniences
    def range(self, workload) -> RangeResponse:
        """Evaluate a range workload (a workload object or box iterable)."""
        return self.execute(RangeRequest.from_workload(workload))

    def count(self, boxes) -> CountResponse:
        """Per-box point counts."""
        return self.execute(CountRequest.from_workload(boxes))

    def histogram(
        self, grid: int = 32, box=None, normalize: bool = False
    ) -> HistogramResponse:
        """The spatial density heatmap (served extent when ``box`` is None)."""
        return self.execute(HistogramRequest(grid, box, normalize))

    def knn(
        self,
        queries,
        k: int,
        time_windows=None,
        measure="edr",
        eps: float = 2000.0,
    ) -> KnnResponse:
        """k nearest trajectories per query trajectory."""
        return self.execute(
            KnnRequest(
                tuple(queries),
                k,
                None if time_windows is None else tuple(time_windows),
                measure,
                eps,
            )
        )

    def similarity(
        self, queries, delta: float, time_windows=None, n_checkpoints: int = 32
    ) -> SimilarityResponse:
        """Synchronized-distance threshold matches per query trajectory."""
        return self.execute(
            SimilarityRequest(
                tuple(queries),
                delta,
                None if time_windows is None else tuple(time_windows),
                n_checkpoints,
            )
        )

    # --------------------------------------------------------------- lifecycle
    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
