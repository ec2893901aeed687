""":class:`RemoteClient` — a synchronous facade over the socket front-end.

The wire code lives exactly once, in
:class:`repro.client.aio.AsyncRemoteClient`; this class runs one on a
private event-loop thread and blocks on each call with
``asyncio.run_coroutine_threadsafe``. ``execute``, ``ingest``,
``describe`` and ``metrics`` run the async core's coroutines of the same
name, so this class builds no frames of its own; it only mints the trace
id it passes, keeping ``last_trace_id`` per facade. Requests carry a
monotonically increasing ``id`` that the server echoes; a mismatched
echo raises — the client *proves* nothing was dropped or reordered
rather than assuming it. Server-side failures arrive as structured error
frames and re-raise here as
:class:`~repro.service.requests.RequestError` (the request was malformed
or unsupported), :class:`OverloadedError` (the server's admission
control refused it and the retry budget ran out), or
:class:`ServerError` (the server failed executing it). The client is
thread-safe: ``run_coroutine_threadsafe`` serializes nothing but is safe
from any thread, and the async core keys every reply by id.

The facade's pipeline depth is its caller's concurrency: each blocking
call occupies one slot of the async core's ``max_inflight`` window, so
one thread gets the historical strict request/reply behaviour while many
threads sharing one client genuinely pipeline over its pooled
connections.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Iterable

from repro.client.aio import AsyncRemoteClient, OverloadedError, ServerError
from repro.client.base import Client, IngestResult
from repro.data.trajectory import Trajectory
from repro.obs.tracing import mint_trace_id
from repro.service.requests import Response

__all__ = ["RemoteClient", "ServerError", "OverloadedError"]


class RemoteClient(Client):
    """Typed query client over a ``repro serve --listen`` socket server.

    Parameters
    ----------
    host, port:
        The server's listen address (see
        :func:`repro.service.server.serve_in_thread` and the
        ``repro serve --listen`` CLI).
    timeout:
        Seconds to wait for connect and for each reply.
    auth_token:
        Handshake token for servers started with ``--auth-token``.
    connections, max_inflight, retries:
        Forwarded to the async core (useful when many threads share one
        client); the single-threaded defaults reproduce the historical
        one-connection strict request/reply behaviour.
    """

    transport = "remote"

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 60.0,
        auth_token: str | None = None,
        connections: int = 1,
        max_inflight: int = 32,
        retries: int = 2,
    ) -> None:
        self._closed = False
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-client", daemon=True
        )
        self._thread.start()
        try:
            self._aclient: AsyncRemoteClient = self._call(
                AsyncRemoteClient.open(
                    host,
                    port,
                    timeout=timeout,
                    auth_token=auth_token,
                    connections=connections,
                    max_inflight=max_inflight,
                    retries=retries,
                )
            )
        except BaseException:
            self._closed = True
            self._stop_loop()
            raise
        #: Serving metadata from the handshake (shard layout, epoch, ...).
        self.server_info: dict = self._aclient.server_info

    @classmethod
    def connect(cls, address: str, **kwargs) -> "RemoteClient":
        """Connect to a ``HOST:PORT`` string (the CLI's ``--connect`` form)."""
        host, _, port = address.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(f"expected HOST:PORT, got {address!r}")
        return cls(host, int(port), **kwargs)

    # ------------------------------------------------------------ loop plumbing
    def _call(self, coro):
        """Run one coroutine on the client loop, blocking for its result."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    def _stop_loop(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        if not self._thread.is_alive():
            self._loop.close()

    def _run(self, method, *args, **kwargs):
        """Run one async-core method on the client loop (refused once closed)."""
        if self._closed:
            raise RuntimeError("client is closed")
        return self._call(method(*args, **kwargs))

    def _round_trip(self, frame: dict) -> dict:
        """Send one raw frame, return the matching reply body (id-checked).

        Ingest frames keep their no-retry-on-reset contract; everything
        else is idempotent (see :mod:`repro.client.aio`).
        """
        idempotent = frame.get("type") != "ingest"
        return self._run(self._aclient._round_trip, frame, idempotent=idempotent)

    # ---------------------------------------------------------------- protocol
    def execute(self, request, *, trace_id: str | None = None) -> Response:
        """Serve one typed request over the socket.

        A trace id (minted here unless the caller supplies one) travels in
        the frame's ``"trace"`` key; the server propagates it through its
        span buffer, so this exact id appears verbatim in the server-side
        ``QueryService.trace_export()`` output.
        """
        self.last_trace_id = trace_id if trace_id is not None else mint_trace_id()
        return self._run(self._aclient.execute, request, trace_id=self.last_trace_id)

    def ingest(
        self,
        trajectories: Iterable[Trajectory],
        *,
        trace_id: str | None = None,
    ) -> IngestResult:
        self.last_trace_id = trace_id if trace_id is not None else mint_trace_id()
        return self._run(
            self._aclient.ingest, trajectories, trace_id=self.last_trace_id
        )

    def describe(self) -> dict:
        return {**self._run(self._aclient.describe), "transport": self.transport}

    def metrics(self) -> dict:
        """The live server's metrics report (the wire ``metrics`` op)."""
        return self._run(self._aclient.metrics)

    def close(self) -> None:
        """Send best-effort goodbyes and stop the loop thread (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._call(self._aclient.close())
        except Exception:
            pass
        finally:
            self._stop_loop()
