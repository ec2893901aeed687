""":class:`AsyncRemoteClient` — the pipelined asyncio socket client.

This module is the single home of the client-side wire code: the
synchronous :class:`~repro.client.remote.RemoteClient` is a thin facade
that runs one of these on a private event-loop thread, so the framing,
handshake, id bookkeeping, and error mapping exist exactly once.

Protocol position (server side documented in
:mod:`repro.service.server`):

* **Pipelining** — requests carry a client-unique ``id`` and the server
  answers out of order, so the client keeps a per-connection in-flight
  table ``{id: Future}`` and resolves each future from the echoed id.
  ``max_inflight`` bounds the total outstanding requests (an
  :class:`asyncio.Semaphore`), which keeps a fast producer from running
  arbitrarily far ahead of the server's admission window.
* **Pooling** — up to ``connections`` TCP connections, opened lazily;
  each round trip picks the live connection with the fewest in-flight
  requests.
* **Retry** — connect failures and mid-request resets are retried with
  exponential backoff for **idempotent** operations only (query,
  describe, metrics). Ingest is *never* retried after a reset: the
  server may have applied the batch before the connection died, and
  replaying it would double-ingest. A typed ``Overloaded`` refusal, by
  contrast, is issued *before* execution, so it is retried for every
  operation — including ingest — up to the retry budget, after which it
  surfaces as :class:`OverloadedError`.
* **Auth** — an ``auth_token`` travels in the hello; a server-side
  ``AuthError`` raises here as :class:`ServerError` (never retried).
"""

from __future__ import annotations

import asyncio
import json
from typing import Iterable

from repro.client.base import IngestResult
from repro.data.trajectory import Trajectory
from repro.obs.tracing import mint_trace_id
from repro.service.requests import (
    CountRequest,
    HistogramRequest,
    KnnRequest,
    PROTOCOL_VERSION,
    RangeRequest,
    RequestError,
    Response,
    SimilarityRequest,
    request_to_json,
    response_from_json,
    trajectory_to_json,
)
from repro.service.server import FRAME_HEADER, MAX_FRAME_BYTES, encode_frame


class ServerError(RuntimeError):
    """The server answered with an error frame for a well-formed request."""


class OverloadedError(ServerError):
    """The server refused the frame at admission (``max_inflight`` hit).

    The request never executed, so retrying it is safe for every
    operation; this surfaces only after the client's retry budget is
    spent."""


def _map_error(error: dict) -> Exception:
    """One error frame body -> the exception the caller sees."""
    message = error.get("message", "unknown server error")
    etype = error.get("type", "Error")
    if etype == "RequestError":
        return RequestError(message)
    if etype == "Overloaded":
        return OverloadedError(message)
    return ServerError(f"{etype}: {message}")


async def _read_frame(reader: asyncio.StreamReader) -> dict:
    header = await reader.readexactly(FRAME_HEADER.size)
    (length,) = FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ServerError(f"oversized frame announced ({length} bytes)")
    return json.loads(await reader.readexactly(length))


class _Connection:
    """One live TCP connection: streams, in-flight table, reader task."""

    def __init__(self, reader, writer, server_info: dict) -> None:
        self.reader = reader
        self.writer = writer
        self.server_info = server_info
        #: Futures awaiting the response frame with the matching id.
        self.inflight: dict[int, asyncio.Future] = {}
        #: Serializes frame writes: two coroutine sends interleaving their
        #: write()+drain() would corrupt the stream mid-frame.
        self.send_lock = asyncio.Lock()
        self.reader_task: asyncio.Task | None = None
        self.bye_received: asyncio.Future | None = None
        self.dead = False

    def fail(self, exc: Exception) -> None:
        """Mark dead and deliver ``exc`` to every in-flight future."""
        self.dead = True
        for fut in self.inflight.values():
            if not fut.done():
                fut.set_exception(exc)
        self.inflight.clear()
        if self.bye_received is not None and not self.bye_received.done():
            self.bye_received.set_exception(exc)


class AsyncRemoteClient:
    """Pipelined asyncio client for a ``repro serve --listen`` server.

    Construct with :meth:`open` (or ``async with AsyncRemoteClient.open(...)
    as client``); all operations are coroutines. Responses are matched by
    request id, so many :meth:`execute` calls may be in flight at once::

        client = await AsyncRemoteClient.open(host, port, max_inflight=16)
        answers = await asyncio.gather(*(client.execute(r) for r in requests))
        await client.close()

    Parameters
    ----------
    connections:
        TCP connection pool size (opened lazily, least-loaded pick).
    max_inflight:
        Client-wide cap on outstanding requests (the pipelining window).
    timeout:
        Seconds to wait for connect and for each reply.
    auth_token:
        Forwarded in the handshake for servers started with one.
    retries, retry_backoff:
        Transient-failure budget: up to ``retries`` extra attempts with
        ``retry_backoff * 2**attempt`` sleeps between them.
    trace:
        When ``False``, :meth:`execute`/:meth:`ingest` stop minting a
        trace id per request (an explicit ``trace_id=`` still travels).
        Untraced frames skip the server's span recording — the right
        setting for closed-loop throughput measurement, where a span per
        request is pure overhead.
    """

    transport = "remote-async"

    def __init__(
        self,
        host: str,
        port: int,
        *,
        connections: int = 1,
        max_inflight: int = 32,
        timeout: float = 60.0,
        auth_token: str | None = None,
        retries: int = 2,
        retry_backoff: float = 0.05,
        trace: bool = True,
    ) -> None:
        self._host = host
        self._port = port
        self._trace = trace
        self._pool_size = max(1, int(connections))
        self._timeout = timeout
        self._auth_token = auth_token
        self._retries = max(0, int(retries))
        self._retry_backoff = retry_backoff
        self._sema = asyncio.Semaphore(max(1, int(max_inflight)))
        self._conns: list[_Connection] = []
        self._next_id = 0
        self._closed = False
        self.last_trace_id: str | None = None
        #: Serving metadata from the most recent handshake.
        self.server_info: dict = {}
        #: Idempotent requests replayed after a mid-request connection
        #: reset — the signature of a server-side failover/restart window
        #: (a replicated server killing and replacing a worker drops
        #: connections exactly like a transient overload sheds them, so
        #: both are retried the same way). Ingest never increments this:
        #: a reset mid-ingest stays fatal, the batch may have applied.
        self.failover_retries = 0

    @classmethod
    async def open(cls, host: str, port: int, **kwargs) -> "AsyncRemoteClient":
        """Connect (first pool connection + handshake) and return the client."""
        client = cls(host, port, **kwargs)
        try:
            await client._ensure_connection()
        except BaseException:
            await client.close()
            raise
        return client

    # -------------------------------------------------------------- connections
    async def _connect_one(self) -> _Connection:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(self._host, self._port), self._timeout
        )
        try:
            hello: dict = {"type": "hello", "version": PROTOCOL_VERSION}
            if self._auth_token is not None:
                hello["token"] = self._auth_token
            writer.write(encode_frame(hello))
            await writer.drain()
            reply = await asyncio.wait_for(_read_frame(reader), self._timeout)
        except BaseException:
            writer.close()
            raise
        if reply.get("type") == "error":
            writer.close()
            raise _map_error(reply.get("error", {}))
        if reply.get("type") != "hello" or reply.get("version") != PROTOCOL_VERSION:
            writer.close()
            raise ServerError(f"unexpected handshake reply: {reply!r}")
        conn = _Connection(reader, writer, reply.get("server", {}))
        conn.reader_task = asyncio.get_running_loop().create_task(
            self._reader_loop(conn)
        )
        self.server_info = conn.server_info
        return conn

    async def _get_connection(self) -> _Connection:
        self._conns = [c for c in self._conns if not c.dead]
        if len(self._conns) < self._pool_size:
            conn = await self._connect_one()
            self._conns.append(conn)
            return conn
        return min(self._conns, key=lambda c: len(c.inflight))

    async def _ensure_connection(self) -> None:
        attempt = 0
        while True:
            try:
                await self._get_connection()
                return
            except (ConnectionError, OSError, asyncio.TimeoutError):
                if attempt >= self._retries:
                    raise
                await asyncio.sleep(self._retry_backoff * (2**attempt))
                attempt += 1

    async def _reader_loop(self, conn: _Connection) -> None:
        """Demultiplex response frames to their futures by echoed id."""
        try:
            while True:
                frame = await _read_frame(conn.reader)
                ftype = frame.get("type")
                if ftype == "bye":
                    if conn.bye_received is not None and not conn.bye_received.done():
                        conn.bye_received.set_result(True)
                    conn.fail(ConnectionError("connection said goodbye"))
                    return
                rid = frame.get("id")
                fut = conn.inflight.pop(rid, None) if rid is not None else None
                if fut is not None:
                    if not fut.done():
                        fut.set_result(frame)
                    continue
                if ftype == "error" and rid is None:
                    # A connection-level error (framing violation verdict):
                    # the server closes after sending it, so every pending
                    # request on this connection fails with the mapped error.
                    conn.fail(_map_error(frame.get("error", {})))
                    return
                # An unmatched response (e.g. a reply landing after its
                # waiter timed out): drop it — the waiter already failed.
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            conn.fail(ConnectionError("server closed the connection"))
        except asyncio.CancelledError:
            conn.fail(ConnectionError("client is closing"))
            raise
        except Exception as exc:  # defensive: never die silently
            conn.fail(ServerError(f"client reader failed: {exc}"))

    # ----------------------------------------------------------------- framing
    async def _round_trip(self, frame: dict, *, idempotent: bool) -> dict:
        """Send one frame, await the id-matched reply body.

        ``idempotent=False`` (ingest) disables the reset-retry path; the
        pre-execution ``Overloaded`` refusal is retried for every
        operation.
        """
        if self._closed:
            raise RuntimeError("client is closed")
        async with self._sema:
            attempt = 0
            while True:
                try:
                    conn = await self._get_connection()
                except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
                    if idempotent and attempt < self._retries:
                        await asyncio.sleep(self._retry_backoff * (2**attempt))
                        attempt += 1
                        continue
                    raise ConnectionError(f"connect failed: {exc}") from exc
                rid = self._next_id
                self._next_id += 1
                # Encode before registering the reply future: an oversized
                # frame raises here and must leave no in-flight entry behind.
                data = encode_frame({**frame, "id": rid})
                fut = asyncio.get_running_loop().create_future()
                conn.inflight[rid] = fut
                try:
                    async with conn.send_lock:
                        conn.writer.write(data)
                        await conn.writer.drain()
                    reply = await asyncio.wait_for(fut, self._timeout)
                except asyncio.TimeoutError:
                    # The reply may still arrive; this connection's stream
                    # state is no longer trustworthy for matching.
                    conn.inflight.pop(rid, None)
                    conn.fail(ConnectionError("timed out awaiting a reply"))
                    raise TimeoutError(
                        f"no reply to request {rid} within {self._timeout}s"
                    ) from None
                except (ConnectionError, OSError) as exc:
                    conn.inflight.pop(rid, None)
                    conn.dead = True
                    if idempotent and attempt < self._retries:
                        # A reset mid-request is what a server-side
                        # failover/restart window looks like from here;
                        # treat it exactly like an Overloaded refusal
                        # (same backoff, same budget) — but only for
                        # idempotent operations, which cannot double-apply.
                        self.failover_retries += 1
                        await asyncio.sleep(self._retry_backoff * (2**attempt))
                        attempt += 1
                        continue
                    raise
                if reply.get("type") == "error":
                    if reply.get("id") not in (None, rid):
                        raise ServerError(
                            f"response out of order: sent id {rid}, got {reply!r}"
                        )
                    exc = _map_error(reply.get("error", {}))
                    if isinstance(exc, OverloadedError) and attempt < self._retries:
                        # Refused before execution: safe to replay even for
                        # ingest. Back off to let the server drain.
                        await asyncio.sleep(self._retry_backoff * (2**attempt))
                        attempt += 1
                        continue
                    raise exc
                if reply.get("type") != "response" or reply.get("id") != rid:
                    raise ServerError(
                        f"response out of order: sent id {rid}, got {reply!r}"
                    )
                return reply["response"]

    # ---------------------------------------------------------------- protocol
    async def execute(self, request, *, trace_id: str | None = None) -> Response:
        """Serve one typed request (idempotent: retried on reset)."""
        if trace_id is None and self._trace:
            trace_id = mint_trace_id()
        self.last_trace_id = trace_id
        frame = {"type": "request", "request": request_to_json(request)}
        if trace_id is not None:
            frame["trace"] = trace_id
        body = await self._round_trip(frame, idempotent=True)
        return response_from_json(body)

    async def ingest(
        self,
        trajectories: Iterable[Trajectory],
        *,
        trace_id: str | None = None,
    ) -> IngestResult:
        """Stream a batch in (never retried after a reset — see module doc)."""
        if trace_id is None and self._trace:
            trace_id = mint_trace_id()
        self.last_trace_id = trace_id
        frame = {
            "type": "ingest",
            "trajectories": [trajectory_to_json(t) for t in trajectories],
        }
        if trace_id is not None:
            frame["trace"] = trace_id
        body = await self._round_trip(frame, idempotent=False)
        return IngestResult(added=int(body["added"]), epoch=int(body["epoch"]))

    async def describe(self) -> dict:
        body = await self._round_trip({"type": "describe"}, idempotent=True)
        return {"transport": self.transport, **body["info"]}

    async def metrics(self) -> dict:
        """The live server's metrics report (the wire ``metrics`` op)."""
        body = await self._round_trip({"type": "metrics"}, idempotent=True)
        return body["metrics"]

    # ------------------------------------------------------------- conveniences
    async def range(self, workload):
        return await self.execute(RangeRequest.from_workload(workload))

    async def count(self, boxes):
        return await self.execute(CountRequest.from_workload(boxes))

    async def histogram(self, grid: int = 32, box=None, normalize: bool = False):
        return await self.execute(HistogramRequest(grid, box, normalize))

    async def knn(self, queries, k, time_windows=None, measure="edr", eps=2000.0):
        return await self.execute(
            KnnRequest(
                tuple(queries),
                k,
                None if time_windows is None else tuple(time_windows),
                measure,
                eps,
            )
        )

    async def similarity(self, queries, delta, time_windows=None, n_checkpoints=32):
        return await self.execute(
            SimilarityRequest(
                tuple(queries),
                delta,
                None if time_windows is None else tuple(time_windows),
                n_checkpoints,
            )
        )

    # --------------------------------------------------------------- lifecycle
    async def close(self) -> None:
        """Best-effort goodbyes, then tear every connection down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            if conn.dead:
                continue
            try:
                conn.bye_received = asyncio.get_running_loop().create_future()
                async with conn.send_lock:
                    conn.writer.write(encode_frame({"type": "bye"}))
                    await conn.writer.drain()
                # The server drains this connection's in-flight work before
                # acking, so a clean close never strands a response.
                await asyncio.wait_for(conn.bye_received, min(self._timeout, 10.0))
            except (ConnectionError, OSError, asyncio.TimeoutError, ServerError):
                pass
        for conn in self._conns:
            if conn.reader_task is not None:
                conn.reader_task.cancel()
                try:
                    await conn.reader_task
                except (asyncio.CancelledError, Exception):
                    pass
            conn.writer.close()
            try:
                await conn.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._conns.clear()

    async def __aenter__(self) -> "AsyncRemoteClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()


__all__ = ["AsyncRemoteClient", "ServerError", "OverloadedError"]
