"""Asyncio TCP front-end for the sharded query service.

Wire protocol (spoken by :class:`repro.client.RemoteClient` /
:class:`repro.client.AsyncRemoteClient`):

* **Framing** — every message is one length-prefixed JSON frame: a 4-byte
  big-endian unsigned length followed by that many bytes of UTF-8 JSON.
  Frames above :data:`MAX_FRAME_BYTES` are refused (the connection closes;
  an unbounded length prefix would let one client exhaust memory). Array
  payloads inside a frame (trajectory points, count vectors, histogram
  rasters) are base64 strings of their little-endian bytes, so the JSON
  layer only ever parses one string per array.
* **Handshake** — the client's first frame must be
  ``{"type": "hello", "version": PROTOCOL_VERSION}``; the server answers
  with its own hello carrying serving metadata. A version mismatch (a
  version-1 peer still sending nested-list arrays, say) is answered with a
  structured error frame and the connection closes — no query traffic
  crosses an incompatible schema. A server started with an
  ``auth_token`` additionally requires ``"token": <token>`` in the
  client hello; a missing or wrong token is answered with an
  ``AuthError`` error frame and the connection closes.
* **Requests** — ``{"type": "request", "id": n, "request": {...}}`` with
  the request body in the canonical wire schema
  (:mod:`repro.service.requests`). The reply echoes ``id``
  (``{"type": "response", "id": n, "response": {...}}``). **Responses are
  matched by id, not by order**: independent requests execute on a worker
  pool and complete out of order, so a pipelining client must key its
  in-flight table on the echoed id (the sync client pipeline depth is 1,
  which degenerates to the old in-order behaviour). ``{"type": "ingest",
  "id": n, "trajectories": [...]}`` streams a batch in; ``{"type":
  "describe"}`` returns serving metadata; ``{"type": "bye"}`` closes
  cleanly after in-flight work drains.
* **Errors** — malformed frames and invalid requests raise
  :class:`~repro.service.requests.RequestError` *at decode time* and are
  answered with ``{"type": "error", "id": n, "error": {"type", "message"}}``
  — the connection survives, and one client's garbage never disturbs
  another's stream.
* **Backpressure** — the server admits at most ``max_inflight`` decoded
  frames into the worker pool at once. A frame arriving above the bound
  is answered *immediately* with a typed ``{"error": {"type":
  "Overloaded"}}`` frame — it never executes, so retrying it is safe for
  every operation including ingest. A request the result cache already
  holds is answered before admission (see below): it is never counted in
  flight and never refused.

Concurrency: each connection is one asyncio task reading frames, and
every frame takes one path. One decode step on the loop thread turns the
frame into either a cache hit or an admitted job ``(fn, args, body_of)``:
a query request is first probed against the service's result cache
(:meth:`QueryService.probe`, which never waits on the epoch lock), and a
hit needs no admission slot and no worker-thread hop. Every other frame —
a miss, a probe that found a writer holding or awaiting the epoch lock,
ingest, describe, metrics — is admitted and becomes its own loop task
that runs ``fn(*args)`` on a sized worker pool (``workers`` threads), so
independent requests from one pipelined connection — or from many
connections — run concurrently. Queries and ingests run there through
one wrapper that first records how long the frame queued since decode.
Hits and finished jobs are answered by one response writer, which turns
an unencodable result into an error frame.
Correctness under that pool lives in the service layer: queries share the
epoch lock's read side, ingest takes its write side (see
:class:`~repro.service._sync.RWLock`). Writes of completed responses are
serialized per connection by an :class:`asyncio.Lock` — interleaving two
multi-``write()`` frame sends on one socket would corrupt the stream.

Shutdown is graceful: :meth:`QueryServer.stop` stops accepting, cancels
the open connection handlers, drains the worker pool, and wakes
:meth:`QueryServer.serve_forever`. :func:`serve_in_thread` packages all
of that for tests, benchmarks, and examples that need a loopback server
next to synchronous client code.
"""

from __future__ import annotations

import asyncio
import functools
import hmac
import json
import os
import struct
import threading
import time

from repro.obs.metrics import MetricsRegistry
from repro.service.requests import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    RequestError,
    Response,
    request_from_json,
    response_to_json,
    trajectory_from_json,
)

#: Length-prefix header: 4-byte big-endian unsigned frame length.
FRAME_HEADER = struct.Struct(">I")


def encode_frame(obj) -> bytes:
    """One wire frame: length prefix + compact JSON."""
    data = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {len(data)} bytes exceeds MAX_FRAME_BYTES")
    return FRAME_HEADER.pack(len(data)) + data


def default_workers() -> int:
    """Default worker-pool size: the machine's cores, capped at 8."""
    return max(1, min(8, os.cpu_count() or 4))


class _ConnectionClosed(Exception):
    """Internal: the peer went away (clean EOF or mid-frame cut)."""


class _Overloaded(Exception):
    """Internal: admission control refused a frame (maps to the typed
    ``Overloaded`` error frame; the request never executed)."""


class _AuthFailed(Exception):
    """Internal: a hello without the server's auth token (maps to the
    ``AuthError`` error frame, which clients must not retry)."""


def _body(kind: str, **fields) -> dict:
    """A non-query response body: ``{"v", "kind", **fields}``."""
    return {"v": PROTOCOL_VERSION, "kind": kind, **fields}


async def _read_frame_bytes(reader: asyncio.StreamReader) -> bytes:
    try:
        header = await reader.readexactly(FRAME_HEADER.size)
        (length,) = FRAME_HEADER.unpack(header)
        if length > MAX_FRAME_BYTES:
            raise RequestError(
                f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
            )
        return await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionResetError):
        raise _ConnectionClosed from None


class QueryServer:
    """Asyncio TCP server wrapping one :class:`QueryService`.

    The server borrows the service: callers that build a service for a
    server are expected to close it after :meth:`stop` (the CLI and
    :func:`serve_in_thread` do).

    Parameters
    ----------
    workers:
        Worker-pool threads executing admitted frames concurrently
        (default :func:`default_workers`). ``workers=1`` restores fully
        serialized execution.
    max_inflight:
        Bound on frames admitted to the worker pool and not yet answered,
        across all connections (default ``4 * workers``). Frames above
        the bound are refused with a typed ``Overloaded`` error before
        execution. Cache hits are answered on the event loop before
        admission, so they never count toward the bound and are never
        refused.
    auth_token:
        When set, client hellos must carry the same token.
    """

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int | None = None,
        max_inflight: int | None = None,
        auth_token: str | None = None,
    ) -> None:
        self._service = service
        self._host = host
        self._port = port
        self.workers = default_workers() if workers is None else max(1, int(workers))
        self.max_inflight = (
            4 * self.workers if max_inflight is None else max(1, int(max_inflight))
        )
        self._auth_token = auth_token
        self._server: asyncio.AbstractServer | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._stopped: asyncio.Event | None = None
        self._pool = None
        #: Decoded frames admitted to the pool and not yet answered
        #: (loop-thread only; admission control compares it to
        #: ``max_inflight``).
        self._inflight = 0
        #: Served/error/refused frame counters, for banners and CI smokes.
        #: ``loop_hits`` counts the served frames answered from the cache
        #: on the event loop, without the worker pool.
        self.frames_served = 0
        self.loop_hits = 0
        self.error_frames = 0
        self.overloaded_frames = 0
        #: Server-side registry surfaced as the ``server`` section of the
        #: wire ``metrics`` report: per-worker-thread execution histograms
        #: and per-op counts (self-locking; worker threads share it).
        self.registry = MetricsRegistry()
        self._worker_handles: dict[tuple[str, str], tuple] = {}

    # ---------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Bind and start accepting connections (idempotent-free: call once)."""
        import concurrent.futures

        # Execution runs off-loop on a sized pool: the event loop keeps
        # accepting connections and reading frames while queries compute,
        # and independent requests overlap. The QueryService's own locks
        # (epoch RWLock, cache lock, metrics registries, per-shard locks) carry
        # the correctness invariants under this pool.
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )

    @property
    def host(self) -> str:
        return self._server.sockets[0].getsockname()[0]

    @property
    def port(self) -> int:
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Block until :meth:`stop` completes."""
        await self._stopped.wait()

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, close connections, drain."""
        if self._stopped is None or self._stopped.is_set():
            return
        self._server.close()
        await self._server.wait_closed()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._pool.shutdown(wait=True)
        self._stopped.set()

    # -------------------------------------------------------------- connections
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        # Response frames complete out of order on one socket, and a frame
        # send is write()+drain(): without per-connection serialization two
        # completing requests could interleave their bytes mid-frame.
        write_lock = asyncio.Lock()
        pending: set[asyncio.Task] = set()
        try:
            if await self._handshake(reader, writer, write_lock):
                await self._serve_frames(reader, writer, write_lock, pending)
        except (_ConnectionClosed, ConnectionResetError, BrokenPipeError):
            pass  # peer vanished; nothing to answer
        finally:
            for t in pending:
                t.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # ------------------------------------------------------- worker-thread ops
    def _record_worker(self, op: str, exec_s: float) -> None:
        """Per-worker-thread execution histogram (``server`` metrics
        section); the instruments are memoized per ``(thread, op)``."""
        key = (threading.current_thread().name, op)
        handles = self._worker_handles.get(key)
        if handles is None:
            handles = self._worker_handles[key] = (
                self.registry.histogram(f"worker.{key[0]}.exec_s"),
                self.registry.counter(f"worker.{key[0]}.{op}"),
            )
        with self.registry.lock:
            handles[0].record(exec_s)
            handles[1].inc()

    def _on_worker(self, op: str, trace_id, submitted_at: float, call):
        """Run an admitted query or ingest (``call``) on a worker thread,
        first recording how long its frame queued since decode: the stats
        queue-wait histogram and, for a query, the ``queue`` span."""
        wait_s = time.perf_counter() - submitted_at
        self._service.stats.record_queue_wait(wait_s)
        if op != "ingest":
            self._service.tracer.record(trace_id, "queue", wait_s, kind=op)
        start = time.perf_counter()
        try:
            return call(trace_id=trace_id)
        finally:
            self._record_worker(op, time.perf_counter() - start)

    def _metrics_body(self) -> dict:
        report = self._service.metrics_report()
        server_section = self.registry.snapshot()
        server_section["workers"] = self.workers
        server_section["max_inflight"] = self.max_inflight
        server_section["frames_served"] = self.frames_served
        server_section["loop_hits"] = self.loop_hits
        server_section["error_frames"] = self.error_frames
        server_section["overloaded_frames"] = self.overloaded_frames
        report["server"] = server_section
        return report

    async def metrics_snapshot(self) -> dict:
        """The service's metrics report, produced on a worker thread.

        For in-loop callers (the CLI's ``--metrics-interval`` logger):
        the snapshot takes the epoch read lock like any query, so it never
        observes a half-applied ingest.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._pool, self._metrics_body)

    async def _send(
        self, writer: asyncio.StreamWriter, obj, lock: asyncio.Lock
    ) -> None:
        async with lock:
            writer.write(encode_frame(obj))
            await writer.drain()

    async def _send_error(
        self, writer: asyncio.StreamWriter, exc: Exception, rid, lock: asyncio.Lock
    ) -> None:
        if isinstance(exc, _Overloaded):
            error_type = "Overloaded"
            self.overloaded_frames += 1
        elif isinstance(exc, _AuthFailed):
            error_type = "AuthError"
        else:
            error_type = type(exc).__name__
        self.error_frames += 1
        await self._send(
            writer,
            {
                "type": "error",
                "id": rid,
                "error": {"type": error_type, "message": str(exc)},
            },
            lock,
        )

    async def _handshake(self, reader, writer, write_lock: asyncio.Lock) -> bool:
        """Exchange hellos; False (after an error frame) on any mismatch."""
        try:
            frame = json.loads(await _read_frame_bytes(reader))
        except (json.JSONDecodeError, UnicodeDecodeError, RequestError) as exc:
            await self._send_error(
                writer, RequestError(f"bad handshake: {exc}"), None, write_lock
            )
            return False
        if not isinstance(frame, dict) or frame.get("type") != "hello":
            await self._send_error(
                writer,
                RequestError("the first frame must be a 'hello' handshake"),
                None,
                write_lock,
            )
            return False
        if frame.get("version") != PROTOCOL_VERSION:
            await self._send_error(
                writer,
                RequestError(
                    f"unsupported protocol version {frame.get('version')!r} "
                    f"(server speaks {PROTOCOL_VERSION})"
                ),
                None,
                write_lock,
            )
            return False
        token = frame.get("token")
        if self._auth_token is not None and not (
            isinstance(token, str)
            and hmac.compare_digest(
                token.encode("utf-8"), self._auth_token.encode("utf-8")
            )
        ):
            # Constant-time over the bytes, so the reply's timing does not
            # reveal how long a prefix of the token was right.
            await self._send_error(
                writer, _AuthFailed("missing or invalid auth token"), None, write_lock
            )
            return False
        manager = self._service.manager
        await self._send(
            writer,
            {
                "type": "hello",
                "version": PROTOCOL_VERSION,
                "server": {
                    "n_shards": manager.n_shards,
                    "executor": self._service.executor_name,
                    "index": self._service.index,
                    "epoch": manager.epoch,
                    "trajectories": manager.n_trajectories,
                    "points": manager.total_points,
                    # Additive: clients that predate compaction policies
                    # simply ignore the key.
                    "compaction": self._service.compaction.spec(),
                    # Additive: the serving concurrency contract.
                    "workers": self.workers,
                    "max_inflight": self.max_inflight,
                    # Additive: replica topology.
                    "replicas": self._service.replicas,
                },
            },
            write_lock,
        )
        return True

    def _admit(self) -> None:
        """Admission control (loop thread): count one in-flight frame or
        refuse with :class:`_Overloaded` — refused frames never execute."""
        if self._inflight >= self.max_inflight:
            raise _Overloaded(
                f"server at max_inflight={self.max_inflight}; "
                "retry after in-flight requests drain"
            )
        self._inflight += 1
        self._service.stats.record_queue_depth(self._inflight)

    def _decode(self, frame: dict):
        """One frame past the handshake, decoded on the loop thread: the
        typed response of a cache hit, or an admitted worker job
        ``(fn, args, body_of)``. Raises :class:`RequestError` or
        :class:`_Overloaded`, which the caller answers as error frames."""
        trace_id = frame.get("trace")
        if trace_id is not None and not isinstance(trace_id, str):
            raise RequestError(f"trace must be a string or absent, got {trace_id!r}")
        submitted_at = time.perf_counter()
        service = self._service
        ftype = frame.get("type")
        if ftype == "request":
            request = request_from_json(frame.get("request"))
            lookup = service.probe(request, trace_id=trace_id)
            if isinstance(lookup, Response):
                return lookup
            call = functools.partial(service.execute, request, lookup=lookup)
            job = (
                self._on_worker,
                (request.kind, trace_id, submitted_at, call),
                response_to_json,
            )
        elif ftype == "ingest":
            batch = frame.get("trajectories")
            if not isinstance(batch, list):
                raise RequestError("'trajectories' must be an array of trajectories")
            call = functools.partial(
                service.ingest, [trajectory_from_json(t) for t in batch]
            )
            job = (
                self._on_worker,
                ("ingest", trace_id, submitted_at, call),
                self._ingest_body,
            )
        elif ftype == "describe":
            job = (service.describe, (), lambda info: _body("describe", info=info))
        elif ftype == "metrics":
            job = (self._metrics_body, (), lambda rep: _body("metrics", metrics=rep))
        else:
            raise RequestError(f"unknown frame type {ftype!r}")
        self._admit()
        return job

    def _ingest_body(self, added: int) -> dict:
        return _body("ingest", added=added, epoch=self._service.manager.epoch)

    async def _respond(
        self, writer, write_lock: asyncio.Lock, rid, body_of, result, loop_hit=False
    ) -> None:
        """Write one response frame, for a loop hit or an admitted frame.
        A result that cannot be encoded (e.g. a reply above the frame cap)
        is answered with an error frame instead; a frame counts as served
        only once its write succeeded."""
        try:
            out = encode_frame(
                {"type": "response", "id": rid, "response": body_of(result)}
            )
        except Exception as exc:
            await self._send_error(writer, exc, rid, write_lock)
            return
        try:
            async with write_lock:
                writer.write(out)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            return  # peer vanished mid-answer
        self.frames_served += 1
        if loop_hit:
            self.loop_hits += 1

    async def _run_admitted(
        self, writer, write_lock: asyncio.Lock, rid, fn, args, body_of
    ) -> None:
        """One admitted frame: execute off-loop, answer by id, release the
        admission slot. Runs as its own loop task so the connection's
        reader keeps decoding frames while this one computes."""
        loop = asyncio.get_running_loop()
        try:
            try:
                result = await loop.run_in_executor(self._pool, fn, *args)
            except Exception as exc:
                # Per-connection isolation: an execution failure becomes a
                # structured error frame, never a dropped connection.
                await self._send_error(writer, exc, rid, write_lock)
                return
            await self._respond(writer, write_lock, rid, body_of, result)
        finally:
            self._inflight -= 1

    async def _serve_frames(
        self,
        reader,
        writer,
        write_lock: asyncio.Lock,
        pending: set[asyncio.Task],
    ) -> None:
        while True:
            try:
                raw = await _read_frame_bytes(reader)
            except RequestError as exc:
                # A framing violation (oversize length prefix): the stream
                # can no longer be trusted, so answer and close.
                await self._send_error(writer, exc, None, write_lock)
                return
            rid = None
            try:
                try:
                    frame = json.loads(raw)
                except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                    raise RequestError(f"malformed JSON frame: {exc}") from None
                if not isinstance(frame, dict):
                    raise RequestError("a frame must be a JSON object")
                rid = frame.get("id")
                if frame.get("type") == "bye":
                    # Drain in-flight work first: every admitted request's
                    # response (or error) is delivered before the goodbye.
                    if pending:
                        await asyncio.gather(*pending, return_exceptions=True)
                    await self._send(writer, {"type": "bye"}, write_lock)
                    return
                job = self._decode(frame)
            except (RequestError, _Overloaded) as exc:
                await self._send_error(writer, exc, rid, write_lock)
                continue
            if isinstance(job, Response):
                await self._respond(
                    writer, write_lock, rid, response_to_json, job, loop_hit=True
                )
                continue
            task = asyncio.ensure_future(
                self._run_admitted(writer, write_lock, rid, *job)
            )
            pending.add(task)
            task.add_done_callback(pending.discard)


class ServerHandle:
    """A running loopback server on a background thread (see
    :func:`serve_in_thread`)."""

    def __init__(self, thread, loop, server, service, close_service) -> None:
        self._thread = thread
        self._loop = loop
        self.server = server
        self.service = service
        self._close_service = close_service

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def stop(self, timeout: float = 30.0) -> None:
        """Gracefully stop the server and join its thread (idempotent)."""
        if self._thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(
                self.server.stop(), self._loop
            )
            future.result(timeout=timeout)
            self._thread.join(timeout=timeout)
            if self._thread.is_alive():
                raise RuntimeError("server thread did not stop in time")
        if self._close_service:
            self.service.close()
            self._close_service = False

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def serve_in_thread(
    service,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    close_service: bool = False,
    workers: int | None = None,
    max_inflight: int | None = None,
    auth_token: str | None = None,
) -> ServerHandle:
    """Start a :class:`QueryServer` on a dedicated event-loop thread.

    Returns once the server is listening (``handle.port`` resolves the
    OS-assigned port when ``port=0``). ``close_service=True`` also closes
    the wrapped service on :meth:`ServerHandle.stop`. ``workers``,
    ``max_inflight``, and ``auth_token`` forward to :class:`QueryServer`.
    """
    started = threading.Event()
    holder: dict = {}

    def _run() -> None:
        async def _main() -> None:
            server = QueryServer(
                service,
                host,
                port,
                workers=workers,
                max_inflight=max_inflight,
                auth_token=auth_token,
            )
            try:
                await server.start()
            except Exception as exc:  # e.g. port in use
                holder["error"] = exc
                started.set()
                return
            holder["server"] = server
            holder["loop"] = asyncio.get_running_loop()
            started.set()
            await server.serve_forever()

        asyncio.run(_main())

    thread = threading.Thread(target=_run, name="repro-server", daemon=True)
    thread.start()
    started.wait()
    if "error" in holder:
        raise holder["error"]
    return ServerHandle(
        thread, holder["loop"], holder["server"], service, close_service
    )


__all__ = [
    "QueryServer",
    "ServerHandle",
    "serve_in_thread",
    "encode_frame",
    "default_workers",
    "FRAME_HEADER",
    "MAX_FRAME_BYTES",
]
