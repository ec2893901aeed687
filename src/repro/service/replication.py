"""Per-shard replica groups: transports, failover routing, restart-with-replay.

This is the fault-tolerance core of the sharded service. A
:class:`ReplicaSet` owns the replicas of ONE shard, all built from the
same :class:`~repro.service.sharding.ShardSnapshot`. A replica is one of
two transports behind the same ``send / receive / is_alive / kill /
stop`` surface:

* :class:`_WorkerReplica` — a worker process and its pipe. Under the
  shared-memory store every worker *maps* the shard's base segments
  zero-copy, so an extra replica costs pipes and pending-tier heap, not a
  second copy of the data;
* :class:`_LocalReplica` — a :class:`~repro.service.runtime.ShardRuntime`
  in the caller's process: ``send`` holds the message, ``receive`` runs
  it. It cannot die independently of the caller, so it is never retired.

The set provides, once for both transports:

* **query routing with failover** — each query checks out one live
  replica (round-robin, preferring idle ones); a worker that dies
  mid-request is retired and the request retries on a live sibling.
  Query operations are read-only, so a retry can never double-apply;
* **replicated ingest, never retried** — an ingest batch is logged
  parent-side and written to EVERY live replica under the set lock (one
  global arrival order, so replicas compact identically). A replica that
  fails its copy is retired — a sibling retry would have nothing to
  repair, the sibling already holds its own copy;
* **restart with replay** — a retired replica respawns from the shard's
  original base snapshot plus the replayed ingest log, catching up on
  batches that arrived mid-spawn before it rejoins the rotation. Spawn
  and replay happen outside the set lock, so queries keep flowing to
  live siblings during the restart window;
* **liveness** — a non-blocking :meth:`~ReplicaSet.liveness` probe
  (``is_alive()``, no pipe traffic) and a :meth:`~ReplicaSet.ping`
  heartbeat with a deadline that catches hung-but-alive workers.

Deadlock discipline: a request holds at most ONE replica lock per shard
and acquires shards in ascending order (the executor's scatter order);
within a shard, siblings are tried one at a time, never held together —
except by ingest, which holds the set lock first, and set locks are
themselves acquired in ascending shard order. Every wait is therefore
for a strictly greater (shard, resource) pair than anything held, so no
cycle can form. Failover retries for shards that failed mid-gather are
*deferred* until the main gather released every replica.

Failover/restart/liveness counters and worker pipe traffic go into the
executor's self-locking :class:`~repro.obs.metrics.MetricsRegistry`
(``replication.failovers``, ``replication.restarts``,
``replication.restart_latency_s``, ``replication.replicas_live``,
``replication.hung_replicas``; ``transport.*``), surfaced by the
service's ``metrics_report()`` replication and transport sections.

The pipe codec (one pickle-5 blob per message, one pipe frame each way)
and the worker main loop live here too.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from typing import Callable

from repro.obs.metrics import MetricsRegistry
from repro.service.runtime import ShardRuntime
from repro.service.sharding import ShardSnapshot


class ShardExecutionError(RuntimeError):
    """A shard worker failed to execute an operation."""


class ReplicaGone(Exception):
    """Internal signal: the checked-out replica died mid-request.

    Raised by :meth:`ReplicaSet.receive` after the replica has been
    retired; callers fail the shard over to a sibling (queries) or drop
    the replica's ack (ingest). Never escapes the executor layer.
    """


# ---------------------------------------------------------------------------
# Pipe message codec: one pickle-5 blob per message
# ---------------------------------------------------------------------------
#
# Every message, in both directions, is ``pickle.dumps(msg, protocol=5)``
# written as ONE ``send_bytes`` frame and read back with one ``recv_bytes``.
# The arrays that cross a shard pipe are a few KiB, so shipping them
# in-band costs less than extra frames would. Serialization completes
# before any byte is written, so an unpicklable payload leaves the pipe
# clean.


def _send_message(conn, message) -> None:
    conn.send_bytes(pickle.dumps(message, protocol=5))


def _recv_message(conn):
    return pickle.loads(conn.recv_bytes())


class _Message:
    """One ``(op, payload)`` request, pickled at most once.

    A broadcast hands every shard the SAME message, so K worker sends
    cost one serialization instead of K; in-process replicas read
    ``op``/``payload`` directly and never pickle at all.
    """

    __slots__ = ("op", "payload", "_blob")

    def __init__(self, op: str, payload) -> None:
        self.op = op
        self.payload = payload
        self._blob: bytes | None = None

    def blob(self) -> bytes:
        if self._blob is None:
            self._blob = pickle.dumps((self.op, self.payload), protocol=5)
        return self._blob


def _apply(runtime: ShardRuntime, op: str, payload):
    """Run one message against a runtime (ingest is not an ``op_*`` method)."""
    if op == "ingest":
        return runtime.ingest(payload)
    return runtime.execute(op, payload)


def _shard_worker_main(
    conn,
    shard: ShardSnapshot,
    runtime_kwargs: dict,
    replay: list | None = None,
) -> None:
    """Worker-process loop: build the runtime once, serve ops until stopped.

    Under the shared-memory store the runtime construction *maps* the
    snapshot's base tier from its segments — the worker never unpickles
    point data at startup. ``replay`` (a restarted replica's logged ingest
    batches) is applied before the first request is read off the pipe, so
    the pipe's FIFO order guarantees no query ever observes a
    half-caught-up replica. The worker creates no
    shared segments (compacted tiers stay on its heap), so a SIGKILL
    leaks nothing; the ``finally`` runs :meth:`ShardRuntime.close` to
    release its snapshot mappings on every orderly exit path.
    """
    runtime = ShardRuntime(shard, **runtime_kwargs)
    try:
        if replay:
            runtime.replay(replay)
        while True:
            try:
                op, payload = _recv_message(conn)
            except (EOFError, KeyboardInterrupt):
                break
            if op == "stop":
                break
            try:
                _send_message(conn, ("ok", _apply(runtime, op, payload)))
            except Exception as exc:  # surface shard-side failures to the parent
                _send_message(conn, ("error", f"{type(exc).__name__}: {exc}"))
    finally:
        try:
            runtime.close()
        finally:
            conn.close()


# ---------------------------------------------------------------------------
# Replica transports
# ---------------------------------------------------------------------------
#
# Both classes answer ``receive()`` with a ``(status, value)`` reply:
# ``("ok", result)``, or ``("error", detail)`` where ``detail`` is the
# worker's ``"Type: message"`` string or — in-process — the runtime's own
# exception object, which the gather re-raises unchanged. ``lock``
# serializes the one-outstanding-request protocol; the owning set takes it
# at checkout and releases it once the reply is read.

#: What a dead (or, with a receive deadline, hung) worker pipe raises.
_GONE = (EOFError, OSError)


class _WorkerReplica:
    """Transport: one worker process and its pipe.

    ``live`` flips to False exactly once (in :meth:`kill`, under the
    owning set's lock) — a retired replica's pipe is never reused, which
    is what makes mid-request death recoverable without stale-reply
    hazards.
    """

    __slots__ = ("proc", "conn", "lock", "live", "_metrics")

    #: Computes concurrently with the caller, from the moment of its send.
    remote = True

    def __init__(
        self,
        ctx,
        metrics: MetricsRegistry,
        snapshot: ShardSnapshot,
        runtime_kwargs: dict,
        replay: list | None,
    ) -> None:
        self.conn, child_conn = ctx.Pipe()
        self.proc = ctx.Process(
            target=_shard_worker_main,
            args=(child_conn, snapshot, runtime_kwargs, replay),
            daemon=True,
            name=f"repro-shard-{snapshot.index}",
        )
        self.proc.start()
        child_conn.close()
        self.lock = threading.Lock()
        self.live = True
        self._metrics = metrics

    @property
    def pid(self) -> int | None:
        return self.proc.pid

    def send(self, message: _Message) -> None:
        # Serialization completes before any byte is written, so an
        # unpicklable payload (e.g. a lambda measure) leaves the pipe clean.
        blob = message.blob()
        self.conn.send_bytes(blob)
        self._metrics.inc("transport.pipe_bytes_sent", len(blob))
        self._metrics.inc("transport.messages_sent")

    def receive(self, timeout: float | None = None) -> tuple:
        if timeout is not None and not self.conn.poll(timeout):
            raise TimeoutError(f"no reply within {timeout} s")
        blob = self.conn.recv_bytes()
        self._metrics.inc("transport.pipe_bytes_received", len(blob))
        self._metrics.inc("transport.messages_received")
        return pickle.loads(blob)

    def is_alive(self) -> bool:
        return self.proc.is_alive()

    def kill(self) -> None:
        """Retire: mark dead and reap (idempotent, non-blocking).

        The pipe is closed only if it can be claimed without waiting — a
        request currently blocked on it will hit EOF and retire it again;
        the dropped replica object closes the fd on GC as a backstop. The
        process is SIGKILLed: this also serves the hung-worker path, where
        a polite stop would never be read.
        """
        if not self.live:
            return
        self.live = False
        if self.lock.acquire(blocking=False):
            try:
                self.conn.close()
            except OSError:
                pass
            finally:
                self.lock.release()
        if self.proc.is_alive():
            self.proc.kill()

    def stop(self) -> None:
        """Orderly exit: stop message, close the pipe, join the process."""
        if self.live:
            with self.lock:
                try:
                    _send_message(self.conn, ("stop", None))
                except _GONE:
                    pass
        try:
            self.conn.close()
        except OSError:
            pass
        self.proc.join(timeout=5.0)
        if self.proc.is_alive():  # pragma: no cover - stuck worker
            self.proc.terminate()
            self.proc.join(timeout=1.0)


class _LocalReplica:
    """Transport: a :class:`ShardRuntime` in the caller's process.

    ``send`` only holds the message; ``receive`` runs it (the caller holds
    ``lock``, so concurrent requests serialize per shard while still
    overlapping across shards). It shares the caller's fate, so it is
    always ``live`` and :meth:`kill` retires nothing.
    """

    remote = False
    live = True

    def __init__(
        self,
        snapshot: ShardSnapshot,
        runtime_kwargs: dict,
        replay: list | None,
    ) -> None:
        self.runtime = ShardRuntime(snapshot, **runtime_kwargs)
        if replay:
            self.runtime.replay(replay)
        self.lock = threading.Lock()
        self._held: _Message | None = None

    @property
    def pid(self) -> int:
        return os.getpid()

    def send(self, message: _Message) -> None:
        self._held = message

    def receive(self, timeout: float | None = None) -> tuple:
        message, self._held = self._held, None
        try:
            return "ok", _apply(self.runtime, message.op, message.payload)
        except Exception as exc:
            return "error", exc

    def is_alive(self) -> bool:
        return True

    def kill(self) -> None:
        self._held = None

    def stop(self) -> None:
        with self.lock:
            self.runtime.close()


class ReplicaSet:
    """The replicas of one shard (see the module docstring).

    Parameters
    ----------
    snapshot:
        The shard's membership snapshot; every replica (including
        restarts) is built from it, so it must stay resolvable for the
        set's lifetime (the service keeps the exporting store open).
    spawn:
        The transport: ``spawn(snapshot, runtime_kwargs, replay)`` builds
        one replica.
    runtime_kwargs:
        Forwarded to each replica's :class:`~repro.service.runtime.ShardRuntime`.
    replicas:
        Replica count (R >= 1).
    registry:
        The executor's (self-locking) metrics registry.
    """

    def __init__(
        self,
        snapshot: ShardSnapshot,
        *,
        spawn: Callable,
        runtime_kwargs: dict,
        replicas: int,
        registry: MetricsRegistry,
    ) -> None:
        self.snapshot = snapshot
        self.shard_index = snapshot.index
        self._spawn_replica = spawn
        self._runtime_kwargs = dict(runtime_kwargs)
        self._registry = registry
        #: Guards membership (``replicas``/``live`` flips), the ingest log,
        #: and the round-robin cursor. RLock: retire() runs under ingest's
        #: hold.
        self._lock = threading.RLock()
        #: Parent-side ingest replay log, in arrival order. Grows for the
        #: set's lifetime (dropped only by close); the batches alias the
        #: trajectories the manager already holds, so the overhead is list
        #: structure, not point data.
        self._log: list[list] = []
        self._rr = 0
        self._closed = False
        self.replicas: list = []
        try:
            for _ in range(replicas):
                self.replicas.append(self._spawn())
        except Exception:
            self.close()
            raise

    # ------------------------------------------------------------- plumbing
    def _spawn(self, replay: list | None = None):
        if self._closed:
            raise ShardExecutionError("replica set is closed")
        return self._spawn_replica(self.snapshot, self._runtime_kwargs, replay)

    def _probe(self) -> list:
        """The current membership, after retiring every replica whose
        process silently died (``is_alive()``, no pipe traffic)."""
        with self._lock:
            replicas = list(self.replicas)
        for replica in replicas:
            if replica.live and not replica.is_alive():
                self.retire(replica)
        return replicas

    def live_replicas(self) -> list:
        return [r for r in self._probe() if r.live]

    def retire(self, replica) -> None:
        """Take a replica out of the rotation for good (idempotent)."""
        with self._lock:
            replica.kill()

    # -------------------------------------------------------------- queries
    def checkout_and_send(self, message: _Message):
        """Pick a live replica, take its lock, and hand it one request.

        Prefers an idle sibling (non-blocking probe in round-robin order)
        before blocking on a busy one. A send that hits a dead pipe
        retires the replica and fails over to the next; returns None once
        no live replica remains. On success the replica's lock is HELD —
        the caller must follow with :meth:`receive` (or :meth:`abandon`
        on an abort path).
        """
        while True:
            with self._lock:
                live = [r for r in self.replicas if r.live]
                if not live:
                    return None
                start = self._rr % len(live)
                self._rr += 1
            rotation = live[start:] + live[:start]
            replica = None
            for candidate in rotation:
                if candidate.lock.acquire(blocking=False):
                    replica = candidate
                    break
            if replica is None:
                replica = rotation[0]
                replica.lock.acquire()
            if not replica.live:  # retired while we waited for the pipe
                replica.lock.release()
                continue
            try:
                replica.send(message)
                return replica
            except _GONE:
                replica.lock.release()
                self.retire(replica)
                self._registry.inc("replication.failovers")
            except Exception:
                # Framing failed before any byte was written: a clean pipe.
                replica.lock.release()
                raise
            except BaseException:
                self.abandon(replica)  # interrupted mid-write
                raise

    def receive(self, replica) -> tuple:
        """Read one reply off a checked-out replica, releasing its lock.

        Raises :class:`ReplicaGone` (after retiring the replica and
        counting the failover) when the worker died mid-request; any other
        interruption mid-read also retires the replica — a half-read pipe
        can never be trusted again — before propagating.
        """
        try:
            reply = replica.receive()
        except _GONE as exc:
            replica.lock.release()
            self.retire(replica)
            self._registry.inc("replication.failovers")
            raise ReplicaGone(str(exc) or type(exc).__name__) from exc
        except BaseException:
            replica.lock.release()
            self.retire(replica)
            raise
        replica.lock.release()
        return reply

    def abandon(self, replica) -> None:
        """Abort a checkout whose reply will never be read (interrupted
        gather): the un-drained pipe disqualifies the replica for good."""
        replica.lock.release()
        self.retire(replica)

    def request(self, message: _Message) -> tuple:
        """One request with inline failover: send + gather, retrying on a
        live sibling until one answers. Raises
        :class:`ShardExecutionError` once no live replica remains."""
        while True:
            replica = self.checkout_and_send(message)
            if replica is None:
                with self._lock:
                    total = len(self.replicas)
                raise ShardExecutionError(
                    f"shard {self.shard_index}: worker died mid-request and "
                    f"no live replica remains (all {total} dead)"
                )
            try:
                return self.receive(replica)
            except ReplicaGone:
                continue

    # --------------------------------------------------------------- ingest
    def ingest_send(self, message: _Message) -> list:
        """Log the batch and hand its ingest message to EVERY live replica.

        Ingest is never retried on a sibling: siblings receive their own
        copy right here, so a replica that fails its copy is simply
        retired (its state is missing the batch and can only rejoin
        through restart + replay). The set lock is held across the fan-out
        so concurrent ingests land in one global order on every replica —
        divergent orders would let replicas compact different tiers.
        Returns the checked-out replicas (locks held); gather with
        :meth:`ingest_gather`.
        """
        with self._lock:
            self._log.append(message.payload)
            sent: list = []
            for replica in [r for r in self.replicas if r.live]:
                replica.lock.acquire()
                if not replica.live:
                    replica.lock.release()
                    continue
                try:
                    replica.send(message)
                    sent.append(replica)
                except _GONE:
                    replica.lock.release()
                    self.retire(replica)
                    self._registry.inc("replication.failovers")
            return sent

    def ingest_gather(self, sent: list, batch):
        """Collect ingest acks; returns the FIRST successful reply value.

        One ack stands in for the whole set: every replica runs identical
        compaction passes, so absorbing more than one reply's drained
        counters would multiply the service's compaction stats by R.
        A worker that reports an error is retired — it may have applied
        the batch partway and can no longer be trusted to match its
        siblings. If NO replica acked, the logged batch is rolled back
        (the manager will not commit it either) and the failure raised: an
        in-process runtime's own exception unchanged, otherwise a
        :class:`ShardExecutionError`.
        """
        reply = None
        errors: list = []
        for pos, replica in enumerate(sent):
            try:
                status, value = self.receive(replica)
            except ReplicaGone:
                continue
            except BaseException:
                # receive() already retired ``replica``; the rest of the
                # fan-out still holds locks with undrained replies.
                for later in sent[pos + 1 :]:
                    self.abandon(later)
                raise
            if status == "ok":
                if reply is None:
                    reply = value
            else:
                errors.append(value)
                self.retire(replica)
                if not replica.live:
                    self._registry.inc("replication.failovers")
        if reply is None:
            with self._lock:
                for i in range(len(self._log) - 1, -1, -1):
                    if self._log[i] is batch:
                        del self._log[i]
                        break
            if errors and isinstance(errors[0], Exception):
                raise errors[0]
            detail = errors[0] if errors else "every replica died mid-ingest"
            raise ShardExecutionError(f"shard {self.shard_index}: {detail}")
        return reply

    # -------------------------------------------------------------- restart
    def restart_dead(self) -> int:
        """Respawn every dead replica from snapshot + replayed log.

        Dead means retired OR silently exited: the membership is probed
        first, so replicas killed with no request in between are found
        too. Spawn and replay run OUTSIDE the set lock — queries keep
        flowing to live siblings during the window — then the lock is
        retaken to catch up on batches ingested mid-spawn before the
        replica goes live. Readiness is confirmed with a ping round-trip
        (the worker answers only after its replay finished), so the
        recorded ``restart_latency_s`` covers spawn + replay + first
        heartbeat. Returns the number restarted.
        """
        restarted = 0
        self._probe()
        for slot in range(len(self.replicas)):
            with self._lock:
                if self._closed or slot >= len(self.replicas):
                    break
                replica = self.replicas[slot]
                if replica.live:
                    continue
                caught_up = len(self._log)
                replay = list(self._log)
            start = time.perf_counter()
            fresh = self._spawn(replay=replay)
            try:
                self._converse(fresh, _Message("ping", {}), "its readiness ping")
                with self._lock:
                    # Catch up on ingests that landed while we spawned.
                    while caught_up < len(self._log):
                        self._converse(
                            fresh,
                            _Message("ingest", self._log[caught_up]),
                            "replay catch-up",
                        )
                        caught_up += 1
                    if (
                        self._closed
                        or slot >= len(self.replicas)
                        or self.replicas[slot] is not replica
                    ):
                        # The set was closed, or a concurrent restart
                        # refilled the slot, under us; the fresh worker
                        # has no seat to take.
                        raise ShardExecutionError(
                            f"shard {self.shard_index}: replica set changed "
                            f"during restart"
                        )
                    self.replicas[slot] = fresh
            except BaseException:
                fresh.kill()
                raise
            restarted += 1
            self._registry.inc("replication.restarts")
            self._registry.record(
                "replication.restart_latency_s", time.perf_counter() - start
            )
        return restarted

    def _converse(self, fresh, message: _Message, what: str) -> None:
        """One round-trip with a restarted replica not yet in the rotation."""
        with fresh.lock:
            fresh.send(message)
            status, _ = fresh.receive()
        if status != "ok":
            raise ShardExecutionError(
                f"shard {self.shard_index}: restarted worker failed {what}"
            )

    # ------------------------------------------------------------- liveness
    def liveness(self) -> dict:
        """Non-blocking probe: replica states via ``is_alive()``.

        No pipe traffic. A replica whose process silently died is retired
        right here — liveness names dead replicas immediately instead of
        on the next scatter's EOF.
        """
        replicas = self._probe()
        dead = [slot for slot, r in enumerate(replicas) if not r.live]
        return {
            "shard": self.shard_index,
            "replicas": len(replicas),
            "live": len(replicas) - len(dead),
            "pids": [r.pid for r in replicas if r.live],
            "dead_replicas": dead,
        }

    def ping(self, deadline: float) -> int:
        """Heartbeat idle live replicas; retire any that miss ``deadline``.

        Catches hung-but-alive workers (``is_alive()`` true, serve loop
        stuck). Replicas busy serving a request are skipped — a held lock
        proves the protocol is mid-flight, and racing the in-flight reply
        would corrupt it. A replica that times out is retired even though
        its pong may arrive later: the pipe now holds (or will hold) a
        reply nobody waits for. Returns the number retired.
        """
        message = _Message("ping", {})
        hung = 0
        for replica in self.live_replicas():
            if not replica.lock.acquire(blocking=False):
                continue
            responsive = True
            try:
                if not replica.live:
                    continue
                try:
                    replica.send(message)
                    replica.receive(timeout=deadline)  # drain the pong
                except _GONE:
                    responsive = False
            finally:
                replica.lock.release()
            if not responsive:
                self.retire(replica)
                self._registry.inc("replication.hung_replicas")
                hung += 1
        return hung

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Stop every replica and drop the log (idempotent)."""
        with self._lock:
            self._closed = True
            replicas, self.replicas = self.replicas, []
            self._log = []
        for replica in replicas:
            replica.stop()


__all__ = [
    "ReplicaGone",
    "ReplicaSet",
    "ShardExecutionError",
]
