"""The scatter/gather executor fanning service operations across shards.

One class, :class:`ShardExecutor`, over one
:class:`~repro.service.replication.ReplicaSet` per shard:

* ``broadcast(op, payload)`` — run one operation on every shard, returning
  the per-shard results in shard order (every query kind fans out this
  way);
* ``ingest(routed)``        — deliver routed ``{shard: batch}`` deltas,
  returning ``{shard: drained compaction counters}`` for the messaged
  shards so the service's stats see policy passes triggered shard-side;
* ``close()``               — release the replicas (idempotent);

plus the fault-tolerance surface: ``liveness()`` (non-blocking dead-shard
probe), ``ping(deadline)`` (heartbeat that retires hung workers),
``restart_dead()`` (respawn dead replicas from snapshot + replayed ingest
log), and ``replication_stats()``. The shard count is fixed at
construction.

The executor's *name* selects the replica transport and nothing else —
scatter, failover, ingest fan-out, liveness, restart, tag allocation and
close are the same code for both:

* ``"serial"`` — one :class:`~repro.service.runtime.ShardRuntime` per
  shard in the caller's process: shards execute one after another inside
  the gather, so it adds no parallelism but also no serialization cost —
  and it is the oracle the process transport is tested against. A failing
  shard surfaces the runtime's own exception;
* ``"process"`` — ``replicas`` long-lived worker processes per shard.
  Each worker materializes its runtime once from the shard snapshot — for
  a columnar :class:`~repro.service.sharding.ShardSnapshot` backed by the
  shared-memory store this *maps* the base tier instead of unpickling it,
  so R replicas share one copy of the base data — and keeps it warm
  across requests (CSR layout, engine memo, pending tier), communicating
  over a dedicated pipe. Each message travels as one pickle-5 blob in one
  pipe frame (codec in :mod:`repro.service.replication`).
  All requests are written before any reply is read, so shards genuinely
  overlap; a replica that dies mid-request is retired and the query
  retries on a live sibling (ingest instead fans out to every replica and
  is never retried — see the replication module docstring for the rules).
  Workers die with the executor (daemon processes + explicit stop), and
  every failure surfaces as one :class:`ShardExecutionError` naming the
  shard.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import time
from typing import Iterable

from repro.obs.metrics import MetricsRegistry
from repro.service.replication import (
    _LocalReplica,
    _Message,
    _WorkerReplica,
    ReplicaGone,
    ReplicaSet,
    ShardExecutionError,
)
from repro.service.sharding import ShardSnapshot

EXECUTORS = ("serial", "process")

__all__ = [
    "EXECUTORS",
    "ShardExecutor",
    "ShardExecutionError",
]


class ShardExecutor:
    """Scatter/gather over one replica set per shard.

    ``name`` is ``"serial"`` (in-process runtimes) or ``"process"``
    (worker processes) — see the module docstring.

    ``replicas`` sets R, the worker count per shard (default 1). Queries
    fail over across replicas; see :mod:`repro.service.replication` for
    the routing, ingest-fan-out, and restart rules. It means nothing
    in-process — a runtime there cannot die independently of the caller,
    so there is nothing to fail over to and each shard gets exactly one.

    ``mp_context`` selects the multiprocessing start method of the worker
    processes; the default honours the ``REPRO_MP_CONTEXT`` environment
    variable (CI runs the service suite under ``spawn``, which fork would
    otherwise mask pickling and shm-lifecycle bugs from), then prefers
    ``fork`` (workers inherit the parent's modules instantly) and falls
    back to the platform default where fork is unavailable.

    Thread safety: every replica is guarded by its own lock, held from
    the scatter's send to the gather's receive, so concurrent requests
    from the server's worker pool serialize *per replica* while still
    overlapping across shards (and, with R > 1, across idle siblings).

    :attr:`metrics` is the executor's registry: ``replication.*``
    instruments and parent-side pipe traffic (``transport.*``).
    """

    def __init__(
        self,
        shards: Iterable[ShardSnapshot],
        name: str,
        mp_context: str | None = None,
        replicas: int = 1,
        **runtime_kwargs,
    ) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.metrics = MetricsRegistry()
        if name == "process":
            if mp_context is None:
                mp_context = os.environ.get("REPRO_MP_CONTEXT") or None
            if mp_context is None:
                methods = multiprocessing.get_all_start_methods()
                mp_context = "fork" if "fork" in methods else methods[0]
            spawn = functools.partial(
                _WorkerReplica,
                multiprocessing.get_context(mp_context),
                self.metrics,
            )
        elif name == "serial":
            spawn = _LocalReplica
            replicas = 1
        else:
            raise ValueError(f"unknown executor {name!r}; choose from {EXECUTORS}")
        self._replicas = int(replicas)
        self._closed = False
        self._sets: list[ReplicaSet] = []
        try:
            for shard in shards:
                self._sets.append(
                    ReplicaSet(
                        shard,
                        spawn=spawn,
                        runtime_kwargs=runtime_kwargs,
                        replicas=self._replicas,
                        registry=self.metrics,
                    )
                )
        except Exception:
            self.close()
            raise

    # ------------------------------------------------------------- topology
    @property
    def replica_sets(self) -> list[ReplicaSet]:
        return list(self._sets)

    @property
    def runtimes(self) -> list:
        """The in-process shard runtimes, in shard order (none under the
        process transport — those live inside the workers)."""
        return [
            r.runtime for s in self._sets for r in s.replicas if not r.remote
        ]

    @property
    def _procs(self) -> list:
        """Every worker process, grouped by shard then replica slot.

        With ``replicas=1`` this is indexable by shard. Retired replicas
        stay at their slot until :meth:`restart_dead` replaces them, so a
        just-killed worker remains joinable here.
        """
        return [r.proc for s in self._sets for r in s.replicas if r.remote]

    @property
    def n_workers(self) -> int:
        return len(self._procs)

    def worker_pids(self) -> list[int]:
        return [p.pid for p in self._procs if p.pid is not None]

    def transport_stats(self) -> dict:
        """Parent-side pipe traffic counters (the ``metrics`` report's
        ``transport`` section)."""
        counters = self.metrics.snapshot("transport.")["counters"]
        keys = ("pipe_bytes_sent", "pipe_bytes_received",
                "messages_sent", "messages_received")
        out = {key: counters.get(f"transport.{key}", 0) for key in keys}
        return {"n_workers": self.n_workers, **out}

    # -------------------------------------------------------------- scatter
    def broadcast(self, op: str, payload: dict, trace: tuple | None = None) -> list:
        """Send one ``(op, payload)`` to every shard (ascending), then
        collect one reply per shard: the results in shard order.

        Each shard checks out ONE live replica (its lock held
        until its reply is read). Sends to every shard are attempted even
        when an earlier one finds a dead shard, and every checked-out
        replica is drained even when an early shard reports an error — an
        unread reply left in a pipe would be mistaken for the answer to
        the *next* request. A replica that dies mid-request is retired and
        its shard's request is retried on a live sibling — *after* the
        main gather, when this thread holds no other replica locks. After
        the drain an in-process runtime's own exception is re-raised
        unchanged; all worker failures (send, execution, exhausted
        replicas) surface as one :class:`ShardExecutionError`.

        ``trace`` is the request's ``(tracer, trace_id)``: each gathered
        reply records one span, ``shard_gather`` for a worker (it computes
        from the moment of its send, so the span is the wait since the
        gather began — cumulative along the gather order, not a per-shard
        compute time) or ``shard_exec`` for an in-process runtime (it
        computes inside ``receive``, so the span is that call alone).

        Thread safety: checkouts happen in ascending shard order, one
        replica lock per shard; every wait is therefore for a
        greater-or-equal shard than anything held, so concurrent requests
        cannot deadlock. With R > 1, concurrent requests overlap across a
        shard's idle siblings.
        """
        self._check_usable()
        # One message object for every shard: worker replicas share its
        # pickle-once blob.
        message = _Message(op, payload)
        errors: list[str] = []
        checked_out: list[tuple[int, ReplicaSet, object]] = []
        for shard_idx, replica_set in enumerate(self._sets):
            try:
                replica = replica_set.checkout_and_send(message)
            except Exception as exc:
                # An unpicklable payload: reportable per shard, with every
                # pipe left clean.
                errors.append(
                    f"shard {shard_idx}: send failed "
                    f"({type(exc).__name__}: {exc})"
                )
                continue
            if replica is None:
                errors.append(
                    f"shard {shard_idx}: worker died mid-request and no "
                    f"live replica remains"
                )
                continue
            checked_out.append((shard_idx, replica_set, replica))
        tracer, trace_id = trace or (None, None)
        gather_start = time.perf_counter()
        replies: dict[int, tuple] = {}
        needs_retry: list[int] = []
        while checked_out:
            shard_idx, replica_set, replica = checked_out.pop(0)
            began = time.perf_counter()
            try:
                replies[shard_idx] = replica_set.receive(replica)
            except ReplicaGone:
                needs_retry.append(shard_idx)
                continue
            except BaseException:
                # Interrupted mid-gather (KeyboardInterrupt, a damaged fd,
                # an unpicklable reply): receive() already retired the
                # replica it was reading; the remaining checkouts hold
                # pipes with undrained replies — abandon them so their
                # siblings (and restarts) keep the executor usable.
                for _, later_set, later in checked_out:
                    later_set.abandon(later)
                raise
            if trace_id is not None:
                tracer.record(
                    trace_id,
                    "shard_gather" if replica.remote else "shard_exec",
                    time.perf_counter()
                    - (gather_start if replica.remote else began),
                    shard=shard_idx,
                    op=op,
                )
        # Deferred failover: retry dead-mid-request shards on live
        # siblings now that no other replica lock is held.
        for shard_idx in needs_retry:
            try:
                replies[shard_idx] = self._sets[shard_idx].request(message)
            except ShardExecutionError as exc:
                errors.append(str(exc))
        for shard_idx, (status, value) in replies.items():
            if status != "ok":
                if isinstance(value, Exception):
                    raise value
                errors.append(f"shard {shard_idx}: {value}")
        if errors:
            raise ShardExecutionError("; ".join(errors))
        return [replies[idx][1] for idx in range(len(self._sets))]

    def _check_usable(self) -> None:
        # A closed executor must never silently answer (transport-swap
        # tests would otherwise pass through it).
        if self._closed:
            raise ShardExecutionError("executor is closed")

    # --------------------------------------------------------------- ingest
    def ingest(self, routed: dict[int, list]) -> dict[int, list]:
        """Deliver routed batches; every live replica of a target shard
        gets its own copy (see :meth:`ReplicaSet.ingest_send` for why
        ingest is replicated rather than failed over). Returns ``{shard:
        drained compaction counters}`` for the shards messaged."""
        self._check_usable()
        order = sorted(routed)
        sent: dict[int, list] = {}
        results: dict[int, list] = {}
        errors: list[str] = []
        try:
            for idx in order:
                sent[idx] = self._sets[idx].ingest_send(
                    _Message("ingest", routed[idx])
                )
            for idx in order:
                replicas = sent.pop(idx)
                try:
                    results[idx] = self._sets[idx].ingest_gather(
                        replicas, routed[idx]
                    )
                except ShardExecutionError as exc:
                    errors.append(str(exc))
        except BaseException:
            for idx, replicas in sent.items():
                for replica in replicas:
                    self._sets[idx].abandon(replica)
            raise
        if errors:
            raise ShardExecutionError("; ".join(errors))
        return results

    # --------------------------------------------------- fault tolerance
    def liveness(self) -> dict:
        """Non-blocking health probe: no pipe traffic, just process state.

        Names dead shards (every replica gone) immediately instead of
        waiting for the next scatter to raise; replicas whose process
        silently exited are retired here.
        """
        shards = [replica_set.liveness() for replica_set in self._sets]
        dead_shards = [s["shard"] for s in shards if s["live"] == 0]
        live = sum(s["live"] for s in shards)
        total = sum(s["replicas"] for s in shards)
        self.metrics.set("replication.replicas_live", live)
        return {
            "alive": not self._closed and not dead_shards,
            "dead_shards": dead_shards,
            "replicas_live": live,
            "replicas_total": total,
            "shards": shards,
        }

    def ping(self, deadline: float) -> int:
        """Heartbeat every idle replica; retire any that miss ``deadline``
        (hung-but-alive workers). Returns the number retired."""
        self._check_usable()
        return sum(
            replica_set.ping(deadline) for replica_set in self._sets
        )

    def restart_dead(self) -> int:
        """Respawn every dead replica from its shard's snapshot plus the
        replayed ingest log. Returns the number restarted."""
        self._check_usable()
        restarted = 0
        for replica_set in self._sets:
            restarted += replica_set.restart_dead()
        if restarted:
            self.liveness()  # refresh the replicas_live gauge
        return restarted

    def replication_stats(self) -> dict:
        """Replica topology plus the replication instrument snapshot
        (failovers / restarts / hung replicas / restart latency)."""
        probe = self.liveness()
        return {
            "replicas_per_shard": self._replicas,
            "replicas_live": probe["replicas_live"],
            "replicas_total": probe["replicas_total"],
            "dead_shards": probe["dead_shards"],
            "counters": self.metrics.snapshot("replication."),
        }

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for replica_set in self._sets:
            replica_set.close()

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort cleanup if close() was missed
        try:
            self.close()
        except Exception:  # pragma: no cover
            pass
