"""Background liveness monitor: detect dead/hung replicas and restart them.

The :class:`Watchdog` closes the fault-tolerance loop around an executor's
replica sets. Failover (queries retrying on a live sibling) already keeps
requests flowing the instant a worker dies; what failover cannot do is put
the replica *back* — a shard bleeding replicas eventually has none left.
The watchdog runs a daemon thread that every ``interval`` seconds:

1. **heartbeats** idle replicas (``executor.ping(deadline)``): a worker
   whose process is alive but whose serve loop is stuck past ``deadline``
   seconds is retired — process liveness alone cannot see a hang;
2. **probes liveness** (``executor.liveness()``): silently exited
   processes are retired without waiting for the next scatter's EOF;
3. **restarts** every retired replica (``executor.restart_dead()``): a
   fresh worker is spawned from the shard's current base snapshot, catches
   up by replaying the logged ingest batches, and rejoins the rotation
   (restart latency is recorded by the replica set into
   ``replication.restart_latency_s``).

The poll deliberately composes the executor's public fault-tolerance
surface — anything implementing ``ping``/``liveness``/``restart_dead``
(in-process replicas are always healthy) can be watched, and a poll can
be driven synchronously via :meth:`Watchdog.poll_once` in tests.

Restart and ingest exclude each other: the service wraps
``restart_dead`` in its epoch *read* lock via the ``lock`` hook, so a
watchdog restart's replay catch-up never races an ingest (which holds the
write side). Poll errors are counted, never raised — a watchdog must
outlive the faults it exists to repair.
"""

from __future__ import annotations

import contextlib
import threading


class Watchdog:
    """Periodic ping → liveness → restart loop over an executor.

    Parameters
    ----------
    executor:
        Any object with ``ping(deadline)``, ``liveness()``, and
        ``restart_dead()`` (a :class:`~repro.service.executors.ShardExecutor`).
    interval:
        Seconds between polls (the detection latency ceiling for a
        silently dead replica).
    deadline:
        Seconds a heartbeat may take before the replica is declared hung.
    lock:
        Optional context-manager factory entered around the
        restart phase of each poll. The service passes its epoch read
        lock so restarts serialize against ingest.
    """

    def __init__(
        self,
        executor,
        interval: float = 1.0,
        deadline: float = 5.0,
        lock=None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        if deadline <= 0:
            raise ValueError("deadline must be positive")
        self.executor = executor
        self.interval = float(interval)
        self.deadline = float(deadline)
        self._lock = lock if lock is not None else contextlib.nullcontext
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.ticks = 0
        self.errors = 0
        self.hung_replicas = 0
        self.restarts = 0
        self.last_error: str | None = None

    def poll_once(self) -> dict:
        """One detection + repair pass; returns what it found and fixed.

        Safe to call directly (tests, manual repair); the background
        thread calls exactly this. Never raises: a failed restart is
        counted and retried on the next poll.
        """
        self.ticks += 1
        hung = 0
        restarted = 0
        probe: dict = {}
        try:
            hung = self.executor.ping(self.deadline)
            probe = self.executor.liveness()
            if probe.get("replicas_live", 0) < probe.get("replicas_total", 0):
                with self._lock():
                    restarted = self.executor.restart_dead()
        except Exception as exc:
            # The executor may be mid-close, or a restart may have failed
            # (e.g. the snapshot store is gone). Record and keep polling —
            # the watchdog must outlive the faults it repairs.
            self.errors += 1
            self.last_error = f"{type(exc).__name__}: {exc}"
        self.hung_replicas += hung
        self.restarts += restarted
        return {
            "tick": self.ticks,
            "hung": hung,
            "restarted": restarted,
            "dead_shards": probe.get("dead_shards", []),
            "replicas_live": probe.get("replicas_live"),
        }

    # ------------------------------------------------------------ lifecycle
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "Watchdog":
        if self.running:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-watchdog", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        # First wait, then poll: a service that starts and stops quickly
        # (tests, CLI one-shots) pays no poll at all.
        while not self._stop.wait(self.interval):
            self.poll_once()

    def stop(self) -> None:
        """Stop the poll thread (idempotent; joins the in-flight poll)."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=max(10.0, 2 * self.deadline))
            self._thread = None

    def stats(self) -> dict:
        return {
            "running": self.running,
            "interval_s": self.interval,
            "deadline_s": self.deadline,
            "ticks": self.ticks,
            "errors": self.errors,
            "hung_replicas": self.hung_replicas,
            "restarts": self.restarts,
            "last_error": self.last_error,
        }

    def __enter__(self) -> "Watchdog":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


__all__ = ["Watchdog"]
