"""Synchronization primitives for the concurrent serving plane.

:class:`RWLock` is the epoch lock of :class:`~repro.service.service.QueryService`:
any number of query requests execute concurrently under the read side,
while ingest (the only path that bumps the shard epoch and rewrites shard
state) takes the write side exclusively — so a read of a given epoch can
never interleave with the write that bumps it, which is the invariant the
``(cache key, epoch)`` LRU and the bit-identity property tests rest on.

The lock is **writer-preferring**: once a writer is waiting, new readers
queue behind it. Under a saturating pipelined query load a fair or
reader-preferring lock would starve ingest indefinitely; preferring
writers bounds ingest latency by the in-flight reads at arrival time.
Both sides are reentrancy-free by design (the service never nests
acquisitions), which keeps the implementation a single condition variable.

:meth:`RWLock.try_acquire_read` is the event-loop thread's entry: it takes
the read side only when that needs no wait, and answers False while a
writer holds the lock or waits for it, so the loop never blocks behind
ingest and never jumps a waiting writer.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

__all__ = ["RWLock"]


class RWLock:
    """A writer-preferring readers/writer lock (see module docstring)."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    # ------------------------------------------------------------------- read
    def acquire_read(self) -> None:
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def try_acquire_read(self) -> bool:
        """Take the read side if no writer is active or waiting; never waits
        for one. Returns whether the read side was taken."""
        with self._cond:
            if self._writer_active or self._writers_waiting:
                return False
            self._readers += 1
            return True

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    @contextmanager
    def read(self):
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    # ------------------------------------------------------------------ write
    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True

    def release_write(self) -> None:
        with self._cond:
            self._writer_active = False
            self._cond.notify_all()

    @contextmanager
    def write(self):
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()
