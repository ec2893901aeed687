"""Pluggable array-store providers for the columnar data plane.

A *store* owns the physical placement of immutable numpy arrays — the CSR
point matrix and offsets that every query layer reads — and hands out
small, picklable :class:`ArrayHandle` descriptors that resolve back to
read-only views of the same bytes.

Two providers:

* :class:`HeapStore` (default) keeps arrays on the process heap.  Its
  handles carry the array itself, so pickling a handle copies the bytes —
  exactly the behaviour the executor pipeline had before stores existed.
* :class:`SharedMemoryStore` copies each array once into a named POSIX
  shared-memory segment (``/dev/shm/repro_*``).  Its handles carry only
  ``(name, shape, dtype)``; any process that unpickles one *maps* the
  segment instead of receiving a copy, which is what makes K-shard worker
  start-up O(1) in shard bytes.

Lifecycle rules (the part that is easy to get wrong):

* The store that *creates* a segment owns it: each is recorded in
  ``_owned`` before any byte is written, and ``close()`` unlinks exactly
  that set; a ``weakref.finalize`` hook guarantees the same at
  interpreter exit.  In a service only the snapshot store creates
  segments.  Shard workers only *map* them — the tiers they build by
  compaction stay on their own heap — so a killed worker has nothing to
  leak.
* Attaching is refcounted per process (many handles may resolve the same
  segment) and detaching never unlinks.
* On Python < 3.13 ``SharedMemory`` registers with the multiprocessing
  resource tracker on *attach* as well as create.  Executor workers share
  the parent's tracker process, whose cache is a per-name set — so the
  duplicate registration is harmless and is deliberately left alone (an
  attach-side unregister would erase the owner's registration).
"""

from __future__ import annotations

import os
import secrets
import threading
import weakref

import numpy as np

try:  # POSIX + Windows both provide it, but keep the import soft anyway
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - exotic platforms only
    _shared_memory = None

__all__ = [
    "STORES",
    "StoreError",
    "ArrayHandle",
    "HeapArrayHandle",
    "SharedArrayHandle",
    "HeapStore",
    "SharedMemoryStore",
    "make_store",
    "shared_memory_available",
]

#: Provider names accepted by :func:`make_store` (and ``--store``).
STORES = ("heap", "shm")

#: Every shared segment name starts with this, so leak checks can
#: recognise ours in ``/dev/shm``.
SEGMENT_PREFIX = "repro_"

#: Numeric dtype kinds (bool, int, uint, float, complex): the only arrays
#: whose raw bytes mean the same thing in another process.
_SHAREABLE_KINDS = "biufc"


class StoreError(RuntimeError):
    """Raised for store misuse: unknown provider, closed store, bad attach."""


def shared_memory_available() -> bool:
    """Whether this platform can host a :class:`SharedMemoryStore`."""
    return _shared_memory is not None


# ---------------------------------------------------------------------------
# Per-process attach registry (refcounted; shared by all handles)
# ---------------------------------------------------------------------------

class _Attachment:
    __slots__ = ("shm", "refcount")

    def __init__(self, shm) -> None:
        self.shm = shm
        self.refcount = 0


_attachments: dict[str, _Attachment] = {}
_attach_lock = threading.Lock()


def _attach_segment(name: str):
    """Open (or reuse) a mapping of ``name``; bump its refcount."""
    if _shared_memory is None:  # pragma: no cover
        raise StoreError("shared memory is not available on this platform")
    with _attach_lock:
        entry = _attachments.get(name)
        if entry is None:
            try:
                shm = _shared_memory.SharedMemory(name=name)
            except FileNotFoundError as exc:
                raise StoreError(
                    f"shared segment {name!r} does not exist (was its "
                    "owning store closed?)"
                ) from exc
            # Python < 3.13 registers attachments with the resource
            # tracker as if they were creations. Executor workers share
            # the parent's tracker process (multiprocessing hands the
            # tracker fd to both fork and spawn children), whose cache is
            # a per-name set — so the duplicate registration is a no-op
            # and MUST NOT be "undone" here: an unregister would erase the
            # owner's registration and break its unlink accounting.
            entry = _Attachment(shm)
            _attachments[name] = entry
        entry.refcount += 1
        return entry.shm


def _detach_segment(name: str) -> None:
    """Drop one reference; unmap when the last local reference goes."""
    with _attach_lock:
        entry = _attachments.get(name)
        if entry is None:
            return
        entry.refcount -= 1
        if entry.refcount > 0:
            return
        del _attachments[name]
        shm = entry.shm
    try:
        shm.close()
    except BufferError:
        # An ndarray view still points into the mapping; the mapping is
        # freed at process exit instead.  Never fatal.
        pass


# ---------------------------------------------------------------------------
# Handles
# ---------------------------------------------------------------------------

class ArrayHandle:
    """A picklable reference to an immutable array in some store."""

    __slots__ = ()

    kind = "abstract"

    def resolve(self) -> np.ndarray:
        """Return a read-only ndarray view of the stored bytes."""
        raise NotImplementedError

    def release(self) -> None:
        """Drop this handle's attachment (never unlinks)."""


class HeapArrayHandle(ArrayHandle):
    """Handle carrying the array itself; pickling it copies the bytes."""

    __slots__ = ("_array",)

    kind = "heap"

    def __init__(self, array: np.ndarray) -> None:
        arr = np.ascontiguousarray(array)
        if arr is array and arr.flags.writeable:
            arr = arr.view()
        arr.setflags(write=False)
        self._array = arr

    def resolve(self) -> np.ndarray:
        return self._array

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HeapArrayHandle(shape={self._array.shape}, dtype={self._array.dtype})"


class SharedArrayHandle(ArrayHandle):
    """Handle naming a shared segment; unpickles to a zero-copy mapping."""

    __slots__ = ("name", "shape", "dtype", "_array", "_attached")

    kind = "shm"

    def __init__(self, name: str, shape: tuple[int, ...], dtype) -> None:
        self.name = name
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        self._array = None
        self._attached = False

    def __getstate__(self):
        return (self.name, self.shape, self.dtype.str)

    def __setstate__(self, state) -> None:
        name, shape, dtype = state
        self.name = name
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self._array = None
        self._attached = False

    def resolve(self) -> np.ndarray:
        if self._array is None:
            shm = _attach_segment(self.name)
            self._attached = True
            nbytes = int(np.prod(self.shape)) * self.dtype.itemsize
            if shm.size < nbytes:
                _detach_segment(self.name)
                self._attached = False
                raise StoreError(
                    f"shared segment {self.name!r} is smaller than the "
                    f"declared array ({shm.size} < {nbytes} bytes)"
                )
            arr = np.ndarray(self.shape, dtype=self.dtype, buffer=shm.buf)
            arr.setflags(write=False)
            self._array = arr
        return self._array

    def release(self) -> None:
        self._array = None
        if self._attached:
            self._attached = False
            _detach_segment(self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SharedArrayHandle({self.name!r}, shape={self.shape}, dtype={self.dtype})"


# ---------------------------------------------------------------------------
# Stores
# ---------------------------------------------------------------------------

class HeapStore:
    """Default provider: arrays live on the process heap (today's layout)."""

    kind = "heap"

    def __init__(self) -> None:
        self._puts = 0
        self._bytes_put = 0

    def put(self, array: np.ndarray, label: str = "") -> HeapArrayHandle:
        handle = HeapArrayHandle(array)
        self._puts += 1
        self._bytes_put += handle.resolve().nbytes
        return handle

    def stats(self) -> dict:
        """Placement counters (the ``metrics`` report's ``store`` section).

        Heap arrays die with their last reference, so only cumulative put
        traffic is observable — there is no resident-segment count to
        report, unlike :meth:`SharedMemoryStore.stats`.
        """
        return {"kind": self.kind, "puts": self._puts, "bytes_put": self._bytes_put}

    @property
    def closed(self) -> bool:
        return False

    def close(self) -> None:
        """Nothing to reclaim; heap arrays are garbage collected."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "HeapStore()"


def _cleanup_store(owned: dict) -> None:
    """Finalizer body shared by ``close()`` and the atexit/GC hook."""
    for shm in list(owned.values()):
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        except Exception:  # pragma: no cover - best effort at shutdown
            pass
        try:
            shm.close()
        except Exception:  # pragma: no cover
            pass
    owned.clear()


class SharedMemoryStore:
    """Provider backed by named POSIX shared-memory segments.

    ``prefix`` (``repro_<pid>_<random>``) names the segment *family*:
    every segment this store creates starts with it, and the store owns
    and unlinks each one.
    """

    kind = "shm"

    def __init__(self) -> None:
        if _shared_memory is None:  # pragma: no cover
            raise StoreError("shared memory is not available on this platform")
        self.prefix = f"{SEGMENT_PREFIX}{os.getpid():x}_{secrets.token_hex(4)}"
        self._owned: dict[str, object] = {}
        self._counter = 0
        self._puts = 0
        self._bytes_put = 0
        self._closed = False
        self._finalizer = weakref.finalize(self, _cleanup_store, self._owned)

    @property
    def closed(self) -> bool:
        return self._closed

    def put(self, array: np.ndarray, label: str = "") -> SharedArrayHandle:
        if self._closed:
            raise StoreError("store is closed")
        arr = np.ascontiguousarray(array)
        if arr.dtype.kind not in _SHAREABLE_KINDS:
            # Object/string/void bytes are pointers or padding that mean
            # nothing (or crash) once mapped in another process.
            raise StoreError(
                f"cannot share a {arr.dtype} array; only numeric dtypes "
                f"(kinds {_SHAREABLE_KINDS!r}) map across processes"
            )
        name = f"{self.prefix}.{self._counter}"
        if label:
            name = f"{name}.{label}"
        self._counter += 1
        shm = _shared_memory.SharedMemory(
            name=name, create=True, size=max(arr.nbytes, 1)
        )
        # Owned from creation: a failed copy still leaves it to close().
        self._owned[name] = shm
        if arr.nbytes:
            dest = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
            dest[...] = arr
            del dest
        self._puts += 1
        self._bytes_put += arr.nbytes
        return SharedArrayHandle(name, arr.shape, arr.dtype)

    def stats(self) -> dict:
        """Resident segments + cumulative put traffic (``metrics`` report)."""
        return {
            "kind": self.kind,
            "puts": self._puts,
            "bytes_put": self._bytes_put,
            "segments": len(self._owned),
            "segment_bytes": sum(shm.size for shm in self._owned.values()),
        }

    def close(self) -> None:
        """Unlink every owned segment."""
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        _cleanup_store(self._owned)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else f"{len(self._owned)} segments"
        return f"SharedMemoryStore(prefix={self.prefix!r}, {state})"


def make_store(kind: str = "heap"):
    """A fresh store of the named provider, ``"heap"`` or ``"shm"``."""
    if kind == "heap":
        return HeapStore()
    if kind == "shm":
        return SharedMemoryStore()
    raise StoreError(f"unknown store {kind!r}; expected one of {STORES}")
