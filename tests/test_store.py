"""Unit tests for the pluggable array-store providers (repro.data.store)."""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro.data.store import (
    SEGMENT_PREFIX,
    STORES,
    HeapArrayHandle,
    HeapStore,
    SharedArrayHandle,
    SharedMemoryStore,
    StoreError,
    _attachments,
    make_store,
    shared_memory_available,
)

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="no shared memory on this platform"
)


def shm_entries(prefix: str) -> list[str]:
    return sorted(f for f in os.listdir("/dev/shm") if f.startswith(prefix))


# ---------------------------------------------------------------------------
# HeapStore
# ---------------------------------------------------------------------------

class TestHeapStore:
    def test_put_resolve_round_trip(self):
        store = HeapStore()
        arr = np.arange(12, dtype=np.float64).reshape(4, 3)
        handle = store.put(arr, label="matrix")
        out = handle.resolve()
        np.testing.assert_array_equal(out, arr)
        assert out.dtype == arr.dtype

    def test_resolved_view_is_read_only(self):
        handle = HeapStore().put(np.arange(5.0))
        out = handle.resolve()
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[0] = 99.0

    def test_put_does_not_freeze_callers_array(self):
        arr = np.arange(6.0)
        HeapStore().put(arr)
        arr[0] = -1.0  # caller's array stays writable

    def test_handle_pickles_by_value(self):
        handle = HeapStore().put(np.arange(4.0))
        clone = pickle.loads(pickle.dumps(handle))
        np.testing.assert_array_equal(clone.resolve(), np.arange(4.0))

    def test_spec_and_lifecycle_are_no_ops(self):
        store = HeapStore()
        assert store.kind == "heap"
        assert not store.closed
        handle = store.put(np.arange(3.0))
        store.close()
        np.testing.assert_array_equal(handle.resolve(), np.arange(3.0))


# ---------------------------------------------------------------------------
# SharedMemoryStore
# ---------------------------------------------------------------------------

class TestSharedMemoryStore:
    def test_put_resolve_round_trip_bit_identical(self):
        with SharedMemoryStore() as store:
            arr = np.random.default_rng(0).random((100, 3))
            out = store.put(arr, label="m").resolve()
            np.testing.assert_array_equal(out, arr)
            assert out.dtype == arr.dtype
            assert not out.flags.writeable

    def test_segment_names_carry_prefix_and_label(self):
        with SharedMemoryStore() as store:
            handle = store.put(np.arange(4.0), label="s0m")
            assert handle.name.startswith(store.prefix)
            assert handle.name.endswith(".s0m")
            assert shm_entries(store.prefix) == [handle.name]

    def test_handle_pickles_by_name_not_bytes(self):
        with SharedMemoryStore() as store:
            arr = np.random.default_rng(1).random((2048, 3))
            handle = store.put(arr)
            payload = pickle.dumps(handle)
            # The whole point: the pickle is a descriptor, not the bytes.
            assert len(payload) < 512
            clone = pickle.loads(payload)
            try:
                np.testing.assert_array_equal(clone.resolve(), arr)
            finally:
                clone.release()

    def test_attach_is_refcounted(self):
        with SharedMemoryStore() as store:
            handle = store.put(np.arange(8.0))
            a = pickle.loads(pickle.dumps(handle))
            b = pickle.loads(pickle.dumps(handle))
            a.resolve()
            b.resolve()
            assert _attachments[handle.name].refcount == 2
            a.release()
            assert _attachments[handle.name].refcount == 1
            b.release()
            assert handle.name not in _attachments

    def test_release_is_idempotent_and_never_unlinks(self):
        with SharedMemoryStore() as store:
            handle = store.put(np.arange(8.0))
            clone = pickle.loads(pickle.dumps(handle))
            clone.resolve()
            clone.release()
            clone.release()
            # Segment still exists: only the owner unlinks.
            np.testing.assert_array_equal(
                pickle.loads(pickle.dumps(handle)).resolve(), np.arange(8.0)
            )

    def test_close_unlinks_owned_segments(self):
        store = SharedMemoryStore()
        store.put(np.arange(4.0), label="a")
        store.put(np.arange(6.0), label="b")
        assert len(shm_entries(store.prefix)) == 2
        store.close()
        assert store.closed
        assert shm_entries(store.prefix) == []
        store.close()  # idempotent

    def test_put_after_close_raises(self):
        store = SharedMemoryStore()
        store.close()
        with pytest.raises(StoreError):
            store.put(np.arange(3.0))

    def test_resolve_after_owner_close_raises(self):
        store = SharedMemoryStore()
        handle = store.put(np.arange(4.0))
        clone = pickle.loads(pickle.dumps(handle))
        store.close()
        with pytest.raises(StoreError):
            clone.resolve()

    def test_empty_array_round_trip(self):
        with SharedMemoryStore() as store:
            out = store.put(np.empty((0, 3))).resolve()
            assert out.shape == (0, 3)

    @pytest.mark.parametrize(
        "array",
        [
            np.array([object(), "x"], dtype=object),
            np.array(["ab", "c"]),
            np.array([b"ab", b"c"]),
            np.zeros(2, dtype="V8"),
        ],
        ids=["object", "str", "bytes", "void"],
    )
    def test_put_rejects_non_numeric_dtypes(self, array):
        """Object/string/void bytes mean nothing in another process (an
        object array's are PyObject pointers): refused before any segment
        exists, so nothing reaches /dev/shm."""
        with SharedMemoryStore() as store:
            store.put(np.arange(3.0), label="keep")
            before = shm_entries(store.prefix)
            with pytest.raises(StoreError):
                store.put(array, label="bad")
            assert shm_entries(store.prefix) == before
            assert store.stats()["segments"] == 1

    def test_finalizer_cleans_up_on_gc(self):
        store = SharedMemoryStore()
        prefix = store.prefix
        store.put(np.arange(4.0))
        del store
        import gc

        gc.collect()
        assert shm_entries(prefix) == []


# ---------------------------------------------------------------------------
# factory
# ---------------------------------------------------------------------------

def test_make_store_accepts_all_spellings():
    assert isinstance(make_store("heap"), HeapStore)
    with make_store("shm") as shm_store:
        assert isinstance(shm_store, SharedMemoryStore)
        assert shm_store.prefix.startswith(SEGMENT_PREFIX)
    with pytest.raises(StoreError):
        make_store("mmap")


def test_stores_tuple_matches_prefix_constant():
    assert STORES == ("heap", "shm")
    assert SEGMENT_PREFIX.startswith("repro")
