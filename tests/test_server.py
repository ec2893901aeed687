"""Tests for the asyncio socket front-end.

The server sustains concurrent clients with zero dropped or misordered
responses, answers garbage with structured error frames (the connection
survives), and shuts down gracefully. That :class:`RemoteClient` answers
all five query kinds bit-identically to :class:`LocalClient`, across
executors and under interleaved ingest, is held by the oracle in
``tests/test_oracle.py``.
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.client import LocalClient, RemoteClient, RequestError, ServiceClient
from repro.data.store import shared_memory_available
from repro.eval.harness import QueryAccuracyEvaluator
from repro.service import (
    PROTOCOL_VERSION,
    QueryService,
    response_from_json,
    serve_in_thread,
)
from repro.service.requests import trajectory_to_json
from repro.service.server import FRAME_HEADER, encode_frame
from repro.workloads import RangeQueryWorkload
from tests.conftest import (
    hostile_points_payloads,
    knn_suite,
    repro_shm_segments,
    serving_db,
    shifted_batch,
    wire_array,
)


@pytest.fixture()
def loopback():
    """A fresh loopback server over a 16-trajectory database."""
    db = serving_db(16)
    handle = serve_in_thread(QueryService(db, n_shards=3), close_service=True)
    try:
        yield db, handle
    finally:
        handle.stop()


class _RawConnection:
    """A bare socket speaking frames, for protocol-violation tests."""

    def __init__(self, host, port):
        self.sock = socket.create_connection((host, port), timeout=10.0)

    def send_frame(self, obj) -> None:
        self.sock.sendall(encode_frame(obj))

    def send_bytes(self, data: bytes) -> None:
        self.sock.sendall(data)

    def read_frame(self):
        header = self._recv_exact(FRAME_HEADER.size)
        if header is None:
            return None
        (length,) = FRAME_HEADER.unpack(header)
        return json.loads(self._recv_exact(length))

    def _recv_exact(self, n):
        buf = bytearray()
        while len(buf) < n:
            chunk = self.sock.recv(n - len(buf))
            if not chunk:
                return None if not buf else pytest.fail("truncated frame")
            buf += chunk
        return bytes(buf)

    def hello(self, version=PROTOCOL_VERSION):
        self.send_frame({"type": "hello", "version": version})
        return self.read_frame()

    def close(self):
        self.sock.close()


# ------------------------------------------------------------------ handshake
class TestHandshake:
    def test_hello_carries_serving_metadata(self, loopback):
        db, handle = loopback
        with RemoteClient(handle.host, handle.port) as client:
            info = client.server_info
            assert info["trajectories"] == len(db)
            assert info["n_shards"] == 3
            assert info["epoch"] == 0

    def test_version_mismatch_gets_error_frame_and_close(self, loopback):
        _, handle = loopback
        # 1 is the nested-list array schema this build no longer decodes.
        for version in (999, 1):
            raw = _RawConnection(handle.host, handle.port)
            reply = raw.hello(version=version)
            assert reply["type"] == "error"
            assert reply["error"]["type"] == "RequestError"
            assert "version" in reply["error"]["message"]
            assert raw.read_frame() is None  # server closed the connection
            raw.close()

    def test_first_frame_must_be_hello(self, loopback):
        _, handle = loopback
        raw = _RawConnection(handle.host, handle.port)
        raw.send_frame({"type": "describe", "id": 0})
        reply = raw.read_frame()
        assert reply["type"] == "error"
        assert "hello" in reply["error"]["message"]
        raw.close()

    def test_remote_client_rejects_bad_address(self):
        with pytest.raises(ValueError, match="HOST:PORT"):
            RemoteClient.connect("nonsense")


# ------------------------------------------------------------ error isolation
class TestErrorFrames:
    def test_malformed_json_answered_then_connection_survives(self, loopback):
        db, handle = loopback
        raw = _RawConnection(handle.host, handle.port)
        assert raw.hello()["type"] == "hello"
        raw.send_bytes(FRAME_HEADER.pack(9) + b"not json!")
        reply = raw.read_frame()
        assert reply["type"] == "error"
        assert "JSON" in reply["error"]["message"]
        # The same connection still serves valid traffic afterwards.
        raw.send_frame(
            {
                "type": "request",
                "id": 7,
                "request": {"v": PROTOCOL_VERSION, "kind": "histogram", "grid": 4},
            }
        )
        reply = raw.read_frame()
        assert reply["type"] == "response" and reply["id"] == 7
        histogram = response_from_json(reply["response"]).histogram
        assert histogram.sum() == db.total_points
        raw.close()

    def test_bad_request_is_a_structured_error_not_a_drop(self, loopback):
        _, handle = loopback
        raw = _RawConnection(handle.host, handle.port)
        raw.hello()
        raw.send_frame(
            {
                "type": "request",
                "id": 1,
                "request": {
                    "v": PROTOCOL_VERSION,
                    "kind": "range",
                    "boxes": [[9.0, 1.0, 0.0, 1.0, 0.0, 1.0]],
                },
            }
        )
        reply = raw.read_frame()
        assert reply == {
            "type": "error",
            "id": 1,
            "error": {
                "type": "RequestError",
                "message": reply["error"]["message"],
            },
        }
        assert "bad box bounds" in reply["error"]["message"]
        # Unknown kind and unknown frame type behave the same way.
        raw.send_frame(
            {
                "type": "request",
                "id": 2,
                "request": {"v": PROTOCOL_VERSION, "kind": "teleport"},
            }
        )
        assert "unknown request kind" in raw.read_frame()["error"]["message"]
        raw.send_frame({"type": "warp", "id": 3})
        assert "unknown frame type" in raw.read_frame()["error"]["message"]
        raw.close()

    def test_remote_client_raises_request_error_from_server(self, loopback):
        db, handle = loopback
        queries, _ = knn_suite(db, n_queries=1)
        with RemoteClient(handle.host, handle.port) as client:
            obj = {
                "v": PROTOCOL_VERSION,
                "kind": "knn",
                "queries": [trajectory_to_json(queries[0])],
                "k": 2,
                "measure": "t2vec",  # decode-time rejection server-side
            }
            with pytest.raises(RequestError, match="t2vec"):
                client._round_trip({"type": "request", "request": obj})
            # The connection survives the rejected request.
            assert client.histogram(4).histogram.sum() == db.total_points

    def test_execution_error_keeps_connection_alive(self, loopback):
        db, handle = loopback
        queries, _ = knn_suite(db, n_queries=1)
        from repro.client import ServerError

        with RemoteClient(handle.host, handle.port) as client:
            # Well-formed on the wire, rejected at execution time (decode
            # knows no measure list; the engine raises): must arrive as a
            # non-RequestError error frame, not a dropped connection.
            obj = {
                "v": PROTOCOL_VERSION,
                "kind": "knn",
                "queries": [trajectory_to_json(queries[0])],
                "k": 2,
                "measure": "no_such_measure",
            }
            with pytest.raises(ServerError, match="unknown measure"):
                client._round_trip({"type": "request", "request": obj})
            assert client.histogram(4).histogram.sum() == db.total_points

    def test_oversized_histogram_grid_answered_then_connection_survives(
        self, loopback
    ):
        """A grid whose raster could never fit in a reply frame is refused
        at decode, before anything is computed or cached."""
        db, handle = loopback
        raw = _RawConnection(handle.host, handle.port)
        raw.hello()
        raw.send_frame(
            {
                "type": "request",
                "id": 1,
                "request": {"v": PROTOCOL_VERSION, "kind": "histogram", "grid": 3000},
            }
        )
        reply = raw.read_frame()
        assert reply["type"] == "error" and reply["id"] == 1
        assert reply["error"]["type"] == "RequestError"
        assert "frame cap" in reply["error"]["message"]
        raw.send_frame(
            {
                "type": "request",
                "id": 2,
                "request": {"v": PROTOCOL_VERSION, "kind": "histogram", "grid": 4},
            }
        )
        reply = raw.read_frame()
        assert reply["type"] == "response" and reply["id"] == 2
        histogram = response_from_json(reply["response"]).histogram
        assert histogram.sum() == db.total_points
        raw.close()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("n_checkpoints", 10**12, "frame cap"),
            ("time_windows", [[10.0, 5.0]], "ends before it starts"),
        ],
        ids=["oversized-n_checkpoints", "inverted-window"],
    )
    def test_bad_similarity_answered_then_connection_survives(
        self, loopback, field, value, message
    ):
        """A similarity request that every shard would refuse, or would
        answer only by building a huge checkpoint array, is refused at
        decode."""
        db, handle = loopback
        queries, _ = knn_suite(db, n_queries=1)
        raw = _RawConnection(handle.host, handle.port)
        raw.hello()
        similarity = {
            "v": PROTOCOL_VERSION,
            "kind": "similarity",
            "queries": [trajectory_to_json(queries[0])],
            "delta": 5.0,
        }
        raw.send_frame(
            {"type": "request", "id": 1, "request": {**similarity, field: value}}
        )
        reply = raw.read_frame()
        assert reply["type"] == "error" and reply["id"] == 1
        assert reply["error"]["type"] == "RequestError"
        assert message in reply["error"]["message"]
        raw.send_frame({"type": "request", "id": 2, "request": similarity})
        reply = raw.read_frame()
        assert reply["type"] == "response" and reply["id"] == 2
        assert reply["response"]["epoch"] == 0
        raw.close()

    def test_ingest_frame_validation(self, loopback):
        _, handle = loopback
        raw = _RawConnection(handle.host, handle.port)
        raw.hello()
        raw.send_frame({"type": "ingest", "id": 4, "trajectories": "nope"})
        assert "array" in raw.read_frame()["error"]["message"]
        raw.close()

    def test_non_finite_ingest_is_rejected_and_connection_survives(self, loopback):
        db, handle = loopback
        raw = _RawConnection(handle.host, handle.port)
        raw.hello()
        points = wire_array([[float("nan"), 0.0, 0.0], [1.0, 1.0, 1.0]])
        raw.send_frame(
            {"type": "ingest", "id": 5, "trajectories": [{"points": points}]}
        )
        reply = raw.read_frame()
        assert reply["type"] == "error" and reply["id"] == 5
        assert reply["error"]["type"] == "RequestError"
        assert "finite" in reply["error"]["message"]
        box = db.bounding_box
        raw.send_frame(
            {
                "type": "request",
                "id": 6,
                "request": {
                    "v": PROTOCOL_VERSION,
                    "kind": "range",
                    "boxes": [[box.xmin, box.xmax, box.ymin, box.ymax,
                               box.tmin, box.tmax]],
                },
            }
        )
        reply = raw.read_frame()
        assert reply["type"] == "response" and reply["id"] == 6
        # Nothing was ingested: the epoch never moved and the whole-extent
        # box holds exactly the initial trajectories.
        assert reply["response"]["epoch"] == 0
        assert reply["response"]["result_sets"] == [list(range(len(db)))]
        raw.close()

    def test_hostile_array_payloads_answered_then_connection_survives(
        self, loopback
    ):
        db, handle = loopback
        box = db.bounding_box
        count_all = {
            "v": PROTOCOL_VERSION,
            "kind": "count",
            "boxes": [[box.xmin, box.xmax, box.ymin, box.ymax, box.tmin, box.tmax]],
        }
        raw = _RawConnection(handle.host, handle.port)
        raw.hello()
        rid = 0
        for case, points, match in hostile_points_payloads():
            hostile_frames = (
                {
                    "type": "request",
                    "request": {
                        "v": PROTOCOL_VERSION,
                        "kind": "knn",
                        "queries": [{"id": 0, "points": points}],
                        "k": 1,
                    },
                },
                {"type": "ingest", "trajectories": [{"points": points}]},
            )
            for frame in hostile_frames:
                rid += 1
                raw.send_frame({**frame, "id": rid})
                reply = raw.read_frame()
                assert reply["type"] == "error" and reply["id"] == rid, case
                assert reply["error"]["type"] == "RequestError", case
                assert re.search(match, reply["error"]["message"]), case
                # The same connection answers the next request.
                rid += 1
                raw.send_frame({"type": "request", "id": rid, "request": count_all})
                reply = raw.read_frame()
                assert reply["type"] == "response" and reply["id"] == rid, case
                response = response_from_json(reply["response"])
                assert response.epoch == 0, case  # nothing was ingested
                assert response.counts.tolist() == [db.total_points], case
        raw.close()


# -------------------------------------------------------------- transport parity
EXECUTORS_TO_TEST = ["serial", "process"]


class TestThreeTransportParity:
    """The acceptance criterion: bit-identical across all three clients,
    both executors, under interleaved ingest (fixed cases of what the
    oracle in ``tests/test_oracle.py`` drives through the serving matrix)."""

    @pytest.mark.parametrize("executor", EXECUTORS_TO_TEST)
    def test_all_five_kinds_with_interleaved_ingest(self, executor):
        db = serving_db(14, seed=11)
        workload = RangeQueryWorkload.from_data_distribution(db, 10, seed=3)
        queries, windows = knn_suite(db, n_queries=2, seed=2)
        eps, delta = 200.0, 80.0

        handle = serve_in_thread(
            QueryService(db, n_shards=3, executor=executor),
            close_service=True,
        )
        local = LocalClient(db)
        service = ServiceClient.for_database(db, n_shards=3, executor=executor)
        remote = RemoteClient(handle.host, handle.port)
        clients = {"local": local, "service": service, "remote": remote}

        def ask(c):
            return (
                c.range(workload),
                c.count(workload.boxes),
                c.histogram(8),
                c.knn(queries, 2, windows, eps=eps),
                c.similarity(queries, delta),
            )

        def values(responses):
            rng, count, hist, knn, sim = responses
            return (
                rng.result_sets,
                count.counts,
                hist.histogram,
                knn.pairs,
                sim.result_sets,
            )

        try:
            for round_no in range(2):
                answers = {name: values(ask(c)) for name, c in clients.items()}
                # The remote repeat is a cache hit the server answers on its
                # event loop; it must equal LocalClient at every epoch.
                repeat = ask(remote)
                assert all(r.cached for r in repeat), round_no
                answers["remote, cached"] = values(repeat)
                reference = answers["local"]
                for name, got in answers.items():
                    assert got[0] == reference[0], f"range diverged ({name})"
                    assert np.array_equal(got[1], reference[1]), (
                        f"count diverged ({name})"
                    )
                    assert np.array_equal(got[2], reference[2]), (
                        f"histogram diverged ({name})"
                    )
                    assert got[3] == reference[3], f"kNN diverged ({name})"
                    assert got[4] == reference[4], f"similarity diverged ({name})"
                batch = shifted_batch(
                    db, 2, seed=round_no, shift=(35.0, -25.0)
                )
                epochs = {n: c.ingest(batch).epoch for n, c in clients.items()}
                assert len(set(epochs.values())) == 1, epochs
        finally:
            for c in clients.values():
                c.close()
            handle.stop()

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 40))
    def test_property_remote_equals_local(self, seed):
        db = serving_db(10, seed=seed)
        workload = RangeQueryWorkload.from_data_distribution(db, 6, seed=seed)
        queries, windows = knn_suite(db, n_queries=2, seed=seed)
        handle = serve_in_thread(
            QueryService(db, n_shards=2), close_service=True
        )
        try:
            with LocalClient(db) as local, RemoteClient(
                handle.host, handle.port
            ) as remote:
                assert (
                    remote.range(workload).result_sets
                    == local.range(workload).result_sets
                )
                assert remote.knn(queries, 2, windows, eps=300.0).pairs == (
                    local.knn(queries, 2, windows, eps=300.0).pairs
                )
                batch = shifted_batch(db, 2, seed=seed, shift=(35.0, -25.0))
                local.ingest(batch)
                remote.ingest(batch)
                assert (
                    remote.similarity(queries, 90.0).result_sets
                    == local.similarity(queries, 90.0).result_sets
                )
        finally:
            handle.stop()

    def test_harness_scores_identical_through_remote(self, loopback):
        db, handle = loopback
        evaluator = QueryAccuracyEvaluator(db)
        tasks = ("range", "knn_edr", "similarity")
        with RemoteClient(handle.host, handle.port) as client:
            assert evaluator.evaluate(db, tasks, client=client) == (
                evaluator.evaluate(db, tasks)
            )


# ---------------------------------------------------------------- concurrency
class TestConcurrentClients:
    def test_eight_clients_no_drops_no_misorder(self, loopback):
        """Eight threaded clients loop range and kNN requests while a ninth
        connection ingests one batch: every reply equals the reference for
        the epoch it is stamped with, and a request sent after the ingest
        reply returned is stamped with epoch >= 1."""
        db, handle = loopback
        workload = RangeQueryWorkload.from_data_distribution(db, 8, seed=3)
        queries, windows = knn_suite(db, n_queries=2)
        batch = shifted_batch(db, 3, seed=2, shift=(1.0, -1.0))
        want_range, want_pairs = {}, {}
        for epoch, state in enumerate((db, db.extended(batch))):
            with LocalClient(state) as local:
                want_range[epoch] = local.range(workload).result_sets
                want_pairs[epoch] = local.knn(queries, 2, windows, eps=250.0).pairs
        assert want_range[0] != want_range[1], "the batch must move a range answer"
        errors: list[str] = []
        started = threading.Barrier(9, timeout=60)
        ingested = threading.Event()

        def loop(idx: int) -> None:
            try:
                # RemoteClient verifies every response id echo internally:
                # any dropped or reordered reply raises.
                with RemoteClient(handle.host, handle.port) as client:
                    i = sent_after_ingest = 0
                    while i < 6 or sent_after_ingest < 2:
                        after = ingested.is_set()
                        if (idx + i) % 2 == 0:
                            reply = client.range(workload)
                            ok = reply.result_sets == want_range.get(reply.epoch)
                        else:
                            reply = client.knn(queries, 2, windows, eps=250.0)
                            ok = reply.pairs == want_pairs.get(reply.epoch)
                        if not ok:
                            errors.append(
                                f"client {idx}: {reply.kind} mismatch "
                                f"at epoch {reply.epoch}"
                            )
                        if after and reply.epoch < 1:
                            errors.append(
                                f"client {idx}: sent after the ingest "
                                "returned, stamped epoch 0"
                            )
                        if i == 0:
                            started.wait()  # the ingest lands mid-loop
                        i += 1
                        sent_after_ingest += after
            except Exception as exc:
                started.abort()
                errors.append(f"client {idx}: {type(exc).__name__}: {exc}")

        def ingest() -> None:
            try:
                with RemoteClient(handle.host, handle.port) as client:
                    started.wait()
                    if client.ingest(batch).epoch != 1:
                        errors.append("ingest did not advance the epoch to 1")
            except Exception as exc:
                started.abort()
                errors.append(f"ingest: {type(exc).__name__}: {exc}")
            finally:
                ingested.set()

        threads = [threading.Thread(target=loop, args=(i,)) for i in range(8)]
        threads.append(threading.Thread(target=ingest))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads), "client threads hung"
        assert not errors, "\n".join(errors)

    def test_shared_client_is_thread_safe(self, loopback):
        db, handle = loopback
        boxes = [db.bounding_box]
        errors: list[str] = []
        with RemoteClient(handle.host, handle.port) as client:
            def loop() -> None:
                try:
                    for _ in range(5):
                        client.count(boxes)
                except Exception as exc:
                    errors.append(f"{type(exc).__name__}: {exc}")

            threads = [threading.Thread(target=loop) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        assert not errors, "\n".join(errors)


# ------------------------------------------------------------------- shutdown
class TestShutdown:
    def test_graceful_stop_refuses_new_connections(self):
        db = serving_db(8, seed=40)
        handle = serve_in_thread(QueryService(db, n_shards=2), close_service=True)
        with RemoteClient(handle.host, handle.port) as client:
            client.histogram(4)
        address = (handle.host, handle.port)
        handle.stop()
        handle.stop()  # idempotent
        with pytest.raises(OSError):
            socket.create_connection(address, timeout=2.0)

    def test_stop_closes_owned_service(self):
        db = serving_db(8, seed=41)
        service = QueryService(db, n_shards=2)
        handle = serve_in_thread(service, close_service=True)
        handle.stop()
        with pytest.raises(RuntimeError, match="closed"):
            from repro.service import HistogramRequest

            service.execute(HistogramRequest())

    def test_client_close_is_idempotent_and_sends_bye(self, loopback):
        _, handle = loopback
        client = RemoteClient(handle.host, handle.port)
        client.histogram(4)
        client.close()
        client.close()
        with pytest.raises(RuntimeError, match="closed"):
            client.histogram(4)


# ------------------------------------------------------------------------ CLI
def _proc_stat(pid) -> list[str] | None:
    """``/proc/<pid>/stat`` after the command name: state, ppid, ..."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()
    except OSError:
        return None


def _children(pid: int) -> list[int]:
    """Pids whose parent is ``pid``."""
    return [
        int(entry)
        for entry in os.listdir("/proc")
        if entry.isdigit()
        and (stat := _proc_stat(entry)) is not None
        and int(stat[1]) == pid
    ]


def _ended(pid: int) -> bool:
    stat = _proc_stat(pid)
    # A zombie has ended; only its (new) parent can reap it.
    return stat is None or stat[0] == "Z"


class TestServeListenCLI:
    def _roundtrip_then_signal(self, tmp_path, signum):
        """Serve over worker processes (+ shm where available), run the
        one-shot client commands, then stop the server with ``signum``: it
        must exit 0 and take its workers and segments with it."""
        from repro.data import save_database

        db = serving_db(10, seed=50)
        db_path = tmp_path / "db.npz"
        save_database(db, db_path)
        workload = RangeQueryWorkload.from_data_distribution(db, 5, seed=1)
        workload_path = tmp_path / "wl.json"
        workload.save(workload_path)

        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONUNBUFFERED"] = "1"
        segments_before = repro_shm_segments()
        children: list[int] = []
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--db", str(db_path), "--shards", "2",
                "--executor", "process",
                "--store", "shm" if shared_memory_available() else "heap",
                "--listen", "127.0.0.1:0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            address = None
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                if line.startswith("listening on "):
                    address = line.split()[-1].strip()
                    break
            assert address, "server never printed its listen address"

            # One-shot `repro client` commands against the live server.
            out = subprocess.run(
                [
                    sys.executable, "-m", "repro", "client",
                    "--connect", address, "--type", "describe",
                ],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert out.returncode == 0
            assert json.loads(out.stdout)["trajectories"] == len(db)

            out = subprocess.run(
                [
                    sys.executable, "-m", "repro", "client",
                    "--connect", address, "--type", "range",
                    "--workload", str(workload_path),
                ],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert out.returncode == 0
            body = json.loads(out.stdout)
            with LocalClient(db) as local:
                want = [sorted(s) for s in local.range(workload).result_sets]
            assert body["results"] == want

            out = subprocess.run(
                [
                    sys.executable, "-m", "repro", "client",
                    "--connect", address, "--type", "knn",
                    "--query-db", str(db_path), "--ids", "0", "1",
                    "-k", "2", "--eps", "250.0",
                ],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert out.returncode == 0
            assert len(json.loads(out.stdout)["neighbors"]) == 2

            children = _children(proc.pid)
            assert len(children) >= 2  # the shard workers, at least
            proc.send_signal(signum)
            assert proc.wait(timeout=30) == 0
            # The resource tracker outlives the server by a moment (it
            # exits once the last holder of its pipe has).
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and not all(map(_ended, children)):
                time.sleep(0.02)
            assert [pid for pid in children if not _ended(pid)] == []
            assert repro_shm_segments() == segments_before
        finally:
            # A red run must not poison the rest of the session: take down
            # whatever the server left behind.
            if proc.poll() is None:
                children = _children(proc.pid)
                proc.kill()
                proc.wait(timeout=10)
            proc.stdout.close()
            for pid in children:
                if not _ended(pid):
                    os.kill(pid, signal.SIGKILL)
            for name in repro_shm_segments():
                if name not in segments_before:
                    os.unlink(f"/dev/shm/{name}")

    def test_serve_listen_roundtrip_and_sigint(self, tmp_path):
        self._roundtrip_then_signal(tmp_path, signal.SIGINT)

    def test_serve_listen_sigterm_shuts_down_like_sigint(self, tmp_path):
        self._roundtrip_then_signal(tmp_path, signal.SIGTERM)

    def test_client_requires_query_db_for_knn(self, loopback):
        from repro.cli import main

        _, handle = loopback
        with pytest.raises(SystemExit, match="query-db"):
            main([
                "client", "--connect", f"{handle.host}:{handle.port}",
                "--type", "knn", "--ids", "0",
            ])
