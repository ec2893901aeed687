"""Remote querying: the unified client API over the asyncio socket server.

The same typed query surface (:class:`repro.client.Client`) runs over
three transports — an in-process engine, a sharded service, and a TCP
socket — and the three are bit-identical by construction. This example
proves it end to end:

1. build a synthetic database and serve it over a loopback asyncio
   socket server (what ``repro serve --listen HOST:PORT`` runs),
2. connect a :class:`~repro.client.RemoteClient` and run all five query
   kinds,
3. stream extra trajectories in over the wire and watch the epoch move,
4. cross-check every answer against a :class:`~repro.client.LocalClient`
   over the same data.

Run with::

    python examples/remote_client.py
"""

from __future__ import annotations

import numpy as np

from repro import LocalClient, QueryService, RemoteClient, synthetic_database
from repro.data.stats import spatial_scale
from repro.data.trajectory import Trajectory
from repro.service.server import serve_in_thread
from repro.workloads import RangeQueryWorkload


def main() -> None:
    # 1. A small database behind a loopback socket server. port=0 lets the
    #    OS pick a free port; serve_in_thread returns once it listens.
    db = synthetic_database("geolife", n_trajectories=60, points_scale=0.08, seed=7)
    handle = serve_in_thread(
        QueryService(db, n_shards=4), close_service=True
    )
    print(f"server listening on {handle.host}:{handle.port}")

    workload = RangeQueryWorkload.from_data_distribution(db, 25, seed=3)
    queries = [db[i] for i in (2, 11, 29)]
    eps = 0.10 * spatial_scale(db)
    delta = 0.15 * spatial_scale(db)

    # 2. Every query kind over the wire. RemoteClient is a sync facade:
    #    each call is one length-prefixed JSON frame round-trip.
    remote = RemoteClient(handle.host, handle.port)
    local = LocalClient(db)
    print(f"handshake: {remote.server_info['trajectories']} trajectories, "
          f"{remote.server_info['n_shards']} shards, "
          f"epoch {remote.server_info['epoch']}")

    for name, call in [
        ("range", lambda c: c.range(workload).result_sets),
        ("count", lambda c: c.count(workload.boxes).counts),
        ("histogram", lambda c: c.histogram(grid=24).histogram),
        ("knn", lambda c: c.knn(queries, k=3, eps=eps).neighbors),
        ("similarity", lambda c: c.similarity(queries, delta).result_sets),
    ]:
        remote_answer, local_answer = call(remote), call(local)
        same = (
            np.array_equal(remote_answer, local_answer)
            if isinstance(remote_answer, np.ndarray)
            else remote_answer == local_answer
        )
        print(f"{name:<12} remote == local: {same}")

    # 3. Streamed ingest over the wire: trajectories serialize into the
    #    request frame, land in the shards' pending tiers, and bump the
    #    serving epoch (which invalidates result caches by construction).
    rng = np.random.default_rng(0)
    batch = []
    for _ in range(5):
        base = db[int(rng.integers(len(db)))].points
        batch.append(Trajectory(base + np.array([50.0, -25.0, 0.0])))
    result = remote.ingest(batch)
    local.ingest(batch)
    print(f"\ningested {result.added} trajectories -> epoch {result.epoch}")

    # 4. Still bit-identical after ingest.
    r_sets = remote.range(workload).result_sets
    l_sets = local.range(workload).result_sets
    print(f"post-ingest range parity: {r_sets == l_sets}")
    print(f"post-ingest kNN parity:   "
          f"{remote.knn(queries, 3, eps=eps).pairs == local.knn(queries, 3, eps=eps).pairs}")

    remote.close()
    local.close()
    handle.stop()
    print("server stopped cleanly")


if __name__ == "__main__":
    main()
