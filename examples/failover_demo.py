"""Replication and failover, end to end.

With ``replicas=2`` every shard runs two worker processes attached to the
same shared base segments, so killing any single worker loses nothing:
queries fail over to the sibling replica mid-request, the watchdog
restarts the dead worker from the current snapshot plus the replayed
ingest log, and answers stay bit-identical throughout. This example:

1. serves a synthetic database with 2 shards x 2 replicas and a fast
   watchdog,
2. records reference answers, then SIGKILLs one worker mid-workload and
   shows the same answers coming back with zero failed queries,
3. waits for the watchdog to put the replica back and prints the
   replication counters it exported along the way.

Run with::

    python examples/failover_demo.py
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np

from repro import QueryService, synthetic_database
from repro.client import ServiceClient
from repro.workloads import RangeQueryWorkload


def wait_for(predicate, timeout_s: float = 15.0):
    """Poll ``predicate`` until it returns something truthy; return that."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        result = predicate()
        if result:
            return result
        time.sleep(0.05)
    raise TimeoutError("condition not met in time")


def main() -> None:
    db = synthetic_database("geolife", n_trajectories=24, seed=7)
    workload = RangeQueryWorkload.from_data_distribution(db, 6, seed=3)

    service = QueryService(
        db,
        n_shards=2,
        executor="process",
        replicas=2,
        watchdog_interval=0.25,
        watchdog_deadline=5.0,
    )
    with ServiceClient(service, own_service=True) as client:
        executor = service._executor
        probe = executor.liveness()
        print(
            f"serving {len(db)} trajectories on {service.manager.n_shards} "
            f"shards x 2 replicas ({probe['replicas_live']} workers live)"
        )
        reference = client.count(workload.boxes).counts

        # ---- SIGKILL one worker mid-workload: nothing is lost -------------
        victim = executor.worker_pids()[0]
        print(f"\nSIGKILL worker {victim} and keep querying ...")
        for i in range(20):
            if i == 5:
                os.kill(victim, signal.SIGKILL)
            service.clear_cache()  # every query reaches the shard workers
            counts = client.count(workload.boxes).counts
            assert np.array_equal(counts, reference)
        print("20/20 queries answered, every answer identical")

        # ---- the watchdog puts the replica back ---------------------------
        def restarted() -> dict | None:
            stats = executor.replication_stats()
            counters = stats["counters"]["counters"]
            done = counters.get("replication.restarts", 0) >= 1
            return stats if done and stats["replicas_live"] == 4 else None

        stats = wait_for(restarted)
        counters = stats["counters"]["counters"]
        print(
            f"watchdog healed the set: {stats['replicas_live']}/"
            f"{stats['replicas_total']} live, "
            f"failovers={counters.get('replication.failovers', 0)}, "
            f"restarts={counters.get('replication.restarts', 0)}"
        )
        service.clear_cache()
        assert np.array_equal(client.count(workload.boxes).counts, reference)
        print("\nanswers were bit-identical through kill and restart.")


if __name__ == "__main__":
    main()
