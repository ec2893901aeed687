"""Deterministic trajectory-to-shard assignment rules.

These are data-layer primitives (they need nothing beyond a trajectory's
points), defined here so both :meth:`TrajectoryDatabase.partition_ids`
and the service layer's :class:`~repro.service.sharding.ShardManager`
import the SAME rule downward — the bulk membership view and live shard
routing can never drift apart, and the data -> engine -> service layering
stays one-way.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - type-only imports, no runtime cycle
    from repro.data.database import TrajectoryDatabase
    from repro.data.trajectory import Trajectory

PARTITIONERS = ("hash", "spatial")


def centroid_x(trajectory: "Trajectory") -> float:
    """A trajectory's centroid x-coordinate, in routing arithmetic.

    Same summation order as ``TrajectoryDatabase.centroids()`` (a
    single-segment reduceat) — ``points[:, 0].mean()`` uses pairwise
    summation and can land on the other side of a quantile cut by one
    ulp, splitting the rule in two. Every spatial-routing decision
    (initial partition, streamed ingest) must go through this one
    function.
    """
    return float(
        np.add.reduceat(trajectory.points[:, 0], [0])[0] / len(trajectory)
    )


class HashPartitioner:
    """Round-robin assignment: global id ``g`` lives on shard ``g % K``.

    Geometry-oblivious but perfectly balanced under streaming, and every
    shard's global-id sequence is strictly increasing — a property the
    service's exact kNN merge relies on (per-shard local order ==
    global-id order).
    """

    name = "hash"

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = n_shards

    def assign(self, global_id: int, trajectory: "Trajectory") -> int:
        return global_id % self.n_shards


class SpatialPartitioner:
    """Quantile slabs along the x-coordinate of trajectory centroids.

    Cut points are fixed when the partitioner is built (from the initial
    database), so streamed-in trajectories route deterministically without
    re-balancing; spatially selective queries then concentrate their work
    on few shards.
    """

    name = "spatial"

    def __init__(self, boundaries: np.ndarray, n_shards: int) -> None:
        self.boundaries = np.asarray(boundaries, dtype=float)
        if len(self.boundaries) != n_shards - 1:
            raise ValueError("need exactly n_shards - 1 cut points")
        self.n_shards = n_shards

    @classmethod
    def from_database(
        cls, db: "TrajectoryDatabase", n_shards: int
    ) -> "SpatialPartitioner":
        x = db.centroids()[:, 0]
        boundaries = np.quantile(x, np.linspace(0.0, 1.0, n_shards + 1)[1:-1])
        return cls(boundaries, n_shards)

    def assign(self, global_id: int, trajectory: "Trajectory") -> int:
        return int(
            np.searchsorted(self.boundaries, centroid_x(trajectory), side="right")
        )


def make_partitioner(
    strategy: str, db: "TrajectoryDatabase", n_shards: int
) -> HashPartitioner | SpatialPartitioner:
    """Build the named partitioner for ``db``."""
    if strategy == "hash":
        return HashPartitioner(n_shards)
    if strategy == "spatial":
        return SpatialPartitioner.from_database(db, n_shards)
    raise ValueError(
        f"unknown partition strategy {strategy!r}; choose from {PARTITIONERS}"
    )
