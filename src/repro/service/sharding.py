"""Shard partitioning and membership management.

A :class:`ShardManager` splits a :class:`~repro.data.TrajectoryDatabase`
into ``K`` shards, each owning a disjoint subset of the trajectories. The
manager lives in the serving process and is the source of truth for
membership: it assigns global trajectory ids, places global id ``g`` on
shard ``g % K`` (the initial split and streamed ingests alike), and tracks
the *shard epoch* — a counter bumped on every ingest batch that the request
layer uses to key its result cache (results can only change when the epoch
does).

Shard *execution* state (the per-shard CSR point matrix and
:class:`~repro.queries.engine.QueryEngine`) lives in
:class:`~repro.service.runtime.ShardRuntime` objects, which may run in the
serving process (``serial`` transport) or in per-shard worker processes
(``process`` transport) — see :mod:`repro.service.executors`. The manager
keeps each shard's membership as a :class:`Shard`; runtimes are built
only from the columnar :class:`ShardSnapshot` that
:meth:`ShardManager.export_snapshots` freezes it into.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.bbox import BoundingBox
from repro.data.database import TrajectoryDatabase
from repro.data.trajectory import Trajectory


@dataclass
class Shard:
    """The manager's record of one shard's membership.

    ``trajectories[i]`` holds global id ``global_ids[i]``; the list is
    ordered by global id (ascending), which the ``g % K`` rule and the
    append-only ingest path preserve, and which the service's exact kNN
    merge relies on (per-shard local order == global-id order).
    """

    index: int
    trajectories: list[Trajectory] = field(default_factory=list)
    global_ids: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.trajectories)


@dataclass
class ShardSnapshot:
    """A columnar shard snapshot: membership as array-store handles.

    Exported by :meth:`ShardManager.export_snapshots`. Instead of a list of
    trajectory objects it carries the shard's CSR layout — the ``(N, 3)``
    point matrix and ``(M + 1,)`` row offsets — as
    :class:`~repro.data.store.ArrayHandle` references into whichever store
    produced it. Under the heap store, pickling a snapshot copies the
    arrays (the old behaviour, minus per-object overhead); under the
    shared-memory store the pickle is a few hundred bytes of segment names
    and the receiving process *maps* the base tier instead of unpickling
    it. The exporting store owns those segments; runtimes only map them,
    and keep the tiers they compact on their own heap.
    """

    index: int
    global_ids: np.ndarray
    matrix: object  # ArrayHandle for the (N, 3) float64 point matrix
    offsets: object  # ArrayHandle for the (M + 1,) int64 row offsets

    def __len__(self) -> int:
        return len(self.global_ids)


class ShardManager:
    """Partitions a database into shards and routes streamed ingests.

    Build one with :meth:`create`; hand :meth:`export_snapshots` to a
    scatter/gather executor. All query execution goes through executors —
    the manager only owns membership, the global extent, and the epoch.
    The shard count is fixed at construction: ingests grow shards, never
    add or remove them.
    """

    def __init__(self, shards: list[Shard]) -> None:
        self.shards = shards
        self.epoch = 0
        self._next_global_id = sum(len(s) for s in shards)
        self._extent: BoundingBox | None = None
        #: gid -> (shard index, position in shard) for O(1) lookups.
        self._locations: dict[int, tuple[int, int]] = {}
        for shard in shards:
            for pos, (gid, traj) in enumerate(
                zip(shard.global_ids, shard.trajectories)
            ):
                self._locations[gid] = (shard.index, pos)
                self._grow_extent(traj.bounding_box)

    @classmethod
    def create(cls, db: TrajectoryDatabase, n_shards: int = 4) -> "ShardManager":
        """Partition ``db`` into ``n_shards`` shards: global id ``g`` goes
        to shard ``g % n_shards``.

        Global ids are the database's trajectory ids; each shard's member
        list is ordered by global id. Shards may start empty (``n_shards``
        larger than the database) — streaming ingests fill them later.
        """
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        shards = [Shard(index=s) for s in range(n_shards)]
        for gid, traj in enumerate(db):
            shard = shards[gid % n_shards]
            shard.trajectories.append(traj)
            shard.global_ids.append(gid)
        return cls(shards)

    # ------------------------------------------------------------------ queries
    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def n_trajectories(self) -> int:
        return self._next_global_id

    @property
    def total_points(self) -> int:
        return sum(len(t) for s in self.shards for t in s.trajectories)

    def _grow_extent(self, box: BoundingBox) -> None:
        self._extent = box if self._extent is None else self._extent.union(box)

    def extent(self) -> BoundingBox:
        """The union bounding box of every trajectory across all shards.

        Bit-identical to ``self.database().bounding_box`` (same min/max
        reduction), and the default raster region of histogram requests.
        """
        if self._extent is None:
            raise ValueError("the service holds no trajectories yet")
        return self._extent

    def database(self) -> TrajectoryDatabase:
        """Materialize all shards back into one database, in global-id order.

        The reference view the service is property-tested against: queries
        on the sharded service must equal a fresh single-engine evaluation
        of this database.
        """
        merged: list[Trajectory | None] = [None] * self._next_global_id
        for shard in self.shards:
            for gid, traj in zip(shard.global_ids, shard.trajectories):
                merged[gid] = traj
        if any(t is None for t in merged):
            raise RuntimeError("shard membership lost trajectories")
        return TrajectoryDatabase(merged)  # type: ignore[arg-type]

    def export_snapshot(self, store, shard: Shard) -> ShardSnapshot:
        """Freeze one shard's membership into columnar store handles
        labelled ``s<index>m`` / ``s<index>o``."""
        if shard.trajectories:
            matrix = np.concatenate(
                [t.points for t in shard.trajectories], axis=0
            )
            counts = np.fromiter(
                (len(t) for t in shard.trajectories),
                dtype=np.int64,
                count=len(shard.trajectories),
            )
            offsets = np.zeros(len(shard.trajectories) + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
        else:
            matrix = np.empty((0, 3), dtype=np.float64)
            offsets = np.zeros(1, dtype=np.int64)
        return ShardSnapshot(
            index=shard.index,
            global_ids=np.asarray(shard.global_ids, dtype=np.int64),
            matrix=store.put(matrix, label=f"s{shard.index}m"),
            offsets=store.put(offsets, label=f"s{shard.index}o"),
        )

    def export_snapshots(self, store) -> list[ShardSnapshot]:
        """Freeze every shard's membership into columnar store handles.

        Each shard's member points are concatenated once into its CSR
        layout and placed into ``store``
        (:class:`~repro.data.store.HeapStore` or
        :class:`~repro.data.store.SharedMemoryStore`); the returned
        snapshots are what executors ship to shard runtimes. The caller
        owns ``store`` and must keep it open for as long as any executor
        built from these snapshots is alive.
        """
        return [self.export_snapshot(store, shard) for shard in self.shards]

    def trajectory(self, global_id: int) -> Trajectory:
        """The trajectory holding ``global_id`` (ingested ones included)."""
        try:
            shard_idx, pos = self._locations[global_id]
        except KeyError:
            raise KeyError(f"no trajectory with global id {global_id}") from None
        return self.shards[shard_idx].trajectories[pos]

    # ------------------------------------------------------------------- ingest
    def plan_ingest(
        self, trajectories: list[Trajectory]
    ) -> dict[int, list[tuple[int, Trajectory]]]:
        """Assign global ids and route a batch — WITHOUT committing it.

        Returns ``{shard_index: [(global_id, trajectory), ...]}``. No
        manager state changes: the caller delivers the routed batches to
        the shard runtimes first and calls :meth:`commit_ingest` only once
        delivery succeeded, so a failed delivery leaves the manager's view
        of the world (ids, membership, extent, epoch) untouched.
        """
        routed: dict[int, list[tuple[int, Trajectory]]] = {}
        next_gid = self._next_global_id
        for traj in trajectories:
            if not isinstance(traj, Trajectory):
                raise TypeError(f"can only ingest Trajectory objects, got {traj!r}")
            routed.setdefault(next_gid % self.n_shards, []).append((next_gid, traj))
            next_gid += 1
        return routed

    def commit_ingest(
        self, routed: dict[int, list[tuple[int, Trajectory]]]
    ) -> None:
        """Apply a delivered :meth:`plan_ingest` batch and bump the epoch."""
        if not routed:
            return
        for shard_idx, batch in routed.items():
            shard = self.shards[shard_idx]
            for gid, traj in batch:
                shard.trajectories.append(traj)
                shard.global_ids.append(gid)
                self._locations[gid] = (shard_idx, len(shard.trajectories) - 1)
                self._grow_extent(traj.bounding_box)
        self._next_global_id += sum(len(b) for b in routed.values())
        self.epoch += 1
