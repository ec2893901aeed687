"""The QDTS simplification environment.

Binds together a trajectory database, its octree, a training workload of
range queries, the collective simplification state, and the incremental
reward evaluator. Both training (ε-greedy + learning) and inference (greedy
rollout of the learned policies, Algorithm 1) drive this environment; the
environment itself is policy-agnostic.

The environment exposes the primitives the two MDPs need:

* :meth:`start_node` — sample Agent-Cube's start node at level ``S``
  following the query distribution (the paper's start-level technique);
* :meth:`cube_state` — Eq. 4 state + valid-action mask at a node
  (stop is action index 8; a leaf or level-``E`` node forces stop);
* :meth:`descend` — move to a child node;
* :meth:`point_state` — Eq. 8 state + candidates + mask inside a cube;
* :meth:`insert` — commit a point into D' and update reward bookkeeping;
* :meth:`diff` — current ``diff(Q(D), Q(D'))`` (Eq. 10 ingredient).

Two caches keep the inner loop cheap, and both are exact:

* Agent-Cube's state and mask depend only on the (static) octree and its
  query annotations, so each node's pair is built once, for the
  environment's lifetime, and stored read-only;
* Agent-Point's per-trajectory maximum in a cube (Eq. 7) depends only on
  the cube's points of that trajectory and the trajectory's kept indices.
  :meth:`point_state` keeps it per (cube, trajectory) until the trajectory
  gains a point (:meth:`insert` drops every cube's entry for it) or the
  state is replaced (:meth:`reset`, :meth:`load_kept`).
  :func:`repro.core.features.cube_point_state` is the from-scratch
  reference it must equal. So the state changes only through those three
  methods: a point added by ``env.state.insert`` bypasses the cache.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import RL4QDTSConfig
from repro.core.features import rank_candidates, trajectory_best
from repro.core.reward import IncrementalRangeEvaluator
from repro.data.database import TrajectoryDatabase
from repro.data.simplification import SimplificationState
from repro.index import TREE_INDEXES
from repro.index.octree import OctreeNode
from repro.workloads.generators import RangeQueryWorkload

#: Agent-Cube's state dimensionality: 8 children x (data, query) fractions.
CUBE_STATE_DIM = 16
#: Agent-Cube's action space: descend into child 0..7, or stop (index 8).
CUBE_N_ACTIONS = 9
STOP_ACTION = 8


class QDTSEnvironment:
    """One database + workload + octree, ready for collective simplification."""

    def __init__(
        self,
        db: TrajectoryDatabase,
        workload: RangeQueryWorkload,
        config: RL4QDTSConfig,
        rng: np.random.Generator,
    ) -> None:
        self.db = db
        self.workload = workload
        self.config = config
        self.rng = rng
        self.octree = TREE_INDEXES[config.index](
            db, max_depth=config.end_level, leaf_capacity=config.leaf_capacity
        )
        self.octree.annotate_queries(workload.boxes)
        self.evaluator = IncrementalRangeEvaluator(db, workload)
        self.state = SimplificationState(db)
        self._cube_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # Octree contents are static, so per-node point listings are memoized
        # the first time a cube is chosen (grouped by trajectory for the
        # feature computation).
        self._entries_cache: dict[int, dict[int, np.ndarray]] = {}
        # traj_id -> {cube key -> trajectory_best row}; valid while the
        # trajectory's kept indices are unchanged.
        self._best_cache: dict[int, dict[int, tuple | None]] = {}
        self._fallback_order: list[tuple[int, int]] | None = None
        self._fallback_pos = 0
        self.reset()

    # ------------------------------------------------------------------- reset
    def reset(self) -> None:
        """Back to the most simplified database (endpoints only)."""
        self.state = SimplificationState(self.db)
        self.evaluator.reset(self.state)
        self._best_cache.clear()
        self._fallback_order = None
        self._fallback_pos = 0

    # -------------------------------------------------------------- agent-cube
    def start_node(self) -> OctreeNode:
        """Sample the traversal start at level ``S`` by query distribution."""
        return self.octree.sample_node_at_level(
            self.config.start_level, self.rng, by="queries"
        )

    def cube_state(self, node: OctreeNode) -> tuple[np.ndarray, np.ndarray]:
        """Eq. 4 state vector and the valid-action mask at ``node``.

        Both arrays are cached and read-only: they are shared by every
        later visit of the node.
        """
        cached = self._cube_cache.get(id(node))
        if cached is None:
            state = self.octree.child_fractions(node)
            mask = np.zeros(CUBE_N_ACTIONS, dtype=bool)
            mask[STOP_ACTION] = True
            if not node.is_leaf and node.level < self.config.end_level:
                mask[node.nonempty_children()] = True
            state.flags.writeable = False
            mask.flags.writeable = False
            cached = self._cube_cache[id(node)] = (state, mask)
        return cached

    def descend(self, node: OctreeNode, action: int) -> OctreeNode:
        """Follow child ``action`` (0..7); raises on invalid moves."""
        child = node.child(action)
        if child is None:
            raise ValueError(f"child {action} of node at level {node.level} is empty")
        return child

    # ------------------------------------------------------------- agent-point
    def point_state(
        self, node: OctreeNode
    ) -> tuple[np.ndarray, list[tuple[int, int]], np.ndarray]:
        """Eq. 8 state, candidate list, and action mask for ``node``'s cube."""
        key = id(node)
        grouped = self._entries_cache.get(key)
        if grouped is None:
            grouped = {}
            for tid, idx in self.octree.collect_points(node):
                grouped.setdefault(tid, []).append(idx)
            grouped = {
                tid: np.asarray(sorted(idxs), dtype=int)
                for tid, idxs in grouped.items()
            }
            self._entries_cache[key] = grouped
        rank_by = self.config.point_feature
        rows = []
        for tid, idxs in grouped.items():
            per_cube = self._best_cache.get(tid)
            if per_cube is None:
                per_cube = self._best_cache[tid] = {}
            if key in per_cube:
                best = per_cube[key]
            else:
                best = per_cube[key] = trajectory_best(
                    self.state, tid, idxs, rank_by
                )
            if best is not None:
                rows.append((*best, tid))
        return rank_candidates(rows, self.config.k_candidates, rank_by)

    def insert(self, traj_id: int, index: int) -> None:
        """Commit one point into the simplified database."""
        self.state.insert(traj_id, index)
        # Every anchor segment of the trajectory may have moved.
        self._best_cache.pop(traj_id, None)
        self.evaluator.notify_insert(traj_id, self.db[traj_id].points[index])

    def load_kept(self, kept_per_trajectory: list[list[int]]) -> None:
        """Reset, then restore an existing simplification (for refinement).

        ``kept_per_trajectory[tid]`` lists the kept indices of trajectory
        ``tid``; endpoints are implied and may be included or omitted.
        """
        if len(kept_per_trajectory) != len(self.db):
            raise ValueError("kept lists must cover every trajectory")
        self.reset()
        for tid, kept in enumerate(kept_per_trajectory):
            last = len(self.db[tid]) - 1
            for idx in kept:
                if 0 < idx < last:
                    self.insert(tid, int(idx))

    # --------------------------------------------------------------- fallbacks
    def random_unkept_point(self) -> tuple[int, int] | None:
        """A uniformly random not-yet-kept interior point, or None if exhausted.

        Used when the sampled cube holds no candidates (e.g. everything in it
        is already kept); amortized O(N) over a whole episode.
        """
        if self._fallback_order is None:
            interior = [
                (t.traj_id, i)
                for t in self.db
                for i in range(1, len(t) - 1)
            ]
            self.rng.shuffle(interior)
            self._fallback_order = interior
            self._fallback_pos = 0
        order = self._fallback_order
        while self._fallback_pos < len(order):
            tid, idx = order[self._fallback_pos]
            self._fallback_pos += 1
            if not self.state.is_kept(tid, idx):
                return tid, idx
        return None

    # ----------------------------------------------------------------- scoring
    def diff(self) -> float:
        """Current ``diff(Q(D), Q(D'))`` — 1 minus the workload's mean F1."""
        return self.evaluator.diff()

    def exact_diff(self) -> float:
        """``diff`` recomputed from scratch via the batch query engine."""
        return self.evaluator.exact_diff(self.state)

    @property
    def budget_used(self) -> int:
        return self.state.total_kept

    def remaining_budget(self, budget: int) -> int:
        return max(0, budget - self.state.total_kept)
