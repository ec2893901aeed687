"""Shared machinery for spatio-temporal cube trees.

The octree (paper, Section IV) and the kd-tree (the paper's suggested
future-work index) differ only in *where* a node's cube is split — midpoints
for the octree, per-branch medians for the kd-tree. Everything else —
traversal, per-node data/query statistics, Agent-Cube's Eq. 4 state, and
start-level sampling — is identical and lives here.

Both trees expose nodes with exactly 8 children indexed by the same bit
convention (bit 0 = upper x half, bit 1 = upper y, bit 2 = upper t), so
Agent-Cube's MDP (9 actions) is index-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.data.bbox import BoundingBox
from repro.data.database import TrajectoryDatabase


@dataclass(slots=True)
class CubeNode:
    """One cube of a spatio-temporal tree."""

    box: BoundingBox
    level: int
    children: list["CubeNode | None"] | None = None
    entries: list[tuple[int, int]] = field(default_factory=list)
    n_points: int = 0
    n_trajectories: int = 0
    n_queries: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    def child(self, k: int) -> "CubeNode | None":
        """The k-th child (0-based), or None if empty or a leaf."""
        if self.children is None:
            return None
        return self.children[k]

    def nonempty_children(self) -> list[int]:
        """0-based indices of children that contain at least one point."""
        if self.children is None:
            return []
        return [k for k, c in enumerate(self.children) if c is not None]


class CubeTree:
    """Base class: an 8-way spatio-temporal tree over a database's points.

    Subclasses implement :meth:`_split_masks_and_boxes`, which decides how a
    node's points are distributed over the 8 children and what each child's
    cube is. Construction, traversal, query annotation, and sampling are
    shared.

    Parameters
    ----------
    database:
        The database to index.
    max_depth:
        Maximum tree level (the paper's end level ``E``; root is level 1).
    leaf_capacity:
        A node with at most this many points is not split further.
    """

    def __init__(
        self,
        database: TrajectoryDatabase,
        max_depth: int = 8,
        leaf_capacity: int = 32,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if leaf_capacity < 1:
            raise ValueError("leaf_capacity must be >= 1")
        self.database = database
        self.max_depth = max_depth
        self.leaf_capacity = leaf_capacity
        # A hair of padding keeps max-coordinate points strictly inside, so
        # the open/closed boundaries never lose a point.
        box = database.bounding_box
        sx, sy, st = box.spans
        pad = 1e-9
        box = box.expanded(sx * pad + pad, sy * pad + pad, st * pad + pad)
        self.root = CubeNode(box=box, level=1)
        # Level listings and sampling weights are memoized: the tree is
        # static after construction, and start-level sampling happens once
        # per inserted point.
        self._level_cache: dict[int, list[CubeNode]] = {}
        self._cdf_cache: dict[tuple[int, str], np.ndarray | None] = {}
        self._build()

    # ------------------------------------------------------------------- build
    def _build(self) -> None:
        points = self.database.all_points()
        owners = self.database.point_ownership()
        indices = np.concatenate(
            [np.arange(len(t)) for t in self.database.trajectories]
        )
        self._insert_bulk(self.root, points, owners, indices)

    def _insert_bulk(
        self,
        node: CubeNode,
        points: np.ndarray,
        owners: np.ndarray,
        indices: np.ndarray,
    ) -> None:
        node.n_points = len(points)
        # ``owners`` ascends (``point_ownership`` does, and every split keeps
        # the order), so its distinct ids are its runs of equal ids.
        node.n_trajectories = (
            int(np.count_nonzero(owners[1:] != owners[:-1])) + 1 if len(owners) else 0
        )
        if len(points) <= self.leaf_capacity or node.level >= self.max_depth:
            node.entries = list(zip(owners.tolist(), indices.tolist()))
            return
        octant, boxes = self._split_masks_and_boxes(node, points)
        # A stable sort groups the points by octant and keeps their order
        # within each, as a boolean mask per octant would.
        order = np.argsort(octant, kind="stable")
        bounds = np.bincount(octant, minlength=8).cumsum().tolist()
        node.children = [None] * 8
        lo = 0
        for k, hi in enumerate(bounds):
            if hi > lo:
                child = CubeNode(box=boxes[k], level=node.level + 1)
                node.children[k] = child
                rows = order[lo:hi]
                self._insert_bulk(child, points[rows], owners[rows], indices[rows])
            lo = hi

    def _split_masks_and_boxes(
        self, node: CubeNode, points: np.ndarray
    ) -> tuple[np.ndarray, tuple[BoundingBox, ...]]:
        """Octant assignment per point and the 8 child cubes.

        Returns an ``(n,)`` int array of octant indices (0..7, using the
        shared bit convention) and the 8 child bounding boxes, which must
        tile ``node.box``.
        """
        raise NotImplementedError

    # --------------------------------------------------------------- traversal
    def iter_nodes(self) -> Iterator[CubeNode]:
        """All nodes, pre-order."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if node.children is not None:
                stack.extend(c for c in node.children if c is not None)

    def nodes_at_level(self, level: int) -> list[CubeNode]:
        """Nodes at exactly ``level``, plus leaves shallower than ``level``.

        Including shallow leaves means the returned set always tiles the data:
        every point belongs to exactly one returned node. This is what the
        start-level sampling of Agent-Cube needs. The listing is memoized.
        """
        cached = self._level_cache.get(level)
        if cached is not None:
            return cached
        result = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.level == level or (node.is_leaf and node.level < level):
                result.append(node)
            elif node.level < level and node.children is not None:
                stack.extend(c for c in node.children if c is not None)
        self._level_cache[level] = result
        return result

    def depth(self) -> int:
        """The deepest level present in the tree."""
        return max(node.level for node in self.iter_nodes())

    def collect_points(self, node: CubeNode) -> list[tuple[int, int]]:
        """All ``(traj_id, point_index)`` entries in ``node``'s cube."""
        if node.is_leaf:
            return list(node.entries)
        result: list[tuple[int, int]] = []
        stack = [node]
        while stack:
            current = stack.pop()
            if current.is_leaf:
                result.extend(current.entries)
            else:
                stack.extend(c for c in current.children if c is not None)
        return result

    # ----------------------------------------------------------- query counts
    def annotate_queries(self, boxes: list[BoundingBox]) -> None:
        """Fill ``n_queries`` (``Q_B``) on every node from a query workload.

        A query counts for a node when its box intersects the node's cube.
        """
        for node in self.iter_nodes():
            node.n_queries = 0
        for box in boxes:
            self._annotate_one(self.root, box)
        self._cdf_cache.clear()

    def _annotate_one(self, node: CubeNode, box: BoundingBox) -> None:
        if not node.box.intersects(box):
            return
        node.n_queries += 1
        if node.children is not None:
            for child in node.children:
                if child is not None:
                    self._annotate_one(child, box)

    # ------------------------------------------------------------- statistics
    def child_fractions(self, node: CubeNode) -> np.ndarray:
        """Agent-Cube's state vector at ``node`` (Eq. 4).

        Returns a 16-vector: for each of the 8 children, the fraction of the
        node's trajectories and of its queries that fall in that child.
        Missing (empty) children contribute zeros.
        """
        state = np.zeros(16)
        if node.children is None:
            return state
        m_total = max(node.n_trajectories, 1)
        q_total = max(node.n_queries, 1)
        for k, child in enumerate(node.children):
            if child is None:
                continue
            state[2 * k] = child.n_trajectories / m_total
            state[2 * k + 1] = child.n_queries / q_total
        return state

    def sample_node_at_level(
        self,
        level: int,
        rng: np.random.Generator,
        by: str = "queries",
    ) -> CubeNode:
        """Sample a start node at ``level`` following a mass distribution.

        ``by="queries"`` weights nodes by ``n_queries`` (the paper's start
        level strategy: sample following the query distribution), falling
        back to point mass when no query annotations exist;
        ``by="points"`` always weights by point mass.
        """
        level = min(level, self.max_depth)
        nodes = self.nodes_at_level(level)
        if not nodes:
            return self.root
        key = (level, by)
        if key not in self._cdf_cache:
            if by == "queries":
                weights = np.array([n.n_queries for n in nodes], dtype=float)
                if weights.sum() <= 0:
                    weights = np.array([n.n_points for n in nodes], dtype=float)
            elif by == "points":
                weights = np.array([n.n_points for n in nodes], dtype=float)
            else:
                raise ValueError(f"unknown sampling weight {by!r}")
            total = weights.sum()
            cdf = None
            if total > 0:
                # The arithmetic of ``Generator.choice(n, p=weights / total)``,
                # done once: it normalizes p's cumulative sum by its last
                # entry and searches one ``random()`` draw in it, so the draw
                # below returns the same node from the same generator state.
                cdf = (weights / total).cumsum()
                cdf /= cdf[-1]
            self._cdf_cache[key] = cdf
        cdf = self._cdf_cache[key]
        if cdf is None:
            return nodes[int(rng.integers(len(nodes)))]
        return nodes[int(cdf.searchsorted(rng.random(), side="right"))]
