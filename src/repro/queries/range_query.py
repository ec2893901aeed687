"""Spatio-temporal range queries.

A range query with parameters ``(qx_min, qx_max, qy_min, qy_max, qt_min,
qt_max)`` returns every trajectory containing at least one point inside the
box (paper, Section III-B). Note the semantics are point-based: a trajectory
whose *segment* crosses the box without a sampled point inside does NOT
match — which is exactly why aggressive simplification degrades range-query
recall and why QDTS is non-trivial.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.bbox import BoundingBox
from repro.data.database import TrajectoryDatabase


@dataclass(frozen=True, slots=True)
class RangeQuery:
    """A spatio-temporal box query."""

    box: BoundingBox

    @classmethod
    def from_bounds(
        cls,
        xmin: float,
        xmax: float,
        ymin: float,
        ymax: float,
        tmin: float,
        tmax: float,
    ) -> "RangeQuery":
        return cls(BoundingBox(xmin, xmax, ymin, ymax, tmin, tmax))

    @classmethod
    def around(
        cls,
        x: float,
        y: float,
        t: float,
        spatial_extent: float,
        temporal_extent: float,
    ) -> "RangeQuery":
        """A box centred at ``(x, y, t)`` with the given side lengths."""
        return cls(
            BoundingBox(
                x - spatial_extent / 2.0,
                x + spatial_extent / 2.0,
                y - spatial_extent / 2.0,
                y + spatial_extent / 2.0,
                t - temporal_extent / 2.0,
                t + temporal_extent / 2.0,
            )
        )

    def matches(self, trajectory) -> bool:
        """Whether the trajectory has at least one point inside the box."""
        if not self.box.intersects(trajectory.bounding_box):
            return False
        return bool(self.box.contains_points(trajectory.points).any())


def range_query(db: TrajectoryDatabase, query: RangeQuery) -> set[int]:
    """Ids of trajectories matching ``query``, by a full scan."""
    return {t.traj_id for t in db if query.matches(t)}


def range_query_batch(
    db: TrajectoryDatabase, queries: list[RangeQuery]
) -> list[set[int]]:
    """Evaluate many range queries; one result set per query."""
    return [range_query(db, q) for q in queries]
