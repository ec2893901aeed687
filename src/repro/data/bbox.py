"""Axis-aligned spatio-temporal bounding boxes.

A box spans two spatial dimensions (x, y) and one temporal dimension (t).
Boxes are the common currency between the octree index
(:mod:`repro.index.octree`), range queries (:mod:`repro.queries.range_query`)
and workload generators (:mod:`repro.workloads`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """A closed axis-aligned box ``[xmin, xmax] x [ymin, ymax] x [tmin, tmax]``."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float
    tmin: float
    tmax: float

    def __post_init__(self) -> None:
        if self.xmin > self.xmax or self.ymin > self.ymax or self.tmin > self.tmax:
            raise ValueError(f"degenerate bounding box: {self}")

    @classmethod
    def from_points(cls, points: np.ndarray) -> "BoundingBox":
        """Tightest box around the finite ``(x, y, t)`` rows of an ``(n, 3)`` array.

        A row with a non-finite coordinate lies in no box, so it does not
        stretch this one either. With no finite row the result is the
        *empty* box: all bounds NaN, so it contains and intersects nothing
        and :meth:`union` ignores it.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 3 or len(points) == 0:
            raise ValueError("expected a non-empty (n, 3) array")
        lo = points.min(axis=0)
        hi = points.max(axis=0)
        if not math.isfinite(lo.sum() + hi.sum()):
            # Some row has a NaN or infinite coordinate: span the others.
            points = points[np.isfinite(points).all(axis=1)]
            if len(points) == 0:
                return cls(*[np.nan] * 6)
            lo = points.min(axis=0)
            hi = points.max(axis=0)
        return cls(lo[0], hi[0], lo[1], hi[1], lo[2], hi[2])

    @property
    def center(self) -> tuple[float, float, float]:
        return (
            0.5 * (self.xmin + self.xmax),
            0.5 * (self.ymin + self.ymax),
            0.5 * (self.tmin + self.tmax),
        )

    @property
    def spans(self) -> tuple[float, float, float]:
        return (self.xmax - self.xmin, self.ymax - self.ymin, self.tmax - self.tmin)

    @property
    def volume(self) -> float:
        sx, sy, st = self.spans
        return sx * sy * st

    def contains_point(self, x: float, y: float, t: float) -> bool:
        return (
            self.xmin <= x <= self.xmax
            and self.ymin <= y <= self.ymax
            and self.tmin <= t <= self.tmax
        )

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        """Vectorized membership test for an ``(n, 3)`` array; returns a bool mask."""
        points = np.asarray(points, dtype=float)
        return (
            (points[:, 0] >= self.xmin)
            & (points[:, 0] <= self.xmax)
            & (points[:, 1] >= self.ymin)
            & (points[:, 1] <= self.ymax)
            & (points[:, 2] >= self.tmin)
            & (points[:, 2] <= self.tmax)
        )

    def intersects(self, other: "BoundingBox") -> bool:
        return (
            self.xmin <= other.xmax
            and other.xmin <= self.xmax
            and self.ymin <= other.ymax
            and other.ymin <= self.ymax
            and self.tmin <= other.tmax
            and other.tmin <= self.tmax
        )

    def contains_box(self, other: "BoundingBox") -> bool:
        return (
            self.xmin <= other.xmin
            and other.xmax <= self.xmax
            and self.ymin <= other.ymin
            and other.ymax <= self.ymax
            and self.tmin <= other.tmin
            and other.tmax <= self.tmax
        )

    def split8(self) -> tuple["BoundingBox", ...]:
        """Split into the 8 octants used by the octree.

        Octant ``k`` (0-based) uses bit 0 for the x half, bit 1 for the y half
        and bit 2 for the t half (low half when the bit is 0).
        """
        cx, cy, ct = self.center
        octants = []
        for k in range(8):
            xlo, xhi = (self.xmin, cx) if not k & 1 else (cx, self.xmax)
            ylo, yhi = (self.ymin, cy) if not k & 2 else (cy, self.ymax)
            tlo, thi = (self.tmin, ct) if not k & 4 else (ct, self.tmax)
            octants.append(BoundingBox(xlo, xhi, ylo, yhi, tlo, thi))
        return tuple(octants)

    def expanded(self, dx: float, dy: float, dt: float) -> "BoundingBox":
        """A copy grown by the given margins on every side."""
        return BoundingBox(
            self.xmin - dx,
            self.xmax + dx,
            self.ymin - dy,
            self.ymax + dy,
            self.tmin - dt,
            self.tmax + dt,
        )

    def union(self, other: "BoundingBox") -> "BoundingBox":
        """The smallest box covering both; the empty box is the identity."""
        if math.isnan(self.xmin):
            return other
        if math.isnan(other.xmin):
            return self
        return BoundingBox(
            min(self.xmin, other.xmin),
            max(self.xmax, other.xmax),
            min(self.ymin, other.ymin),
            max(self.ymax, other.ymax),
            min(self.tmin, other.tmin),
            max(self.tmax, other.tmax),
        )
