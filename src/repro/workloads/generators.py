"""Range-query workload generation (paper, Sections IV-A and V-A).

RL4QDTS trains on a synthetic workload of range queries. Query *centres* are
drawn from one of four distributions the paper evaluates:

* **data** — centres sampled uniformly from the database's points, so the
  workload follows the data distribution (the default when nothing is known
  about future queries);
* **gaussian** — centres at relative position ``N(mu, sigma)`` of the
  bounding box on each spatial axis (clipped to the region);
* **zipf** — the region is divided into a grid whose cells are ranked by
  data mass; a cell is drawn with probability ``rank^-a`` and the centre
  falls uniformly inside it (skewed workloads, used for the transferability
  study);
* **real** — centres near trip origins and destinations (pickup / dropoff
  hotspots), mimicking ride-hailing queries on the Chengdu dataset.

Queries use a square spatial extent and a fixed temporal duration, matching
the paper's 2km x 2km x 7d query shape (both extents are parameters here
because the synthetic datasets are scaled down).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.data.bbox import BoundingBox
from repro.data.database import TrajectoryDatabase
from repro.queries.range_query import RangeQuery


def _default_extents(db: TrajectoryDatabase) -> tuple[float, float]:
    """Default query extents adapted to the data.

    The paper uses 2km x 2km x 7d queries on city-scale datasets whose
    trajectories span several kilometres — the box is a *fraction* of a
    trajectory's diameter, so whether a simplified trajectory still has a
    point inside a box is genuinely at stake. We reproduce that relation at
    any data scale: the spatial extent defaults to half the median trajectory
    diameter (capped by the region), and the temporal extent to a quarter of
    the database's time span.
    """
    from repro.data.stats import spatial_scale

    box = db.bounding_box
    sx, sy, st = box.spans
    spatial = 0.3 * spatial_scale(db)
    spatial = min(max(spatial, 1e-9), max(sx, sy))
    return spatial, st / 4.0


@dataclass(frozen=True, slots=True)
class RangeQueryWorkload:
    """An immutable list of range queries with provenance metadata."""

    queries: tuple[RangeQuery, ...]
    distribution: str = "unknown"
    params: dict = field(default_factory=dict, hash=False, compare=False)

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self) -> Iterator[RangeQuery]:
        return iter(self.queries)

    def __getitem__(self, i: int) -> RangeQuery:
        return self.queries[i]

    @property
    def boxes(self) -> list[BoundingBox]:
        return [q.box for q in self.queries]

    # ------------------------------------------------------------- constructors
    @classmethod
    def from_centres(
        cls,
        centres: np.ndarray,
        spatial_extent: float,
        temporal_extent: float,
        distribution: str = "explicit",
        params: dict | None = None,
    ) -> "RangeQueryWorkload":
        """Build a workload from an ``(n, 3)`` array of query centres."""
        queries = tuple(
            RangeQuery.around(x, y, t, spatial_extent, temporal_extent)
            for x, y, t in np.asarray(centres, dtype=float)
        )
        return cls(queries, distribution=distribution, params=params or {})

    @classmethod
    def from_data_distribution(
        cls,
        db: TrajectoryDatabase,
        n_queries: int,
        spatial_extent: float | None = None,
        temporal_extent: float | None = None,
        seed: int | None = None,
    ) -> "RangeQueryWorkload":
        """Query centres sampled uniformly from the database's points."""
        rng = np.random.default_rng(seed)
        se, te = cls._extents(db, spatial_extent, temporal_extent)
        points = db.all_points()
        centres = points[rng.integers(0, len(points), size=n_queries)]
        return cls.from_centres(centres, se, te, "data", {"seed": seed})

    @classmethod
    def from_gaussian(
        cls,
        db: TrajectoryDatabase,
        n_queries: int,
        mu: float = 0.5,
        sigma: float = 0.25,
        spatial_extent: float | None = None,
        temporal_extent: float | None = None,
        seed: int | None = None,
    ) -> "RangeQueryWorkload":
        """Centres at relative box position ``N(mu, sigma)`` per spatial axis."""
        rng = np.random.default_rng(seed)
        se, te = cls._extents(db, spatial_extent, temporal_extent)
        box = db.bounding_box
        rel = np.clip(rng.normal(mu, sigma, size=(n_queries, 2)), 0.0, 1.0)
        xs = box.xmin + rel[:, 0] * (box.xmax - box.xmin)
        ys = box.ymin + rel[:, 1] * (box.ymax - box.ymin)
        ts = rng.uniform(box.tmin, box.tmax, size=n_queries)
        centres = np.column_stack([xs, ys, ts])
        return cls.from_centres(
            centres, se, te, "gaussian", {"mu": mu, "sigma": sigma, "seed": seed}
        )

    @classmethod
    def from_zipf(
        cls,
        db: TrajectoryDatabase,
        n_queries: int,
        a: float = 4.0,
        grid: int = 12,
        spatial_extent: float | None = None,
        temporal_extent: float | None = None,
        seed: int | None = None,
    ) -> "RangeQueryWorkload":
        """Centres in grid cells drawn with Zipf(``a``) over data-mass rank."""
        if a <= 1.0:
            raise ValueError("the Zipf exponent must exceed 1")
        rng = np.random.default_rng(seed)
        se, te = cls._extents(db, spatial_extent, temporal_extent)
        box = db.bounding_box
        points = db.all_points()
        # Rank cells by point mass; cell rank r is drawn with p ~ r^-a.
        cx = np.clip(
            ((points[:, 0] - box.xmin) / max(box.xmax - box.xmin, 1e-9) * grid)
            .astype(int),
            0,
            grid - 1,
        )
        cy = np.clip(
            ((points[:, 1] - box.ymin) / max(box.ymax - box.ymin, 1e-9) * grid)
            .astype(int),
            0,
            grid - 1,
        )
        counts = np.bincount(cx * grid + cy, minlength=grid * grid)
        ranked_cells = np.argsort(-counts)
        ranks = np.arange(1, len(ranked_cells) + 1, dtype=float)
        probs = ranks**-a
        probs /= probs.sum()
        chosen = rng.choice(len(ranked_cells), size=n_queries, p=probs)
        cells = ranked_cells[chosen]
        cell_x = cells // grid
        cell_y = cells % grid
        wx = (box.xmax - box.xmin) / grid
        wy = (box.ymax - box.ymin) / grid
        xs = box.xmin + (cell_x + rng.random(n_queries)) * wx
        ys = box.ymin + (cell_y + rng.random(n_queries)) * wy
        ts = rng.uniform(box.tmin, box.tmax, size=n_queries)
        centres = np.column_stack([xs, ys, ts])
        return cls.from_centres(
            centres, se, te, "zipf", {"a": a, "grid": grid, "seed": seed}
        )

    @classmethod
    def from_real_distribution(
        cls,
        db: TrajectoryDatabase,
        n_queries: int,
        jitter: float = 0.02,
        spatial_extent: float | None = None,
        temporal_extent: float | None = None,
        seed: int | None = None,
    ) -> "RangeQueryWorkload":
        """Centres near trip origins / destinations (pickup-dropoff hotspots).

        ``jitter`` is the relative spatial noise added around the sampled
        endpoint, as a fraction of the larger spatial span.
        """
        rng = np.random.default_rng(seed)
        se, te = cls._extents(db, spatial_extent, temporal_extent)
        box = db.bounding_box
        endpoints = np.concatenate(
            [np.stack([t.points[0], t.points[-1]]) for t in db]
        )
        centres = endpoints[rng.integers(0, len(endpoints), size=n_queries)].copy()
        scale = jitter * max(box.xmax - box.xmin, box.ymax - box.ymin)
        centres[:, :2] += rng.normal(0.0, scale, size=(n_queries, 2))
        return cls.from_centres(
            centres, se, te, "real", {"jitter": jitter, "seed": seed}
        )

    @classmethod
    def from_uniform(
        cls,
        db: TrajectoryDatabase,
        n_queries: int,
        spatial_extent: float | None = None,
        temporal_extent: float | None = None,
        seed: int | None = None,
    ) -> "RangeQueryWorkload":
        """Centres uniform over the database's bounding box.

        The least informed workload: queries land in empty regions as often
        as in dense ones, which is the worst case for a query-aware
        simplifier trained on the data distribution.
        """
        rng = np.random.default_rng(seed)
        se, te = cls._extents(db, spatial_extent, temporal_extent)
        box = db.bounding_box
        centres = np.column_stack(
            [
                rng.uniform(box.xmin, box.xmax, size=n_queries),
                rng.uniform(box.ymin, box.ymax, size=n_queries),
                rng.uniform(box.tmin, box.tmax, size=n_queries),
            ]
        )
        return cls.from_centres(centres, se, te, "uniform", {"seed": seed})

    @classmethod
    def from_mixture(
        cls,
        db: TrajectoryDatabase,
        n_queries: int,
        components: dict[str, float],
        seed: int | None = None,
        component_params: dict[str, dict] | None = None,
    ) -> "RangeQueryWorkload":
        """A weighted mixture of named distributions.

        ``components`` maps distribution names to non-negative weights, e.g.
        ``{"data": 0.7, "uniform": 0.3}`` models a mostly-hotspot workload
        with a uniform background. Component counts are proportional to the
        weights (largest remainders rounded up) so exactly ``n_queries``
        queries are produced. ``component_params`` optionally passes extra
        keyword arguments to individual components, e.g.
        ``{"gaussian": {"mu": 0.7}}``.
        """
        component_params = component_params or {}
        if not components:
            raise ValueError("need at least one mixture component")
        weights = np.array(list(components.values()), dtype=float)
        if (weights < 0).any() or weights.sum() <= 0:
            raise ValueError("weights must be non-negative and sum > 0")
        shares = weights / weights.sum() * n_queries
        counts = np.floor(shares).astype(int)
        remainder = n_queries - counts.sum()
        for i in np.argsort(-(shares - counts))[:remainder]:
            counts[i] += 1
        queries: list[RangeQuery] = []
        for offset, (name, count) in enumerate(zip(components, counts)):
            if count == 0:
                continue
            sub_seed = None if seed is None else seed + 101 * offset
            part = cls.generate(
                name, db, int(count), seed=sub_seed,
                **component_params.get(name, {}),
            )
            queries.extend(part.queries)
        return cls(
            tuple(queries),
            distribution="mixture",
            params={"components": dict(components), "seed": seed},
        )

    @classmethod
    def generate(
        cls,
        distribution: str,
        db: TrajectoryDatabase,
        n_queries: int,
        seed: int | None = None,
        **kwargs,
    ) -> "RangeQueryWorkload":
        """Dispatch constructor by distribution name."""
        factories = {
            "data": cls.from_data_distribution,
            "gaussian": cls.from_gaussian,
            "zipf": cls.from_zipf,
            "real": cls.from_real_distribution,
            "uniform": cls.from_uniform,
        }
        try:
            factory = factories[distribution]
        except KeyError:
            raise ValueError(
                f"unknown distribution {distribution!r}; "
                f"choose from {sorted(factories)}"
            ) from None
        return factory(db, n_queries, seed=seed, **kwargs)

    @staticmethod
    def _extents(
        db: TrajectoryDatabase,
        spatial_extent: float | None,
        temporal_extent: float | None,
    ) -> tuple[float, float]:
        default_se, default_te = _default_extents(db)
        return (
            spatial_extent if spatial_extent is not None else default_se,
            temporal_extent if temporal_extent is not None else default_te,
        )

    # ---------------------------------------------------------------- evaluate
    def evaluate(self, db: TrajectoryDatabase) -> list[set[int]]:
        """Result sets of every query on ``db``.

        Routed through the database's shared
        :class:`~repro.queries.engine.QueryEngine` (vectorized + memoized).
        """
        from repro.queries.engine import QueryEngine

        return QueryEngine.for_database(db).evaluate(self)

    # ------------------------------------------------------------ persistence
    def to_json(self) -> str:
        """Serialize to JSON (boxes, distribution name, and parameters)."""
        import json

        payload = {
            "distribution": self.distribution,
            "params": {
                k: v
                for k, v in self.params.items()
                if isinstance(v, (int, float, str, bool, type(None), dict))
            },
            "boxes": [
                [b.xmin, b.xmax, b.ymin, b.ymax, b.tmin, b.tmax]
                for b in self.boxes
            ],
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "RangeQueryWorkload":
        """Rebuild a workload saved with :meth:`to_json`."""
        import json

        payload = json.loads(text)
        queries = tuple(
            RangeQuery.from_bounds(*bounds) for bounds in payload["boxes"]
        )
        return cls(
            queries,
            distribution=payload.get("distribution", "unknown"),
            params=payload.get("params", {}),
        )

    def save(self, path) -> None:
        """Write the JSON serialization to ``path``."""
        from pathlib import Path

        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path) -> "RangeQueryWorkload":
        from pathlib import Path

        return cls.from_json(Path(path).read_text())

    def split(self, fraction: float, seed: int | None = None) -> tuple[
        "RangeQueryWorkload", "RangeQueryWorkload"
    ]:
        """Random split into two workloads (e.g. train / validation)."""
        if not 0.0 < fraction < 1.0:
            raise ValueError("fraction must be in (0, 1)")
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(self.queries))
        cut = max(1, int(round(fraction * len(self.queries))))
        first = tuple(self.queries[i] for i in order[:cut])
        second = tuple(self.queries[i] for i in order[cut:])
        return (
            RangeQueryWorkload(first, self.distribution, dict(self.params)),
            RangeQueryWorkload(second, self.distribution, dict(self.params)),
        )
