"""Uniform grid geometry shared by the batch query engine's CSR layout."""

from __future__ import annotations

import numpy as np

from repro.data.bbox import BoundingBox


def grid_geometry(
    box: BoundingBox, resolution: tuple[int, int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """``(origin, cell_size)`` of a uniform grid over ``box``.

    The cell geometry of :class:`repro.queries.engine.QueryEngine`'s CSR
    sweep. Zero-span axes get a unit span so the division is well defined.
    """
    origin = np.array([box.xmin, box.ymin, box.tmin])
    spans = np.array(box.spans)
    spans[spans <= 0] = 1.0
    return origin, spans / np.array(resolution, dtype=float)
