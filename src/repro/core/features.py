"""Agent-Point state features (paper, Eqs. 6-8).

For a candidate point ``p`` (not yet in the simplified database) whose
current anchor segment is ``p_s p_e`` (the simplified segment approximating
it), two values are computed:

* ``v_s(p)`` — the "spatial" value: distance between ``p`` and its
  *synchronized* point on the anchor segment (the position the simplified
  trajectory reports at ``p``'s timestamp) — i.e. ``p``'s current SED;
* ``v_t(p)`` — the "temporal" value: the absolute difference between ``p``'s
  timestamp and the timestamp of the *spatially closest* point on the anchor
  segment (time is interpolated linearly along the segment).

The state of Agent-Point at a cube is the top-``K`` list (by ``v_s``) of the
per-trajectory maxima of these pairs (Eq. 8), flattened into a ``2K`` vector
and zero-padded when the cube holds fewer than ``K`` trajectories with
candidates.

The batch entry point :func:`cube_point_state` computes a cube's state
from scratch and is the reference. The environment's hot path
(:meth:`repro.core.env.QDTSEnvironment.point_state`) keeps each
trajectory's maximum (:func:`trajectory_best`) until that trajectory
gains a point, and shares the ranking step (:func:`rank_candidates`).
The value computation is vectorized per trajectory.
"""

from __future__ import annotations

import numpy as np

from repro.data.simplification import SimplificationState

_EPS = 1e-12


def point_values(points: np.ndarray, idx: int, s: int, e: int) -> tuple[float, float]:
    """``(v_s, v_t)`` of original point ``idx`` against anchor ``p_s p_e``."""
    v_s, v_t = point_values_batch(
        points, np.array([idx]), np.array([s]), np.array([e])
    )
    return float(v_s[0]), float(v_t[0])


def point_values_batch(
    points: np.ndarray,
    idxs: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ``(v_s, v_t)`` for many points of one trajectory.

    ``idxs``, ``starts`` and ``ends`` are aligned arrays of candidate point
    indices and their anchor endpoints.
    """
    p = points[idxs]
    a = points[starts]
    b = points[ends]
    dt = b[:, 2] - a[:, 2]
    safe_dt = np.where(np.abs(dt) <= _EPS, 1.0, dt)
    frac = np.where(np.abs(dt) <= _EPS, 0.0, (p[:, 2] - a[:, 2]) / safe_dt)
    sync = a[:, :2] + frac[:, None] * (b[:, :2] - a[:, :2])
    v_s = np.linalg.norm(p[:, :2] - sync, axis=1)

    ab = b[:, :2] - a[:, :2]
    sq_len = np.einsum("ij,ij->i", ab, ab)
    safe_len = np.where(sq_len <= _EPS, 1.0, sq_len)
    u = np.einsum("ij,ij->i", p[:, :2] - a[:, :2], ab) / safe_len
    u = np.where(sq_len <= _EPS, 0.0, np.clip(u, 0.0, 1.0))
    nearest_time = a[:, 2] + u * dt
    v_t = np.abs(p[:, 2] - nearest_time)
    return v_s, v_t


def trajectory_best(
    state: SimplificationState,
    tid: int,
    idxs: np.ndarray,
    rank_by: str = "vs",
) -> tuple[float, float, int] | None:
    """The max-value candidate of one trajectory within a cube (Eq. 7).

    ``rank_by`` selects the ranking value: ``"vs"`` (paper default) or
    ``"vt"`` (the alternative the paper evaluated and found worse).
    """
    n = len(state.database[tid])
    interior = idxs[(idxs > 0) & (idxs < n - 1)]
    if len(interior) == 0:
        return None
    kept = np.asarray(state.kept[tid], dtype=int)
    pos = np.searchsorted(kept, interior)
    in_range = pos < len(kept)
    is_kept = np.zeros(len(interior), dtype=bool)
    is_kept[in_range] = kept[pos[in_range]] == interior[in_range]
    candidates = interior[~is_kept]
    if len(candidates) == 0:
        return None
    pos = np.searchsorted(kept, candidates)  # strictly inside (0, len(kept))
    starts = kept[pos - 1]
    ends = kept[pos]
    v_s, v_t = point_values_batch(
        state.database[tid].points, candidates, starts, ends
    )
    ranking = v_s if rank_by == "vs" else v_t
    best = int(np.argmax(ranking))
    return float(v_s[best]), float(v_t[best]), int(candidates[best])


def cube_point_state(
    state: SimplificationState,
    entries: dict[int, np.ndarray] | list[tuple[int, int]],
    k: int,
    rank_by: str = "vs",
) -> tuple[np.ndarray, list[tuple[int, int]], np.ndarray]:
    """Agent-Point's state for the points of one cube.

    Parameters
    ----------
    state:
        Current collective simplification state (kept points are excluded
        from candidacy, as the paper specifies).
    entries:
        The cube's points: either a mapping ``traj_id -> sorted index array``
        or a flat list of ``(traj_id, point_index)`` pairs.
    k:
        The hyper-parameter ``K`` bounding the state / action space.

    Returns
    -------
    ``(state_vector, candidates, mask)`` where ``state_vector`` is the
    flattened ``2K`` feature vector, ``candidates[i]`` is the
    ``(traj_id, point_index)`` inserted by action ``i``, and ``mask`` flags
    which of the ``K`` actions are available. ``candidates`` is empty when
    the cube holds no insertable point.
    """
    if k < 1:
        raise ValueError("K must be >= 1")
    if not isinstance(entries, dict):
        grouped: dict[int, list[int]] = {}
        for tid, idx in entries:
            grouped.setdefault(tid, []).append(idx)
        entries = {
            tid: np.asarray(sorted(idxs), dtype=int)
            for tid, idxs in grouped.items()
        }
    best_rows = []
    for tid, idxs in entries.items():
        best = trajectory_best(state, tid, idxs, rank_by)
        if best is not None:
            best_rows.append((*best, tid))
    return rank_candidates(best_rows, k, rank_by)


def rank_candidates(
    best_rows: list[tuple[float, float, int, int]],
    k: int,
    rank_by: str = "vs",
) -> tuple[np.ndarray, list[tuple[int, int]], np.ndarray]:
    """Eq. 8: the top-``K`` per-trajectory maxima as a padded state.

    ``best_rows`` holds one ``(v_s, v_t, point_index, traj_id)`` row per
    trajectory with a candidate in the cube, as :func:`trajectory_best`
    returns them plus the trajectory id. Returns what
    :func:`cube_point_state` returns.
    """
    # Top-K trajectories by the ranking value (ties broken by id).
    rank_index = 0 if rank_by == "vs" else 1
    ranked = sorted(best_rows, key=lambda r: (-r[rank_index], r[3]))[:k]
    vector = np.zeros(2 * k)
    candidates: list[tuple[int, int]] = []
    for row, (v_s, v_t, idx, tid) in enumerate(ranked):
        vector[2 * row] = v_s
        vector[2 * row + 1] = v_t
        candidates.append((tid, idx))
    mask = np.zeros(k, dtype=bool)
    mask[: len(candidates)] = True
    return vector, candidates, mask
