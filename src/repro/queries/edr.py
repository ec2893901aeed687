"""Edit Distance on Real sequence (EDR; Chen et al., SIGMOD 2005).

EDR counts the minimum number of insert / delete / replace edits needed to
align two point sequences, where two points *match* (zero cost) when both
coordinates are within a threshold ``eps``. It is the paper's non-learning
kNN similarity measure.
"""

from __future__ import annotations

import numpy as np

from repro.data.trajectory import Trajectory

#: Elements per padded DP scratch buffer (pairs x padded length) in
#: :func:`edr_distances_pairs`; at ~10 float64 buffers this caps the batch's
#: working set at roughly 100 MB while leaving typical kNN batches unsplit.
_MAX_DP_ELEMENTS = 1 << 20


def edr_distance(
    a: Trajectory | np.ndarray,
    b: Trajectory | np.ndarray,
    eps: float,
) -> float:
    """EDR between two trajectories (lower means more similar).

    Parameters
    ----------
    a, b:
        Trajectories or ``(n, >=2)`` arrays; only x and y are compared.
    eps:
        Matching threshold: points match when ``|dx| <= eps and |dy| <= eps``
        (the original paper's per-dimension definition).
    """
    pa = a.xy if isinstance(a, Trajectory) else np.asarray(a, dtype=float)[:, :2]
    pb = b.xy if isinstance(b, Trajectory) else np.asarray(b, dtype=float)[:, :2]
    n, m = len(pa), len(pb)
    if n == 0:
        return float(m)
    if m == 0:
        return float(n)
    # Vectorized per-pair match table: (n, m) booleans.
    match = (
        (np.abs(pa[:, None, 0] - pb[None, :, 0]) <= eps)
        & (np.abs(pa[:, None, 1] - pb[None, :, 1]) <= eps)
    )
    # Rolling dynamic program over rows (subcost 0 on match else 1).
    # current[j] = min(best[j-1], current[j-1] + 1) with best = min(diag-sub,
    # delete). The left-to-right dependency unrolls to a prefix minimum:
    # current[j] = j + min(i, min_{k<=j} (best[k-1] - k)), fully vectorized.
    js = np.arange(1, m + 1, dtype=float)
    prev = np.arange(m + 1, dtype=float)
    for i in range(1, n + 1):
        sub = prev[:-1] + np.where(match[i - 1], 0.0, 1.0)
        best = np.minimum(sub, prev[1:] + 1.0)
        running = np.minimum.accumulate(best - js)
        current = np.empty(m + 1)
        current[0] = i
        current[1:] = js + np.minimum(running, float(i))
        prev = current
    return float(prev[m])


def _as_xy(t: Trajectory | np.ndarray) -> np.ndarray:
    return t.xy if isinstance(t, Trajectory) else np.asarray(t, dtype=float)[:, :2]


def edr_distances_pairs(
    a_list: list[Trajectory | np.ndarray],
    b_list: list[Trajectory | np.ndarray],
    eps: float,
) -> np.ndarray:
    """EDR for many ``(a, b)`` pairs, batched with the pair axis vectorized.

    Equivalent to ``[edr_distance(a, b, eps) for a, b in zip(a_list,
    b_list)]`` but runs ONE rolling dynamic program over all pairs at once:
    both sides are padded to common lengths with sentinel coordinates that
    can never match, and since the prefix-minimum recurrence only flows left
    to right (and pair ``p``'s distance is read off the row ``len(a_p)`` /
    column ``len(b_p)`` the moment the program reaches it), padded rows and
    columns never influence any recorded value. The Python-level loop
    therefore runs ``max(len(a))`` times instead of ``sum(len(a))`` — the
    difference between per-candidate and batched kNN scoring. EDR values
    are integer-valued, so the batched arithmetic is exactly the
    reference's.
    """
    if len(a_list) != len(b_list):
        raise ValueError("a_list and b_list must have the same length")
    a_mats = [_as_xy(a) for a in a_list]
    b_mats = [_as_xy(b) for b in b_list]
    n_pairs = len(a_mats)
    if n_pairs == 0:
        return np.empty(0)
    # Bound the padded scratch buffers (pairs x max length, ~10 of them):
    # chunk the pair axis so one unusually long sequence cannot inflate
    # every pair's row across an arbitrarily large batch.
    longest = max(
        max(len(m) for m in a_mats), max(len(m) for m in b_mats), 1
    )
    chunk = max(1, _MAX_DP_ELEMENTS // longest)
    if chunk < n_pairs:
        return np.concatenate(
            [
                edr_distances_pairs(
                    a_mats[start : start + chunk],
                    b_mats[start : start + chunk],
                    eps,
                )
                for start in range(0, n_pairs, chunk)
            ]
        )
    n_lens = np.array([len(m) for m in a_mats], dtype=np.int64)
    m_lens = np.array([len(m) for m in b_mats], dtype=np.int64)
    out = np.empty(n_pairs)
    out[n_lens == 0] = m_lens[n_lens == 0].astype(float)
    n_max = int(n_lens.max())
    m_max = int(m_lens.max())
    if n_max == 0:
        return out
    if m_max == 0:
        return np.where(n_lens == 0, out, n_lens.astype(float))
    # Padded coordinates: +inf on the a side, -inf on the b side, so any
    # padded comparison has |dx| = inf > eps (never a match, never a NaN).
    ax = np.full((n_pairs, n_max), np.inf)
    ay = np.full((n_pairs, n_max), np.inf)
    bx = np.full((n_pairs, m_max), -np.inf)
    by = np.full((n_pairs, m_max), -np.inf)
    for p, mat in enumerate(a_mats):
        ax[p, : len(mat)] = mat[:, 0]
        ay[p, : len(mat)] = mat[:, 1]
    for p, mat in enumerate(b_mats):
        bx[p, : len(mat)] = mat[:, 0]
        by[p, : len(mat)] = mat[:, 1]
    js = np.arange(1, m_max + 1, dtype=float)
    prev = np.broadcast_to(
        np.arange(m_max + 1, dtype=float), (n_pairs, m_max + 1)
    ).copy()
    current = np.empty_like(prev)
    # The loop body allocates nothing: every op writes into one of these
    # scratch buffers (the loop runs n_max times and allocation overhead,
    # not arithmetic, dominates at kNN scales).
    gap = np.empty((n_pairs, m_max))
    gap_y = np.empty((n_pairs, m_max))
    miss = np.empty((n_pairs, m_max), dtype=bool)
    work = np.empty((n_pairs, m_max))
    delete = np.empty((n_pairs, m_max))
    finish_at: list[list[int]] = [[] for _ in range(n_max + 1)]
    for p, n in enumerate(n_lens):
        if n > 0:
            finish_at[int(n)].append(p)
    for i in range(1, n_max + 1):
        # Non-match costs of row i-1 against every b column, built on the
        # fly — keeping the full (pairs, n, m) table is needless memory
        # traffic for one visit per cell. max(|dx|, |dy|) > eps is the
        # per-dimension non-match test.
        np.abs(np.subtract(ax[:, i - 1 : i], bx, out=gap), out=gap)
        np.abs(np.subtract(ay[:, i - 1 : i], by, out=gap_y), out=gap_y)
        np.maximum(gap, gap_y, out=gap)
        np.greater(gap, eps, out=miss)
        np.add(prev[:, :-1], miss, out=work)
        np.add(prev[:, 1:], 1.0, out=delete)
        np.minimum(work, delete, out=work)
        np.subtract(work, js, out=work)
        np.minimum.accumulate(work, axis=1, out=work)
        np.minimum(work, float(i), out=work)
        current[:, 0] = i
        np.add(work, js, out=current[:, 1:])
        # Pairs whose a side ends at this row are done; later iterations
        # only touch their padded rows.
        for p in finish_at[i]:
            out[p] = current[p, m_lens[p]]
        prev, current = current, prev
    return out


def edr_distances_one_to_many(
    query: Trajectory | np.ndarray,
    candidates: list[Trajectory | np.ndarray],
    eps: float,
) -> np.ndarray:
    """EDR from one query to many candidates, batched over the candidates.

    Equivalent to ``[edr_distance(query, c, eps) for c in candidates]``;
    a convenience wrapper over :func:`edr_distances_pairs`.
    """
    pa = _as_xy(query)
    return edr_distances_pairs([pa] * len(candidates), candidates, eps)


def edr_similarity_matrix(
    trajectories: list[Trajectory], eps: float
) -> np.ndarray:
    """Symmetric pairwise EDR matrix for a list of trajectories."""
    n = len(trajectories)
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = edr_distance(trajectories[i], trajectories[j], eps)
            dist[i, j] = dist[j, i] = d
    return dist
