"""Edit Distance on Real sequence (EDR; Chen et al., SIGMOD 2005).

EDR counts the minimum number of insert / delete / replace edits needed to
align two point sequences, where two points *match* (zero cost) when both
coordinates are within a threshold ``eps``. It is the paper's non-learning
kNN similarity measure.
"""

from __future__ import annotations

import numpy as np

from repro.data.trajectory import Trajectory

#: Elements per padded DP scratch buffer (pairs x longer side, or a block of
#: rows' match costs) in :func:`edr_distances_pairs`; at ~10 float64 buffers
#: this caps the batch's working set at roughly 100 MB while leaving typical
#: kNN batches unsplit.
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
    b_list)]`` but runs ONE rolling dynamic program over all pairs at once,
    after two exact rules have cut its work:

    1. **No possible match => ``max(n, m)``.** A point of ``a`` can match
       only inside ``b``'s xy bounding box grown by ``eps`` (Chebyshev),
       and an alignment with zero matches costs exactly ``max(n, m)``,
       which EDR never exceeds. A pair where no point of ``a`` lies in
       ``b``'s grown box, or no point of ``b`` in ``a``'s, is answered
       without the DP (empty sides included: ``max(0, m) = m``). The test
       is a few array ops over the whole batch.
    2. **The shorter side drives the row loop.** EDR is symmetric (insert
       and delete both cost 1, the match test is symmetric), so each
       remaining pair puts its shorter sequence on the row axis.

    The remaining pairs are padded to common lengths; since the
    prefix-minimum recurrence only flows left to right and down, and pair
    ``p``'s distance is read off its own last row and column the moment the
    program reaches it, padded rows and columns never influence a recorded
    value. The Python-level loop therefore runs ``max_p min(n_p, m_p)``
    times over the pairs rule 1 leaves, instead of the reference's
    ``sum_p n_p``, or ``max_p n_p`` with ``a`` always on the rows. EDR
    values are integer-valued, so the batched arithmetic is exactly the
    reference's; like the reference, a NaN ``eps`` or coordinate never
    matches.
    """
    if len(a_list) != len(b_list):
        raise ValueError("a_list and b_list must have the same length")
    a_mats = [_as_xy(a) for a in a_list]
    b_mats = [_as_xy(b) for b in b_list]
    n_pairs = len(a_mats)
    if n_pairs == 0:
        return np.empty(0)
    # Bound the padded scratch buffers (pairs x longer side, a few of them)
    # and rule 1's point arrays: chunk the pair axis so one unusually long
    # sequence cannot inflate every pair's row across a large batch.
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
    out = np.maximum(n_lens, m_lens).astype(float)
    live = _any_in_grown_box(a_mats, n_lens, b_mats, m_lens, eps)
    live &= _any_in_grown_box(b_mats, m_lens, a_mats, n_lens, eps)
    pairs = np.flatnonzero(live)
    if len(pairs):
        rows, cols = [], []
        for p in pairs.tolist():
            a, b = a_mats[p], b_mats[p]
            if len(a) > len(b):
                a, b = b, a
            rows.append(a)
            cols.append(b)
        out[pairs] = _edr_dp(rows, cols, eps)
    return out


def _any_in_grown_box(
    pts: list[np.ndarray],
    pts_lens: np.ndarray,
    box: list[np.ndarray],
    box_lens: np.ndarray,
    eps: float,
) -> np.ndarray:
    """Per pair: does some point of ``pts[p]`` lie in ``box[p]``'s grown box?

    The box is the xy bounding box of ``box[p]``'s points, grown by ``eps``
    per dimension; a ``False`` pair has no matching point pair at all. The
    per-axis gap to the box is ``fmax(lo - x, x - hi)``: rounding is
    monotone, so ``lo - x > eps`` implies ``q - x > eps`` for every
    ``q >= lo``, and ``gap <= eps`` is the reference's own comparison, so a
    NaN ``eps`` or point coordinate never passes. ``fmin``/``fmax`` build
    the box ignoring NaN coordinates (such points never match), and the
    NaN-ignoring ``fmax`` for the gap keeps an infinite ``x`` on an
    infinite bound from reading as NaN. Empty sides are ``False``.
    """
    n_pairs = len(pts)
    lo = np.full((n_pairs, 2), np.nan)
    hi = np.full((n_pairs, 2), np.nan)
    has_box = box_lens > 0
    flat = np.concatenate(box)
    # Starts of the non-empty segments: reduceat over them spans exactly
    # each segment, since the empty ones between add no rows.
    starts = (np.cumsum(box_lens) - box_lens)[has_box]
    lo[has_box] = np.fmin.reduceat(flat, starts, axis=0)
    hi[has_box] = np.fmax.reduceat(flat, starts, axis=0)
    owner = np.repeat(np.arange(n_pairs), pts_lens)
    xy = np.concatenate(pts)
    gap = np.fmax(lo[owner] - xy, xy - hi[owner])
    inside = owner[np.maximum(gap[:, 0], gap[:, 1]) <= eps]
    return np.bincount(inside, minlength=n_pairs) > 0


def _edr_dp(
    rows: list[np.ndarray], cols: list[np.ndarray], eps: float
) -> np.ndarray:
    """The padded rolling DP over non-empty pairs, one loop step per row.

    With ``D`` a pair's EDR table (``D[i][0] = i``, ``D[0][j] = j``,
    ``D[i][j] = min(D[i-1][j-1] + 1 - match, D[i-1][j] + 1, D[i][j-1] + 1)``)
    the loop keeps ``r[j] = D[i][j] - i - j``. Row 0 and column 0 of ``r``
    are then 0, the left-to-right dependency unrolls to a prefix minimum,
    and one row step is three array ops::

        r_i[j] = min(0, min_{1<=k<=j} min(r_{i-1}[k-1] - cost[k], r_{i-1}[k]))

    with ``cost = 1 + match``, built for a block of rows at a time.
    """
    n_pairs = len(rows)
    n_lens = np.array([len(m) for m in rows], dtype=np.int64)
    m_lens = np.array([len(m) for m in cols], dtype=np.int64)
    n_max = int(n_lens.max())
    m_max = int(m_lens.max())
    out = np.empty(n_pairs)
    # Padded coordinates: +inf on the row side, -inf on the column side;
    # whatever they compare to, they only feed cells no pair reads.
    ax = np.full((n_max, n_pairs), np.inf)
    ay = np.full((n_max, n_pairs), np.inf)
    bx = np.full((n_pairs, m_max), -np.inf)
    by = np.full((n_pairs, m_max), -np.inf)
    for p, mat in enumerate(rows):
        ax[: len(mat), p] = mat[:, 0]
        ay[: len(mat), p] = mat[:, 1]
    for p, mat in enumerate(cols):
        bx[p, : len(mat)] = mat[:, 0]
        by[p, : len(mat)] = mat[:, 1]
    finish_at: list[list[int]] = [[] for _ in range(n_max + 1)]
    for p, n in enumerate(n_lens.tolist()):
        finish_at[n].append(p)
    # The row step allocates nothing: two state buffers alternate and their
    # column views are taken once (the loop runs n_max times, and per-call
    # overhead, not arithmetic, dominates at kNN scales).
    state = [
        (buf, buf[:, :-1], buf[:, 1:])
        for buf in np.zeros((2, n_pairs, m_max + 1))
    ]
    # Rows per cost block: it has as many elements as a scratch buffer.
    block = max(1, _MAX_DP_ELEMENTS // (n_pairs * m_max))
    for start in range(0, n_max, block):
        # max(|dx|, |dy|) <= eps is the reference's per-dimension match
        # test (NaN propagates through maximum and fails it).
        dx = np.abs(ax[start : start + block, :, None] - bx)
        dy = np.abs(ay[start : start + block, :, None] - by)
        cost = np.less_equal(np.maximum(dx, dy, out=dx), eps) + 1.0
        for i, cost_row in enumerate(cost, start + 1):
            _, prev_head, prev_tail = state[(i - 1) % 2]
            current, _, current_tail = state[i % 2]
            np.subtract(prev_head, cost_row, out=current_tail)
            np.minimum(current_tail, prev_tail, out=current_tail)
            np.minimum.accumulate(current, axis=1, out=current)
            # Pairs whose row side ends at this row are done; later steps
            # only touch their padded rows.
            done = finish_at[i]
            if done:
                m_done = m_lens[done]
                out[done] = current[done, m_done] + (i + m_done)
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
    """Symmetric pairwise EDR matrix for a list of trajectories.

    The upper triangle is one :func:`edr_distances_pairs` batch.
    """
    n = len(trajectories)
    dist = np.zeros((n, n))
    upper_i, upper_j = np.triu_indices(n, k=1)
    d = edr_distances_pairs(
        [trajectories[i] for i in upper_i],
        [trajectories[j] for j in upper_j],
        eps,
    )
    dist[upper_i, upper_j] = d
    dist[upper_j, upper_i] = d
    return dist
