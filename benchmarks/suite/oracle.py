"""Correctness: served replies against a fresh in-process engine.

The repo's oracle is that every serving configuration answers
bit-identically to a fresh :class:`~repro.client.LocalClient` over the
same data. The F1 metrics are the graded form of the same comparison:
exactly 1 where serving is exact, the paper's accuracy measure where the
database was simplified.
"""

from __future__ import annotations

from repro.queries.metrics import mean_f1

#: The kinds whose replies are id sets the paper scores with F1.
F1_KINDS = ("range", "knn", "similarity")


def answer(response):
    """The reply's payload in a form that compares bit for bit."""
    kind = response.kind
    if kind in ("range", "similarity"):
        return tuple(frozenset(s) for s in response.result_sets)
    if kind == "count":
        return (response.counts.dtype.str, response.counts.tobytes())
    if kind == "histogram":
        return (response.histogram.shape, response.histogram.tobytes())
    if kind == "knn":
        return tuple(tuple((float(d), int(i)) for d, i in q) for q in response.pairs)
    raise ValueError(f"unknown response kind {kind!r}")


def f1(truth, got) -> float:
    """Mean F1 of ``got`` against ``truth`` (range / knn / similarity)."""
    if truth.kind == "knn":
        return mean_f1(
            [set(n) for n in truth.neighbors], [set(n) for n in got.neighbors]
        )
    return mean_f1(truth.result_sets, got.result_sets)


class Scorecard:
    """Accumulates oracle comparisons of one run."""

    def __init__(self, *, exact: bool) -> None:
        #: Whether a reply that differs from the oracle is a failed
        #: operation (exact serving) or just scores below 1 (simplified).
        self.exact = exact
        self.checked = 0
        self.mismatched = 0
        self._f1: dict[str, list[float]] = {k: [] for k in F1_KINDS}

    def compare(self, truth, got) -> bool:
        self.checked += 1
        same = answer(truth) == answer(got)
        if self.exact and not same:
            self.mismatched += 1
        if truth.kind in self._f1:
            self._f1[truth.kind].append(f1(truth, got))
        return same

    def mean_f1(self, kind: str) -> float:
        scores = self._f1[kind]
        if not scores:
            raise ValueError(f"no {kind} reply was checked")
        return sum(scores) / len(scores)
