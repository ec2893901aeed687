"""Counters, gauges, and mergeable log-bucketed latency histograms.

The observability primitives every serving layer reports through:

* :class:`Counter` — a monotonically increasing tally (requests served,
  cache hits, bytes shipped);
* :class:`Gauge` — a point-in-time level (shm segments resident, pending
  points);
* :class:`Histogram` — a **fixed log-bucketed** distribution sketch.
  Bucket boundaries are determined entirely by the constructor parameters
  ``(min_value, growth, n_buckets)``, never by the data, which is what
  makes two histograms with the same layout *mergeable*: merging adds
  bucket counts elementwise (plus count/sum/max), so per-shard histograms
  recorded inside worker processes can travel back with gather replies
  and fold into one service-wide distribution. Quantiles (p50/p95/p99)
  are derived from the buckets — each estimate is exact to within the
  width of the bucket containing the true order statistic.
* :class:`MetricsRegistry` — a flat name -> instrument map with
  JSON-safe :meth:`~MetricsRegistry.snapshot` /
  :meth:`~MetricsRegistry.merge_snapshot`, the unit that crosses process
  and wire boundaries (the ``metrics`` op of the socket protocol ships
  exactly these snapshots). It is the serving stack's one metrics type
  (``ServiceStats`` is a view over one) and locks itself, so threads
  share a registry without a lock of their own.

Latency durations are measured by callers with :func:`time.perf_counter`
deltas (monotonic); the instruments only ever see non-negative floats.
"""

from __future__ import annotations

import math
import threading
from typing import Iterable

import numpy as np

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: Default bucket layout: 1 microsecond lower bound, quarter-octave
#: (2**0.25 ~ 1.19x) growth, 112 buckets -> covers up to ~268 seconds
#: before the overflow bucket. Chosen for latencies in seconds; callers
#: recording other units should size their own layout.
DEFAULT_MIN_VALUE = 1e-6
DEFAULT_GROWTH = 2.0 ** 0.25
DEFAULT_N_BUCKETS = 112


class Counter:
    """A monotonically increasing numeric tally."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a Gauge for levels")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.value})"


class Gauge:
    """A point-in-time level (set, not accumulated)."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0) -> None:
        self.value = value

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.value})"


class Histogram:
    """A fixed log-bucketed distribution sketch (mergeable, JSON-safe).

    Bucket ``i`` (``1 <= i <= n_buckets``) covers
    ``(min_value * growth**(i-1), min_value * growth**i]``; bucket ``0``
    is the underflow bucket (values ``<= min_value``, including zero) and
    bucket ``n_buckets + 1`` the overflow bucket. Alongside the bucket
    counts the histogram tracks ``count``, ``sum`` (accumulated in record
    order, so a single-writer histogram's ``sum`` is bit-identical to the
    plain running total it replaced), and ``max`` exactly.

    Two histograms **merge** iff their ``(min_value, growth, n_buckets)``
    layouts match: counts add elementwise, ``sum`` adds, ``max`` takes the
    larger. Bucket counts are integers, so merge is exactly associative
    and commutative on everything except the floating ``sum`` (commutative
    exactly; associative to rounding).
    """

    __slots__ = ("min_value", "growth", "n_buckets", "counts", "count", "sum", "max", "_log_growth")

    def __init__(
        self,
        min_value: float = DEFAULT_MIN_VALUE,
        growth: float = DEFAULT_GROWTH,
        n_buckets: int = DEFAULT_N_BUCKETS,
    ) -> None:
        if min_value <= 0:
            raise ValueError("min_value must be positive")
        if growth <= 1.0:
            raise ValueError("growth must exceed 1")
        if n_buckets < 1:
            raise ValueError("need at least one bucket")
        self.min_value = float(min_value)
        self.growth = float(growth)
        self.n_buckets = int(n_buckets)
        self._log_growth = math.log(self.growth)
        self.counts = np.zeros(self.n_buckets + 2, dtype=np.int64)
        self.count = 0
        self.sum = 0.0
        self.max = 0.0

    # ----------------------------------------------------------------- layout
    def layout(self) -> tuple[float, float, int]:
        return (self.min_value, self.growth, self.n_buckets)

    def bucket_index(self, value: float) -> int:
        """The bucket a value falls into (0 = underflow, n+1 = overflow)."""
        if value <= self.min_value:
            return 0
        idx = 1 + int(math.floor(math.log(value / self.min_value) / self._log_growth))
        # Guard the upper edge: value == upper_edge(i) must land in bucket i,
        # but floating log can round either way on exact edges.
        while idx > 1 and value <= self.upper_edge(idx - 1):
            idx -= 1
        return min(idx, self.n_buckets + 1)

    def upper_edge(self, index: int) -> float:
        """Upper boundary of bucket ``index`` (``min_value`` for underflow)."""
        if index <= 0:
            return self.min_value
        return self.min_value * self.growth ** min(index, self.n_buckets)

    def lower_edge(self, index: int) -> float:
        if index <= 0:
            return 0.0
        return self.min_value * self.growth ** (index - 1)

    # ----------------------------------------------------------------- record
    def record(self, value: float) -> None:
        """Record one observation (non-negative; latency seconds here)."""
        value = float(value)
        if value < 0 or not math.isfinite(value):
            raise ValueError(f"histogram values must be finite and >= 0, got {value}")
        self.counts[self.bucket_index(value)] += 1
        self.count += 1
        self.sum += value
        if value > self.max:
            self.max = value

    def record_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.record(value)

    # ------------------------------------------------------------------ stats
    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The q-quantile estimated from the buckets.

        Uses the inverted-CDF rank convention (the ``ceil(q * n)``-th order
        statistic, matching ``np.quantile(..., method="inverted_cdf")``)
        and returns the containing bucket's **upper edge** — a conservative
        estimate within one bucket width of the true order statistic. The
        overflow bucket reports the exact observed ``max``; an empty
        histogram reports 0.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        cum = 0
        for idx in range(len(self.counts)):
            cum += int(self.counts[idx])
            if cum >= rank:
                if idx >= self.n_buckets + 1:
                    return self.max
                return min(self.upper_edge(idx), self.max) if idx else self.upper_edge(0)
        return self.max  # pragma: no cover - unreachable (cum ends at count)

    # ------------------------------------------------------------------ merge
    def merge(self, other: "Histogram") -> "Histogram":
        """Fold another histogram into this one (in place; returns self)."""
        if self.layout() != other.layout():
            raise ValueError(
                f"cannot merge histograms with different layouts: "
                f"{self.layout()} vs {other.layout()}"
            )
        self.counts += other.counts
        self.count += other.count
        self.sum += other.sum
        if other.max > self.max:
            self.max = other.max
        return self

    def merged(self, other: "Histogram") -> "Histogram":
        """A new histogram equal to ``self`` merged with ``other``."""
        return self.copy().merge(other)

    def copy(self) -> "Histogram":
        out = Histogram(self.min_value, self.growth, self.n_buckets)
        out.counts = self.counts.copy()
        out.count = self.count
        out.sum = self.sum
        out.max = self.max
        return out

    # ------------------------------------------------------------------ codec
    def to_json(self) -> dict:
        """JSON-safe encoding (sparse bucket list; round-trips exactly)."""
        nonzero = np.nonzero(self.counts)[0]
        return {
            "min_value": self.min_value,
            "growth": self.growth,
            "n_buckets": self.n_buckets,
            "count": int(self.count),
            "sum": float(self.sum),
            "max": float(self.max),
            "buckets": [[int(i), int(self.counts[i])] for i in nonzero],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Histogram":
        out = cls(
            min_value=float(obj["min_value"]),
            growth=float(obj["growth"]),
            n_buckets=int(obj["n_buckets"]),
        )
        for idx, n in obj.get("buckets", []):
            out.counts[int(idx)] = int(n)
        out.count = int(obj["count"])
        out.sum = float(obj["sum"])
        out.max = float(obj["max"])
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Histogram)
            and self.layout() == other.layout()
            and self.count == other.count
            and self.max == other.max
            and bool(np.array_equal(self.counts, other.counts))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Histogram(count={self.count}, mean={self.mean:.6g}, "
            f"p95={self.quantile(0.95):.6g}, max={self.max:.6g})"
        )


class MetricsRegistry:
    """A flat name -> instrument map with mergeable JSON snapshots.

    ``counter(name)`` / ``gauge(name)`` / ``histogram(name)`` get-or-create
    the named instrument, so instrumentation sites never need registration
    boilerplate. :meth:`snapshot` is the serialization unit: a plain dict
    safe for ``json.dumps`` (and for the pickled executor pipes), and
    :meth:`merge_snapshot` folds such a snapshot back in — the pattern the
    service uses to aggregate per-shard registries shipped from worker
    processes.

    One re-entrant :attr:`lock` guards get-or-create, :meth:`inc` /
    :meth:`set` / :meth:`record`, and (de)serialization; several
    mutations that must land together go inside ``with registry.lock:``.
    """

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        self.lock = threading.RLock()

    # ------------------------------------------------------------ instruments
    def _get(self, table: dict, name: str, factory):
        # Instruments are never removed or replaced: handles stay valid.
        instrument = table.get(name)
        if instrument is None:
            with self.lock:
                instrument = table.get(name)
                if instrument is None:
                    instrument = table[name] = factory()
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(self.counters, name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(self.gauges, name, Gauge)

    def histogram(self, name: str, **layout) -> Histogram:
        return self._get(self.histograms, name, lambda: Histogram(**layout))

    def inc(self, name: str, amount: float = 1) -> None:
        with self.lock:
            self.counter(name).inc(amount)

    def set(self, name: str, value: float) -> None:
        with self.lock:
            self.gauge(name).set(value)

    def record(self, name: str, value: float) -> None:
        with self.lock:
            self.histogram(name).record(value)

    # -------------------------------------------------------------- snapshot
    def snapshot(self, prefix: str = "") -> dict:
        """A JSON-safe copy of every instrument's current state (only the
        names starting with ``prefix``, when given)."""

        def pick(table: dict) -> list:
            return sorted(item for item in table.items() if item[0].startswith(prefix))

        with self.lock:
            return {
                "counters": {k: c.value for k, c in pick(self.counters)},
                "gauges": {k: g.value for k, g in pick(self.gauges)},
                "histograms": {k: h.to_json() for k, h in pick(self.histograms)},
            }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` dict in: counters add, gauges take the
        latest value, histograms merge bucketwise."""
        with self.lock:
            for name, value in snapshot.get("counters", {}).items():
                self.counter(name).inc(value)
            for name, value in snapshot.get("gauges", {}).items():
                self.gauge(name).set(value)
            for name, encoded in snapshot.get("histograms", {}).items():
                incoming = Histogram.from_json(encoded)
                existing = self._get(self.histograms, name, lambda: incoming)
                if existing is not incoming:
                    existing.merge(incoming)
