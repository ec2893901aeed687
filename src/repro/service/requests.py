"""Typed request/response messages — the canonical, versioned wire schema.

Requests are small frozen dataclasses describing one batched operation;
each knows its scatter ``kind`` (which shard-runtime operation serves it),
how to build the scatter ``payload``, and a canonical ``cache_key`` — a
tuple of primitives over the query *values* (box bounds, query-point
digests, scalars), so two requests built from distinct but equal objects
hit the same cache line. The service keys its LRU on
``(cache_key, shard epoch)``: results can only change when the epoch does,
so ingestion invalidates by construction rather than by explicit flush.

Responses carry the merged result plus serving metadata (epoch, latency,
whether the result came from the cache).

Every request and response additionally implements ``to_json()`` /
``from_json()``: a JSON-object encoding carrying ``"v"``
(:data:`PROTOCOL_VERSION`) and ``"kind"``.
:class:`~repro.data.trajectory.Trajectory` payloads travel as
``{"id", "points"}`` objects. Every ndarray payload (trajectory points,
count vectors, histogram rasters) travels as one
``{"shape": [...], "data": "<base64>"}`` block, where ``data`` holds the
array's raw little-endian bytes (``<f8`` points and rasters, ``<i8``
counts) in C order. The IEEE-754 bytes travel verbatim, so decoding is
bit-identical, and neither side formats or parses one number per element.
Small scalar lists (box bounds, windows, kNN ``(distance, id)`` pairs,
id sets) stay plain JSON. Decoding *validates*: malformed input —
unknown kinds, bad box bounds, non-numeric windows, unsupported versions,
array blocks whose shape and byte length disagree, non-finite points —
raises the typed :class:`RequestError` with a clear message instead of
surfacing as an ``AttributeError``/``KeyError`` deep inside the scatter
path. This schema is what every transport speaks: the asyncio socket
front-end (:mod:`repro.service.server`) frames exactly these objects, and
the client facades (:mod:`repro.client`) build them.
"""

from __future__ import annotations

import base64
import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.data.bbox import BoundingBox
from repro.data.trajectory import Trajectory
from repro.queries.engine import array_digest

#: Version tag of the wire schema. Bumped on any incompatible change to the
#: request/response JSON layout; the socket handshake rejects mismatches.
PROTOCOL_VERSION = 2

#: Hard per-frame cap (64 MiB): framing stays sane even against garbage.
#: Decoding also refuses requests whose reply could never fit under it.
MAX_FRAME_BYTES = 64 << 20


class RequestError(ValueError):
    """A malformed or unsupported wire message, detected at decode time.

    Raised by every ``from_json`` codec (and by ``to_json`` for values that
    cannot travel, e.g. callable kNN measures) so transports can answer
    with a structured error frame instead of dropping the connection or
    failing deep inside the scatter path.
    """


def _fail(message: str) -> "RequestError":
    return RequestError(message)


def _number(value, what: str, *, finite: bool = True) -> float:
    """Decode one JSON number; bools and non-numerics are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(f"{what} must be a number, got {value!r}")
    out = float(value)
    if finite and not np.isfinite(out):
        raise _fail(f"{what} must be finite, got {value!r}")
    return out


def _integer(value, what: str, *, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise _fail(f"{what} must be >= {minimum}, got {value}")
    return int(value)


def box_to_json(box: BoundingBox) -> list[float]:
    """``[xmin, xmax, ymin, ymax, tmin, tmax]`` (the CLI's box layout)."""
    return [box.xmin, box.xmax, box.ymin, box.ymax, box.tmin, box.tmax]


def box_from_json(obj) -> BoundingBox:
    if not isinstance(obj, (list, tuple)) or len(obj) != 6:
        raise _fail(
            "a box must be a 6-element array "
            f"[xmin, xmax, ymin, ymax, tmin, tmax], got {obj!r}"
        )
    bounds = [_number(v, f"box bound {i}") for i, v in enumerate(obj)]
    try:
        return BoundingBox(*bounds)
    except ValueError as exc:  # degenerate (min > max) bounds
        raise _fail(f"bad box bounds: {exc}") from None


def _array_to_json(arr: np.ndarray, dtype: str) -> dict:
    """``{"shape", "data"}``: the C-order ``dtype`` bytes of ``arr``, base64."""
    arr = np.ascontiguousarray(arr, dtype=dtype)
    return {
        "shape": list(arr.shape),
        "data": base64.b64encode(arr).decode("ascii"),
    }


def _array_from_json(obj, dtype: str, ndim: int, what: str) -> np.ndarray:
    """Decode one :func:`_array_to_json` block into a read-only array view.

    The byte length is checked against the shape in Python ints before
    any array exists, so a hostile shape allocates nothing.
    """
    if not isinstance(obj, dict):
        raise _fail(
            f"{what} must be a {{'shape', 'data'}} object carrying base64 "
            f"little-endian {dtype} bytes (protocol version "
            f"{PROTOCOL_VERSION}), got {type(obj).__name__}"
        )
    shape = obj.get("shape")
    if (
        not isinstance(shape, list)
        or len(shape) != ndim
        or any(isinstance(d, bool) or not isinstance(d, int) or d < 0 for d in shape)
    ):
        raise _fail(
            f"{what} shape must be a list of {ndim} non-negative integers, "
            f"got {shape!r}"
        )
    data = obj.get("data")
    if not isinstance(data, str):
        raise _fail(f"{what} data must be a base64 string, got {type(data).__name__}")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError as exc:  # binascii.Error, or non-ASCII text
        raise _fail(f"{what} data is not valid base64: {exc}") from None
    need = np.dtype(dtype).itemsize * math.prod(shape)
    if len(raw) != need:
        raise _fail(
            f"{what} carries {len(raw)} bytes but shape {shape} of {dtype} "
            f"needs {need}"
        )
    return np.frombuffer(raw, dtype=dtype).reshape(shape)


def trajectory_to_json(trajectory: Trajectory) -> dict:
    return {
        "id": int(trajectory.traj_id),
        "points": _array_to_json(trajectory.points, "<f8"),
    }


def trajectory_from_json(obj) -> Trajectory:
    if not isinstance(obj, dict) or "points" not in obj:
        raise _fail(f"a trajectory must be an object with 'points', got {obj!r}")
    traj_id = _integer(obj.get("id", -1), "trajectory id")
    points = _array_from_json(obj["points"], "<f8", 2, "trajectory points")
    if points.shape[1] != 3:
        raise _fail(
            f"trajectory points must be (n, 3) [x, y, t] rows, got shape "
            f"{points.shape}"
        )
    # The bytes can carry any IEEE-754 pattern; one NaN or Infinity point
    # in a shard would break the engine grid's candidate sweep.
    if not np.isfinite(points).all():
        raise _fail("trajectory points must be finite (no NaN or Infinity)")
    try:
        return Trajectory(points, traj_id=traj_id)
    except ValueError as exc:
        raise _fail(f"bad trajectory: {exc}") from None


def _windows_to_json(windows) -> list | None:
    if windows is None:
        return None
    return [None if w is None else [float(w[0]), float(w[1])] for w in windows]


def _windows_from_json(obj, n_queries: int):
    if obj is None:
        return None
    if not isinstance(obj, list):
        raise _fail(f"time_windows must be an array or null, got {obj!r}")
    if len(obj) != n_queries:
        raise _fail(
            f"time_windows has {len(obj)} entries for {n_queries} queries"
        )
    windows = []
    for i, w in enumerate(obj):
        if w is None:
            windows.append(None)
            continue
        if not isinstance(w, (list, tuple)) or len(w) != 2:
            raise _fail(f"time window {i} must be [ts, te] or null, got {w!r}")
        windows.append(
            (_number(w[0], f"time window {i} start"),
             _number(w[1], f"time window {i} end"))
        )
    return tuple(windows)


def _queries_from_json(obj) -> tuple[Trajectory, ...]:
    if not isinstance(obj, list) or not obj:
        raise _fail(f"queries must be a non-empty array, got {obj!r}")
    return tuple(trajectory_from_json(q) for q in obj)


def _boxes_from_json(obj: dict) -> tuple[BoundingBox, ...]:
    boxes = obj.get("boxes")
    if not isinstance(boxes, list):
        raise _fail(f"'boxes' must be an array of boxes, got {boxes!r}")
    return tuple(box_from_json(b) for b in boxes)


def _check_version(obj) -> None:
    version = obj.get("v")
    if version != PROTOCOL_VERSION:
        raise _fail(
            f"unsupported protocol version {version!r} "
            f"(this build speaks version {PROTOCOL_VERSION})"
        )


def _boxes_of(queries) -> tuple[BoundingBox, ...]:
    """Normalize a workload / RangeQuery list / BoundingBox list to boxes."""
    return tuple(q.box if hasattr(q, "box") else q for q in queries)


def _bounds_key(boxes: tuple[BoundingBox, ...]) -> bytes:
    if not boxes:
        return b""
    lo = np.array([[b.xmin, b.ymin, b.tmin] for b in boxes])
    hi = np.array([[b.xmax, b.ymax, b.tmax] for b in boxes])
    return lo.tobytes() + hi.tobytes()

def _queries_key(
    queries: tuple[Trajectory, ...],
    windows,
) -> tuple:
    digests = tuple(array_digest(q.points) for q in queries)
    if windows is None:
        return (digests, None)
    # Deep-convert: windows commonly arrive as lists (e.g. JSON-decoded),
    # which are unhashable and would crash the cache lookup.
    return (
        digests,
        tuple(
            None if w is None else (float(w[0]), float(w[1])) for w in windows
        ),
    )


@dataclass(frozen=True)
class RangeRequest:
    """Evaluate a range-query workload: one trajectory-id set per box."""

    boxes: tuple[BoundingBox, ...]
    kind = "range"

    @classmethod
    def from_workload(cls, workload) -> "RangeRequest":
        return cls(_boxes_of(workload))

    def payload(self, service) -> dict:
        return {"boxes": list(self.boxes)}

    def cache_key(self) -> tuple:
        return ("range", _bounds_key(self.boxes))

    def to_json(self) -> dict:
        return {
            "v": PROTOCOL_VERSION,
            "kind": self.kind,
            "boxes": [box_to_json(b) for b in self.boxes],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RangeRequest":
        return cls(_boxes_from_json(obj))


@dataclass(frozen=True)
class CountRequest:
    """Per-box point counts (the count aggregate)."""

    boxes: tuple[BoundingBox, ...]
    kind = "count"

    @classmethod
    def from_workload(cls, workload) -> "CountRequest":
        return cls(_boxes_of(workload))

    def payload(self, service) -> dict:
        return {"boxes": list(self.boxes)}

    def cache_key(self) -> tuple:
        return ("count", _bounds_key(self.boxes))

    def to_json(self) -> dict:
        return {
            "v": PROTOCOL_VERSION,
            "kind": self.kind,
            "boxes": [box_to_json(b) for b in self.boxes],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CountRequest":
        return cls(_boxes_from_json(obj))


@dataclass(frozen=True)
class HistogramRequest:
    """The spatial density heatmap over ``box`` (service extent when None)."""

    grid: int = 32
    box: BoundingBox | None = None
    normalize: bool = False
    kind = "histogram"

    def payload(self, service) -> dict:
        # Resolve the default region HERE, against the live global extent:
        # each shard must rasterize over the same box or partial rasters
        # would not sum to the single-database histogram.
        box = self.box if self.box is not None else service.manager.extent()
        return {"grid": int(self.grid), "box": box}

    def cache_key(self) -> tuple:
        box = self.box
        bounds = None if box is None else _bounds_key((box,))
        return ("histogram", int(self.grid), bounds, bool(self.normalize))

    def to_json(self) -> dict:
        return {
            "v": PROTOCOL_VERSION,
            "kind": self.kind,
            "grid": int(self.grid),
            "box": None if self.box is None else box_to_json(self.box),
            "normalize": bool(self.normalize),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "HistogramRequest":
        grid = _integer(obj.get("grid", 32), "grid", minimum=1)
        # The reply carries grid² float64 cells as base64 (4 chars per 3
        # bytes): a grid whose raster alone overflows the frame cap could
        # only be computed, cached, and then refused at encode time.
        if 4 * -(-8 * grid * grid // 3) > MAX_FRAME_BYTES:
            raise _fail(
                f"grid {grid} is too large: its raster would exceed the "
                f"{MAX_FRAME_BYTES}-byte frame cap"
            )
        box = obj.get("box")
        normalize = obj.get("normalize", False)
        if not isinstance(normalize, bool):
            raise _fail(f"normalize must be a boolean, got {normalize!r}")
        return cls(
            grid=grid,
            box=None if box is None else box_from_json(box),
            normalize=normalize,
        )


@dataclass(frozen=True)
class KnnRequest:
    """k nearest trajectories per query, under EDR or a custom callable.

    ``measure="t2vec"`` is rejected up front: the learned embedder is a
    fitted in-process object the service has no plumbing to distribute to
    shard workers (evaluate t2vec kNN through
    :func:`repro.queries.knn.knn_query_batch` directly).
    """

    queries: tuple[Trajectory, ...]
    k: int
    time_windows: tuple[tuple[float, float] | None, ...] | None = None
    measure: "str | Callable" = "edr"
    eps: float = 2000.0
    kind = "knn"

    def __post_init__(self) -> None:
        if self.measure == "t2vec":
            raise ValueError(
                "the sharded service cannot serve measure='t2vec' (no "
                "embedder distribution); use 'edr' or a picklable callable"
            )

    def payload(self, service) -> dict:
        return {
            "queries": list(self.queries),
            "k": int(self.k),
            "time_windows": None
            if self.time_windows is None
            else list(self.time_windows),
            "measure": self.measure,
            "eps": float(self.eps),
        }

    def cache_key(self) -> tuple | None:
        if not isinstance(self.measure, str):
            return None  # opaque callables are not cacheable
        return (
            "knn",
            _queries_key(self.queries, self.time_windows),
            int(self.k),
            self.measure,
            float(self.eps),
        )

    def to_json(self) -> dict:
        if not isinstance(self.measure, str):
            raise RequestError(
                "callable kNN measures are in-process objects and cannot be "
                "wire-encoded; use measure='edr' over the network"
            )
        return {
            "v": PROTOCOL_VERSION,
            "kind": self.kind,
            "queries": [trajectory_to_json(q) for q in self.queries],
            "k": int(self.k),
            "time_windows": _windows_to_json(self.time_windows),
            "measure": self.measure,
            "eps": float(self.eps),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "KnnRequest":
        queries = _queries_from_json(obj.get("queries"))
        measure = obj.get("measure", "edr")
        if not isinstance(measure, str):
            raise _fail(f"measure must be a string on the wire, got {measure!r}")
        try:
            return cls(
                queries=queries,
                k=_integer(obj.get("k"), "k", minimum=1),
                time_windows=_windows_from_json(
                    obj.get("time_windows"), len(queries)
                ),
                measure=measure,
                eps=_number(obj.get("eps", 2000.0), "eps"),
            )
        except RequestError:
            raise
        except ValueError as exc:  # e.g. the t2vec rejection in __post_init__
            raise _fail(str(exc)) from None


@dataclass(frozen=True)
class SimilarityRequest:
    """Synchronized-distance threshold matches per query trajectory."""

    queries: tuple[Trajectory, ...]
    delta: float
    time_windows: tuple[tuple[float, float] | None, ...] | None = None
    n_checkpoints: int = 32
    kind = "similarity"

    def payload(self, service) -> dict:
        return {
            "queries": list(self.queries),
            "delta": float(self.delta),
            "time_windows": None
            if self.time_windows is None
            else list(self.time_windows),
            "n_checkpoints": int(self.n_checkpoints),
        }

    def cache_key(self) -> tuple:
        return (
            "similarity",
            _queries_key(self.queries, self.time_windows),
            float(self.delta),
            int(self.n_checkpoints),
        )

    def to_json(self) -> dict:
        return {
            "v": PROTOCOL_VERSION,
            "kind": self.kind,
            "queries": [trajectory_to_json(q) for q in self.queries],
            "delta": float(self.delta),
            "time_windows": _windows_to_json(self.time_windows),
            "n_checkpoints": int(self.n_checkpoints),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SimilarityRequest":
        queries = _queries_from_json(obj.get("queries"))
        delta = _number(obj.get("delta"), "delta")
        if delta < 0:
            raise _fail(f"delta must be non-negative, got {delta}")
        windows = _windows_from_json(obj.get("time_windows"), len(queries))
        for i, window in enumerate(windows or ()):
            # The engine refuses an inverted window on every shard; refuse
            # it here, once, as the malformed request it is.
            if window is not None and window[1] < window[0]:
                raise _fail(
                    f"time window {i} ends before it starts: {list(window)}"
                )
        n_checkpoints = _integer(
            obj.get("n_checkpoints", 32), "n_checkpoints", minimum=1
        )
        # Every shard builds an (n_checkpoints, 3) float64 checkpoint array
        # per query: cap it as the histogram grid is capped, so one small
        # frame cannot ask each worker for gigabytes.
        if 24 * n_checkpoints > MAX_FRAME_BYTES:
            raise _fail(
                f"n_checkpoints {n_checkpoints} is too large: its checkpoint "
                f"array would exceed the {MAX_FRAME_BYTES}-byte frame cap"
            )
        return cls(
            queries=queries,
            delta=delta,
            time_windows=windows,
            n_checkpoints=n_checkpoints,
        )


REQUEST_TYPES = (
    RangeRequest,
    CountRequest,
    HistogramRequest,
    KnnRequest,
    SimilarityRequest,
)

#: ``kind`` -> request class, the wire-decode dispatch table.
REQUEST_KINDS = {cls.kind: cls for cls in REQUEST_TYPES}


def request_to_json(request) -> dict:
    """Encode any typed request to its wire JSON object."""
    return request.to_json()


def request_from_json(obj):
    """Decode (and validate) a wire JSON object into a typed request.

    Raises :class:`RequestError` on anything malformed: a non-object,
    an unsupported ``"v"``, an unknown ``"kind"``, bad box bounds,
    non-numeric windows, and so on.
    """
    if not isinstance(obj, dict):
        raise _fail(f"a request must be a JSON object, got {obj!r}")
    _check_version(obj)
    kind = obj.get("kind")
    cls = REQUEST_KINDS.get(kind)
    if cls is None:
        raise _fail(
            f"unknown request kind {kind!r}; "
            f"expected one of {sorted(REQUEST_KINDS)}"
        )
    return cls.from_json(obj)


@dataclass(frozen=True, kw_only=True)
class Response:
    """Serving metadata shared by every response type."""

    kind: str
    epoch: int
    latency_s: float
    cached: bool
    n_shards: int
    #: The request's trace id (minted in the client or accepted from the
    #: wire); echoes back so callers can correlate responses with exported
    #: spans. Excluded from equality — two transports serving the same
    #: request produce equal responses regardless of trace ids.
    trace_id: str | None = field(default=None, compare=False)

    def _meta_json(self) -> dict:
        out = {
            "v": PROTOCOL_VERSION,
            "kind": self.kind,
            "epoch": int(self.epoch),
            "latency_s": float(self.latency_s),
            "cached": bool(self.cached),
            "n_shards": int(self.n_shards),
        }
        if self.trace_id is not None:
            out["trace"] = str(self.trace_id)
        return out


@dataclass(frozen=True, kw_only=True)
class RangeResponse(Response):
    result_sets: list[set[int]] = field(compare=False)

    def to_json(self) -> dict:
        return {
            **self._meta_json(),
            "result_sets": [sorted(int(i) for i in s) for s in self.result_sets],
        }


@dataclass(frozen=True, kw_only=True)
class CountResponse(Response):
    counts: np.ndarray = field(compare=False)

    def to_json(self) -> dict:
        return {**self._meta_json(), "counts": _array_to_json(self.counts, "<i8")}


@dataclass(frozen=True, kw_only=True)
class HistogramResponse(Response):
    histogram: np.ndarray = field(compare=False)

    def to_json(self) -> dict:
        return {
            **self._meta_json(),
            "histogram": _array_to_json(self.histogram, "<f8"),
        }


@dataclass(frozen=True, kw_only=True)
class KnnResponse(Response):
    #: Per query: neighbour ids, most similar first (may be shorter than k).
    neighbors: list[list[int]] = field(compare=False)
    #: Per query: the (distance, id) pairs behind the ranking.
    pairs: list[list[tuple[float, int]]] = field(compare=False)

    def to_json(self) -> dict:
        # Neighbors are derived from the pairs on decode; only pairs travel.
        return {
            **self._meta_json(),
            "pairs": [
                [[float(d), int(i)] for d, i in pairs] for pairs in self.pairs
            ],
        }


@dataclass(frozen=True, kw_only=True)
class SimilarityResponse(Response):
    result_sets: list[set[int]] = field(compare=False)

    def to_json(self) -> dict:
        return {
            **self._meta_json(),
            "result_sets": [sorted(int(i) for i in s) for s in self.result_sets],
        }


def response_to_json(response) -> dict:
    """Encode any typed response to its wire JSON object."""
    return response.to_json()


def response_from_json(obj):
    """Decode a wire JSON object back into its typed response.

    The numeric payloads round-trip bit-identically: counts and rasters
    travel as their raw bytes and decode into fresh mutable int64 / float64
    arrays, and kNN neighbour lists are re-derived from the (distance, id)
    pairs — the same derivation the serving side uses.
    """
    if not isinstance(obj, dict):
        raise _fail(f"a response must be a JSON object, got {obj!r}")
    _check_version(obj)
    kind = obj.get("kind")
    if kind not in REQUEST_KINDS:
        raise _fail(f"unknown response kind {kind!r}")
    trace_id = obj.get("trace")
    if trace_id is not None and not isinstance(trace_id, str):
        raise _fail(f"trace must be a string or absent, got {trace_id!r}")
    try:
        meta = {
            "kind": kind,
            "epoch": int(obj["epoch"]),
            "latency_s": float(obj["latency_s"]),
            "cached": bool(obj["cached"]),
            "n_shards": int(obj["n_shards"]),
            "trace_id": trace_id,
        }
        if kind in ("range", "similarity"):
            cls = RangeResponse if kind == "range" else SimilarityResponse
            return cls(
                result_sets=[set(int(i) for i in s) for s in obj["result_sets"]],
                **meta,
            )
        if kind == "count":
            counts = _array_from_json(obj["counts"], "<i8", 1, "counts")
            return CountResponse(counts=counts.astype(np.int64), **meta)
        if kind == "histogram":
            raster = _array_from_json(obj["histogram"], "<f8", 2, "histogram")
            return HistogramResponse(histogram=raster.astype(float), **meta)
        pairs = [
            [(float(d), int(i)) for d, i in query_pairs]
            for query_pairs in obj["pairs"]
        ]
        return KnnResponse(
            neighbors=[[tid for _, tid in query_pairs] for query_pairs in pairs],
            pairs=pairs,
            **meta,
        )
    except RequestError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise _fail(f"malformed {kind!r} response: {exc!r}") from None


def build_response(
    request,
    payload,
    *,
    epoch: int,
    latency_s: float,
    cached: bool,
    n_shards: int,
    trace_id: str | None = None,
):
    """Materialize the typed response for ``request`` from a canonical payload.

    The canonical payload forms are what :class:`QueryService`'s merge (and
    :class:`repro.client.LocalClient`'s engine dispatch) produce: tuples of
    frozensets for range/similarity, read-only arrays for count/histogram,
    and tuples of ``(distance, id)`` pair tuples for kNN. Payloads are
    copied into mutable containers here so cached entries stay immutable.
    """
    meta = {
        "kind": request.kind,
        "epoch": epoch,
        "latency_s": latency_s,
        "cached": cached,
        "n_shards": n_shards,
        "trace_id": trace_id,
    }
    if request.kind == "range":
        return RangeResponse(result_sets=[set(s) for s in payload], **meta)
    if request.kind == "similarity":
        return SimilarityResponse(result_sets=[set(s) for s in payload], **meta)
    if request.kind == "count":
        return CountResponse(counts=payload.copy(), **meta)
    if request.kind == "histogram":
        return HistogramResponse(histogram=payload.copy(), **meta)
    return KnnResponse(
        neighbors=[[tid for _, tid in pairs] for pairs in payload],
        pairs=[list(pairs) for pairs in payload],
        **meta,
    )


_MISS = object()

#: Entries of the whole-request result LRU of every serving loop.
CACHE_SIZE = 64


@dataclass(frozen=True)
class CacheLookup:
    """One probe of :meth:`ResultCache.lookup`, to be answered by
    :meth:`ResultCache.serve`: the request's cache key (``None`` when
    uncacheable), the cached payload on a hit, and the probe's own
    duration, which counts toward the request's latency."""

    request_key: tuple | None
    payload: object
    seconds: float

    @property
    def hit(self) -> bool:
        return self.payload is not _MISS


class ResultCache:
    """The serving loop shared by every transport: a
    :data:`CACHE_SIZE`-entry LRU of canonical payloads keyed on
    ``(request.cache_key(), epoch)``, plus the ``cache_lookup`` and
    ``request`` spans (into ``tracer``) and one ``stats.record`` per
    request.

    :class:`~repro.service.service.QueryService` and
    :class:`~repro.client.local.LocalClient` both serve through one
    instance each, so their cache/epoch/stats semantics cannot drift (the
    three-transport parity tests depend on them being identical). A
    request is :meth:`lookup` followed by :meth:`serve`; the socket server
    runs the two on different threads. Requests with no cache key are
    executed uncached and recorded as uncacheable rather than as misses.

    The lock guards only the ``OrderedDict`` bookkeeping, never a
    dispatch: payloads are immutable, so two threads racing the same cold
    key both dispatch and store the identical payload — wasted work at
    worst, never a wrong answer.
    """

    def __init__(self, stats, tracer) -> None:
        self._stats = stats
        self._tracer = tracer
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def lookup(self, request, epoch: int, trace_id: str | None = None) -> CacheLookup:
        """Compute ``request.cache_key()`` once, probe the LRU under
        ``(key, epoch)`` (a hit is bumped to most recent), and record the
        ``cache_lookup`` span."""
        start = time.perf_counter()
        request_key = request.cache_key()
        payload = _MISS
        if request_key is not None:
            key = (request_key, epoch)
            with self._lock:
                payload = self._entries.get(key, _MISS)
                if payload is not _MISS:
                    self._entries.move_to_end(key)
        seconds = time.perf_counter() - start
        self._tracer.record(
            trace_id,
            "cache_lookup",
            seconds,
            kind=request.kind,
            hit=payload is not _MISS,
            cacheable=request_key is not None,
        )
        return CacheLookup(request_key, payload, seconds)

    def serve(
        self,
        request,
        lookup: CacheLookup,
        *,
        epoch: int,
        n_shards: int,
        dispatch: Callable,
        trace_id: str | None = None,
    ) -> "Response":
        """Answer ``lookup`` — from its payload on a hit, else by
        ``dispatch(request)`` at ``epoch``, storing the result under
        ``(lookup.request_key, epoch)`` — then record the ``request`` span
        and one ``stats.record``.

        ``epoch`` may be newer than the one ``lookup`` probed (an ingest
        landed in between): the miss is then computed and stored at the
        newer epoch without a second probe, the benign cold-key race. The
        latency is the probe's plus this call's, so time spent queued
        between the two never counts.
        """
        start = time.perf_counter()
        cached = lookup.hit
        if cached:
            payload = lookup.payload
        else:
            payload = dispatch(request)
            if lookup.request_key is not None:
                with self._lock:
                    self._entries[(lookup.request_key, epoch)] = payload
                    while len(self._entries) > CACHE_SIZE:
                        self._entries.popitem(last=False)
        latency = lookup.seconds + (time.perf_counter() - start)
        self._tracer.record(
            trace_id, "request", latency, kind=request.kind, cached=cached
        )
        self._stats.record(
            request.kind, latency, cached, cacheable=lookup.request_key is not None
        )
        return build_response(
            request,
            payload,
            epoch=epoch,
            latency_s=latency,
            cached=cached,
            n_shards=n_shards,
            trace_id=trace_id,
        )
