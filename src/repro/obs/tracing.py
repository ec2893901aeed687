"""Request tracing: ids minted at the edge, spans in a ring buffer.

A **trace id** is minted in the client (or accepted verbatim from the
wire frame's ``"trace"`` key) and rides the request through the server,
:class:`~repro.service.service.QueryService`, and the shard executor. Each
stage that does measurable work emits a :class:`Span` — a named,
wall-stamped ``(trace_id, name, duration)`` record with free-form
attributes — into the service's :class:`Tracer`, a bounded in-memory
ring buffer (old spans fall off the back; tracing never grows without
bound and never blocks serving).

Span names used by the serving stack:

========================  ====================================================
``queue``                 server: query frame decoded -> worker thread picked
                          it up (ingest frames record no span)
``request``               ResultCache.serve: LRU probe + dispatch + merge
                          time (excludes ``queue``; attrs: ``cached``)
``cache_lookup``          ResultCache.lookup: LRU probe (attrs: ``hit``,
                          ``cacheable``); on the server's event loop for
                          socket requests
``shard_exec``            executor, in-process replica: one shard's op, timed
                          alone (attrs: shard, op)
``shard_gather``          executor, worker replica: wait since the gather
                          began, cumulative along it (attrs: shard, op)
``merge``                 service: k-way/union/sum merge of shard payloads
``ingest``                service: one ingest batch under the epoch write
                          lock (attrs: ``batch``)
``compaction_pass``       service: one absorbed shard compaction
========================  ====================================================

Export is JSONL (:meth:`Tracer.export_jsonl`), one span per line, stable
key order — greppable and diffable.
"""

from __future__ import annotations

import json
import time
import uuid
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["Span", "Tracer", "mint_trace_id"]


def mint_trace_id() -> str:
    """A fresh 32-hex-char trace id (uuid4)."""
    return uuid.uuid4().hex


@dataclass(frozen=True)
class Span:
    """One timed unit of work attributed to a trace."""

    trace_id: str
    name: str
    ts: float  # wall-clock start (time.time(); for correlation, not deltas)
    duration_s: float  # measured with perf_counter deltas by the emitter
    attrs: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "trace": self.trace_id,
            "name": self.name,
            "ts": self.ts,
            "duration_s": self.duration_s,
        }
        if self.attrs:
            out["attrs"] = self.attrs
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "Span":
        return cls(
            trace_id=str(obj["trace"]),
            name=str(obj["name"]),
            ts=float(obj["ts"]),
            duration_s=float(obj["duration_s"]),
            attrs=dict(obj.get("attrs", {})),
        )


class Tracer:
    """A bounded in-memory span sink (ring buffer, oldest dropped first)."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("tracer capacity must be positive")
        self.capacity = int(capacity)
        self._spans: deque[Span] = deque(maxlen=self.capacity)
        self.recorded = 0  # lifetime total, including spans since evicted

    def record(
        self,
        trace_id: str | None,
        name: str,
        duration_s: float,
        *,
        ts: float | None = None,
        **attrs,
    ) -> None:
        """Append a span. A ``None`` trace id means "untraced" — dropped."""
        if trace_id is None:
            return
        self._spans.append(
            Span(
                trace_id=trace_id,
                name=name,
                ts=time.time() if ts is None else ts,
                duration_s=float(duration_s),
                attrs=attrs,
            )
        )
        self.recorded += 1

    @contextmanager
    def span(self, trace_id: str | None, name: str, **attrs) -> Iterator[dict]:
        """Time a block and record it; yields the mutable attrs dict so the
        block can annotate results (e.g. ``hit=True``) before the span lands."""
        ts = time.time()
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            self.record(
                trace_id,
                name,
                time.perf_counter() - start,
                ts=ts,
                **attrs,
            )

    # ----------------------------------------------------------------- access
    def spans(self, trace_id: str | None = None) -> list[Span]:
        """Buffered spans in arrival order, optionally for one trace."""
        if trace_id is None:
            return list(self._spans)
        return [s for s in self._spans if s.trace_id == trace_id]

    def export_jsonl(self, trace_id: str | None = None) -> str:
        """The buffered spans as JSONL (one span object per line)."""
        return "\n".join(
            json.dumps(span.to_json(), sort_keys=True)
            for span in self.spans(trace_id)
        )

    def clear(self) -> None:
        self._spans.clear()

    def __len__(self) -> int:
        return len(self._spans)
