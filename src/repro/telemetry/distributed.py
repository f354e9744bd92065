"""Trace identity on the wire, and request tracing on the serve path.

* :class:`TraceContext` / :class:`RemoteSpan` — a packed trace
  identity (trace id + parent span id + sample flag, 17 bytes) and a
  span measured against a decoded one.  With :data:`CONTEXT_SIZE`
  they are kept only for the traced records of
  :mod:`repro.cluster.wire`, which outlive the ``processes`` backend
  until the benchmark stops timing that codec.
* :class:`RequestTracer` starts one always-on span per HTTP request
  (honouring an inbound trace id); its ring buffer backs
  ``GET /debug/traces`` and the ``repro-bgp trace`` CLI.

Nothing here imports repro internals — the module stays importable
from every subsystem.
"""

from __future__ import annotations

import itertools
import os
import struct
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from .registry import MetricsRegistry
from .trace import Trace, TraceRecord, Tracer, format_latency

_CTX = struct.Struct("!QQB")      # trace id, parent span id, flags
_CTX_SAMPLED = 0x01

#: Mask keeping ids inside an unsigned 64-bit wire field.
_U64 = (1 << 64) - 1


@dataclass(frozen=True)
class TraceContext:
    """The propagated identity of one distributed trace."""

    trace_id: int
    parent_span: int
    sampled: bool = True

    def to_bytes(self) -> bytes:
        return _CTX.pack(self.trace_id & _U64, self.parent_span & _U64,
                         _CTX_SAMPLED if self.sampled else 0)

    @staticmethod
    def from_bytes(data: bytes) -> "TraceContext":
        if len(data) != _CTX.size:
            raise ValueError(
                f"trace context must be {_CTX.size} bytes, "
                f"got {len(data)}")
        trace_id, parent_span, flags = _CTX.unpack(data)
        return TraceContext(trace_id, parent_span,
                            bool(flags & _CTX_SAMPLED))

    @property
    def hex(self) -> str:
        return format(self.trace_id, "016x")


#: Wire size of one packed context.
CONTEXT_SIZE = _CTX.size


def format_trace_id(trace_id: int) -> str:
    return format(trace_id & _U64, "016x")


def parse_trace_id(text: str) -> Optional[int]:
    """A best-effort u64 from an inbound ``X-Trace-Id`` header value.

    Accepts 1-32 hex digits (W3C-style 128-bit ids are folded to their
    low 64 bits); anything else is rejected so a hostile header cannot
    smuggle arbitrary strings into telemetry output.
    """
    text = text.strip()
    if not text or len(text) > 32:
        return None
    try:
        return int(text, 16) & _U64
    except ValueError:
        return None


class RemoteSpan:
    """A measurement of one re-hydrated context in another process.

    Created from the :class:`TraceContext` decoded off an envelope;
    :meth:`close` freezes the duration.  The resulting
    ``(trace_id, span_id, pid, duration)`` tuple is what a traced
    disposition record carries on the wire.
    """

    __slots__ = ("trace_id", "span_id", "parent_span", "pid",
                 "duration_s", "_t0")

    _SPAN_SEED = itertools.count(1)

    def __init__(self, context: TraceContext,
                 pid: Optional[int] = None):
        self.trace_id = context.trace_id
        self.parent_span = context.parent_span
        self.pid = os.getpid() if pid is None else pid
        # Child span id: derived, never random, so a redelivered frame
        # reprocessed after a worker kill produces an equal id.
        self.span_id = (context.parent_span * 1000003
                        + self.pid) & _U64 or 1
        self.duration_s = 0.0
        self._t0 = time.perf_counter()

    def close(self) -> "RemoteSpan":
        self.duration_s = time.perf_counter() - self._t0
        return self

    @classmethod
    def from_wire(cls, trace_id: int, span_id: int, pid: int,
                  duration_s: float) -> "RemoteSpan":
        """Rebuild a closed span decoded off the wire."""
        span = cls.__new__(cls)
        span.trace_id = trace_id
        span.parent_span = 0
        span.span_id = span_id
        span.pid = pid
        span.duration_s = duration_s
        span._t0 = 0.0
        return span


# -- request tracing (the serve path) ----------------------------------------

@dataclass(frozen=True)
class RequestTraceRecord(TraceRecord):
    """One finished HTTP request span, as kept in the serve ring."""

    trace_id: str = ""
    request_id: str = ""
    endpoint: str = ""
    status: int = 0
    query: str = ""


class RequestTrace(Trace):
    """A span covering one HTTP request through the serve path."""

    __slots__ = ("trace_id", "request_id", "endpoint", "query",
                 "status")

    def __init__(self, tracer: "RequestTracer", endpoint: str,
                 trace_id: int, request_id: str, query: str = ""):
        super().__init__(tracer, endpoint)
        self.trace_id = trace_id
        self.request_id = request_id
        self.endpoint = endpoint
        self.query = query
        self.status = 0

    @property
    def trace_id_hex(self) -> str:
        return format_trace_id(self.trace_id)

    def finish(self, status: int = 200) -> None:
        self.status = status
        super().finish()


class RequestTracer(Tracer):
    """Always-on per-request tracing with a slow-request ring.

    Unlike pipeline tracing there is no sampling stride: every request
    gets a span (the per-request cost is dwarfed by the request
    itself), and only requests at least ``slow_threshold_s`` slow
    enter the ring served at ``/debug/traces``.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 ring_size: int = 128,
                 slow_threshold_s: float = 0.0):
        super().__init__(1.0, registry=registry, ring_size=ring_size,
                         slow_threshold_s=slow_threshold_s)
        self._id_base = ((os.getpid() & 0xFFFF) << 48) \
            ^ (int(time.time() * 1e6) & _U64)
        self._id_seq = itertools.count(1)
        self._request_seq = itertools.count(1)

    def start_request(self, endpoint: str,
                      inbound_trace_id: Optional[str] = None,
                      query: str = "") -> RequestTrace:
        """A span for one request, honouring an inbound trace id."""
        trace_id = None
        if inbound_trace_id is not None:
            trace_id = parse_trace_id(inbound_trace_id)
        if trace_id is None:
            trace_id = ((self._id_base + next(self._id_seq))
                        & _U64) or 1
        request_id = f"{next(self._request_seq):08x}"
        return RequestTrace(self, endpoint, trace_id, request_id,
                            query=query)

    def _record(self, trace: Trace) -> None:
        if not isinstance(trace, RequestTrace):
            super()._record(trace)
            return
        total = trace.total_s
        self._sampled.inc()
        self._span_hist.record(total)
        for stage, dt in trace._stages:
            self._stage_hist.labels(stage).record(dt)
        if self.flight is not None:
            self.flight.note("request", endpoint=trace.endpoint,
                             status=trace.status,
                             total_s=round(total, 6),
                             trace_id=trace.trace_id_hex)
        if self._keep and total >= self.slow_threshold_s:
            record = RequestTraceRecord(
                session=trace.endpoint, total_s=total,
                stages=tuple(trace._stages),
                finished_at=time.time(),
                trace_id=trace.trace_id_hex,
                request_id=trace.request_id,
                endpoint=trace.endpoint,
                status=trace.status,
                query=trace.query)
            with self._ring_lock:
                self._ring.append(record)

    def slow_requests(self, n: int = 20) -> List[RequestTraceRecord]:
        records = [r for r in self.recent()
                   if isinstance(r, RequestTraceRecord)]
        return sorted(records, key=lambda r: -r.total_s)[:n]

    def to_json(self, n: int = 20) -> Dict[str, object]:
        """The ``/debug/traces`` document."""
        return {
            "count": len(self.recent()),
            "slow_threshold_s": self.slow_threshold_s,
            "traces": [
                {
                    "trace_id": r.trace_id,
                    "request_id": r.request_id,
                    "endpoint": r.endpoint,
                    "query": r.query,
                    "status": r.status,
                    "total_s": round(r.total_s, 6),
                    "finished_at": r.finished_at,
                    "stages": [
                        {"name": name, "duration_s": round(dt, 6)}
                        for name, dt in r.stages
                    ],
                }
                for r in self.slow_requests(n)
            ],
        }


def render_request_traces(document: Dict[str, object]) -> str:
    """Text rendering of a ``/debug/traces`` document for the CLI."""
    traces = document.get("traces") or []
    if not traces:
        return "no traced requests\n"
    lines = [f"== traced requests ({document.get('count', len(traces))} "
             f"in ring, slowest first) =="]
    for entry in traces:
        stages = "  ".join(
            f"{s['name']} {format_latency(s['duration_s'])}"
            for s in entry.get("stages", ()))
        lines.append(
            f"{format_latency(entry['total_s']):>8s}  "
            f"{entry.get('status', 0):>3d}  "
            f"{entry.get('trace_id', ''):<16s}  "
            f"{entry.get('endpoint', ''):<12s} {stages}")
    return "\n".join(lines) + "\n"
