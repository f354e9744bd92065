"""Trace spans: one timed path through the collector or the server.

A :class:`Tracer` decides what to follow and owns the span histograms.
A sampled update carries a :class:`Span` on its envelope from session
ingest through its shard worker to the writer's emit, each stage
calling :meth:`Span.mark`; the query server is a tracer at rate 1.0
whose :meth:`Tracer.start_request` gives every HTTP request a span
with a trace id (an inbound ``X-Trace-Id`` is honoured) and a request
id.  :meth:`Span.finish` records the latencies into registry
histograms and appends the span itself to this process's black-box
ring (:mod:`repro.telemetry.blackbox`), which ``GET /debug/traces``,
``--slow-traces`` and the flight-recorder dump all read through
:meth:`Span.to_json`.

The hot path stays hot: an unsampled update gets ``None`` (rate 0.0
allocates **zero** objects per update; stages guard on ``trace is not
None``), sampling is a deterministic stride (rate 0.01 → every 100th
update, no RNG), and a span appends ``(stage, dt)`` pairs to one
``__slots__`` object.  The stride counter is deliberately unlocked:
concurrent sessions may skew *which* update is sampled, never whether
the rate is honoured, and a lock per update would cost more than the
spans themselves.
"""

from __future__ import annotations

import itertools
import os
import time
from typing import Dict, List, Optional, Tuple

from .blackbox import recorder
from .registry import MetricsRegistry

#: Mask keeping ids inside an unsigned 64-bit field.
_U64 = (1 << 64) - 1


def parse_trace_id(text: Optional[str]) -> Optional[str]:
    """An inbound ``X-Trace-Id`` as 16 hex digits, or None.

    Accepts 1-32 hex digits (W3C-style 128-bit ids are folded to their
    low 64 bits); anything else is rejected so a hostile header cannot
    smuggle arbitrary strings into telemetry output.
    """
    text = (text or "").strip()
    if not text or len(text) > 32:
        return None
    try:
        return format(int(text, 16) & _U64, "016x")
    except ValueError:
        return None


class Span:
    """One sampled update through the pipeline stages, or one HTTP
    request through the server; a finished span is its own ring record.

    ``session`` names what the span follows (the peering session, or
    the request's endpoint); the request fields stay empty on pipeline
    spans.
    """

    __slots__ = ("_tracer", "session", "_t0", "_last", "stages",
                 "finished_at", "trace_id", "request_id", "query",
                 "status")

    def __init__(self, tracer: "Tracer", session: str,
                 trace_id: str = "", request_id: str = "",
                 query: str = ""):
        self._tracer = tracer
        self.session = session
        self._t0 = self._last = time.perf_counter()
        self.stages: List[Tuple[str, float]] = []
        self.finished_at = 0.0          # wall clock (time.time) at finish
        self.trace_id = trace_id
        self.request_id = request_id
        self.query = query
        self.status = 0

    def mark(self, stage: str) -> None:
        """Close the current stage under ``stage``'s name."""
        now = time.perf_counter()
        self.stages.append((stage, now - self._last))
        self._last = now

    def add_stage(self, stage: str, duration_s: float) -> None:
        """Record an externally-measured stage without advancing the
        clock — for work that ran concurrently on pool threads (the
        query engine's per-segment verification), aggregated and
        attached by the caller.  Such stages overlap wall-clock time
        already covered by a :meth:`mark`, so ``total_s`` is *not*
        the sum of stages once one is present."""
        self.stages.append((stage, duration_s))

    @property
    def total_s(self) -> float:
        """Elapsed time through the last mark (the sum of marked
        stages; see :meth:`add_stage` for the one exception)."""
        return self._last - self._t0

    def finish(self, status: int = 0) -> None:
        """Record this span into the tracer's histograms and the ring;
        ``status`` is a request's HTTP status."""
        self.status = status
        self._tracer._record(self)

    def abort(self) -> None:
        """Discard this span (the update was dropped mid-pipeline)."""
        self._tracer._aborted.inc()

    def to_json(self) -> Dict[str, object]:
        """The one rendering of a finished span (``endpoint`` is
        ``session``)."""
        return {
            "trace_id": self.trace_id,
            "request_id": self.request_id,
            "endpoint": self.session,
            "query": self.query,
            "status": self.status,
            "total_s": round(self.total_s, 6),
            "finished_at": self.finished_at,
            "stages": [{"name": name, "duration_s": round(dt, 6)}
                       for name, dt in self.stages],
        }


class Tracer:
    """Decides sampling and owns the span histograms."""

    def __init__(self, sample_rate: float = 0.0,
                 registry: Optional[MetricsRegistry] = None):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")
        self.sample_rate = sample_rate
        self.enabled = sample_rate > 0.0
        self._stride = 0 if sample_rate <= 0 \
            else max(1, int(round(1.0 / sample_rate)))
        self._n = 0
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self._span_hist = self.registry.histogram(
            "repro_trace_span_seconds",
            "End-to-end latency of sampled updates "
            "(ingest to archive emit).", unit="seconds")
        self._stage_hist = self.registry.histogram(
            "repro_trace_stage_seconds",
            "Per-stage latency of sampled updates.",
            labels=("stage",), unit="seconds")
        self._sampled = self.registry.counter(
            "repro_trace_spans_total",
            "Spans sampled and finished.")
        self._aborted = self.registry.counter(
            "repro_trace_aborted_total",
            "Spans aborted because their update was dropped.")
        self._id_base = ((os.getpid() & 0xFFFF) << 48) \
            ^ (int(time.time() * 1e6) & _U64)
        self._trace_seq = itertools.count(1)
        self._request_seq = itertools.count(1)

    def start(self, session: str) -> Optional[Span]:
        """A span for this update, or None unless it is sampled."""
        if not self.enabled:
            return None
        # Unlocked stride counter: see the module docstring.
        self._n += 1
        if self._n >= self._stride:
            self._n = 0
            return Span(self, session)
        return None

    def start_request(self, endpoint: str,
                      inbound_trace_id: Optional[str] = None,
                      query: str = "") -> Span:
        """A span for one request, honouring an inbound trace id."""
        trace_id = parse_trace_id(inbound_trace_id) or format(
            (self._id_base + next(self._trace_seq)) & _U64 or 1, "016x")
        return Span(self, endpoint, trace_id,
                    f"{next(self._request_seq):08x}", query)

    def _record(self, span: Span) -> None:
        total = span.total_s
        span.finished_at = time.time()
        self._sampled.inc()
        self._span_hist.record(total)
        for stage, dt in span.stages:
            self._stage_hist.labels(stage).record(dt)
        recorder().ring.append(span)

    # -- inspection ----------------------------------------------------------

    def recent(self) -> List[Span]:
        """This tracer's spans still in the ring, oldest first."""
        return [entry for entry in list(recorder().ring)
                if isinstance(entry, Span) and entry._tracer is self]

    def to_json(self, n: int = 20) -> Dict[str, object]:
        """The ``/debug/traces`` document: the ``n`` slowest spans."""
        spans = self.recent()
        slowest = sorted(spans, key=lambda span: -span.total_s)[:n]
        return {"count": len(spans),
                "traces": [span.to_json() for span in slowest]}


def format_latency(seconds: float) -> str:
    """A duration at the precision every text rendering uses."""
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds * 1e6:.0f}us"


def _stages(entry: Dict[str, object]) -> str:
    return "  ".join(f"{stage['name']} {format_latency(stage['duration_s'])}"
                     for stage in entry.get("stages", ()))


def render_slow_traces(traces: List[Dict[str, object]]) -> str:
    """``--slow-traces``: one line per rendered span, as given."""
    if not traces:
        return "no sampled spans\n"
    lines = ["== slow spans =="]
    for entry in traces:
        lines.append(f"{format_latency(entry['total_s']):>8s}  "
                     f"{entry['endpoint']:<12s} {_stages(entry)}")
    return "\n".join(lines) + "\n"


def render_request_traces(document: Dict[str, object]) -> str:
    """Text rendering of a ``/debug/traces`` document for the CLI."""
    traces = document.get("traces") or []
    if not traces:
        return "no traced requests\n"
    lines = [f"== traced requests ({document.get('count', len(traces))} "
             f"in ring, slowest first) =="]
    for entry in traces:
        lines.append(
            f"{format_latency(entry['total_s']):>8s}  "
            f"{entry.get('status', 0):>3d}  "
            f"{entry.get('trace_id', ''):<16s}  "
            f"{entry.get('endpoint', ''):<12s} {_stages(entry)}")
    return "\n".join(lines) + "\n"
