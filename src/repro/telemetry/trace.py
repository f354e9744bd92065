"""Sampled per-update trace spans through the collection pipeline.

A :class:`Tracer` decides, per update, whether to follow it through
the pipeline.  A sampled update carries a :class:`Trace` on its
envelope from the peer session's ingest, through its shard worker, to
the archive writer's emit; each stage calls :meth:`Trace.mark` with
its name, and the writer calls :meth:`Trace.finish`.  Finishing
records the end-to-end latency and every per-stage latency into
registry histograms and appends slow spans to a bounded ring buffer
for inspection (``repro-bgp pipeline --slow-traces``).

The hot path stays hot:

* an unsampled update gets :data:`NOOP_TRACE` — one shared, stateless
  singleton, so sampling rate 0.0 allocates **zero** objects per
  update (tests identity-check this);
* sampling is a deterministic stride (rate 0.01 → every 100th
  update), so there is no RNG call per update;
* a sampled span allocates one small ``__slots__`` object and appends
  ``(stage, dt)`` pairs — no dicts, no locks until ``finish``.

The stride counter is deliberately unlocked: concurrent sessions may
occasionally skew which update is sampled, never whether the rate is
approximately honoured, and a lock per update would cost more than
the spans themselves.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

from .registry import MetricsRegistry


@dataclass(frozen=True)
class TraceRecord:
    """One finished span, as kept in the tracer's ring buffer."""

    session: str
    total_s: float
    stages: Tuple[Tuple[str, float], ...]
    finished_at: float          # wall-clock (time.time) at finish


class _NoopTrace:
    """The do-nothing span given to unsampled updates (a singleton)."""

    __slots__ = ()

    def mark(self, stage: str) -> None:
        pass

    def finish(self) -> None:
        pass

    def abort(self) -> None:
        pass


#: The shared no-op span: identity-comparable (``trace is NOOP_TRACE``)
#: so pipeline stages can skip even the no-op method calls.
NOOP_TRACE = _NoopTrace()


class Trace:
    """One sampled update's span through the pipeline stages."""

    __slots__ = ("_tracer", "session", "_t0", "_last", "_stages")

    def __init__(self, tracer: "Tracer", session: str):
        self._tracer = tracer
        self.session = session
        now = time.perf_counter()
        self._t0 = now
        self._last = now
        self._stages: List[Tuple[str, float]] = []

    def mark(self, stage: str) -> None:
        """Close the current stage under ``stage``'s name."""
        now = time.perf_counter()
        self._stages.append((stage, now - self._last))
        self._last = now

    def add_stage(self, stage: str, duration_s: float) -> None:
        """Record an externally-measured stage without advancing the
        clock — for work that ran concurrently on pool threads (the
        query engine's per-segment verification), aggregated and
        attached by the caller.  Such stages overlap wall-clock time
        already covered by a :meth:`mark`, so ``total_s`` is *not*
        the sum of stages once one is present."""
        self._stages.append((stage, duration_s))

    @property
    def total_s(self) -> float:
        """Elapsed time through the last mark (the sum of marked
        stages; see :meth:`add_stage` for the one exception)."""
        return self._last - self._t0

    def finish(self) -> None:
        """Record this span into the tracer's histograms and ring."""
        self._tracer._record(self)

    def abort(self) -> None:
        """Discard this span (the update was dropped mid-pipeline)."""
        self._tracer._aborted.inc()


class Tracer:
    """Decides sampling and owns the span histograms and ring buffer."""

    def __init__(self, sample_rate: float = 0.0,
                 registry: Optional[MetricsRegistry] = None,
                 ring_size: int = 64,
                 slow_threshold_s: float = 0.0):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")
        if ring_size < 0:
            raise ValueError("ring_size must be nonnegative")
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
        self.slow_threshold_s = slow_threshold_s
        self._ring_lock = threading.Lock()
        self._ring: Deque[TraceRecord] = deque(maxlen=max(1, ring_size))
        self._keep = ring_size > 0
        #: Optional flight recorder (repro.telemetry.blackbox): when
        #: set, finished spans also land in the black-box ring.
        self.flight = None

    def start(self, session: str):
        """A span for this update — :data:`NOOP_TRACE` unless sampled."""
        if not self.enabled:
            return NOOP_TRACE
        # Unlocked stride counter: see the module docstring.
        self._n += 1
        if self._n >= self._stride:
            self._n = 0
            return Trace(self, session)
        return NOOP_TRACE

    def _record(self, trace: Trace) -> None:
        total = trace.total_s
        self._sampled.inc()
        self._span_hist.record(total)
        for stage, dt in trace._stages:
            self._stage_hist.labels(stage).record(dt)
        if self.flight is not None:
            self.flight.note("span", session=trace.session,
                             total_s=round(total, 6))
        if self._keep and total >= self.slow_threshold_s:
            record = TraceRecord(trace.session, total,
                                 tuple(trace._stages), time.time())
            with self._ring_lock:
                self._ring.append(record)

    # -- inspection ----------------------------------------------------------

    def recent(self) -> List[TraceRecord]:
        """Ring contents, oldest first."""
        with self._ring_lock:
            return list(self._ring)

    def slow_traces(self, n: int = 10) -> List[TraceRecord]:
        """The ``n`` slowest spans still in the ring, slowest first."""
        return sorted(self.recent(), key=lambda r: -r.total_s)[:n]


def format_latency(seconds: float) -> str:
    """A duration at the precision every text rendering uses."""
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds * 1e6:.0f}us"


def render_slow_traces(records: List[TraceRecord]) -> str:
    """One text block listing spans, slowest first (for the CLI)."""
    if not records:
        return "no sampled spans\n"
    lines = ["== slow spans =="]
    for record in records:
        stages = "  ".join(
            f"{stage} {format_latency(dt)}"
            for stage, dt in record.stages)
        lines.append(
            f"{format_latency(record.total_s):>8s}  "
            f"{record.session:<12s} {stages}")
    return "\n".join(lines) + "\n"
