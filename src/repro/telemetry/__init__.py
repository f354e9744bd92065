"""repro.telemetry — the platform's shared observability layer.

One registry (:class:`MetricsRegistry`) absorbs every counter the
platform keeps — pipeline stages, peer sessions, fault supervision,
archive writer, query engine — and exposes them uniformly:

* **exposition** — Prometheus text and JSON renderings
  (:mod:`repro.telemetry.exposition`), served at ``GET /metrics`` by
  ``repro-bgp serve`` and dumpable from ``repro-bgp pipeline``;
* **trace spans** — one span type, for sampled updates through
  ingest → shard → writer and for every serve-path request (with the
  trace id an ``X-Trace-Id`` header carries) (:mod:`repro.telemetry.trace`);
* **time series** — periodic registry snapshots with per-interval
  rates, ring-buffered and optionally appended to a JSONL file
  (:mod:`repro.telemetry.timeseries`);
* **dashboard** — the ``repro-bgp top`` terminal view
  (:mod:`repro.telemetry.top`);
* **flight recorder** — the per-process black-box ring that finished
  spans land in, dumped as ``flightrecorder-<proc>.json`` on writer
  death, quarantines and breaker opens (:mod:`repro.telemetry.blackbox`).

The module has no repro-internal imports, so every subsystem can
depend on it without cycles.  See docs/TELEMETRY.md for the metric
catalogue.
"""

from .blackbox import FlightRecorder, recorder, set_process_role
from .exposition import flatten_scalars, to_json, to_prometheus
from .registry import (
    DEFAULT_LATENCY_BOUNDS,
    Counter,
    FamilySnapshot,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricFamily,
    MetricsRegistry,
    Sample,
    set_build_info,
)
from .timeseries import TimePoint, TimeSeriesSampler
from .top import TopDashboard, fetch_exposition, normalize_metrics_url, \
    render_top
from .trace import (
    Span,
    Tracer,
    format_latency,
    parse_trace_id,
    render_request_traces,
    render_slow_traces,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BOUNDS",
    "FamilySnapshot",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricFamily",
    "MetricsRegistry",
    "Sample",
    "Span",
    "TimePoint",
    "TimeSeriesSampler",
    "TopDashboard",
    "Tracer",
    "fetch_exposition",
    "flatten_scalars",
    "format_latency",
    "normalize_metrics_url",
    "parse_trace_id",
    "recorder",
    "render_request_traces",
    "render_slow_traces",
    "render_top",
    "set_build_info",
    "set_process_role",
    "to_json",
    "to_prometheus",
]
