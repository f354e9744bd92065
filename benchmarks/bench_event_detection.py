"""Event-analysis pipeline cost: per-segment detector latency and
store query latency.

The standing event subsystem (docs/EVENTS.md) rides the archive's seal
hook, so its cost budget is simple: analysing one sealed segment must
be cheap relative to the segment interval it rides on, or the detector
chain would fall behind collection.  This bench streams the seeded
monitoring showcase through a live archive with the pipeline attached
and reports:

* per-detector ``observe()`` latency per sealed segment (from the
  ``repro_events_detector_seconds`` histogram the pipeline maintains);
* end-to-end per-segment latency (decode + detect + correlate +
  journal);
* event-store query latency over the materialized incidents.

Acceptance: all five seeded incident types are detected and resolved,
the mean per-segment cost stays under :data:`SEGMENT_BUDGET_S`, and
indexed store queries answer in well under a millisecond.

``REPRO_BENCH_QUICK=1`` trims the query-load repetition for CI; the
module also runs standalone: ``python bench_event_detection.py``.
"""

import os
import time

try:
    from conftest import print_series
except ImportError:                      # standalone invocation
    def print_series(title, rows):
        print(f"\n=== {title} ===")
        for row in rows:
            print("  " + row)

from repro.bgp.archive import RollingArchiveWriter
from repro.events import (
    ROUTING_EVENT_TYPES,
    EventPipeline,
    EventState,
    EventStore,
)
from repro.simulation import monitoring_showcase
from repro.telemetry import MetricsRegistry

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

#: A sealed segment must be analysed far faster than it is produced;
#: one second against a 300s segment interval is a 300x safety margin.
SEGMENT_BUDGET_S = 1.0

QUERY_REPEATS = 50 if QUICK else 500


def run_showcase(directory):
    """Stream the showcase through a live archive + event pipeline."""
    scenario, truth = monitoring_showcase()
    registry = MetricsRegistry()
    store = EventStore()
    pipeline = EventPipeline(store=store, registry=registry)
    archive = RollingArchiveWriter(directory, interval_s=300.0,
                                   compress=True, index=True)
    pipeline.attach(archive)
    started = time.perf_counter()
    archive.write_stream(scenario.stream)
    archive.close()
    wall = time.perf_counter() - started
    return scenario, store, registry, wall


def detector_latencies(registry):
    """{detector: (segments, mean seconds)} from the histogram."""
    out = {}
    for family in registry.collect():
        if family.name != "repro_events_detector_seconds":
            continue
        for sample in family.samples:
            snap = sample.value
            if snap.count:
                out[dict(sample.labels)["detector"]] = \
                    (snap.count, snap.mean)
    return out


def segment_latency(registry):
    for family in registry.collect():
        if family.name == "repro_events_segment_seconds":
            snap = family.samples[0].value
            if snap.count:
                return snap.count, snap.mean
    return 0, 0.0


def run_query_load(store, repeats=QUERY_REPEATS):
    """Mean latency of the indexed store query paths."""
    shapes = [
        ("by type", dict(type="moas")),
        ("by state", dict(state=EventState.RESOLVED)),
        ("by window", dict(start=500.0, end=2500.0)),
        ("unfiltered", {}),
    ]
    rows = {}
    for label, kwargs in shapes:
        started = time.perf_counter()
        for _ in range(repeats):
            store.query(**kwargs)
        rows[label] = (time.perf_counter() - started) / repeats
    return rows


def check_detections(store):
    types = {t for e in store.events() for t in e.types}
    # Integrity incidents come from repro.guard on quarantine, not
    # from a detector; the showcase seeds one of each routing type.
    missing = set(ROUTING_EVENT_TYPES) - types
    assert not missing, f"undetected incident types: {sorted(missing)}"
    assert all(e.state == EventState.RESOLVED for e in store.events())


def us(seconds):
    return f"{seconds * 1e6:.0f}us"


def ms(seconds):
    return f"{seconds * 1e3:.2f}ms"


def report(store, registry, wall, query_rows):
    segments, seg_mean = segment_latency(registry)
    rows = [
        f"{segments} segments analysed in {wall:.2f}s wall "
        f"({len(store)} correlated events)",
        f"per-segment mean {ms(seg_mean)} "
        f"(budget {SEGMENT_BUDGET_S:.1f}s)",
    ]
    for detector, (count, mean) in sorted(detector_latencies(registry).items()):
        rows.append(f"detector {detector:<16s} {ms(mean)}/segment "
                    f"over {count} segments")
    for label, mean in query_rows.items():
        rows.append(f"store query {label:<12s} {us(mean)}/query")
    print_series("Event detection — seal-hook pipeline cost", rows)
    return seg_mean


def test_event_detection_latency(benchmark, tmp_path):
    scenario, store, registry, wall = benchmark.pedantic(
        run_showcase, args=(str(tmp_path),), rounds=1, iterations=1)
    check_detections(store)
    query_rows = run_query_load(store)
    seg_mean = report(store, registry, wall, query_rows)
    assert seg_mean < SEGMENT_BUDGET_S
    assert max(query_rows.values()) < 0.001   # sub-ms store queries


def main():
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        _, store, registry, wall = run_showcase(directory)
        check_detections(store)
        query_rows = run_query_load(store)
        seg_mean = report(store, registry, wall, query_rows)
        assert seg_mean < SEGMENT_BUDGET_S
        assert max(query_rows.values()) < 0.001
    print("ok")


if __name__ == "__main__":
    main()
