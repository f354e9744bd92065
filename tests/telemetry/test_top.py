"""Tests for the terminal dashboard renderer and its URL plumbing."""

import io
import time
from types import SimpleNamespace

from repro.pipeline.metrics import SESSION_METRICS, PipelineMetrics
from repro.telemetry import (
    MetricsRegistry,
    TopDashboard,
    bind,
    normalize_metrics_url,
    render_top,
)


def enqueue(metrics, session, count=1):
    """What a ``PeerSession`` counts for ``count`` enqueued updates."""
    SimpleNamespace(**bind(metrics.registry, SESSION_METRICS,
                           session)).enqueued.inc(count)
    metrics.ingest.processed.inc(count)


def busy_metrics():
    """A PipelineMetrics hub with representative activity."""
    metrics = PipelineMetrics()
    enqueue(metrics, "vp-1", 100)
    enqueue(metrics, "vp-2", 40)
    vp2 = SimpleNamespace(**bind(metrics.registry, SESSION_METRICS,
                                 "vp-2"))
    vp2.dropped.inc(10)
    metrics.ingest.dropped.inc(10)
    vp2.restarts.inc()
    vp2.quarantined.set(1)
    for _ in range(130):
        metrics.retained.inc()
        metrics.process.processed.inc()
        metrics.process.latency.record(0.002)
        metrics.write.processed.inc()
        metrics.write.latency.record(0.004)
    metrics.segments.inc(3)
    metrics.writer_watermark.set(1500.0)
    metrics.writer_watermark_wall.set(time.time())
    query = metrics.query
    query.cache_hits.inc()
    query.records_returned.inc(5)
    query.cache_misses.inc()
    query.records_returned.inc(9)
    query.segments_considered.inc(4)
    query.segments_pruned_time.inc()
    query.segments_pruned_index.inc()
    query.segments_decoded.inc(2)
    return metrics


class TestRenderTop:
    def test_single_frame_totals(self):
        metrics = busy_metrics()
        now = time.time()
        frame = render_top(metrics.registry.to_json(), now=now + 4.0,
                           source="unit-test")
        assert "== repro-bgp top ==  unit-test" in frame
        # Watermark line shows its age, not a raw wall timestamp.
        assert "watermark 1500 (advanced" in frame
        assert "s ago)" in frame
        assert "segments 3" in frame
        # Stage rows: processed totals, em dash for the latency-less
        # ingest stage, real means elsewhere.
        lines = {line.split()[0]: line for line in frame.splitlines()
                 if line.strip()}
        assert "140" in lines["ingest"] and "—" in lines["ingest"]
        assert "130" in lines["process"] and "2.0ms" in lines["process"]
        # Rates need a previous frame.
        assert "-" in lines["ingest"].split()
        # Session rows with quarantine state.
        assert "vp-1" in lines and "ok" in lines["vp-1"]
        assert "vp-2" in lines and "quar" in lines["vp-2"]
        # Query line.
        assert "query: 2 served" in frame
        assert "cache hit 50.0%" in frame

    def test_rates_from_two_frames(self):
        metrics = busy_metrics()
        before = metrics.registry.to_json()
        enqueue(metrics, "vp-1", 50)
        after = metrics.registry.to_json()
        frame = render_top(after, before, dt_s=2.0)
        vp1 = next(line for line in frame.splitlines()
                   if line.strip().startswith("vp-1"))
        assert "25/s" in vp1
        ingest = next(line for line in frame.splitlines()
                      if line.strip().startswith("ingest"))
        assert "25/s" in ingest

    def test_supervision_line_only_when_fired(self):
        metrics = busy_metrics()
        assert "supervision:" not in render_top(
            PipelineMetrics().registry.to_json())
        metrics.worker_restarts.inc()
        frame = render_top(metrics.registry.to_json())
        assert "supervision:" in frame
        assert "worker_restart 1" in frame

    def test_cluster_line_only_while_merging(self):
        metrics = busy_metrics()
        assert "cluster:" not in render_top(metrics.registry.to_json())
        metrics.registry.gauge(
            "repro_cluster_merge_partitions", "").labels().set(3)
        metrics.registry.gauge(
            "repro_cluster_merge_lag_seconds", "").labels().set(1.5)
        assert "cluster: merge 3 parts lag 1.5s" in render_top(
            metrics.registry.to_json())

    def test_empty_registry_renders_header_only(self):
        frame = render_top({"families": []})
        assert frame.startswith("== repro-bgp top ==")


class TestUrlNormalization:
    def test_host_port(self):
        assert normalize_metrics_url("localhost:8480") \
            == "http://localhost:8480/metrics?format=json"

    def test_full_url_kept(self):
        assert normalize_metrics_url(
            "http://x:1/metrics?format=json") \
            == "http://x:1/metrics?format=json"

    def test_base_url_gets_path(self):
        assert normalize_metrics_url("http://x:1/") \
            == "http://x:1/metrics?format=json"


class TestDashboard:
    def test_run_renders_frames_with_rates(self):
        metrics = busy_metrics()
        frames = [metrics.registry.to_json()]

        def fake_fetch(url):
            enqueue(metrics, "vp-1", 30)
            return metrics.registry.to_json()

        dashboard = TopDashboard("localhost:1", interval_s=0.01,
                                 fetch=fake_fetch)
        out = io.StringIO()
        dashboard.run(iterations=2, out=out, clear=False)
        text = out.getvalue()
        assert text.count("== repro-bgp top ==") == 2
        assert "/s" in text           # second frame has rate columns

    def test_render_once(self):
        metrics = busy_metrics()
        dashboard = TopDashboard(
            "localhost:1", fetch=lambda url: metrics.registry.to_json())
        assert "watermark 1500" in dashboard.render_once()


class TestGillPanel:
    def gill_metrics(self):
        """A registry with gill filter activity, as GillStage emits it."""
        from repro.bgp.message import BGPUpdate
        from repro.bgp.prefix import Prefix
        from repro.gill import GillConfig, GillStage

        stage = GillStage(GillConfig(definition=1, auto_anchors=False),
                          ("vp1", "vp2"), interval_s=300.0)
        prefix = Prefix.from_index(1)
        stage.offer(BGPUpdate("vp1", 10.0, prefix, (1, 2)))
        stage.offer(BGPUpdate("vp2", 20.0, prefix, (1, 2)))
        stage.flush()
        return stage.registry

    def test_gill_line_renders(self):
        frame = render_top(self.gill_metrics().to_json())
        assert "gill: dropped 1/2 (50.0%)" in frame
        assert "anchors 0" in frame
        assert "rescore mean" in frame
        assert "sync wait mean" in frame

    def test_gill_line_reads_sync_wait(self):
        """The writer's mean slot-sync wait, and the share of the
        interval's wall time it spent waiting."""
        registry = MetricsRegistry()
        decisions = registry.counter("repro_gill_decisions_total",
                                     labels=("decision",))
        decisions.labels("kept").inc(3)
        sync_wait = registry.histogram("repro_gill_sync_wait_seconds",
                                       unit="seconds")
        sync_wait.record(0.2)
        sync_wait.record(0.3)
        before = registry.to_json()
        assert "sync wait mean 250.0ms" in render_top(before)
        assert "of wall" not in render_top(before)
        sync_wait.record(0.5)
        frame = render_top(registry.to_json(), before, dt_s=2.0)
        gill = next(line for line in frame.splitlines()
                    if line.startswith("gill:"))
        assert "sync wait mean 333.3ms (25% of wall)" in gill

    def test_gill_line_absent_without_activity(self):
        metrics = busy_metrics()
        frame = render_top(metrics.registry.to_json())
        assert "gill:" not in frame


class TestEventsAndGuardLines:
    def test_events_line_reads_raw_detections(self):
        """The events line puts the detectors' raw output next to the
        incidents it was correlated into."""
        registry = MetricsRegistry()
        detections = registry.counter("repro_events_detections_total",
                                      labels=("detector", "type"))
        detections.labels("moas", "moas").inc(30)
        detections.labels("dfoh", "origin_hijack").inc(12)
        registry.counter("repro_events_opened_total",
                         labels=("type",)).labels("moas").inc(4)
        registry.counter("repro_events_segments_total").inc(10)
        frame = render_top(registry.to_json())
        events = next(line for line in frame.splitlines()
                      if line.startswith("events:"))
        assert "4 opened / 0 resolved from 42 detections over 10 " \
            "segments" in events

    def test_guard_line_reads_quarantines_by_reason(self):
        registry = MetricsRegistry()
        quarantines = registry.counter("repro_guard_quarantined_total",
                                       labels=("reason",))
        quarantines.labels("crc32").inc(2)
        quarantines.labels("missing").inc()
        registry.gauge("repro_guard_quarantined_segments").set(2)
        frame = render_top(registry.to_json())
        guard = next(line for line in frame.splitlines()
                     if line.startswith("guard:"))
        assert "quarantined 2 (crc32 2, missing 1)" in guard
        # Nothing quarantined yet: no breakdown.
        registry = MetricsRegistry()
        registry.counter("repro_guard_verifications_total",
                         labels=("outcome",)).labels("ok").inc(5)
        guard = next(line for line in render_top(
            registry.to_json()).splitlines() if line.startswith("guard:"))
        assert "quarantined 0  shed" in guard
