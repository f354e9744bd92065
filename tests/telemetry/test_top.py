"""Tests for the terminal dashboard renderer and its URL plumbing."""

import io
import time

from repro.pipeline.metrics import PipelineMetrics
from repro.telemetry import (
    TopDashboard,
    normalize_metrics_url,
    render_top,
)


def busy_metrics():
    """A PipelineMetrics hub with representative activity."""
    metrics = PipelineMetrics()
    metrics.register_session("vp-1")
    metrics.register_session("vp-2")
    for _ in range(100):
        metrics.session_enqueued("vp-1")
    for _ in range(40):
        metrics.session_enqueued("vp-2")
    metrics.session_dropped("vp-2", 10)
    metrics.session_restarted("vp-2")
    metrics.session_quarantined("vp-2")
    for _ in range(130):
        metrics.update_processed(retained=True)
        metrics.process.latency.record(0.002)
        metrics.write.add(processed=1)
        metrics.write.latency.record(0.004)
    metrics.segment_flushed(3)
    metrics.writer_advanced(1500.0)
    metrics.query.query_served(cache_hit=True, returned=5)
    metrics.query.query_served(cache_hit=False, returned=9)
    metrics.query.plan_executed(considered=4, pruned_time=1,
                                pruned_index=1, decoded=2)
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
        for _ in range(50):
            metrics.session_enqueued("vp-1")
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
        metrics.worker_restarted(0)
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
            for _ in range(30):
                metrics.session_enqueued("vp-1")
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

    def test_gill_line_absent_without_activity(self):
        metrics = busy_metrics()
        frame = render_top(metrics.registry.to_json())
        assert "gill:" not in frame
