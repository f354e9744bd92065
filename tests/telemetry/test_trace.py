"""Tests for trace-span sampling, both standalone and in-pipeline."""

import pytest

from repro.pipeline import CollectionPipeline, PipelineConfig
from repro.telemetry import (
    MetricsRegistry,
    Tracer,
    render_slow_traces,
)
from repro.telemetry.blackbox import RING_SIZE
from repro.workload import StreamConfig, SyntheticStreamGenerator, \
    split_by_vp

TIMEOUT = 30.0


def small_stream(seed=31):
    generator = SyntheticStreamGenerator(StreamConfig(
        n_vps=5, n_prefix_groups=5, duration_s=600.0, seed=seed,
    ))
    _, updates = generator.generate()
    return updates


class TestSampling:
    def test_rate_one_samples_every_update(self):
        tracer = Tracer(1.0, registry=MetricsRegistry())
        spans = [tracer.start("vp") for _ in range(50)]
        assert all(span is not None for span in spans)

    def test_rate_zero_allocates_nothing(self):
        """An unsampled update gets no span object at all."""
        tracer = Tracer(0.0, registry=MetricsRegistry())
        for _ in range(1000):
            assert tracer.start("vp") is None
        # Nothing was recorded anywhere.
        assert tracer._sampled.value == 0
        assert tracer.recent() == []

    def test_stride_honours_rate(self):
        tracer = Tracer(0.1, registry=MetricsRegistry())
        sampled = sum(tracer.start("vp") is not None
                      for _ in range(1000))
        assert sampled == 100

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            Tracer(1.5)
        with pytest.raises(ValueError):
            Tracer(-0.1)


class TestSpans:
    def test_stage_sums_equal_total(self):
        registry = MetricsRegistry()
        tracer = Tracer(1.0, registry=registry)
        span = tracer.start("vp-1")
        span.mark("ingest")
        span.mark("process")
        span.mark("write")
        span.finish()
        [record] = tracer.recent()
        assert record.session == "vp-1"
        assert [stage for stage, _ in record.stages] \
            == ["ingest", "process", "write"]
        assert sum(dt for _, dt in record.stages) \
            == pytest.approx(record.total_s)
        # The histograms saw the same span.
        span_hist = tracer._span_hist.labels()
        assert span_hist.count == 1
        assert span_hist.sum == pytest.approx(record.total_s)

    def test_stage_children_bound_once(self, monkeypatch):
        """A finished span resolves each stage's histogram child once
        per tracer, and records exactly what a per-call lookup would."""
        tracer = Tracer(1.0, registry=MetricsRegistry())
        family = tracer._stage_hist
        looked_up = []
        lookup = family.labels

        def counting_labels(*values):
            looked_up.append(values)
            return lookup(*values)

        monkeypatch.setattr(family, "labels", counting_labels)
        names = ("admission", "index-prune", "segment-select",
                 "guard-verify", "respond")
        oracle = MetricsRegistry().histogram(
            "repro_trace_stage_seconds", labels=("stage",),
            unit="seconds")
        for i in range(200):
            span = tracer.start_request("/updates")
            # Spans differ in which stages they carry and how long.
            for j, stage in enumerate(names[:1 + i % len(names)]):
                dt = ((i * 7 + j * 13) % 50 + 1) * 1e-4
                span.add_stage(stage, dt)
                oracle.labels(stage).record(dt)
            span.finish(200)
        assert sorted(looked_up) == sorted((stage,) for stage in names)
        for stage in names:
            assert lookup(stage).snapshot() \
                == oracle.labels(stage).snapshot()

    def test_abort_counts_but_records_nothing(self):
        registry = MetricsRegistry()
        tracer = Tracer(1.0, registry=registry)
        span = tracer.start("vp-1")
        span.mark("ingest")
        span.abort()
        assert tracer._aborted.value == 1
        assert tracer._sampled.value == 0
        assert tracer.recent() == []
        assert "repro_trace_aborted_total 1" in registry.prometheus()

    def test_ring_is_bounded_and_slowest_first(self):
        tracer = Tracer(1.0, registry=MetricsRegistry())
        for _ in range(RING_SIZE + 10):
            span = tracer.start("vp-1")
            span.mark("write")
            span.finish()
        assert len(tracer.recent()) == RING_SIZE
        assert tracer._sampled.value == RING_SIZE + 10
        document = tracer.to_json(2)
        assert document["count"] == RING_SIZE
        slow = document["traces"]
        assert len(slow) == 2
        assert slow[0]["total_s"] >= slow[1]["total_s"]

    def test_tracers_share_the_ring_but_read_their_own(self):
        pipeline, requests = Tracer(1.0), Tracer(1.0)
        pipeline.start("vp-1").finish()
        requests.start_request("/updates", query="limit=1").finish(200)
        [update_span] = pipeline.recent()
        [request_span] = requests.recent()
        assert update_span.trace_id == "" and update_span.status == 0
        entry = requests.to_json()["traces"][0]
        assert set(entry) == {"trace_id", "request_id", "endpoint",
                              "query", "status", "total_s",
                              "finished_at", "stages"}
        assert (entry["endpoint"], entry["query"], entry["status"]) \
            == ("/updates", "limit=1", 200)
        assert entry["trace_id"] == request_span.trace_id

    def test_inbound_trace_ids(self):
        tracer = Tracer(1.0)
        span = tracer.start_request("/x", inbound_trace_id="DEADBEEF")
        assert span.trace_id == "00000000deadbeef"
        wide = "1" * 16 + "00000000cafef00d"
        assert tracer.start_request("/x", wide).trace_id \
            == "00000000cafef00d"
        for hostile in ("", "not-hex", "f" * 33):
            minted = tracer.start_request("/x", hostile).trace_id
            assert len(minted) == 16 and int(minted, 16)

    def test_render_slow_traces(self):
        tracer = Tracer(1.0, registry=MetricsRegistry())
        span = tracer.start("vp-9")
        span.mark("write")
        span.finish()
        text = render_slow_traces(tracer.to_json()["traces"])
        assert "vp-9" in text and "write" in text
        assert render_slow_traces([]) == "no sampled spans\n"


class TestPipelineIntegration:
    def test_rate_one_spans_every_written_update(self):
        updates = small_stream()
        pipeline = CollectionPipeline(PipelineConfig(
            n_shards=2, overflow_policy="block",
            trace_sample_rate=1.0))
        result = pipeline.run(split_by_vp(updates), timeout=TIMEOUT)
        tracer = pipeline.metrics.tracer
        # Every update that reached the writer finished a span.
        assert tracer._sampled.value == result.metrics.written
        assert result.metrics.written == len(updates)
        # Stage histograms cover the full path and their counts agree
        # with the end-to-end histogram.
        stages = {key[0] for key, _ in tracer._stage_hist.children()}
        assert stages == {"ingest", "queue", "process", "write"}
        for _, child in tracer._stage_hist.children():
            assert child.count == result.metrics.written
        # Per-span stage sums equal the end-to-end time exactly.
        for record in tracer.recent():
            assert sum(dt for _, dt in record.stages) \
                == pytest.approx(record.total_s)
        # Exposition carries the trace families.
        text = pipeline.metrics.registry.prometheus()
        assert f"repro_trace_spans_total {int(tracer._sampled.value)}" \
            in text
        assert 'repro_trace_stage_seconds_count{stage="write"}' in text

    def test_rate_zero_leaves_envelopes_untraced(self):
        updates = small_stream(seed=32)
        pipeline = CollectionPipeline(PipelineConfig(
            n_shards=2, overflow_policy="block"))
        result = pipeline.run(split_by_vp(updates), timeout=TIMEOUT)
        tracer = pipeline.metrics.tracer
        assert not tracer.enabled
        assert tracer._sampled.value == 0
        assert tracer.recent() == []
        assert result.metrics.written == len(updates)

    def test_invalid_config_rate_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(trace_sample_rate=2.0)
