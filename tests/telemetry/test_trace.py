"""Tests for trace-span sampling, both standalone and in-pipeline."""

import pytest

from repro.pipeline import CollectionPipeline, PipelineConfig
from repro.telemetry import (
    NOOP_TRACE,
    MetricsRegistry,
    Tracer,
    render_slow_traces,
)
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
        assert all(span is not NOOP_TRACE for span in spans)

    def test_rate_zero_allocates_nothing(self):
        """The no-op span is one shared singleton (identity check)."""
        tracer = Tracer(0.0, registry=MetricsRegistry())
        for _ in range(1000):
            assert tracer.start("vp") is NOOP_TRACE
        # Nothing was recorded anywhere.
        assert tracer._sampled.value == 0
        assert tracer.recent() == []

    def test_stride_honours_rate(self):
        tracer = Tracer(0.1, registry=MetricsRegistry())
        sampled = sum(tracer.start("vp") is not NOOP_TRACE
                      for _ in range(1000))
        assert sampled == 100

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            Tracer(1.5)
        with pytest.raises(ValueError):
            Tracer(-0.1)

    def test_noop_trace_absorbs_all_calls(self):
        NOOP_TRACE.mark("ingest")
        NOOP_TRACE.finish()
        NOOP_TRACE.abort()


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

    def test_abort_counts_but_records_nothing(self):
        tracer = Tracer(1.0, registry=MetricsRegistry())
        span = tracer.start("vp-1")
        span.mark("ingest")
        span.abort()
        assert tracer._aborted.value == 1
        assert tracer._sampled.value == 0
        assert tracer.recent() == []

    def test_ring_keeps_only_slow_spans(self):
        tracer = Tracer(1.0, registry=MetricsRegistry(),
                        slow_threshold_s=10.0)
        span = tracer.start("vp-1")
        span.mark("write")
        span.finish()
        assert tracer.recent() == []         # fast span filtered out
        assert tracer._sampled.value == 1    # but still counted

    def test_ring_is_bounded_and_slowest_first(self):
        tracer = Tracer(1.0, registry=MetricsRegistry(), ring_size=4)
        for _ in range(10):
            span = tracer.start("vp-1")
            span.mark("write")
            span.finish()
        assert len(tracer.recent()) == 4
        slow = tracer.slow_traces(2)
        assert len(slow) == 2
        assert slow[0].total_s >= slow[1].total_s

    def test_render_slow_traces(self):
        tracer = Tracer(1.0, registry=MetricsRegistry())
        span = tracer.start("vp-9")
        span.mark("write")
        span.finish()
        text = render_slow_traces(tracer.slow_traces())
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
