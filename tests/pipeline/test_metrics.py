"""Tests for the pipeline metrics hub."""

import threading
from types import SimpleNamespace

import pytest

from repro.pipeline.metrics import (
    SESSION_METRICS,
    PipelineMetrics,
    render_metrics,
)
from repro.pipeline.queues import BoundedQueue, QueueEmpty
from repro.telemetry import bind


def session_row(metrics, name):
    """The children a ``PeerSession`` named ``name`` would bind."""
    return SimpleNamespace(**bind(metrics.registry, SESSION_METRICS, name))


class TestBoundedQueue:
    def test_capacity_enforced(self):
        queue = BoundedQueue(2)
        assert queue.try_put(1) and queue.try_put(2)
        assert not queue.try_put(3)
        assert queue.get() == 1
        assert queue.try_put(3)

    def test_fifo(self):
        queue = BoundedQueue(10)
        for i in range(5):
            queue.put(i)
        assert [queue.get() for _ in range(5)] == list(range(5))

    def test_get_timeout(self):
        queue = BoundedQueue(1)
        with pytest.raises(QueueEmpty):
            queue.get(timeout=0.01)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            BoundedQueue(0)

    def test_gauge_high_water(self):
        queue = BoundedQueue(8)
        for i in range(6):
            queue.put(i)
        for _ in range(6):
            queue.get()
        assert queue.gauge.high_water == 6
        assert queue.gauge.value == 0

    def test_put_blocks_until_space(self):
        queue = BoundedQueue(1)
        queue.put("a")
        done = []

        def producer():
            queue.put("b")
            done.append(True)

        thread = threading.Thread(target=producer)
        thread.start()
        thread.join(0.05)
        assert not done                 # still blocked on the full queue
        assert queue.get(timeout=1.0) == "a"
        thread.join(1.0)
        assert done


class TestPipelineMetrics:
    def test_session_accounting(self):
        metrics = PipelineMetrics()
        vp1, vp2 = session_row(metrics, "vp1"), session_row(metrics, "vp2")
        for _ in range(3):
            vp1.enqueued.inc()
        vp1.dropped.inc()
        vp2.enqueued.inc()
        snap = metrics.snapshot()
        assert snap.received == 5
        assert snap.ingest_dropped == 1
        assert snap.loss_fraction == pytest.approx(0.2)
        by_name = {s.session: s for s in snap.sessions}
        assert by_name["vp1"].drop_rate == pytest.approx(0.25)
        assert by_name["vp2"].drop_rate == 0.0

    def test_disposition_counters(self):
        metrics = PipelineMetrics()
        metrics.retained.inc(2)
        metrics.discarded.inc()
        metrics.flagged.inc()
        metrics.forwarded.inc(2)
        metrics.process.processed.inc(4)
        snap = metrics.snapshot()
        assert snap.retained == 2
        assert snap.discarded == 1
        assert snap.flagged == 1
        assert snap.forwarded == 2
        assert snap.processed == 4

    def test_render_contains_stages(self):
        metrics = PipelineMetrics()
        session_row(metrics, "vp1").enqueued.inc()
        metrics.retained.inc()
        text = render_metrics(metrics.snapshot(), per_session=True)
        assert "pipeline metrics" in text
        assert "ingest" in text and "process" in text and "write" in text
        assert "vp1" in text

    def test_throughput_zero_before_start(self):
        snap = PipelineMetrics().snapshot()
        assert snap.throughput_ups == 0.0
        assert snap.wall_time_s == 0.0
