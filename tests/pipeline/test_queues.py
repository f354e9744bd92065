"""Tests for bounded-queue close/poisoning semantics."""

import threading
import time

import pytest

from repro.pipeline.queues import BoundedQueue, QueueClosed, QueueEmpty, \
    QueueFull


class TestBasics:
    def test_fifo_order(self):
        queue = BoundedQueue(4)
        for item in "abc":
            queue.put(item)
        assert [queue.get() for _ in range(3)] == ["a", "b", "c"]

    def test_try_put_refuses_when_full(self):
        queue = BoundedQueue(1)
        assert queue.try_put(1)
        assert not queue.try_put(2)
        assert queue.get() == 1
        assert queue.try_put(3)

    def test_get_timeout(self):
        queue = BoundedQueue(1)
        with pytest.raises(QueueEmpty):
            queue.get(timeout=0.01)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            BoundedQueue(0)

    def test_gauge_tracks_depth(self):
        queue = BoundedQueue(8)
        for i in range(5):
            queue.put(i)
        assert queue.gauge.value == 5
        assert queue.gauge.high_water == 5


class TestGetMany:
    def test_takes_the_oldest_items_up_to_the_limit(self):
        queue = BoundedQueue(8)
        for item in "abcde":
            queue.put(item)
        assert queue.get_many(3) == ["a", "b", "c"]
        assert queue.get_many(10) == ["d", "e"]
        assert queue.gauge.value == 0

    def test_waits_for_a_first_item_like_get(self):
        queue = BoundedQueue(2)
        with pytest.raises(QueueEmpty):
            queue.get_many(4, timeout=0.01)
        threading.Timer(0.02, queue.put, args=("late",)).start()
        assert queue.get_many(4, timeout=1.0) == ["late"]

    def test_closed_queue_drains_then_raises(self):
        queue = BoundedQueue(2)
        queue.put("a")
        queue.close()
        assert queue.get_many(4) == ["a"]
        with pytest.raises(QueueClosed):
            queue.get_many(4)


class TestProducerWakeUp:
    def test_batch_drain_wakes_a_producer_per_freed_slot(self):
        queue = BoundedQueue(2)
        queue.put(0)
        queue.put(1)
        producers = [threading.Thread(target=queue.put, args=(item,),
                                      daemon=True)
                     for item in ("p1", "p2")]
        for thread in producers:
            thread.start()
        time.sleep(0.05)
        assert all(thread.is_alive() for thread in producers)
        assert queue.get_many(2) == [0, 1]
        for thread in producers:
            thread.join(timeout=2.0)
            assert not thread.is_alive()
        assert sorted(queue.get_many(2)) == ["p1", "p2"]


class TestPutTimeout:
    def test_put_timeout_raises_queue_full(self):
        queue = BoundedQueue(1)
        queue.put("first")
        start = time.monotonic()
        with pytest.raises(QueueFull):
            queue.put("second", timeout=0.05)
        assert time.monotonic() - start >= 0.04

    def test_put_timeout_succeeds_when_space_frees(self):
        queue = BoundedQueue(1)
        queue.put("first")
        threading.Timer(0.02, queue.get).start()
        queue.put("second", timeout=1.0)     # must not raise
        assert queue.get() == "second"


class TestCloseSemantics:
    def test_put_to_closed_queue_raises(self):
        queue = BoundedQueue(4)
        queue.close()
        assert queue.closed
        with pytest.raises(QueueClosed):
            queue.put(1)
        with pytest.raises(QueueClosed):
            queue.try_put(1)

    def test_blocked_producer_wakes_on_close(self):
        """The satellite-task deadlock: a producer stuck in put()
        against a dead consumer must raise instead of hanging."""
        queue = BoundedQueue(1)
        queue.put("clog")
        outcome = []

        def producer():
            try:
                queue.put("stuck")
            except QueueClosed:
                outcome.append("woke")

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        time.sleep(0.05)              # producer is now blocked
        assert thread.is_alive()
        queue.close()
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        assert outcome == ["woke"]

    def test_blocked_consumer_wakes_on_close(self):
        queue = BoundedQueue(1)
        outcome = []

        def consumer():
            try:
                queue.get(timeout=5.0)
            except QueueClosed:
                outcome.append("woke")

        thread = threading.Thread(target=consumer, daemon=True)
        thread.start()
        time.sleep(0.05)
        queue.close()
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        assert outcome == ["woke"]

    def test_close_drains_buffered_items_first(self):
        queue = BoundedQueue(4)
        queue.put("a")
        queue.put("b")
        queue.close()
        assert queue.get() == "a"
        assert queue.get() == "b"
        with pytest.raises(QueueClosed):
            queue.get()
