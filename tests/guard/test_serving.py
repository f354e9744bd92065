"""Unit tests for the overload-protection primitives (repro.guard.serving)."""

import threading
import time

import pytest

from repro.guard.serving import (
    AdmissionController,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    ExecutionLock,
    Overloaded,
)
from repro.telemetry import MetricsRegistry


def shed_counts(registry):
    for family in registry.to_json()["families"]:
        if family["name"] == "repro_guard_shed_total":
            return {
                sample["labels"]["reason"]: sample["value"]
                for sample in family["samples"]
            }
    return {}


class TestAdmissionController:
    def test_admits_up_to_max_concurrent(self):
        gate = AdmissionController(max_concurrent=2, max_queue=0)
        with gate.admit():
            with gate.admit():
                assert gate.active == 2
                with pytest.raises(Overloaded) as excinfo:
                    with gate.admit():
                        pass
                assert excinfo.value.reason == "queue_full"
        assert gate.active == 0

    def test_slot_reusable_after_release(self):
        gate = AdmissionController(max_concurrent=1, max_queue=0)
        with gate.admit():
            pass
        with gate.admit():
            assert gate.active == 1

    def test_queued_request_gets_the_freed_slot(self):
        gate = AdmissionController(max_concurrent=1, max_queue=1,
                                   queue_timeout_s=2.0)
        holding = threading.Event()
        release = threading.Event()
        outcome = []

        def holder():
            with gate.admit():
                holding.set()
                release.wait(5.0)

        def waiter():
            holding.wait(5.0)
            try:
                with gate.admit():
                    outcome.append("admitted")
            except Overloaded as exc:
                outcome.append(exc.reason)

        threads = [threading.Thread(target=holder),
                   threading.Thread(target=waiter)]
        for thread in threads:
            thread.start()
        holding.wait(5.0)
        time.sleep(0.05)         # let the waiter enter the queue
        release.set()
        for thread in threads:
            thread.join(5.0)
        assert outcome == ["admitted"]

    def test_impatient_queue_times_out(self):
        gate = AdmissionController(max_concurrent=1, max_queue=1,
                                   queue_timeout_s=0.05)
        release = threading.Event()
        started = threading.Event()

        def holder():
            with gate.admit():
                started.set()
                release.wait(5.0)

        thread = threading.Thread(target=holder)
        thread.start()
        started.wait(5.0)
        before = time.monotonic()
        with pytest.raises(Overloaded) as excinfo:
            with gate.admit():
                pass
        waited = time.monotonic() - before
        release.set()
        thread.join(5.0)
        assert excinfo.value.reason == "queue_timeout"
        assert waited < 1.0      # shed fast, not a full request timeout

    def test_drain_refuses_and_wakes_waiters(self):
        gate = AdmissionController(max_concurrent=1, max_queue=0)
        gate.drain()
        assert gate.draining
        with pytest.raises(Overloaded) as excinfo:
            with gate.admit():
                pass
        assert excinfo.value.reason == "draining"

    def test_wait_idle(self):
        gate = AdmissionController(max_concurrent=2, max_queue=0)
        assert gate.wait_idle(timeout_s=0.1)
        release = threading.Event()

        def holder():
            with gate.admit():
                release.wait(5.0)

        thread = threading.Thread(target=holder)
        thread.start()
        time.sleep(0.02)
        assert not gate.wait_idle(timeout_s=0.05)
        release.set()
        assert gate.wait_idle(timeout_s=5.0)
        thread.join(5.0)

    def test_shed_reasons_counted(self):
        registry = MetricsRegistry()
        gate = AdmissionController(max_concurrent=1, max_queue=0,
                                   registry=registry)
        with gate.admit():
            with pytest.raises(Overloaded):
                with gate.admit():
                    pass
        gate.shed("breaker")
        counts = shed_counts(registry)
        assert counts["queue_full"] == 1
        assert counts["breaker"] == 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            AdmissionController(max_concurrent=0)
        with pytest.raises(ValueError):
            AdmissionController(max_queue=-1)


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, by):
        self.now += by


class TestCircuitBreaker:
    def breaker(self, threshold=3, reset=5.0):
        clock = FakeClock()
        return CircuitBreaker(failure_threshold=threshold,
                              reset_after_s=reset, clock=clock), clock

    def test_closed_until_threshold(self):
        breaker, _ = self.breaker(threshold=3)
        for _ in range(2):
            breaker.record_failure("/updates")
            assert breaker.allow("/updates")
        breaker.record_failure("/updates")
        assert not breaker.allow("/updates")
        assert breaker.open_endpoints() == ["/updates"]

    def test_success_resets_the_failure_streak(self):
        breaker, _ = self.breaker(threshold=3)
        breaker.record_failure("/updates")
        breaker.record_failure("/updates")
        breaker.record_success("/updates")
        breaker.record_failure("/updates")
        breaker.record_failure("/updates")
        assert breaker.allow("/updates")   # streak broken, still closed

    def test_breakers_are_per_endpoint(self):
        breaker, _ = self.breaker(threshold=1)
        breaker.record_failure("/updates")
        assert not breaker.allow("/updates")
        assert breaker.allow("/vps")

    def test_half_open_single_probe(self):
        breaker, clock = self.breaker(threshold=1, reset=5.0)
        breaker.record_failure("/updates")
        assert not breaker.allow("/updates")
        clock.advance(5.0)
        assert breaker.allow("/updates")       # one probe gets through
        assert not breaker.allow("/updates")   # concurrent calls don't

    def test_probe_success_closes(self):
        breaker, clock = self.breaker(threshold=1, reset=5.0)
        breaker.record_failure("/updates")
        clock.advance(5.0)
        assert breaker.allow("/updates")
        breaker.record_success("/updates")
        assert breaker.allow("/updates")
        assert breaker.open_endpoints() == []

    def test_probe_failure_restarts_the_cooldown(self):
        breaker, clock = self.breaker(threshold=1, reset=5.0)
        breaker.record_failure("/updates")
        clock.advance(5.0)
        assert breaker.allow("/updates")
        breaker.record_failure("/updates")
        assert not breaker.allow("/updates")
        assert breaker.retry_after("/updates") == pytest.approx(5.0)
        clock.advance(5.0)
        assert breaker.allow("/updates")       # a fresh probe

    def test_retry_after_counts_down(self):
        breaker, clock = self.breaker(threshold=1, reset=5.0)
        assert breaker.retry_after("/updates") == 0.0
        breaker.record_failure("/updates")
        clock.advance(2.0)
        assert breaker.retry_after("/updates") == pytest.approx(3.0)


class TestDeadline:
    def test_fresh_deadline_passes(self):
        deadline = Deadline(30.0)
        assert not deadline.expired()
        assert deadline.remaining() > 29.0
        deadline.check("decoding")     # must not raise

    def test_expired_deadline_raises(self):
        deadline = Deadline(0.0)
        assert deadline.expired()
        with pytest.raises(DeadlineExceeded, match="mid decode"):
            deadline.check("mid decode")


def wait_until(condition, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while not condition():
        assert time.monotonic() < deadline
        time.sleep(0.001)


class TestExecutionLock:
    def test_waiters_take_the_lock_in_arrival_order(self):
        lock = ExecutionLock()
        assert lock.acquire()
        order = []

        def waiter(name):
            assert lock.acquire()
            order.append(name)
            lock.release()

        threads = []
        for name in range(4):
            thread = threading.Thread(target=waiter, args=(name,))
            thread.start()
            threads.append(thread)
            wait_until(lambda: len(lock._queue) == name + 1)
        assert lock.waiting()
        lock.release()
        for thread in threads:
            thread.join(5.0)
        assert order == [0, 1, 2, 3]
        assert not lock.waiting()

    def test_a_release_hands_over_before_the_releaser_can_retake(self):
        """The turn a long request passes goes to the waiter, not back
        to the releasing thread."""
        lock = ExecutionLock()
        assert lock.acquire()
        got = []
        thread = threading.Thread(
            target=lambda: got.append(lock.acquire()) or lock.release())
        thread.start()
        wait_until(lock.waiting)
        lock.release()
        assert lock.acquire()      # queued behind the waiter
        assert got == [True]
        lock.release()
        thread.join(5.0)

    def test_a_timed_out_waiter_leaves_the_queue(self):
        lock = ExecutionLock()
        assert lock.acquire()
        started = time.monotonic()
        assert not lock.acquire(timeout=0.05)
        assert time.monotonic() - started >= 0.04
        assert not lock.waiting()
        assert not lock.acquire(timeout=0.0)
        lock.release()
        # Free again: taken at once.
        assert lock.acquire(timeout=0.0)
        lock.release()
