"""Unit tests for the overload-protection primitives (repro.guard.serving)."""

import sys
import threading
import time

import pytest

from repro.guard.serving import (
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
        for request in range(2):
            breaker.record_failure("/updates")
            assert breaker.allow("/updates", request)
        breaker.record_failure("/updates")
        assert not breaker.allow("/updates", 2)
        assert breaker.open_endpoints() == ["/updates"]

    def test_success_resets_the_failure_streak(self):
        breaker, _ = self.breaker(threshold=3)
        breaker.record_failure("/updates")
        breaker.record_failure("/updates")
        breaker.record_success("/updates")
        breaker.record_failure("/updates")
        breaker.record_failure("/updates")
        assert breaker.allow("/updates", 1)  # streak broken, still closed

    def test_breakers_are_per_endpoint(self):
        breaker, _ = self.breaker(threshold=1)
        breaker.record_failure("/updates")
        assert not breaker.allow("/updates", 1)
        assert breaker.allow("/vps", 2)

    def test_half_open_single_probe(self):
        breaker, clock = self.breaker(threshold=1, reset=5.0)
        breaker.record_failure("/updates")
        assert not breaker.allow("/updates", 1)
        clock.advance(5.0)
        assert breaker.allow("/updates", 2)       # one probe gets through
        assert not breaker.allow("/updates", 3)   # concurrent ones don't

    def test_probe_success_closes(self):
        breaker, clock = self.breaker(threshold=1, reset=5.0)
        breaker.record_failure("/updates")
        clock.advance(5.0)
        assert breaker.allow("/updates", 1)
        breaker.record_success("/updates")
        assert breaker.allow("/updates", 2)
        assert breaker.open_endpoints() == []

    def test_probe_failure_restarts_the_cooldown(self):
        breaker, clock = self.breaker(threshold=1, reset=5.0)
        breaker.record_failure("/updates")
        clock.advance(5.0)
        assert breaker.allow("/updates", 1)
        breaker.record_failure("/updates")
        assert not breaker.allow("/updates", 2)
        assert breaker.retry_after("/updates") == pytest.approx(5.0)
        clock.advance(5.0)
        assert breaker.allow("/updates", 3)       # a fresh probe

    def test_an_unsettled_probe_is_handed_back(self):
        """A probe that ends neither in a success nor in a failure
        (a 400, a shed, a client abort) lets the next request probe."""
        breaker, clock = self.breaker(threshold=1, reset=5.0)
        breaker.record_failure("/updates")
        clock.advance(5.0)
        assert breaker.allow("/updates", 1)
        breaker.hand_back("/updates", 1)
        assert breaker.open_endpoints() == ["/updates"]
        assert breaker.allow("/updates", 2)       # the next probe
        breaker.record_success("/updates")
        assert breaker.open_endpoints() == []

    def test_only_the_probing_request_hands_the_probe_back(self):
        breaker, clock = self.breaker(threshold=1, reset=5.0)
        breaker.record_failure("/updates")
        clock.advance(5.0)
        assert breaker.allow("/updates", "probe")
        breaker.hand_back("/updates", "other")
        assert not breaker.allow("/updates", "third")   # still out
        breaker.hand_back("/updates", "probe")
        breaker.hand_back("/vps", "probe")        # never seen: a no-op
        assert breaker.allow("/updates", "third")

    def test_a_request_refused_while_the_probe_is_out_keeps_it_out(self):
        """The probe is a request's, not a thread's: a request refused
        while another holds it — on the same thread here — ends as a
        shed and leaves the probe with its holder, so no second probe
        goes out."""
        breaker, clock = self.breaker(threshold=1, reset=5.0)
        breaker.record_failure("/updates")
        clock.advance(5.0)
        assert breaker.allow("/updates", "suspended scan")
        assert not breaker.allow("/updates", "shed")
        breaker.hand_back("/updates", "shed")
        assert not breaker.allow("/updates", "third")
        breaker.record_success("/updates")        # the scan answers
        assert breaker.allow("/updates", "third")

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
    def test_admits_up_to_max_concurrent(self):
        gate = ExecutionLock(max_concurrent=2)
        with gate.admit():
            with gate.admit():
                started = time.monotonic()
                with pytest.raises(Overloaded) as excinfo:
                    with gate.admit():
                        pass
                # Refused at once: nothing waits for a place.
                assert time.monotonic() - started < 0.5
                assert excinfo.value.reason == "queue_full"
        with gate.admit():
            with gate.admit():
                pass

    def test_slot_reusable_after_release(self):
        gate = ExecutionLock(max_concurrent=1)
        with gate.admit():
            pass
        with gate.admit():
            assert gate.acquire(timeout=0.0)
            gate.release()

    def test_waiters_count_toward_the_bound(self):
        """The running request and the ones waiting for their turn
        share the bound: one more than it is shed."""
        gate = ExecutionLock(max_concurrent=2)

        def waiter():
            with gate.admit():
                assert gate.acquire(timeout=5.0)
                gate.release()

        with gate.admit():
            assert gate.acquire()
            thread = threading.Thread(target=waiter, daemon=True)
            thread.start()
            wait_until(gate.waiting)
            with pytest.raises(Overloaded) as excinfo:
                with gate.admit():
                    pass
            assert excinfo.value.reason == "queue_full"
            gate.release()
            thread.join(5.0)

    def test_streams_count_toward_the_bound_and_wait_idle(self):
        """A ``/rib`` stream is admitted but never takes the lock: it
        holds a place, and ``wait_idle`` waits for it."""
        gate = ExecutionLock(max_concurrent=1)
        streaming = threading.Event()
        release = threading.Event()

        def stream():
            with gate.admit():
                streaming.set()
                release.wait(5.0)

        thread = threading.Thread(target=stream, daemon=True)
        thread.start()
        assert streaming.wait(5.0)
        assert gate.acquire(timeout=0.0)      # the lock is free ...
        gate.release()
        with pytest.raises(Overloaded) as excinfo:
            with gate.admit():                # ... the place is not
                pass
        assert excinfo.value.reason == "queue_full"
        assert not gate.wait_idle(timeout_s=0.05)
        release.set()
        assert gate.wait_idle(timeout_s=5.0)
        thread.join(5.0)

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

    def test_a_deadline_ends_the_wait_and_frees_the_place(self):
        """A waiter whose deadline runs out leaves the queue; the
        DeadlineExceeded it raises inside ``admit`` is the counted
        ``deadline`` shed, and its place is free again."""
        registry = MetricsRegistry()
        gate = ExecutionLock(max_concurrent=2, registry=registry)
        assert gate.acquire()
        deadline = Deadline(0.05)
        with pytest.raises(Overloaded) as excinfo:
            with gate.admit():
                if not gate.acquire(max(0.0, deadline.remaining())):
                    raise DeadlineExceeded("waiting for the lock")
        assert excinfo.value.reason == "deadline"
        assert not gate.waiting()
        assert shed_counts(registry) == {"deadline": 1}
        with gate.admit():
            with gate.admit():
                pass
        gate.release()

    def test_drain_refuses_new_but_lets_waiters_run(self):
        gate = ExecutionLock(max_concurrent=4)
        order = []

        def waiter():
            with gate.admit():
                assert gate.acquire(timeout=5.0)
                order.append("waiter")
                gate.release()

        with gate.admit():
            assert gate.acquire()
            thread = threading.Thread(target=waiter, daemon=True)
            thread.start()
            wait_until(gate.waiting)
            gate.drain()
            assert gate.draining
            with pytest.raises(Overloaded) as excinfo:
                with gate.admit():
                    pass
            assert excinfo.value.reason == "draining"
            gate.release()
            thread.join(5.0)
        assert order == ["waiter"]
        assert gate.wait_idle(timeout_s=0.1)

    def test_a_passed_turn_queues_again_when_full_or_draining(self):
        """Passing a turn is no new admission: with the gate full and
        draining, the request still gets its turn back."""
        gate = ExecutionLock(max_concurrent=2)
        order = []

        def waiter():
            with gate.admit():
                assert gate.acquire(timeout=5.0)
                order.append("waiter")
                gate.release()

        with gate.admit():
            assert gate.acquire()
            thread = threading.Thread(target=waiter, daemon=True)
            thread.start()
            wait_until(gate.waiting)
            gate.drain()
            gate.release()                     # pass the turn ...
            assert gate.acquire(timeout=5.0)   # ... and queue again
            order.append("long")
            gate.release()
        thread.join(5.0)
        assert order == ["waiter", "long"]

    def test_wait_idle(self):
        gate = ExecutionLock(max_concurrent=2)
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
        breaker = CircuitBreaker(failure_threshold=1)
        gate = ExecutionLock(max_concurrent=1, registry=registry,
                             breaker=breaker)
        with gate.admit("/updates"):
            with pytest.raises(Overloaded):
                with gate.admit("/updates"):
                    pass
        breaker.record_failure("/updates")
        with pytest.raises(Overloaded) as excinfo:
            with gate.admit("/updates"):
                pass
        assert excinfo.value.reason == "circuit_open"
        assert excinfo.value.retry_after_s > 0
        gate.drain()
        with pytest.raises(Overloaded):
            with gate.admit("/vps"):
                pass
        assert shed_counts(registry) \
            == {"queue_full": 1, "breaker": 1, "draining": 1}

    def test_stress_the_bound_and_the_lock_hold(self):
        """More threads than cores admit, take turns and pass them,
        under a short switch interval: never more than the bound in
        flight, never two holding the lock, every attempt either run
        or counted as shed, and nothing left in flight."""
        registry = MetricsRegistry()
        gate = ExecutionLock(max_concurrent=3, registry=registry)
        state = {"in_flight": 0, "holding": 0, "ran": 0}
        guard = threading.Lock()
        violations = []

        def enter(key, limit):
            with guard:
                state[key] += 1
                if state[key] > limit:
                    violations.append((key, state[key]))

        def leave(key):
            with guard:
                state[key] -= 1

        def worker():
            for _ in range(200):
                try:
                    with gate.admit():
                        enter("in_flight", 3)
                        assert gate.acquire(timeout=5.0)
                        enter("holding", 1)
                        time.sleep(0.0001)    # let the others pile up
                        leave("holding")
                        gate.release()        # pass the turn ...
                        assert gate.acquire(timeout=5.0)
                        enter("holding", 1)
                        with guard:
                            state["ran"] += 1
                        leave("holding")
                        gate.release()
                        leave("in_flight")
                except Overloaded:
                    pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, daemon=True)
                       for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not violations
        assert state["ran"] + shed_counts(registry).get("queue_full", 0) \
            == 8 * 200
        assert gate.wait_idle(timeout_s=0.1)
        assert not gate.waiting()

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ExecutionLock(max_concurrent=0)
