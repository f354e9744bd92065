"""Overload protection for the query API: admission, deadlines, breakers.

The serving stack stays a thread-per-connection stdlib server, so the
protection has to live in front of the work, not in the I/O layer:

* :class:`AdmissionController` bounds how many requests may execute
  concurrently and how many may wait, and sheds the rest with a fast
  503 (the caller translates :class:`Overloaded` into
  ``Retry-After``).  It doubles as the graceful-drain latch: after
  :meth:`drain` no new request is admitted and :meth:`wait_idle`
  blocks until in-flight work finishes.
* :class:`Deadline` is a monotonic budget created per request and
  propagated into the engine's decode loops, so one slow scan cannot
  occupy a worker slot forever.
* :class:`ExecutionLock` runs the admitted requests one at a time, in
  arrival order, and lets a long one hand its turn to the requests
  waiting behind it.
* :class:`CircuitBreaker` opens an endpoint after repeated server-side
  failures (e.g. decode errors), sheds while open, and lets a single
  probe through after a cool-down.

Everything is stdlib + the metrics registry handed in by the caller.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Deque, Dict, Iterator, List, Optional


class Overloaded(Exception):
    """Admission refused; the request should be shed with a 503."""

    def __init__(self, reason: str, retry_after_s: float = 1.0):
        super().__init__(f"overloaded ({reason})")
        self.reason = reason
        self.retry_after_s = retry_after_s


class DeadlineExceeded(Exception):
    """A request outlived its time budget mid-execution."""


class Deadline:
    """A monotonic per-request time budget.

    ``yield_turn``, when given, is called by the query engine between
    segment reads, where it holds none of its own locks: the API
    server lets waiting requests run there (:class:`ExecutionLock`).
    """

    __slots__ = ("expires_at", "yield_turn")

    def __init__(self, timeout_s: float,
                 yield_turn: Optional[Callable[[], None]] = None):
        self.expires_at = time.monotonic() + timeout_s
        self.yield_turn = yield_turn

    def remaining(self) -> float:
        return self.expires_at - time.monotonic()

    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def check(self, context: str = "") -> None:
        if self.expired():
            raise DeadlineExceeded(context or "request deadline exceeded")


class ExecutionLock:
    """The API server's execution lock: admitted requests run under it
    one at a time, and take it in the order they asked for it.

    A waiter blocks on a lock of its own, and :meth:`release` hands
    the execution lock straight to the oldest waiter; a plain
    ``threading.Lock`` would let the releasing thread take it again
    before a woken waiter runs, so a long request could not pass its
    turn on (:meth:`waiting` tells it whether anyone would take it).
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._held = False
        self._queue: Deque[threading.Lock] = deque()

    def acquire(self, timeout: float = math.inf) -> bool:
        """Take the lock, waiting at most ``timeout`` seconds."""
        with self._mutex:
            if not self._held:
                self._held = True
                return True
            turn = threading.Lock()
            turn.acquire()
            self._queue.append(turn)
        if turn.acquire(timeout=timeout if timeout < threading.TIMEOUT_MAX
                        else -1):
            return True
        with self._mutex:
            if turn in self._queue:
                self._queue.remove(turn)
                return False
        # Handed over just as the wait ran out.
        return True

    def release(self) -> None:
        with self._mutex:
            if self._queue:
                self._queue.popleft().release()
            else:
                self._held = False

    def waiting(self) -> bool:
        """Whether some request waits for the lock."""
        return bool(self._queue)


class AdmissionController:
    """Bounded concurrency with a bounded, impatient admission queue.

    At most ``max_concurrent`` requests execute at once.  When all
    slots are busy, up to ``max_queue`` further requests wait — but
    only for ``queue_timeout_s`` — and everything beyond that is shed
    immediately.  ``max_queue=0`` disables queueing entirely: a
    request either gets a slot now or is shed now, which keeps shed
    latency at its floor.
    """

    def __init__(self,
                 max_concurrent: int = 8,
                 max_queue: int = 16,
                 queue_timeout_s: float = 0.02,
                 registry=None):
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        self.max_concurrent = max_concurrent
        self.max_queue = max_queue
        self.queue_timeout_s = queue_timeout_s
        self._cond = threading.Condition()
        self._active = 0
        self._queued = 0
        self._draining = False
        self._shed = None
        if registry is not None:
            self._shed = registry.counter(
                "repro_guard_shed_total",
                "Requests shed by overload protection, by reason.",
                labels=("reason",))

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def active(self) -> int:
        return self._active

    def shed(self, reason: str) -> None:
        """Count one shed request (also used by the server for breaker
        and draining rejections that never reach ``admit``)."""
        if self._shed is not None:
            self._shed.labels(reason=reason).inc()

    def _refuse(self, reason: str, retry_after_s: float = 1.0) -> "Overloaded":
        self.shed(reason)
        return Overloaded(reason, retry_after_s)

    @contextmanager
    def admit(self) -> Iterator[None]:
        self._enter()
        try:
            yield
        finally:
            self._leave()

    def _enter(self) -> None:
        with self._cond:
            if self._draining:
                raise self._refuse("draining")
            if self._active < self.max_concurrent:
                self._active += 1
                return
            if self._queued >= self.max_queue:
                raise self._refuse("queue_full")
            self._queued += 1
            deadline = time.monotonic() + self.queue_timeout_s
            try:
                while self._active >= self.max_concurrent:
                    if self._draining:
                        raise self._refuse("draining")
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise self._refuse("queue_timeout")
                    self._cond.wait(remaining)
            finally:
                self._queued -= 1
            self._active += 1

    def _leave(self) -> None:
        with self._cond:
            self._active -= 1
            self._cond.notify_all()

    def drain(self) -> None:
        """Refuse all future admissions; wake queued waiters so they shed."""
        with self._cond:
            self._draining = True
            self._cond.notify_all()

    def wait_idle(self, timeout_s: float = 5.0) -> bool:
        """Block until in-flight requests finish (True) or timeout (False)."""
        end = time.monotonic() + timeout_s
        with self._cond:
            while self._active > 0:
                remaining = end - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True


class _BreakerState:
    __slots__ = ("failures", "opened_at", "probing")

    def __init__(self) -> None:
        self.failures = 0
        self.opened_at: Optional[float] = None
        self.probing = False


class CircuitBreaker:
    """Per-endpoint breaker: closed → open after N straight failures,
    half-open (one probe) after ``reset_after_s``, closed again on a
    probe success."""

    def __init__(self,
                 failure_threshold: int = 5,
                 reset_after_s: float = 5.0,
                 registry=None,
                 clock=time.monotonic,
                 on_open=None):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.reset_after_s = reset_after_s
        self._clock = clock
        #: Called with the endpoint key each time a circuit opens (the
        #: server hooks the flight recorder here).  Runs under the
        #: breaker lock on the failing request's thread: keep it short
        #: and never call back into the breaker.
        self.on_open = on_open
        self._lock = threading.Lock()
        self._states: Dict[str, _BreakerState] = {}
        self._open_gauge = None
        if registry is not None:
            self._open_gauge = registry.gauge(
                "repro_guard_breaker_open",
                "1 while the endpoint's circuit breaker is open.",
                labels=("endpoint",))

    def _state(self, key: str) -> _BreakerState:
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = _BreakerState()
        return state

    def allow(self, key: str) -> bool:
        with self._lock:
            state = self._state(key)
            if state.opened_at is None:
                return True
            if self._clock() - state.opened_at >= self.reset_after_s \
                    and not state.probing:
                state.probing = True      # half-open: let one probe through
                return True
            return False

    def record_success(self, key: str) -> None:
        with self._lock:
            state = self._state(key)
            state.failures = 0
            if state.opened_at is not None:
                state.opened_at = None
                state.probing = False
                self._note(key, open_=False)

    def record_failure(self, key: str) -> None:
        with self._lock:
            state = self._state(key)
            state.failures += 1
            if state.probing:
                # The half-open probe failed: re-open the cool-down.
                state.opened_at = self._clock()
                state.probing = False
                self._note(key, open_=True)
            elif state.opened_at is None \
                    and state.failures >= self.failure_threshold:
                state.opened_at = self._clock()
                self._note(key, open_=True)

    def retry_after(self, key: str) -> float:
        with self._lock:
            state = self._states.get(key)
            if state is None or state.opened_at is None:
                return 0.0
            return max(0.0, self.reset_after_s
                       - (self._clock() - state.opened_at))

    def open_endpoints(self) -> List[str]:
        with self._lock:
            return sorted(key for key, state in self._states.items()
                          if state.opened_at is not None)

    def _note(self, key: str, open_: bool) -> None:
        if self._open_gauge is not None:
            self._open_gauge.labels(endpoint=key).set(1.0 if open_ else 0.0)
        if open_ and self.on_open is not None:
            try:
                self.on_open(key)
            except Exception:
                # A failing observer must never turn breaker
                # bookkeeping into a request error.
                pass
