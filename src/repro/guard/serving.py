"""Overload protection for the query API: one gate, deadlines, breakers.

The serving stack stays a thread-per-connection stdlib server, so the
protection has to live in front of the work, not in the I/O layer:

* :class:`ExecutionLock` is the one gate in front of the engine: it
  bounds how many requests may be in flight, sheds the rest with a
  fast 503 (the caller translates :class:`Overloaded` into
  ``Retry-After``), runs the admitted ones one at a time in arrival
  order, and lets a long one hand its turn to those waiting behind it.
  It doubles as the graceful-drain latch: after :meth:`~ExecutionLock.
  drain` no new request is admitted and :meth:`~ExecutionLock.
  wait_idle` blocks until in-flight work finishes.
* :class:`Deadline` is a monotonic budget created per request and
  propagated into the engine's decode loops, so one slow scan cannot
  hold the engine forever.
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
from typing import Callable, Deque, Dict, Hashable, Iterator, List, \
    Optional


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
    """The API server's one gate in front of the engine.

    :meth:`admit` bounds the requests in flight at ``max_concurrent``:
    the one holding the lock, those waiting for it, and ``/rib``
    streams, which count but never take it.  It refuses the rest at
    once and counts every shed in ``repro_guard_shed_total``.  The lock
    goes to waiters in arrival order: each blocks on a lock of its own,
    which :meth:`release` hands over directly, so a request passing its
    turn (:meth:`waiting` says whether anyone would take it) cannot take
    it straight back.  It queues again without the bound or drain
    check, since it is still in flight.
    """

    def __init__(self, max_concurrent: int = 24, registry=None,
                 breaker: Optional["CircuitBreaker"] = None):
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        self.max_concurrent = max_concurrent
        self.breaker = breaker
        self._mutex = threading.Lock()
        self._idle = threading.Condition(self._mutex)
        self._in_flight = 0
        self._held = False
        self._queue: Deque[threading.Lock] = deque()
        self.draining = False
        self._shed = None
        if registry is not None:
            self._shed = registry.counter(
                "repro_guard_shed_total",
                "Requests shed by overload protection, by reason.",
                labels=("reason",))

    def _refuse(self, counted: str, reason: Optional[str] = None,
                retry_after_s: float = 1.0) -> Overloaded:
        if self._shed is not None:
            self._shed.labels(reason=counted).inc()
        return Overloaded(reason or counted, retry_after_s)

    @contextmanager
    def admit(self, endpoint: str = "",
              request: Optional[Hashable] = None) -> Iterator[None]:
        """Hold one of the ``max_concurrent`` places for the block.

        Raises :class:`Overloaded` when draining, when ``breaker``
        keeps ``endpoint``'s circuit open for ``request`` (its id, the
        holder of a half-open probe it is let through as; a new token
        when None) — ``circuit_open``, counted as ``breaker`` — and at
        the bound (``queue_full``).  A :class:`DeadlineExceeded`
        leaving the block becomes the ``deadline`` shed.
        """
        with self._mutex:
            if self.draining:
                raise self._refuse("draining")
            if self.breaker is not None and not self.breaker.allow(
                    endpoint, object() if request is None else request):
                raise self._refuse("breaker", "circuit_open",
                                   self.breaker.retry_after(endpoint))
            if self._in_flight >= self.max_concurrent:
                raise self._refuse("queue_full")
            self._in_flight += 1
        try:
            yield
        except DeadlineExceeded:
            raise self._refuse("deadline") from None
        finally:
            with self._mutex:
                self._in_flight -= 1
                if not self._in_flight:
                    self._idle.notify_all()

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

    def drain(self) -> None:
        """Refuse every request not yet admitted."""
        with self._mutex:
            self.draining = True

    def wait_idle(self, timeout_s: Optional[float] = 5.0) -> bool:
        """Block until no request is in flight (True) or the timeout
        passes (False); ``None`` waits as long as it takes."""
        with self._idle:
            return self._idle.wait_for(lambda: not self._in_flight,
                                       timeout_s)


class _BreakerState:
    __slots__ = ("failures", "opened_at", "probing")

    def __init__(self) -> None:
        self.failures = 0
        self.opened_at: Optional[float] = None
        #: The request running the half-open probe, if one is out.
        self.probing: Optional[Hashable] = None


class CircuitBreaker:
    """Per-endpoint breaker: closed → open after N straight failures,
    half-open (one probe) after ``reset_after_s``, closed again on a
    probe success.  A probe that ends neither way (a client error, a
    shed, a client abort) is handed back with :meth:`hand_back`."""

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

    def allow(self, key: str, request: Hashable) -> bool:
        """Whether ``request`` may run on ``key``'s endpoint; while
        half-open, the one request let through holds the probe."""
        with self._lock:
            state = self._state(key)
            if state.opened_at is None:
                return True
            if self._clock() - state.opened_at >= self.reset_after_s \
                    and state.probing is None:
                # Half-open: let one probe through.
                state.probing = request
                return True
            return False

    def record_success(self, key: str) -> None:
        with self._lock:
            state = self._state(key)
            state.failures = 0
            if state.opened_at is not None:
                state.opened_at = None
                state.probing = None
                self._note(key, open_=False)

    def record_failure(self, key: str) -> None:
        with self._lock:
            state = self._state(key)
            state.failures += 1
            if state.probing is not None:
                # The half-open probe failed: re-open the cool-down.
                state.opened_at = self._clock()
                state.probing = None
                self._note(key, open_=True)
            elif state.opened_at is None \
                    and state.failures >= self.failure_threshold:
                state.opened_at = self._clock()
                self._note(key, open_=True)

    def hand_back(self, key: str, request: Hashable) -> None:
        """End ``request``: a half-open probe it still holds, settled
        neither way, goes to the next request."""
        with self._lock:
            state = self._states.get(key)
            if state is not None and state.probing == request:
                state.probing = None

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
