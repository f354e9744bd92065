"""Bounded queues with depth tracking for the collection runtime.

:class:`BoundedQueue` is a small condition-variable queue that exposes
what the pipeline needs and :mod:`queue` does not: a non-blocking
``try_put`` whose refusal the caller turns into an explicit drop (the
daemon-loss signal of Table 1), a depth gauge sampled on every
transition so queue high-water marks appear in the metrics, and
``close`` semantics so a producer blocked in ``put`` wakes with
:class:`QueueClosed` instead of deadlocking when its consumer dies.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Deque, List, Optional

from ..telemetry import Gauge


class QueueEmpty(Exception):
    """Raised by :meth:`BoundedQueue.get` on timeout."""


class QueueFull(Exception):
    """Raised by :meth:`BoundedQueue.put` when its timeout expires."""


class QueueClosed(Exception):
    """Raised when putting to — or draining past the end of — a closed
    queue.  Closing is how stage death propagates: a producer blocked
    in ``put`` wakes immediately rather than hanging forever."""


class BoundedQueue:
    """A FIFO queue with a hard capacity bound.

    ``try_put`` never blocks and reports refusal; ``put`` blocks until
    space frees up — the backpressure edge between two stages.  Control
    markers use ``put`` even on drop-policy paths so watermarks and
    end-of-stream signals are never lost.

    Once :meth:`close` is called every ``put``/``try_put`` raises
    :class:`QueueClosed`; ``get`` keeps draining buffered items and
    raises :class:`QueueClosed` only once the queue is empty.
    """

    def __init__(self, capacity: int, gauge: Optional[Gauge] = None):
        if capacity <= 0:
            raise ValueError("queue capacity must be positive")
        self.capacity = capacity
        self.gauge = gauge or Gauge()
        self._items: Deque[Any] = deque()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._closed = False

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def close(self) -> None:
        """Poison the queue: wake every blocked producer and consumer."""
        with self._lock:
            self._closed = True
            self._not_full.notify_all()
            self._not_empty.notify_all()

    def try_put(self, item: Any) -> bool:
        """Enqueue without blocking; False when the queue is full."""
        with self._lock:
            if self._closed:
                raise QueueClosed()
            if len(self._items) >= self.capacity:
                return False
            self._items.append(item)
            self.gauge.set(len(self._items))
            self._not_empty.notify()
            return True

    def put(self, item: Any, timeout: Optional[float] = None) -> None:
        """Enqueue, blocking while the queue is full (backpressure).

        Raises :class:`QueueFull` when ``timeout`` elapses with the
        queue still full, and :class:`QueueClosed` if the queue is (or
        becomes) closed while waiting.
        """
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        with self._not_full:
            while len(self._items) >= self.capacity:
                if self._closed:
                    raise QueueClosed()
                if deadline is None:
                    self._not_full.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 \
                            or not self._not_full.wait(remaining):
                        raise QueueFull()
            if self._closed:
                raise QueueClosed()
            self._items.append(item)
            self.gauge.set(len(self._items))
            self._not_empty.notify()

    def get(self, timeout: Optional[float] = None) -> Any:
        """Dequeue the oldest item; raises :class:`QueueEmpty` on
        timeout and :class:`QueueClosed` once a closed queue drains."""
        return self.get_many(1, timeout)[0]

    def get_many(self, max_items: int,
                 timeout: Optional[float] = None) -> List[Any]:
        """Dequeue the oldest ``max_items`` items at most — at least
        one, waiting and raising like :meth:`get` — under one lock
        acquisition.

        A consumer that takes the lock once per item alongside its
        producers can fall into a convoy: a released lock is handed to
        the thread waiting for it, which still has to wait for the
        GIL, so every ``put`` and ``get`` ends in a thread switch until
        one side pauses.  Two shard workers and the writer did, on
        some flood replays and not on others (200k switches and half
        as much CPU again); taking a batch per acquisition keeps the
        consumer out of it.
        """
        with self._not_empty:
            while not self._items:
                if self._closed:
                    raise QueueClosed()
                if not self._not_empty.wait(timeout):
                    raise QueueEmpty()
            items = self._items
            taken = [items.popleft()
                     for _ in range(min(max_items, len(items)))]
            self.gauge.set(len(items))
            self._not_full.notify(len(taken))
            return taken
