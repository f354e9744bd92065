"""Bounded queues with depth tracking for the collection runtime.

:class:`BoundedQueue` is a small condition-variable queue that exposes
what the pipeline needs and :mod:`queue` does not: lists moved under
one lock, a ``try_put_many`` whose unfitted tail the caller turns into
an explicit drop (the daemon-loss signal of Table 1), a depth gauge
sampled on every transition so queue high-water marks appear in the
metrics, and ``close`` semantics so a producer blocked in ``put`` wakes
with :class:`QueueClosed` instead of deadlocking when its consumer dies.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Deque, List, Optional, Sequence

from ..telemetry import Gauge


class QueueEmpty(Exception):
    """Raised by :meth:`BoundedQueue.get` on timeout."""


class QueueFull(Exception):
    """Raised by :meth:`BoundedQueue.put_many` when its timeout expires;
    ``entered`` counts the items enqueued before it did."""

    def __init__(self, entered: int = 0):
        super().__init__(entered)
        self.entered = entered


class QueueClosed(Exception):
    """Raised when putting to — or draining past the end of — a closed
    queue.  Closing is how stage death propagates: a producer blocked
    in ``put`` wakes immediately rather than hanging forever."""


class BoundedQueue:
    """A FIFO queue with a hard capacity bound.

    ``try_put_many`` never blocks and reports how much fitted;
    ``put_many`` blocks until space frees up — the backpressure edge
    between two stages.  Control markers block even on drop-policy
    sessions so watermarks and end-of-stream signals are never lost.

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
        return self.try_put_many((item,)) == 1

    def try_put_many(self, items: Sequence[Any]) -> int:
        """Enqueue the prefix of ``items`` that fits; its length."""
        with self._lock:
            if self._closed:
                raise QueueClosed()
            fitted = items[:self.capacity - len(self._items)]
            if fitted:
                self._items.extend(fitted)
                self.gauge.set(len(self._items))
                self._not_empty.notify()
            return len(fitted)

    def put(self, item: Any, timeout: Optional[float] = None) -> None:
        """Enqueue, blocking while the queue is full (backpressure);
        raises like :meth:`put_many`."""
        self.put_many((item,), timeout)

    def put_many(self, items: Sequence[Any],
                 timeout: Optional[float] = None) -> None:
        """Enqueue ``items`` in order, in chunks as room frees up.

        Raises :class:`QueueFull` (``entered`` items made it in) when
        ``timeout`` passes with no room for the next item, and
        :class:`QueueClosed` if the queue is (or becomes) closed."""
        entered, total = 0, len(items)
        deadline = None
        with self._not_full:
            while True:
                if self._closed:
                    raise QueueClosed()
                room = min(total - entered,
                           self.capacity - len(self._items))
                if room > 0:
                    self._items.extend(items[entered:entered + room])
                    entered += room
                    self.gauge.set(len(self._items))
                    self._not_empty.notify()
                    deadline = None     # progress restarts the clock
                if entered == total:
                    return
                if timeout is None:
                    self._not_full.wait()
                else:
                    now = time.monotonic()
                    if deadline is None:
                        deadline = now + timeout
                    if now >= deadline \
                            or not self._not_full.wait(deadline - now):
                        raise QueueFull(entered)

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
