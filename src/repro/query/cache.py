"""The engine's caches: one LRU whose entries are pinned to a token.

Correctness rule (docs/QUERY.md): a cached value is valid only for
the exact state it was computed against, and that state is summarized
by a *token* stored beside the value.  A lookup whose stored token
differs from the caller's current one is treated as a miss and the
stale entry is evicted.  The engine uses the class twice:

* the **result cache** of ``QueryEngine.query`` keys answers by query
  spec and pins them to the archive's *watermark token* — ``(durable
  watermark, segment count)`` — which changes whenever the writer
  seals a new segment or recovery truncates the archive, so a live
  pipeline can keep appending while the library never returns a stale
  answer;
* the **segment-view memo** keys each segment's decoded, sorted and
  rendered view by path and pins it to the identity of the file bytes
  that were just read and verified — ``(size, CRC32)`` — so a
  rewritten or corrupted file can never be answered from an older
  view.

Capacity is counted in whatever ``weigh`` measures: entries by default
(the result cache), bytes for the view memo.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, Optional, Tuple


class WatermarkLRUCache:
    """A thread-safe LRU cache whose entries are pinned to a token."""

    def __init__(self, capacity: int = 128,
                 weigh: Optional[Callable[[Any], int]] = None):
        if capacity < 0:
            raise ValueError("capacity must be nonnegative")
        self.capacity = capacity
        self._weigh = weigh if weigh is not None else lambda value: 1
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Tuple[Hashable, Any, int]]" \
            = OrderedDict()
        self._weight = 0
        #: Stale entries discarded on lookup (token moved).
        self.invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def weight(self) -> int:
        """Total weight retained right now (never above ``capacity``)."""
        with self._lock:
            return self._weight

    def _drop(self, key: Hashable) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._weight -= entry[2]

    def get(self, key: Hashable, token: Hashable) -> Optional[Any]:
        """The cached value, or None on miss or token mismatch."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            if entry[0] != token:
                # The state moved since this value was computed (the
                # archive advanced or was recovered; the file was
                # rewritten); serving it would be stale.
                self._drop(key)
                self.invalidations += 1
                return None
            self._entries.move_to_end(key)
            return entry[1]

    def put(self, key: Hashable, token: Hashable, value: Any) -> None:
        weight = self._weigh(value)
        with self._lock:
            self._drop(key)
            if weight > self.capacity:
                return          # could never fit: serve it, keep nothing
            self._entries[key] = (token, value, weight)
            self._weight += weight
            while self._weight > self.capacity:
                self._drop(next(iter(self._entries)))

    def discard(self, key: Hashable) -> None:
        with self._lock:
            self._drop(key)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._weight = 0
