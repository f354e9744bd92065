"""Update feeds: how GILL ingests external platforms' data (§9).

GILL bootstraps with all RIS VPs via the RIS Live WebSocket API and all
RV VPs via a custom proxy that republishes RouteViews' periodic MRT
dumps in near real-time.  This module provides:

* a RIS-Live-compatible JSON codec for update messages;
* feed abstractions (in-memory lists, MRT archives, live generators);
* a k-way merger producing one time-ordered stream from many feeds;
* :class:`DumpProxy`, modeling the RV path: updates written to
  periodic dump files become available only when the file closes, so
  the proxy emits them batched, in availability order.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
from typing import Dict, Iterable, Iterator, List, Sequence

from ..bgp.message import BGPUpdate
from ..bgp.mrt import read_archive
from ..bgp.prefix import Prefix


# ---------------------------------------------------------------------------
# RIS-Live-style JSON codec
# ---------------------------------------------------------------------------


def ris_live_encode(update: BGPUpdate) -> str:
    """Serialize one update as a RIS-Live-style JSON message."""
    data: Dict[str, object] = {
        "type": "ris_message",
        "data": {
            "timestamp": update.time,
            "peer": update.vp,
            "type": "UPDATE",
        },
    }
    body = data["data"]
    if update.is_withdrawal:
        body["withdrawals"] = [str(update.prefix)]
    else:
        body["announcements"] = [{"prefixes": [str(update.prefix)]}]
        body["path"] = list(update.as_path)
        body["community"] = [list(c) for c in sorted(update.communities)]
    return json.dumps(data, sort_keys=True)


def ris_live_decode(message: str) -> List[BGPUpdate]:
    """Parse a RIS-Live-style JSON message into updates.

    A message may announce several prefixes; one update is produced
    per prefix, as collection platforms store them.
    """
    envelope = json.loads(message)
    if envelope.get("type") != "ris_message":
        raise ValueError(f"not a ris_message: {envelope.get('type')!r}")
    body = envelope["data"]
    vp = body["peer"]
    time = float(body["timestamp"])
    updates: List[BGPUpdate] = []
    for prefix_text in body.get("withdrawals", ()):
        updates.append(BGPUpdate(vp, time, Prefix.parse(prefix_text),
                                 is_withdrawal=True))
    path = tuple(body.get("path", ()))
    communities = frozenset(
        (int(a), int(v)) for a, v in body.get("community", ())
    )
    for announcement in body.get("announcements", ()):
        for prefix_text in announcement.get("prefixes", ()):
            updates.append(BGPUpdate(vp, time, Prefix.parse(prefix_text),
                                     path, communities))
    return updates


# ---------------------------------------------------------------------------
# Feeds
# ---------------------------------------------------------------------------


class ListFeed:
    """A feed over an in-memory, time-sorted update list."""

    def __init__(self, name: str, updates: Sequence[BGPUpdate]):
        self.name = name
        self._updates = sorted(updates, key=lambda u: u.time)

    def __iter__(self) -> Iterator[BGPUpdate]:
        return iter(self._updates)


class ArchiveFeed:
    """A feed replaying an MRT archive written by the platform."""

    def __init__(self, name: str, path: str):
        self.name = name
        self.path = path

    def __iter__(self) -> Iterator[BGPUpdate]:
        records = read_archive(self.path)
        updates = [r for r in records if isinstance(r, BGPUpdate)]
        updates.sort(key=lambda u: u.time)
        return iter(updates)


class DumpProxy:
    """The RouteViews path: periodic dumps re-published in order.

    RV writes updates to files every ``period_s`` seconds; an update
    with timestamp t becomes *available* at the end of its file,
    ``ceil(t / period) * period``.  Iterating the proxy yields updates
    in availability order (then original time), with each update's
    delivery delay observable via :meth:`availability`.
    """

    def __init__(self, name: str, updates: Sequence[BGPUpdate],
                 period_s: float = 900.0):
        if period_s <= 0:
            raise ValueError("period must be positive")
        self.name = name
        self.period_s = period_s
        self._updates = list(updates)

    def availability(self, update: BGPUpdate) -> float:
        return math.ceil(update.time / self.period_s) * self.period_s

    def __iter__(self) -> Iterator[BGPUpdate]:
        return iter(sorted(
            self._updates,
            key=lambda u: (self.availability(u), u.time, u.vp, u.prefix),
        ))

    def max_delay(self) -> float:
        """Worst-case staleness this proxy introduces."""
        if not self._updates:
            return 0.0
        return max(self.availability(u) - u.time for u in self._updates)


def merge_feeds(*feeds: Iterable[BGPUpdate]) -> Iterator[BGPUpdate]:
    """One time-ordered stream out of many per-platform feeds.

    Each feed must yield updates in nondecreasing time order (all feed
    classes above do); the merge is the platform's unified input.
    """
    counter = itertools.count()
    return heapq.merge(
        *feeds, key=lambda u: (u.time, u.vp, u.prefix, u.is_withdrawal),
    )
