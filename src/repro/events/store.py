"""The persistent event store: JSONL journal + in-memory indexes.

Events materialize here as the pipeline correlates detections.  The
on-disk form is an append-only JSONL journal of full-event upserts,
each stamped with the archive watermark of the sealed segment that
produced it::

    {"op": "upsert", "watermark": 600.0, "event": {...}}

Replaying the journal (last-writer-wins per event id) rebuilds the
store exactly, which gives three properties for free:

* **restartable serving** — ``repro-bgp serve`` and ``repro-bgp
  events`` load the journal without re-scanning the archive, and
  :meth:`refresh` tails records another process appends;
* **crash recovery** — after an archive crash, records beyond the
  archive's durable watermark describe segments that recovery tore
  away; :meth:`load` truncates them (atomically rewriting the
  journal) and the pipeline regenerates them by replaying the
  re-sealed segments — detectors are deterministic, so the store
  converges to exactly the uninterrupted run's content;
* **torn-tail tolerance** — a crash mid-append leaves at most one
  unparseable trailing line, which the loader drops — from the file
  too, so the next append starts on a line boundary.

In-memory, events are indexed by id, prefix, ASN, type and state;
:meth:`query` intersects the most selective indexes before filtering,
mirroring the query engine's pushdown style.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Set

from ..guard.integrity import SealedJournal
from .model import Event, EventState, EVENT_TYPES

#: Default journal file name inside an archive directory.
JOURNAL_NAME = "events.jsonl"


def journal_path_for(archive_dir: str) -> str:
    """Where an archive directory's event journal lives."""
    return os.path.join(archive_dir, JOURNAL_NAME)


class EventStore:
    """Thread-safe event materialization with journal persistence.

    ``path=None`` keeps the store purely in memory (tests, ad-hoc
    analysis); otherwise every upsert appends to the journal.
    """

    def __init__(self, path: Optional[str] = None):
        self.path = path
        # No fsync per upsert: the journal is regenerated from the
        # archive's durable segments on attach, and appends sit on the
        # seal path.
        self._journal = SealedJournal(path, fsync=False) \
            if path is not None else None
        self._lock = threading.RLock()
        self._events: Dict[str, Event] = {}
        self._by_prefix: Dict[str, Set[str]] = {}
        self._by_asn: Dict[int, Set[str]] = {}
        self._by_type: Dict[str, Set[str]] = {}
        self._by_state: Dict[str, Set[str]] = {}
        #: Highest journal watermark applied (None = empty store).
        self.watermark: Optional[float] = None
        self.load()

    def _clear(self) -> None:
        self._events.clear()
        self._by_prefix.clear()
        self._by_asn.clear()
        self._by_type.clear()
        self._by_state.clear()
        self.watermark = None

    def reset(self) -> None:
        """Empty the store and truncate its journal.

        The pipeline calls this before regenerating the store from the
        archive's durable segments (attach-time sync): detectors are
        deterministic, so replay rebuilds exactly the journal a crash
        may have torn, and starting from empty makes the regenerated
        journal byte-identical to an uninterrupted run's.
        """
        with self._lock:
            self._clear()
            if self._journal is not None:
                self._journal.reset()

    # -- loading and tailing -------------------------------------------------

    def load(self, truncate_beyond: Optional[float] = None) -> int:
        """(Re)load the journal from scratch; returns records dropped
        (the truncate / torn-tail contract is
        :meth:`~repro.guard.integrity.SealedJournal.load`)."""
        with self._lock:
            self._clear()
            if self._journal is None:
                return 0
            records, dropped = self._journal.load(truncate_beyond)
            for record in records:
                self._apply_record(record)
            return dropped

    def refresh(self) -> List[str]:
        """Apply journal records appended since the last read.

        Lets a serving process follow a collector writing the same
        journal.  Returns the ids of events that changed.
        """
        with self._lock:
            if self._journal is None:
                return []
            records = self._journal.tail()
            if records is None:
                # Journal was rewritten (recovery truncation): reload.
                before = set(self._events)
                self.load()
                return sorted(before | set(self._events))
            changed = [self._apply_record(record) for record in records]
            return [event_id for event_id in changed
                    if event_id is not None]

    def _apply_record(self, record: dict) -> Optional[str]:
        if record.get("op") != "upsert":
            return None
        event = Event.from_json(record["event"])
        watermark = record.get("watermark")
        if watermark is not None:
            self.watermark = max(self.watermark or watermark, watermark)
        self._index(event)
        return event.id

    # -- mutation (pipeline side) -------------------------------------------

    def apply(self, event: Event, watermark: float) -> None:
        """Upsert one event as of segment watermark ``watermark``."""
        with self._lock:
            self._index(event)
            self.watermark = max(self.watermark or watermark, watermark)
            if self._journal is not None:
                # Sealed with its own CRC so a flipped byte on disk is
                # caught at load time (sealing is deterministic, so
                # journals stay byte-identical across replays).
                self._journal.append({
                    "op": "upsert",
                    "watermark": watermark,
                    "event": event.to_json(full=True),
                })

    def _index(self, event: Event) -> None:
        previous = self._events.get(event.id)
        if previous is not None:
            self._unindex(previous)
        self._events[event.id] = event
        if event.prefix is not None:
            self._by_prefix.setdefault(event.prefix, set()).add(event.id)
        for detection in event.evidence:
            if detection.prefix is not None:
                self._by_prefix.setdefault(detection.prefix,
                                           set()).add(event.id)
        for asn in event.asns:
            self._by_asn.setdefault(asn, set()).add(event.id)
        for etype in (event.types or [event.type]):
            self._by_type.setdefault(etype, set()).add(event.id)
        self._by_state.setdefault(event.state, set()).add(event.id)

    def _unindex(self, event: Event) -> None:
        for index in (self._by_prefix, self._by_type, self._by_state):
            for ids in index.values():
                ids.discard(event.id)
        for ids in self._by_asn.values():
            ids.discard(event.id)

    # -- reads (API / CLI side) ---------------------------------------------

    def get(self, event_id: str) -> Optional[Event]:
        with self._lock:
            return self._events.get(event_id)

    def events(self) -> List[Event]:
        """Every event, in first-seen order (id order breaks ties)."""
        with self._lock:
            return sorted(self._events.values(),
                          key=lambda e: (e.first_seen, e.id))

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def query(self, type: Optional[str] = None,
              prefix: Optional[str] = None,
              origin: Optional[int] = None,
              start: Optional[float] = None,
              end: Optional[float] = None,
              state: Optional[str] = None,
              limit: Optional[int] = None) -> List[Event]:
        """Filtered lookup with index pushdown.

        ``type``, ``prefix``, ``origin`` and ``state`` each narrow the
        candidate set through an index before any event is examined;
        the time range keeps events whose [first_seen, last_seen]
        span intersects ``[start, end)``.
        """
        if type is not None and type not in EVENT_TYPES:
            raise ValueError(f"unknown event type {type!r} "
                             f"(expected one of {list(EVENT_TYPES)})")
        if state is not None and state not in EventState.ALL:
            raise ValueError(f"unknown state {state!r} "
                             f"(expected one of {list(EventState.ALL)})")
        with self._lock:
            candidates: Optional[Set[str]] = None
            for index, key in ((self._by_type, type),
                               (self._by_prefix, prefix),
                               (self._by_asn, origin),
                               (self._by_state, state)):
                if key is None:
                    continue
                ids = index.get(key, set())
                candidates = set(ids) if candidates is None \
                    else candidates & ids
                if not candidates:
                    return []
            pool = (self._events.values() if candidates is None
                    else [self._events[i] for i in candidates])
            hits = [
                event for event in pool
                if (start is None or event.last_seen >= start)
                and (end is None or event.first_seen < end)
            ]
            hits.sort(key=lambda e: (e.first_seen, e.id))
            if limit is not None:
                hits = hits[:limit]
            return hits

    def open_counts(self) -> Dict[str, int]:
        """Unresolved events per type (every known type reported, so
        gauges drop back to zero when incidents resolve)."""
        with self._lock:
            counts = {etype: 0 for etype in EVENT_TYPES}
            for event in self._events.values():
                if event.is_open:
                    counts[event.type] = counts.get(event.type, 0) + 1
            return counts

    def state_counts(self) -> Dict[str, int]:
        with self._lock:
            return {state: len(self._by_state.get(state, ()))
                    for state in EventState.ALL}

    # -- comparison (chaos tests) -------------------------------------------

    def snapshot_comparable(self) -> List[dict]:
        """A canonical value equal across runs that produced the same
        events — the identity the crash-recovery tests assert."""
        with self._lock:
            return [event.to_json(full=True) for event in self.events()]
