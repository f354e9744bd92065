"""The persistent event store: JSONL journal + in-memory indexes.

Events materialize here as the pipeline correlates detections.  The
on-disk form is an append-only JSONL journal with one line per
incident per segment it changed in, stamped with the archive watermark
of the sealed segment that produced it.  A line is a *delta*: the
incident's id, the fields that changed since its previous line, and
only the detections absorbed since then — each without the fields
replay derives from the rest and from the incident::

    {"op": "upsert", "watermark": 600.0, "crc": "…",
     "event": {"id": "ev-000007", "segments": 2, "state": "ongoing",
               "evidence_added": [{"time": 598.0, "vps": ["vp3"],
                                   "score": 0.8125,
                                   "extra": {"link": [64500, 64511],
                                             "origin": 64511}}]}}

Here the item's detector, prefix, type, key, ASNs and summary, and the
incident's new ``last_seen``, ``vps`` and ``asns``, all follow from
what the line holds (:func:`~repro.events.model.journal_delta` writes
exactly what replay would not reproduce).  An incident's first line
carries its ``type``, ``state`` and ``first_seen``, and every other
field that differs from an empty incident given that evidence.  Replaying
the lines in order (:func:`~repro.events.model.replay_delta`) rebuilds
the store exactly, and :meth:`EventStore.apply` keeps the copy that
same replay makes of the record it journals, so a live store and a
reloaded one are equal.  Lines written in earlier encodings — a full
``evidence`` list, or whole evidence items — carry every field, so
old journals load through the same path.  This gives three properties
for free:

* **restartable serving** — ``repro-bgp serve`` and ``repro-bgp
  events`` load the journal without re-scanning the archive, and
  :meth:`refresh` tails records another process appends;
* **crash recovery** — after an archive crash, records beyond the
  archive's durable watermark describe segments that recovery tore
  away; :meth:`load` truncates them (atomically rewriting the
  journal) and the pipeline regenerates them by replaying the
  re-sealed segments — detectors are deterministic, so the store
  converges to exactly the uninterrupted run's content.  Each
  incident's lines rise in watermark, so a truncated journal replays
  to the store as it stood at that watermark;
* **torn-tail tolerance** — a crash mid-append leaves at most one
  unparseable trailing line, which loading skips (it may be an append
  in progress) and the next append cuts off the file first.

In-memory, events are indexed by id, prefix, ASN, type and state;
:meth:`query` intersects the most selective indexes before filtering,
mirroring the query engine's pushdown style.  The store never shares
an :class:`~repro.events.model.Event` with the correlator, and never
mutates one it has handed out: each upsert replaces the incident.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from ..guard.integrity import SealedJournal
from .model import (EVENT_TYPES, Event, EventState, journal_delta,
                    replay_delta)

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
        #: Index name → key → ids of the events filed under it (no
        #: empty buckets).
        self._indexes: Dict[str, Dict[Any, Set[str]]] = {
            name: {} for name in ("type", "prefix", "asn", "state")}
        #: Highest journal watermark applied (None = empty store).
        self.watermark: Optional[float] = None
        self.load()

    def _clear(self) -> None:
        self._events.clear()
        for index in self._indexes.values():
            index.clear()
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
                # Journal was replaced (recovery truncation): reload.
                before = set(self._events)
                self.load()
                return sorted(before | set(self._events))
            changed = [self._apply_record(record) for record in records]
            return [event_id for event_id in changed
                    if event_id is not None]

    def _apply_record(self, record: dict) -> Optional[str]:
        if record.get("op") != "upsert":
            return None
        doc = record["event"]
        previous = self._events.get(doc["id"])
        self._install(previous, replay_delta(previous, doc),
                      record.get("watermark"))
        return doc["id"]

    def _install(self, previous: Optional[Event], event: Event,
                 watermark: Optional[float]) -> None:
        self._events[event.id] = event
        self._reindex(previous, event)
        if watermark is not None:
            self.watermark = max(self.watermark or watermark, watermark)

    # -- mutation (pipeline side) -------------------------------------------

    def apply(self, event: Event, watermark: float) -> None:
        """Upsert one event as of segment watermark ``watermark``.

        ``event`` must have grown from the one last applied under its
        id by :meth:`~repro.events.model.Event.absorb`; the store keeps
        its own copy (the one replaying the journaled record gives), so
        later changes to ``event`` are invisible until the next call.
        """
        with self._lock:
            previous = self._events.get(event.id)
            doc, replayed = journal_delta(previous, event)
            if self._journal is not None:
                # Sealed with its own CRC so a flipped byte on disk is
                # caught at load time (sealing is deterministic, so
                # journals stay byte-identical across replays).
                self._journal.append({"op": "upsert",
                                      "watermark": watermark,
                                      "event": doc})
            self._install(previous, replayed, watermark)

    @staticmethod
    def _postings(event: Event) -> Iterator[Tuple[str, Any]]:
        """Every ``(index name, key)`` ``event`` is filed under."""
        if event.prefix is not None:
            yield "prefix", event.prefix
        for detection in event.evidence:
            if detection.prefix is not None:
                yield "prefix", detection.prefix
        for asn in event.asns:
            yield "asn", asn
        for etype in (event.types or [event.type]):
            yield "type", etype
        yield "state", event.state

    def _reindex(self, previous: Optional[Event], event: Event) -> None:
        """Move ``event`` from the buckets ``previous`` was filed under
        to its own, touching no other bucket."""
        old = set(self._postings(previous)) if previous is not None \
            else set()
        new = set(self._postings(event))
        for name, key in old - new:
            ids = self._indexes[name][key]
            ids.discard(event.id)
            if not ids:
                del self._indexes[name][key]
        for name, key in new - old:
            self._indexes[name].setdefault(key, set()).add(event.id)

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
            for name, key in (("type", type), ("prefix", prefix),
                              ("asn", origin), ("state", state)):
                if key is None:
                    continue
                ids = self._indexes[name].get(key, set())
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
            return {state: len(self._indexes["state"].get(state, ()))
                    for state in EventState.ALL}

    # -- comparison (chaos tests) -------------------------------------------

    def snapshot_comparable(self) -> List[dict]:
        """A canonical value equal across runs that produced the same
        events — the identity the crash-recovery tests assert."""
        with self._lock:
            return [event.to_json(full=True) for event in self.events()]
