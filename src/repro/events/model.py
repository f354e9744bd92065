"""The event-intelligence data model: detections and incidents.

A :class:`Detection` is one detector's raw observation inside one
sealed archive segment ("a new AS link scored 0.8 suspicious", "prefix
P now has two active origins").  The correlator folds detections into
:class:`Event` incidents: detections sharing an identity key — or
hitting the same prefix while an incident is open — merge into one
event that accumulates detectors, implicated ASNs and VPs, and walks
the NEW → ONGOING → RESOLVED lifecycle (BEAR-style, see PAPERS.md).

Everything here is JSON-round-trippable: events are served verbatim
by the ``/events`` API, and the :class:`~repro.events.store.EventStore`
journals each incident as a chain of deltas — :func:`journal_delta`
encodes one, :func:`replay_delta` applies one — in the same field
format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Every event type a detector can emit, in exposition order.  The
#: telemetry gauge family publishes one child per type, so the set is
#: closed on purpose — new detectors register their type here.
EVENT_TYPES: Tuple[str, ...] = (
    "origin_hijack",
    "subprefix_hijack",
    "moas",
    "mass_withdrawal",
    "flap_storm",
    # Emitted by repro.guard when a sealed segment fails checksum
    # verification and is quarantined — an operator-facing incident,
    # not a routing anomaly.
    "integrity",
)

#: The routing anomalies: every type a detector (not repro.guard) emits.
ROUTING_EVENT_TYPES: Tuple[str, ...] = tuple(
    etype for etype in EVENT_TYPES if etype != "integrity")


class EventState:
    """Incident lifecycle states (stored as plain strings)."""

    NEW = "new"            # first evidence, one segment old
    ONGOING = "ongoing"    # evidence from more than one segment
    RESOLVED = "resolved"  # explicitly closed and past the quiet period

    ALL: Tuple[str, ...] = (NEW, ONGOING, RESOLVED)


@dataclass(frozen=True)
class Detection:
    """One detector observation within one sealed segment.

    ``key`` is the detection's identity *within its detector* (the
    same incident re-observed later carries the same key, which is how
    continuing evidence finds its open event).  ``closes`` marks the
    explicit end of a lifecycle incident (a MOAS conflict collapsing
    back to one origin, a flap-storm penalty decaying below reuse);
    ``lifecycle=False`` declares that this detector never emits an
    explicit close (origin-hijack evidence simply stops when the
    forged path is withdrawn), so its keys must not gate resolution.
    ``extra`` carries detector-specific payload (the suspicious link,
    the conflicting origin set, burst counts) into reports and APIs.
    """

    detector: str
    type: str
    key: Tuple
    time: float
    prefix: Optional[str] = None
    vps: Tuple[str, ...] = ()
    asns: Tuple[int, ...] = ()
    score: float = 1.0
    closes: bool = False
    lifecycle: bool = True
    summary: str = ""
    extra: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.type not in EVENT_TYPES:
            raise ValueError(f"unknown event type {self.type!r}")

    @property
    def key_id(self) -> str:
        """The (detector, key) identity as a stable string."""
        return f"{self.detector}:{json.dumps(self.key, sort_keys=True)}"

    def to_json(self) -> dict:
        return {
            "detector": self.detector,
            "type": self.type,
            "key": list(self.key),
            "time": self.time,
            "prefix": self.prefix,
            "vps": list(self.vps),
            "asns": list(self.asns),
            "score": round(self.score, 6),
            "closes": self.closes,
            "lifecycle": self.lifecycle,
            "summary": self.summary,
            "extra": self.extra,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Detection":
        return cls(
            detector=doc["detector"],
            type=doc["type"],
            key=tuple(doc["key"]),
            time=doc["time"],
            prefix=doc.get("prefix"),
            vps=tuple(doc.get("vps", ())),
            asns=tuple(doc.get("asns", ())),
            score=doc.get("score", 1.0),
            closes=doc.get("closes", False),
            lifecycle=doc.get("lifecycle", True),
            summary=doc.get("summary", ""),
            extra=dict(doc.get("extra", {})),
        )


#: Keep at most this many evidence detections per event; beyond it the
#: oldest *interior* evidence is dropped (first and last are pinned so
#: the timeline keeps its endpoints).
MAX_EVIDENCE = 32


def _append_capped(evidence: List[Detection], detection: Detection) -> int:
    """Append under the :data:`MAX_EVIDENCE` cap; returns how many
    items it dropped (0 or 1)."""
    evidence.append(detection)
    if len(evidence) > MAX_EVIDENCE:
        # Pin the endpoints, drop the oldest interior evidence.
        del evidence[1]
        return 1
    return 0


@dataclass
class Event:
    """One correlated incident, as stored and served.

    ``open_keys`` lists the (detector, key) identities that opened a
    lifecycle and have not explicitly closed yet; an event can only
    resolve once it is empty.  The list is persisted so a recovered
    store can rebuild the correlator's open-incident index exactly.
    """

    id: str
    type: str
    state: str
    first_seen: float
    last_seen: float
    prefix: Optional[str] = None
    resolved_at: Optional[float] = None
    detectors: List[str] = field(default_factory=list)
    types: List[str] = field(default_factory=list)
    asns: List[int] = field(default_factory=list)
    vps: List[str] = field(default_factory=list)
    score: float = 0.0
    segments: int = 0
    evidence: List[Detection] = field(default_factory=list)
    evidence_dropped: int = 0
    open_keys: List[str] = field(default_factory=list)

    # -- mutation (correlator side) -----------------------------------------

    def absorb(self, detection: Detection) -> None:
        """Fold one detection's facts into this event."""
        self.last_seen = max(self.last_seen, detection.time)
        self.first_seen = min(self.first_seen, detection.time)
        if detection.detector not in self.detectors:
            self.detectors.append(detection.detector)
        if detection.type not in self.types:
            self.types.append(detection.type)
        for asn in detection.asns:
            if asn not in self.asns:
                self.asns.append(asn)
        for vp in detection.vps:
            if vp not in self.vps:
                self.vps.append(vp)
        self.score = max(self.score, detection.score)
        self.evidence_dropped += _append_capped(self.evidence, detection)

    @property
    def evidence_count(self) -> int:
        """Detections ever absorbed, the capped-away ones included."""
        return len(self.evidence) + self.evidence_dropped

    @property
    def is_open(self) -> bool:
        return self.state != EventState.RESOLVED

    @property
    def duration_s(self) -> float:
        end = self.resolved_at if self.resolved_at is not None \
            else self.last_seen
        return max(0.0, end - self.first_seen)

    # -- serialization -------------------------------------------------------

    def to_json(self, full: bool = True) -> dict:
        doc = {
            "id": self.id,
            "type": self.type,
            "state": self.state,
            "prefix": self.prefix,
            "first_seen": self.first_seen,
            "last_seen": self.last_seen,
            "resolved_at": self.resolved_at,
            "detectors": list(self.detectors),
            "types": list(self.types),
            "asns": list(self.asns),
            "vps": list(self.vps),
            "score": round(self.score, 6),
            "segments": self.segments,
            "evidence_count": self.evidence_count,
        }
        if full:
            doc["evidence"] = [d.to_json() for d in self.evidence]
            doc["evidence_dropped"] = self.evidence_dropped
            doc["open_keys"] = list(self.open_keys)
        return doc

    def journal_fields(self) -> Dict[str, Any]:
        """The fields a journal line replaces when present: every
        ``to_json(full=True)`` value but ``id`` (which names the
        incident), the derived ``evidence_count`` and the evidence."""
        doc = self.to_json(full=False)
        del doc["id"], doc["evidence_count"]
        doc["evidence_dropped"] = self.evidence_dropped
        doc["open_keys"] = list(self.open_keys)
        return doc


def _same(a: Any, b: Any) -> bool:
    # 1 == 1.0 == True, but they journal (and serve) as different text.
    return type(a) is type(b) and a == b


def journal_delta(previous: Optional[Event], event: Event) -> dict:
    """The journal body that turns ``previous`` — the store's copy of
    the incident, None before its first line — into ``event``.

    ``event`` must have grown from ``previous`` by :meth:`Event.absorb`
    (the correlator's contract), so its new evidence is the tail the
    difference in :attr:`~Event.evidence_count` names; only the
    survivors of the cap are journaled, as ``evidence_added``.  A
    first line carries every field; later ones only the fields that
    :func:`replay_delta` would not already reproduce.
    """
    fields = event.journal_fields()
    if previous is None:
        doc, added = fields, event.evidence
    else:
        new = event.evidence_count - previous.evidence_count
        # The pinned first item is only new to an incident without one.
        start = max(len(event.evidence) - new, 1 if previous.evidence else 0)
        added = event.evidence[start:]
        before = previous.journal_fields()
        before["evidence_dropped"] += max(
            0, len(previous.evidence) + len(added) - MAX_EVIDENCE)
        doc = {name: value for name, value in fields.items()
               if not _same(before[name], value)}
    doc["id"] = event.id
    if added:
        doc["evidence_added"] = [d.to_json() for d in added]
    return doc


def replay_delta(previous: Optional[Event], doc: dict) -> Event:
    """Apply one journal body to ``previous`` (None before the
    incident's first line), returning a new :class:`Event` and leaving
    ``previous`` as it was — readers may still hold it.

    Each ``evidence_added`` item is appended, oldest first, under the
    cap rule :meth:`Event.absorb` applies; then every field present
    replaces the stored one.  Fields replace after the appends, so a
    journaled ``evidence_dropped`` stays exact when the cap discarded
    detections the journal never saw, and a full ``evidence`` list (a
    line written before journals held deltas) is one more field.
    """
    if previous is None:
        previous = Event(id=doc["id"], type=doc["type"], state=doc["state"],
                         first_seen=doc["first_seen"],
                         last_seen=doc["last_seen"])
    evidence = list(previous.evidence)
    fields = previous.journal_fields()
    for item in doc.get("evidence_added", ()):
        fields["evidence_dropped"] += _append_capped(
            evidence, Detection.from_json(item))
    if "evidence" in doc:
        evidence = [Detection.from_json(item) for item in doc["evidence"]]
    fields.update({name: doc[name] for name in fields if name in doc})
    return Event(id=previous.id, evidence=evidence, **fields)


def sort_detections(detections: Sequence[Detection]) -> List[Detection]:
    """Deterministic processing order for one segment's detections.

    Closings sort after openings at the same instant so a storm that
    re-opens within a segment never closes its successor by accident.
    """
    return sorted(detections,
                  key=lambda d: (d.time, d.closes, d.detector, d.key_id))
