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
format.  A journal holds only what replay cannot recompute: each
detector's :data:`DERIVATIONS` function gives a detection's ``type``,
``lifecycle``, ``key``, ``asns`` and ``summary`` from its stored
facts, the detectors build their detections through it, and the
writer leaves out whatever :meth:`Detection.from_json` gives back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

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

    @classmethod
    def derived(cls, detector: str, time: float, *, extra: Dict[str, Any],
                prefix: Optional[str] = None, vps: Sequence[str] = (),
                score: float = 1.0, closes: bool = False,
                **inputs: Any) -> "Detection":
        """A detection whose derived fields come from ``detector``'s
        :data:`DERIVATIONS` function, the one replay runs.  ``inputs``
        are what only the detector knows (an unrounded penalty, the
        segment bounds); replay derives without them."""
        return cls(detector=detector, time=time, prefix=prefix,
                   vps=tuple(vps), score=score, closes=closes, extra=extra,
                   **DERIVATIONS[detector](
                       time=time, prefix=prefix, vps=vps, score=score,
                       closes=closes, extra=extra, **inputs))

    @cached_property
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
    def from_json(cls, doc: dict, context: Optional["Event"] = None
                  ) -> "Detection":
        """The detection a journal item describes.  ``context`` is the
        incident the item belongs to; an absent field comes from it or
        from the item's other fields:

        * ``detector`` — the one that emits the incident's type;
        * ``prefix`` — the incident's prefix;
        * ``vps``, ``score``, ``closes``, ``extra`` — the defaults;
        * ``type``, ``lifecycle``, ``key``, ``asns``, ``summary`` —
          what the detector's :data:`DERIVATIONS` function gives from
          the facts above (the defaults for a detector without one).
        """
        facts = _absent_facts(context)
        facts.update((name, doc[name]) for name in _FACTS if name in doc)
        detector = facts.pop("detector")
        if detector is None:
            raise ValueError("journal item names no detector")
        facts.update(time=doc["time"], vps=tuple(facts["vps"]),
                     extra=dict(facts["extra"]))
        derived = {name: doc[name] for name in DERIVED_FIELDS
                   if name in doc}
        if len(derived) < len(DERIVED_FIELDS):
            derive = DERIVATIONS.get(detector)
            derived = {"lifecycle": True, "asns": (), "summary": "",
                       **(derive(**facts) if derive is not None else {}),
                       **derived}
        return cls(detector=detector, type=derived["type"],
                   key=tuple(derived["key"]), asns=tuple(derived["asns"]),
                   lifecycle=derived["lifecycle"],
                   summary=derived["summary"], **facts)


#: The item fields a detection's derivation function computes.
DERIVED_FIELDS: Tuple[str, ...] = ("type", "lifecycle", "key", "asns",
                                   "summary")

#: The item fields it computes them from, besides ``time`` (which is
#: always journaled).
_FACTS: Tuple[str, ...] = ("detector", "prefix", "vps", "score", "closes",
                           "extra")

#: The detector whose detections open incidents of each type.
DETECTOR_OF_TYPE: Dict[str, str] = {
    "origin_hijack": "origin_hijack",
    "subprefix_hijack": "subprefix",
    "moas": "moas",
    "mass_withdrawal": "mass_withdrawal",
    "flap_storm": "flap_storm",
    "integrity": "guard",
}


def _absent_facts(context: Optional["Event"]) -> Dict[str, Any]:
    """The JSON value :meth:`Detection.from_json` takes for each fact
    an item leaves out."""
    return {"detector": (DETECTOR_OF_TYPE.get(context.type)
                         if context is not None else None),
            "prefix": context.prefix if context is not None else None,
            "vps": [], "score": 1.0, "closes": False, "extra": {}}


# -- derivation functions: one per detector ---------------------------------
#
# Each takes a detection's facts (``time``, ``prefix``, ``vps``,
# ``score``, ``closes``, ``extra``) as keywords and returns its derived
# fields.  It may take inputs only the detector has; replay calls it
# without them, and a field it then cannot give is journaled.

def derive_origin_hijack(prefix: str, score: float, extra: dict,
                         **_: Any) -> dict:
    link, origin = extra["link"], extra["origin"]
    return {"type": "origin_hijack", "lifecycle": False,
            "key": (list(link), prefix),
            "asns": tuple(sorted({*link} | ({origin} if origin else set()))),
            "summary": (f"implausible new link AS{link[0]}-AS{link[1]} "
                        f"announcing {prefix} (suspicion {score:.2f})")}


def derive_subprefix(prefix: str, closes: bool, extra: dict,
                     **_: Any) -> dict:
    attacker, victim = extra["attacker"], extra["victim"]
    verb = "withdrawn everywhere" if closes else "announced"
    return {"type": "subprefix_hijack", "lifecycle": True,
            "key": (prefix, attacker), "asns": (attacker, victim),
            "summary": (f"more-specific {prefix} of {extra['covering']} "
                        f"(AS{victim}) {verb} by AS{attacker}")}


def derive_moas(prefix: str, closes: bool, extra: dict, **_: Any) -> dict:
    origins = extra["origins"]
    state = "resolved to " + (f"AS{origins[0]}" if origins
                              else "none") if closes \
        else "between " + ", ".join(f"AS{o}" for o in origins)
    return {"type": "moas", "lifecycle": True, "key": (prefix,),
            "asns": tuple(origins),
            "summary": f"MOAS conflict on {prefix} {state}"}


def derive_mass_withdrawal(time: float, vps: Sequence[str], closes: bool,
                           extra: dict,
                           segment: Optional[Tuple[float, float]] = None,
                           baseline: Optional[float] = None,
                           **_: Any) -> dict:
    count = extra["withdrawals"]
    derived = {"type": "mass_withdrawal", "lifecycle": True,
               "key": ("withdrawal-burst",), "asns": ()}
    if closes:
        derived["summary"] = (f"withdrawal rate back to {count}/segment "
                              f"at {time:.0f}")
    elif segment is not None:
        # A burst's segment bounds and unrounded baseline are not among
        # its facts: replay cannot give its summary.
        start, end = segment
        derived["summary"] = (
            f"{count} withdrawals over {extra['prefixes']} prefixes from "
            f"{len(vps)} VPs in segment [{start:.0f}, {end:.0f}) "
            f"(baseline {baseline:.1f}/segment)")
    return derived


def derive_flap_storm(prefix: str, closes: bool, extra: dict,
                      penalty: Optional[float] = None, **_: Any) -> dict:
    if penalty is None:
        penalty = extra["penalty"]
    verb = ("penalty decayed to" if closes
            else "penalty crossed suppress at")
    return {"type": "flap_storm", "lifecycle": True, "key": (prefix,),
            "asns": (),
            "summary": f"flap storm on {prefix}: {verb} {penalty:.2f}"}


def derive_guard(extra: dict, **_: Any) -> dict:
    name, reason = extra["segment"], extra["reason"]
    return {"type": "integrity", "lifecycle": False, "key": (name, reason),
            "asns": (), "summary": f"segment {name} quarantined ({reason})"}


#: Detector name → its derivation function.
DERIVATIONS: Dict[str, Callable[..., dict]] = {
    "origin_hijack": derive_origin_hijack,
    "subprefix": derive_subprefix,
    "moas": derive_moas,
    "mass_withdrawal": derive_mass_withdrawal,
    "flap_storm": derive_flap_storm,
    "guard": derive_guard,
}


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
    """Equal as JSON text: 1, 1.0 and True compare equal in Python but
    journal (and serve) differently, inside lists and dicts too."""
    if type(a) is not type(b) or a != b:
        return False
    if type(a) is list:
        types = list(map(type, a))
        return types == list(map(type, b)) and (
            (list not in types and dict not in types)
            or all(map(_same, a, b)))
    if type(a) is dict:
        return all(_same(value, b[name]) for name, value in a.items())
    return True


def journal_item(detection: Detection, context: Event
                 ) -> Tuple[dict, Detection]:
    """The journal item for ``detection`` on incident ``context``, and
    the detection replay will read back from it.

    A field is left out only when :meth:`Detection.from_json` gives
    back its ``to_json()`` value.  Facts are settled first (their
    absent values depend on the incident alone), so the derived fields
    are judged from exact facts; a detection not shaped like its
    detector's own (a derivation that fails on it) keeps them all.
    """
    full = detection.to_json()
    absent = _absent_facts(context)
    item = {name: full[name] for name in _FACTS
            if not _same(absent[name], full[name])}
    item["time"] = full["time"]
    try:
        replayed = Detection.from_json(item, context)
    except (KeyError, IndexError, TypeError, ValueError):
        replayed = None
    rendered = replayed.to_json() if replayed is not None else {}
    kept = {name: full[name] for name in DERIVED_FIELDS
            if not (name in rendered and _same(rendered[name], full[name]))}
    if kept or replayed is None:
        item.update(kept)
        replayed = Detection.from_json(item, context)
    return item, replayed


#: Event fields a first line always carries: replay opens the incident
#: from them.
_OPENING: Tuple[str, ...] = ("type", "state", "first_seen")


def _opening(doc: dict) -> Event:
    """An incident as its first line opens it, before any evidence."""
    return Event(id=doc["id"], type=doc["type"], state=doc["state"],
                 first_seen=doc["first_seen"], last_seen=doc["first_seen"])


def _copy(event: Event) -> Event:
    return Event(id=event.id, evidence=list(event.evidence),
                 **event.journal_fields())


def journal_delta(previous: Optional[Event], event: Event
                  ) -> Tuple[dict, Event]:
    """The journal body that turns ``previous`` — the store's copy of
    the incident, None before its first line — into ``event``, and the
    new copy :func:`replay_delta` makes of ``previous`` and that body.

    ``event`` must have grown from ``previous`` by :meth:`Event.absorb`
    (the correlator's contract), so its new evidence is the tail the
    difference in :attr:`~Event.evidence_count` names; only the
    survivors of the cap are journaled, as ``evidence_added``, each
    through :func:`journal_item`.  The writer folds those items into
    its copy exactly as :func:`replay_delta` will, and writes a field
    only when its value or type differs from the fold's: ``last_seen``,
    ``asns``, ``vps``, ``detectors``, ``types`` and ``score`` appear
    only when a detection the cap hid moved them.  The fold with the
    written fields replaced is what replay returns, so it is returned
    as the new copy instead of being replayed a second time.
    """
    fields = event.journal_fields()
    if previous is None:
        replayed, added = _opening(dict(fields, id=event.id)), event.evidence
    else:
        new = event.evidence_count - previous.evidence_count
        # The pinned first item is only new to an incident without one.
        start = max(len(event.evidence) - new, 1 if previous.evidence else 0)
        replayed, added = _copy(previous), event.evidence[start:]
    items = []
    for detection in added:
        item, read_back = journal_item(detection, event)
        items.append(item)
        replayed.absorb(read_back)
    before = replayed.journal_fields()
    doc = {name: value for name, value in fields.items()
           if not _same(before[name], value)}
    if previous is None:
        doc.update((name, fields[name]) for name in _OPENING)
    doc["id"] = event.id
    if items:
        doc["evidence_added"] = items
    _replace_fields(replayed, doc)
    return doc, replayed


def replay_delta(previous: Optional[Event], doc: dict) -> Event:
    """Apply one journal body to ``previous`` (None before the
    incident's first line), returning a new :class:`Event` and leaving
    ``previous`` as it was — readers may still hold it.

    Each ``evidence_added`` item is read in the context of the
    incident's type and prefix as this line leaves them, and folded in,
    oldest first, by :meth:`Event.absorb` (the cap rule included); then
    every field present replaces the stored one.  Fields replace after
    the fold, so a journaled ``evidence_dropped`` stays exact when the
    cap discarded detections the journal never saw, and lines that
    carry every field — a full ``evidence`` list before journals held
    deltas, whole evidence items before they left derived fields out —
    load through the same path.
    """
    event = _opening(doc) if previous is None else _copy(previous)
    for name in ("type", "prefix"):
        if name in doc:
            setattr(event, name, doc[name])
    for item in doc.get("evidence_added", ()):
        event.absorb(Detection.from_json(item, event))
    if "evidence" in doc:
        event.evidence = [Detection.from_json(item)
                          for item in doc["evidence"]]
    _replace_fields(event, doc)
    return event


def _replace_fields(event: Event, doc: dict) -> None:
    for name in event.journal_fields():
        if name in doc:
            setattr(event, name, doc[name])


def sort_detections(detections: Sequence[Detection]) -> List[Detection]:
    """Deterministic processing order for one segment's detections.

    Closings sort after openings at the same instant so a storm that
    re-opens within a segment never closes its successor by accident.
    """
    return sorted(detections,
                  key=lambda d: (d.time, d.closes, d.detector, d.key_id))
