"""The standing event pipeline: seal hook → detectors → correlator.

:class:`EventPipeline` subscribes to an archive's seal hook
(:meth:`~repro.bgp.archive.RollingArchiveWriter.add_seal_listener`)
and, for every sealed segment, replays the segment's updates through
the streaming detectors, correlates the resulting detections into
incidents, and upserts changed events into the
:class:`~repro.events.store.EventStore` — all on the archive writer's
thread, so events are queryable the moment the segment that produced
them is durable.

:class:`EventCorrelator` owns incident identity:

* continuing evidence — a detection whose ``(detector, key)`` matches
  an open event extends that event;
* cross-detector merge — a detection on a prefix another incident is
  already open on joins that incident (one route leak showing up as a
  MOAS conflict *and* a flap storm is one event with two types);
* lifecycle — events start NEW, turn ONGOING once a second segment
  contributes evidence, and RESOLVE once every lifecycle key has
  explicitly closed *and* ``resolve_after_s`` of stream time has
  passed with no new evidence (resolution is judged against seal
  watermarks, never wall clock, so replays are deterministic).

Crash recovery is replay: :meth:`EventPipeline.attach` resets the
store and regenerates it from the archive's durable segments before
subscribing.  Detectors and the correlator are deterministic functions
of the segment sequence, so an interrupted run that recovers and
resumes converges on a store byte-identical to an uninterrupted run
(the chaos tests assert exactly this) — and so does
:meth:`EventPipeline.sync` over the sealed segments of an archive that
was collected without the pipeline (``repro-bgp serve --events``).
"""

from __future__ import annotations

import time as time_mod
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..bgp.archive import ArchiveSegment, RollingArchiveWriter
from ..bgp.message import BGPUpdate
from ..bgp.mrt import iter_archive
from ..guard.integrity import verify_file
from ..telemetry import MetricsRegistry
from .detectors import StreamingDetector, default_detectors
from .model import Detection, Event, EventState, sort_detections
from .store import EventStore

#: Stream seconds an incident must stay quiet before it resolves.
DEFAULT_RESOLVE_AFTER_S = 600.0


class EventCorrelator:
    """Folds per-segment detections into lifecycle-tracked events."""

    def __init__(self, resolve_after_s: float = DEFAULT_RESOLVE_AFTER_S):
        self.resolve_after_s = resolve_after_s
        self._seq = 0
        #: Open (unresolved) events by id.
        self._open: Dict[str, Event] = {}
        #: Every correlation key of an open event → its event id.
        self._key_to_event: Dict[str, str] = {}
        #: Prefix of an open event → its event id (cross-detector merge).
        self._prefix_to_event: Dict[str, str] = {}

    def _new_id(self) -> str:
        self._seq += 1
        return f"ev-{self._seq:06d}"

    def process(self, detections: Sequence[Detection], watermark: float
                ) -> Tuple[List[Event], List[Event], List[Event]]:
        """Correlate one segment's detections as of seal ``watermark``.

        Returns ``(changed, opened, resolved)``: every event touched
        this segment (for journaling), the subset newly created, and
        the subset that resolved.  Called for *every* sealed segment —
        with an empty detection list it still advances resolution.
        """
        changed: Dict[str, Event] = {}
        opened: List[Event] = []
        evidenced: Set[str] = set()
        for detection in sort_detections(detections):
            event: Optional[Event] = None
            known = self._key_to_event.get(detection.key_id)
            if known is not None:
                event = self._open.get(known)
            if event is None and detection.closes:
                # A close for an incident that already resolved (or
                # never opened): nothing to attribute it to.
                continue
            if event is None and detection.prefix is not None:
                merged = self._prefix_to_event.get(detection.prefix)
                if merged is not None:
                    event = self._open.get(merged)
            if event is None:
                event = Event(
                    id=self._new_id(), type=detection.type,
                    state=EventState.NEW,
                    first_seen=detection.time,
                    last_seen=detection.time,
                    prefix=detection.prefix,
                )
                self._open[event.id] = event
                opened.append(event)
            event.absorb(detection)
            self._key_to_event[detection.key_id] = event.id
            if detection.prefix is not None:
                self._prefix_to_event.setdefault(detection.prefix,
                                                 event.id)
            if detection.lifecycle:
                if detection.closes:
                    if detection.key_id in event.open_keys:
                        event.open_keys.remove(detection.key_id)
                elif detection.key_id not in event.open_keys:
                    event.open_keys.append(detection.key_id)
            evidenced.add(event.id)
            changed[event.id] = event
        for event_id in evidenced:
            event = self._open[event_id]
            event.segments += 1
            if event.state == EventState.NEW and event.segments > 1:
                event.state = EventState.ONGOING
        resolved = self._sweep_resolved(watermark)
        for event in resolved:
            changed[event.id] = event
        return ([changed[i] for i in sorted(changed)], opened, resolved)

    def _sweep_resolved(self, watermark: float) -> List[Event]:
        """Resolve open events whose lifecycle keys all closed and
        whose quiet period has elapsed at this watermark."""
        resolved: List[Event] = []
        for event_id in sorted(self._open):
            event = self._open[event_id]
            if event.open_keys:
                continue
            if watermark - event.last_seen < self.resolve_after_s:
                continue
            event.state = EventState.RESOLVED
            event.resolved_at = event.last_seen
            resolved.append(event)
        for event in resolved:
            del self._open[event.id]
            for key, owner in list(self._key_to_event.items()):
                if owner == event.id:
                    del self._key_to_event[key]
            for prefix, owner in list(self._prefix_to_event.items()):
                if owner == event.id:
                    del self._prefix_to_event[prefix]
        return resolved


class EventPipeline:
    """Standing segment consumer feeding an :class:`EventStore`.

    The detector set and the resolve window are not configurable: a
    journal is a function of the segment sequence alone, which is what
    lets any process regenerate it byte for byte.
    """

    def __init__(self, store: Optional[EventStore] = None,
                 registry: Optional[MetricsRegistry] = None):
        self.store = store if store is not None else EventStore()
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.detectors: List[StreamingDetector] = default_detectors()
        self.correlator = EventCorrelator()
        self._detector_seconds = self.registry.histogram(
            "repro_events_detector_seconds",
            "Per-detector observe() latency per sealed segment",
            labels=["detector"], unit="seconds")
        self._segment_seconds = self.registry.histogram(
            "repro_events_segment_seconds",
            "End-to-end event-pipeline latency per sealed segment",
            unit="seconds")
        self._detections_total = self.registry.counter(
            "repro_events_detections_total",
            "Raw detections emitted, before correlation",
            labels=["detector", "type"])
        self._opened_total = self.registry.counter(
            "repro_events_opened_total",
            "Events opened (NEW) by primary type", labels=["type"])
        self._resolved_total = self.registry.counter(
            "repro_events_resolved_total",
            "Events resolved by primary type", labels=["type"])
        self._open_gauge = self.registry.gauge(
            "repro_events_open",
            "Currently unresolved events by primary type",
            labels=["type"], track_high_water=True)
        self._segments_total = self.registry.counter(
            "repro_events_segments_total",
            "Sealed segments the event pipeline has consumed")

    # -- wiring ---------------------------------------------------------------

    def attach(self, archive: RollingArchiveWriter) -> None:
        """Subscribe to ``archive``'s seal hook, syncing to its
        already-durable segments first (so a resumed collection epoch
        starts from consistent detector/correlator/store state)."""
        self.sync(archive.segments)
        archive.add_seal_listener(self._seal_listener)

    def sync(self, segments: Sequence[ArchiveSegment]) -> int:
        """Regenerate the store by replaying ``segments`` in order.

        This is the collector's own function of the segment sequence:
        the journal it leaves is byte-identical to the one a live
        pipeline attached before the first seal writes for the same
        segments.  Returns the number of segments replayed.  Raises
        when there are no segments but the store has records — that
        means the caller attached a fresh writer object over an
        existing directory without calling ``recover()`` first, and
        wiping the journal would destroy valid events.
        """
        segments = list(segments)
        if not segments and len(self.store):
            raise ValueError(
                "archive reports no segments but the event store has "
                f"{len(self.store)} event(s); recover() the archive "
                "before attaching so the durable segment manifest is "
                "loaded")
        self.detectors = default_detectors()
        self.correlator = EventCorrelator()
        self.store.reset()
        for segment in segments:
            self.process_segment(segment)
        return len(segments)

    def _seal_listener(self, segment: ArchiveSegment,
                       build_s: Optional[float]) -> None:
        self.process_segment(segment)

    # -- per-segment work -----------------------------------------------------

    def process_segment(self, segment: ArchiveSegment,
                        updates: Optional[Sequence[BGPUpdate]] = None
                        ) -> List[Event]:
        """Run one sealed segment through detectors + correlator.

        ``updates`` short-circuits the archive read when the caller
        already has the segment's updates in memory (benchmarks).
        Returns the events changed by this segment.
        """
        started = time_mod.perf_counter()
        if updates is None:
            # Bytes that fail their recorded digests, or are gone
            # (quarantined), are never replayed; a segment without
            # digests relies on the decode-error fallback below.
            if verify_file(segment.path, size=segment.size,
                           crc32=segment.crc32) is not None:
                return []
            try:
                # The writer names a segment for its compression, the
                # same evidence a directory catalog reads.
                updates = [record
                           for record in iter_archive(
                               segment.path,
                               segment.path.endswith(".bz2"))
                           if isinstance(record, BGPUpdate)]
            except Exception:
                # Structurally corrupt despite (or without) digests:
                # skip rather than feed garbage to the detectors.
                return []
        detections: List[Detection] = []
        for detector in self.detectors:
            t0 = time_mod.perf_counter()
            found = detector.observe(updates, segment.start, segment.end)
            self._detector_seconds.labels(detector.name).record(
                time_mod.perf_counter() - t0)
            for detection in found:
                self._detections_total.labels(
                    detector.name, detection.type).inc()
            detections.extend(found)
        changed, opened, resolved = self.correlator.process(
            detections, segment.end)
        for event in changed:
            self.store.apply(event, segment.end)
        for event in opened:
            self._opened_total.labels(event.type).inc()
        for event in resolved:
            self._resolved_total.labels(event.type).inc()
        for etype, count in self.store.open_counts().items():
            self._open_gauge.labels(etype).set(count)
        self._segments_total.inc()
        self._segment_seconds.record(time_mod.perf_counter() - started)
        return changed
