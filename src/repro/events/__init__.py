"""repro.events — continuous BEAR-style event intelligence (ISSUE 6).

The paper frames next-generation collection platforms as substrate
for *monitoring products*; this package is that product layer.  It
subscribes to the archive's seal hook and turns every sealed segment
into incident intelligence, live:

* :mod:`repro.events.detectors` — five incremental detectors
  (origin-hijack via streaming DFOH, sub-prefix hijack, MOAS
  conflict, mass-withdrawal burst, flap storm with penalty decay);
* :mod:`repro.events.pipeline` — the seal-hook consumer and the
  correlator that merges detections into NEW → ONGOING → RESOLVED
  incidents;
* :mod:`repro.events.store` — the crash-recoverable JSONL-journaled
  event store with prefix/ASN/type/state indexes;
* :mod:`repro.events.report` — incident reports for the
  ``repro-bgp events`` CLI.

Served at ``GET /events`` by ``repro-bgp serve``; metered under the
``repro_events_*`` families.  See docs/EVENTS.md.
"""

from .detectors import (
    FlapStormDetector,
    MassWithdrawalDetector,
    MOASStreamDetector,
    OriginHijackStreamDetector,
    StreamingDetector,
    SubPrefixStreamDetector,
    default_detectors,
)
from .model import EVENT_TYPES, ROUTING_EVENT_TYPES, Detection, Event, \
    EventState, sort_detections
from .pipeline import DEFAULT_RESOLVE_AFTER_S, EventCorrelator, \
    EventPipeline
from .report import render_event_report, render_event_table, \
    render_store_summary
from .store import JOURNAL_NAME, EventStore, journal_path_for

__all__ = [
    "DEFAULT_RESOLVE_AFTER_S",
    "Detection",
    "EVENT_TYPES",
    "Event",
    "EventCorrelator",
    "EventPipeline",
    "EventState",
    "EventStore",
    "FlapStormDetector",
    "JOURNAL_NAME",
    "MOASStreamDetector",
    "MassWithdrawalDetector",
    "OriginHijackStreamDetector",
    "ROUTING_EVENT_TYPES",
    "StreamingDetector",
    "SubPrefixStreamDetector",
    "default_detectors",
    "journal_path_for",
    "render_event_report",
    "render_event_table",
    "render_store_summary",
    "sort_detections",
]
