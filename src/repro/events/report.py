"""Human-readable incident reports (the ``repro-bgp events`` CLI).

BEAR's thesis (PAPERS.md) is that raw detections only become useful
once they are narrated: an analyst wants one incident with its
timeline, implicated parties and evidence, not a stream of per-segment
alarms.  :func:`render_event_table` gives the fleet view;
:func:`render_event_report` tells one incident's story.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from .model import Detection, Event, EventState
from .store import EventStore


def _fmt_time(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:,.0f}"


def _fmt_duration(seconds: float) -> str:
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"


_STATE_MARK = {
    EventState.NEW: "●",
    EventState.ONGOING: "◐",
    EventState.RESOLVED: "○",
}


def render_event_table(events: Iterable[Event]) -> str:
    """One line per event: the fleet view."""
    rows = [("ID", "S", "TYPE", "STATE", "PREFIX", "ASNS", "VPS",
             "FIRST", "DUR", "EVID")]
    for event in events:
        asns = ",".join(str(a) for a in event.asns[:3])
        if len(event.asns) > 3:
            asns += f"+{len(event.asns) - 3}"
        rows.append((
            event.id,
            _STATE_MARK.get(event.state, "?"),
            "+".join(event.types) if len(event.types) > 1 else event.type,
            event.state,
            event.prefix or "-",
            asns or "-",
            str(len(event.vps)),
            _fmt_time(event.first_seen),
            _fmt_duration(event.duration_s),
            str(len(event.evidence) + event.evidence_dropped),
        ))
    if len(rows) == 1:
        return "no events"
    widths = [max(len(row[i]) for row in rows)
              for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(width)
                       for cell, width in zip(row, widths)).rstrip()
             for row in rows]
    lines.insert(1, "-" * len(lines[0]))
    return "\n".join(lines)


def _timeline(evidence: List[Detection], dropped: int) -> List[str]:
    lines = []
    for detection in evidence:
        mark = "×" if detection.closes else "•"
        lines.append(f"  {mark} t={detection.time:>10,.0f}  "
                     f"[{detection.detector}] {detection.summary}")
        if dropped and len(lines) == 1:
            lines.append(f"    … {dropped} earlier detection(s) "
                         f"elided …")
    return lines


def render_event_report(event: Event) -> str:
    """The full story of one incident."""
    types = "+".join(event.types) if len(event.types) > 1 else event.type
    header = (f"{event.id}  {types}  [{event.state}]"
              + (f"  {event.prefix}" if event.prefix else ""))
    lines = [header, "=" * len(header)]
    lines.append(f"window     : {_fmt_time(event.first_seen)} → "
                 f"{_fmt_time(event.last_seen)} "
                 f"({_fmt_duration(event.duration_s)})")
    if event.resolved_at is not None:
        lines.append(f"resolved   : {_fmt_time(event.resolved_at)}")
    lines.append(f"detectors  : {', '.join(event.detectors)}")
    if event.asns:
        lines.append("implicated : "
                     + ", ".join(f"AS{a}" for a in event.asns))
    if event.vps:
        shown = ", ".join(event.vps[:8])
        if len(event.vps) > 8:
            shown += f" (+{len(event.vps) - 8} more)"
        lines.append(f"vantage    : {len(event.vps)} VP(s): {shown}")
    lines.append(f"score      : {event.score:.2f}   "
                 f"segments: {event.segments}   "
                 f"evidence: {len(event.evidence) + event.evidence_dropped}")
    if event.open_keys:
        lines.append(f"open keys  : {len(event.open_keys)} "
                     f"(incident still active)")
    recorders = []
    for detection in event.evidence:
        dump = detection.extra.get("flightrecorder")
        if isinstance(dump, str) and dump not in recorders:
            recorders.append(dump)
    if recorders:
        # Quarantine incidents carry the black box that was dumped
        # when they fired; point the operator straight at it.
        lines.append(f"black box  : {', '.join(recorders)} "
                     f"(in the archive directory)")
    lines.append("timeline:")
    lines.extend(_timeline(event.evidence, event.evidence_dropped))
    return "\n".join(lines)


def render_store_summary(store: EventStore) -> str:
    """One-line store digest for CLI headers and --follow output."""
    states = store.state_counts()
    open_by_type = {t: n for t, n in store.open_counts().items() if n}
    opens = ", ".join(f"{t}={n}" for t, n in sorted(open_by_type.items())) \
        or "none"
    return (f"{len(store)} event(s)  "
            f"new={states.get(EventState.NEW, 0)} "
            f"ongoing={states.get(EventState.ONGOING, 0)} "
            f"resolved={states.get(EventState.RESOLVED, 0)}  "
            f"open: {opens}  "
            f"watermark={_fmt_time(store.watermark)}")
