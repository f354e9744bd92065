"""``repro-bgp top`` — a live terminal view of a running platform.

Polls the JSON metrics exposition (``GET /metrics?format=json`` on a
``repro-bgp serve`` instance, or any registry's ``to_json()``) and
renders the operator's one-screen view: per-stage throughput and
latency, queue depths against their high-water marks, per-session
ingest/drop/restart rows, writer watermark age, query traffic and
cache efficiency, and supervision events.  Rates are first differences
between successive polls, so the dashboard shows *upd/s right now*
rather than cumulative totals.

The renderer is a pure function over one or two exposition documents,
so tests drive it without a network; :class:`TopDashboard` adds the
polling loop and ANSI screen refresh for the CLI.
"""

from __future__ import annotations

import json
import sys
import time
import urllib.request
from typing import Dict, List, Optional, Tuple

from .trace import format_latency

_CLEAR = "\x1b[2J\x1b[H"


# -- exposition document access ----------------------------------------------

class _Doc:
    """Indexed access into one JSON exposition document."""

    def __init__(self, document: dict):
        self.families: Dict[str, dict] = {
            family["name"]: family
            for family in document.get("families", ())
        }

    def samples(self, name: str) -> List[dict]:
        family = self.families.get(name)
        return list(family["samples"]) if family else []

    def value(self, name: str, **labels) -> float:
        for sample in self.samples(name):
            if sample.get("labels", {}) == labels or (
                    not labels and not sample.get("labels")):
                return float(sample.get("value", 0.0))
        return 0.0

    def by_label(self, name: str, label: str) -> Dict[str, dict]:
        """``{label value: sample}`` for a one-label family slice."""
        out: Dict[str, dict] = {}
        for sample in self.samples(name):
            key = sample.get("labels", {}).get(label)
            if key is not None:
                out.setdefault(key, sample)
        return out

    def grouped(self, name: str, outer: str, inner: str
                ) -> Dict[str, Dict[str, float]]:
        """``{outer: {inner: value}}`` for a two-label counter."""
        out: Dict[str, Dict[str, float]] = {}
        for sample in self.samples(name):
            labels = sample.get("labels", {})
            if outer in labels and inner in labels:
                out.setdefault(labels[outer], {})[labels[inner]] = \
                    float(sample.get("value", 0.0))
        return out

    def histogram(self, name: str, **labels) -> Tuple[int, float]:
        """(count, sum) of one histogram child."""
        for sample in self.samples(name):
            if sample.get("labels", {}) == labels or (
                    not labels and not sample.get("labels")):
                return (int(sample.get("count", 0)),
                        float(sample.get("sum", 0.0)))
        return 0, 0.0


def _fmt_rate(value: float) -> str:
    return f"{value:,.0f}/s"


def render_top(current: dict, previous: Optional[dict] = None,
               dt_s: Optional[float] = None,
               now: Optional[float] = None,
               source: str = "") -> str:
    """Render one dashboard frame from exposition JSON documents.

    ``previous``/``dt_s`` enable the rate columns; without them the
    frame shows cumulative totals only.
    """
    cur = _Doc(current)
    prev = _Doc(previous) if previous is not None else None
    now = time.time() if now is None else now

    def rate_of(cumulative: float, name: str, **labels) -> str:
        if prev is None or not dt_s:
            return "-"
        return _fmt_rate((cumulative - prev.value(name, **labels))
                         / dt_s)

    lines: List[str] = []
    header = "== repro-bgp top =="
    if source:
        header += f"  {source}"
    # Build identity (repro_build_info): which deployment is this?
    for sample in cur.samples("repro_build_info"):
        labels = sample.get("labels", {})
        if sample.get("value") and labels.get("version"):
            header += (f"  v{labels['version']} "
                       f"[{labels.get('backend', '?')}]")
            break
    lines.append(header)

    # Writer watermark and its age.
    wm_wall = cur.value("repro_writer_watermark_wall_seconds")
    if wm_wall > 0:
        watermark = cur.value("repro_writer_watermark_seconds")
        age = max(0.0, now - wm_wall)
        lines.append(f"watermark {watermark:.0f} "
                     f"(advanced {age:.1f}s ago)  "
                     f"segments "
                     f"{cur.value('repro_archive_segments_total'):.0f}")

    # Per-stage throughput / queues / latency.
    stages = cur.grouped("repro_pipeline_stage_updates_total",
                         "stage", "result")
    if stages:
        depth = cur.by_label("repro_pipeline_queue_depth", "stage")
        high = cur.by_label("repro_pipeline_queue_depth_high_water",
                            "stage")
        lines.append(
            f"{'stage':>8s} {'done':>10s} {'rate':>10s} {'drop':>8s} "
            f"{'q':>6s} {'q-max':>6s} {'mean':>8s}")
        for stage in ("ingest", "process", "write"):
            if stage not in stages:
                continue
            done = stages[stage].get("processed", 0.0)
            dropped = stages[stage].get("dropped", 0.0)
            q = depth.get(stage, {}).get("value", 0.0)
            q_max = high.get(stage, {}).get("value", 0.0)
            count, total = cur.histogram(
                "repro_pipeline_stage_latency_seconds", stage=stage)
            mean = "—" if not count else format_latency(total / count)
            lines.append(
                f"{stage:>8s} {done:10.0f} "
                f"{rate_of(done, 'repro_pipeline_stage_updates_total', stage=stage, result='processed'):>10s} "
                f"{dropped:8.0f} {q:6.0f} {q_max:6.0f} {mean:>8s}")

    # Sessions.
    sessions = cur.grouped("repro_session_updates_total",
                           "session", "result")
    if sessions:
        restarts = cur.by_label("repro_session_restarts_total",
                                "session")
        quarantined = cur.by_label("repro_session_quarantined",
                                   "session")
        lines.append(
            f"{'session':>12s} {'enq':>10s} {'rate':>10s} "
            f"{'drop':>8s} {'rst':>4s} {'state':>6s}")
        for session in sorted(sessions):
            enq = sessions[session].get("enqueued", 0.0)
            drop = sessions[session].get("dropped", 0.0)
            rst = restarts.get(session, {}).get("value", 0.0)
            quar = quarantined.get(session, {}).get("value", 0.0)
            state = "quar" if quar else "ok"
            lines.append(
                f"{session:>12s} {enq:10.0f} "
                f"{rate_of(enq, 'repro_session_updates_total', session=session, result='enqueued'):>10s} "
                f"{drop:8.0f} {rst:4.0f} {state:>6s}")

    # Query traffic.
    hits = cur.value("repro_query_requests_total", cache="hit")
    misses = cur.value("repro_query_requests_total", cache="miss")
    queries = hits + misses
    if queries:
        qps = "-"
        if prev is not None and dt_s:
            prev_q = (prev.value("repro_query_requests_total",
                                 cache="hit")
                      + prev.value("repro_query_requests_total",
                                   cache="miss"))
            qps = _fmt_rate((queries - prev_q) / dt_s)
        decoded = cur.value("repro_query_segments_total",
                            outcome="decoded")
        pruned = (cur.value("repro_query_segments_total",
                            outcome="pruned_time")
                  + cur.value("repro_query_segments_total",
                              outcome="pruned_index"))
        lines.append(
            f"query: {queries:.0f} served ({qps})  "
            f"cache hit {hits / queries:.1%}  "
            f"segments {decoded:.0f} decoded / {pruned:.0f} pruned")

    # Event intelligence (the BEAR-style detector pipeline).
    open_by_type = cur.by_label("repro_events_open", "type")
    ev_segments = cur.value("repro_events_segments_total")
    if open_by_type or ev_segments:
        open_total = sum(s.get("value", 0.0)
                         for s in open_by_type.values())
        opened = sum(s.get("value", 0.0) for s in
                     cur.by_label("repro_events_opened_total",
                                  "type").values())
        resolved = sum(s.get("value", 0.0) for s in
                       cur.by_label("repro_events_resolved_total",
                                    "type").values())
        detail = ", ".join(
            f"{etype} {sample.get('value', 0.0):.0f}"
            for etype, sample in sorted(open_by_type.items())
            if sample.get("value", 0.0)) or "none"
        lines.append(
            f"events: {open_total:.0f} open ({detail})  "
            f"{opened:.0f} opened / {resolved:.0f} resolved "
            f"over {ev_segments:.0f} segments")

    # Gill redundancy filter (only when the stage is in the loop).
    decisions = cur.by_label("repro_gill_decisions_total", "decision")
    gill_kept = decisions.get("kept", {}).get("value", 0.0)
    gill_dropped = decisions.get("dropped", {}).get("value", 0.0)
    gill_total = gill_kept + gill_dropped
    if gill_total:
        anchors = cur.value("repro_gill_anchor_vps")
        groups = cur.value("repro_gill_correlation_groups")
        gill_events = cur.value("repro_gill_events")
        rs_count, rs_sum = cur.histogram("repro_gill_rescore_seconds")
        rescore = "—" if not rs_count \
            else format_latency(rs_sum / rs_count)
        lines.append(
            f"gill: dropped {gill_dropped:.0f}/{gill_total:.0f} "
            f"({gill_dropped / gill_total:.1%}) "
            f"{rate_of(gill_dropped, 'repro_gill_decisions_total', decision='dropped'):>s}  "
            f"anchors {anchors:.0f}  groups {groups:.0f}  "
            f"events {gill_events:.0f}  rescore mean {rescore}")

    # Partition merge (only while one populated the merge gauges).
    merge_partitions = cur.value("repro_cluster_merge_partitions")
    if merge_partitions:
        lag = cur.value("repro_cluster_merge_lag_seconds")
        lines.append(f"cluster: merge {merge_partitions:.0f} parts "
                     f"lag {lag:.1f}s")

    # Integrity guard + overload protection (only once active).
    verifications = cur.by_label("repro_guard_verifications_total",
                                 "outcome")
    verified_ok = verifications.get("ok", {}).get("value", 0.0)
    mismatches = verifications.get("mismatch", {}).get("value", 0.0)
    quarantined_now = cur.value("repro_guard_quarantined_segments")
    shed = cur.by_label("repro_guard_shed_total", "reason")
    shed_total = sum(s.get("value", 0.0) for s in shed.values())
    breakers = [endpoint for endpoint, sample in
                cur.by_label("repro_guard_breaker_open",
                             "endpoint").items()
                if sample.get("value", 0.0)]
    aborts = cur.value("repro_query_client_aborts_total")
    if verified_ok or mismatches or quarantined_now or shed_total \
            or breakers or aborts:
        shed_detail = ", ".join(
            f"{reason} {sample.get('value', 0.0):.0f}"
            for reason, sample in sorted(shed.items())
            if sample.get("value", 0.0)) or "none"
        breaker_detail = " breakers OPEN: " + ",".join(sorted(breakers)) \
            if breakers else ""
        lines.append(
            f"guard: verified {verified_ok:.0f} ok / "
            f"{mismatches:.0f} bad  quarantined {quarantined_now:.0f}  "
            f"shed {shed_total:.0f} ({shed_detail})  "
            f"aborts {aborts:.0f}{breaker_detail}")

    # Trace spans and the flight recorder.
    span_count, span_sum = cur.histogram("repro_trace_span_seconds")
    dumps = sum(s.get("value", 0.0) for s in
                cur.by_label("repro_flightrecorder_dumps_total",
                             "reason").values())
    if span_count:
        lines.append(f"spans: {span_count} sampled, "
                     f"mean {format_latency(span_sum / span_count)} "
                     f"end-to-end")
    if dumps:
        detail = ", ".join(
            f"{reason} {sample.get('value', 0.0):.0f}"
            for reason, sample in sorted(
                cur.by_label("repro_flightrecorder_dumps_total",
                             "reason").items())
            if sample.get("value", 0.0))
        lines.append(f"flight recorder: {dumps:.0f} dump(s) "
                     f"({detail})")

    # Supervision events, only when something fired.
    events = cur.by_label("repro_supervision_events_total", "event")
    fired = {name: s.get("value", 0.0) for name, s in events.items()
             if s.get("value", 0.0)}
    if fired:
        lines.append("supervision: " + "  ".join(
            f"{name} {value:.0f}"
            for name, value in sorted(fired.items())))

    return "\n".join(lines) + "\n"


# -- the polling dashboard ---------------------------------------------------

def normalize_metrics_url(target: str) -> str:
    """Accept ``host:port``, a base URL, or a full /metrics URL."""
    url = target if "://" in target else f"http://{target}"
    if "/metrics" not in url:
        url = url.rstrip("/") + "/metrics"
    if "format=" not in url:
        url += ("&" if "?" in url else "?") + "format=json"
    return url


def fetch_exposition(url: str, timeout: float = 10.0) -> dict:
    with urllib.request.urlopen(url, timeout=timeout) as reply:
        return json.loads(reply.read())


class TopDashboard:
    """Polls a /metrics endpoint and repaints the terminal."""

    def __init__(self, target: str, interval_s: float = 2.0,
                 fetch=fetch_exposition):
        self.url = normalize_metrics_url(target)
        self.interval_s = interval_s
        self._fetch = fetch

    def render_once(self) -> str:
        return render_top(self._fetch(self.url), source=self.url)

    def run(self, iterations: Optional[int] = None,
            out=None, clear: bool = True) -> None:
        """Poll and repaint until interrupted (or ``iterations``)."""
        out = sys.stdout if out is None else out
        previous: Optional[dict] = None
        previous_at: Optional[float] = None
        n = 0
        while iterations is None or n < iterations:
            current = self._fetch(self.url)
            sampled_at = time.time()
            dt = None if previous_at is None \
                else sampled_at - previous_at
            frame = render_top(current, previous, dt,
                               now=sampled_at, source=self.url)
            if clear:
                out.write(_CLEAR)
            out.write(frame)
            out.flush()
            previous, previous_at = current, sampled_at
            n += 1
            if iterations is not None and n >= iterations:
                break
            time.sleep(self.interval_s)
