"""Live metrics for the concurrent collection runtime.

Every stage of :mod:`repro.pipeline` reports into one
:class:`PipelineMetrics` object — now a thin facade over the shared
:class:`repro.telemetry.MetricsRegistry`: per-session ingest counters
(enqueued vs dropped — the empirical Table-1 loss signal), per-shard
processing counters, writer throughput and watermark, queue-depth
high-water marks, a latency histogram per stage, and the fault
supervision counters all live in one exported namespace
(``repro_pipeline_*``, ``repro_session_*``, ``repro_supervision_*``,
``repro_writer_*`` families — see docs/TELEMETRY.md for the
catalogue).  The same registry also carries the query-engine counters
(:class:`~repro.query.stats.QueryStats`) and the trace-span
histograms (:class:`~repro.telemetry.Tracer`), so one ``/metrics``
scrape covers collection, supervision and serving.

Counters are individually lock-protected so any thread may report;
:meth:`PipelineMetrics.snapshot` produces an immutable view for the
status page and the CLI, and ``PipelineMetrics.registry`` exposes the
underlying registry for Prometheus/JSON exposition and the snapshot
time-series sampler.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..telemetry import Counter, Gauge, Histogram, MetricsRegistry, \
    Tracer, format_latency
from ..telemetry.registry import DEFAULT_LATENCY_BOUNDS as \
    _BUCKET_BOUNDS  # noqa: F401  (re-exported for compatibility)
from ..query.stats import QueryStats, QueryStatsSnapshot, \
    render_query_stats

#: The pipeline's stage latency histogram type — the registry
#: histogram, whose (sum, count) reads are atomic under its lock.
LatencyHistogram = Histogram


class StageMetrics:
    """Counters for one pipeline stage, bound into the registry."""

    def __init__(self, name: str, registry: MetricsRegistry) -> None:
        self.name = name
        updates = registry.counter(
            "repro_pipeline_stage_updates_total",
            "Updates handled per pipeline stage, by result.",
            labels=("stage", "result"))
        self._processed = updates.labels(name, "processed")
        self._dropped = updates.labels(name, "dropped")
        self.latency = registry.histogram(
            "repro_pipeline_stage_latency_seconds",
            "Latency from ingest enqueue to stage completion.",
            labels=("stage",), unit="seconds").labels(name)
        self.queue_depth = registry.gauge(
            "repro_pipeline_queue_depth",
            "Current depth of each stage's bounded queue.",
            labels=("stage",), track_high_water=True).labels(name)

    def add(self, processed: int = 0, dropped: int = 0) -> None:
        if processed:
            self._processed.inc(processed)
        if dropped:
            self._dropped.inc(dropped)

    @property
    def processed(self) -> int:
        return int(self._processed.value)

    @property
    def dropped(self) -> int:
        return int(self._dropped.value)


@dataclass(frozen=True)
class SessionSnapshot:
    """Ingest accounting for one peering session."""

    session: str
    enqueued: int
    dropped: int
    #: Supervision state: restarts after faults, malformed updates
    #: skipped at the session boundary, and quarantine membership.
    restarts: int = 0
    malformed: int = 0
    quarantined: bool = False
    #: Current restart backoff in seconds (0 while established).
    backoff_s: float = 0.0

    @property
    def offered(self) -> int:
        return self.enqueued + self.dropped

    @property
    def drop_rate(self) -> float:
        return self.dropped / self.offered if self.offered else 0.0


@dataclass(frozen=True)
class SupervisionSnapshot:
    """Fault-recovery accounting for one run (all zeros when healthy)."""

    session_restarts: int = 0
    quarantined: Tuple[str, ...] = ()
    malformed: int = 0
    degraded_episodes: int = 0
    worker_restarts: int = 0
    writer_io_errors: int = 0
    archive_recoveries: int = 0
    archive_lost: int = 0
    rib_redumps: int = 0
    order_violations: int = 0

    @property
    def any_faults(self) -> bool:
        return bool(self.session_restarts or self.quarantined
                    or self.malformed or self.degraded_episodes
                    or self.worker_restarts or self.writer_io_errors
                    or self.archive_recoveries or self.archive_lost
                    or self.rib_redumps or self.order_violations)


@dataclass(frozen=True)
class StageSnapshot:
    """Immutable view of one stage's counters."""

    name: str
    processed: int
    dropped: int
    queue_depth: int
    queue_high_water: int
    latency_p50_s: float
    latency_p99_s: float
    latency_mean_s: float
    #: Samples behind the latency quantiles (0 = no observations).
    latency_count: int = 0


@dataclass(frozen=True)
class PipelineMetricsSnapshot:
    """One immutable observation of the whole pipeline."""

    received: int            # offered by all sessions (pre-queue)
    ingest_dropped: int      # lost to full ingest queues (Table-1 loss)
    processed: int           # parse+validate+filter completed
    flagged: int             # quarantined by the route validator
    retained: int            # passed the filters
    discarded: int           # dropped by the filters
    forwarded: int           # operator deliveries (§14)
    written: int             # handed to the archive writer
    segments: int            # archive segments flushed
    wall_time_s: float
    stages: Tuple[StageSnapshot, ...] = ()
    sessions: Tuple[SessionSnapshot, ...] = ()
    #: Fault-recovery counters (always present from ``snapshot()``).
    supervision: Optional[SupervisionSnapshot] = None
    #: Read-side counters: seal-time index builds plus, when a
    #: :class:`repro.query.QueryEngine` shares this hub's
    #: :class:`~repro.query.stats.QueryStats`, the live query traffic.
    query: Optional[QueryStatsSnapshot] = None
    #: Stream time of the last update the writer emitted, and the
    #: wall-clock instant it advanced (None until the first emit).
    writer_watermark: Optional[float] = None
    writer_watermark_wall: Optional[float] = None
    #: Online redundancy filter decisions (0/0 when no gill stage ran).
    gill_kept: int = 0
    gill_dropped: int = 0

    @property
    def loss_fraction(self) -> float:
        """Empirical ingest loss — the measured Table-1 quantity."""
        return self.ingest_dropped / self.received if self.received else 0.0

    @property
    def throughput_ups(self) -> float:
        """Sustained processed updates per wall-clock second."""
        if self.wall_time_s <= 0:
            return 0.0
        return self.processed / self.wall_time_s

    def watermark_age_s(self, now: Optional[float] = None
                        ) -> Optional[float]:
        """Seconds since the writer's watermark last advanced."""
        if self.writer_watermark_wall is None:
            return None
        now = time.time() if now is None else now
        return max(0.0, now - self.writer_watermark_wall)


class PipelineMetrics:
    """The shared metrics hub every pipeline stage reports into."""

    def __init__(self, registry: Optional[MetricsRegistry] = None
                 ) -> None:
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        r = self.registry
        # Per-session families; children are pre-bound at
        # register_session time so the per-update path is one inc().
        self._session_updates = r.counter(
            "repro_session_updates_total",
            "Updates offered by each peering session, by outcome.",
            labels=("session", "result"))
        self._session_restarts = r.counter(
            "repro_session_restarts_total",
            "Supervised restarts after session faults.",
            labels=("session",))
        self._session_malformed = r.counter(
            "repro_session_malformed_total",
            "Malformed updates skipped at the session boundary.",
            labels=("session",))
        self._session_backoff = r.gauge(
            "repro_session_backoff_seconds",
            "Current restart backoff (0 while established).",
            labels=("session",), unit="seconds")
        self._session_quarantined = r.gauge(
            "repro_session_quarantined",
            "1 while the flap circuit breaker holds the session open.",
            labels=("session",))
        # Worker dispositions.
        dispositions = r.counter(
            "repro_pipeline_dispositions_total",
            "Processed updates by verdict (retained / discarded / "
            "flagged).", labels=("disposition",))
        self._retained = dispositions.labels("retained")
        self._discarded = dispositions.labels("discarded")
        self._flagged = dispositions.labels("flagged")
        self._forwarded = r.counter(
            "repro_pipeline_forwarded_total",
            "Operator deliveries by the forwarding service.")
        self._segments = r.counter(
            "repro_archive_segments_total",
            "Archive segments sealed and flushed.")
        # Fault supervision (global events; per-session restarts and
        # malformed counts live in the session families above).
        self._supervision = r.counter(
            "repro_supervision_events_total",
            "Fault-supervision events, by kind.", labels=("event",))
        self._degraded = self._supervision.labels("session_degraded")
        self._worker_restarts = \
            self._supervision.labels("worker_restart")
        self._writer_io_errors = \
            self._supervision.labels("writer_io_error")
        self._archive_recoveries = \
            self._supervision.labels("archive_recovery")
        self._rib_redumps = self._supervision.labels("rib_redump")
        self._order_violations = \
            self._supervision.labels("order_violation")
        self._archive_lost = r.counter(
            "repro_archive_updates_lost_total",
            "Buffered updates lost to archive crash recovery.")
        # Gill filter decisions: the same family the GillStage binds
        # (get-or-create by name), so the snapshot reads the counts the
        # filter increments without a direct reference to the stage.
        gill = r.counter(
            "repro_gill_decisions_total",
            "Filter decisions on archive-bound updates",
            labels=("decision",))
        self._gill_kept = gill.labels(decision="kept")
        self._gill_dropped = gill.labels(decision="dropped")
        # Writer watermark: stream time plus the wall-clock instant it
        # advanced, so the status page can render its *age*.
        self._watermark = r.gauge(
            "repro_writer_watermark_seconds",
            "Stream time of the last update the writer emitted.",
            unit="seconds").labels()
        self._watermark_wall = r.gauge(
            "repro_writer_watermark_wall_seconds",
            "Wall-clock time the writer watermark last advanced.",
            unit="seconds").labels()
        # Stage counters, the query facade and the (default-off)
        # tracer all join the same registry.
        self.ingest = StageMetrics("ingest", r)
        self.process = StageMetrics("process", r)
        self.write = StageMetrics("write", r)
        self.query = QueryStats(registry=r)
        self.tracer = Tracer(0.0, registry=r)
        # Pre-bound per-session children and ordered bookkeeping.
        self._lock = threading.Lock()
        self._sessions: Dict[str, Tuple[Counter, Counter]] = {}
        self._restarts: Dict[str, Counter] = {}
        self._malformed: Dict[str, Counter] = {}
        self._backoff: Dict[str, Gauge] = {}
        self._quarantine_flags: Dict[str, Gauge] = {}
        self._quarantined: List[str] = []
        self._started_at: Optional[float] = None
        self._stopped_at: Optional[float] = None

    # -- session accounting -------------------------------------------------

    def register_session(self, name: str) -> None:
        with self._lock:
            if name in self._sessions:
                return
            self._sessions[name] = (
                self._session_updates.labels(name, "enqueued"),
                self._session_updates.labels(name, "dropped"),
            )
            self._restarts[name] = \
                self._session_restarts.labels(name)
            self._malformed[name] = \
                self._session_malformed.labels(name)
            self._backoff[name] = self._session_backoff.labels(name)
            self._quarantine_flags[name] = \
                self._session_quarantined.labels(name)

    def session_enqueued(self, name: str, count: int = 1) -> None:
        self._sessions[name][0].inc(count)
        self.ingest.add(processed=count)

    def session_dropped(self, name: str, count: int = 1) -> None:
        self._sessions[name][1].inc(count)
        self.ingest.add(dropped=count)

    # -- supervision accounting --------------------------------------------

    def session_restarted(self, name: str) -> None:
        self._restarts[name].inc()

    def session_quarantined(self, name: str) -> None:
        with self._lock:
            if name in self._quarantined:
                return
            self._quarantined.append(name)
        self._quarantine_flags[name].set(1)

    def session_malformed(self, name: str, count: int = 1) -> None:
        self._malformed[name].inc(count)

    def session_backoff(self, name: str, seconds: float) -> None:
        """Record a session's current restart backoff (0 = established)."""
        self._backoff[name].set(seconds)

    def session_degraded(self, name: str) -> None:
        self._degraded.inc()

    def worker_restarted(self, shard: int) -> None:
        self._worker_restarts.inc()

    def writer_io_error(self) -> None:
        self._writer_io_errors.inc()

    def archive_recovered(self, lost: int = 0) -> None:
        self._archive_recoveries.inc()
        if lost:
            self._archive_lost.inc(lost)

    def rib_redumped(self, name: str) -> None:
        self._rib_redumps.inc()

    def order_violation(self) -> None:
        self._order_violations.inc()

    def index_built(self, seconds: float) -> None:
        """A segment's query index was built at seal time."""
        self.query.index_built(seconds)

    # -- worker / writer accounting ----------------------------------------

    def update_processed(self, retained: bool, flagged: bool = False,
                         forwarded_to: int = 0) -> None:
        if flagged:
            self._flagged.inc()
        elif retained:
            self._retained.inc()
        else:
            self._discarded.inc()
        if forwarded_to:
            self._forwarded.inc(forwarded_to)
        self.process.add(processed=1)

    def segment_flushed(self, count: int = 1) -> None:
        self._segments.inc(count)

    def writer_advanced(self, stream_time: float) -> None:
        """The writer emitted up to ``stream_time`` (watermark move)."""
        self._watermark.set(stream_time)
        self._watermark_wall.set(time.time())

    # -- lifecycle ----------------------------------------------------------

    def mark_started(self) -> None:
        self._started_at = time.perf_counter()

    def mark_stopped(self) -> None:
        self._stopped_at = time.perf_counter()

    @property
    def wall_time_s(self) -> float:
        if self._started_at is None:
            return 0.0
        end = self._stopped_at or time.perf_counter()
        return end - self._started_at

    # -- snapshots ----------------------------------------------------------

    def _stage_snapshot(self, stage: StageMetrics) -> StageSnapshot:
        latency = stage.latency.snapshot()
        return StageSnapshot(
            name=stage.name,
            processed=stage.processed,
            dropped=stage.dropped,
            queue_depth=int(stage.queue_depth.value),
            queue_high_water=int(stage.queue_depth.high_water),
            latency_p50_s=latency.percentile(0.5),
            latency_p99_s=latency.percentile(0.99),
            latency_mean_s=latency.mean,
            latency_count=latency.count,
        )

    def snapshot(self) -> PipelineMetricsSnapshot:
        with self._lock:
            names = sorted(self._sessions)
            quarantined = tuple(self._quarantined)
        sessions = tuple(
            SessionSnapshot(
                name,
                int(self._sessions[name][0].value),
                int(self._sessions[name][1].value),
                restarts=int(self._restarts[name].value),
                malformed=int(self._malformed[name].value),
                quarantined=name in quarantined,
                backoff_s=self._backoff[name].value,
            )
            for name in names
        )
        supervision = SupervisionSnapshot(
            session_restarts=sum(s.restarts for s in sessions),
            quarantined=quarantined,
            malformed=sum(s.malformed for s in sessions),
            degraded_episodes=int(self._degraded.value),
            worker_restarts=int(self._worker_restarts.value),
            writer_io_errors=int(self._writer_io_errors.value),
            archive_recoveries=int(self._archive_recoveries.value),
            archive_lost=int(self._archive_lost.value),
            rib_redumps=int(self._rib_redumps.value),
            order_violations=int(self._order_violations.value),
        )
        received = sum(s.offered for s in sessions)
        dropped = sum(s.dropped for s in sessions)
        watermark_set = self._watermark_wall.touched
        return PipelineMetricsSnapshot(
            received=received,
            ingest_dropped=dropped,
            processed=self.process.processed,
            flagged=int(self._flagged.value),
            retained=int(self._retained.value),
            discarded=int(self._discarded.value),
            forwarded=int(self._forwarded.value),
            written=self.write.processed,
            segments=int(self._segments.value),
            wall_time_s=self.wall_time_s,
            stages=(
                self._stage_snapshot(self.ingest),
                self._stage_snapshot(self.process),
                self._stage_snapshot(self.write),
            ),
            sessions=sessions,
            supervision=supervision,
            query=self.query.snapshot(),
            writer_watermark=self._watermark.value
            if watermark_set else None,
            writer_watermark_wall=self._watermark_wall.value
            if watermark_set else None,
            gill_kept=int(self._gill_kept.value),
            gill_dropped=int(self._gill_dropped.value),
        )


def _latency_cell(seconds: float, count: int) -> str:
    """A latency figure, or an em dash when nothing was observed."""
    return "—" if not count else format_latency(seconds)


def render_metrics(snapshot: PipelineMetricsSnapshot,
                   per_session: bool = False,
                   now: Optional[float] = None) -> str:
    """Render a metrics snapshot as the status page's pipeline block.

    ``now`` anchors the watermark-age line (defaults to wall clock;
    tests pass a fixed instant).
    """
    lines = [
        "== pipeline metrics ==",
        f"received {snapshot.received}  "
        f"ingest-dropped {snapshot.ingest_dropped} "
        f"({snapshot.loss_fraction:.1%})  "
        f"processed {snapshot.processed}",
        f"retained {snapshot.retained}  discarded {snapshot.discarded}  "
        f"flagged {snapshot.flagged}  forwarded {snapshot.forwarded}",
        f"written {snapshot.written}  segments {snapshot.segments}  "
        f"throughput {snapshot.throughput_ups:,.0f} upd/s "
        f"over {snapshot.wall_time_s:.2f}s",
    ]
    if snapshot.writer_watermark is not None:
        age = snapshot.watermark_age_s(now)
        lines.append(
            f"watermark {snapshot.writer_watermark:.0f} "
            f"(advanced {age:.1f}s ago)")
    gill_total = snapshot.gill_kept + snapshot.gill_dropped
    if gill_total:
        lines.append(
            f"gill: dropped {snapshot.gill_dropped} of {gill_total} "
            f"archive candidates "
            f"({snapshot.gill_dropped / gill_total:.1%})")
    supervision = snapshot.supervision
    if supervision is not None:
        lines.append(
            f"supervision: restarts {supervision.session_restarts}  "
            f"quarantined {len(supervision.quarantined)}  "
            f"malformed {supervision.malformed}  "
            f"degraded {supervision.degraded_episodes}  "
            f"worker-restarts {supervision.worker_restarts}"
        )
        if (supervision.writer_io_errors or supervision.archive_recoveries
                or supervision.rib_redumps or supervision.order_violations):
            lines.append(
                f"recovery: io-errors {supervision.writer_io_errors}  "
                f"archive-recoveries {supervision.archive_recoveries}  "
                f"archive-lost {supervision.archive_lost}  "
                f"rib-redumps {supervision.rib_redumps}  "
                f"order-violations {supervision.order_violations}"
            )
    if snapshot.stages:
        lines.append(
            f"{'stage':>8s} {'done':>9s} {'drop':>7s} {'q':>5s} "
            f"{'q-max':>5s} {'p50':>8s} {'p99':>8s}"
        )
        for stage in snapshot.stages:
            lines.append(
                f"{stage.name:>8s} {stage.processed:9d} "
                f"{stage.dropped:7d} {stage.queue_depth:5d} "
                f"{stage.queue_high_water:5d} "
                f"{_latency_cell(stage.latency_p50_s, stage.latency_count):>8s} "
                f"{_latency_cell(stage.latency_p99_s, stage.latency_count):>8s}"
            )
    if snapshot.query is not None and snapshot.query.any_activity:
        lines.append(render_query_stats(snapshot.query))
    if per_session and snapshot.sessions:
        lines.append(f"{'session':>12s} {'enq':>8s} {'drop':>7s} "
                     f"{'loss':>6s} {'rst':>4s} {'bad':>4s} {'state':>6s}")
        for row in snapshot.sessions:
            state = "quar" if row.quarantined else "ok"
            lines.append(
                f"{row.session:>12s} {row.enqueued:8d} {row.dropped:7d} "
                f"{row.drop_rate:6.1%} {row.restarts:4d} "
                f"{row.malformed:4d} {state:>6s}"
            )
    return "\n".join(lines) + "\n"
