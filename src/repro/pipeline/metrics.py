"""Live metrics for the concurrent collection runtime.

Every metric the pipeline reports is declared once below, as a
:class:`~repro.telemetry.Declared`: its family (``repro_session_*``,
``repro_pipeline_*``, ``repro_supervision_*``, ``repro_writer_*``,
``repro_archive_*`` — docs/TELEMETRY.md has the catalogue), HELP
text, labels, and the snapshot field each child fills.  The per-session
ingest counters (enqueued vs dropped) are the empirical Table-1 loss
signal.

Call sites increment children bound before their loops: the flat
families' children are attributes of :class:`PipelineMetrics` named
for their fields (``metrics.writer_io_errors.inc()``), each stage's
are on ``metrics.ingest`` / ``.process`` / ``.write``, and a
:class:`~repro.pipeline.stages.PeerSession` binds its own session row
when it is constructed.  :meth:`PipelineMetrics.snapshot` reads every
field back from the shared :class:`~repro.telemetry.MetricsRegistry`,
which also carries the query engine's counters
(:class:`~repro.query.stats.QueryStats`) and the trace-span histograms,
so one ``/metrics`` scrape covers collection, supervision and serving.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional, Tuple

from ..gill.stage import GILL_DECISIONS
from ..telemetry import Declared, HistogramSnapshot, MetricsRegistry, \
    Tracer, bind, format_latency, read
from ..query.stats import QueryStats, QueryStatsSnapshot, \
    render_query_stats

#: One row per peering session (``PeerSession`` binds its own).
SESSION_METRICS = (
    Declared("counter", "repro_session_updates_total",
             "Updates offered by each peering session, by outcome.",
             ("session", "result"),
             enqueued=("enqueued",), dropped=("dropped",)),
    Declared("counter", "repro_session_restarts_total",
             "Supervised restarts after session faults.", ("session",),
             restarts=()),
    Declared("counter", "repro_session_malformed_total",
             "Malformed updates skipped at the session boundary.",
             ("session",), malformed=()),
    Declared("gauge", "repro_session_backoff_seconds",
             "Current restart backoff (0 while established).",
             ("session",), unit="seconds", backoff_s=()),
    Declared("gauge", "repro_session_quarantined",
             "1 while the flap circuit breaker holds the session open.",
             ("session",), quarantined=()),
)

#: Whole-pipeline families (fields of the pipeline and supervision
#: snapshots).
PIPELINE_METRICS = (
    Declared("counter", "repro_pipeline_dispositions_total",
             "Processed updates by verdict (retained / discarded / "
             "flagged).", ("disposition",), retained=("retained",),
             discarded=("discarded",), flagged=("flagged",)),
    Declared("counter", "repro_pipeline_forwarded_total",
             "Operator deliveries by the forwarding service.",
             forwarded=()),
    Declared("counter", "repro_archive_segments_total",
             "Archive segments sealed and flushed.", segments=()),
    Declared("counter", "repro_supervision_events_total",
             "Fault-supervision events, by kind.", ("event",),
             degraded_episodes=("session_degraded",),
             worker_restarts=("worker_restart",),
             writer_io_errors=("writer_io_error",),
             archive_recoveries=("archive_recovery",),
             rib_redumps=("rib_redump",),
             order_violations=("order_violation",)),
    Declared("counter", "repro_archive_updates_lost_total",
             "Buffered updates lost to archive crash recovery.",
             archive_lost=()),
    GILL_DECISIONS,
    Declared("gauge", "repro_writer_watermark_seconds",
             "Stream time of the last update the writer emitted.",
             unit="seconds", writer_watermark=()),
    Declared("gauge", "repro_writer_watermark_wall_seconds",
             "Wall-clock time the writer watermark last advanced.",
             unit="seconds", writer_watermark_wall=()),
)

#: One row per stage.
STAGE_METRICS = (
    Declared("counter", "repro_pipeline_stage_updates_total",
             "Updates handled per pipeline stage, by result.",
             ("stage", "result"),
             processed=("processed",), dropped=("dropped",)),
    Declared("histogram", "repro_pipeline_stage_latency_seconds",
             "Latency from ingest enqueue to stage completion.",
             ("stage",), unit="seconds", latency=()),
    Declared("gauge", "repro_pipeline_queue_depth",
             "Current depth of each stage's bounded queue.", ("stage",),
             high_water="queue_high_water", queue_depth=()),
)


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


@dataclass(frozen=True)
class StageSnapshot:
    """Immutable view of one stage's counters."""

    name: str
    latency: HistogramSnapshot
    processed: int
    dropped: int
    #: Gauges: 0 until the stage's queue is first used.
    queue_depth: int = 0
    queue_high_water: int = 0

    @property
    def latency_p50_s(self) -> float:
        return self.latency.percentile(0.5)

    @property
    def latency_p99_s(self) -> float:
        return self.latency.percentile(0.99)

    @property
    def latency_mean_s(self) -> float:
        return self.latency.mean

    @property
    def latency_count(self) -> int:
        """Samples behind the latency quantiles (0 = no observations)."""
        return self.latency.count


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
    """The shared metrics hub every pipeline stage reports into.

    Attributes: the children of :data:`PIPELINE_METRICS`, named for
    their fields; ``ingest``, ``process`` and ``write``, each stage's
    :data:`STAGE_METRICS` children; ``query``, the engine's
    :class:`~repro.query.stats.QueryStats`; and the ``tracer``.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None
                 ) -> None:
        self.registry = r = registry if registry is not None \
            else MetricsRegistry()
        for declared in SESSION_METRICS:    # sessions bind their rows
            declared.family(r)
        vars(self).update(bind(r, PIPELINE_METRICS))
        self.ingest, self.process, self.write = (
            SimpleNamespace(**bind(r, STAGE_METRICS, stage))
            for stage in ("ingest", "process", "write"))
        self.query = QueryStats(registry=r)
        self.tracer = Tracer(0.0, registry=r)
        self._started_at: Optional[float] = None
        self._stopped_at: Optional[float] = None

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

    def snapshot(self) -> PipelineMetricsSnapshot:
        r = self.registry
        sessions = tuple(sorted(
            read(SessionSnapshot, r, SESSION_METRICS, row="session"),
            key=lambda s: s.session))
        stages = {s.name: s for s in
                  read(StageSnapshot, r, STAGE_METRICS, row="name")}
        supervision = read(
            SupervisionSnapshot, r, PIPELINE_METRICS,
            session_restarts=sum(s.restarts for s in sessions),
            quarantined=tuple(s.session for s in sessions
                              if s.quarantined),
            malformed=sum(s.malformed for s in sessions))[0]
        return read(
            PipelineMetricsSnapshot, r, PIPELINE_METRICS,
            received=sum(s.offered for s in sessions),
            ingest_dropped=sum(s.dropped for s in sessions),
            processed=stages["process"].processed,
            written=stages["write"].processed,
            wall_time_s=self.wall_time_s,
            stages=tuple(stages.values()), sessions=sessions,
            supervision=supervision, query=self.query.snapshot())[0]


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
