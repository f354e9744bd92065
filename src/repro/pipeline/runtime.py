"""The concurrent collection runtime: wiring, lifecycle, results.

:class:`CollectionPipeline` turns the §8 daemon *model* into a daemon
*implementation*: per-peer :class:`~repro.pipeline.stages.PeerSession`
producers feed a sharded worker pool through bounded queues, workers
run validate → forward → filter, and a single writer stage restores
global time order and batches retained updates into a
:class:`~repro.bgp.archive.RollingArchiveWriter`.

Guarantees:

* **loss accounting** — every offered update is either enqueued or
  counted as an ingest drop; enqueued updates are never lost, so after
  :meth:`CollectionPipeline.wait` the identity
  ``received == ingest_dropped + flagged + retained + discarded``
  holds exactly (the acceptance invariant for graceful drain);
* **ordering** — the archive and the mirror callback observe updates
  in nondecreasing time order even with many shards, via the
  writer stage's per-session runs and safe watermark;
* **backpressure** — with the ``block`` overflow policy a full queue
  stalls its producer instead of losing data, all the way back to the
  peer sessions;
* **supervision** — with a :class:`~repro.pipeline.faults.FaultPlan`
  (or real misbehaving iterators) sessions restart with backoff and
  quarantine after repeated flaps, a watchdog replaces stalled shard
  workers and releases their watermark, and a dead writer poisons the
  queues so no producer blocks forever behind it (docs/FAULTS.md).

Each session's update iterator must be time-nondecreasing (the
per-VP order that :func:`repro.workload.split_by_vp` produces).  A
session lives on one shard — ``crc32(session name) % n_shards`` — so
its updates, heartbeats and end-of-stream marker share one FIFO queue
and the writer keeps one watermark per session.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, \
    Sequence, Tuple

from ..bgp.archive import ArchiveSegment, RollingArchiveWriter
from ..bgp.filtering import FilterTable
from ..bgp.message import BGPUpdate
from ..bgp.validation import RouteValidator
from ..core.forwarding import ForwardingService
from .. import __version__
from ..gill import GillConfig, GillStage
from ..telemetry import Tracer, set_build_info, set_process_role
from .faults import FaultInjector, FaultPlan, SupervisorConfig
from .metrics import PipelineMetrics, PipelineMetricsSnapshot
from .queues import BoundedQueue, QueueClosed
from .stages import PeerSession, ShardWorker, WriterStage


#: Capacity of the one queue between the shard workers and the writer.
WRITER_QUEUE_CAPACITY = 4096

#: Quarantined (validator-flagged) updates kept for inspection, at most.
MAX_FLAGGED_KEPT = 10_000


@dataclass
class PipelineConfig:
    """Knobs of the concurrent runtime."""

    n_shards: int = 4
    ingest_queue_capacity: int = 1024
    #: 'drop' loses updates at full ingest queues (daemon-style,
    #: Table 1); 'block' applies lossless backpressure instead.
    overflow_policy: str = "drop"
    #: Updates between watermark heartbeats; smaller = lower write
    #: latency, larger = fewer control messages.
    heartbeat_every: int = 64
    #: Stream seconds replayed per wall-clock second (None = flood,
    #: i.e. as fast as the hardware allows).
    time_scale: Optional[float] = None
    #: Deterministic chaos schedule; None runs fault-free.
    fault_plan: Optional[FaultPlan] = None
    #: Restart/backoff/watchdog policy (always in force — real
    #: iterators can misbehave without an injected plan).
    supervision: SupervisorConfig = field(default_factory=SupervisorConfig)
    #: Fraction of updates carrying a telemetry trace span (0 = off;
    #: deterministic stride sampling, see repro.telemetry.trace).
    trace_sample_rate: float = 0.0
    #: Online redundancy filtering in front of the archive writer
    #: (None = write everything; requires an archive when set).
    gill: Optional[GillConfig] = None

    def __post_init__(self) -> None:
        if self.n_shards <= 0:
            raise ValueError("need at least one shard")
        if self.overflow_policy not in ("drop", "block"):
            raise ValueError("overflow_policy must be 'drop' or 'block'")
        if self.time_scale is not None and self.time_scale <= 0:
            raise ValueError("time_scale must be positive")
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ValueError("trace_sample_rate must be in [0, 1]")
        if self.gill is not None and not isinstance(self.gill, GillConfig):
            raise ValueError("gill must be a GillConfig (or None)")


@dataclass(frozen=True)
class PipelineResult:
    """Everything a finished run reports."""

    metrics: PipelineMetricsSnapshot
    segments: Tuple[ArchiveSegment, ...]
    flagged: Tuple[BGPUpdate, ...]
    #: Faults that actually fired, in firing order (chaos runs only).
    fault_log: Tuple[str, ...] = ()

    @property
    def accounted(self) -> bool:
        """True when no enqueued update went missing (drain check)."""
        m = self.metrics
        return m.received == (m.ingest_dropped + m.flagged
                              + m.retained + m.discarded)


class CollectionPipeline:
    """Sharded, queue-connected concurrent collection runtime."""

    def __init__(self, config: Optional[PipelineConfig] = None,
                 filters: Optional[FilterTable] = None,
                 validator: Optional[RouteValidator] = None,
                 forwarding: Optional[ForwardingService] = None,
                 archive: Optional[RollingArchiveWriter] = None,
                 mirror: Optional[Callable[[BGPUpdate, bool], None]] = None,
                 on_reestablish: Optional[Callable[[str], None]] = None):
        self.config = config or PipelineConfig()
        self.filters = filters if filters is not None else FilterTable()
        self.validator = validator
        self.forwarding = forwarding
        self.archive = archive
        self.mirror = mirror
        #: Called with the session name each time a flapped session
        #: re-establishes — the §8 hook for re-dumping its RIB.
        self.on_reestablish = on_reestablish
        self.metrics = PipelineMetrics()
        set_build_info(self.metrics.registry, __version__,
                       backend="threads")
        if self.config.trace_sample_rate > 0.0:
            # Replace the default (disabled) tracer with a sampling
            # one bound to the same registry, so the trace families
            # appear in the same exposition.
            self.metrics.tracer = Tracer(
                self.config.trace_sample_rate,
                registry=self.metrics.registry)
        #: This process's crash flight recorder, named for the
        #: coordinator role; finished spans land in its ring.
        self.flight = set_process_role("coordinator")
        self.flight.bind_registry(self.metrics.registry)
        self.injector: Optional[FaultInjector] = None
        #: The online redundancy filter (built in ``start`` when the
        #: config carries a :class:`~repro.gill.GillConfig`).
        self.gill: Optional[GillStage] = None
        self._stop_event = threading.Event()
        self._sessions: List[PeerSession] = []
        self._workers: List[ShardWorker] = []
        self._replaced: List[ShardWorker] = []
        self._workers_lock = threading.Lock()
        self._writer: Optional[WriterStage] = None
        self._ingest_queues: List[BoundedQueue] = []
        self._writer_queue: Optional[BoundedQueue] = None
        self._watchdog: Optional[threading.Thread] = None
        self._watchdog_stop = threading.Event()
        self._flagged: List[BGPUpdate] = []
        self._flagged_lock = threading.Lock()
        self._validator_lock = threading.Lock()
        self._forwarding_lock = threading.Lock()
        self._started = False

    # -- lifecycle ----------------------------------------------------------

    def _keep_flagged(self, update: BGPUpdate) -> None:
        with self._flagged_lock:
            if len(self._flagged) < MAX_FLAGGED_KEPT:
                self._flagged.append(update)

    def _session_reestablished(self, name: str) -> None:
        self.metrics.rib_redumps.inc()
        if self.on_reestablish is not None:
            self.on_reestablish(name)

    def _seal_metrics(self, segment, build_s) -> None:
        if build_s is not None:
            self.metrics.query.index_builds.inc()
            self.metrics.query.index_build_time_s.inc(build_s)

    def _release_archive(self) -> None:
        """Drop the seal subscriptions ``start`` made (writer is done)."""
        if hasattr(self.archive, "remove_seal_listener"):
            self.archive.remove_seal_listener(self._seal_metrics)
        if self.injector is not None:
            self.injector.release_archive(self.archive)

    def _make_worker(self, shard: int, handoff=None,
                     start_count: int = 0) -> ShardWorker:
        assert self._writer_queue is not None
        return ShardWorker(
            shard, self._ingest_queues[shard], self._writer_queue,
            filters=self.filters, metrics=self.metrics,
            validator=self.validator,
            validator_lock=self._validator_lock,
            forwarding=self.forwarding,
            forwarding_lock=self._forwarding_lock,
            flagged_sink=self._keep_flagged,
            injector=self.injector,
            handoff=handoff,
            start_count=start_count,
        )

    def start(self, streams: Mapping[str, Iterable[BGPUpdate]]) -> None:
        """Spawn all stage threads over per-session update iterators.

        ``streams`` maps a session name (typically the VP) to its
        time-nondecreasing update iterable.
        """
        if self._started:
            raise RuntimeError("pipeline already started")
        if not streams:
            raise ValueError("need at least one session stream")
        self._started = True
        cfg = self.config

        archive = self.archive
        if cfg.gill is not None:
            if self.archive is None:
                raise ValueError("gill filtering requires an archive")
            # Attach against the *raw* archive before any fault wrapper
            # exists: replay reads the durable segment manifest and the
            # journal truncates to the durable watermark, neither of
            # which the injector wrapper intercepts.  The stage forks
            # its scoring worker here, before this run's threads start.
            self.gill = GillStage(cfg.gill, vps=sorted(streams),
                                  registry=self.metrics.registry)
            try:
                self.gill.attach(self.archive)
            except BaseException:
                self.gill.close()
                raise
        if archive is not None and hasattr(archive, "add_seal_listener"):
            # Subscribe to segment seals so index builds (when the
            # archive was opened with ``index=True``) land in the live
            # metrics the status page renders.  Other subscribers (the
            # event pipeline, tests) coexist on the same listener list.
            # The archive outlives this run: ``_release_archive`` takes
            # the subscription back, or the caller's archive would keep
            # every finished pipeline reachable.
            archive.add_seal_listener(self._seal_metrics)
        if cfg.fault_plan:
            self.injector = FaultInjector(cfg.fault_plan)
            archive = self.injector.wrap_archive(archive)
            streams = {
                name: self.injector.wrap_stream(name, updates)
                for name, updates in streams.items()
            }

        self._ingest_queues = [
            BoundedQueue(cfg.ingest_queue_capacity,
                         gauge=self.metrics.ingest.queue_depth)
            for _ in range(cfg.n_shards)
        ]
        self._writer_queue = BoundedQueue(
            WRITER_QUEUE_CAPACITY,
            gauge=self.metrics.write.queue_depth)

        self._workers = [self._make_worker(shard)
                         for shard in range(cfg.n_shards)]
        self._writer = WriterStage(
            self._writer_queue, cfg.n_shards, list(streams),
            metrics=self.metrics, archive=archive,
            mirror=self.mirror,
            max_archive_recoveries=cfg.supervision.max_archive_recoveries,
            on_fatal=self._on_writer_fatal,
            gill=self.gill,
        )
        self._sessions = [
            PeerSession(
                name, updates, self._ingest_queues,
                metrics=self.metrics,
                overflow_policy=cfg.overflow_policy,
                heartbeat_every=cfg.heartbeat_every,
                time_scale=cfg.time_scale,
                stop_event=self._stop_event,
                supervisor=cfg.supervision,
                on_reestablish=self._session_reestablished,
            )
            for name, updates in streams.items()
        ]

        self.metrics.mark_started()
        self._writer.start()
        for worker in self._workers:
            worker.start()
        for session in self._sessions:
            session.start()
        if self.injector is not None:
            self._watchdog = threading.Thread(
                target=self._watchdog_loop, name="watchdog", daemon=True)
            self._watchdog.start()

    # -- supervision --------------------------------------------------------

    def _dump_directory(self) -> Optional[str]:
        """Where flight-recorder dumps land: next to the archive."""
        directory = getattr(self.archive, "directory", None)
        return directory if isinstance(directory, str) else None

    def _queue_depths(self) -> Dict[str, object]:
        depths: Dict[str, object] = {
            f"ingest{i}": len(queue)
            for i, queue in enumerate(self._ingest_queues)
        }
        if self._writer_queue is not None:
            depths["writer"] = len(self._writer_queue)
        return depths

    def _dump_flight(self, reason: str) -> Optional[str]:
        """Dump the coordinator's black box next to the archive (a
        diagnostic artifact: wall clock, live metrics)."""
        directory = self._dump_directory()
        if directory is None:
            return None
        try:
            return self.flight.dump(directory, reason,
                                    registry=self.metrics.registry,
                                    queues=self._queue_depths())
        except OSError:
            return None         # a failing disk must not mask the fault

    def _on_writer_fatal(self, exc: BaseException) -> None:
        """The writer died: poison every queue so no producer or
        worker stays blocked behind the corpse, then let ``wait``
        re-raise."""
        self.flight.note("writer-fatal", error=repr(exc))
        self._dump_flight(f"writer-fatal {type(exc).__name__}")
        self._stop_event.set()
        for queue in self._ingest_queues:
            queue.close()
        if self._writer_queue is not None:
            self._writer_queue.close()

    def _watchdog_loop(self) -> None:
        """Replace workers wedged inside an injected stall.

        A shard counts as stalled when its in-flight envelope has made
        no progress for ``stall_timeout_s`` *and* the injector confirms
        the worker is inside a scheduled stall — the deterministic case
        where abandonment is provably safe.  The handoff protocol
        (:meth:`ShardWorker.surrender`) moves the stalled worker's
        unfinished batch — decided-but-unforwarded dispositions, the
        in-flight envelope and the rest — to the replacement exactly
        once; queued heartbeats drain through the replacement, so the
        writer's watermark is released instead of wedging forever.
        """
        cfg = self.config.supervision
        injector = self.injector
        assert injector is not None
        while not self._watchdog_stop.wait(cfg.watchdog_interval_s):
            with self._workers_lock:
                workers = list(enumerate(self._workers))
            for index, worker in workers:
                if worker.inflight is None:
                    continue
                stalled_for = time.monotonic() - worker.inflight_since
                if stalled_for < cfg.stall_timeout_s:
                    continue
                if not injector.holding(worker.shard):
                    continue
                handoff = worker.surrender()
                if handoff is None:
                    continue
                replacement = self._make_worker(
                    worker.shard, handoff=handoff,
                    start_count=worker.processed_count)
                with self._workers_lock:
                    self._replaced.append(worker)
                    self._workers[index] = replacement
                self.metrics.worker_restarts.inc()
                injector.record(
                    f"watchdog restarted shard{worker.shard} "
                    f"after {stalled_for:.2f}s stall")
                replacement.start()

    def _join_workers(self, timeout: Optional[float]) -> None:
        """Join workers while the watchdog may still replace them."""
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        while True:
            with self._workers_lock:
                alive = [w for w in self._workers + self._replaced
                         if w.is_alive()]
            if not alive:
                return
            if deadline is not None and time.monotonic() > deadline:
                shards = sorted({w.shard for w in alive})
                raise TimeoutError(f"shards {shards} did not finish")
            alive[0].join(0.05)

    def wait(self, timeout: Optional[float] = None) -> PipelineResult:
        """Block until every stage drained; return the run's result.

        Draining is lossless by construction: sessions finish (or are
        stopped, or quarantined) after handing over what they read,
        workers consume every queued update, and the writer flushes its
        per-session runs completely once all end-of-stream watermarks
        arrive.
        """
        if not self._started or self._writer is None:
            raise RuntimeError("pipeline not started")
        for session in self._sessions:
            session.join(timeout)
            if session.is_alive():
                raise TimeoutError(f"session {session.session} "
                                   f"did not finish")
        # All session end-markers are enqueued; now close the shards.
        # The watchdog stays up until the workers drain — a shard can
        # still be wedged in an injected stall at this point.
        with self._workers_lock:
            workers = list(self._workers)
        for worker in workers:
            try:
                worker.stop()
            except QueueClosed:
                pass        # writer died; workers are exiting anyway
        self._join_workers(timeout)
        self._watchdog_stop.set()
        if self._watchdog is not None:
            self._watchdog.join(timeout)
        self._writer.join(timeout)
        if self._writer.is_alive():
            raise TimeoutError("writer did not finish")
        if self.gill is not None:
            self.gill.close()
        # Nothing seals after the writer thread ended, whether it
        # drained or died; a timeout above leaves the run subscribed.
        self._release_archive()
        self.metrics.mark_stopped()
        if self._writer.error is not None:
            raise self._writer.error
        return self.result()

    def stop(self) -> None:
        """Ask the sessions to stop; queued updates still drain."""
        self._stop_event.set()

    def run(self, streams: Mapping[str, Iterable[BGPUpdate]],
            timeout: Optional[float] = None) -> PipelineResult:
        """Convenience: start, then wait for the full drain."""
        self.start(streams)
        return self.wait(timeout)

    # -- results -------------------------------------------------------------

    def snapshot(self) -> PipelineMetricsSnapshot:
        """A live metrics observation (any time, any thread)."""
        return self.metrics.snapshot()

    def result(self) -> PipelineResult:
        segments = tuple(self.archive.segments) if self.archive else ()
        with self._flagged_lock:
            flagged = tuple(self._flagged)
        fault_log = tuple(self.injector.log) if self.injector else ()
        return PipelineResult(self.metrics.snapshot(), segments,
                              flagged, fault_log)
