"""The three stage types of the concurrent collection runtime.

Data flows ``PeerSession -> ShardWorker -> WriterStage`` through
bounded queues:

* :class:`PeerSession` replays one peering session's time-ordered
  update iterator into its shard's ingest queue.  When the queue is
  full it either *drops* the update (daemon-style loss, Table 1) or
  *blocks* (lossless backpressure), per the configured policy.
* :class:`ShardWorker` owns one ingest queue and runs the per-update
  stages — parse-cost accounting, route validation, operator
  forwarding, filter evaluation — then hands the disposition to the
  writer queue.
* :class:`WriterStage` restores global time order across shards with a
  watermark reorder buffer and feeds retained updates to a
  :class:`~repro.bgp.archive.RollingArchiveWriter` in amortized
  batches.

Ordering across concurrent shards uses heartbeat markers: every
session periodically sends its current stream time through its own
ingest queue, so the marker reaches the writer only after every
earlier update from that session.  The writer's safe watermark is the
minimum over all sessions' marker times, and updates leave the
reorder heap only once they fall below it — this is
what lets many unsynchronized workers feed an archive format that
demands nondecreasing timestamps.

Fault tolerance (docs/FAULTS.md): each stage now *supervises* its own
failure modes instead of dying silently.

* A session whose iterator raises is restarted with exponential
  backoff and seeded jitter; too many restarts trip the flap
  circuit breaker and quarantine the session (its end-of-stream
  marker still releases the writer's watermark).  Malformed and
  out-of-time-order updates are skipped and counted, never enqueued.
  Under sustained downstream stall a ``block``-policy session degrades
  to ``drop`` so it cannot wedge behind a dead consumer forever.
* A worker exposes its in-flight envelope and a progress timestamp so
  the runtime's watchdog can detect a stalled shard, abandon the
  stuck thread, and hand the envelope to a replacement exactly once.
* The writer survives archive I/O errors by recovering the archive
  from its crash-consistent checkpoint and retrying; unrecoverable
  errors propagate to the runtime, which poisons the queues so no
  producer stays blocked behind the corpse.
"""

from __future__ import annotations

import heapq
import math
import random
import threading
import time
import zlib
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, \
    Tuple

from ..bgp.archive import RollingArchiveWriter
from ..bgp.daemon import FILTER_COST, PARSE_COST, WRITE_COST
from ..bgp.filtering import FilterTable
from ..bgp.message import BGPUpdate, canonical_key
from ..bgp.validation import RouteValidator
from ..core.forwarding import ForwardingService
from ..telemetry import bind
from .faults import FaultInjector, SupervisorConfig
from .metrics import SESSION_METRICS, PipelineMetrics
from .queues import BoundedQueue, QueueClosed, QueueEmpty, QueueFull

#: Marker time meaning "this session will send nothing further".
END_OF_STREAM = float("inf")

#: Queue items the writer takes per lock acquisition, then emits.
WRITER_BATCH = 256


# -- queue payloads ----------------------------------------------------------

@dataclass(frozen=True)
class Envelope:
    """One update in flight, stamped for latency accounting."""

    update: BGPUpdate
    session: str
    enqueued_at: float     # perf_counter at ingest
    #: Sampled telemetry span, or None for the (common) unsampled
    #: case — stages guard on ``is not None`` so rate 0.0 costs one
    #: attribute read per update.
    trace: Optional[object] = None


@dataclass(frozen=True)
class Heartbeat:
    """A session's progress marker, sent through the session's shard
    and forwarded unchanged to the writer."""

    session: str
    time: float            # stream time; END_OF_STREAM when finished


@dataclass(frozen=True)
class Disposition:
    """A worker's verdict on one update, bound for the writer."""

    update: BGPUpdate
    retained: bool
    session: str
    enqueued_at: float
    #: The envelope's sampled span, carried through to the writer.
    trace: Optional[object] = None


class ShardDone:
    """Sentinel a worker sends the writer when it exits."""


#: Sentinel closing a shard's ingest queue.
_STOP = object()


# -- CPU capacity model ------------------------------------------------------

class ServiceCostModel:
    """Charges daemon work units against a real-time budget.

    Reuses the calibrated Table-1 costs from :mod:`repro.bgp.daemon`:
    each update costs parse + filter units, plus the dominant write
    cost when retained.  ``units_per_s`` is the modelled CPU capacity;
    consuming faster than it accrues puts the worker to sleep, so the
    pipeline *empirically* saturates exactly where the analytic
    ``steady_state_loss`` predicts.  Sleeps are amortized: the worker
    only yields once it falls a few milliseconds behind, keeping the
    aggregate rate accurate despite coarse timer granularity.
    """

    def __init__(self, units_per_s: float, min_sleep_s: float = 0.002):
        if units_per_s <= 0:
            raise ValueError("capacity must be positive")
        self.units_per_s = units_per_s
        self.min_sleep_s = min_sleep_s
        self._lock = threading.Lock()
        self._credit_s = 0.0
        self._last = time.perf_counter()

    @staticmethod
    def cost(retained: bool) -> float:
        base = PARSE_COST + FILTER_COST
        return base + WRITE_COST if retained else base

    def charge(self, retained: bool) -> None:
        """Consume one update's work; sleep off any accumulated debt."""
        with self._lock:
            now = time.perf_counter()
            self._credit_s += now - self._last
            self._last = now
            # Cap banked idle time so bursts cannot borrow the future.
            if self._credit_s > 0.05:
                self._credit_s = 0.05
            self._credit_s -= self.cost(retained) / self.units_per_s
            debt = -self._credit_s
        if debt > self.min_sleep_s:
            time.sleep(debt)


# -- stage threads -----------------------------------------------------------

class PeerSession(threading.Thread):
    """Replays one peering session into its shard's ingest queue.

    The shard is ``crc32(session name) % n_shards``: stable across
    runs, so seeded fault plans address the same shard every time.

    The thread is its own supervisor: exceptions from the update
    iterator (a disconnect, a flap, feeder garbage mid-``next``) do
    not kill it.  Each failure backs off exponentially (with seeded
    jitter) and resumes the *same* iterator — the replay analogue of a
    BGP session re-establishing and continuing from the peer's live
    state.  After ``quarantine_after`` consecutive failures the flap
    circuit breaker opens and the session is quarantined: its
    remaining stream is abandoned but its end-of-stream marker is
    still sent, so the writer's watermark never wedges on it.
    """

    def __init__(self, name: str, updates: Iterable[BGPUpdate],
                 ingest_queues: Sequence[BoundedQueue],
                 metrics: PipelineMetrics,
                 overflow_policy: str = "drop",
                 heartbeat_every: int = 64,
                 time_scale: Optional[float] = None,
                 stop_event: Optional[threading.Event] = None,
                 supervisor: Optional[SupervisorConfig] = None,
                 on_reestablish: Optional[Callable[[str], None]] = None):
        super().__init__(name=f"session-{name}", daemon=True)
        self.session = name
        self.updates = updates
        self.queue = ingest_queues[
            zlib.crc32(name.encode()) % len(ingest_queues)]
        self.metrics = metrics
        if overflow_policy not in ("drop", "block"):
            raise ValueError("overflow_policy must be 'drop' or 'block'")
        self.overflow_policy = overflow_policy
        self.heartbeat_every = max(1, heartbeat_every)
        #: Stream seconds replayed per wall-clock second; None = flood.
        self.time_scale = time_scale
        self.stop_event = stop_event or threading.Event()
        self.supervisor = supervisor or SupervisorConfig()
        self.on_reestablish = on_reestablish
        self.restarts = 0
        self.quarantined = False
        # Per-session replay state survives restarts: the resumed
        # iterator continues mid-stream, so pacing origin, heartbeat
        # phase and the monotonic-time guard must too.
        self._stream_t0: Optional[float] = None
        self._wall_t0: Optional[float] = None
        self._since_heartbeat = 0
        self._last_time: Optional[float] = None
        self._degraded = False
        #: This session's row of the ``repro_session_*`` families, one
        #: child per :class:`~repro.pipeline.metrics.SessionSnapshot`
        #: field.
        self.meters = SimpleNamespace(
            **bind(metrics.registry, SESSION_METRICS, name))

    def _pace(self, stream_time: float) -> None:
        if self._stream_t0 is None or self._wall_t0 is None:
            self._stream_t0 = stream_time
            self._wall_t0 = time.perf_counter()
            return
        target = self._wall_t0 \
            + (stream_time - self._stream_t0) / self.time_scale
        ahead = target - time.perf_counter()
        if ahead > 0.002:
            # Amortized pacing: only sleep once meaningfully ahead, so
            # timer granularity does not distort the aggregate rate.
            time.sleep(ahead)

    def _is_malformed(self, update: BGPUpdate) -> bool:
        """Feeder garbage the session must not let into the pipeline:
        non-finite or negative timestamps, and time regressions that
        would poison the writer's per-session watermark."""
        t = update.time
        if t != t or t < 0 or math.isinf(t):
            return True
        return self._last_time is not None and t < self._last_time

    def _offer(self, envelope: Envelope) -> None:
        queue = self.queue
        meters, ingest = self.meters, self.metrics.ingest
        if self.overflow_policy == "block" and not self._degraded:
            try:
                queue.put(envelope,
                          timeout=self.supervisor.degrade_after_s)
                meters.enqueued.inc()
                ingest.processed.inc()
                if envelope.trace is not None:
                    envelope.trace.mark("ingest")
                return
            except QueueFull:
                # Sustained downstream stall: degrade to drop mode so
                # this producer cannot hang forever behind a wedged
                # consumer.  First successful try_put restores block.
                self._degraded = True
                self.metrics.degraded_episodes.inc()
        if queue.try_put(envelope):
            meters.enqueued.inc()
            ingest.processed.inc()
            if envelope.trace is not None:
                envelope.trace.mark("ingest")
            self._degraded = False
        else:
            # Daemon-style loss: a full queue means the update is
            # gone, exactly like Table 1's overloaded CPU.
            meters.dropped.inc()
            ingest.dropped.inc()
            if envelope.trace is not None:
                envelope.trace.abort()

    def run(self) -> None:
        cfg = self.supervisor
        rng = random.Random(f"{cfg.seed}:{self.session}")
        source = iter(self.updates)
        failures = 0
        try:
            while not self.stop_event.is_set():
                try:
                    self._replay(source)
                    return                    # stream exhausted
                except QueueClosed:
                    return                    # downstream died
                except Exception:
                    failures += 1
                    if failures >= cfg.quarantine_after:
                        # Flap circuit breaker: abandon the stream.
                        self.quarantined = True
                        self.meters.quarantined.set(1)
                        return
                    delay = cfg.backoff_s(failures, rng)
                    self.restarts += 1
                    self.meters.restarts.inc()
                    self.meters.backoff_s.set(delay)
                    interrupted = self.stop_event.wait(delay)
                    self.meters.backoff_s.set(0.0)
                    if interrupted:
                        return
                    # Re-established: §8 — the peer re-dumps its RIB.
                    if self.on_reestablish is not None:
                        self.on_reestablish(self.session)
        finally:
            try:
                self.queue.put(Heartbeat(self.session, END_OF_STREAM))
            except QueueClosed:
                pass

    def _replay(self, source) -> None:
        for update in source:
            if self.stop_event.is_set():
                return
            if self._is_malformed(update):
                self.meters.malformed.inc()
                continue
            self._last_time = update.time
            if self.time_scale is not None:
                self._pace(update.time)
            self._offer(Envelope(
                update, self.session, time.perf_counter(),
                self.metrics.tracer.start(self.session)))
            self._since_heartbeat += 1
            if self._since_heartbeat >= self.heartbeat_every:
                self._since_heartbeat = 0
                # Markers always use the blocking put: losing one
                # would stall or corrupt the writer's watermark.
                self.queue.put(Heartbeat(self.session, update.time))


class ShardWorker(threading.Thread):
    """Runs validate -> forward -> filter for one shard's queue.

    For the watchdog the worker exposes ``inflight`` (the envelope it
    is working on) and ``inflight_since``; an abandonment protocol
    (``abandoned`` event + claim lock) lets the watchdog take the
    in-flight envelope from a worker stuck in an injected stall and
    hand it to a replacement *exactly once*: either the watchdog
    surrenders it to the replacement before the worker claims it, or
    the worker finishes it itself — never both, never neither.
    """

    def __init__(self, shard: int, ingest: BoundedQueue,
                 writer_queue: BoundedQueue,
                 filters: FilterTable,
                 metrics: PipelineMetrics,
                 validator: Optional[RouteValidator] = None,
                 validator_lock: Optional[threading.Lock] = None,
                 forwarding: Optional[ForwardingService] = None,
                 forwarding_lock: Optional[threading.Lock] = None,
                 cost_model: Optional[ServiceCostModel] = None,
                 flagged_sink: Optional[Callable[[BGPUpdate], None]] = None,
                 injector: Optional[FaultInjector] = None,
                 handoff: Optional[Envelope] = None,
                 start_count: int = 0):
        super().__init__(name=f"shard-{shard}", daemon=True)
        self.shard = shard
        self.ingest = ingest
        self.writer_queue = writer_queue
        self.filters = filters
        self.metrics = metrics
        self.validator = validator
        self.validator_lock = validator_lock or threading.Lock()
        self.forwarding = forwarding
        self.forwarding_lock = forwarding_lock or threading.Lock()
        self.cost_model = cost_model
        self.flagged_sink = flagged_sink
        self.injector = injector
        self.handoff = handoff
        self.processed_count = start_count
        # Watchdog protocol state.
        self.abandoned = threading.Event()
        self.claim_lock = threading.Lock()
        self.claimed = False
        self.surrendered = False
        self.inflight: Optional[Envelope] = None
        self.inflight_since = 0.0

    def stop(self) -> None:
        """Close this shard's ingest queue after the sessions finish."""
        self.ingest.put(_STOP)

    def _handle(self, envelope: Envelope) -> None:
        update = envelope.update
        trace = envelope.trace
        metrics = self.metrics
        if trace is not None:
            trace.mark("queue")
        if self.validator is not None:
            with self.validator_lock:
                verdict = self.validator.validate(update)
            if verdict.flagged:
                # Quarantined: never archived, never mirrored (§14).
                metrics.flagged.inc()
                metrics.process.processed.inc()
                if self.flagged_sink is not None:
                    self.flagged_sink(update)
                metrics.process.latency.record(
                    time.perf_counter() - envelope.enqueued_at)
                if trace is not None:
                    # The span ends here: flagged updates never reach
                    # the writer.
                    trace.mark("process")
                    trace.finish()
                return
        reached = 0
        if self.forwarding is not None:
            # Operators see the raw stream before any discard (§14).
            with self.forwarding_lock:
                reached = len(self.forwarding.process(update))
        retained = self.filters.accept(update)
        if self.cost_model is not None:
            self.cost_model.charge(retained)
        (metrics.retained if retained else metrics.discarded).inc()
        if reached:
            metrics.forwarded.inc(reached)
        metrics.process.processed.inc()
        metrics.process.latency.record(
            time.perf_counter() - envelope.enqueued_at)
        if trace is not None:
            trace.mark("process")
        self.writer_queue.put(Disposition(update, retained,
                                          envelope.session,
                                          envelope.enqueued_at,
                                          trace))

    def _process_envelope(self, envelope: Envelope) -> None:
        with self.claim_lock:
            self.claimed = False
            self.surrendered = False
            self.inflight = envelope
            self.inflight_since = time.monotonic()
        self.processed_count += 1
        if self.injector is not None:
            self.injector.maybe_stall(self.shard, self.processed_count,
                                      self.abandoned)
        # Claim the envelope: from here on the watchdog cannot hand it
        # to a replacement, so we either finish it or it was already
        # surrendered — exactly-once either way.
        with self.claim_lock:
            if self.surrendered:
                return
            self.claimed = True
        self._handle(envelope)
        self.inflight = None

    def run(self) -> None:
        try:
            if self.handoff is not None:
                # Envelope inherited from an abandoned predecessor;
                # FIFO is preserved because the predecessor took it
                # from the queue head and forwarded nothing after it.
                self._process_envelope(self.handoff)
                self.handoff = None
            while True:
                if self.abandoned.is_set():
                    return          # replaced; the successor owns the queue
                try:
                    item = self.ingest.get(timeout=0.1)
                except QueueEmpty:
                    continue
                if item is _STOP:
                    break
                if isinstance(item, Heartbeat):
                    # Forwarded as is: FIFO puts it behind every
                    # disposition it vouches for.
                    self.writer_queue.put(item)
                    continue
                self._process_envelope(item)
            self.writer_queue.put(ShardDone())
        except QueueClosed:
            # The runtime poisoned the queues (writer death); exit
            # without a ShardDone — nobody is listening.
            return


class WriterStage(threading.Thread):
    """Reorders dispositions by watermark and batches archive writes.

    Archive ``OSError`` failures are absorbed up to
    ``max_archive_recoveries`` times: the writer recovers the archive
    from its crash-consistent checkpoint (torn segment truncated,
    in-memory pending discarded and counted) and retries the write.
    Anything else — or an exhausted recovery budget — is fatal: the
    error is surfaced and ``on_fatal`` lets the runtime poison the
    queues so upstream stages never deadlock against a dead writer.
    """

    def __init__(self, writer_queue: BoundedQueue,
                 n_shards: int,
                 sessions: Sequence[str],
                 metrics: PipelineMetrics,
                 archive: Optional[RollingArchiveWriter] = None,
                 mirror: Optional[Callable[[BGPUpdate, bool], None]] = None,
                 max_archive_recoveries: int = 3,
                 on_fatal: Optional[Callable[[BaseException], None]] = None,
                 gill=None):
        super().__init__(name="writer", daemon=True)
        self.queue = writer_queue
        self.metrics = metrics
        self.archive = archive
        self.gill = gill
        self.mirror = mirror
        self.max_archive_recoveries = max_archive_recoveries
        self.on_fatal = on_fatal
        # Safe watermark state: minimum over every session of the
        # last heartbeat time it sent (a session lives on one shard,
        # whose FIFO queue orders the marker after its updates).
        self._watermarks: Dict[str, float] = {
            session: -END_OF_STREAM for session in sessions}
        self._pending_shards = n_shards
        self._heap: List[Tuple[float, int, Disposition]] = []
        self._sequence = 0
        self._last_emitted = -END_OF_STREAM
        self._recoveries = 0
        self.reorder_high_water = 0
        self.error: Optional[BaseException] = None

    def _safe_watermark(self) -> float:
        if not self._watermarks:
            return END_OF_STREAM
        return min(self._watermarks.values())

    def _write_archived(self, update: BGPUpdate):
        try:
            return self.archive.write(update)
        except OSError:
            self.metrics.writer_io_errors.inc()
            if self._recoveries >= self.max_archive_recoveries:
                raise
            recover = getattr(self.archive, "recover", None)
            if recover is None:
                raise
            self._recoveries += 1
            report = recover()
            self.metrics.archive_recoveries.inc()
            lost = getattr(report, "lost_pending", 0)
            if lost:
                self.metrics.archive_lost.inc(lost)
            # The checkpoint rewound the archive to its last durable
            # segment; the current update is at or past the watermark,
            # so the retry is order-safe.
            return self.archive.write(update)

    def _emit_ready(self) -> None:
        """Flush every *complete* equal-time run below the watermark.

        Entries strictly below the safe watermark are complete: every
        session has heartbeat past their timestamp, so (queues being
        FIFO) no further disposition at those times can still be in
        flight.  Each equal-time run is therefore released whole, in
        canonical attribute order — arrival order across shards is a
        scheduler accident, and sorting the ties is what makes the
        archive byte stream identical across shard counts and a
        partitioned merge.  Entries *at* the watermark wait: a session whose heartbeat equals their
        time may still send more updates at that same timestamp.
        """
        watermark = self._safe_watermark()
        batch: List[Disposition] = []
        while self._heap and self._heap[0][0] < watermark:
            batch.append(heapq.heappop(self._heap)[2])
        batch.sort(key=lambda d: (d.update.time,
                                  canonical_key(d.update), d.session))
        metrics = self.metrics
        written = metrics.write.processed
        emitted = False
        for disposition in batch:
            if disposition.update.time < self._last_emitted:
                # Defensive: FIFO loss (e.g. a genuinely stuck worker
                # whose item surfaced late).  Emitting would corrupt
                # the order-strict archive and mirror; count and skip.
                metrics.order_violations.inc()
                written.inc()
                if disposition.trace is not None:
                    disposition.trace.abort()
                continue
            self._last_emitted = disposition.update.time
            emitted = True
            sealed = False
            if self.mirror is not None:
                self.mirror(disposition.update, disposition.retained)
            if disposition.retained and self.archive is not None:
                if self.gill is not None:
                    # The gill filter buffers equal-time updates and
                    # releases the kept ones of completed timestamps in
                    # a canonical order, so the filtered archive is
                    # deterministic regardless of heap arrival order.
                    for ready in self.gill.offer(disposition.update):
                        if self._write_archived(ready) is not None:
                            metrics.segments.inc()
                            sealed = True
                else:
                    segment = self._write_archived(disposition.update)
                    if segment is not None:
                        metrics.segments.inc()
                        sealed = True
            written.inc()
            metrics.write.latency.record(
                time.perf_counter() - disposition.enqueued_at)
            if disposition.trace is not None:
                disposition.trace.mark("write")
                if sealed:
                    # This write also rolled a segment: give the seal
                    # its own stage.
                    disposition.trace.mark("seal")
                disposition.trace.finish()
        if emitted:
            metrics.writer_watermark.set(self._last_emitted)
            metrics.writer_watermark_wall.set(time.time())

    def _ingest_one(self, item: object) -> None:
        if isinstance(item, Disposition):
            heapq.heappush(self._heap,
                           (item.update.time, self._sequence, item))
            self._sequence += 1
            if len(self._heap) > self.reorder_high_water:
                self.reorder_high_water = len(self._heap)
        elif isinstance(item, Heartbeat):
            # Late or duplicate heartbeats must never rewind a
            # watermark — only strictly newer times advance it.
            if item.time > self._watermarks.get(item.session,
                                                -END_OF_STREAM):
                self._watermarks[item.session] = item.time
        elif isinstance(item, ShardDone):
            self._pending_shards -= 1

    def run(self) -> None:
        try:
            while self._pending_shards > 0:
                try:
                    for item in self.queue.get_many(WRITER_BATCH,
                                                    timeout=0.05):
                        self._ingest_one(item)
                except QueueEmpty:
                    pass
                self._emit_ready()
            # Every worker has exited (the queue is FIFO, so nothing of
            # theirs is still buffered) and no further watermark can
            # arrive: flush the heap unconditionally.  END_OF_STREAM
            # markers normally make this a no-op; it also terminates
            # runs whose sessions died before sending them.
            self._watermarks.clear()
            self._emit_ready()
            if self.gill is not None and self.archive is not None:
                # Decide the final equal-time batch and journal the
                # last slot before the archive seals it.
                for ready in self.gill.flush():
                    if self._write_archived(ready) is not None:
                        self.metrics.segments.inc()
            if self.archive is not None:
                if self.archive.close() is not None:
                    self.metrics.segments.inc()
        except BaseException as exc:   # surfaced by the pipeline
            self.error = exc
            if self.on_fatal is not None:
                self.on_fatal(exc)
