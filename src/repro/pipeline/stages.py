"""The three stage types of the concurrent collection runtime.

Data flows ``PeerSession -> ShardWorker -> WriterStage`` through
bounded queues:

* :class:`PeerSession` replays one peering session's time-ordered
  update iterator into its shard's ingest queue, one list per
  heartbeat interval.  When the queue is full it either *drops* the
  updates that do not fit (daemon-style loss, Table 1) or *blocks*
  (lossless backpressure), per the configured policy.
* :class:`ShardWorker` owns one ingest queue and runs the per-update
  stages — route validation, operator forwarding, filter
  evaluation — on each list it drains, then hands the dispositions to
  the writer queue as one list.
* :class:`WriterStage` restores global time order across shards from
  per-session runs and a watermark, and feeds retained updates to a
  :class:`~repro.bgp.archive.RollingArchiveWriter` in amortized
  batches.

Ordering across concurrent shards uses heartbeat markers: every
session periodically sends its current stream time through its own
ingest queue, so the marker reaches the writer only after every
earlier update from that session.  The writer's safe watermark is the
minimum over all sessions' marker times, and updates leave their
session's run only once they fall below it — this is
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
  stuck thread, and hand its unfinished batch to a replacement
  exactly once.
* The writer survives archive I/O errors by recovering the archive
  from its crash-consistent checkpoint and retrying; unrecoverable
  errors propagate to the runtime, which poisons the queues so no
  producer stays blocked behind the corpse.
"""

from __future__ import annotations

import math
import random
import threading
import time
import zlib
from collections import defaultdict, deque
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Deque, Dict, Iterable, List, Optional, Sequence

from ..bgp.archive import RollingArchiveWriter
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

#: Queue items a shard worker or the writer takes per lock acquisition.
WRITER_BATCH = 256


# -- queue payloads ----------------------------------------------------------
# Made once per update, so not frozen: a frozen dataclass's __init__
# costs five times a plain one's.  Nothing mutates them.  Slotted, like
# BGPUpdate: the writer's reorder runs hold about half a flood's
# dispositions at once, and a per-instance __dict__ is 120 B each.

@dataclass(slots=True)
class Envelope:
    """One update in flight, stamped for latency accounting."""

    update: BGPUpdate
    session: str
    enqueued_at: float     # perf_counter at ingest
    #: Sampled telemetry span, or None for the (common) unsampled
    #: case — stages guard on ``is not None`` so rate 0.0 costs one
    #: attribute read per update.
    trace: Optional[object] = None


@dataclass(frozen=True, slots=True)
class Heartbeat:
    """A session's progress marker, sent through the session's shard
    and forwarded unchanged to the writer."""

    session: str
    time: float            # stream time; END_OF_STREAM when finished


@dataclass(slots=True)
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
        #: Read since the last hand-over: at most a heartbeat interval.
        self._buffer: List[Envelope] = []
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
            self._hand_over()           # nothing read waits out a sleep
            time.sleep(ahead)

    def _is_malformed(self, update: BGPUpdate) -> bool:
        """Feeder garbage the session must not let into the pipeline:
        non-finite or negative timestamps, and time regressions that
        would poison the writer's per-session watermark."""
        t = update.time
        if t != t or t < 0 or math.isinf(t):
            return True
        return self._last_time is not None and t < self._last_time

    def _hand_over(self, marker: Optional[Heartbeat] = None) -> None:
        """Move what was read since the last hand-over, then
        ``marker``, to the shard as one list.  ``block`` waits for room
        (with ``degrade_after_s`` set, it degrades to ``drop`` after
        that long without any, until a hand-over fits again); ``drop``
        enqueues the prefix that fits and counts the rest as lost, like
        Table 1's overloaded CPU.  The marker always blocks: losing one
        stalls the watermark.
        """
        batch, self._buffer = self._buffer, []
        n = len(batch)
        if self.metrics.tracer.enabled:
            for envelope in batch:      # before the shard can see them
                if envelope.trace is not None:
                    envelope.trace.mark("ingest")
        if marker is not None:
            batch.append(marker)
        elif not n:
            return
        entered = 0
        if self.overflow_policy == "block" and not self._degraded:
            try:
                self.queue.put_many(
                    batch, timeout=self.supervisor.degrade_after_s)
                entered = len(batch)
            except QueueFull as full:
                entered = full.entered
                if entered < n:
                    self._degraded = True
                    self.metrics.degraded_episodes.inc()
        if entered < n:
            fitted = self.queue.try_put_many(batch[entered:n])
            if fitted:
                self._degraded = False
            entered += fitted
            self.meters.dropped.inc(n - entered)
            self.metrics.ingest.dropped.inc(n - entered)
            for envelope in batch[entered:n]:
                if envelope.trace is not None:
                    envelope.trace.abort()
        if entered <= n and marker is not None:
            self.queue.put(marker)
        self.meters.enqueued.inc(min(entered, n))
        self.metrics.ingest.processed.inc(min(entered, n))

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
        """Read ``source``, handing over at every heartbeat; however
        the replay ends, what was read goes out before the end-of-stream
        marker or the backoff."""
        tracer = self.metrics.tracer
        try:
            for update in source:
                if self.stop_event.is_set():
                    return
                if self._is_malformed(update):
                    self.meters.malformed.inc()
                    continue
                self._last_time = update.time
                if self.time_scale is not None:
                    self._pace(update.time)
                self._buffer.append(Envelope(
                    update, self.session, time.perf_counter(),
                    tracer.start(self.session)))
                self._since_heartbeat += 1
                if self._since_heartbeat >= self.heartbeat_every:
                    self._since_heartbeat = 0
                    self._hand_over(Heartbeat(self.session, update.time))
        finally:
            self._hand_over()


class ShardWorker(threading.Thread):
    """Runs validate -> forward -> filter on each drain of one shard's
    queue and forwards the drain, in queue order, as one list.

    For the watchdog the worker exposes ``inflight`` (the envelope it
    is working on) and ``inflight_since``; an abandonment protocol
    (``abandoned`` event + claim lock) lets the watchdog take the
    unfinished batch of a worker stuck in an injected stall and hand
    it to a replacement *exactly once*: either the watchdog surrenders
    it before the worker claims its envelope, or the worker finishes
    the envelope itself — never both, never neither.
    """

    def __init__(self, shard: int, ingest: BoundedQueue,
                 writer_queue: BoundedQueue,
                 filters: FilterTable,
                 metrics: PipelineMetrics,
                 validator: Optional[RouteValidator] = None,
                 validator_lock: Optional[threading.Lock] = None,
                 forwarding: Optional[ForwardingService] = None,
                 forwarding_lock: Optional[threading.Lock] = None,
                 flagged_sink: Optional[Callable[[BGPUpdate], None]] = None,
                 injector: Optional[FaultInjector] = None,
                 handoff: Optional[List[object]] = None,
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
        self._batch: Sequence[object] = ()
        self._decided: List[object] = []
        self._position = 0

    def stop(self) -> None:
        """Close this shard's ingest queue after the sessions finish."""
        self.ingest.put(_STOP)

    def surrender(self) -> Optional[List[object]]:
        """Watchdog side of the claim protocol: this worker's decided
        but unforwarded items, then its in-flight envelope and the rest
        of its batch — or None once it claimed the envelope."""
        with self.claim_lock:
            if self.claimed or self.inflight is None:
                return None
            self.surrendered = True
            handoff = self._decided + list(self._batch[self._position:])
        # Wake the stalled sleep; the worker sees ``surrendered`` and
        # exits without touching the batch or the queues again.
        self.abandoned.set()
        return handoff

    def _claim(self, envelope: Envelope, position: int) -> bool:
        """Sit out an injected stall on ``envelope``, then claim it
        (False when the watchdog took the batch first)."""
        with self.claim_lock:
            self.claimed = False
            self.inflight = envelope
            self._position = position
            self.inflight_since = time.monotonic()
        self.injector.maybe_stall(self.shard, self.processed_count,
                                  self.abandoned)
        with self.claim_lock:
            if self.surrendered:
                return False
            self.claimed = True
            return True

    def _decide(self, envelope: Envelope) -> Optional[Disposition]:
        """The verdict on one update; None when the validator flagged
        it (counted here: flagged updates never reach the writer)."""
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
                return None
        if self.forwarding is not None:
            # Operators see the raw stream before any discard (§14).
            with self.forwarding_lock:
                reached = len(self.forwarding.process(update))
            if reached:
                metrics.forwarded.inc(reached)
        retained = self.filters.accept(update)
        metrics.process.latency.record(
            time.perf_counter() - envelope.enqueued_at)
        if trace is not None:
            trace.mark("process")
        return Disposition(update, retained, envelope.session,
                           envelope.enqueued_at, trace)

    def _work(self, batch: Sequence[object]) -> bool:
        """Decide ``batch`` and forward it with one ``put_many``; True
        once the worker is done (stop sentinel, or surrendered)."""
        decided: List[object] = []
        # Only a chaos run has a watchdog, so only it pays for claims.
        claims = self.injector is not None
        if claims:
            with self.claim_lock:
                self._batch, self._decided = batch, decided
        judged = retained = 0
        done = False
        for position, item in enumerate(batch):
            if item is _STOP:
                done = True
                break
            if isinstance(item, (Heartbeat, Disposition)):
                # Forwarded as is: FIFO puts a heartbeat behind every
                # disposition it vouches for (and a predecessor's
                # decided dispositions ride ahead of its handoff).
                decided.append(item)
                continue
            self.processed_count += 1
            if claims and not self._claim(item, position):
                done = True
                break
            disposition = self._decide(item)
            if disposition is not None:
                decided.append(disposition)
                judged += 1
                retained += disposition.retained
        self.inflight = None
        metrics = self.metrics
        metrics.retained.inc(retained)
        metrics.discarded.inc(judged - retained)
        metrics.process.processed.inc(judged)
        if decided and not self.surrendered:
            self.writer_queue.put_many(decided)
        return done

    def run(self) -> None:
        # A replacement starts on its abandoned predecessor's batch.
        batch, self.handoff = self.handoff or (), None
        try:
            while not self._work(batch):
                try:
                    batch = self.ingest.get_many(WRITER_BATCH, timeout=0.1)
                except QueueEmpty:
                    batch = ()
            if not self.surrendered:
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
    With a gill filter the writer is also the filter's ``sealer``:
    the filter seals each slot's segment through :meth:`seal` before
    it waits for the slot's scores, and publishes it through
    :meth:`publish` after journaling the slot — the same archive path
    (fault wrapper, recovery) as every write.
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
        if gill is not None and archive is not None:
            gill.sealer = self
        self.mirror = mirror
        self.max_archive_recoveries = max_archive_recoveries
        self.on_fatal = on_fatal
        # Safe watermark state: minimum over every session of the
        # last heartbeat time it sent (a session lives on one shard,
        # whose FIFO queue orders the marker after its updates).
        self._watermarks: Dict[str, float] = {
            session: -END_OF_STREAM for session in sessions}
        self._pending_shards = n_shards
        #: Each session's unemitted dispositions in arrival order, which
        #: is time order (one shard's FIFO queues; no regressions).
        self._runs: Dict[str, Deque[Disposition]] = defaultdict(deque)
        self._last_emitted = -END_OF_STREAM
        self._recoveries = 0
        self._sealed = False        # a segment sealed since last reset
        self.error: Optional[BaseException] = None

    def _safe_watermark(self) -> float:
        if not self._watermarks:
            return END_OF_STREAM
        return min(self._watermarks.values())

    def _write_archived(self, update: BGPUpdate) -> None:
        if self._archived(self.archive.write, update) is not None:
            self.metrics.segments.inc()
            self._sealed = True

    def seal(self) -> None:
        """Seal the archive's open segment (the gill filter's slot is
        complete), holding its manifest entry for :meth:`publish`."""
        if self._archived(self.archive.seal) is not None:
            self.metrics.segments.inc()
            self._sealed = True

    def publish(self) -> None:
        """Publish the segment :meth:`seal` held back."""
        self._archived(self.archive.publish)

    def _archived(self, operation: Callable, *args):
        try:
            return operation(*args)
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
            # so the retry is order-safe (a retried seal or publish
            # finds nothing left to do).
            return operation(*args)

    def _emit_ready(self) -> None:
        """Flush every *complete* equal-time group below the watermark.

        Entries strictly below the safe watermark are complete: every
        session has heartbeat past their timestamp, so (queues being
        FIFO) no further disposition at those times can still be in
        flight.  Each run is time-ordered, so its complete entries are
        its head.  They are released together, in
        ``(time, canonical key, session)`` order — arrival order across
        shards is a scheduler accident, and sorting the ties is what
        makes the archive byte stream identical across shard counts and
        a partitioned merge.  Entries *at* the watermark wait: a
        session whose heartbeat equals their time may still send more
        updates at that same timestamp.
        """
        watermark = self._safe_watermark()
        batch: List[Disposition] = []
        for run in self._runs.values():
            while run and run[0].update.time < watermark:
                batch.append(run.popleft())
        if not batch:
            return
        batch.sort(key=lambda d: (d.update.time,
                                  canonical_key(d.update), d.session))
        metrics = self.metrics
        metrics.write.processed.inc(len(batch))
        emitted = False
        for disposition in batch:
            if disposition.update.time < self._last_emitted:
                # Defensive: FIFO loss (e.g. a genuinely stuck worker
                # whose item surfaced late).  Emitting would corrupt
                # the order-strict archive and mirror; count and skip.
                metrics.order_violations.inc()
                if disposition.trace is not None:
                    disposition.trace.abort()
                continue
            self._last_emitted = disposition.update.time
            emitted = True
            self._sealed = False
            if self.mirror is not None:
                self.mirror(disposition.update, disposition.retained)
            if disposition.retained and self.archive is not None:
                if self.gill is not None:
                    # The gill filter buffers equal-time updates and
                    # releases the kept ones of completed timestamps in
                    # a canonical order, so the filtered archive is
                    # deterministic regardless of arrival order.
                    for ready in self.gill.offer(disposition.update):
                        self._write_archived(ready)
                else:
                    self._write_archived(disposition.update)
            metrics.write.latency.record(
                time.perf_counter() - disposition.enqueued_at)
            if disposition.trace is not None:
                disposition.trace.mark("write")
                if self._sealed:
                    # This write also rolled a segment: give the seal
                    # its own stage.
                    disposition.trace.mark("seal")
                disposition.trace.finish()
        if emitted:
            metrics.writer_watermark.set(self._last_emitted)
            metrics.writer_watermark_wall.set(time.time())

    def _ingest(self, items: Sequence[object]) -> None:
        runs, watermarks = self._runs, self._watermarks
        for item in items:
            if isinstance(item, Disposition):
                runs[item.session].append(item)
            elif isinstance(item, Heartbeat):
                # Late or duplicate heartbeats must never rewind a
                # watermark — only strictly newer times advance it.
                if item.time > watermarks.get(item.session,
                                              -END_OF_STREAM):
                    watermarks[item.session] = item.time
            elif isinstance(item, ShardDone):
                self._pending_shards -= 1

    def run(self) -> None:
        try:
            while self._pending_shards > 0:
                try:
                    self._ingest(self.queue.get_many(WRITER_BATCH,
                                                     timeout=0.05))
                except QueueEmpty:
                    pass
                self._emit_ready()
            # Every worker has exited (the queue is FIFO, so nothing of
            # theirs is still buffered) and no further watermark can
            # arrive: flush the runs unconditionally.  END_OF_STREAM
            # markers normally make this a no-op; it also terminates
            # runs whose sessions died before sending them.
            self._watermarks.clear()
            self._emit_ready()
            if self.gill is not None and self.archive is not None:
                # Decide the final equal-time batch and journal the
                # last slot before the archive seals it.
                for ready in self.gill.flush():
                    self._write_archived(ready)
            if self.archive is not None:
                if self.archive.close() is not None:
                    self.metrics.segments.inc()
        except BaseException as exc:   # surfaced by the pipeline
            self.error = exc
            if self.on_fatal is not None:
                self.on_fatal(exc)
        finally:
            if self.gill is not None:
                self.gill.sealer = None
