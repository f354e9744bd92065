"""Chaos tests: injected faults, supervision, and crash recovery."""

import math
import time
import zlib

import pytest

from repro.bgp.archive import RollingArchiveWriter
from repro.bgp.message import BGPUpdate
from repro.bgp.prefix import Prefix
from repro.bgp.session import SessionManager
from repro.core.orchestrator import Orchestrator, OrchestratorConfig
from repro.pipeline import (
    BoundedQueue,
    CollectionPipeline,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    PeerSession,
    PipelineConfig,
    PipelineMetrics,
    SessionFault,
    SupervisorConfig,
    WriterStage,
)
from repro.pipeline.faults import REORDER_SKEW_S, FaultyStream
from repro.pipeline.stages import END_OF_STREAM, Disposition, Heartbeat, \
    ShardDone
from repro.workload import StreamConfig, SyntheticStreamGenerator, \
    split_by_vp

TIMEOUT = 30.0

P1 = Prefix.parse("10.0.0.0/24")


def upd(t, vp="vp1"):
    return BGPUpdate(vp, t, P1, (1, 2))


def fast_supervision(**overrides):
    """Supervision tuned for test wall-clock: quick backoff/watchdog."""
    defaults = dict(backoff_initial_s=0.005, backoff_max_s=0.02,
                    watchdog_interval_s=0.02, stall_timeout_s=0.1)
    defaults.update(overrides)
    return SupervisorConfig(**defaults)


def assert_accounted(result):
    m = result.metrics
    assert result.accounted, (
        f"lost updates: received={m.received} dropped={m.ingest_dropped} "
        f"flagged={m.flagged} retained={m.retained} "
        f"discarded={m.discarded}"
    )


@pytest.fixture(scope="module")
def synthetic_stream():
    generator = SyntheticStreamGenerator(StreamConfig(
        n_vps=8, n_prefix_groups=8, duration_s=1200.0, seed=11,
    ))
    _, stream = generator.generate()
    return stream


class TestFaultSpec:
    def test_parse_roundtrip(self):
        plan = FaultPlan.parse(
            "disconnect=vp1@120x3, stall=shard1@50~inf;"
            "io-error=writer@2,malformed=vp2@7")
        assert len(plan.specs) == 4
        assert plan.describe() == ("disconnect=vp1@120x3,"
                                   "stall=shard1@50~inf,"
                                   "io-error=writer@2,malformed=vp2@7")
        assert plan.specs[1].duration_s == math.inf
        assert plan.specs[0].positions() == (120, 240, 360)

    @pytest.mark.parametrize("text", [
        "explode=vp1@5",              # unknown kind
        "disconnect=vp1@0",           # position must be positive
        "stall=vp1@5",                # stalls target shards
        "io-error=vp1@5",             # io-errors target the writer
        "disconnect=vp1",             # missing position
    ])
    def test_bad_specs_rejected(self, text):
        with pytest.raises(ValueError):
            FaultPlan.parse(text)

    def test_seeded_plan_is_deterministic(self):
        kwargs = dict(sessions=["a", "b", "c"], n_shards=4, horizon=200)
        assert FaultPlan.seeded(42, **kwargs) \
            == FaultPlan.seeded(42, **kwargs)
        assert FaultPlan.seeded(42, **kwargs) \
            != FaultPlan.seeded(43, **kwargs)

    def test_selectors(self):
        plan = FaultPlan.parse(
            "disconnect=a@1,malformed=a@2,stall=shard0@3~1,"
            "io-error=writer@4,crash=writer@5")
        assert {s.kind for s in plan.for_session("a")} \
            == {"disconnect", "malformed"}
        assert len(plan.for_shard(0)) == 1
        assert plan.for_shard(1) == ()
        assert {s.kind for s in plan.for_writer()} \
            == {"io-error", "crash"}


class TestCorruptionFaults:
    """The disk-rot kinds: bitflip / truncate / torn-index / slow-read."""

    def test_parse_corruption_kinds(self):
        plan = FaultPlan.parse(
            "bitflip=archive@2,truncate=archive@4,"
            "torn-index=archive@1,slow-read=reader@3~0.2")
        assert len(plan.specs) == 4
        assert {s.kind for s in plan.for_archive()} \
            == {"bitflip", "truncate", "torn-index"}
        assert plan.for_reader()[0].duration_s == 0.2
        # Corruption kinds never reach the session/writer selectors.
        assert plan.for_writer() == ()
        assert plan.for_session("archive") == ()

    @pytest.mark.parametrize("text", [
        "bitflip=writer@1",           # corruption targets the archive
        "truncate=vp1@1",
        "torn-index=reader@1",
        "slow-read=archive@1~0.1",    # slow-read targets the reader
        "slow-read=writer@1",
    ])
    def test_bad_targets_rejected(self, text):
        with pytest.raises(ValueError):
            FaultPlan.parse(text)

    def test_seeded_plan_can_include_corruptions(self):
        kwargs = dict(sessions=["a", "b"], n_shards=2, horizon=200,
                      corruptions=2, slow_reads=1)
        plan = FaultPlan.seeded(7, **kwargs)
        assert plan == FaultPlan.seeded(7, **kwargs)
        assert len(plan.for_archive()) == 2
        assert len(plan.for_reader()) == 1
        assert all(s.target == "archive" for s in plan.for_archive())
        assert all(s.duration_s > 0 for s in plan.for_reader())

    def test_corrupt_bitflip_preserves_length(self, tmp_path):
        from repro.pipeline.faults import corrupt_bitflip

        path = tmp_path / "segment"
        payload = bytes(range(256)) * 4
        path.write_bytes(payload)
        corrupt_bitflip(str(path))
        after = path.read_bytes()
        assert len(after) == len(payload)
        flipped = [i for i, (a, b) in enumerate(zip(payload, after))
                   if a != b]
        assert flipped == [len(payload) // 2]
        assert after[flipped[0]] == payload[flipped[0]] ^ 0xFF

    def test_corrupt_truncate_keeps_a_fraction(self, tmp_path):
        from repro.pipeline.faults import TRUNCATE_KEEP_FRACTION, \
            corrupt_truncate

        path = tmp_path / "segment"
        path.write_bytes(b"x" * 1000)
        corrupt_truncate(str(path))
        assert path.stat().st_size \
            == int(1000 * TRUNCATE_KEEP_FRACTION)

    def test_corrupt_torn_index_tears_the_sidecar_only(self, tmp_path):
        from repro.pipeline.faults import corrupt_torn_index

        segment = tmp_path / "segment"
        segment.write_bytes(b"data" * 100)
        sidecar = tmp_path / "segment.idx"
        sidecar.write_text('{"postings": {"a": [1, 2]}}')
        full = sidecar.stat().st_size
        corrupt_torn_index(str(segment))
        assert segment.read_bytes() == b"data" * 100   # data untouched
        assert sidecar.stat().st_size == full // 2
        # Without a sidecar, a torn stub appears (still invalid JSON).
        lone = tmp_path / "lone"
        lone.write_bytes(b"data")
        corrupt_torn_index(str(lone))
        assert (tmp_path / "lone.idx").read_bytes() == b'{"torn":'

    def test_apply_archive_corruption_maps_positions(self, tmp_path):
        from repro.pipeline.faults import FaultInjector

        class Segment:
            def __init__(self, path):
                self.path = path

        segments = []
        for index in range(3):
            path = tmp_path / f"seg{index}"
            path.write_bytes(b"y" * 100)
            segments.append(Segment(str(path)))
        injector = FaultInjector(FaultPlan.parse(
            "bitflip=archive@1,truncate=archive@3"))
        applied = injector.apply_archive_corruption(segments)
        assert applied == [("bitflip", segments[0].path),
                           ("truncate", segments[2].path)]
        assert len(injector.log) == 2
        # The schedule is consumed: a second call corrupts nothing.
        assert injector.apply_archive_corruption(segments) == []

    def test_on_payload_read_sleeps_at_position(self):
        import time
        from repro.pipeline.faults import FaultInjector

        injector = FaultInjector(FaultPlan.parse(
            "slow-read=reader@2~0.05"))
        before = time.monotonic()
        injector.on_payload_read("/seg/a")          # read 1: fast
        fast = time.monotonic() - before
        before = time.monotonic()
        injector.on_payload_read("/seg/b")          # read 2: slow
        slow = time.monotonic() - before
        assert fast < 0.04
        assert slow >= 0.05
        assert any("slow-read at read 2" in line
                   for line in injector.log)


class TestFaultyStream:
    def test_resumes_after_disconnect(self):
        updates = [upd(float(t)) for t in range(10)]
        stream = FaultyStream(
            "vp1", updates, [FaultSpec("disconnect", "vp1", at=3, count=2)])
        seen = []
        faults = 0
        while True:
            try:
                seen.append(next(stream))
            except SessionFault:
                faults += 1
            except StopIteration:
                break
        assert faults == 2
        # Every update survives the flaps: the iterator resumed.
        assert [u.time for u in seen] == [float(t) for t in range(10)]

    def test_malformed_and_reorder_stamping(self):
        updates = [upd(1000.0 + t) for t in range(5)]
        stream = FaultyStream("vp1", updates, [
            FaultSpec("malformed", "vp1", at=2),
            FaultSpec("reorder", "vp1", at=4),
        ])
        out = list(stream)
        assert math.isnan(out[1].time)
        assert out[3].time == pytest.approx(1002.0 - REORDER_SKEW_S)
        assert out[4].time == 1004.0         # stream continues clean


class TestSessionSupervision:
    def test_flap_mid_stream_loses_nothing(self, synthetic_stream):
        streams = split_by_vp(synthetic_stream)
        victim = sorted(streams)[0]
        pipeline = CollectionPipeline(PipelineConfig(
            n_shards=2, overflow_policy="block",
            fault_plan=FaultPlan.parse(f"disconnect={victim}@5x3"),
            supervision=fast_supervision(),
        ))
        result = pipeline.run(streams, timeout=TIMEOUT)
        assert_accounted(result)
        assert result.metrics.received == len(synthetic_stream)
        sup = result.metrics.supervision
        assert sup.session_restarts == 3
        assert sup.quarantined == ()
        per_session = {s.session: s for s in result.metrics.sessions}
        assert per_session[victim].restarts == 3

    def test_flap_circuit_breaker_quarantines(self, synthetic_stream):
        streams = split_by_vp(synthetic_stream)
        victim = sorted(streams)[0]
        others = sum(len(list(s)) for name, s in
                     split_by_vp(synthetic_stream).items()
                     if name != victim)
        pipeline = CollectionPipeline(PipelineConfig(
            n_shards=2, overflow_policy="block",
            fault_plan=FaultPlan.parse(f"disconnect={victim}@5x100"),
            supervision=fast_supervision(quarantine_after=3),
        ))
        result = pipeline.run(streams, timeout=TIMEOUT)
        assert_accounted(result)
        sup = result.metrics.supervision
        assert sup.quarantined == (victim,)
        # The quarantined session delivered a prefix of its stream;
        # every other session delivered everything.
        assert result.metrics.received >= others
        assert result.metrics.received < len(synthetic_stream)

    def test_malformed_updates_skipped_and_counted(self, synthetic_stream):
        streams = split_by_vp(synthetic_stream)
        victim = sorted(streams)[0]
        pipeline = CollectionPipeline(PipelineConfig(
            n_shards=2, overflow_policy="block",
            fault_plan=FaultPlan.parse(
                f"malformed={victim}@3,reorder={victim}@8"),
            supervision=fast_supervision(),
        ))
        mirrored = []
        pipeline.mirror = lambda u, retained: mirrored.append(u)
        result = pipeline.run(streams, timeout=TIMEOUT)
        assert_accounted(result)
        assert result.metrics.supervision.malformed == 2
        assert result.metrics.received == len(synthetic_stream) - 2
        # The corrupt stamps never reached the writer.
        assert all(a.time <= b.time
                   for a, b in zip(mirrored, mirrored[1:]))

    def test_degrades_to_drop_under_sustained_stall(self):
        updates = [upd(float(t), "vp1") for t in range(200)]
        pipeline = CollectionPipeline(PipelineConfig(
            n_shards=1, overflow_policy="block",
            ingest_queue_capacity=2, heartbeat_every=1000,
            fault_plan=FaultPlan.parse("stall=shard0@2~0.4"),
            supervision=fast_supervision(
                degrade_after_s=0.05, stall_timeout_s=10.0),
        ))
        result = pipeline.run({"vp1": updates}, timeout=TIMEOUT)
        assert_accounted(result)
        sup = result.metrics.supervision
        assert sup.degraded_episodes >= 1
        assert result.metrics.ingest_dropped > 0   # drop-mode losses


class TestShardWatchdog:
    def test_stuck_shard_released_by_watchdog(self, synthetic_stream):
        streams = split_by_vp(synthetic_stream)
        pipeline = CollectionPipeline(PipelineConfig(
            n_shards=2, overflow_policy="block",
            fault_plan=FaultPlan.parse("stall=shard0@10~inf"),
            supervision=fast_supervision(),
        ))
        mirrored = []
        pipeline.mirror = lambda u, retained: mirrored.append(u)
        result = pipeline.run(streams, timeout=TIMEOUT)
        assert_accounted(result)
        sup = result.metrics.supervision
        assert sup.worker_restarts == 1
        assert sup.order_violations == 0
        # Nothing lost, nothing duplicated, order preserved: the
        # in-flight envelope moved to the replacement exactly once.
        assert result.metrics.received == len(synthetic_stream)
        assert len(mirrored) == len(synthetic_stream)
        assert all(a.time <= b.time
                   for a, b in zip(mirrored, mirrored[1:]))

    def test_transient_stall_needs_no_restart(self, synthetic_stream):
        streams = split_by_vp(synthetic_stream)
        pipeline = CollectionPipeline(PipelineConfig(
            n_shards=2, overflow_policy="block",
            fault_plan=FaultPlan.parse("stall=shard1@10~0.05"),
            supervision=fast_supervision(stall_timeout_s=5.0),
        ))
        result = pipeline.run(streams, timeout=TIMEOUT)
        assert_accounted(result)
        assert result.metrics.supervision.worker_restarts == 0
        assert result.metrics.received == len(synthetic_stream)


class TestWriterRecovery:
    def test_io_error_recovers_from_checkpoint(self, synthetic_stream,
                                               tmp_path):
        archive = RollingArchiveWriter(str(tmp_path), interval_s=120.0,
                                       compress=False, checkpoint=True)
        pipeline = CollectionPipeline(
            PipelineConfig(
                n_shards=2, overflow_policy="block",
                fault_plan=FaultPlan.parse("io-error=writer@40"),
                supervision=fast_supervision(),
            ),
            archive=archive,
        )
        result = pipeline.run(split_by_vp(synthetic_stream),
                              timeout=TIMEOUT)
        assert_accounted(result)
        sup = result.metrics.supervision
        assert sup.writer_io_errors == 1
        assert sup.archive_recoveries == 1
        # The archive stayed internally consistent: a fresh recovery
        # pass finds no torn segments, and every surviving segment
        # replays in time order.
        check = RollingArchiveWriter(str(tmp_path), interval_s=120.0,
                                     compress=False, checkpoint=True)
        report = check.recover()
        assert report.torn_removed == ()
        replayed = check.read_range(0.0, 1e12)
        assert all(a.time <= b.time
                   for a, b in zip(replayed, replayed[1:]))
        assert len(replayed) == result.metrics.retained \
            - sup.archive_lost

    def test_recovery_budget_exhaustion_is_fatal(self, synthetic_stream,
                                                 tmp_path):
        archive = RollingArchiveWriter(str(tmp_path), interval_s=120.0,
                                       compress=False, checkpoint=True)
        pipeline = CollectionPipeline(
            PipelineConfig(
                n_shards=2, overflow_policy="block",
                fault_plan=FaultPlan.parse("io-error=writer@10x20"),
                supervision=fast_supervision(max_archive_recoveries=2),
            ),
            archive=archive,
        )
        with pytest.raises(OSError):
            pipeline.run(split_by_vp(synthetic_stream), timeout=TIMEOUT)

    def test_writer_crash_does_not_deadlock_producers(
            self, synthetic_stream, tmp_path):
        """The queues are poisoned on writer death, so blocked
        sessions raise instead of hanging (the satellite deadlock)."""
        archive = RollingArchiveWriter(str(tmp_path), interval_s=120.0,
                                       compress=False, checkpoint=True)
        pipeline = CollectionPipeline(
            PipelineConfig(
                n_shards=2, overflow_policy="block",
                ingest_queue_capacity=8,
                fault_plan=FaultPlan.parse("crash=writer@30"),
                supervision=fast_supervision(),
            ),
            archive=archive,
        )
        with pytest.raises(InjectedCrash):
            pipeline.run(split_by_vp(synthetic_stream), timeout=TIMEOUT)


class TestCrashResumeRoundTrip:
    def config(self):
        return OrchestratorConfig(
            component1_interval_s=600.0,
            component2_interval_s=2400.0,
            mirror_window_s=600.0,
            events_per_cell=5,
        )

    def sessions_for(self, streams):
        manager = SessionManager()
        for index, vp in enumerate(sorted(streams)):
            manager.activate_directly(vp, 65000 + index)
        return manager

    def test_crash_then_resume_completes_epoch(self, synthetic_stream,
                                               tmp_path):
        streams = split_by_vp(synthetic_stream)

        # Baseline: the same epoch with no faults.
        baseline_dir = tmp_path / "baseline"
        baseline = RollingArchiveWriter(str(baseline_dir),
                                        interval_s=120.0,
                                        compress=False, checkpoint=True)
        Orchestrator(self.config()).run_pipeline_epoch(
            streams, PipelineConfig(n_shards=2, overflow_policy="block"),
            archive=baseline, timeout=TIMEOUT)

        # Crash run: the writer dies mid-epoch.
        crash_dir = tmp_path / "crash"
        archive = RollingArchiveWriter(str(crash_dir), interval_s=120.0,
                                       compress=False, checkpoint=True)
        crashed = Orchestrator(self.config())
        with pytest.raises(InjectedCrash):
            crashed.run_pipeline_epoch(
                streams,
                PipelineConfig(
                    n_shards=2, overflow_policy="block",
                    fault_plan=FaultPlan.parse("crash=writer@60"),
                    supervision=fast_supervision(),
                ),
                archive=archive, timeout=TIMEOUT)

        # A dirty orchestrator must not resume (its mirror is stale).
        recovered_archive = RollingArchiveWriter(
            str(crash_dir), interval_s=120.0,
            compress=False, checkpoint=True)
        with pytest.raises(RuntimeError):
            crashed.run_pipeline_epoch(
                streams, archive=recovered_archive, resume=True)

        # Resume on a fresh orchestrator from the checkpoint.
        sessions = self.sessions_for(streams)
        resumed = Orchestrator(self.config())
        result = resumed.run_pipeline_epoch(
            streams,
            PipelineConfig(n_shards=2, overflow_policy="block",
                           supervision=fast_supervision()),
            archive=recovered_archive, timeout=TIMEOUT,
            sessions=sessions, resume=True)
        assert_accounted(result)
        assert resumed.stats.epoch_resumes == 1
        # §8: every resumed session re-dumped its RIB.
        assert resumed.stats.rib_redumps == len(streams)
        assert all(len(s.rib_dumps) >= 1
                   for s in sessions.sessions.values())

        # The recovered archive holds exactly what the uninterrupted
        # epoch would have published: no torn segments, no gaps.
        want = baseline.read_range(0.0, 1e12)
        got = recovered_archive.read_range(0.0, 1e12)
        assert [(u.time, u.vp, u.prefix) for u in got] \
            == [(u.time, u.vp, u.prefix) for u in want]

    def test_resume_requires_checkpointed_archive(self, synthetic_stream,
                                                  tmp_path):
        archive = RollingArchiveWriter(str(tmp_path), interval_s=120.0,
                                       compress=False)   # no checkpoint
        with pytest.raises(ValueError):
            Orchestrator(self.config()).run_pipeline_epoch(
                split_by_vp(synthetic_stream), archive=archive,
                resume=True)


class TestWriterReorderRegressions:
    """Satellite: duplicate timestamps and late heartbeats must not
    produce out-of-order emissions or wedge the reorder buffer."""

    def drive(self, items, n_shards=2, sessions=("s1", "s2")):
        queue = BoundedQueue(1024)
        metrics = PipelineMetrics()
        mirrored = []
        writer = WriterStage(queue, n_shards, list(sessions),
                             metrics=metrics,
                             mirror=lambda u, r: mirrored.append(u))
        writer.start()
        for item in items:
            queue.put(item)
        writer.join(timeout=10.0)
        assert not writer.is_alive()
        assert writer.error is None
        return mirrored, metrics.snapshot()

    def disp(self, t, vp="s1"):
        return Disposition(upd(t, vp), True, vp, 0.0)

    def test_duplicate_timestamps_all_emitted(self):
        items = [self.disp(100.0, "s1"), self.disp(100.0, "s2"),
                 self.disp(100.0, "s1")]
        for session in ("s1", "s2"):
            items.append(Heartbeat(session, 100.0))
        items += [ShardDone(), ShardDone()]
        mirrored, snapshot = self.drive(items)
        assert len(mirrored) == 3
        assert [u.time for u in mirrored] == [100.0] * 3
        assert snapshot.supervision.order_violations == 0

    def test_late_heartbeat_does_not_rewind_watermark(self):
        items = []
        for session in ("s1", "s2"):
            items.append(Heartbeat(session, 200.0))
        items.append(self.disp(150.0, "s1"))
        # A duplicate delivery of an OLD heartbeat arrives late: the
        # watermark must stay at 200 so the t=150 update still emits.
        items.append(Heartbeat("s1", 50.0))
        items.append(self.disp(180.0, "s2"))
        items += [ShardDone(), ShardDone()]
        mirrored, snapshot = self.drive(items)
        assert [u.time for u in mirrored] == [150.0, 180.0]
        assert snapshot.supervision.order_violations == 0

    def test_heap_flushes_once_all_shards_done(self):
        # No END_OF_STREAM markers at all: once both ShardDones are
        # in, the buffered updates must still come out, in order.
        items = [self.disp(300.0, "s1"), self.disp(250.0, "s2"),
                 ShardDone(), ShardDone()]
        mirrored, _ = self.drive(items)
        assert [u.time for u in mirrored] == [250.0, 300.0]

    def test_ended_session_releases_the_watermark(self):
        """One watermark per session: a session that ended (or was
        quarantined) sends END_OF_STREAM once, through its own shard,
        and from then on only the live session gates the heap."""
        queue = BoundedQueue(64)
        metrics = PipelineMetrics()
        mirrored = []
        writer = WriterStage(queue, 2, ["s1", "s2"], metrics=metrics,
                             mirror=lambda u, r: mirrored.append(u))
        writer.start()
        queue.put(self.disp(150.0, "s2"))
        queue.put(Heartbeat("s1", END_OF_STREAM))
        time.sleep(0.2)
        assert mirrored == []           # s2 has not passed 150 yet
        queue.put(Heartbeat("s2", 200.0))
        deadline = time.monotonic() + 5.0
        while not mirrored and time.monotonic() < deadline:
            time.sleep(0.01)
        assert [u.time for u in mirrored] == [150.0]
        queue.put(ShardDone())
        queue.put(ShardDone())
        writer.join(timeout=10.0)
        assert not writer.is_alive() and writer.error is None


class TestSessionLivesOnOneShard:
    def test_one_heartbeat_is_one_control_message(self):
        """Updates, heartbeats and the end-of-stream marker all go
        through the one queue the session's name picks; the other
        shards never hear of the session."""
        queues = [BoundedQueue(64) for _ in range(3)]
        session = PeerSession(
            "rrc00", [upd(float(t), f"vp{t % 2}") for t in range(4)],
            queues, metrics=PipelineMetrics(), heartbeat_every=2)
        session.start()
        session.join(timeout=10.0)
        assert not session.is_alive()
        home = zlib.crc32(b"rrc00") % 3
        for shard, queue in enumerate(queues):
            if shard != home:
                assert len(queue) == 0
        items = [queues[home].get() for _ in range(len(queues[home]))]
        assert [i.time for i in items if isinstance(i, Heartbeat)] \
            == [1.0, 3.0, END_OF_STREAM]
        assert len(items) == 4 + 3


class TestGillFilteringChaos:
    """Crash/resume with the online redundancy filter in the loop.

    The gill design's central claim (docs/GILL.md): filtering commutes
    with crash recovery.  A filtered run that crashes and resumes must
    publish the *byte-identical* archive and drop journal as the same
    run uninterrupted.
    """

    def gill_config(self):
        from repro.gill import GillConfig
        return GillConfig(definition=1)

    def run_epoch(self, streams, archive, fault=None, resume=False):
        config = OrchestratorConfig(
            component1_interval_s=600.0, component2_interval_s=2400.0,
            mirror_window_s=600.0, events_per_cell=5)
        plan = FaultPlan.parse(fault) if fault else None
        return Orchestrator(config).run_pipeline_epoch(
            streams,
            PipelineConfig(n_shards=2, overflow_policy="block",
                           fault_plan=plan,
                           supervision=fast_supervision(),
                           gill=self.gill_config()),
            archive=archive, timeout=TIMEOUT, resume=resume)

    @staticmethod
    def archive_bytes(directory):
        out = {}
        for path in sorted(directory.iterdir()):
            if path.name.startswith("updates.") \
                    or path.name == "gill.jsonl":
                out[path.name] = path.read_bytes()
        return out

    def test_crash_resume_is_byte_identical(self, synthetic_stream,
                                            tmp_path):
        streams = split_by_vp(synthetic_stream)

        baseline_dir = tmp_path / "baseline"
        baseline = RollingArchiveWriter(str(baseline_dir),
                                        interval_s=120.0,
                                        compress=False, checkpoint=True)
        result = self.run_epoch(streams, baseline)
        assert_accounted(result)
        want = self.archive_bytes(baseline_dir)
        assert any(name == "gill.jsonl" for name in want)
        assert sum(len(b) for b in want.values()) > 0

        crash_dir = tmp_path / "crash"
        archive = RollingArchiveWriter(str(crash_dir), interval_s=120.0,
                                       compress=False, checkpoint=True)
        with pytest.raises(InjectedCrash):
            self.run_epoch(streams, archive, fault="crash=writer@60")

        recovered = RollingArchiveWriter(str(crash_dir),
                                         interval_s=120.0,
                                         compress=False, checkpoint=True)
        result = self.run_epoch(streams, recovered, resume=True)
        assert_accounted(result)
        assert self.archive_bytes(crash_dir) == want

    def test_two_runs_are_byte_identical(self, synthetic_stream,
                                         tmp_path):
        streams = split_by_vp(synthetic_stream)
        outputs = []
        for name in ("one", "two"):
            directory = tmp_path / name
            archive = RollingArchiveWriter(str(directory),
                                           interval_s=120.0,
                                           compress=False,
                                           checkpoint=True)
            assert_accounted(self.run_epoch(streams, archive))
            outputs.append(self.archive_bytes(directory))
        assert outputs[0] == outputs[1]

    def test_gill_requires_archive(self, synthetic_stream):
        with pytest.raises(ValueError, match="archive"):
            CollectionPipeline(
                PipelineConfig(n_shards=2, gill=self.gill_config())
            ).run(split_by_vp(synthetic_stream), timeout=TIMEOUT)
