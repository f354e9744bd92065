"""Tests for the concurrent collection runtime."""

import gc
import weakref
import zlib

import pytest

from repro.bgp.archive import RollingArchiveWriter
from repro.bgp.filtering import DropRule, FilterTable
from repro.bgp.validation import RouteValidator
from repro.core.forwarding import ForwardingRule, ForwardingService
from repro.core.orchestrator import Orchestrator, OrchestratorConfig
from repro.gill import GillConfig
from repro.pipeline import (
    CollectionPipeline,
    FaultPlan,
    InjectedCrash,
    PipelineConfig,
    ServiceCostModel,
)
from repro.workload import (
    StreamConfig,
    SyntheticStreamGenerator,
    poisson_session_streams,
    split_by_vp,
)

TIMEOUT = 30.0


@pytest.fixture(scope="module")
def synthetic_stream():
    generator = SyntheticStreamGenerator(StreamConfig(
        n_vps=16, n_prefix_groups=12, duration_s=1800.0, seed=5,
    ))
    _, stream = generator.generate()
    return stream


def assert_accounted(result):
    m = result.metrics
    assert result.accounted, (
        f"lost updates: received={m.received} dropped={m.ingest_dropped} "
        f"flagged={m.flagged} retained={m.retained} "
        f"discarded={m.discarded}"
    )


class TestConfig:
    def test_defaults_valid(self):
        PipelineConfig()

    @pytest.mark.parametrize("kwargs", [
        dict(n_shards=0),
        dict(metrics_interval_s=0.0),
        dict(overflow_policy="spill"),
        dict(time_scale=0.0),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PipelineConfig(**kwargs)


class TestLosslessRun:
    def test_block_policy_loses_nothing(self, synthetic_stream):
        pipeline = CollectionPipeline(
            PipelineConfig(n_shards=4, overflow_policy="block"))
        result = pipeline.run(split_by_vp(synthetic_stream),
                              timeout=TIMEOUT)
        assert_accounted(result)
        assert result.metrics.ingest_dropped == 0
        assert result.metrics.received == len(synthetic_stream)
        assert result.metrics.retained == len(synthetic_stream)

    def test_filter_decisions_match_sequential(self, synthetic_stream):
        """Concurrent filtering retains exactly what FilterTable would."""
        rules = [
            DropRule(u.vp, u.prefix)
            for u in synthetic_stream[: len(synthetic_stream) // 3]
        ]
        filters = FilterTable(anchor_vps=["vp10000"], drop_rules=rules)
        expected_retained, expected_discarded = \
            filters.apply(synthetic_stream)

        pipeline = CollectionPipeline(
            PipelineConfig(n_shards=4, overflow_policy="block"),
            filters=filters)
        result = pipeline.run(split_by_vp(synthetic_stream),
                              timeout=TIMEOUT)
        assert_accounted(result)
        assert result.metrics.retained == len(expected_retained)
        assert result.metrics.discarded == len(expected_discarded)

    @pytest.mark.parametrize("sessions", ["vp", "mixed"])
    def test_archive_written_in_time_order(self, synthetic_stream,
                                           tmp_path, sessions):
        """Many shards must still feed the order-strict archive —
        whether a session carries one VP or (a route-server feed)
        interleaves several: either way it lives on one shard."""
        if sessions == "vp":
            streams = split_by_vp(synthetic_stream)
        else:
            vps = sorted({u.vp for u in synthetic_stream})
            streams = {
                f"feed{i}": [u for u in synthetic_stream
                             if vps.index(u.vp) % 4 == i]
                for i in range(4)}
            assert all(len({u.vp for u in feed}) > 1
                       for feed in streams.values())
        archive = RollingArchiveWriter(str(tmp_path), interval_s=300.0,
                                       compress=False)
        mirrored = []
        pipeline = CollectionPipeline(
            PipelineConfig(n_shards=5,
                           overflow_policy="block", heartbeat_every=16),
            archive=archive,
            mirror=lambda u, retained: mirrored.append(u),
        )
        result = pipeline.run(streams, timeout=TIMEOUT)
        assert_accounted(result)
        # Each shard handled exactly the streams of the sessions whose
        # name hashes to it: no session was spread over two shards.
        expected = [0] * 5
        for name, feed in streams.items():
            expected[zlib.crc32(name.encode()) % 5] += len(feed)
        assert [w.processed_count for w in pipeline._workers] == expected
        # The mirror callback observed a globally time-ordered stream.
        assert all(a.time <= b.time
                   for a, b in zip(mirrored, mirrored[1:]))
        assert len(mirrored) == len(synthetic_stream)
        # The archive replays every retained update.
        replayed = archive.read_range(0.0, float("1e12"))
        assert len(replayed) == result.metrics.retained
        assert len(result.segments) == len(archive.segments)

    def test_validator_and_forwarding_integration(self, synthetic_stream):
        forwarding = ForwardingService()
        target = synthetic_stream[0]
        forwarding.subscribe(
            ForwardingRule("op1", prefix=target.prefix))
        pipeline = CollectionPipeline(
            PipelineConfig(n_shards=3, overflow_policy="block"),
            validator=RouteValidator(),
            forwarding=forwarding,
        )
        result = pipeline.run(split_by_vp(synthetic_stream),
                              timeout=TIMEOUT)
        assert_accounted(result)
        m = result.metrics
        assert m.flagged == len(result.flagged)
        assert m.forwarded == forwarding.forwarded_count
        assert len(forwarding.mailbox("op1")) > 0

    def test_empty_streams_rejected(self):
        with pytest.raises(ValueError):
            CollectionPipeline().run({})

    def test_double_start_rejected(self, synthetic_stream):
        pipeline = CollectionPipeline(
            PipelineConfig(overflow_policy="block"))
        streams = split_by_vp(synthetic_stream[:50])
        pipeline.run(streams, timeout=TIMEOUT)
        with pytest.raises(RuntimeError):
            pipeline.start(streams)


class TestOverloadAndDrain:
    def test_drop_policy_accounts_for_every_update(self):
        """Saturated ingest drops updates but never loses count."""
        streams = poisson_session_streams(
            6, rate_per_hour=3600.0, duration_s=400.0, seed=3)
        offered = sum(len(s) for s in streams.values())
        pipeline = CollectionPipeline(PipelineConfig(
            n_shards=2,
            overflow_policy="drop",
            ingest_queue_capacity=4,
            time_scale=2000.0,
            cost_model=ServiceCostModel(2000.0),   # ~39 upd/s ceiling
        ))
        result = pipeline.run(streams, timeout=TIMEOUT)
        assert_accounted(result)
        m = result.metrics
        assert m.received == offered
        assert m.ingest_dropped > 0
        assert m.loss_fraction > 0.2
        # Everything that entered a queue was drained, not lost.
        assert m.retained + m.discarded == m.processed == m.written

    def test_early_stop_drains_cleanly(self, synthetic_stream):
        """stop() interrupts the sessions; queued updates still land."""
        pipeline = CollectionPipeline(PipelineConfig(
            n_shards=2, overflow_policy="block", time_scale=100.0))
        pipeline.start(split_by_vp(synthetic_stream))
        pipeline.stop()
        result = pipeline.wait(timeout=TIMEOUT)
        assert_accounted(result)

    def test_live_snapshot_midrun(self, synthetic_stream):
        pipeline = CollectionPipeline(PipelineConfig(
            n_shards=2, overflow_policy="block", time_scale=3600.0))
        pipeline.start(split_by_vp(synthetic_stream))
        snapshot = pipeline.snapshot()     # must not block or crash
        assert snapshot.received >= 0
        result = pipeline.wait(timeout=TIMEOUT)
        assert_accounted(result)


class TestServiceCostModel:
    def test_costs_follow_daemon_model(self):
        model = ServiceCostModel(1000.0)
        assert model.cost(True) > model.cost(False)
        assert model.cost(False) == pytest.approx(1.2)
        assert model.cost(True) == pytest.approx(51.2)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ServiceCostModel(0.0)

    def test_charge_throttles(self):
        import time
        model = ServiceCostModel(10_000.0, min_sleep_s=0.0)
        start = time.perf_counter()
        for _ in range(20):
            model.charge(retained=True)   # 20 * 51.2 units at 10k/s
        elapsed = time.perf_counter() - start
        assert elapsed >= 0.05            # ~0.1s of modelled work


class TestFinishedRunPinsNothing:
    """The archive outlives the run; a finished pipeline must not stay
    reachable from it through a seal subscription."""

    def archive(self, tmp_path):
        return RollingArchiveWriter(str(tmp_path / "segs"),
                                    interval_s=300.0, compress=False,
                                    checkpoint=True, index=True)

    @pytest.mark.parametrize("plan", [None, "bitflip=archive@2"])
    def test_listeners_restored_and_pipeline_collectable(
            self, synthetic_stream, tmp_path, plan):
        archive = self.archive(tmp_path)
        seals = []
        archive.add_seal_listener(lambda segment, dt: seals.append(dt))
        before = archive.seal_listeners
        pipeline = CollectionPipeline(
            PipelineConfig(n_shards=2, overflow_policy="block",
                           gill=GillConfig(),
                           fault_plan=FaultPlan.parse(plan)
                           if plan else None),
            archive=archive)
        result = pipeline.run(split_by_vp(synthetic_stream),
                              timeout=TIMEOUT)
        assert_accounted(result)
        # The run's own subscription did its work while it ran ...
        assert result.metrics.query.index_builds == len(seals) > 0
        if plan:
            assert any("bitflip" in line for line in result.fault_log)
        # ... and is gone afterwards, with the caller's left alone.
        assert archive.seal_listeners == before
        gone = weakref.ref(pipeline)
        gill = weakref.ref(pipeline.gill)
        del pipeline, result
        gc.collect()
        assert gone() is None and gill() is None
        assert archive.segments            # the archive is still held

    def test_error_path_unsubscribes(self, synthetic_stream, tmp_path):
        archive = self.archive(tmp_path)
        before = archive.seal_listeners
        pipeline = CollectionPipeline(
            PipelineConfig(n_shards=2, overflow_policy="block",
                           fault_plan=FaultPlan.parse(
                               "crash=writer@60,truncate=archive@90")),
            archive=archive)
        with pytest.raises(InjectedCrash):
            pipeline.run(split_by_vp(synthetic_stream), timeout=TIMEOUT)
        assert archive.seal_listeners == before

    def test_epochs_on_one_archive_do_not_accumulate(
            self, synthetic_stream, tmp_path):
        archive = self.archive(tmp_path)
        ordered = sorted(synthetic_stream, key=lambda u: u.time)
        half = len(ordered) // 2
        while ordered[half].time == ordered[half - 1].time:
            half += 1
        orchestrator = Orchestrator(OrchestratorConfig(events_per_cell=5))
        counts = []
        for epoch in (ordered[:half], ordered[half:]):
            result = orchestrator.run_pipeline_epoch(
                split_by_vp(epoch),
                PipelineConfig(n_shards=2, overflow_policy="block"),
                archive=archive, timeout=TIMEOUT)
            assert_accounted(result)
            counts.append(len(archive.seal_listeners))
        assert counts == [0, 0]


class TestOrchestratorEpoch:
    def config(self):
        return OrchestratorConfig(
            component1_interval_s=600.0,
            component2_interval_s=2400.0,
            mirror_window_s=600.0,
            events_per_cell=5,
        )

    def test_epoch_matches_sequential_stats(self, synthetic_stream):
        sequential = Orchestrator(self.config())
        for update in sorted(synthetic_stream, key=lambda u: u.time):
            sequential.process(update)

        concurrent = Orchestrator(self.config())
        result = concurrent.run_pipeline_epoch(
            split_by_vp(synthetic_stream),
            PipelineConfig(n_shards=3, overflow_policy="block"),
            timeout=TIMEOUT,
        )
        assert_accounted(result)
        assert concurrent.stats.received == sequential.stats.received
        # Refreshes fire at the epoch boundary rather than mid-stream,
        # so the concurrent epoch performs at least one refresh iff the
        # stream crossed the first deadline.
        assert concurrent.stats.component1_runs >= 1
        assert concurrent.filters is not None
        assert len(concurrent._mirror) <= len(synthetic_stream)

    def test_epoch_quarantines_flagged(self, synthetic_stream):
        orchestrator = Orchestrator(self.config(),
                                    validator=RouteValidator())
        result = orchestrator.run_pipeline_epoch(
            split_by_vp(synthetic_stream),
            PipelineConfig(n_shards=2, overflow_policy="block"),
            timeout=TIMEOUT,
        )
        assert_accounted(result)
        assert len(orchestrator.flagged_updates) == result.metrics.flagged
        assert orchestrator.stats.received == len(synthetic_stream)
        for update in orchestrator.flagged_updates:
            assert update not in orchestrator._mirror
