"""The metrics read model against the registry it is read from.

One seeded chaos run exercises every pipeline and query counter:
sessions flap (one until its circuit breaker quarantines it), updates
arrive malformed or out of order, a shard stalls until the watchdog
replaces it, and the archive hits I/O errors and recovers.  A query
engine then answers a few specs on the same registry.  Two checks:

* every numeric field of every snapshot equals the exposition sample
  it stands for, so a snapshot that reads the wrong child fails;
* the exposition's ``# HELP``/``# TYPE`` lines, every ``_total``
  sample and the untimed lines of ``render_metrics(per_session=True)``
  equal ``metrics_golden.txt``.  Regenerate it with
  ``REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest
  tests/pipeline/test_metrics_readback.py``.
"""

import dataclasses
import os

import pytest

from repro.bgp.archive import RollingArchiveWriter
from repro.pipeline import (
    CollectionPipeline,
    FaultPlan,
    PipelineConfig,
    SupervisorConfig,
    render_metrics,
)
from repro.query import QueryEngine, QuerySpec
from repro.workload import StreamConfig, SyntheticStreamGenerator, \
    split_by_vp

GOLDEN = os.path.join(os.path.dirname(__file__), "metrics_golden.txt")
TIMEOUT = 60.0


@pytest.fixture(scope="module")
def chaos_run(tmp_path_factory):
    generator = SyntheticStreamGenerator(StreamConfig(
        n_vps=6, n_prefix_groups=10, duration_s=1800.0, seed=29))
    _, stream = generator.generate()
    streams = split_by_vp(stream)
    sessions = sorted(streams)
    # Stalls come from the explicit spec below: a finite seeded stall
    # may or may not outlast the watchdog, an endless one always does.
    seeded = FaultPlan.seeded(5, sessions, n_shards=2, horizon=80,
                              stalls=0, io_errors=2)
    explicit = FaultPlan.parse(
        f"disconnect={sessions[-1]}@11x100,stall=shard1@40~inf")
    archive = RollingArchiveWriter(
        str(tmp_path_factory.mktemp("segs")), interval_s=150.0,
        compress=False, checkpoint=True, index=True)
    pipeline = CollectionPipeline(PipelineConfig(
        n_shards=2, overflow_policy="block",
        fault_plan=FaultPlan(seeded.specs + explicit.specs),
        # No drop-mode degrade and a short watchdog: every count below
        # is a function of the plan, not of the scheduler.
        supervision=SupervisorConfig(
            backoff_initial_s=0.005, backoff_max_s=0.02,
            watchdog_interval_s=0.02, stall_timeout_s=0.1,
            quarantine_after=3, degrade_after_s=None)),
        archive=archive)
    pipeline.run(streams, timeout=TIMEOUT)
    engine = QueryEngine(archive, stats=pipeline.metrics.query)
    point = QuerySpec(prefix=stream[0].prefix)
    engine.query(point)
    engine.query(point)                     # a cache hit
    engine.query(QuerySpec(vp=sessions[0], limit=5))
    engine.render(QuerySpec(start=stream[0].time + 100.0,
                            end=stream[0].time + 400.0))
    return pipeline, engine


class Exposition:
    """Sample lookup over one ``registry.collect()``."""

    def __init__(self, registry):
        self.families = {f.name: f for f in registry.collect()}

    def matching(self, name, **labels):
        return [s.value for s in self.families[name].samples
                if labels.items() <= dict(s.labels).items()]

    def one(self, name, **labels):
        (value,) = self.matching(name, **labels)
        return value

    def total(self, name, **labels):
        return sum(self.matching(name, **labels))


def numeric_fields(snapshot):
    return {f.name for f in dataclasses.fields(snapshot)
            if isinstance(getattr(snapshot, f.name), (int, float))}


def check(snapshot, expected, unexposed=()):
    """Every numeric field is covered, and each equals its sample."""
    assert numeric_fields(snapshot) <= set(expected) | set(unexposed)
    for name, want in expected.items():
        assert getattr(snapshot, name) == pytest.approx(want), name


class TestSnapshotsReadTheirSamples:
    def test_the_run_exercised_the_faults(self, chaos_run):
        pipeline, _ = chaos_run
        supervision = pipeline.metrics.snapshot().supervision
        assert supervision.quarantined
        assert supervision.session_restarts > 0
        assert supervision.malformed > 0
        assert supervision.worker_restarts == 1
        assert supervision.writer_io_errors > 0

    def test_pipeline_snapshot(self, chaos_run):
        pipeline, _ = chaos_run
        snap = pipeline.metrics.snapshot()
        x = Exposition(pipeline.metrics.registry)
        stage = "repro_pipeline_stage_updates_total"
        check(snap, {
            "received": x.total("repro_session_updates_total"),
            "ingest_dropped": x.total("repro_session_updates_total",
                                      result="dropped"),
            "processed": x.one(stage, stage="process",
                               result="processed"),
            "written": x.one(stage, stage="write", result="processed"),
            "flagged": x.one("repro_pipeline_dispositions_total",
                             disposition="flagged"),
            "retained": x.one("repro_pipeline_dispositions_total",
                              disposition="retained"),
            "discarded": x.one("repro_pipeline_dispositions_total",
                               disposition="discarded"),
            "forwarded": x.one("repro_pipeline_forwarded_total"),
            "segments": x.one("repro_archive_segments_total"),
            "writer_watermark": x.one("repro_writer_watermark_seconds"),
            "writer_watermark_wall":
                x.one("repro_writer_watermark_wall_seconds"),
            "gill_kept": x.total("repro_gill_decisions_total",
                                 decision="kept"),
            "gill_dropped": x.total("repro_gill_decisions_total",
                                    decision="dropped"),
        }, unexposed={"wall_time_s"})

    def test_stage_snapshots(self, chaos_run):
        pipeline, _ = chaos_run
        snap = pipeline.metrics.snapshot()
        x = Exposition(pipeline.metrics.registry)
        assert [s.name for s in snap.stages] \
            == ["ingest", "process", "write"]
        for row in snap.stages:
            latency = x.one("repro_pipeline_stage_latency_seconds",
                            stage=row.name)
            updates = "repro_pipeline_stage_updates_total"
            check(row, {
                "processed": x.one(updates, stage=row.name,
                                   result="processed"),
                "dropped": x.one(updates, stage=row.name,
                                 result="dropped"),
                "queue_depth": x.one("repro_pipeline_queue_depth",
                                     stage=row.name),
                "queue_high_water": x.one(
                    "repro_pipeline_queue_depth_high_water",
                    stage=row.name),
                "latency_p50_s": latency.percentile(0.5),
                "latency_p99_s": latency.percentile(0.99),
                "latency_mean_s": latency.mean,
                "latency_count": latency.count,
            })

    def test_session_snapshots(self, chaos_run):
        pipeline, _ = chaos_run
        snap = pipeline.metrics.snapshot()
        x = Exposition(pipeline.metrics.registry)
        assert [s.session for s in snap.sessions] \
            == sorted(s.session for s in snap.sessions)
        assert len(snap.sessions) == 6
        for row in snap.sessions:
            name = row.session
            check(row, {
                "enqueued": x.one("repro_session_updates_total",
                                  session=name, result="enqueued"),
                "dropped": x.one("repro_session_updates_total",
                                 session=name, result="dropped"),
                "restarts": x.one("repro_session_restarts_total",
                                  session=name),
                "malformed": x.one("repro_session_malformed_total",
                                   session=name),
                "quarantined": x.one("repro_session_quarantined",
                                     session=name) == 1,
                "backoff_s": x.one("repro_session_backoff_seconds",
                                   session=name),
            })

    def test_supervision_snapshot(self, chaos_run):
        pipeline, _ = chaos_run
        snap = pipeline.metrics.snapshot().supervision
        x = Exposition(pipeline.metrics.registry)
        events = "repro_supervision_events_total"
        check(snap, {
            "session_restarts": x.total("repro_session_restarts_total"),
            "malformed": x.total("repro_session_malformed_total"),
            "degraded_episodes": x.one(events, event="session_degraded"),
            "worker_restarts": x.one(events, event="worker_restart"),
            "writer_io_errors": x.one(events, event="writer_io_error"),
            "archive_recoveries": x.one(events, event="archive_recovery"),
            "rib_redumps": x.one(events, event="rib_redump"),
            "order_violations": x.one(events, event="order_violation"),
            "archive_lost": x.one("repro_archive_updates_lost_total"),
        })
        quarantined = sorted(
            dict(s.labels)["session"]
            for s in x.families["repro_session_quarantined"].samples
            if s.value == 1)
        assert sorted(snap.quarantined) == quarantined

    def test_query_snapshot(self, chaos_run):
        pipeline, engine = chaos_run
        x = Exposition(pipeline.metrics.registry)
        segments = "repro_query_segments_total"
        expected = {
            "queries": x.total("repro_query_requests_total"),
            "cache_hits": x.one("repro_query_requests_total",
                                cache="hit"),
            "cache_misses": x.one("repro_query_requests_total",
                                  cache="miss"),
            "cache_invalidations":
                x.one("repro_query_cache_invalidations_total"),
            "segments_considered": x.one(segments, outcome="considered"),
            "segments_pruned_time": x.one(segments,
                                          outcome="pruned_time"),
            "segments_pruned_index": x.one(segments,
                                           outcome="pruned_index"),
            "segments_decoded": x.one(segments, outcome="decoded"),
            "records_decoded": x.one("repro_query_records_total",
                                     kind="decoded"),
            "records_returned": x.one("repro_query_records_total",
                                      kind="returned"),
            "index_builds": x.one("repro_query_index_ops_total",
                                  op="build"),
            "index_loads": x.one("repro_query_index_ops_total",
                                 op="load"),
            "index_build_time_s":
                x.one("repro_query_index_build_seconds_total"),
            "payload_cache_hits": x.one("repro_query_payload_cache_total",
                                        result="hit"),
            "payload_cache_misses": x.one(
                "repro_query_payload_cache_total", result="miss"),
            "payload_cache_bytes": x.one("repro_query_payload_cache_bytes"),
        }
        check(engine.stats_snapshot(), expected)
        check(pipeline.metrics.snapshot().query, expected)
        assert expected["cache_hits"] == 1


def golden_lines(pipeline):
    """The deterministic part of one run's exposition and status block."""
    lines = []
    for line in pipeline.metrics.registry.prometheus().splitlines():
        name = line.split("{")[0].split(" ")[0]
        if line.startswith(("# HELP", "# TYPE")) or (
                name.endswith("_total")
                and not name.endswith("_seconds_total")):
            lines.append(line)
    rendered = render_metrics(pipeline.metrics.snapshot(),
                              per_session=True)
    for line in rendered.splitlines():
        words = line.split()
        if words and words[0] in ("stage", "ingest", "process", "write"):
            continue                        # the latency table
        if any(timed in line for timed in ("throughput", "ago)",
                                           "built (")):
            continue
        lines.append(line)
    return lines


def test_exposition_and_render_match_golden(chaos_run):
    pipeline, _ = chaos_run
    lines = golden_lines(pipeline)
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        with open(GOLDEN, "w") as handle:
            handle.write("\n".join(lines) + "\n")
    with open(GOLDEN) as handle:
        assert lines == handle.read().splitlines()
