"""What one collector publishes does not depend on how it ran.

The same seeded epoch must leave the same bytes — MRT segments,
``gill.jsonl``, ``events.jsonl`` and the checkpoint manifest whose
guard digests fingerprint each segment — whatever the shard count,
with tracing on or off, and across a coordinator crash + resume.
``test_merge.py`` holds the other half of the contract: partition +
merge reproduces the single-process archive.
"""

import pytest

from repro.bgp.archive import RollingArchiveWriter
from repro.core.orchestrator import Orchestrator, OrchestratorConfig
from repro.events import EventPipeline, EventStore, journal_path_for
from repro.gill import GillConfig
from repro.pipeline import (
    CollectionPipeline,
    FaultPlan,
    InjectedCrash,
    PipelineConfig,
    SupervisorConfig,
)

from .conftest import TIMEOUT, archive_digest, archive_files


def epoch_config(fault_plan=None, n_shards=3, **overrides):
    return PipelineConfig(
        n_shards=n_shards, overflow_policy="block",
        fault_plan=fault_plan,
        supervision=SupervisorConfig(backoff_initial_s=0.005,
                                     backoff_max_s=0.02),
        **overrides)


def open_archive(directory):
    return RollingArchiveWriter(str(directory), interval_s=300.0,
                                compress=False, checkpoint=True)


def run_epoch(streams, directory, journals=True, **config):
    """One collection epoch, by default with every journaling layer on."""
    if journals:
        config["gill"] = GillConfig(definition=1)
    archive = open_archive(directory)
    pipeline = CollectionPipeline(epoch_config(**config),
                                  archive=archive)
    if journals:
        store = EventStore(journal_path_for(str(directory)))
        EventPipeline(store=store,
                      registry=pipeline.metrics.registry).attach(archive)
    result = pipeline.run(streams, timeout=TIMEOUT)
    assert result.accounted, "pipeline lost queued updates"
    return pipeline


class TestPublishedBytes:
    def test_shard_counts_agree(self, streams, tmp_path):
        """Shard count must not change what is published — segments,
        both journals, checkpoint digests — only which worker each
        session's one queue belongs to."""
        digests = set()
        for n_shards in (1, 2, 5):
            directory = tmp_path / f"shards{n_shards}"
            run_epoch(streams, directory, n_shards=n_shards)
            assert "gill.jsonl" in archive_files(directory)
            digests.add(archive_digest(directory))
        assert len(digests) == 1

    def test_tracing_preserves_byte_identity(self, streams, tmp_path):
        """Tracing is observability, not behaviour: a traced epoch
        publishes the exact bytes an untraced one does — segments,
        journals, checkpoint digests."""
        traced = run_epoch(streams, tmp_path / "traced",
                           trace_sample_rate=0.05)
        assert traced.metrics.tracer.recent(), "nothing was sampled"
        run_epoch(streams, tmp_path / "untraced")
        files = archive_files(tmp_path / "traced")
        assert "gill.jsonl" in files and "events.jsonl" in files
        assert archive_digest(tmp_path / "traced") \
            == archive_digest(tmp_path / "untraced")


class TestCrashResume:
    def orchestrator(self):
        return Orchestrator(OrchestratorConfig(
            component1_interval_s=600.0,
            component2_interval_s=2400.0,
            mirror_window_s=600.0,
            events_per_cell=5,
        ))

    def test_interrupted_epoch_resumes_byte_identical(self, streams,
                                                      tmp_path):
        """The coordinator crashes mid-epoch (injected writer crash),
        then a fresh orchestrator resumes with ``resume=True`` and the
        archive — checkpoint manifest and its digests included —
        finishes exactly as an uninterrupted epoch."""
        baseline_dir = tmp_path / "baseline"
        self.orchestrator().run_pipeline_epoch(
            streams, epoch_config(),
            archive=open_archive(baseline_dir), timeout=TIMEOUT)

        crashed_dir = tmp_path / "crashed"
        with pytest.raises(InjectedCrash):
            self.orchestrator().run_pipeline_epoch(
                streams,
                epoch_config(
                    fault_plan=FaultPlan.parse("crash=writer@60")),
                archive=open_archive(crashed_dir), timeout=TIMEOUT)

        resumed = self.orchestrator()
        result = resumed.run_pipeline_epoch(
            streams, epoch_config(),
            archive=open_archive(crashed_dir),
            timeout=TIMEOUT, resume=True)
        assert result.accounted
        assert resumed.stats.epoch_resumes == 1
        assert "CHECKPOINT.json" in archive_files(crashed_dir)
        assert archive_digest(baseline_dir) \
            == archive_digest(crashed_dir)
