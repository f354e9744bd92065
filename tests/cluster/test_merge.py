"""Partitioned collection and the deterministic seal-boundary merge.

Every test compares against the same oracle: a single-process pipeline
over the identical streams.  The merge must reproduce that archive
byte for byte — including under the awkward inputs: equal timestamps
landing in different partitions, a straggler partition whose whole
stream (and therefore its heartbeats) runs late, and partitions that
own no VPs at all.
"""

import os

import pytest

from repro.bgp.archive import RollingArchiveWriter, read_manifest
from repro.bgp.message import BGPUpdate
from repro.bgp.mrt import read_archive
from repro.bgp.prefix import Prefix
from repro.cluster import (
    MergeReport,
    PartitionError,
    PartitionManifest,
    collect_partitioned,
    discover_partitions,
    merge_archives,
    partition_vps,
)
from repro.events import EventPipeline, EventStore, journal_path_for
from repro.gill import GillConfig
from repro.pipeline import CollectionPipeline, PipelineConfig
from repro.telemetry import MetricsRegistry

from .conftest import TIMEOUT, archive_digest, archive_files

P1 = Prefix.parse("10.1.0.0/16")
P2 = Prefix.parse("10.2.0.0/16")


def run_single(streams, directory, gill=False, events=False):
    """The oracle: one single-process epoch over the same streams."""
    archive = RollingArchiveWriter(str(directory), interval_s=300.0,
                                   compress=False, checkpoint=True)
    kwargs = dict(overflow_policy="block")
    if gill:
        kwargs["gill"] = GillConfig(definition=1)
    pipeline = CollectionPipeline(PipelineConfig(**kwargs),
                                  archive=archive)
    if events:
        store = EventStore(journal_path_for(str(directory)))
        EventPipeline(store=store,
                      registry=pipeline.metrics.registry).attach(archive)
    result = pipeline.run(streams, timeout=TIMEOUT)
    assert result.accounted
    return result


def run_partitioned(streams, parts_dir, out_dir, n_partitions,
                    gill=False, events=False, registry=None):
    report = collect_partitioned(
        streams, str(parts_dir), n_partitions, interval_s=300.0,
        compress=False,
        config=PipelineConfig(overflow_policy="block"),
        timeout=TIMEOUT)
    assert report.accounted
    event_pipeline = None
    if events:
        store = EventStore(journal_path_for(str(out_dir)))
        event_pipeline = EventPipeline(
            store=store,
            registry=registry if registry is not None
            else MetricsRegistry())
    merged = merge_archives(
        str(parts_dir), str(out_dir),
        gill=GillConfig(definition=1) if gill else None,
        events=event_pipeline, registry=registry)
    return report, merged


class TestPartitioning:
    def test_round_robin_over_sorted_universe(self):
        parts = partition_vps(["vp3", "vp1", "vp2", "vp5", "vp4"], 2)
        assert parts == [["vp1", "vp3", "vp5"], ["vp2", "vp4"]]

    def test_deterministic_under_input_order(self):
        vps = [f"vp{i}" for i in range(9)]
        assert partition_vps(vps, 4) == partition_vps(reversed(vps), 4)

    def test_empty_partitions_when_oversplit(self):
        parts = partition_vps(["vp1", "vp2"], 4)
        assert parts == [["vp1"], ["vp2"], [], []]

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            partition_vps(["vp1"], 0)

    def test_manifest_roundtrip(self, tmp_path):
        manifest = PartitionManifest(index=1, n_partitions=3,
                                     vps=("vp1", "vp4"),
                                     interval_s=300.0, compress=False)
        manifest.write(str(tmp_path))
        assert PartitionManifest.load(str(tmp_path)) == manifest

    def test_discover_orders_by_index(self, tmp_path):
        for name in ("part-10", "part-2", "part-0", "not-a-part"):
            os.makedirs(tmp_path / name)
        found = discover_partitions(str(tmp_path))
        assert [os.path.basename(p) for p in found] \
            == ["part-0", "part-2", "part-10"]


class TestMergeDifferential:
    def test_merge_matches_single_process(self, streams, tmp_path):
        """3 collector processes + merge == one single-process run,
        with gill and event analysis running at the merge boundary."""
        run_single(streams, tmp_path / "single", gill=True, events=True)
        registry = MetricsRegistry()
        report, merged = run_partitioned(
            streams, tmp_path / "parts", tmp_path / "merged", 3,
            gill=True, events=True, registry=registry)
        assert merged.partitions == 3
        assert merged.empty_partitions == 0
        assert "gill.jsonl" in archive_files(tmp_path / "merged")
        assert "events.jsonl" in archive_files(tmp_path / "merged")
        assert archive_digest(tmp_path / "single") \
            == archive_digest(tmp_path / "merged")
        # The checkpoint manifests carry the guard digests; equality
        # of the files implies equal sha256/crc32 fingerprints.
        single_manifest = read_manifest(str(tmp_path / "single"))
        assert single_manifest.segments
        assert all(segment.sha256 for segment in single_manifest.segments)
        exposition = registry.prometheus()
        assert "repro_cluster_merge_partitions" in exposition

    def test_duplicate_timestamps_across_partitions(self, tmp_path):
        """Equal-time updates owned by *different* partitions must
        interleave exactly as the single-process writer orders an
        equal-time run (canonical attribute order)."""
        times = [10.0, 10.0, 170.0, 170.0, 170.0, 400.0, 400.0]
        streams = {
            # vp1/vp3 land in partition 0, vp2/vp4 in partition 1.
            "vp1": [BGPUpdate("vp1", t, P1, (1, 10)) for t in times],
            "vp2": [BGPUpdate("vp2", t, P1, (2, 10)) for t in times],
            "vp3": [BGPUpdate("vp3", t, P2, (3, 10)) for t in times],
            "vp4": [BGPUpdate("vp4", t, P2, (4, 10)) for t in times],
        }
        run_single(streams, tmp_path / "single")
        report, merged = run_partitioned(
            streams, tmp_path / "parts", tmp_path / "merged", 2)
        assert merged.updates == len(times) * 4
        assert archive_digest(tmp_path / "single") \
            == archive_digest(tmp_path / "merged")

    def test_straggler_partition(self, tmp_path):
        """One partition's whole stream runs late (its sessions
        heartbeat far behind the others): the merge is still the
        canonical order, and the skew shows up as merge lag."""
        early = {f"vp{i}": [BGPUpdate(f"vp{i}", t, P1, (i, 99))
                            for t in (5.0, 40.0, 80.0, 120.0)]
                 for i in (1, 3)}
        # vp2 sorts between vp1 and vp3, so its partition differs; its
        # updates all arrive an interval later than everyone else's.
        straggler = {"vp2": [BGPUpdate("vp2", t, P2, (2, 99))
                             for t in (700.0, 750.0, 800.0)]}
        streams = {**early, **straggler}
        run_single(streams, tmp_path / "single")
        report, merged = run_partitioned(
            streams, tmp_path / "parts", tmp_path / "merged", 2)
        assert archive_digest(tmp_path / "single") \
            == archive_digest(tmp_path / "merged")
        assert merged.max_lag_s >= 580.0

    def test_empty_partition(self, streams, tmp_path):
        """More partitions than VPs: the surplus partitions publish a
        manifest and zero segments, and the merge treats them as
        no-ops."""
        two_vps = {name: streams[name]
                   for name in sorted(streams)[:2]}
        run_single(two_vps, tmp_path / "single")
        report, merged = run_partitioned(
            two_vps, tmp_path / "parts", tmp_path / "merged", 4)
        assert len(report.results) == 4
        assert sum(1 for r in report.results if not r.vps) == 2
        assert merged.partitions == 4
        assert merged.empty_partitions == 2
        assert archive_digest(tmp_path / "single") \
            == archive_digest(tmp_path / "merged")


class TestMergeValidation:
    def test_rejects_missing_partitions(self, tmp_path):
        with pytest.raises(PartitionError):
            merge_archives(str(tmp_path), str(tmp_path / "out"))
        with pytest.raises(PartitionError):
            merge_archives([], str(tmp_path / "out"))

    def test_rejects_disagreeing_intervals(self, tmp_path):
        for index, interval in enumerate((300.0, 900.0)):
            part = tmp_path / f"part-{index}"
            os.makedirs(part)
            PartitionManifest(index=index, n_partitions=2, vps=(),
                              interval_s=interval,
                              compress=False).write(str(part))
        with pytest.raises(PartitionError, match="interval"):
            merge_archives(str(tmp_path), str(tmp_path / "out"))

    def test_partials_may_differ_in_encoding(self, tmp_path):
        """Each partial's files say how they are encoded, so a bz2
        partial merges with a plain one; the output takes the first
        partial's encoding."""
        parts = {1: (True, P1), 2: (False, P2)}
        for index, (vp, (compress, prefix)) in enumerate(parts.items()):
            part = str(tmp_path / "parts" / f"part-{index}")
            writer = RollingArchiveWriter(part, interval_s=300.0,
                                          compress=compress,
                                          checkpoint=True)
            writer.write_stream([BGPUpdate(f"vp{vp}", t + vp, prefix,
                                           (vp, 10)) for t in (0, 350)])
            writer.close()
            PartitionManifest(index=index, n_partitions=2,
                              vps=(f"vp{vp}",), interval_s=300.0,
                              compress=compress).write(part)
        merged = merge_archives(str(tmp_path / "parts"),
                                str(tmp_path / "out"))
        assert [os.path.basename(s.path) for s in merged.segments] == [
            "updates.000000000000-000000000300.mrt.bz2",
            "updates.000000000300-000000000600.mrt.bz2"]
        assert [(u.vp, u.time) for s in merged.segments
                for u in read_archive(s.path)] \
            == [("vp1", 1.0), ("vp2", 2.0), ("vp1", 351.0), ("vp2", 352.0)]

    def test_collect_rejects_gill_and_faults(self, streams):
        from repro.pipeline import FaultPlan

        with pytest.raises(ValueError, match="merge time"):
            collect_partitioned(
                streams, "/tmp/unused", 2,
                config=PipelineConfig(gill=GillConfig(definition=1)))
        with pytest.raises(ValueError, match="clean"):
            collect_partitioned(
                streams, "/tmp/unused", 2,
                config=PipelineConfig(
                    fault_plan=FaultPlan.parse("io-error=writer@2")))
