"""Tests for the rolling archive writer."""

import os
from collections import Counter

import pytest

from repro.bgp.archive import (
    RIS_INTERVAL_S,
    RollingArchiveWriter,
)
from repro.bgp.message import BGPUpdate
from repro.bgp.prefix import Prefix

P1 = Prefix.parse("10.0.0.0/24")


def upd(t, vp="vp1"):
    return BGPUpdate(vp, t, P1, (1, 2))


class TestRollingWriter:
    def test_flush_on_interval_crossing(self, tmp_path):
        writer = RollingArchiveWriter(str(tmp_path), interval_s=100.0)
        assert writer.write(upd(10.0)) is None
        assert writer.write(upd(50.0)) is None
        segment = writer.write(upd(150.0))   # crosses into slot 1
        assert segment is not None
        assert segment.start == 0.0 and segment.end == 100.0
        assert segment.count == 2
        assert os.path.exists(segment.path)

    def test_close_flushes_tail(self, tmp_path):
        writer = RollingArchiveWriter(str(tmp_path), interval_s=100.0)
        writer.write(upd(10.0))
        segment = writer.close()
        assert segment is not None and segment.count == 1
        assert writer.close() is None    # idempotent

    def test_out_of_order_rejected(self, tmp_path):
        writer = RollingArchiveWriter(str(tmp_path), interval_s=100.0)
        writer.write(upd(50.0))
        with pytest.raises(ValueError):
            writer.write(upd(10.0))

    def test_invalid_interval(self, tmp_path):
        with pytest.raises(ValueError):
            RollingArchiveWriter(str(tmp_path), interval_s=0.0)

    def test_write_stream_many_segments(self, tmp_path):
        writer = RollingArchiveWriter(str(tmp_path), interval_s=100.0)
        stream = [upd(float(t)) for t in range(0, 500, 20)]
        writer.write_stream(stream)
        writer.close()
        assert len(writer.segments) == 5
        total = sum(s.count for s in writer.segments)
        assert total == len(stream)

    def test_segment_naming(self, tmp_path):
        writer = RollingArchiveWriter(str(tmp_path), interval_s=300.0)
        writer.write(upd(450.0))
        segment = writer.close()
        assert "updates.000000000300-000000000600" in segment.path

    def test_uncompressed_mode(self, tmp_path):
        writer = RollingArchiveWriter(str(tmp_path), interval_s=100.0,
                                      compress=False)
        writer.write(upd(1.0))
        segment = writer.close()
        assert segment.path.endswith(".mrt")


class TestConsumerSide:
    @pytest.fixture
    def published(self, tmp_path):
        writer = RollingArchiveWriter(str(tmp_path), interval_s=100.0)
        writer.write_stream([upd(float(t)) for t in range(0, 400, 25)])
        writer.close()
        return writer

    def test_segment_for(self, published):
        segment = published.segment_for(150.0)
        assert segment is not None
        assert segment.start == 100.0

    def test_segment_for_unpublished_time(self, published):
        assert published.segment_for(9999.0) is None

    def test_read_range_exact(self, published):
        updates = published.read_range(100.0, 300.0)
        assert all(100.0 <= u.time < 300.0 for u in updates)
        assert len(updates) == 8

    def test_read_range_partial_segment(self, published):
        updates = published.read_range(110.0, 160.0)
        assert [u.time for u in updates] == [125.0, 150.0]

    def test_roundtrip_everything(self, published):
        updates = published.read_range(0.0, 1e9)
        assert len(updates) == 16

    def test_default_interval_is_ris(self, tmp_path):
        writer = RollingArchiveWriter(str(tmp_path))
        assert writer.interval_s == RIS_INTERVAL_S


class TestSparseAndEdgeCases:
    """Archive behaviour around empty slots and boundaries."""

    @pytest.fixture
    def sparse(self, tmp_path):
        # Updates skip entire interval slots: slots 0, 7 and 31 are
        # published, everything between stays empty.
        writer = RollingArchiveWriter(str(tmp_path), interval_s=100.0)
        writer.write_stream([upd(10.0), upd(50.0),
                             upd(750.0), upd(3150.0)])
        writer.close()
        return writer

    def test_skipped_slots_produce_no_segments(self, sparse):
        assert [s.start for s in sparse.segments] == [0.0, 700.0, 3100.0]

    def test_segment_for_inside_gap(self, sparse):
        assert sparse.segment_for(350.0) is None
        assert sparse.segment_for(2999.0) is None

    def test_segment_for_boundaries(self, sparse):
        assert sparse.segment_for(700.0).start == 700.0
        assert sparse.segment_for(799.9).start == 700.0
        assert sparse.segment_for(800.0) is None
        assert sparse.segment_for(-5.0) is None

    def test_read_range_over_gap(self, sparse):
        assert [u.time for u in sparse.read_range(0.0, 3200.0)] == \
            [10.0, 50.0, 750.0, 3150.0]
        assert sparse.read_range(100.0, 700.0) == []

    def test_close_on_empty_writer(self, tmp_path):
        writer = RollingArchiveWriter(str(tmp_path), interval_s=100.0)
        assert writer.close() is None
        assert writer.segments == []
        assert writer.read_range(0.0, 1e9) == []
        assert writer.segment_for(0.0) is None

    def test_compressed_roundtrip_across_boundary(self, tmp_path):
        """read_range spanning a segment boundary, bz2 on."""
        writer = RollingArchiveWriter(str(tmp_path), interval_s=100.0,
                                      compress=True)
        times = [80.0, 95.0, 105.0, 120.0]
        writer.write_stream([upd(t) for t in times])
        writer.close()
        assert len(writer.segments) == 2
        assert all(s.path.endswith(".mrt.bz2") for s in writer.segments)
        spanning = writer.read_range(90.0, 110.0)
        assert [u.time for u in spanning] == [95.0, 105.0]
        assert [u.time for u in writer.read_range(0.0, 200.0)] == times


class TestRIBDumps:
    def test_rib_dump_roundtrip(self, tmp_path):
        from repro.bgp.rib import Route
        writer = RollingArchiveWriter(str(tmp_path), interval_s=100.0)
        ribs = {
            "vp1": [Route(P1, (1, 2), frozenset({(1, 5)}), 10.0)],
            "vp2": [Route(P1, (3, 2), frozenset(), 10.0)],
        }
        path = writer.write_rib_dump(28800.0, ribs)
        assert "rib.000000028800" in path
        replayed = writer.read_rib_dump(path)
        assert replayed == ribs

    def test_rib_dump_uncompressed(self, tmp_path):
        from repro.bgp.rib import Route
        writer = RollingArchiveWriter(str(tmp_path), interval_s=100.0,
                                      compress=False)
        path = writer.write_rib_dump(0.0, {"vp1": [Route(P1, (1, 2))]})
        assert path.endswith(".mrt")
        assert writer.read_rib_dump(path)["vp1"][0].as_path == (1, 2)

    def test_empty_rib_dump(self, tmp_path):
        writer = RollingArchiveWriter(str(tmp_path), interval_s=100.0)
        path = writer.write_rib_dump(0.0, {})
        assert writer.read_rib_dump(path) == {}


class TestCheckpointRecovery:
    def checkpointed(self, tmp_path):
        return RollingArchiveWriter(str(tmp_path), interval_s=100.0,
                                    compress=False, checkpoint=True)

    def test_checkpoint_written_on_flush(self, tmp_path):
        from repro.bgp.archive import read_manifest
        writer = self.checkpointed(tmp_path)
        writer.write(upd(10.0))
        writer.write(upd(150.0))             # flushes slot 0
        segments = read_manifest(str(tmp_path)).segments
        assert [s.end for s in segments] == [100.0]
        assert writer.durable_watermark == 100.0

    def test_recover_deletes_torn_segment(self, tmp_path):
        writer = self.checkpointed(tmp_path)
        writer.write(upd(10.0))
        writer.write(upd(150.0))             # slot 0 is durable
        # Simulate a crash mid-write: a segment file exists on disk
        # that the manifest never acknowledged.
        torn = tmp_path / "updates.000000000100-000000000200.mrt"
        torn.write_bytes(b"torn garbage from a crashed writer")
        fresh = self.checkpointed(tmp_path)
        report = fresh.recover()
        assert report.torn_removed == (torn.name,)
        assert not torn.exists()
        assert report.watermark == 100.0
        assert report.segments == 1
        assert len(fresh.read_range(0.0, 1e9)) == 1

    def test_recover_drops_corrupt_manifested_segment(self, tmp_path):
        writer = self.checkpointed(tmp_path)
        writer.write(upd(10.0))
        writer.write(upd(150.0))
        writer.write(upd(250.0))             # slot 1 durable too
        # Corrupt the second durable file after the fact (disk rot).
        second = writer.segments[1].path
        with open(second, "wb") as handle:
            handle.write(b"\x00bad")
        fresh = self.checkpointed(tmp_path)
        report = fresh.recover()
        assert report.watermark == 100.0     # truncated to segment 1
        assert report.segments == 1

    def test_recover_discards_pending_and_rewinds(self, tmp_path):
        writer = self.checkpointed(tmp_path)
        writer.write(upd(10.0))
        writer.write(upd(150.0))
        writer.write(upd(160.0))             # pending in slot 1
        report = writer.recover()
        assert report.lost_pending == 2
        # The writer rewound to the watermark: a time at (or past) it
        # is acceptable again even though later times were seen.
        writer.write(upd(100.0))
        segment = writer.write(upd(250.0))
        assert segment is not None and segment.start == 100.0

    def test_recover_requires_checkpointing(self, tmp_path):
        writer = RollingArchiveWriter(str(tmp_path), interval_s=100.0,
                                      compress=False)
        with pytest.raises(RuntimeError):
            writer.recover()

    def test_recover_empty_directory(self, tmp_path):
        report = self.checkpointed(tmp_path).recover()
        assert report.watermark is None
        assert report.segments == 0
        assert report.torn_removed == ()

    def test_resume_reproduces_uninterrupted_archive(self, tmp_path):
        """Write-crash-recover-rewrite equals a clean run exactly."""
        updates = [upd(float(t) * 30.0) for t in range(20)]
        clean_dir = tmp_path / "clean"
        clean = RollingArchiveWriter(str(clean_dir), interval_s=100.0,
                                     compress=False, checkpoint=True)
        clean.write_stream(updates)
        clean.close()

        crash_dir = tmp_path / "crash"
        crashy = RollingArchiveWriter(str(crash_dir), interval_s=100.0,
                                      compress=False, checkpoint=True)
        crashy.write_stream(updates[:13])    # crash mid-stream
        resumed = RollingArchiveWriter(str(crash_dir), interval_s=100.0,
                                       compress=False, checkpoint=True)
        watermark = resumed.recover().watermark
        resumed.write_stream(
            [u for u in updates if u.time >= watermark])
        resumed.close()
        assert [u.time for u in resumed.read_range(0.0, 1e9)] \
            == [u.time for u in clean.read_range(0.0, 1e9)]

    def test_resumed_writer_keeps_the_archives_format(self, tmp_path):
        """A writer built with another encoding and interval resumes a
        bz2, 300 s archive as bz2 on the 300 s grid, and every update
        stays readable."""
        from repro.bgp.archive import read_manifest
        from repro.query import QueryEngine, QuerySpec
        from repro.workload import SyntheticStreamGenerator, \
            overshoot_config

        _, stream = SyntheticStreamGenerator(overshoot_config(
            seed=1, n_vps=6, duration_s=1800.0)).generate()
        stream.sort(key=lambda u: (u.time, u.vp, u.prefix))
        first = RollingArchiveWriter(str(tmp_path), interval_s=300.0,
                                     compress=True, checkpoint=True)
        first.write_stream(stream[:len(stream) // 2])    # then a crash
        resumed = RollingArchiveWriter(str(tmp_path), interval_s=600.0,
                                       compress=False, checkpoint=True)
        watermark = resumed.recover().watermark
        assert watermark is not None
        resumed.write_stream([u for u in stream if u.time >= watermark])
        resumed.close()

        names = [name for name in os.listdir(tmp_path)
                 if name.startswith("updates.")
                 and not name.endswith(".idx")]
        assert names and all(name.endswith(".mrt.bz2") for name in names)
        segments = read_manifest(str(tmp_path)).segments
        assert len(segments) == len(names)
        starts = [segment.start for segment in segments]
        assert starts == sorted(set(starts))
        assert all(start % 300.0 == 0.0 for start in starts)
        assert all(s.end - s.start == 300.0 for s in segments)
        with QueryEngine(str(tmp_path)) as engine:
            got = engine.query(QuerySpec())
        assert len(got) == len(stream)
        assert Counter(got) == Counter(stream)


class TestManifestDigests:
    """Seal-time fingerprints in CHECKPOINT.json (repro.guard)."""

    def checkpointed(self, tmp_path):
        return RollingArchiveWriter(str(tmp_path), interval_s=100.0,
                                    compress=False, checkpoint=True)

    def three_durable_segments(self, tmp_path):
        writer = self.checkpointed(tmp_path)
        writer.write_stream([upd(float(t)) for t in range(0, 300, 20)])
        writer.write(upd(350.0))            # seals slot 2; slot 3 open
        assert len(writer.segments) == 3
        return writer

    def test_digests_recorded_and_match_the_files(self, tmp_path):
        from repro.bgp.archive import read_manifest
        from repro.guard.integrity import file_digests

        writer = self.three_durable_segments(tmp_path)
        manifest = read_manifest(str(tmp_path))
        assert len(manifest.segments) == 3
        for entry, segment in zip(manifest.segments, writer.segments):
            digests = file_digests(segment.path)
            assert entry.size == digests.size == segment.size
            assert entry.crc32 == digests.crc32 == segment.crc32
            assert entry.sha256 == digests.sha256 == segment.sha256

    def test_recover_catches_bitflip_in_middle_segment(self, tmp_path):
        """Silent rot in the MIDDLE of the manifest: the file length
        and record framing survive a one-byte flip, so only the
        recorded CRC can catch it — and recovery must rewind to before
        the damage, not trust the (intact) later segments built on a
        broken history."""
        from repro.pipeline.faults import corrupt_bitflip

        writer = self.three_durable_segments(tmp_path)
        middle = writer.segments[1].path
        size_before = os.path.getsize(middle)
        corrupt_bitflip(middle)
        assert os.path.getsize(middle) == size_before  # same length

        fresh = self.checkpointed(tmp_path)
        report = fresh.recover()
        assert report.watermark == 100.0    # end of the intact prefix
        assert report.segments == 1
        # The corrupt file and everything after it are deleted: the
        # manifest is the source of truth and it now ends at slot 0.
        assert not os.path.exists(middle)
        assert len(fresh.read_range(0.0, 1e9)) == 5
        # The archive is writable again from the durable watermark.
        fresh.write(upd(110.0))
        segment = fresh.write(upd(250.0))
        assert segment is not None and segment.start == 100.0

    def test_recover_passes_intact_digested_archive(self, tmp_path):
        writer = self.three_durable_segments(tmp_path)
        report = self.checkpointed(tmp_path).recover()
        assert report.watermark == 300.0
        assert report.segments == len(writer.segments)
        assert report.torn_removed == ()


class TestReadRangePushdown:
    """The prefix=/vp= filters must be exactly a post-hoc filter of
    the historical unfiltered scan."""

    def multi_vp_writer(self, tmp_path):
        writer = RollingArchiveWriter(str(tmp_path), interval_s=100.0,
                                      compress=False)
        prefixes = [P1, Prefix.parse("10.0.1.0/24"),
                    Prefix.parse("10.0.2.0/24")]
        for t in range(0, 500, 7):
            writer.write(BGPUpdate(f"vp{t % 3}", float(t),
                                   prefixes[t % len(prefixes)], (1, 2)))
        writer.close()
        return writer, prefixes

    def test_prefix_pushdown_equals_post_filter(self, tmp_path):
        writer, prefixes = self.multi_vp_writer(tmp_path)
        everything = writer.read_range(0.0, 1e9)
        for prefix in prefixes:
            assert writer.read_range(0.0, 1e9, prefix=prefix) \
                == [u for u in everything if u.prefix == prefix]

    def test_vp_pushdown_equals_post_filter(self, tmp_path):
        writer, _ = self.multi_vp_writer(tmp_path)
        everything = writer.read_range(0.0, 1e9)
        for vp in ("vp0", "vp1", "vp2", "vp-none"):
            assert writer.read_range(0.0, 1e9, vp=vp) \
                == [u for u in everything if u.vp == vp]

    def test_combined_pushdown_with_time_window(self, tmp_path):
        writer, prefixes = self.multi_vp_writer(tmp_path)
        window = writer.read_range(100.0, 400.0)
        assert writer.read_range(100.0, 400.0, prefix=prefixes[1],
                                 vp="vp1") \
            == [u for u in window
                if u.prefix == prefixes[1] and u.vp == "vp1"]

    def test_no_filter_unchanged(self, tmp_path):
        writer, _ = self.multi_vp_writer(tmp_path)
        assert writer.read_range(0.0, 1e9) \
            == writer.read_range(0.0, 1e9, prefix=None, vp=None)


class TestStreamingRIB:
    def test_iter_equals_read(self, tmp_path):
        from repro.bgp.rib import Route
        writer = RollingArchiveWriter(str(tmp_path), interval_s=100.0)
        ribs = {
            f"vp{i}": [Route(P1, (i, 2), frozenset(), float(t))
                       for t in range(5)]
            for i in range(4)
        }
        path = writer.write_rib_dump(100.0, ribs)
        streamed = {}
        for record in writer.iter_rib_dump(path):
            streamed.setdefault(record.vp, []).append(record.route)
        assert streamed == writer.read_rib_dump(path) == ribs


class TestIndexRecovery:
    def test_recover_deletes_orphaned_indexes(self, tmp_path):
        from repro.bgp.archive import INDEX_SUFFIX
        writer = RollingArchiveWriter(str(tmp_path), interval_s=100.0,
                                      compress=False, checkpoint=True,
                                      index=True)
        writer.write_stream([upd(10.0), upd(150.0), upd(250.0)])
        # Two segments are durable and indexed; the open interval is
        # not.  Simulate a torn seal: segment file + index on disk but
        # absent from the manifest.
        torn = os.path.join(str(tmp_path),
                            "updates.000000000300-000000000400.mrt")
        with open(torn, "wb"):
            pass
        with open(torn + INDEX_SUFFIX, "w") as handle:
            handle.write("{}")

        recovered = RollingArchiveWriter(str(tmp_path), interval_s=100.0,
                                         compress=False, checkpoint=True,
                                         index=True)
        report = recovered.recover()
        assert report.segments == 2
        assert os.path.basename(torn) in report.torn_removed
        assert os.path.basename(torn) + INDEX_SUFFIX \
            in report.index_orphans
        assert not os.path.exists(torn + INDEX_SUFFIX)
        # Indexes of surviving segments are untouched.
        for segment in recovered.segments:
            assert os.path.exists(segment.path + INDEX_SUFFIX)


class TestSealListeners:
    def test_multiple_listeners_fire_in_order(self, tmp_path):
        fired = []
        writer = RollingArchiveWriter(str(tmp_path), interval_s=100.0,
                                      compress=False)
        writer.add_seal_listener(
            lambda seg, build: fired.append(("a", seg.start)))
        writer.add_seal_listener(
            lambda seg, build: fired.append(("b", seg.start)))
        writer.write_stream([upd(10.0), upd(150.0)])
        writer.close()
        assert fired == [("a", 0.0), ("b", 0.0), ("a", 100.0),
                         ("b", 100.0)]

    def test_ctor_hook_still_works(self, tmp_path):
        fired = []
        writer = RollingArchiveWriter(
            str(tmp_path), interval_s=100.0, compress=False)
        writer.add_seal_listener(
            lambda seg, build: fired.append(seg.count))
        writer.write_stream([upd(10.0), upd(150.0)])
        writer.close()
        assert fired == [1, 1]

    def test_remove_seal_listener(self, tmp_path):
        fired = []
        writer = RollingArchiveWriter(str(tmp_path), interval_s=100.0,
                                      compress=False)
        hook = lambda seg, build: fired.append(seg.start)  # noqa: E731
        writer.add_seal_listener(hook)
        writer.remove_seal_listener(hook)
        writer.remove_seal_listener(hook)     # absent: no-op
        writer.write_stream([upd(10.0), upd(150.0)])
        writer.close()
        assert fired == []
