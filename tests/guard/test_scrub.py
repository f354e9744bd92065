"""Tests for the scrubber and the quarantine manager (repro.guard)."""

import os

from repro.bgp.archive import RollingArchiveWriter
from repro.bgp.message import BGPUpdate
from repro.bgp.prefix import Prefix
from repro.guard.manager import IntegrityGuard, quarantine_dir_for
from repro.guard.scrub import Scrubber, scrub_directory
from repro.pipeline.faults import corrupt_bitflip, corrupt_truncate
from repro.query.engine import DirectoryCatalog
from repro.query.index import load_index

from .conftest import N_SEGMENTS


def segment_paths(directory):
    return [s.path for s in
            DirectoryCatalog(str(directory)).segments()]


class TestScrubDirectory:
    def test_clean_archive_is_clean(self, archive_dir):
        report = scrub_directory(str(archive_dir))
        assert report.clean
        assert report.checked == report.intact == N_SEGMENTS
        assert report.skipped == 0
        assert report.indexes_rebuilt == 0

    def test_detects_and_quarantines_rot(self, archive_dir):
        paths = segment_paths(archive_dir)
        corrupt_bitflip(paths[1])
        corrupt_truncate(paths[3])
        report = scrub_directory(str(archive_dir))
        assert not report.clean
        assert dict(report.quarantined) == {
            os.path.basename(paths[1]): "crc32",
            os.path.basename(paths[3]): "size",
        }
        qdir = quarantine_dir_for(str(archive_dir))
        for path in (paths[1], paths[3]):
            name = os.path.basename(path)
            assert not os.path.exists(path)
            assert os.path.exists(os.path.join(qdir, name))
            # The sidecar indexed the condemned bytes: it went too.
            assert not os.path.exists(path + ".idx")
            assert os.path.exists(os.path.join(qdir, name + ".idx"))

    def test_second_pass_skips_quarantined(self, archive_dir):
        paths = segment_paths(archive_dir)
        corrupt_bitflip(paths[0])
        guard = IntegrityGuard(str(archive_dir))
        first = scrub_directory(str(archive_dir), guard=guard)
        assert len(first.quarantined) == 1
        second = scrub_directory(str(archive_dir), guard=guard)
        assert second.clean
        assert second.skipped == 1
        assert second.checked == N_SEGMENTS - 1

    def test_rebuilds_missing_and_torn_indexes(self, archive_dir):
        paths = segment_paths(archive_dir)
        os.remove(paths[0] + ".idx")                 # missing
        with open(paths[2] + ".idx", "r+b") as handle:  # torn mid-JSON
            handle.truncate(os.path.getsize(paths[2] + ".idx") // 2)
        report = scrub_directory(str(archive_dir))
        assert report.clean
        assert report.indexes_rebuilt == 2
        for path in (paths[0], paths[2]):
            assert load_index(path) is not None

    def test_pre_checksum_archive_falls_back_to_parse(self, tmp_path):
        # No checkpoint manifest: no digests to verify against, so the
        # scrub parses each segment instead.
        writer = RollingArchiveWriter(str(tmp_path), interval_s=100.0,
                                      compress=False)
        prefix = Prefix.parse("10.0.0.0/24")
        writer.write_stream([
            BGPUpdate("vp1", float(t), prefix, (1, 2))
            for t in range(0, 300, 25)])
        writer.close()
        assert scrub_directory(str(tmp_path)).clean
        with open(writer.segments[1].path, "wb") as handle:
            handle.write(b"\x00garbage")
        report = scrub_directory(str(tmp_path))
        assert [reason for _, reason in report.quarantined] == ["parse"]


class TestGuardState:
    def test_quarantine_state_survives_restart(self, archive_dir):
        paths = segment_paths(archive_dir)
        corrupt_bitflip(paths[2])
        scrub_directory(str(archive_dir))
        # A fresh guard (a restarted server) rebuilds the set from the
        # quarantine directory.
        guard = IntegrityGuard(str(archive_dir))
        assert guard.degraded
        assert guard.quarantined == (os.path.basename(paths[2]),)
        assert guard.is_quarantined(paths[2])
        assert guard.status()["degraded"]

    def test_double_quarantine_is_first_caller_wins(self, archive_dir):
        paths = segment_paths(archive_dir)
        guard = IntegrityGuard(str(archive_dir))
        assert guard.quarantine(paths[0], "crc32")
        assert not guard.quarantine(paths[0], "size")
        assert guard.quarantined == (os.path.basename(paths[0]),)


class TestScrubber:
    def test_step_rotates_through_live_segments(self, archive_dir):
        guard = IntegrityGuard(str(archive_dir))
        scrubber = Scrubber(str(archive_dir), guard, interval_s=60.0)
        names = [scrubber.step() for _ in range(N_SEGMENTS)]
        assert sorted(names) == sorted(
            os.path.basename(p) for p in segment_paths(archive_dir))
        # The rotation wraps: the next step re-checks the first.
        assert scrubber.step() == names[0]

    def test_step_quarantines_and_then_skips(self, archive_dir):
        paths = segment_paths(archive_dir)
        corrupt_truncate(paths[0])
        guard = IntegrityGuard(str(archive_dir))
        scrubber = Scrubber(str(archive_dir), guard, interval_s=60.0)
        scrubber.step()
        assert guard.quarantined == (os.path.basename(paths[0]),)
        # A full further rotation never revisits the condemned one.
        seen = {scrubber.step() for _ in range(N_SEGMENTS - 1)}
        assert os.path.basename(paths[0]) not in seen

    def test_background_thread_start_stop(self, archive_dir):
        guard = IntegrityGuard(str(archive_dir))
        scrubber = Scrubber(str(archive_dir), guard, interval_s=0.05).start()
        try:
            import time
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                snapshot = guard.registry.to_json()
                swept = {
                    family["name"]: family["samples"][0]["value"]
                    for family in snapshot["families"]
                    if family["name"]
                    == "repro_guard_scrub_segments_total"
                }
                if swept.get("repro_guard_scrub_segments_total", 0) >= 2:
                    break
                time.sleep(0.02)
            assert swept.get("repro_guard_scrub_segments_total", 0) >= 2
        finally:
            scrubber.stop()
