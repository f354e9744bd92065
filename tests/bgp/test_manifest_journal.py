"""``CHECKPOINT.json`` as a sealed journal: crashes at any byte, and
archives that still carry the old single JSON document.

The manifest is a header line and one sealed line per published
segment.  A crash can leave any prefix of its bytes; recovery keeps
exactly the segments whose lines are whole, and the resumed run ends
byte-identical to an uninterrupted one.  An old document opens
everywhere (catalog, serve, scrub, merge) and ``recover()`` converts
it once.
"""

import json
import os
import urllib.request

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bgp.archive import CHECKPOINT_NAME, RollingArchiveWriter, \
    read_manifest
from repro.bgp.message import BGPUpdate
from repro.bgp.prefix import Prefix
from repro.cli import main
from repro.cluster import PartitionManifest, merge_archives
from repro.guard import scrub_directory
from repro.query import QueryAPIServer, QueryEngine, QuerySpec

from test_seal import expected_journal, expected_manifest

INTERVAL_S = 100.0
PREFIXES = (Prefix.parse("10.0.0.0/24"), Prefix.parse("2001:db8::/32"))


def stream(times, vps=3):
    return [BGPUpdate(f"vp{t % vps}", float(t), PREFIXES[t % 2],
                      (1, 64500 + t % 5))
            for t in times]


UPDATES = stream(range(0, 900, 7))          # 9 slots of 100 s


def writer_for(directory, compress=True):
    return RollingArchiveWriter(str(directory), interval_s=INTERVAL_S,
                                compress=compress, checkpoint=True,
                                index=True)


def files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            out[name] = handle.read()
    return out


def uninterrupted(directory, compress):
    writer = writer_for(directory, compress)
    writer.write_stream(UPDATES)
    writer.close()
    return files(directory)


def line_ends(text):
    """Byte offsets just past each line of ``text``."""
    ends, total = [], 0
    for line in text.splitlines(keepends=True):
        total += len(line.encode("utf-8"))
        ends.append(total)
    return ends


class TestTornManifest:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(compress=st.booleans(), seals=st.integers(1, 8),
           cut=st.floats(0.0, 1.0))
    def test_cut_at_any_byte_after_the_header(self, tmp_path_factory,
                                              compress, seals, cut):
        root = tmp_path_factory.mktemp("torn")
        want = uninterrupted(root / "clean", compress)
        crash = root / "crash"
        crashed = writer_for(crash, compress)
        for update in UPDATES:
            crashed.write(update)
            if len(crashed.segments) == seals:
                break
        path = crash / CHECKPOINT_NAME
        data = path.read_bytes()
        ends = line_ends(data.decode("utf-8"))
        offset = ends[0] + round(cut * (len(data) - ends[0]))
        with open(path, "r+b") as handle:
            handle.truncate(offset)
        whole = sum(end <= offset for end in ends[1:])

        resumed = writer_for(crash, compress)
        report = resumed.recover()
        assert report.segments == whole
        assert [s.path for s in resumed.segments] \
            == [s.path for s in crashed.segments[:whole]]
        assert report.torn_removed == tuple(
            os.path.basename(s.path) for s in crashed.segments[whole:])
        start = report.watermark if report.watermark is not None \
            else float("-inf")
        resumed.write_stream(u for u in UPDATES if u.time >= start)
        resumed.close()
        assert files(crash) == want

    def test_a_torn_header_is_refused_not_guessed(self, tmp_path):
        writer = writer_for(tmp_path)
        writer.write_stream(UPDATES[:40])
        path = tmp_path / CHECKPOINT_NAME
        before = files(tmp_path)
        header = line_ends(path.read_text())[0]
        for offset in (0, header // 2, header - 1):
            with open(path, "r+b") as handle:
                handle.truncate(offset)
            with pytest.raises(ValueError):
                writer_for(tmp_path).recover()
            names = set(before) - {CHECKPOINT_NAME}
            assert names <= set(os.listdir(tmp_path))   # nothing deleted


@pytest.fixture
def old_archive(tmp_path):
    """An archive whose ``CHECKPOINT.json`` is the old document."""
    directory = tmp_path / "old"
    writer = writer_for(directory)
    writer.write_stream(UPDATES)
    writer.close()
    (directory / CHECKPOINT_NAME).write_text(expected_manifest(writer))
    return directory, writer


class TestOldManifest:
    def test_reads_as_the_journal_does(self, old_archive):
        directory, writer = old_archive
        manifest = read_manifest(str(directory))
        assert manifest.segments == writer.segments
        assert manifest.compress is True

    def test_catalog_and_engine(self, old_archive):
        directory, writer = old_archive
        with QueryEngine(str(directory)) as engine:
            assert engine.catalog.segments() == writer.segments
            assert engine.query(QuerySpec(start=0.0)) \
                == writer.read_range(0.0, float("inf"))
            assert engine.watermark() == writer.durable_watermark

    def test_served(self, old_archive, capsys):
        directory, writer = old_archive
        text = (directory / CHECKPOINT_NAME).read_bytes()
        assert main(["serve", str(directory), "--port", "0",
                     "--smoke"]) == 0
        assert f"serving {len(writer.segments)} segments" \
            in capsys.readouterr().out
        with QueryEngine(str(directory)) as engine, \
                QueryAPIServer(engine) as api:
            with urllib.request.urlopen(api.url + "/updates") as reply:
                body = json.loads(reply.read())
        assert body["count"] == len(UPDATES)
        # Serving never writes the manifest.
        assert (directory / CHECKPOINT_NAME).read_bytes() == text

    def test_scrubbed(self, old_archive):
        directory, writer = old_archive
        report = scrub_directory(str(directory))
        assert report.checked == report.intact == len(writer.segments)

    def test_merged(self, tmp_path):
        """Old-document partitions merge to what journal ones do."""
        by_vp = {0: [u for u in UPDATES if u.vp == "vp0"],
                 1: [u for u in UPDATES if u.vp != "vp0"]}
        outputs = []
        for style in ("journal", "document"):
            parts = []
            for index, updates in by_vp.items():
                part = tmp_path / style / f"part-{index}"
                writer = RollingArchiveWriter(
                    str(part), interval_s=INTERVAL_S, compress=False,
                    checkpoint=True)
                writer.write_stream(updates)
                writer.close()
                if style == "document":
                    (part / CHECKPOINT_NAME).write_text(
                        expected_manifest(writer))
                PartitionManifest(
                    index=index, n_partitions=2,
                    vps=tuple(sorted({u.vp for u in updates})),
                    interval_s=INTERVAL_S, compress=False).write(str(part))
                parts.append(str(part))
            out = tmp_path / f"merged-{style}"
            report = merge_archives(parts, str(out))
            assert report.updates == len(UPDATES)
            outputs.append(files(out))
        assert outputs[0] == outputs[1]

    def test_recover_converts_once(self, old_archive):
        directory, writer = old_archive
        fresh = writer_for(directory)
        report = fresh.recover()
        assert report.segments == len(writer.segments)
        assert report.torn_removed == () and report.index_orphans == ()
        path = directory / CHECKPOINT_NAME
        assert path.read_text() == expected_journal(writer)
        # The converted journal is left alone by the next recovery.
        inode = os.stat(path).st_ino
        assert writer_for(directory).recover().segments \
            == len(writer.segments)
        assert os.stat(path).st_ino == inode
        # ... and appended to by a resumed run.
        more = stream(range(900, 1000, 7))
        fresh.write_stream(more)
        fresh.close()
        assert os.stat(path).st_ino == inode
        assert read_manifest(str(directory)).segments == fresh.segments
