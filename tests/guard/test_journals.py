"""Who may write a sealed journal, and what a reader sees when it does.

The archive's three durable logs — ``CHECKPOINT.json``, ``gill.jsonl``
and ``events.jsonl`` — are :class:`~repro.guard.integrity.
SealedJournal` files.  Readers (``serve``, ``scrub``, the directory
catalog) only read them, even when the last line is half-written: it
may be an append in progress.  Their owners repair them: the archive's
``recover()``, the gill stage's attach, the event store's reset and
its first append.  A reader following a journal its owner replaced
reads it again.
"""

import os
import stat

import pytest

from repro.bgp.archive import CHECKPOINT_NAME, RollingArchiveWriter, \
    read_manifest
from repro.bgp.message import BGPUpdate
from repro.bgp.prefix import Prefix
from repro.cli import main
from repro.events import Detection, Event, EventState, EventStore, \
    journal_path_for
from repro.gill import GillConfig, GillJournal, GillStage, \
    gill_journal_path_for
from repro.guard.integrity import SealedJournal
from repro.query import DirectoryCatalog, QueryEngine, QuerySpec

INTERVAL_S = 100.0
PREFIX = Prefix.parse("10.0.0.0/24")
TORN = '{"op": "upsert", "waterm'


def updates(times):
    return [BGPUpdate(f"vp{t % 3}", float(t), PREFIX, (1, 64500 + t % 2))
            for t in times]


def incident(number, time):
    event = Event(id=f"ev-{number:06d}", type="moas", state=EventState.NEW,
                  first_seen=time, last_seen=time, prefix=str(PREFIX))
    event.absorb(Detection(detector="moas", type="moas", key=(str(PREFIX),),
                           time=time, prefix=str(PREFIX), vps=("vp1",),
                           asns=(5, 7), summary="conflict"))
    return event


def tear(path):
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(TORN)


def contents(path):
    with open(path, "rb") as handle:
        return handle.read()


@pytest.fixture
def torn_archive(tmp_path):
    """A served archive whose three journals all end in a torn line."""
    writer = RollingArchiveWriter(str(tmp_path), interval_s=INTERVAL_S,
                                  compress=False, checkpoint=True,
                                  index=True)
    writer.write_stream(updates(range(0, 400, 10)))
    writer.close()
    store = EventStore(journal_path_for(str(tmp_path)))
    store.apply(incident(1, 10.0), watermark=100.0)
    gill = GillJournal(gill_journal_path_for(str(tmp_path)))
    gill.append({"watermark": 100.0, "kept": 3, "dropped": 1,
                 "scores": {}})
    paths = [os.path.join(str(tmp_path), CHECKPOINT_NAME), store.path,
             gill.path]
    for path in paths:
        tear(path)
    return tmp_path, writer, {path: contents(path) for path in paths}


class TestReadersNeverWrite:
    def test_library_readers(self, torn_archive):
        directory, writer, before = torn_archive
        events = EventStore(journal_path_for(str(directory)))
        assert len(events) == 1 and events.refresh() == []
        gill = GillJournal(gill_journal_path_for(str(directory)))
        assert gill.load() == 0 and len(gill) == 1
        manifest = read_manifest(str(directory))
        assert manifest.journal.torn
        assert manifest.segments == writer.segments
        catalog = DirectoryCatalog(str(directory))
        assert catalog.segments() == writer.segments
        with QueryEngine(catalog) as engine:
            assert len(engine.query(QuerySpec(start=0.0))) == 40
        assert {path: contents(path) for path in before} == before

    def test_serve_and_scrub(self, torn_archive, capsys):
        directory, writer, before = torn_archive
        assert main(["serve", str(directory), "--port", "0",
                     "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "event store: 1 incidents" in out
        assert "gill journal: 1 slot records" in out
        assert main(["scrub", str(directory), "--strict"]) == 0
        assert {path: contents(path) for path in before} == before


class TestOwnersRepair:
    def test_archive_recover(self, torn_archive):
        directory, writer, before = torn_archive
        path = os.path.join(str(directory), CHECKPOINT_NAME)
        fresh = RollingArchiveWriter(str(directory), interval_s=INTERVAL_S,
                                     compress=False, checkpoint=True)
        assert fresh.recover().segments == len(writer.segments)
        assert contents(path) == before[path][:-len(TORN)]

    def test_gill_stage_attach(self, torn_archive):
        directory, writer, before = torn_archive
        path = gill_journal_path_for(str(directory))
        archive = RollingArchiveWriter(str(directory),
                                       interval_s=INTERVAL_S,
                                       compress=False, checkpoint=True)
        archive.recover()
        stage = GillStage(GillConfig(definition=1), ["vp0", "vp1", "vp2"],
                          interval_s=INTERVAL_S)
        try:
            assert stage.attach(archive) == len(writer.segments)
        finally:
            stage.close()
        assert contents(path) == before[path][:-len(TORN)]

    def test_event_store_reset_and_append(self, torn_archive):
        directory, _, before = torn_archive
        path = journal_path_for(str(directory))
        store = EventStore(path)
        store.apply(incident(2, 110.0), watermark=200.0)
        assert contents(path).startswith(before[path][:-len(TORN)]
                                         + b'{"crc"')
        assert len(EventStore(path)) == 2
        store.reset()
        assert contents(path) == b""


class TestTailAfterRewrite:
    def test_tail_reloads_a_rewrite_that_grew(self, tmp_path):
        """The owner truncates by an atomic rewrite and appends past
        the reader's offset: the reader must load again, not read from
        an offset into another file."""
        path = str(tmp_path / "j.jsonl")
        owner = SealedJournal(path, fsync=False)
        for watermark in (1.0, 2.0, 3.0):
            owner.append({"watermark": watermark, "n": 0})
        reader = SealedJournal(path, fsync=False)
        assert len(reader.load()[0]) == 3
        offset = reader.offset
        records, dropped = owner.load(truncate_beyond=1.0)
        assert dropped == 2 and [r["watermark"] for r in records] == [1.0]
        for watermark in (2.0, 3.0, 4.0, 5.0):
            owner.append({"watermark": watermark, "n": 11})
        assert os.path.getsize(path) > offset
        assert reader.tail() is None
        assert reader.load() == owner.load()
        assert reader.tail() == []

    def test_event_store_follows_a_recovered_collector(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        collector = EventStore(path)
        for number in (1, 2, 3):
            collector.apply(incident(number, number * 100.0),
                            watermark=number * 100.0)
        server = EventStore(path)
        assert len(server) == 3
        collector.load(truncate_beyond=100.0)
        for number in (2, 3, 4, 5):
            collector.apply(incident(number, number * 100.0 + 50.0),
                            watermark=number * 100.0 + 50.0)
        assert os.path.getsize(path) > server._journal.offset
        assert sorted(server.refresh()) \
            == [f"ev-{n:06d}" for n in (1, 2, 3, 4, 5)]
        assert server.snapshot_comparable() \
            == EventStore(path).snapshot_comparable()

    def test_removed_journal_reloads_empty(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        SealedJournal(path, fsync=False).append({"n": 1})
        reader = SealedJournal(path, fsync=False)
        assert reader.load()[0] != []
        os.remove(path)
        assert reader.tail() is None
        assert reader.load() == ([], 0) and reader.tail() == []


class TestDirectoryFsync:
    """A journal that fsyncs its lines also fsyncs its directory when it
    creates or replaces the file, and only then."""

    @pytest.fixture
    def dir_fsyncs(self, monkeypatch):
        calls = []
        real = os.fsync

        def recording(fd):
            calls.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            return real(fd)

        monkeypatch.setattr(os, "fsync", recording)

        def count():
            made = sum(calls)
            calls.clear()
            return made
        return count

    def test_durable_journal(self, tmp_path, dir_fsyncs):
        journal = SealedJournal(str(tmp_path / "j.jsonl"), fsync=True)
        journal.append({"watermark": 1.0})
        assert dir_fsyncs() == 1                    # created
        journal.append({"watermark": 2.0})
        assert dir_fsyncs() == 0
        tear(journal.path)
        journal.load(truncate_beyond=5.0)           # torn tail cut in place
        assert dir_fsyncs() == 0
        journal.load(truncate_beyond=1.0)           # atomic rewrite
        assert dir_fsyncs() == 1
        journal.replace([{"watermark": 1.0}])
        assert dir_fsyncs() == 1

    def test_event_journal_keeps_its_policy(self, tmp_path, dir_fsyncs):
        journal = SealedJournal(str(tmp_path / "j.jsonl"), fsync=False)
        journal.append({"watermark": 1.0})
        journal.append({"watermark": 2.0})
        journal.load(truncate_beyond=1.0)
        assert dir_fsyncs() == 0

    def test_gill_journal_creation(self, tmp_path, dir_fsyncs):
        GillJournal(gill_journal_path_for(str(tmp_path))).append(
            {"watermark": 100.0, "kept": 1, "dropped": 0})
        assert dir_fsyncs() == 1

    def test_segment_name_is_durable_before_its_line(self, tmp_path,
                                                      monkeypatch):
        writer = RollingArchiveWriter(str(tmp_path), interval_s=INTERVAL_S,
                                      compress=False, checkpoint=True)
        writer.write_stream(updates(range(0, 150, 10)))    # 1 published
        order = []
        real = os.fsync

        def recording(fd):
            status = os.fstat(fd)
            order.append("dir" if stat.S_ISDIR(status.st_mode)
                         else status.st_ino)
            return real(fd)

        monkeypatch.setattr(os, "fsync", recording)
        writer.write(BGPUpdate("vp0", 250.0, PREFIX, (1, 2)))
        assert order == [os.stat(writer.segments[-1].path).st_ino, "dir",
                         os.stat(writer.checkpoint_path).st_ino]
