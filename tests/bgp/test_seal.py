"""What a seal writes and what it costs: pinned bytes, the manifest
text, and a work count.

A seal indexes the updates the writer has just encoded and publishes
the segment by appending one sealed line to ``CHECKPOINT.json``.  None
of these tests is a timer.  The segment and index digests were
captured from the commit before either (077b15a), when a seal re-read,
decompressed and decoded the segment to index it and re-encoded the
whole manifest; the manifest's digest is that of the journal, which
replaced the single JSON document the writer used to rewrite.
"""

import hashlib
import json
import os
from collections import Counter

import bz2
import pytest

import repro.bgp.mrt as mrt
from repro.bgp.archive import RollingArchiveWriter
from repro.bgp.message import BGPUpdate
from repro.bgp.prefix import Prefix
from repro.guard.integrity import seal_record
from repro.pipeline.faults import corrupt_bitflip
from repro.query.index import build_index
from repro.workload import SyntheticStreamGenerator, overshoot_config

INTERVAL_S = 300.0

#: SHA-256 of the single-document ``CHECKPOINT.json`` writers before
#: the journal left for the same archive (commit 077b15a).
GOLDEN_3600_DOCUMENT = \
    "f326bcb11ba3db591c8245447e147ead827e27226c34af6af776bbede7e025f4"

#: SHA-256 of every file a D=3600 sealed write leaves (bz2, index,
#: checkpoint): segments and indexes as at commit 077b15a, the
#: manifest as a journal.
GOLDEN_3600 = {
    "CHECKPOINT.json":
        "6292ae1ebfcca0c8f0677905e89db871db60f94ae2d1daa0b2e7b2ce40630e5d",
    "updates.000000000900-000000001200.mrt.bz2":
        "1e9b80d04d9af92b8c64d36af757c74927bcc321fa1d8a3d2f5f50c49ffd1b54",
    "updates.000000000900-000000001200.mrt.bz2.idx":
        "14942d34fde4a80555dbe3f2df10d56bf5c20a4f577e743bbde8bff9a65a2f3a",
    "updates.000000001200-000000001500.mrt.bz2":
        "1827c0db6309d5a1ba62a09a5dc35063f40b9c1208490dfcbb6ef78ba2e87427",
    "updates.000000001200-000000001500.mrt.bz2.idx":
        "b794614479834edb0902f542dd24a31e9afcd414fdc397cc9f423fa476fa618e",
    "updates.000000001500-000000001800.mrt.bz2":
        "6a8afba39e824a624b7025690071830c1bc650dd48610df479bd5c9b41ac122e",
    "updates.000000001500-000000001800.mrt.bz2.idx":
        "7375b157a70b15f53f0cee0606666a178ca214701b8d228c74c0f3257c0ccbc7",
    "updates.000000001800-000000002100.mrt.bz2":
        "93330f1ced7dff08e678e011b359763d4049dcdbcad315c7a1c956180c9ee1a3",
    "updates.000000001800-000000002100.mrt.bz2.idx":
        "255fb307f8b76420e5598285c5dedd81ad3d84f8a2acb49c016d55d729888744",
    "updates.000000002100-000000002400.mrt.bz2":
        "d767db77cf16c1f26bc4d7d624b97ec859a5756e218102951083aba177c16f7b",
    "updates.000000002100-000000002400.mrt.bz2.idx":
        "7a0db21ef7dc92acc448979ab877268460e76d14d7c087e153b5784c9ce96c1c",
    "updates.000000002400-000000002700.mrt.bz2":
        "b0ffb15edda19fc9e987a611d5f10fca0366adbaa98985fb4925e9cb52c62130",
    "updates.000000002400-000000002700.mrt.bz2.idx":
        "117f7838e2bb6557b350a80fa37c6f08626f0ca8a624393d9c6c11d09d3f7ff7",
    "updates.000000002700-000000003000.mrt.bz2":
        "96fb5daf6d692fd81fa537e3c93be33debe72eb371235c44020896000ceb7572",
    "updates.000000002700-000000003000.mrt.bz2.idx":
        "b2def9c73e7761dd1b4d1bf866ee4c224ff16316aeeb456d775cf08e12a35cd9",
    "updates.000000003000-000000003300.mrt.bz2":
        "fb14ee5b03bdbad3cc540fed6f1947a7e9bdc0f7fdb862f52944c00f3a511bd4",
    "updates.000000003000-000000003300.mrt.bz2.idx":
        "358eedeb2f16dc79b00502494d46484c8f899b31c679ac5159ddb605e079d318",
    "updates.000000003300-000000003600.mrt.bz2":
        "84621746cdeab5bea54234e5537565f0903197040540171cc12586bad35ff4e1",
    "updates.000000003300-000000003600.mrt.bz2.idx":
        "04c27b47406355dcf5e549dc81a95a9eb02d912a1c71e6b4f351403dc791f51a",
    "updates.000000003600-000000003900.mrt.bz2":
        "077f93151c9316fedf69e1d8d8f3ca4016bf5964e031bce25a1042473079c3e5",
    "updates.000000003600-000000003900.mrt.bz2.idx":
        "500e4491039692d36cad2b2f97ce790557453b9f6a9d401f9ff118ab794c49ce",
    "updates.000000003900-000000004200.mrt.bz2":
        "19ce03c4d9ee42f43e072169b0f819220f41a85577b323cd13506c81be769397",
    "updates.000000003900-000000004200.mrt.bz2.idx":
        "b7e507c0eed88db4fa443bd04614c2e7d5189d7df292e776fab5649c0b7d16f0",
    "updates.000000004200-000000004500.mrt.bz2":
        "756138612bb644ec7bae5bcc0af5e2fe063ea34c6c809fe7bb132206f1f7b65f",
    "updates.000000004200-000000004500.mrt.bz2.idx":
        "02e85830e8082b671ce7ae4170719d0d52f9bcf753d92f9a7d6419e63100a3c1",
    "updates.000000004500-000000004800.mrt.bz2":
        "5de4bfa31e384a9a6836155082a334416e5789add475ea690d5aa13999aa01fb",
    "updates.000000004500-000000004800.mrt.bz2.idx":
        "ae70988a5f8904618ed9e8013d714f1b1816f87d3344c2454208fecdb1a90378",
}


@pytest.fixture(scope="module")
def hour_stream():
    _, stream = SyntheticStreamGenerator(
        overshoot_config(1, n_vps=24, duration_s=3600.0)).generate()
    stream.sort(key=lambda u: (u.time, u.vp, u.prefix))
    return stream


def sealed_writer(directory, **kwargs):
    settings = dict(interval_s=INTERVAL_S, compress=True, checkpoint=True,
                    index=True)
    settings.update(kwargs)
    return RollingArchiveWriter(str(directory), **settings)


def test_golden_digests(tmp_path, hour_stream):
    """Segments, ``.idx`` sidecars and ``CHECKPOINT.json``, byte for
    byte."""
    writer = sealed_writer(tmp_path)
    writer.write_stream(hour_stream)
    writer.close()
    digests = {}
    for name in sorted(os.listdir(tmp_path)):
        with open(tmp_path / name, "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()
    assert digests == GOLDEN_3600
    # The journal lists what the old document listed, and the
    # old-format fixture renders that document byte for byte.
    assert hashlib.sha256(expected_manifest(writer).encode()).hexdigest() \
        == GOLDEN_3600_DOCUMENT


def test_sealing_reads_nothing_back(tmp_path, hour_stream, monkeypatch):
    """The work-count gate: writing and closing an indexed,
    checkpointed archive decompresses and decodes nothing (a seal used
    to do both for every record it had just encoded)."""
    calls = Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(bz2, "decompress",
                        counted("bz2.decompress", bz2.decompress))
    monkeypatch.setattr(mrt, "decode_at", counted("decode_at", mrt.decode_at))
    writer = sealed_writer(tmp_path)
    for update in hour_stream:
        writer.write(update)
    writer.close()
    assert len(writer.segments) == 13
    assert calls == {}
    # The wrappers see the lazy path, which does both.
    first = writer.segments[0]
    build_index(first.path)
    assert calls == {"bz2.decompress": 1, "decode_at": first.count}


# -- the manifest text ---------------------------------------------------------

def expected_manifest(writer):
    """``CHECKPOINT.json`` as writers before the journal left it:
    ``json.dump(state, indent=1)`` of the whole state.  Old archives
    still carry this document, so it is the old-format fixture."""
    return json.dumps({
        "interval_s": writer.interval_s,
        "compress": writer.compress,
        "watermark": writer.durable_watermark,
        "segments": [
            {"start": s.start, "end": s.end, "count": s.count,
             "file": os.path.basename(s.path),
             "size": s.size, "crc32": s.crc32, "sha256": s.sha256}
            for s in writer.segments
        ],
    }, indent=1)


def sealed_line(record):
    return json.dumps(seal_record(record), sort_keys=True) + "\n"


def expected_journal(writer):
    """``CHECKPOINT.json`` as a journal: a header line, then one sealed
    line per published segment whose ``watermark`` is its end."""
    return sealed_line({"interval_s": writer.interval_s,
                        "compress": writer.compress}) + "".join(
        sealed_line({"start": s.start, "count": s.count,
                     "file": os.path.basename(s.path), "size": s.size,
                     "crc32": s.crc32, "sha256": s.sha256,
                     "watermark": s.end})
        for s in writer.segments)


def manifest_text(writer):
    with open(writer.checkpoint_path) as handle:
        return handle.read()


def assert_manifest(writer):
    assert manifest_text(writer) == expected_journal(writer)


PREFIXES = (Prefix.parse("10.0.0.0/24"), Prefix.parse("2001:db8::/32"))


def stream(times):
    return [BGPUpdate(f"vp{t % 3}", float(t), PREFIXES[t % 2],
                      (1, 4200000000))
            for t in times]


class TestManifestText:
    @pytest.mark.parametrize("interval_s", [100, 37.5])
    @pytest.mark.parametrize("compress", [True, False], ids=["bz2", "raw"])
    def test_after_every_seal(self, tmp_path, interval_s, compress):
        """Each publish appends exactly its segment's line to the one
        file the first publish created."""
        writer = sealed_writer(tmp_path, interval_s=interval_s,
                               compress=compress, index=False)
        seals, text, inode = 0, "", None
        for update in stream(range(0, 600, 13)):
            if writer.write(update) is not None:
                seals += 1
                assert_manifest(writer)
                now = manifest_text(writer)
                if inode is None:
                    inode = os.stat(writer.checkpoint_path).st_ino
                else:
                    assert now.startswith(text)
                    assert now[len(text):].count("\n") == 1
                assert os.stat(writer.checkpoint_path).st_ino == inode
                text = now
        assert writer.close() is not None
        assert_manifest(writer)
        assert os.stat(writer.checkpoint_path).st_ino == inode
        assert seals >= 5

    def test_empty_recover(self, tmp_path):
        writer = sealed_writer(tmp_path)
        writer.recover()
        assert_manifest(writer)
        assert manifest_text(writer).count("\n") == 1    # the header

    def test_recover_past_a_torn_last_segment(self, tmp_path):
        writer = sealed_writer(tmp_path, interval_s=100.0)
        writer.write_stream(stream(range(0, 350, 10)))   # 3 sealed
        torn = tmp_path / "updates.000000000300-000000000400.mrt.bz2"
        torn.write_bytes(b"torn")
        inode = os.stat(writer.checkpoint_path).st_ino
        fresh = sealed_writer(tmp_path, interval_s=100.0)
        report = fresh.recover()
        assert report.torn_removed == (torn.name,)
        assert report.segments == 3
        assert_manifest(fresh)
        # Every line still stands: the manifest is not rewritten.
        assert os.stat(fresh.checkpoint_path).st_ino == inode

    def test_recover_past_a_corrupted_last_segment(self, tmp_path):
        writer = sealed_writer(tmp_path, interval_s=100.0)
        writer.write_stream(stream(range(0, 350, 10)))
        corrupt_bitflip(writer.segments[-1].path)
        inode = os.stat(writer.checkpoint_path).st_ino
        fresh = sealed_writer(tmp_path, interval_s=100.0)
        report = fresh.recover()
        assert report.segments == 2 and report.watermark == 200.0
        assert_manifest(fresh)
        # A dropped line is an atomic rewrite: a new file.
        assert os.stat(fresh.checkpoint_path).st_ino != inode

    @pytest.mark.parametrize("damage", ["torn", "bitflip"])
    def test_resumed_epoch(self, tmp_path, damage):
        """After a rewind, every further seal writes the manifest a
        clean run would, and the resumed directory ends byte-identical
        to the clean one."""
        updates = stream(range(0, 700, 10))
        clean = sealed_writer(tmp_path / "clean", interval_s=100.0)
        clean.write_stream(updates)
        clean.close()

        crashed = sealed_writer(tmp_path / "crash", interval_s=100.0)
        crashed.write_stream(updates[:35])              # 3 sealed
        if damage == "torn":
            (tmp_path / "crash"
             / "updates.000000000300-000000000400.mrt.bz2").write_bytes(
                 b"torn")
        else:
            corrupt_bitflip(crashed.segments[-1].path)
        resumed = sealed_writer(tmp_path / "crash", interval_s=100.0)
        watermark = resumed.recover().watermark
        assert_manifest(resumed)
        for update in updates:
            if update.time >= watermark \
                    and resumed.write(update) is not None:
                assert_manifest(resumed)
        resumed.close()
        assert_manifest(resumed)
        assert sorted(os.listdir(tmp_path / "crash")) \
            == sorted(os.listdir(tmp_path / "clean"))
        for name in os.listdir(tmp_path / "clean"):
            with open(tmp_path / "clean" / name, "rb") as a, \
                    open(tmp_path / "crash" / name, "rb") as b:
                assert a.read() == b.read(), name

    def test_pre_checksum_manifest_is_rewritten_as_before(self, tmp_path):
        """An old single-document manifest whose entries carry no
        digests converts to the journal with ``null`` digests, which
        recover as they were."""
        writer = sealed_writer(tmp_path, interval_s=100.0, index=False)
        writer.write_stream(stream(range(0, 250, 10)))
        state = json.loads(expected_manifest(writer))
        for entry in state["segments"]:
            for key in ("size", "crc32", "sha256"):
                del entry[key]
        with open(writer.checkpoint_path, "w") as handle:
            json.dump(state, handle, indent=1)
        fresh = sealed_writer(tmp_path, interval_s=100.0, index=False)
        assert fresh.recover().segments == 2
        assert [s.crc32 for s in fresh.segments] == [None, None]
        assert_manifest(fresh)
