"""What a seal writes and what it costs: pinned bytes, the manifest
text, and a work count.

A seal indexes the updates the writer has just encoded and renders
each segment's ``CHECKPOINT.json`` entry once.  None of these tests is
a timer.  The golden digests were captured from the commit before
either (077b15a), when a seal re-read, decompressed and decoded the
segment to index it and re-encoded the whole manifest.
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
from repro.pipeline.faults import corrupt_bitflip
from repro.query.index import build_index
from repro.workload import SyntheticStreamGenerator, overshoot_config

INTERVAL_S = 300.0

#: SHA-256 of every file a D=3600 sealed write leaves (bz2, index,
#: checkpoint), parent commit 077b15a.
GOLDEN_3600 = {
    "CHECKPOINT.json":
        "f326bcb11ba3db591c8245447e147ead827e27226c34af6af776bbede7e025f4",
    "updates.000000000900-000000001200.mrt.bz2":
        "1e9b80d04d9af92b8c64d36af757c74927bcc321fa1d8a3d2f5f50c49ffd1b54",
    "updates.000000000900-000000001200.mrt.bz2.idx":
        "8650979422edfc404576f63746aa7c644262106a6e1293c14187899066d34c9d",
    "updates.000000001200-000000001500.mrt.bz2":
        "1827c0db6309d5a1ba62a09a5dc35063f40b9c1208490dfcbb6ef78ba2e87427",
    "updates.000000001200-000000001500.mrt.bz2.idx":
        "674ed2732c8c7b2fa3058b71ca782b6d51215d0bcfbf25a7b46fac8e81059d70",
    "updates.000000001500-000000001800.mrt.bz2":
        "6a8afba39e824a624b7025690071830c1bc650dd48610df479bd5c9b41ac122e",
    "updates.000000001500-000000001800.mrt.bz2.idx":
        "462488cf518918a8381509dec2e51a4e8fc84d05e4632990569697e7184e66a8",
    "updates.000000001800-000000002100.mrt.bz2":
        "93330f1ced7dff08e678e011b359763d4049dcdbcad315c7a1c956180c9ee1a3",
    "updates.000000001800-000000002100.mrt.bz2.idx":
        "324fdfcb369f02e1181cd8adb5a6f4dc5316959276926dd466a582be396058c2",
    "updates.000000002100-000000002400.mrt.bz2":
        "d767db77cf16c1f26bc4d7d624b97ec859a5756e218102951083aba177c16f7b",
    "updates.000000002100-000000002400.mrt.bz2.idx":
        "1e54906b363b7e6deb82b1c9027413ff4539d51c7b31745872e298f4b9823601",
    "updates.000000002400-000000002700.mrt.bz2":
        "b0ffb15edda19fc9e987a611d5f10fca0366adbaa98985fb4925e9cb52c62130",
    "updates.000000002400-000000002700.mrt.bz2.idx":
        "e15c09da768cb17c9e3851404c09904866e51063cd7a1bac7145407ad75823a1",
    "updates.000000002700-000000003000.mrt.bz2":
        "96fb5daf6d692fd81fa537e3c93be33debe72eb371235c44020896000ceb7572",
    "updates.000000002700-000000003000.mrt.bz2.idx":
        "ccf4ece270276aac447ecbf0b7ff4117088593676a713ee3739b9aaa121952d2",
    "updates.000000003000-000000003300.mrt.bz2":
        "fb14ee5b03bdbad3cc540fed6f1947a7e9bdc0f7fdb862f52944c00f3a511bd4",
    "updates.000000003000-000000003300.mrt.bz2.idx":
        "1634a26caae3f3131d662fe2efb151c7178baa771a62a1daa3b8afdaa69ae99a",
    "updates.000000003300-000000003600.mrt.bz2":
        "84621746cdeab5bea54234e5537565f0903197040540171cc12586bad35ff4e1",
    "updates.000000003300-000000003600.mrt.bz2.idx":
        "51929d9cdd6ab00fbe09641dad33d1b074dcad1b32d2d60b97a362d8d28d444e",
    "updates.000000003600-000000003900.mrt.bz2":
        "077f93151c9316fedf69e1d8d8f3ca4016bf5964e031bce25a1042473079c3e5",
    "updates.000000003600-000000003900.mrt.bz2.idx":
        "83852ee42d9ae3c997b53574444ce5fd2b0ac1ad9f990282c9908bcc4afbe0e5",
    "updates.000000003900-000000004200.mrt.bz2":
        "19ce03c4d9ee42f43e072169b0f819220f41a85577b323cd13506c81be769397",
    "updates.000000003900-000000004200.mrt.bz2.idx":
        "5f6e866894b36e620f02618d056f3be48a9a49763323bc48c346a2281e42c442",
    "updates.000000004200-000000004500.mrt.bz2":
        "756138612bb644ec7bae5bcc0af5e2fe063ea34c6c809fe7bb132206f1f7b65f",
    "updates.000000004200-000000004500.mrt.bz2.idx":
        "a2664e208250d50ecf22d8846b93fc8a3cbf2332b3b76b0e8b9e24a29a83d35c",
    "updates.000000004500-000000004800.mrt.bz2":
        "5de4bfa31e384a9a6836155082a334416e5789add475ea690d5aa13999aa01fb",
    "updates.000000004500-000000004800.mrt.bz2.idx":
        "a1d6b985698e32636a77ed4fa2db0bc070cd435c5ea525687642f9809800baef",
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
    build_index(first.path, True)
    assert calls == {"bz2.decompress": 1, "decode_at": first.count}


# -- the manifest text ---------------------------------------------------------

def expected_manifest(writer):
    """``CHECKPOINT.json`` as it was written before entries were
    rendered at seal: ``json.dump(state, indent=1)`` of the whole
    state."""
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


def assert_manifest(writer):
    with open(writer.checkpoint_path) as handle:
        assert handle.read() == expected_manifest(writer)


PREFIXES = (Prefix.parse("10.0.0.0/24"), Prefix.parse("2001:db8::/32"))


def stream(times):
    return [BGPUpdate(f"vp{t % 3}", float(t), PREFIXES[t % 2],
                      (1, 4200000000))
            for t in times]


class TestManifestText:
    @pytest.mark.parametrize("interval_s", [100, 37.5])
    @pytest.mark.parametrize("compress", [True, False], ids=["bz2", "raw"])
    def test_after_every_seal(self, tmp_path, interval_s, compress):
        writer = sealed_writer(tmp_path, interval_s=interval_s,
                               compress=compress, index=False)
        seals = 0
        for update in stream(range(0, 600, 13)):
            if writer.write(update) is not None:
                seals += 1
                assert_manifest(writer)
        assert writer.close() is not None
        assert_manifest(writer)
        assert seals >= 5

    def test_empty_recover(self, tmp_path):
        writer = sealed_writer(tmp_path)
        writer.recover()
        assert_manifest(writer)
        with open(writer.checkpoint_path) as handle:
            assert '"segments": []' in handle.read()

    def test_recover_past_a_torn_last_segment(self, tmp_path):
        writer = sealed_writer(tmp_path, interval_s=100.0)
        writer.write_stream(stream(range(0, 350, 10)))   # 3 sealed
        torn = tmp_path / "updates.000000000300-000000000400.mrt.bz2"
        torn.write_bytes(b"torn")
        fresh = sealed_writer(tmp_path, interval_s=100.0)
        report = fresh.recover()
        assert report.torn_removed == (torn.name,)
        assert report.segments == 3
        assert_manifest(fresh)

    def test_recover_past_a_corrupted_last_segment(self, tmp_path):
        writer = sealed_writer(tmp_path, interval_s=100.0)
        writer.write_stream(stream(range(0, 350, 10)))
        corrupt_bitflip(writer.segments[-1].path)
        fresh = sealed_writer(tmp_path, interval_s=100.0)
        report = fresh.recover()
        assert report.segments == 2 and report.watermark == 200.0
        assert_manifest(fresh)

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
        """Entries recovered from a manifest without digests render
        their ``null``s exactly as ``json.dump`` did."""
        writer = sealed_writer(tmp_path, interval_s=100.0, index=False)
        writer.write_stream(stream(range(0, 250, 10)))
        with open(writer.checkpoint_path) as handle:
            state = json.load(handle)
        for entry in state["segments"]:
            for key in ("size", "crc32", "sha256"):
                del entry[key]
        with open(writer.checkpoint_path, "w") as handle:
            json.dump(state, handle, indent=1)
        fresh = sealed_writer(tmp_path, interval_s=100.0, index=False)
        assert fresh.recover().segments == 2
        assert [s.crc32 for s in fresh.segments] == [None, None]
        assert_manifest(fresh)
