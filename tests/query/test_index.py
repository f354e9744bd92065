"""Tests for per-segment query indexes (repro.query.index)."""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.archive import RollingArchiveWriter
from repro.bgp.message import BGPUpdate
from repro.bgp.mrt import decode_record_at, iter_decoded, write_archive
from repro.bgp.prefix import Prefix
from repro.query.index import (
    BloomFilter,
    IndexProbe,
    SegmentIndex,
    build_index,
    ensure_index,
    index_path,
    load_index,
    read_payload,
)

P1 = Prefix.parse("10.0.0.0/24")
P2 = Prefix.parse("10.0.1.0/24")
P3 = Prefix.parse("192.168.0.0/16")


def updates_fixture():
    return [
        BGPUpdate("vp1", 10.0, P1, (65001, 65002)),
        BGPUpdate("vp2", 20.0, P2, (65001, 65003)),
        BGPUpdate("vp1", 30.0, P2, (65001, 65002)),
        BGPUpdate("vp1", 40.0, P1, is_withdrawal=True),
        BGPUpdate("vp3", 50.0, P1, (65004, 65005)),
    ]


@pytest.fixture(params=[True, False], ids=["bz2", "raw"])
def segment(request, tmp_path):
    compressed = request.param
    suffix = ".mrt.bz2" if compressed else ".mrt"
    path = str(tmp_path / f"updates.000000000000-000000000100{suffix}")
    write_archive(updates_fixture(), path, compress=compressed)
    return path, compressed


class TestBloomFilter:
    def test_membership(self):
        bloom = BloomFilter(n_bits=256, n_hashes=3)
        bloom.add("p:10.0.0.0/24")
        assert "p:10.0.0.0/24" in bloom
        assert "p:10.99.0.0/24" not in bloom

    def test_no_false_negatives(self):
        bloom = BloomFilter()
        keys = [f"v:vp{i}" for i in range(200)]
        for key in keys:
            bloom.add(key)
        assert all(key in bloom for key in keys)

    def test_hex_round_trip(self):
        bloom = BloomFilter(n_bits=512, n_hashes=4)
        bloom.add("o:65001")
        again = BloomFilter.from_hex(512, 4, bloom.to_hex())
        assert "o:65001" in again and "o:1" not in again

    def test_invalid_sizing(self):
        with pytest.raises(ValueError):
            BloomFilter(n_bits=0)


class TestBuildIndex:
    def test_counts_and_postings(self, segment):
        path, compressed = segment
        index = build_index(path, compressed)
        assert index.count == 5
        assert sorted(index.prefixes) == sorted({str(P1), str(P2)})
        assert len(index.prefixes[str(P1)]) == 3    # incl. withdrawal
        assert len(index.vps["vp1"]) == 3
        # Withdrawals carry no origin.
        assert len(index.origins["65002"]) == 2
        assert "65005" in index.origins

    def test_offsets_decode_the_right_records(self, segment):
        path, compressed = segment
        index = build_index(path, compressed)
        payload = read_payload(path, compressed)
        for prefix_str, offsets in index.prefixes.items():
            for offset in offsets:
                record = decode_record_at(payload, offset)
                assert str(record.prefix) == prefix_str

    def test_offsets_match_sequential_walk(self, segment):
        path, compressed = segment
        payload = read_payload(path, compressed)
        walked = {offset for offset, _ in iter_decoded(payload)}
        index = build_index(path, compressed)
        indexed = {o for lst in index.prefixes.values() for o in lst}
        assert indexed == walked

    def test_may_match(self, segment):
        path, compressed = segment
        index = build_index(path, compressed)
        assert index.may_match(prefix=P1)
        assert not index.may_match(prefix=P3)
        assert index.may_match(vp="vp2", origin=65003)
        assert not index.may_match(vp="vp2", origin=999999)
        assert index.may_match()


class TestIndexProbe:
    """One probe per query answers every segment as the per-segment
    membership tests would, whatever the bloom's shape."""

    KEYS = ([None, P1, P2, P3], [None, "vp1", "vp2", "vp9"],
            [None, 65002, 65003, 65005, 1])

    @staticmethod
    def reference(index, prefix, vp, origin):
        keys = []
        if prefix is not None:
            keys.append((f"p:{prefix}", index.prefixes, str(prefix)))
        if vp is not None:
            keys.append((f"v:{vp}", index.vps, vp))
        if origin is not None:
            keys.append((f"o:{origin}", index.origins, str(origin)))
        return all(bloom_key in index.bloom and key in postings
                   for bloom_key, postings, key in keys)

    @pytest.mark.parametrize("shape", [(4096, 4), (64, 3), (8, 1)])
    def test_probe_equals_per_key_membership(self, segment, shape):
        path, compressed = segment
        index = build_index(path, compressed)
        bloom = BloomFilter(*shape)
        for key in index.prefixes:
            bloom.add(f"p:{key}")
        for key in index.vps:
            bloom.add(f"v:{key}")
        for key in index.origins:
            bloom.add(f"o:{key}")
        index.bloom = bloom
        other = build_index(path, compressed)      # the default shape
        for prefix in self.KEYS[0]:
            for vp in self.KEYS[1]:
                for origin in self.KEYS[2]:
                    probe = IndexProbe(prefix, vp, origin)
                    for target in (index, other, index):
                        assert probe.may_match(target) == self.reference(
                            target, prefix, vp, origin), \
                            (prefix, vp, origin, shape)

    def test_bloom_alone_can_prune(self, segment):
        path, compressed = segment
        index = build_index(path, compressed)
        index.prefixes[str(P3)] = []          # postings say maybe...
        assert not IndexProbe(P3).may_match(index)   # ...the bloom: no


class TestPersistence:
    def test_save_load_round_trip(self, segment):
        path, compressed = segment
        index = build_index(path, compressed, persist=True)
        assert os.path.exists(index_path(path))
        loaded = load_index(path)
        assert loaded is not None
        assert loaded.count == index.count
        assert loaded.prefixes == index.prefixes
        assert loaded.vps == index.vps
        assert loaded.origins == index.origins
        assert loaded.bloom.bits == index.bloom.bits

    def test_stale_index_rejected(self, segment):
        path, compressed = segment
        build_index(path, compressed, persist=True)
        # Rewrite the segment with different content: the recorded
        # size no longer matches, so the index must not load.
        write_archive(updates_fixture()[:2] * 7, path,
                      compress=compressed)
        assert load_index(path) is None

    def test_corrupt_index_rejected(self, segment):
        path, compressed = segment
        build_index(path, compressed, persist=True)
        with open(index_path(path), "w") as handle:
            handle.write("{not json")
        assert load_index(path) is None

    def test_missing_index(self, segment):
        path, _ = segment
        assert load_index(path) is None

    def test_ensure_builds_then_loads(self, segment):
        path, compressed = segment
        index, built = ensure_index(path, compressed)
        assert built and index.count == 5
        again, built_again = ensure_index(path, compressed)
        assert not built_again
        assert again.count == index.count


class TestSealTimeIndexing:
    def test_writer_persists_index_at_seal(self, tmp_path):
        writer = RollingArchiveWriter(str(tmp_path), interval_s=100.0,
                                      index=True)
        for t in (10.0, 150.0, 250.0):
            writer.write(BGPUpdate("vp1", t, P1, (1, 2)))
        writer.close()
        assert len(writer.segments) == 3
        for segment in writer.segments:
            assert os.path.exists(index_path(segment.path))
            loaded = load_index(segment.path)
            assert loaded is not None and loaded.count == segment.count
        assert writer.last_index_build_s is not None

    def test_on_seal_hook_reports_build_time(self, tmp_path):
        events = []
        writer = RollingArchiveWriter(
            str(tmp_path), interval_s=100.0, index=True)
        writer.add_seal_listener(
            lambda seg, dt: events.append((seg.start, dt)))
        writer.write(BGPUpdate("vp1", 10.0, P1, (1, 2)))
        writer.write(BGPUpdate("vp1", 150.0, P1, (1, 2)))
        writer.close()
        assert [start for start, _ in events] == [0.0, 100.0]
        assert all(dt is not None and dt >= 0.0 for _, dt in events)

    def test_on_seal_without_indexing_passes_none(self, tmp_path):
        events = []
        writer = RollingArchiveWriter(str(tmp_path), interval_s=100.0)
        writer.add_seal_listener(lambda seg, dt: events.append(dt))
        writer.write(BGPUpdate("vp1", 10.0, P1, (1, 2)))
        writer.close()
        assert events == [None]


def reference_index(path, compressed):
    """The indexing loop as it was before seals indexed from memory:
    decode every record of the file, and format and add to the bloom
    every key of every record."""
    index = SegmentIndex(count=0, size=os.path.getsize(path))
    for offset, record in iter_decoded(read_payload(path, compressed)):
        index.count += 1
        prefix, vp, origin = record.prefix, record.vp, record.origin_as
        index.prefixes.setdefault(str(prefix), []).append(offset)
        index.vps.setdefault(vp, []).append(offset)
        index.bloom.add(f"p:{prefix}")
        index.bloom.add(f"v:{vp}")
        if origin is not None:
            index.origins.setdefault(str(origin), []).append(offset)
            index.bloom.add(f"o:{origin}")
    return index


#: Small pools, so that many records share a prefix, VP or origin.
SEAL_PREFIXES = [Prefix.parse(text) for text in (
    "10.0.0.0/24", "10.0.1.0/24", "0.0.0.0/0", "2001:db8::/32",
    "2001:db8::1/128")]
SEAL_VPS = ["vp0", "vp1", "vp-é", "观测点"]
SEAL_ASNS = [1, 65001, 4200000000, 4294967295]


@st.composite
def seal_updates(draw):
    vp = draw(st.sampled_from(SEAL_VPS))
    time = draw(st.integers(0, 30)) * 2.5
    prefix = draw(st.sampled_from(SEAL_PREFIXES))
    if draw(st.integers(0, 3)) == 0:
        return BGPUpdate(vp, time, prefix, is_withdrawal=True)
    path = draw(st.lists(st.sampled_from(SEAL_ASNS), max_size=3))
    communities = draw(st.frozensets(
        st.tuples(st.sampled_from(SEAL_ASNS), st.integers(0, 70000)),
        max_size=3))
    return BGPUpdate(vp, time, prefix, tuple(path), communities)


class TestSealFromMemory:
    """The sidecar a seal writes from the updates it has just encoded
    is the one a rebuild from the sealed file writes, byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(updates=st.lists(seal_updates(), min_size=1, max_size=50),
           compress=st.booleans(),
           interval_s=st.sampled_from([1.0, 10.0, 1000.0]))
    def test_sealed_sidecar_equals_rebuild(self, updates, compress,
                                           interval_s):
        # interval 1.0 seals one-record segments (times are 2.5 apart),
        # 1000.0 puts every record in one segment.
        with tempfile.TemporaryDirectory() as directory:
            writer = RollingArchiveWriter(
                directory, interval_s=interval_s, compress=compress,
                checkpoint=True, index=True)
            writer.write_stream(sorted(updates, key=lambda u: u.time))
            writer.close()
            assert sum(s.count for s in writer.segments) == len(updates)
            for segment in writer.segments:
                with open(index_path(segment.path), "rb") as handle:
                    sealed = handle.read()
                loaded = load_index(segment.path)
                reference = reference_index(segment.path, compress)
                assert sealed == json.dumps(
                    reference.to_json(), separators=(",", ":")).encode()
                rebuilt = build_index(segment.path, compress, persist=True)
                with open(index_path(segment.path), "rb") as handle:
                    assert handle.read() == sealed
                assert loaded == rebuilt == reference

    def test_bloom_equality(self):
        a, b = BloomFilter(64, 2), BloomFilter(64, 2)
        a.add("p:10.0.0.0/24")
        assert a != b
        b.add("p:10.0.0.0/24")
        assert a == b
        assert a != BloomFilter(128, 2, a.bits)
