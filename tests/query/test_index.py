"""Tests for per-segment query indexes (repro.query.index)."""

import json
import os
import tempfile
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.archive import RollingArchiveWriter
from repro.bgp.message import BGPUpdate
from repro.bgp.mrt import iter_decoded, write_archive
from repro.bgp.prefix import Prefix
from repro.cli import main
from repro.query import QueryEngine, QuerySpec, plan_query
from repro.query.index import (
    INDEX_VERSION,
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


class TestBuildIndex:
    def test_counts_and_postings(self, segment):
        path, _ = segment
        index = build_index(path)
        assert index.count == 5
        assert list(index.prefixes) == [str(P1), str(P2)]
        assert index.vps == {"vp1": 3, "vp2": 1, "vp3": 1}
        # Withdrawals carry no origin.
        assert list(index.origins) == [65002, 65003, 65005]

    def test_may_match(self, segment):
        path, _ = segment
        index = build_index(path)
        assert IndexProbe(prefix=P1).may_match(index)
        assert not IndexProbe(prefix=P3).may_match(index)
        assert IndexProbe(vp="vp2", origin=65003).may_match(index)
        assert not IndexProbe(vp="vp2", origin=999999).may_match(index)
        assert IndexProbe().may_match(index)


class TestIndexProbe:
    """A probe answers exactly as per-key membership in the decoded
    segment would."""

    KEYS = ([None, P1, P2, P3], [None, "vp1", "vp2", "vp9"],
            [None, 65002, 65003, 65005, 1])

    @staticmethod
    def reference(updates, prefix, vp, origin):
        return ((prefix is None or prefix in {u.prefix for u in updates})
                and (vp is None or vp in {u.vp for u in updates})
                and (origin is None
                     or origin in {u.origin_as for u in updates}))

    # Segment contents: the mixed fixture, one announcement, and
    # withdrawals only (no origin keys at all).
    SHAPES = [
        updates_fixture(),
        [BGPUpdate("vp2", 5.0, P2, (65001, 65003))],
        [BGPUpdate("vp1", 5.0, P1, is_withdrawal=True),
         BGPUpdate("vp2", 6.0, P3, is_withdrawal=True)],
    ]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_probe_equals_per_key_membership(self, segment, shape):
        path, compressed = segment
        write_archive(shape, path, compress=compressed)
        index = build_index(path)
        updates = [record for _, record in
                   iter_decoded(read_payload(path))]
        assert len(updates) == len(shape)
        for prefix in self.KEYS[0]:
            for vp in self.KEYS[1]:
                for origin in self.KEYS[2]:
                    probe = IndexProbe(prefix, vp, origin)
                    assert probe.may_match(index) == self.reference(
                        updates, prefix, vp, origin), (prefix, vp, origin)


class TestPersistence:
    def test_save_load_round_trip(self, segment):
        path, _ = segment
        index = build_index(path, persist=True)
        assert os.path.exists(index_path(path))
        loaded = load_index(path)
        assert loaded == index

    def test_stale_index_rejected(self, segment):
        path, compressed = segment
        build_index(path, persist=True)
        # Rewrite the segment with different content: the recorded
        # size no longer matches, so the index must not load.
        write_archive(updates_fixture()[:2] * 7, path,
                      compress=compressed)
        assert load_index(path) is None

    def test_corrupt_index_rejected(self, segment):
        path, _ = segment
        build_index(path, persist=True)
        with open(index_path(path), "w") as handle:
            handle.write("{not json")
        assert load_index(path) is None

    def test_missing_index(self, segment):
        path, _ = segment
        assert load_index(path) is None

    def test_ensure_builds_then_loads(self, segment):
        path, _ = segment
        index, built = ensure_index(path)
        assert built and index.count == 5
        again, built_again = ensure_index(path)
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


def reference_index(path):
    """The index, from first principles: decode every record of the
    file and collect its keys in first-appearance order."""
    records = [record for _, record in
               iter_decoded(read_payload(path))]
    vps = {}
    for record in records:
        vps[record.vp] = vps.get(record.vp, 0) + 1
    return SegmentIndex(
        count=len(records), size=os.path.getsize(path),
        prefixes=dict.fromkeys(str(r.prefix) for r in records),
        origins=dict.fromkeys(r.origin_as for r in records
                              if r.origin_as is not None),
        vps=vps)


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
                reference = reference_index(segment.path)
                assert sealed == json.dumps(
                    reference.to_json(), separators=(",", ":")).encode()
                rebuilt = build_index(segment.path, persist=True)
                with open(index_path(segment.path), "rb") as handle:
                    assert handle.read() == sealed
                assert loaded == rebuilt == reference


#: Keys no drawn update carries: each prunes every segment.
ABSENT_PREFIX = Prefix.parse("172.16.0.0/12")
ABSENT_VP = "vp-absent"
ABSENT_ASN = 7


class TestPlanDifferential:
    """Planning over the key-set indexes prunes exactly the segments
    whose decoded records lack some predicate's key, and the per-VP
    counts sum to the decoded updates."""

    @settings(max_examples=40, deadline=None)
    @given(updates=st.lists(seal_updates(), min_size=1, max_size=50),
           compress=st.booleans())
    def test_plan_and_vp_counts_equal_decoding(self, updates, compress):
        with tempfile.TemporaryDirectory() as directory:
            writer = RollingArchiveWriter(
                directory, interval_s=10.0, compress=compress,
                checkpoint=True, index=True)
            writer.write_stream(sorted(updates, key=lambda u: u.time))
            writer.close()
            segments = writer.segments
            decoded = [[record for _, record in iter_decoded(
                read_payload(segment.path))]
                for segment in segments]
            keys = [({u.prefix for u in records}, {u.vp for u in records},
                     {u.origin_as for u in records})
                    for records in decoded]
            indexes = {s.path: load_index(s.path) for s in segments}
            for prefix in SEAL_PREFIXES + [None, ABSENT_PREFIX]:
                for vp in SEAL_VPS + [None, ABSENT_VP]:
                    for origin in SEAL_ASNS + [None, ABSENT_ASN]:
                        spec = QuerySpec(prefix=prefix, vp=vp,
                                         origin=origin)
                        plan = plan_query(segments, spec,
                                          lambda s: indexes[s.path])
                        kept = tuple(
                            segment for segment, (prefixes, vps, origins)
                            in zip(segments, keys)
                            if (prefix is None or prefix in prefixes)
                            and (vp is None or vp in vps)
                            and (origin is None or origin in origins))
                        assert plan.scan == kept, spec
                        assert plan.pruned_index \
                            == len(segments) - len(kept)
            with QueryEngine(directory) as engine:
                assert engine.vp_counts() \
                    == Counter(u.vp for records in decoded for u in records)


#: The format-1 sidecar (bloom + offset postings) of
#: ``updates_fixture()`` written as a raw segment, as the format-1
#: writer left it on disk.
V1_SIDECAR = (
    '{"version":1,"count":5,"size":183,'
    '"bloom":{"n_bits":4096,"n_hashes":4,"bits":"'
    '2000000000000000000000000000000000000000000000000000004000000000'
    '0000000000000000000000000000000010101000000000000000000000004000'
    '0000000000000000000000000000000000000000000000000000000000000004'
    '0400000000000000000000000000000000000000000000000000000000000000'
    '0000000000000000000000000000000000000000000400000000000000000000'
    '0000000000000000002000000002000000000000000000000000000000000100'
    '0000000000000000000000000000000000000200000000000000000000000000'
    '0080000000000000000000000000000000000000000000000004000000020000'
    '0000000000000000000000000000000000000000008000000000200000000000'
    '0800000000000000000000000800000000000000000000002000000000000000'
    '1004000000000010080000000000000000000000000000000000000000000000'
    '0010008000000000000000000000000000000010000000000000000000080000'
    '0000000000000000000000000000000000000000000000000000000000000000'
    '0000000000000000000000000000000000000000000000000000000000000000'
    '0000000000000000000000000000000000000080000000000000000000000040'
    '0002000000000000000000000000000000'
    '"},"prefixes":{"10.0.0.0/24":[0,117,144],"10.0.1.0/24":[39,78]},'
    '"vps":{"vp1":[0,78,117],"vp2":[39],"vp3":[144]},'
    '"origins":{"65002":[0,78],"65003":[39],"65005":[144]}}')


class TestV1Upgrade:
    """A format-1 sidecar is stale: the first reader rebuilds and
    re-persists it in the current format."""

    @pytest.fixture
    def v1_segment(self, tmp_path):
        path = str(tmp_path / "updates.000000000000-000000000100.mrt")
        write_archive(updates_fixture(), path, compress=False)
        with open(index_path(path), "w") as handle:
            handle.write(V1_SIDECAR)
        assert json.loads(V1_SIDECAR)["size"] == os.path.getsize(path)
        return path

    def test_first_query_rebuilds_it(self, v1_segment):
        assert load_index(v1_segment) is None
        directory = os.path.dirname(v1_segment)
        with QueryEngine(directory) as engine:
            assert engine.query(QuerySpec(vp="vp2")) \
                == [updates_fixture()[1]]
            assert engine.query(QuerySpec(vp="vp9")) == []
            snap = engine.stats_snapshot()
        assert (snap.index_builds, snap.index_loads) == (1, 0)
        assert snap.segments_pruned_index == 1
        with open(index_path(v1_segment)) as handle:
            assert json.load(handle)["version"] == INDEX_VERSION == 2
        assert load_index(v1_segment) == reference_index(v1_segment)

    def test_scrub_reports_it_rebuilt(self, v1_segment, capsys):
        assert main(["scrub", os.path.dirname(v1_segment)]) == 0
        assert "1 intact, 0 quarantined, 1 indexes rebuilt" \
            in capsys.readouterr().out
        assert load_index(v1_segment) == reference_index(v1_segment)
