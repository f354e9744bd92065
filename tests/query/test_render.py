"""Differential tests for the rendered ``/updates`` path.

:meth:`QueryEngine.render` answers from segment views — records
decoded, sorted and rendered once per segment — and must produce
exactly what ``json.dumps`` produces for the naive answer: decode the
whole archive, filter with :meth:`QuerySpec.matches`, sort, limit.
:meth:`QueryEngine.query` must equal that naive answer too.
"""

import json
import math
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.query.engine as engine_module
from repro.bgp.archive import RollingArchiveWriter
from repro.bgp.message import BGPUpdate
from repro.bgp.mrt import write_archive
from repro.bgp.prefix import Prefix
from repro.guard.serving import Deadline, DeadlineExceeded
from repro.query import QueryEngine, QuerySpec, update_to_json

PREFIXES = [Prefix.parse(text) for text in (
    "10.0.0.0/24", "10.0.1.0/24", "192.168.0.0/16", "0.0.0.0/0",
    "2001:db8::/32", "2001:db8:1::/48", "2001:db8::1/128")]
VPS = ["vp0", "vp1", "vp10", "vp-é", "b"]
ASNS = [1, 65001, 65002, 4200000000]
INTERVAL_S = 60.0


def naive(writer, spec):
    hits = [u for u in writer.read_range(0.0, math.inf) if spec.matches(u)]
    hits.sort(key=lambda u: (u.time, u.vp, u.prefix))
    return hits if spec.limit is None else hits[:spec.limit]


def assert_answers(engine, writer, spec):
    want = naive(writer, spec)
    watermark, count, parts = engine.render(spec)
    assert watermark == engine.watermark(), spec
    assert count == len(want), spec
    assert ("[" + b", ".join(parts).decode() + "]") \
        == json.dumps([update_to_json(u) for u in want]), spec
    assert engine.query(spec) == want, spec


@st.composite
def updates(draw):
    """One update; times on a coarse grid so equal timestamps across
    VPs (and prefixes) are common."""
    vp = draw(st.sampled_from(VPS))
    time = draw(st.integers(0, 40)) * 2.5
    prefix = draw(st.sampled_from(PREFIXES))
    if draw(st.integers(0, 4)) == 0:
        return BGPUpdate(vp, time, prefix, is_withdrawal=True)
    path = draw(st.lists(st.sampled_from(ASNS), min_size=0, max_size=3))
    communities = draw(st.frozensets(
        st.tuples(st.sampled_from(ASNS), st.integers(0, 70000)),
        max_size=3))
    return BGPUpdate(vp, time, prefix, tuple(path), communities)


specs = st.builds(
    lambda prefix, vp, origin, start, length, limit: QuerySpec(
        prefix=prefix, vp=vp, origin=origin, start=start,
        end=start + length, limit=limit),
    st.sampled_from(PREFIXES + [None] * 3),
    st.sampled_from(VPS + [None] * 3),
    st.sampled_from(ASNS + [None] * 3),
    st.sampled_from([0.0, 2.5, 30.0, 61.0, 120.0]),
    st.sampled_from([0.0, 2.5, 60.0, 90.0, math.inf]),
    st.sampled_from([None, None, 0, 1, 5]))


class TestRenderEqualsNaive:
    @settings(max_examples=60, deadline=None)
    @given(batches=st.lists(st.lists(updates(), max_size=25),
                            min_size=1, max_size=4),
           queries=st.lists(specs, min_size=1, max_size=4),
           compress=st.booleans(), indexed=st.booleans())
    def test_live_archive(self, batches, queries, compress, indexed):
        """A writer seals batches between requests; one long-lived
        engine answers after each batch exactly as the naive scan."""
        with tempfile.TemporaryDirectory() as directory:
            writer = RollingArchiveWriter(
                directory, interval_s=INTERVAL_S, compress=compress,
                checkpoint=True, index=indexed)
            offset = 0.0
            with QueryEngine(directory) as engine:
                for batch in batches:
                    batch = sorted(batch, key=lambda u: u.time)
                    writer.write_stream(u.with_time(u.time + offset)
                                        for u in batch)
                    writer.close()          # seals the open interval
                    offset += 2 * INTERVAL_S
                    for spec in queries + [QuerySpec()]:
                        assert_answers(engine, writer, spec)

    def test_overlapping_segments_interleave(self, tmp_path):
        """Two writers with different intervals left overlapping
        segments in one directory: answers still merge by
        ``(time, vp, prefix)``, ties in archive order."""
        a = [BGPUpdate("vp2", 10.0, PREFIXES[0], (1, 65001)),
             BGPUpdate("vp1", 70.0, PREFIXES[1], (1, 65002)),
             BGPUpdate("vp1", 70.0, PREFIXES[4], (1, 65001))]
        b = [BGPUpdate("vp1", 10.0, PREFIXES[0], (1, 65001)),
             BGPUpdate("vp1", 70.0, PREFIXES[1], is_withdrawal=True),
             BGPUpdate("vp0", 95.0, PREFIXES[2], (1, 65002))]
        write_archive(a, str(tmp_path / "updates.000000000000-"
                                         "000000000120.mrt"), False)
        write_archive(b, str(tmp_path / "updates.000000000060-"
                                         "000000000120.mrt"), False)
        want = sorted(a + b, key=lambda u: (u.time, u.vp, u.prefix))
        with QueryEngine(str(tmp_path)) as engine:
            assert engine.query(QuerySpec()) == want
            _, count, parts = engine.render(QuerySpec(limit=4))
            assert count == 4
            assert b"[" + b", ".join(parts) + b"]" == json.dumps(
                [update_to_json(u) for u in want[:4]]).encode()


class FiringDeadline(Deadline):
    """Expires at the first poll from inside a segment."""

    def __init__(self):
        super().__init__(3600.0)
        self.polls = []

    def check(self, context=""):
        self.polls.append(context)
        if context.startswith("mid segment"):
            raise DeadlineExceeded(context)


class TestDeadline:
    def test_fires_mid_segment_and_keeps_no_view(self, tmp_path):
        writer = RollingArchiveWriter(str(tmp_path), interval_s=1000.0)
        stream = [BGPUpdate(f"vp{i % 7}", i * 0.5, PREFIXES[i % 5],
                            (1, ASNS[i % 4])) for i in range(600)]
        writer.write_stream(stream)
        writer.close()
        with QueryEngine(str(tmp_path)) as engine:
            deadline = FiringDeadline()
            with pytest.raises(DeadlineExceeded, match="mid segment"):
                engine.render(QuerySpec(), deadline=deadline)
            assert deadline.polls[0] == "before segment read"
            assert engine.stats_snapshot().payload_cache_bytes == 0
            _, count, _ = engine.render(QuerySpec())
            assert count == len(stream)


class TestViewLayout:
    def test_codes_widen_past_sixteen_bits(self):
        assert engine_module._Column(list(range(1 << 16))).codes.typecode \
            == "H"
        wide = engine_module._Column(list(range((1 << 16) + 1)) + [7])
        assert wide.codes.typecode == "I"
        assert list(wide.positions(7, 0, len(wide.codes))) == [7, 1 << 16 | 1]
        assert wide.count(7) == 2

    def test_view_holds_arrays_and_one_buffer(self, tmp_path):
        path = str(tmp_path / "updates.000000000000-000000000060.mrt")
        stream = [BGPUpdate("vp1", 1.0, PREFIXES[0], (1, 65001)),
                  BGPUpdate("vp0", 1.0, PREFIXES[4], is_withdrawal=True)]
        write_archive(stream, path, False)
        with open(path, "rb") as handle:
            view = engine_module.SegmentView(handle.read())
        assert len(view) == 2
        # Beyond the rendered buffer, a bounded number of array bytes
        # per record: no per-record object is kept.
        assert view.weight - len(view.rendered) < 100 * len(view)
        # Sorted by (time, vp, prefix): vp0 first despite file order.
        assert view.rendered.startswith(b'{"vp": "vp0"')
