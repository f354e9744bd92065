"""Planning from archive-level postings (repro.query.planner).

:class:`~repro.query.planner.ArchivePostings` replaces a probe of every
segment's index per plan.  The contract: for every spec, the engine's
plan — ``scan``, ``pruned_time`` and ``pruned_index`` — equals the one
a planner that probes every segment gives, whatever the catalog, with
unindexable segments, with segments sealed after the first plan, and
with segments that overlap in time.
"""

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.archive import INDEX_SUFFIX, RollingArchiveWriter
from repro.bgp.message import BGPUpdate
from repro.query import QueryEngine, QueryPlan, QuerySpec
from repro.query.index import IndexProbe, load_index

from .test_index import ABSENT_ASN, ABSENT_PREFIX, ABSENT_VP, \
    SEAL_ASNS, SEAL_PREFIXES, SEAL_VPS, seal_updates


def probe_plan(segments, spec, index_for):
    """The reference: every segment outside the time range is pruned,
    every other one is probed through ``index_for`` (None keeps it)."""
    probe = IndexProbe(spec.prefix, spec.vp, spec.origin)
    scan = []
    pruned_time = pruned_index = 0
    for segment in segments:
        if segment.end <= spec.start or segment.start >= spec.end:
            pruned_time += 1
            continue
        index = index_for(segment)
        if index is not None and not probe.may_match(index):
            pruned_index += 1
            continue
        scan.append(segment)
    return QueryPlan(spec, tuple(scan), pruned_time, pruned_index)


def sidecar_index(segment):
    """What the engine's index for a segment is: its sidecar (the
    engine persists the ones it builds), or none for a segment that
    cannot be indexed."""
    return load_index(segment.path)


@st.composite
def specs(draw):
    start = draw(st.sampled_from([0.0, 5.0, 12.5, 20.0, 40.0, 77.5]))
    end = start + draw(st.sampled_from([0.0, 2.5, 10.0, 30.0,
                                        float("inf")]))
    return QuerySpec(
        prefix=draw(st.sampled_from(SEAL_PREFIXES + [None, ABSENT_PREFIX])),
        vp=draw(st.sampled_from(SEAL_VPS + [None, ABSENT_VP])),
        origin=draw(st.sampled_from(SEAL_ASNS + [None, ABSENT_ASN])),
        start=start, end=end)


def spoil(segment):
    """Make a segment unindexable: no sidecar, bytes no decoder takes."""
    if os.path.exists(segment.path + INDEX_SUFFIX):
        os.remove(segment.path + INDEX_SUFFIX)
    with open(segment.path, "wb") as handle:
        handle.write(b"\xff" * 64)


def assert_plans(engine, spec_list):
    segments = engine.catalog.segments()
    for spec in spec_list:
        plan = engine.plan(spec)
        assert plan == probe_plan(segments, spec, sidecar_index), spec
        assert plan.considered == len(segments)


class TestPostingsEqualProbing:
    @settings(max_examples=60, deadline=None)
    @given(updates=st.lists(seal_updates(), min_size=1, max_size=60),
           checkpoint=st.booleans(), index=st.booleans(),
           live=st.booleans(), unindexable=st.integers(0, 20),
           spec_list=st.lists(specs(), min_size=1, max_size=12))
    def test_plan_equals_probe_plan(self, updates, checkpoint, index,
                                    live, unindexable, spec_list):
        """The slots before the stream's middle are sealed before the
        first plan and the rest after it; one segment of the first
        part cannot be indexed.  ``live`` plans over the writer
        (WriterCatalog), else over the directory — its manifest with
        ``checkpoint``, its listing without (unpinned segments, probed
        on every plan).  Without ``index`` the engine builds every
        index itself."""
        updates = sorted(updates, key=lambda u: u.time)
        boundary = updates[len(updates) // 2].time // 10.0 * 10.0
        with tempfile.TemporaryDirectory() as directory:
            writer = RollingArchiveWriter(
                directory, interval_s=10.0, compress=False,
                checkpoint=checkpoint, index=index)
            writer.write_stream(u for u in updates if u.time < boundary)
            writer.seal()
            writer.publish()
            if writer.segments:
                spoil(writer.segments[unindexable % len(writer.segments)])
            source = writer if live else directory
            with QueryEngine(source) as engine:
                assert_plans(engine, spec_list)
                writer.write_stream(u for u in updates
                                    if u.time >= boundary)
                writer.close()
                assert_plans(engine, spec_list)
                if not live and not checkpoint:
                    # A listing that loses a segment: the list changed
                    # other than by appending, so the postings rebuild.
                    dropped = writer.segments[0].path
                    os.remove(dropped)
                    if os.path.exists(dropped + INDEX_SUFFIX):
                        os.remove(dropped + INDEX_SUFFIX)
                    assert_plans(engine, spec_list)

    @settings(max_examples=30, deadline=None)
    @given(first=st.lists(seal_updates(), min_size=1, max_size=30),
           second=st.lists(seal_updates(), min_size=1, max_size=30),
           spec_list=st.lists(specs(), min_size=1, max_size=12))
    def test_overlapping_segments(self, first, second, spec_list):
        """Two writers of different intervals left segments that
        overlap in time in one directory: the listing orders them by
        start, so their ends are not in list order."""
        with tempfile.TemporaryDirectory() as directory:
            for updates, interval_s in ((first, 10.0), (second, 25.0)):
                writer = RollingArchiveWriter(
                    directory, interval_s=interval_s, compress=False,
                    index=True)
                writer.write_stream(sorted(updates, key=lambda u: u.time))
                writer.close()
            with QueryEngine(directory) as engine:
                assert_plans(engine, spec_list)

    def test_rewritten_unpinned_segment(self, tmp_path):
        """Without a manifest nothing pins a segment's bytes: a file
        rewritten in place is planned from its new contents."""
        directory = str(tmp_path)

        def write(prefix, count):
            writer = RollingArchiveWriter(directory, interval_s=10.0,
                                          compress=False, index=True)
            writer.write_stream(BGPUpdate("vp0", float(i), prefix,
                                          (1, 65001)) for i in range(count))
            writer.close()

        old, new = SEAL_PREFIXES[0], SEAL_PREFIXES[1]
        write(old, 5)
        with QueryEngine(directory) as engine:
            assert engine.plan(QuerySpec(prefix=new)).scan == ()
            write(new, 7)
            assert len(engine.plan(QuerySpec(prefix=new)).scan) == 1
            assert_plans(engine, [QuerySpec(prefix=old), QuerySpec()])


class TestLazyIndexes:
    def test_a_plan_builds_only_the_indexes_of_its_window(self, tmp_path):
        """A checkpointed archive without sidecars: a time-bounded plan
        builds the indexes of the segments its window holds and no
        other, and a plan over the same window builds none again."""
        directory = str(tmp_path)
        writer = RollingArchiveWriter(directory, interval_s=10.0,
                                      compress=False, checkpoint=True,
                                      index=False)
        writer.write_stream(
            BGPUpdate(SEAL_VPS[i % len(SEAL_VPS)], float(i),
                      SEAL_PREFIXES[i % len(SEAL_PREFIXES)], (1, 65001))
            for i in range(100))
        writer.close()

        def sidecars():
            return sorted(name for name in os.listdir(directory)
                          if name.endswith(INDEX_SUFFIX))

        assert len(writer.segments) == 10 and sidecars() == []
        with QueryEngine(directory) as engine:
            window = QuerySpec(prefix=SEAL_PREFIXES[0], start=20.0, end=40.0)
            assert engine.plan(window).pruned_time == 8
            assert engine.stats_snapshot().index_builds == 2
            assert sidecars() == sorted(
                os.path.basename(s.path) + INDEX_SUFFIX
                for s in writer.segments[2:4])
            assert_plans(engine, [window])
            assert engine.stats_snapshot().index_builds == 2
            # Without a predicate the window's indexes are built too:
            # that heals a torn sidecar on the first plan reaching it.
            engine.plan(QuerySpec(start=50.0))
            assert engine.stats_snapshot().index_builds == 7
            assert_plans(engine, [QuerySpec(vp=SEAL_VPS[0])])
            assert engine.stats_snapshot().index_builds == 10
