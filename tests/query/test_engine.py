"""Differential and concurrency tests for repro.query.engine.

The contract under test: every :class:`QueryEngine` answer is equal to
the naive scan — decode the whole archive with ``read_range`` and
filter in Python — for randomized archives, with and without
seal-time indexes, compressed and raw.
"""

import bz2
import math
import os
import random
import threading

import pytest

from repro.bgp.archive import RollingArchiveWriter
from repro.bgp.message import BGPUpdate
from repro.bgp.prefix import Prefix
from repro.guard import IntegrityGuard
from repro.query import (
    DirectoryCatalog,
    QueryEngine,
    QuerySpec,
    SegmentIndex,
    WriterCatalog,
)

PREFIXES = [Prefix.parse(f"10.{i}.0.0/24") for i in range(6)]
VPS = [f"vp{i}" for i in range(4)]
ORIGINS = [65001, 65002, 65003]


def random_updates(rng, n, t0=0.0, span=1000.0):
    """Time-ordered updates with randomized predicates."""
    times = sorted(rng.uniform(t0, t0 + span) for _ in range(n))
    updates = []
    for t in times:
        if rng.random() < 0.15:
            updates.append(BGPUpdate(rng.choice(VPS), t,
                                     rng.choice(PREFIXES),
                                     is_withdrawal=True))
        else:
            updates.append(BGPUpdate(
                rng.choice(VPS), t, rng.choice(PREFIXES),
                (64500, rng.choice(ORIGINS))))
    return updates


def naive(writer, spec):
    """The reference answer: full decode, filter, sort, limit."""
    hits = [u for u in writer.read_range(0.0, math.inf)
            if spec.matches(u)]
    hits.sort(key=lambda u: (u.time, u.vp, u.prefix))
    return hits if spec.limit is None else hits[:spec.limit]


def specs_under_test(rng):
    """A mix of hand-picked and randomized specs."""
    fixed = [
        QuerySpec(),
        QuerySpec(prefix=PREFIXES[0]),
        QuerySpec(vp=VPS[1]),
        QuerySpec(origin=ORIGINS[0]),
        QuerySpec(prefix=PREFIXES[2], vp=VPS[0]),
        QuerySpec(prefix=Prefix.parse("172.16.0.0/12")),   # absent
        QuerySpec(start=200.0, end=600.0),
        QuerySpec(prefix=PREFIXES[1], start=100.0, end=900.0, limit=5),
        QuerySpec(limit=0),
        QuerySpec(origin=ORIGINS[2], vp=VPS[3], limit=3),
    ]
    for _ in range(10):
        start = rng.uniform(0.0, 800.0)
        fixed.append(QuerySpec(
            prefix=rng.choice(PREFIXES + [None]),
            vp=rng.choice(VPS + [None]),
            origin=rng.choice(ORIGINS + [None]),
            start=start,
            end=start + rng.uniform(50.0, 600.0),
            limit=rng.choice([None, 1, 7]),
        ))
    return fixed


@pytest.fixture(params=[
    (True, True), (True, False), (False, True), (False, False)
], ids=["bz2-indexed", "bz2-preindex", "raw-indexed", "raw-preindex"])
def archive(request, tmp_path):
    """A randomized multi-segment archive; ``index=False`` cases model
    archives published before indexing existed."""
    compress, indexed = request.param
    rng = random.Random(42 if indexed else 43)
    writer = RollingArchiveWriter(str(tmp_path), interval_s=120.0,
                                  compress=compress, index=indexed)
    writer.write_stream(random_updates(rng, 300))
    writer.close()
    assert len(writer.segments) >= 5
    return writer, rng


class TestDifferential:
    def test_engine_equals_naive_scan(self, archive):
        writer, rng = archive
        with QueryEngine(writer) as engine:
            for spec in specs_under_test(rng):
                assert engine.query(spec) == naive(writer, spec), spec

    def test_directory_source_equals_naive_scan(self, archive, tmp_path):
        writer, rng = archive
        with QueryEngine(str(tmp_path)) as engine:
            for spec in specs_under_test(rng):
                assert engine.query(spec) == naive(writer, spec), spec

    def test_lazy_indexing_persists_and_is_used(self, archive, tmp_path):
        writer, _ = archive
        spec = QuerySpec(prefix=PREFIXES[0])
        with QueryEngine(writer) as engine:
            engine.query(spec)
            snap = engine.stats_snapshot()
            # Pre-index archives build lazily; sealed-with-index
            # archives only load.
            assert snap.index_builds + snap.index_loads \
                == len(writer.segments)
        # A second engine finds the persisted indexes: zero rebuilds.
        with QueryEngine(writer) as engine:
            assert engine.query(spec) == naive(writer, spec)
            assert engine.stats_snapshot().index_builds == 0

    def test_unwritable_directory_builds_each_index_once(
            self, tmp_path, monkeypatch):
        rng = random.Random(7)
        writer = RollingArchiveWriter(str(tmp_path), interval_s=120.0,
                                      compress=False)
        writer.write_stream(random_updates(rng, 100))
        writer.close()
        before = sorted(os.listdir(tmp_path))

        def refuse(index, segment_path):
            raise PermissionError(f"read-only: {segment_path}")

        monkeypatch.setattr(SegmentIndex, "save", refuse)
        with QueryEngine(writer) as engine:
            for spec in (QuerySpec(prefix=Prefix.parse("172.16.0.0/12")),
                         QuerySpec(vp=VPS[0], origin=ORIGINS[1])):
                assert engine.query(spec) == naive(writer, spec)
            snap = engine.stats_snapshot()
        # The built indexes are kept in memory: both queries prune
        # with them, and none is rebuilt for the second.
        assert snap.segments_pruned_index >= len(writer.segments)
        assert snap.index_builds == len(writer.segments)
        assert sorted(os.listdir(tmp_path)) == before


class TestPruning:
    def test_absent_prefix_prunes_every_segment(self, archive):
        writer, _ = archive
        with QueryEngine(writer) as engine:
            plan = engine.plan(QuerySpec(
                prefix=Prefix.parse("172.16.0.0/12")))
            assert plan.scan == ()
            assert plan.pruned_index == len(writer.segments)

    def test_time_range_prunes_segments(self, archive):
        writer, _ = archive
        first = writer.segments[0]
        with QueryEngine(writer) as engine:
            plan = engine.plan(QuerySpec(start=first.start,
                                         end=first.end))
            assert plan.pruned_time == len(writer.segments) - 1
            assert plan.scan == (first,)

    def test_selective_query_decodes_fewer_records(self, archive):
        writer, _ = archive
        with QueryEngine(writer) as engine:
            engine.query(QuerySpec(prefix=PREFIXES[0], vp=VPS[0]))
            snap = engine.stats_snapshot()
            total = sum(s.count for s in writer.segments)
            assert 0 < snap.records_decoded < total


class TestCache:
    def test_repeat_query_hits_cache(self, archive):
        writer, _ = archive
        spec = QuerySpec(prefix=PREFIXES[0])
        with QueryEngine(writer) as engine:
            first = engine.query(spec)
            second = engine.query(spec)
            assert first == second
            snap = engine.stats_snapshot()
            assert snap.queries == 2
            assert snap.cache_hits == 1
            assert snap.cache_hit_rate == 0.5

    def test_cached_result_is_a_private_copy(self, archive):
        writer, _ = archive
        spec = QuerySpec(prefix=PREFIXES[0])
        with QueryEngine(writer) as engine:
            first = engine.query(spec)
            first.clear()
            assert engine.query(spec) == naive(writer, spec)

    def test_watermark_advance_invalidates(self, tmp_path):
        rng = random.Random(3)
        writer = RollingArchiveWriter(str(tmp_path), interval_s=120.0,
                                      compress=False, index=True)
        writer.write_stream(random_updates(rng, 80, span=500.0))
        spec = QuerySpec(vp=VPS[0])
        with QueryEngine(writer) as engine:
            stale = engine.query(spec)
            token_before = engine.watermark()
            # The live pipeline seals more segments behind the engine.
            writer.write_stream(
                random_updates(rng, 80, t0=600.0, span=500.0))
            writer.close()
            assert engine.watermark() != token_before
            fresh = engine.query(spec)
            assert fresh == naive(writer, spec)
            assert len(fresh) > len(stale)
            snap = engine.stats_snapshot()
            assert snap.cache_hits == 0
            assert snap.cache_invalidations == 1


class TestConcurrency:
    def test_queries_race_with_sealing(self, tmp_path):
        """Readers querying while the writer seals segments must only
        ever observe an answer for some *prefix* of the segment
        sequence — never a torn in-between state."""
        rng = random.Random(11)
        writer = RollingArchiveWriter(str(tmp_path), interval_s=100.0,
                                      compress=False, index=True)
        updates = random_updates(rng, 400, span=2000.0)
        spec = QuerySpec(prefix=PREFIXES[0])

        # Every acceptable answer: the naive result over the first k
        # sealed segments, for every k.
        shadow = RollingArchiveWriter(str(tmp_path / "shadow"),
                                      interval_s=100.0, compress=False)
        acceptable = {()}
        for update in updates:
            if shadow.write(update) is not None:
                acceptable.add(tuple(naive(shadow, spec)))
        shadow.close()
        acceptable.add(tuple(naive(shadow, spec)))

        failures = []
        stop = threading.Event()

        def reader(engine):
            while not stop.is_set():
                answer = tuple(engine.query(spec))
                if answer not in acceptable:
                    failures.append(answer)
                    return

        with QueryEngine(writer, cache_size=8) as engine:
            threads = [threading.Thread(target=reader, args=(engine,))
                       for _ in range(4)]
            for thread in threads:
                thread.start()
            writer.write_stream(updates)
            writer.close()
            # One final settled read per reader, then stop.
            final = tuple(engine.query(spec))
            stop.set()
            for thread in threads:
                thread.join()
        assert not failures
        assert final == tuple(naive(writer, spec))

    def test_parallel_identical_queries_agree(self, archive):
        writer, rng = archive
        specs = specs_under_test(rng)
        expected = {spec.key(): naive(writer, spec) for spec in specs}
        failures = []

        def worker():
            for spec in sorted(specs, key=lambda s: rng.random()):
                if engine.query(spec) != expected[spec.key()]:
                    failures.append(spec)

        with QueryEngine(writer) as engine:
            threads = [threading.Thread(target=worker) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not failures


def corrupt_vp_byte(raw):
    payload = bytearray(bz2.decompress(raw))
    payload[16 + 2] = 0xFF                 # first VP byte: invalid UTF-8
    return bz2.compress(bytes(payload))


def truncate(raw):
    return raw[:len(raw) // 2]             # bz2 stream ends early


class TestFieldCorruption:
    """An un-checksummed archive (bare directory, no manifest) has only
    the decoder between a rotten byte and the client: the bad segment
    must be condemned and the rest served, never a raised exception."""

    @pytest.mark.parametrize("with_guard", [False, True])
    @pytest.mark.parametrize("damage", [corrupt_vp_byte, truncate])
    def test_bad_segment_is_skipped_not_raised(self, tmp_path, damage,
                                               with_guard):
        writer = RollingArchiveWriter(str(tmp_path), interval_s=100.0)
        good = BGPUpdate("vp1", 10.0, PREFIXES[0], (64500, 65001))
        writer.write_stream([good,
                             BGPUpdate("vp2", 150.0, PREFIXES[1], (1, 2))])
        writer.close()
        bad = writer.segments[1].path
        with open(bad, "rb") as handle:
            raw = handle.read()
        with open(bad, "wb") as handle:
            handle.write(damage(raw))
        guard = IntegrityGuard(str(tmp_path)) if with_guard else None
        with QueryEngine(str(tmp_path), guard=guard) as engine:
            assert engine.query(QuerySpec()) == [good]
            assert engine.query(QuerySpec(vp="vp2")) == []
            assert engine.vp_counts() == {"vp1": 1}
        if with_guard:
            assert guard.quarantined == (os.path.basename(bad),)
            assert not os.path.exists(bad)


class TestAggregates:
    def test_vp_counts_match_naive(self, archive):
        writer, _ = archive
        expected = {}
        for update in writer.read_range(0.0, math.inf):
            expected[update.vp] = expected.get(update.vp, 0) + 1
        with QueryEngine(writer) as engine:
            assert engine.vp_counts() == expected

    def test_rib_dump_selection(self, tmp_path):
        writer = RollingArchiveWriter(str(tmp_path), interval_s=120.0,
                                      compress=False)
        writer.write(BGPUpdate("vp1", 10.0, PREFIXES[0], (1, 2)))
        writer.close()
        assert QueryEngine(writer).rib_dump_at() is None
        p100 = writer.write_rib_dump(100.0, {})
        p500 = writer.write_rib_dump(500.0, {})
        with QueryEngine(writer) as engine:
            assert engine.rib_dump_at() == (500.0, p500)
            assert engine.rib_dump_at(499.0) == (100.0, p100)
            assert engine.rib_dump_at(50.0) is None


class TestSpecValidation:
    def test_bad_ranges_rejected(self):
        with pytest.raises(ValueError):
            QuerySpec(start=10.0, end=5.0)
        with pytest.raises(ValueError):
            QuerySpec(limit=-1)

    @pytest.mark.parametrize("bounds", [
        dict(start=math.nan), dict(end=math.nan)])
    def test_nan_bounds_rejected(self, bounds):
        """nan != nan, so a spec carrying one could never hit the
        result cache it is the key of."""
        with pytest.raises(ValueError):
            QuerySpec(**bounds)

    @pytest.mark.parametrize("params", [
        {"start": "nan"}, {"end": "nan"}, {"start": "inf"},
        {"start": "-inf"}, {"end": "-inf"}])
    def test_from_params_rejects_non_finite(self, params):
        with pytest.raises(ValueError):
            QuerySpec.from_params(params)

    def test_from_params(self):
        spec = QuerySpec.from_params({
            "prefix": "10.0.0.0/24", "vp": "vp1", "origin": "65001",
            "start": "5", "end": "10", "limit": "3"})
        assert spec.prefix == Prefix.parse("10.0.0.0/24")
        assert spec.origin == 65001 and spec.limit == 3
        with pytest.raises(ValueError):
            QuerySpec.from_params({"bogus": "1"})
        # An open-ended range stays expressible.
        assert QuerySpec.from_params({"end": "inf"}).end == math.inf
