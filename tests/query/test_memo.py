"""Safety tests for the serve path's memos and per-request bookkeeping.

The engine keeps the view of a sealed segment (decoded, sorted and
rendered once) and the checkpoint manifest it has read between
requests.  Neither may ever change an answer: every read still opens
and verifies the segment file, a view is reused only for file bytes of
the same size and CRC32, and the manifest is followed line by line as
the writer appends and read again whenever the file is replaced.

A ``/updates`` request reads the manifest once and plans from that
snapshot, whose watermark it answers with; ``prefix`` parameters are
parsed through a bounded memo that never keeps a failure; and the
segment reads are counted into the metrics once per request, to the
same totals.
"""

import bz2
import http.client
import json
import math
import os
import sys
import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.query.engine as engine_module
from repro.bgp.archive import CHECKPOINT_NAME, RollingArchiveWriter
from repro.bgp.message import BGPUpdate
from repro.bgp.prefix import Prefix, PrefixError
from repro.guard import IntegrityGuard
from repro.guard.integrity import SealedJournal, seal_record
from repro.pipeline.faults import corrupt_bitflip, corrupt_truncate
from repro.query import DirectoryCatalog, QueryAPIServer, QueryEngine, \
    QuerySpec, WatermarkLRUCache, update_to_json
from repro.query.planner import prefix_param
from repro.query.stats import QueryStats

PREFIXES = [Prefix.parse(f"10.{i}.0.0/24") for i in range(5)]
VPS = [f"vp{i}" for i in range(4)]
ORIGINS = [65001, 65002, 65003]
INTERVAL_S = 100.0
N_SEGMENTS = 6
EVERYTHING = QuerySpec(start=0.0)


def make_updates(per_segment=12, salt=0):
    """A deterministic stream filling N_SEGMENTS interval slots."""
    updates = []
    step = INTERVAL_S / per_segment
    for tick in range(N_SEGMENTS * per_segment):
        pick = tick + salt
        updates.append(BGPUpdate(
            VPS[pick % len(VPS)], tick * step,
            PREFIXES[pick % len(PREFIXES)],
            (64500 + salt, ORIGINS[pick % len(ORIGINS)])))
    return updates


def build_archive(directory, updates, manifested=True):
    """Seal ``updates`` into bz2 segments; without a manifest the
    directory carries no recorded digests at all."""
    writer = RollingArchiveWriter(str(directory), interval_s=INTERVAL_S,
                                  compress=True, checkpoint=manifested,
                                  index=True)
    writer.write_stream(updates)
    writer.close()
    assert len(writer.segments) == N_SEGMENTS
    return writer


def without_segment(updates, index):
    return [u for u in updates
            if not index * INTERVAL_S <= u.time < (index + 1) * INTERVAL_S]


def slot_spec(index):
    return QuerySpec(start=index * INTERVAL_S, end=(index + 1) * INTERVAL_S)


def rendered(engine, spec):
    """What /updates carries for ``spec``: (count, joined elements)."""
    _, count, parts = engine.render(spec)
    return count, b", ".join(parts)


def expected(updates):
    """The same, from ``json.dumps`` of the reference elements."""
    body = json.dumps([update_to_json(u) for u in updates])
    return len(updates), body[1:-1].encode()


def view_weight(path):
    """The bytes a memoised view of this (bz2) segment weighs."""
    with open(path, "rb") as handle:
        return engine_module.SegmentView(
            bz2.decompress(handle.read())).weight


def ok_verifications(guard):
    return guard.registry.counter(
        "repro_guard_verifications_total",
        labels=("outcome",)).labels("ok").value


manifested = pytest.mark.parametrize(
    "manifested", [True, False], ids=["manifest", "bare-directory"])


class TestTokenLRU:
    def test_default_weight_counts_entries(self):
        cache = WatermarkLRUCache(2)
        for key in "abc":
            cache.put(key, 1, key.upper())
        assert len(cache) == cache.weight == 2
        assert cache.get("a", 1) is None
        assert cache.get("c", 1) == "C"

    def test_byte_budget_evicts_least_recently_used_first(self):
        cache = WatermarkLRUCache(10, weigh=len)
        cache.put("a", 1, b"aaaa")
        cache.put("b", 1, b"bbbb")
        assert cache.get("a", 1) == b"aaaa"      # b is now the oldest
        cache.put("c", 1, b"cccc")
        assert cache.weight == 8
        assert cache.get("b", 1) is None
        assert cache.get("a", 1) == b"aaaa"
        assert cache.get("c", 1) == b"cccc"

    def test_over_budget_value_is_not_retained(self):
        cache = WatermarkLRUCache(10, weigh=len)
        cache.put("a", 1, b"aaaa")
        cache.put("a", 2, b"x" * 11)     # replaces nothing it can keep
        assert cache.get("a", 2) is None
        assert cache.get("a", 1) is None
        assert cache.weight == 0 and len(cache) == 0

    def test_replacing_and_discarding_give_the_bytes_back(self):
        cache = WatermarkLRUCache(10, weigh=len)
        cache.put("a", 1, b"aaaaaa")
        cache.put("a", 2, b"aa")
        assert cache.weight == 2
        assert cache.get("a", 1) is None         # stale token: evicted
        assert cache.weight == 0 and cache.invalidations == 1
        cache.put("b", 1, b"bbb")
        cache.discard("b")
        cache.discard("never-there")
        assert cache.weight == 0

    def test_zero_capacity_keeps_nothing(self):
        cache = WatermarkLRUCache(0)
        cache.put("a", 1, "A")
        assert cache.get("a", 1) is None


class TestPayloadMemoSafety:
    """The segment-view memo (it replaced the decompressed-payload
    memo and reports through the same ``payload_cache`` counters)."""

    @manifested
    def test_steady_state_decompresses_nothing_but_verifies_all(
            self, tmp_path, manifested):
        updates = make_updates()
        build_archive(tmp_path, updates, manifested)
        guard = IntegrityGuard(str(tmp_path))
        with QueryEngine(str(tmp_path), guard=guard) as engine:
            for _ in range(3):
                assert rendered(engine, EVERYTHING) == expected(updates)
            snap = engine.stats_snapshot()
        assert snap.payload_cache_misses == N_SEGMENTS
        assert snap.payload_cache_hits == 2 * N_SEGMENTS
        assert snap.segments_decoded == 3 * N_SEGMENTS
        assert snap.records_decoded == 0        # render decodes nothing
        assert 0 < snap.payload_cache_bytes \
            <= engine_module._PAYLOAD_CACHE_BYTES
        # Verification is per read, not per view build.
        assert ok_verifications(guard) \
            == (3 * N_SEGMENTS if manifested else 0)

    @manifested
    @pytest.mark.parametrize("damage", [corrupt_bitflip, corrupt_truncate])
    def test_rot_after_caching_is_still_caught(self, tmp_path, damage,
                                               manifested):
        updates = make_updates()
        writer = build_archive(tmp_path, updates, manifested)
        guard = IntegrityGuard(str(tmp_path))
        with QueryEngine(str(tmp_path), guard=guard) as engine:
            assert rendered(engine, EVERYTHING) == expected(updates)
            held = engine.stats_snapshot().payload_cache_bytes
            victim = writer.segments[2].path
            damage(victim)
            # The view of segment 2 is in memory and would render
            # fine; the bytes on disk no longer back it.
            intact = without_segment(updates, 2)
            assert rendered(engine, EVERYTHING) == expected(intact)
            assert guard.quarantined == (os.path.basename(victim),)
            assert not os.path.exists(victim)
            snap = engine.stats_snapshot()
            assert snap.payload_cache_hits == N_SEGMENTS - 1
            assert 0 < snap.payload_cache_bytes < held
            assert engine.query(EVERYTHING) == intact
            assert rendered(engine, EVERYTHING) == expected(intact)

    @manifested
    def test_rewritten_segment_serves_new_contents(self, tmp_path,
                                                   manifested):
        """recover() rewinds and the resumed writer seals the same
        file names again — with whatever arrived the second time."""
        first = make_updates(per_segment=12)
        build_archive(tmp_path, first, manifested)
        with QueryEngine(str(tmp_path)) as engine:
            assert rendered(engine, EVERYTHING) == expected(first)
            second = make_updates(per_segment=15, salt=1)
            build_archive(tmp_path, second, manifested)
            assert rendered(engine, EVERYTHING) == expected(second)
            snap = engine.stats_snapshot()
            assert snap.payload_cache_hits == 0
            slot = [u for u in second if slot_spec(3).matches(u)]
            assert rendered(engine, slot_spec(3)) == expected(slot)
            assert engine.stats_snapshot().payload_cache_hits == 1
            assert engine.query(slot_spec(3)) == slot

    def test_budget_evicts_lru_first_and_is_never_exceeded(
            self, tmp_path, monkeypatch):
        updates = make_updates()
        writer = build_archive(tmp_path, updates)
        sizes = [view_weight(segment.path) for segment in writer.segments]
        budget = 2 * max(sizes)
        assert 3 * min(sizes) > budget       # two fit, three never do
        monkeypatch.setattr(engine_module, "_PAYLOAD_CACHE_BYTES", budget)
        with QueryEngine(str(tmp_path)) as engine:
            def read(index):
                before = engine.stats_snapshot().payload_cache_hits
                want = [u for u in updates if slot_spec(index).matches(u)]
                assert rendered(engine, slot_spec(index)) == expected(want)
                snap = engine.stats_snapshot()
                assert snap.payload_cache_bytes <= budget
                return snap.payload_cache_hits - before

            assert [read(0), read(1), read(0)] == [0, 0, 1]
            assert read(2) == 0              # evicts 1, the older use
            assert read(0) == 1
            assert read(1) == 0
            for index in range(N_SEGMENTS):
                read(index)
            assert engine.stats_snapshot().payload_cache_bytes \
                == sizes[-2] + sizes[-1]

    def test_payload_over_the_budget_is_served_not_retained(
            self, tmp_path, monkeypatch):
        updates = make_updates()
        build_archive(tmp_path, updates)
        monkeypatch.setattr(engine_module, "_PAYLOAD_CACHE_BYTES", 16)
        with QueryEngine(str(tmp_path)) as engine:
            for _ in range(2):
                assert rendered(engine, EVERYTHING) == expected(updates)
            assert engine.query(EVERYTHING) == updates
            snap = engine.stats_snapshot()
        assert snap.payload_cache_bytes == 0
        assert snap.payload_cache_hits == 0
        assert snap.payload_cache_misses == 3 * N_SEGMENTS

    def test_threads_on_overlapping_segments_match_a_fresh_engine(
            self, tmp_path, monkeypatch):
        updates = make_updates(per_segment=40)
        writer = build_archive(tmp_path, updates)
        one_view = view_weight(writer.segments[0].path)
        # Room for about half the archive, so hits, misses and
        # evictions all happen while the threads overlap.
        monkeypatch.setattr(engine_module, "_PAYLOAD_CACHE_BYTES",
                            3 * one_view + one_view // 2)
        specs = [EVERYTHING, QuerySpec(prefix=PREFIXES[0]),
                 QuerySpec(vp=VPS[1], start=150.0, end=450.0),
                 QuerySpec(origin=ORIGINS[2]),
                 QuerySpec(start=250.0, end=600.0, limit=30)] \
            + [slot_spec(i) for i in range(N_SEGMENTS)]
        expected_answers = {}
        for spec in specs:
            with QueryEngine(str(tmp_path), cache_size=0) as fresh:
                expected_answers[spec.key()] = (rendered(fresh, spec),
                                                fresh.query(spec))
        failures = []

        def hammer(offset):
            for turn in range(12):
                for step in range(len(specs)):
                    spec = specs[(offset + turn + step) % len(specs)]
                    want_body, want_updates = expected_answers[spec.key()]
                    # Mostly the serve path; now and then a library
                    # call, which decodes from the same views.
                    if (turn + step) % 4:
                        ok = rendered(engine, spec) == want_body
                    else:
                        ok = engine.query(spec) == want_updates
                    if not ok:
                        failures.append(spec)
                        return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with QueryEngine(str(tmp_path), cache_size=0) as engine:
                threads = [threading.Thread(target=hammer, args=(i,))
                           for i in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60.0)
                assert not any(t.is_alive() for t in threads)
                snap = engine.stats_snapshot()
        finally:
            sys.setswitchinterval(interval)
        assert not failures
        assert snap.payload_cache_hits > 0
        assert snap.payload_cache_bytes \
            <= engine_module._PAYLOAD_CACHE_BYTES


class TestManifestMemo:
    def test_one_parse_per_seal_not_per_request(self, tmp_path,
                                                monkeypatch):
        parses = []
        real = engine_module.read_manifest

        def counting(directory):
            parses.append(directory)
            return real(directory)

        monkeypatch.setattr(engine_module, "read_manifest", counting)
        writer = RollingArchiveWriter(str(tmp_path), interval_s=INTERVAL_S,
                                      checkpoint=True, index=True)
        updates = make_updates()
        writer.write_stream(updates[:36])      # three whole segments
        writer.close()
        with QueryEngine(str(tmp_path)) as engine:
            for index in range(N_SEGMENTS):
                engine.query(slot_spec(index))
                engine.watermark()
            assert len(parses) == 1
            writer.write_stream(updates[36:])
            writer.close()
            assert engine.query(EVERYTHING) == updates
            assert engine.watermark() == N_SEGMENTS * INTERVAL_S
            # Every seal in between appended its line; the engine read
            # those lines and nothing else.
            assert len(parses) == 1

    def test_deleted_manifest_falls_back_to_the_listing(self, tmp_path):
        updates = make_updates()
        build_archive(tmp_path, updates)
        catalog = DirectoryCatalog(str(tmp_path))
        recorded = catalog.segments()
        assert all(s.crc32 is not None for s in recorded)
        os.remove(tmp_path / CHECKPOINT_NAME)
        listed = catalog.segments()
        assert [s.path for s in listed] == [s.path for s in recorded]
        assert all(s.crc32 is None for s in listed)
        with QueryEngine(catalog) as engine:
            assert engine.query(EVERYTHING) == updates

    def test_unreadable_manifest_falls_back_then_recovers(self, tmp_path):
        build_archive(tmp_path, make_updates())
        catalog = DirectoryCatalog(str(tmp_path))
        recorded = catalog.segments()
        path = tmp_path / CHECKPOINT_NAME
        good = path.read_text()
        path.write_text(good[:20])                  # torn header
        assert all(s.crc32 is None for s in catalog.segments())
        path.write_text(good)
        assert catalog.segments() == recorded
        # A torn last line publishes nothing; the lines before it do.
        lines = good.splitlines(keepends=True)
        path.write_text("".join(lines[:3]) + lines[3][:40])
        assert catalog.segments() == recorded[:2]
        path.write_text(good)
        assert catalog.segments() == recorded

    def test_manifest_replaced_with_same_size_is_reparsed(self, tmp_path):
        build_archive(tmp_path, make_updates())
        catalog = DirectoryCatalog(str(tmp_path))
        before = catalog.segments()
        path = tmp_path / CHECKPOINT_NAME
        lines = path.read_text().splitlines(keepends=True)
        first = json.loads(lines[1])
        assert first["count"] == 12
        first["count"] = 21
        lines[1] = json.dumps(seal_record(first), sort_keys=True) + "\n"
        replacement = tmp_path / "CHECKPOINT.json.tmp"
        with open(replacement, "w") as handle:
            handle.writelines(lines)
        assert os.path.getsize(replacement) == os.path.getsize(path)
        os.replace(replacement, path)
        after = catalog.segments()
        assert after[0].count == 21
        assert after[1:] == before[1:]

    def test_mutating_the_returned_list_leaves_the_memo_alone(
            self, tmp_path):
        build_archive(tmp_path, make_updates())
        catalog = DirectoryCatalog(str(tmp_path))
        first = catalog.segments()
        kept = list(first)
        first.clear()
        first.append("garbage")
        assert catalog.segments() == kept
        assert catalog.segments() is not catalog.segments()

    specs = st.builds(
        lambda prefix, vp, origin, start, length, limit: QuerySpec(
            prefix=prefix, vp=vp, origin=origin, start=start,
            end=start + length, limit=limit),
        st.sampled_from(PREFIXES + [None]),
        st.sampled_from(VPS + [None]),
        st.sampled_from(ORIGINS + [None]),
        st.floats(0.0, 900.0), st.floats(0.0, 900.0),
        st.sampled_from([None, 1, 7]))
    operations = st.lists(
        st.one_of(st.tuples(st.just("seal"), st.integers(1, 6)),
                  st.tuples(st.just("query"), specs)),
        min_size=1, max_size=14)

    @settings(max_examples=30, deadline=None)
    @given(operations)
    def test_long_lived_engine_equals_a_fresh_one(self, operations):
        """Whatever a live writer seals between requests, an engine
        that has been up all along answers as one opened just now."""
        with tempfile.TemporaryDirectory() as directory:
            writer = RollingArchiveWriter(directory, interval_s=INTERVAL_S,
                                          checkpoint=True, index=True)
            slot = 0
            with QueryEngine(directory) as engine:
                for kind, argument in operations:
                    if kind == "seal":
                        for i in range(argument):
                            pick = slot + i
                            writer.write(BGPUpdate(
                                VPS[pick % len(VPS)],
                                slot * INTERVAL_S + i,
                                PREFIXES[pick % len(PREFIXES)],
                                (64500, ORIGINS[pick % len(ORIGINS)])))
                        writer.close()       # seals the open interval
                        slot += 1
                        continue
                    with QueryEngine(directory) as fresh:
                        assert engine.query(argument) \
                            == fresh.query(argument)
                        assert engine.catalog.segments() \
                            == fresh.catalog.segments()
                assert engine.query(EVERYTHING) \
                    == writer.read_range(0.0, math.inf)


def get_json(api, path):
    """GET over a fresh connection: (status, decoded JSON body)."""
    conn = http.client.HTTPConnection(api.host, api.port, timeout=10)
    try:
        conn.request("GET", path)
        reply = conn.getresponse()
        return reply.status, json.loads(reply.read())
    finally:
        conn.close()


class TestOneSnapshotPerRequest:
    """``/updates`` plans from one catalog snapshot and answers with
    that snapshot's watermark."""

    def test_one_manifest_tail_per_request(self, tmp_path, monkeypatch):
        build_archive(tmp_path, make_updates())
        tails = []
        real = SealedJournal.tail

        def counting(journal):
            tails.append(journal.path)
            return real(journal)

        monkeypatch.setattr(SealedJournal, "tail", counting)
        paths = ["/updates", f"/updates?prefix={PREFIXES[1]}",
                 "/updates?start=150&end=420&limit=3",
                 f"/updates?vp={VPS[2]}&origin={ORIGINS[0]}"]
        with QueryEngine(str(tmp_path)) as engine, \
                QueryAPIServer(engine) as api:
            assert get_json(api, "/updates?limit=1")[0] == 200
            tails.clear()
            for turn in range(3):
                for path in paths:
                    status, body = get_json(api, path)
                    assert status == 200, body
                    assert body["watermark"] == N_SEGMENTS * INTERVAL_S
            assert len(tails) == 3 * len(paths)

    @pytest.mark.parametrize("spec", [EVERYTHING,
                                      QuerySpec(prefix=PREFIXES[0]),
                                      QuerySpec(start=150.0, end=380.0)])
    def test_watermark_is_the_planned_snapshots(self, tmp_path, spec):
        """A live writer seals a segment between the snapshot and the
        segment reads: the answer carries neither that segment nor its
        watermark."""
        updates = make_updates()
        writer = RollingArchiveWriter(str(tmp_path), interval_s=INTERVAL_S,
                                      checkpoint=True, index=True)
        engine = QueryEngine(writer)
        planned = []
        real_plan = engine._plan
        slot = 0

        def plan_then_seal(segments, plan_spec):
            planned.append(segments)
            plan = real_plan(segments, plan_spec)
            writer.write_stream([u for u in updates
                                 if slot_spec(slot).matches(u)])
            writer.close()
            return plan

        writer.write_stream([u for u in updates
                             if slot_spec(0).matches(u)])
        writer.close()
        engine._plan = plan_then_seal
        for slot in range(1, N_SEGMENTS):
            watermark, count, parts = engine.render(spec)
            snapshot = planned[-1]
            assert watermark == snapshot[-1].end == slot * INTERVAL_S
            assert len(writer.segments) == len(snapshot) + 1
            carried = [u for u in updates if u.time < watermark
                       and spec.matches(u)]
            assert (count, b", ".join(parts)) == expected(carried)
        engine.close()


class TestPrefixMemo:
    def test_bounded(self):
        maxsize = prefix_param.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 1 << 16
        for i in range(maxsize + 10):
            prefix_param(f"10.{i >> 8 & 255}.{i & 255}.0/24")
        assert prefix_param.cache_info().currsize == maxsize

    def test_a_memoised_prefix_is_the_parsed_one(self):
        for text in ("10.0.3.0/24", "2001:db8::/32", "0.0.0.0/0"):
            assert prefix_param(text) == Prefix.parse(text)
            assert prefix_param(text) is prefix_param(text)

    @pytest.mark.parametrize("text", ["10.0.0.1/24", "10.0.0.0/33",
                                      "not-a-prefix", ""])
    def test_bad_prefix_is_400_on_every_repeat(self, tmp_path, text):
        build_archive(tmp_path, make_updates())
        with QueryEngine(str(tmp_path)) as engine, \
                QueryAPIServer(engine) as api:
            for _ in range(3):
                with pytest.raises(PrefixError):
                    prefix_param(text)
                status, body = get_json(api, f"/updates?prefix={text}")
                assert status == 400 and "error" in body


class TestReadCounters:
    """The serve path counts a request's segment reads once, by their
    numbers: the totals stay those of one increment per read."""

    def test_metrics_totals_over_a_fixed_sequence(self, tmp_path):
        updates = make_updates()
        build_archive(tmp_path, updates)
        specs = [(f"/updates?prefix={PREFIXES[0]}",
                  QuerySpec(prefix=PREFIXES[0])),
                 ("/updates?start=150&end=420",
                  QuerySpec(start=150.0, end=420.0)),
                 ("/updates", EVERYTHING),
                 (f"/updates?vp={VPS[3]}", QuerySpec(vp=VPS[3])),
                 ("/updates?start=650", QuerySpec(start=650.0))] * 3
        stats = QueryStats()
        guard = IntegrityGuard(str(tmp_path), registry=stats.registry)
        with QueryEngine(str(tmp_path), guard=guard, stats=stats) as engine, \
                QueryAPIServer(engine, guard=guard) as api:
            reads, seen = 0, set()
            for path, spec in specs:
                scan = [segment.path for segment in engine.plan(spec).scan]
                reads += len(scan)
                seen.update(scan)
                status, body = get_json(api, path)
                assert status == 200
                want = [u for u in updates if spec.matches(u)]
                assert body["count"] == len(want)
            status, metrics = get_json(api, "/metrics?format=json")
            assert status == 200
        totals = {(family["name"],) + tuple(sample["labels"].values()):
                  sample["value"]
                  for family in metrics["families"]
                  if family["name"] in ("repro_query_payload_cache_total",
                                        "repro_guard_verifications_total")
                  for sample in family["samples"]}
        assert totals[("repro_query_payload_cache_total", "miss")] \
            == len(seen) == N_SEGMENTS
        assert totals[("repro_query_payload_cache_total", "hit")] \
            == reads - len(seen)
        assert totals[("repro_guard_verifications_total", "ok")] == reads
