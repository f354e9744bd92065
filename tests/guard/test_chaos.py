"""Corruption chaos: rot is detected, quarantined, and never served.

The contract (docs/FAULTS.md): corrupt any scheduled subset of a
sealed archive's segments and the read side must (a) detect 100% of
the corruption, (b) quarantine it — file and sidecar moved aside,
metrics ticked, an ``integrity`` incident journaled — and (c) keep
answering queries from the intact remainder, with ``/readyz``
reporting ``degraded`` while ``/updates`` still serves.
"""

import json
import math
import os
import urllib.error
import urllib.request

import pytest

from repro.events import EventStore, journal_path_for
from repro.guard.manager import IntegrityGuard, quarantine_dir_for
from repro.guard.scrub import scrub_directory
from repro.pipeline.faults import (
    FaultInjector,
    FaultPlan,
    corrupt_bitflip,
    corrupt_torn_index,
)
from repro.query import QueryAPIServer, QueryEngine, QuerySpec
from repro.query.engine import DirectoryCatalog
from repro.query.index import load_index

from .conftest import INTERVAL_S, N_SEGMENTS, build_archive, make_updates


def get_json(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def keyed(updates):
    return [(u.time, u.vp, str(u.prefix)) for u in updates]


def expected_without_segments(corrupt_indexes):
    """The full stream minus updates whose segment was condemned."""
    lost = {int(index) for index in corrupt_indexes}
    return [u for u in make_updates()
            if int(u.time // INTERVAL_S) not in lost]


def gauge_value(registry, name):
    for family in registry.to_json()["families"]:
        if family["name"] == name:
            return family["samples"][0]["value"]
    return None


class TestQuarantineServing:
    """Two segments rot; queries answer from the intact four."""

    CORRUPT = (1, 3)    # bitflip=archive@2 / truncate=archive@4

    @pytest.fixture
    def degraded(self, tmp_path):
        directory = tmp_path / "victim"
        directory.mkdir()
        build_archive(directory)
        segments = DirectoryCatalog(str(directory)).segments()
        injector = FaultInjector(FaultPlan.parse(
            "bitflip=archive@2,truncate=archive@4"))
        applied = injector.apply_archive_corruption(segments)
        assert [segments.index(next(s for s in segments
                                    if s.path == path))
                for _, path in applied] == list(self.CORRUPT)
        store = EventStore(journal_path_for(str(directory)))
        guard = IntegrityGuard(str(directory), events=store)
        engine = QueryEngine(str(directory), guard=guard)
        server = QueryAPIServer(engine, guard=guard).start()
        corrupted = tuple(os.path.basename(segments[i].path)
                          for i in self.CORRUPT)
        yield server, engine, guard, store, directory, corrupted
        server.stop()
        engine.close()

    def test_served_answers_equal_the_intact_remainder(self, degraded):
        server, engine, guard, _, _, corrupted = degraded
        status, body = get_json(server.url + "/updates")
        assert status == 200
        want = expected_without_segments(self.CORRUPT)
        assert [(u["time"], u["vp"], u["prefix"])
                for u in body["updates"]] == keyed(want)
        # The full-range query touched every segment: both corrupted
        # ones are now condemned, none of their records were served.
        assert guard.quarantined == tuple(sorted(corrupted))

    def test_quarantine_moves_file_and_sidecar(self, degraded):
        server, _, _, _, directory, corrupted = degraded
        get_json(server.url + "/updates")
        qdir = quarantine_dir_for(str(directory))
        for name in corrupted:
            assert not os.path.exists(os.path.join(str(directory), name))
            assert os.path.exists(os.path.join(qdir, name))
            assert os.path.exists(os.path.join(qdir, name + ".idx"))

    def test_readyz_reports_degraded_while_serving(self, degraded):
        server, _, _, _, _, corrupted = degraded
        status, body = get_json(server.url + "/readyz")
        assert status == 200 and body["status"] == "ok"
        get_json(server.url + "/updates")     # trips the quarantine
        status, body = get_json(server.url + "/readyz")
        assert status == 200                  # degraded, NOT down
        assert body["status"] == "degraded"
        assert body["quarantined"] == sorted(corrupted)
        # ...and /updates still answers next to it.
        status, body = get_json(server.url + "/updates?limit=1")
        assert status == 200 and body["count"] == 1

    def test_status_and_metrics_surface_the_quarantine(self, degraded):
        server, _, guard, _, _, corrupted = degraded
        get_json(server.url + "/updates")
        status, body = get_json(server.url + "/status")
        assert status == 200
        assert body["guard"]["degraded"] is True
        assert body["guard"]["quarantined"] == sorted(corrupted)
        assert gauge_value(guard.registry,
                           "repro_guard_quarantined_segments") == 2.0

    def test_integrity_incidents_reach_the_event_journal(self, degraded):
        server, _, _, store, directory, corrupted = degraded
        get_json(server.url + "/updates")
        for name in corrupted:
            event = store.get(f"guard-{name}")
            assert event is not None
            assert event.type == "integrity"
            assert event.evidence[0].extra["segment"] == name
        # The incidents are durable: a fresh store reloads them.
        reloaded = EventStore(journal_path_for(str(directory)))
        reloaded.load()
        assert {f"guard-{name}" for name in corrupted} \
            <= {event.id for event in reloaded.events()}

    def test_repeat_queries_stay_stable(self, degraded):
        server, _, _, _, _, _ = degraded
        first = get_json(server.url + "/updates")
        second = get_json(server.url + "/updates")
        assert first == second


class TestScrubDetectsEverything:
    def test_total_rot_is_fully_detected_and_still_serves(self, tmp_path):
        """Corrupt EVERY segment: 100% detection, the API stays up."""
        directory = tmp_path / "rotten"
        directory.mkdir()
        build_archive(directory)
        segments = DirectoryCatalog(str(directory)).segments()
        spec = ",".join(
            f"{'bitflip' if i % 2 else 'truncate'}=archive@{i + 1}"
            for i in range(N_SEGMENTS))
        FaultInjector(FaultPlan.parse(spec)) \
            .apply_archive_corruption(segments)
        guard = IntegrityGuard(str(directory))
        report = scrub_directory(str(directory), guard=guard)
        assert {name for name, _ in report.quarantined} \
            == {os.path.basename(s.path) for s in segments}
        assert report.intact == 0
        with QueryEngine(str(directory), guard=guard) as engine, \
                QueryAPIServer(engine, guard=guard) as server:
            status, body = get_json(server.url + "/updates")
            assert status == 200 and body["count"] == 0
            status, body = get_json(server.url + "/readyz")
            assert status == 200 and body["status"] == "degraded"


class TestTornIndexHeals:
    def test_torn_sidecar_is_rebuilt_not_quarantined(self, tmp_path):
        directory = tmp_path / "torn"
        directory.mkdir()
        build_archive(directory)
        segments = DirectoryCatalog(str(directory)).segments()
        victim = segments[2].path
        corrupt_torn_index(victim)
        assert load_index(victim) is None     # the tear is real
        guard = IntegrityGuard(str(directory))
        with QueryEngine(str(directory), guard=guard) as engine:
            got = engine.query(QuerySpec())
        # The data is intact, so the answer is complete...
        assert keyed(got) == keyed(make_updates())
        # ...nothing was condemned...
        assert not guard.degraded
        # ...and the sidecar healed (rebuilt and persisted).
        assert load_index(victim) is not None

    def test_scrub_heals_torn_sidecars_too(self, tmp_path):
        directory = tmp_path / "torn"
        directory.mkdir()
        build_archive(directory)
        segments = DirectoryCatalog(str(directory)).segments()
        corrupt_torn_index(segments[0].path)
        report = scrub_directory(str(directory))
        assert report.clean
        assert report.indexes_rebuilt == 1
        assert load_index(segments[0].path) is not None


class TestSealHookCorruption:
    def test_live_sealed_segment_rots_and_is_caught(self, tmp_path):
        """The injector corrupts the N-th segment the moment it seals —
        after its digests landed in the manifest — and the read path
        catches it anyway."""
        from repro.bgp.archive import RollingArchiveWriter

        injector = FaultInjector(FaultPlan.parse("bitflip=archive@2"))
        writer = RollingArchiveWriter(str(tmp_path),
                                      interval_s=INTERVAL_S,
                                      compress=False, checkpoint=True,
                                      index=True)
        wrapped = injector.wrap_archive(writer)
        wrapped.write_stream(make_updates())
        wrapped.close()
        assert any("bitflip archive segment 2" in line
                   for line in injector.log)
        guard = IntegrityGuard(str(tmp_path))
        with QueryEngine(str(tmp_path), guard=guard) as engine:
            got = engine.query(QuerySpec(start=0.0, end=math.inf))
        condemned = os.path.basename(writer.segments[1].path)
        assert guard.quarantined == (condemned,)
        assert keyed(got) == keyed(expected_without_segments([1]))
