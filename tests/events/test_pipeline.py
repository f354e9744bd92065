"""Tests for the correlator and the seal-hook event pipeline."""

import pytest

from repro.bgp.archive import ArchiveSegment, RollingArchiveWriter
from repro.bgp.message import BGPUpdate
from repro.bgp.prefix import Prefix
from repro.events import (
    Detection,
    Event,
    EventCorrelator,
    EventPipeline,
    EventState,
    EventStore,
)
from repro.telemetry import MetricsRegistry

P1 = Prefix.parse("10.0.0.0/24")
P1_SUB = Prefix.parse("10.0.0.0/26")
P2 = Prefix.parse("10.1.0.0/24")


def det(detector="moas", etype="moas", key=("10.0.0.0/24",),
        t=100.0, prefix="10.0.0.0/24", closes=False, lifecycle=True,
        vps=("vp1",), asns=(5, 7)):
    return Detection(detector=detector, type=etype, key=tuple(key),
                     time=t, prefix=prefix, vps=vps, asns=asns,
                     closes=closes, lifecycle=lifecycle,
                     summary="test detection")


class TestCorrelatorLifecycle:
    def test_open_continue_close_resolve(self):
        correlator = EventCorrelator(resolve_after_s=600.0)
        changed, opened, resolved = correlator.process(
            [det(t=100.0)], watermark=300.0)
        assert len(opened) == 1 and not resolved
        ev = opened[0]
        assert ev.state == EventState.NEW
        assert ev.open_keys

        # Same key next segment: same event, now ONGOING.
        changed, opened, resolved = correlator.process(
            [det(t=400.0)], watermark=600.0)
        assert not opened and not resolved
        assert changed == [ev]
        assert ev.state == EventState.ONGOING
        assert ev.segments == 2

        # The close clears the key but the quiet period gates RESOLVED.
        changed, opened, resolved = correlator.process(
            [det(t=700.0, closes=True)], watermark=900.0)
        assert not resolved
        assert not ev.open_keys

        _, _, resolved = correlator.process([], watermark=1500.0)
        assert resolved == [ev]
        assert ev.state == EventState.RESOLVED
        assert ev.resolved_at == ev.last_seen

    def test_not_resolved_while_keys_open(self):
        correlator = EventCorrelator(resolve_after_s=600.0)
        _, opened, _ = correlator.process([det(t=100.0)], 300.0)
        ev = opened[0]
        # Quiet for ages, but never closed: stays open.
        _, _, resolved = correlator.process([], watermark=99000.0)
        assert resolved == []
        assert ev.is_open

    def test_stale_close_dropped(self):
        correlator = EventCorrelator(resolve_after_s=600.0)
        changed, opened, resolved = correlator.process(
            [det(closes=True)], watermark=300.0)
        assert changed == [] and opened == [] and resolved == []

    def test_non_lifecycle_resolves_quietly(self):
        correlator = EventCorrelator(resolve_after_s=600.0)
        _, opened, _ = correlator.process(
            [det(detector="origin_hijack", etype="origin_hijack",
                 lifecycle=False, t=100.0)], 300.0)
        ev = opened[0]
        assert not ev.open_keys
        _, _, resolved = correlator.process([], watermark=900.0)
        assert resolved == [ev]

    def test_reopen_merges_into_same_event(self):
        correlator = EventCorrelator(resolve_after_s=600.0)
        _, opened, _ = correlator.process(
            [det(t=100.0)], watermark=300.0)
        ev = opened[0]
        correlator.process([det(t=350.0, closes=True)], 600.0)
        # Flaps back before the quiet period elapses: same incident.
        _, reopened, _ = correlator.process([det(t=650.0)], 900.0)
        assert reopened == []
        assert ev.open_keys and ev.segments == 3

    def test_cross_detector_prefix_merge(self):
        correlator = EventCorrelator(resolve_after_s=600.0)
        _, opened, _ = correlator.process(
            [det(t=100.0)], watermark=300.0)
        ev = opened[0]
        _, opened2, _ = correlator.process(
            [det(detector="origin_hijack", etype="origin_hijack",
                 key=([5, 7], "10.0.0.0/24"), t=400.0,
                 lifecycle=False)],
            watermark=600.0)
        assert opened2 == []                   # merged, not new
        assert set(ev.types) == {"moas", "origin_hijack"}
        assert set(ev.detectors) == {"moas", "origin_hijack"}

    def test_distinct_prefixes_stay_distinct(self):
        correlator = EventCorrelator(resolve_after_s=600.0)
        _, opened, _ = correlator.process(
            [det(t=100.0),
             det(key=("10.1.0.0/24",), prefix="10.1.0.0/24", t=110.0)],
            watermark=300.0)
        assert len(opened) == 2

    def test_event_ids_are_sequential(self):
        correlator = EventCorrelator(resolve_after_s=600.0)
        _, opened, _ = correlator.process(
            [det(t=100.0),
             det(key=("10.1.0.0/24",), prefix="10.1.0.0/24", t=110.0)],
            watermark=300.0)
        assert [e.id for e in opened] == ["ev-000001", "ev-000002"]


def seg(start, end, updates):
    return ArchiveSegment(start=start, end=end, path="<memory>",
                          count=len(updates))


class TestEventPipeline:
    def moas_updates(self):
        first = [BGPUpdate("vp1", 10.0, P1, (1, 5)),
                 BGPUpdate("vp2", 11.0, P1, (2, 5))]
        second = [BGPUpdate("vp2", 310.0, P1, (2, 7))]
        third = [BGPUpdate("vp2", 610.0, P1, (2, 5))]
        return first, second, third

    def test_process_segments_materializes_events(self):
        store = EventStore()
        pipeline = EventPipeline(store=store)
        first, second, third = self.moas_updates()
        pipeline.process_segment(seg(0.0, 300.0, first), first)
        changed = pipeline.process_segment(seg(300.0, 600.0, second),
                                           second)
        assert len(changed) == 1
        assert store.open_counts()["moas"] == 1
        pipeline.process_segment(seg(600.0, 900.0, third), third)
        # Quiet segments pass the resolve window.
        for start in (900.0, 1200.0, 1500.0):
            pipeline.process_segment(seg(start, start + 300.0, []), [])
        events = store.events()
        assert len(events) == 1
        assert events[0].state == EventState.RESOLVED

    def test_metrics_families_updated(self):
        registry = MetricsRegistry()
        pipeline = EventPipeline(store=EventStore(), registry=registry)
        first, second, _ = self.moas_updates()
        pipeline.process_segment(seg(0.0, 300.0, first), first)
        pipeline.process_segment(seg(300.0, 600.0, second), second)
        doc = registry.to_json()
        families = {f["name"]: f for f in doc["families"]}
        assert "repro_events_detector_seconds" in families
        segments = families["repro_events_segments_total"]["samples"]
        assert segments[0]["value"] == 2
        opened = {
            s["labels"]["type"]: s["value"]
            for s in families["repro_events_opened_total"]["samples"]}
        assert opened.get("moas") == 1
        open_gauge = {
            s["labels"]["type"]: s["value"]
            for s in families["repro_events_open"]["samples"]}
        assert open_gauge.get("moas") == 1
        # One latency observation per sealed segment.
        assert "repro_events_segment_seconds_count 2" \
            in registry.prometheus()

    def test_attach_live_seal_hook(self, tmp_path):
        store = EventStore()
        pipeline = EventPipeline(store=store)
        archive = RollingArchiveWriter(str(tmp_path), interval_s=300.0,
                                       compress=False)
        pipeline.attach(archive)
        first, second, _ = self.moas_updates()
        archive.write_stream(first + second)
        archive.close()
        assert store.open_counts()["moas"] == 1
        assert store.watermark == 600.0

    def test_attach_replays_existing_segments(self, tmp_path):
        archive = RollingArchiveWriter(str(tmp_path), interval_s=300.0,
                                       compress=False, checkpoint=True)
        first, second, _ = self.moas_updates()
        archive.write_stream(first + second)
        archive.close()

        resumed = RollingArchiveWriter(str(tmp_path), interval_s=300.0,
                                       compress=False, checkpoint=True)
        resumed.recover()
        store = EventStore()
        EventPipeline(store=store).attach(resumed)
        assert len(store.events()) == 1
        assert store.open_counts()["moas"] == 1

    def test_attach_empty_archive_with_populated_store_raises(
            self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        store = EventStore(path)
        store.apply(
            Event(id="ev-000001", type="moas", state=EventState.NEW,
                  first_seen=1.0, last_seen=1.0),
            watermark=300.0)
        archive = RollingArchiveWriter(str(tmp_path / "arch"),
                                       interval_s=300.0)
        pipeline = EventPipeline(store=store)
        with pytest.raises(ValueError):
            pipeline.attach(archive)

    def test_sync_regenerates_journal_from_scratch(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        archive = RollingArchiveWriter(str(tmp_path / "arch"),
                                       interval_s=300.0,
                                       compress=False, checkpoint=True)
        first, second, _ = self.moas_updates()
        archive.write_stream(first + second)
        archive.close()

        live = EventStore(path)
        EventPipeline(store=live).attach(archive)
        with open(path) as handle:
            live_journal = handle.read()

        # A second pipeline over the same archive regenerates the
        # exact same journal bytes (determinism).
        EventPipeline(store=EventStore(path)).attach(archive)
        with open(path) as handle:
            assert handle.read() == live_journal
