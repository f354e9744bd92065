"""Tests for the journaled event store."""

import json
import os

import pytest

from repro.events import (
    Detection,
    Event,
    EventState,
    EventStore,
    journal_path_for,
)


def detection(t=100.0, prefix="10.0.0.0/24", etype="moas",
              closes=False):
    return Detection(
        detector=etype, type=etype, key=(prefix,), time=t,
        prefix=prefix, vps=("vp1",), asns=(5, 7), closes=closes,
        summary="conflict")


def event(eid="ev-000001", etype="moas", state=EventState.NEW,
          first=100.0, last=100.0, prefix="10.0.0.0/24"):
    ev = Event(id=eid, type=etype, state=state, first_seen=first,
               last_seen=last, prefix=prefix)
    ev.absorb(detection(t=first, prefix=prefix, etype=etype))
    return ev


class TestJournalRoundTrip:
    def test_persist_and_reload(self, tmp_path):
        path = journal_path_for(str(tmp_path))
        store = EventStore(path)
        store.apply(event("ev-000001"), watermark=300.0)
        store.apply(event("ev-000002", etype="flap_storm",
                          prefix="10.1.0.0/24"), watermark=600.0)
        reloaded = EventStore(path)
        assert len(reloaded) == 2
        assert reloaded.watermark == 600.0
        assert reloaded.snapshot_comparable() \
            == store.snapshot_comparable()

    def test_upsert_is_last_writer_wins(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        store = EventStore(path)
        store.apply(event("ev-000001"), watermark=300.0)
        updated = event("ev-000001", state=EventState.RESOLVED)
        updated.resolved_at = 900.0
        store.apply(updated, watermark=900.0)
        reloaded = EventStore(path)
        assert len(reloaded) == 1
        assert reloaded.get("ev-000001").state == EventState.RESOLVED

    def test_memory_only_store(self):
        store = EventStore()
        store.apply(event(), watermark=300.0)
        assert len(store) == 1 and store.path is None


class TestTornTail:
    def test_partial_last_line_dropped(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        store = EventStore(path)
        store.apply(event("ev-000001"), watermark=300.0)
        store.apply(event("ev-000002"), watermark=600.0)
        with open(path, "a") as handle:
            handle.write('{"op": "upsert", "waterm')   # torn mid-append
        reloaded = EventStore(path)
        assert len(reloaded) == 2

    def test_append_after_torn_tail_survives_reload(self, tmp_path):
        """Loading leaves the partial line in the file (it may be an
        append in progress), and the next append cuts it off first, so
        the record is not glued onto it and lost with everything after
        it at the following load."""
        path = str(tmp_path / "events.jsonl")
        store = EventStore(path)
        store.apply(event("ev-000001"), watermark=300.0)
        store.apply(event("ev-000002"), watermark=600.0)
        with open(path, "rb") as handle:
            clean = handle.read()
        with open(path, "a") as handle:
            handle.write('{"op": "upsert", "waterm')   # torn mid-append
        reopened = EventStore(path)
        with open(path, "rb") as handle:
            assert handle.read() == clean + b'{"op": "upsert", "waterm'
        reopened.apply(event("ev-000003"), watermark=900.0)
        with open(path, "rb") as handle:
            assert handle.read().startswith(clean + b'{"crc"')
        assert len(EventStore(path)) == 3
        EventStore(path).apply(event("ev-000004"), watermark=1200.0)
        assert len(EventStore(path)) == 4

    def test_corrupt_line_stops_replay(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        store = EventStore(path)
        store.apply(event("ev-000001"), watermark=300.0)
        with open(path, "a") as handle:
            handle.write("not json\n")
        # A record after the corruption is not trusted.
        line = json.dumps({"op": "upsert", "watermark": 900.0,
                           "event": event("ev-000003").to_json(full=True)})
        with open(path, "a") as handle:
            handle.write(line + "\n")
        reloaded = EventStore(path)
        assert len(reloaded) == 1


class TestTruncation:
    def test_truncate_beyond_watermark(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        store = EventStore(path)
        store.apply(event("ev-000001"), watermark=300.0)
        store.apply(event("ev-000002"), watermark=600.0)
        dropped = store.load(truncate_beyond=300.0)
        assert dropped == 1
        assert len(store) == 1 and store.watermark == 300.0
        # The journal file itself was rewritten without the record.
        assert len(EventStore(path)) == 1

    def test_truncate_none_keeps_everything(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        store = EventStore(path)
        store.apply(event("ev-000001"), watermark=300.0)
        assert store.load() == 0
        assert len(store) == 1


class TestRefresh:
    def test_tails_appended_records(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        writer = EventStore(path)
        writer.apply(event("ev-000001"), watermark=300.0)
        reader = EventStore(path)
        assert len(reader) == 1
        writer.apply(event("ev-000002"), watermark=600.0)
        assert reader.refresh() == ["ev-000002"]
        assert len(reader) == 2 and reader.watermark == 600.0
        assert reader.refresh() == []

    def test_tails_past_a_repaired_torn_tail(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        writer = EventStore(path)
        writer.apply(event("ev-000001"), watermark=300.0)
        reader = EventStore(path)
        with open(path, "a") as handle:
            handle.write('{"op": "upsert", "waterm')   # writer crashed
        assert reader.refresh() == []       # a tailer never rewrites
        restarted = EventStore(path)
        restarted.apply(event("ev-000002"), watermark=600.0)
        assert reader.refresh() == ["ev-000002"]
        assert len(reader) == 2

    def test_reload_after_shrink(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        writer = EventStore(path)
        writer.apply(event("ev-000001"), watermark=300.0)
        writer.apply(event("ev-000002"), watermark=600.0)
        reader = EventStore(path)
        # Recovery truncation rewrites the journal shorter.
        writer.load(truncate_beyond=300.0)
        changed = reader.refresh()
        assert "ev-000002" in changed
        assert len(reader) == 1

    def test_reset_truncates(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        store = EventStore(path)
        store.apply(event(), watermark=300.0)
        store.reset()
        assert len(store) == 0
        assert store.watermark is None
        assert os.path.getsize(path) == 0


class TestQuery:
    def make_store(self):
        store = EventStore()
        store.apply(event("ev-000001", "moas", EventState.RESOLVED,
                          first=100.0, last=400.0), 600.0)
        store.apply(event("ev-000002", "flap_storm", EventState.ONGOING,
                          first=500.0, last=900.0,
                          prefix="10.1.0.0/24"), 900.0)
        return store

    def test_filter_by_type_and_state(self):
        store = self.make_store()
        assert [e.id for e in store.query(type="moas")] == ["ev-000001"]
        assert [e.id for e in store.query(state="ongoing")] \
            == ["ev-000002"]
        assert store.query(type="moas", state="ongoing") == []

    def test_filter_by_prefix_and_origin(self):
        store = self.make_store()
        assert [e.id for e in store.query(prefix="10.1.0.0/24")] \
            == ["ev-000002"]
        assert len(store.query(origin=5)) == 2
        assert store.query(origin=999) == []

    def test_time_window_intersects_span(self):
        store = self.make_store()
        assert [e.id for e in store.query(start=450.0)] == ["ev-000002"]
        assert [e.id for e in store.query(end=450.0)] == ["ev-000001"]
        assert len(store.query(start=0.0, end=1000.0)) == 2

    def test_limit_and_order(self):
        store = self.make_store()
        hits = store.query(limit=1)
        assert [e.id for e in hits] == ["ev-000001"]   # first-seen order

    def test_unknown_type_and_state_raise(self):
        store = self.make_store()
        with pytest.raises(ValueError):
            store.query(type="bogus")
        with pytest.raises(ValueError):
            store.query(state="bogus")

    def test_open_and_state_counts(self):
        store = self.make_store()
        opens = store.open_counts()
        assert opens["flap_storm"] == 1
        assert opens["moas"] == 0
        states = store.state_counts()
        assert states[EventState.RESOLVED] == 1
        assert states[EventState.ONGOING] == 1
