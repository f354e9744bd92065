"""The event journal's delta records, checked against the encodings
they replace.

Each ``events.jsonl`` line carries an incident's changed fields and only
the evidence absorbed since its previous line, each item without the
fields replay derives.  These tests drive the real correlator with
generated detection sequences and hold the store to three identities:
a journal truncated at any watermark replays to the live store as it
stood then, a tailing reader equals a fresh load, and every incident
renders exactly as the full-upsert store (one whole
``to_json(full=True)`` per line) rendered it.  Journals in the two
earlier encodings — full upserts, and deltas with whole evidence items
— load to the same store and serve the same bodies.
"""

import json
import os
import shutil
import sys
import tempfile
import threading
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.archive import RollingArchiveWriter
from repro.events import (
    Detection,
    EventCorrelator,
    EventPipeline,
    EventStore,
    journal_path_for,
)
from repro.events.model import MAX_EVIDENCE
from repro.guard.integrity import seal_record
from repro.query import QueryAPIServer, QueryEngine
from repro.simulation import monitoring_showcase

SEGMENT_S = 300.0

#: (detector, type, lifecycle): two lifecycle detectors that merge on
#: a shared prefix, and one that never closes.
DETECTORS = (("moas", "moas", True),
             ("flap_storm", "flap_storm", True),
             ("origin_hijack", "origin_hijack", False))
PREFIXES = ("10.0.0.0/24", "10.0.1.0/24", None)

#: One detection inside its segment: (detector, key, prefix, closes,
#: offset seconds, score, vp).
_specs = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
                   st.booleans(), st.integers(0, 299),
                   st.sampled_from((0.25, 0.5, 1.0 / 3.0, 1.0)),
                   st.integers(0, 3))


def make_detection(index, spec):
    detector, key, prefix, closes, offset, score, vp = spec
    name, etype, lifecycle = DETECTORS[detector]
    return Detection(
        detector=name, type=etype, key=(key, PREFIXES[prefix]),
        time=index * SEGMENT_S + offset, prefix=PREFIXES[prefix],
        vps=(f"vp{vp}",), asns=(100 + key, 200 + vp), score=score,
        closes=closes and lifecycle, lifecycle=lifecycle,
        summary=f"{name} {key}", extra={"offset": [offset, vp]})


@st.composite
def segment_detections(draw):
    """Per segment: a few mixed detections plus, sometimes, a burst of
    up to 40 on one key, so one incident can take in more than the
    evidence cap within a single segment.  Empty segments let
    incidents resolve; later detections on their keys re-open them."""
    segments = []
    for index in range(draw(st.integers(1, 8))):
        specs = draw(st.lists(_specs, max_size=10))
        burst = draw(st.integers(0, 40))
        if burst:
            detector, key, prefix = draw(st.tuples(
                st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)))
            specs += [(detector, key, prefix, False, offset % 300, 0.5, 0)
                      for offset in range(burst)]
        segments.append([make_detection(index, spec) for spec in specs])
    return segments


def text(value):
    return json.dumps(value, sort_keys=True)


def parent_line(event, watermark):
    """One line as the full-upsert journal wrote it."""
    return sealed_line(event.to_json(full=True), watermark)


def sealed_line(doc, watermark):
    return json.dumps(seal_record({
        "op": "upsert", "watermark": watermark, "event": doc}),
        sort_keys=True) + "\n"


def whole_item_delta(previous, event):
    """One line's body as the delta journal wrote it before evidence
    items left derived fields out: every field whose value changed,
    with ``evidence_dropped`` counted by the cap, and whole items."""
    fields = event.journal_fields()
    if previous is None:
        doc, added = fields, event.evidence
    else:
        new = event.evidence_count - previous.evidence_count
        start = max(len(event.evidence) - new, 1 if previous.evidence else 0)
        added = event.evidence[start:]
        before = previous.journal_fields()
        before["evidence_dropped"] += max(
            0, len(previous.evidence) + len(added) - MAX_EVIDENCE)
        doc = {name: value for name, value in fields.items()
               if type(before[name]) is not type(value)
               or before[name] != value}
    doc["id"] = event.id
    if added:
        doc["evidence_added"] = [d.to_json() for d in added]
    return doc


def indexes_rebuilt(store):
    """The store's indexes, built from scratch from its events."""
    rebuilt = {name: {} for name in ("type", "prefix", "asn", "state")}
    for event in store.events():
        keys = [("prefix", event.prefix)] + [
            ("prefix", d.prefix) for d in event.evidence]
        keys += [("asn", asn) for asn in event.asns]
        keys += [("type", t) for t in (event.types or [event.type])]
        keys.append(("state", event.state))
        for name, key in keys:
            if key is not None:
                rebuilt[name].setdefault(key, set()).add(event.id)
    return rebuilt


def drive(segments, store, on_segment=None):
    """Correlate ``segments`` into ``store``; returns the full-upsert
    lines the same run would have journaled."""
    correlator = EventCorrelator()
    lines = []
    for index, detections in enumerate(segments):
        watermark = (index + 1) * SEGMENT_S
        changed, _, _ = correlator.process(detections, watermark)
        for event in changed:
            store.apply(event, watermark)
            lines.append(parent_line(event, watermark))
        if on_segment is not None:
            on_segment(watermark, changed)
    return lines


class TestReplayIsExact:
    @settings(max_examples=40, deadline=None)
    @given(segment_detections())
    def test_every_watermark_tail_and_full_upsert(self, segments):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "events.jsonl")
            open(path, "w").close()
            live, reader = EventStore(path), EventStore(path)
            full = {}           # id -> the full-upsert store's rendering
            states = []

            def check(watermark, changed):
                for event in changed:
                    full[event.id] = text(event.to_json(full=True))
                snapshot = live.snapshot_comparable()
                assert [text(doc) for doc in snapshot] \
                    == [full[doc["id"]] for doc in snapshot]
                reader.refresh()
                assert text(reader.snapshot_comparable()) \
                    == text(EventStore(path).snapshot_comparable()) \
                    == text(snapshot)
                states.append((watermark, text(snapshot)))

            lines = drive(segments, live, check)
            copy = os.path.join(directory, "copy.jsonl")
            for watermark, snapshot in states:
                shutil.copy(path, copy)
                truncated = EventStore(copy)
                truncated.load(truncate_beyond=watermark)
                assert text(truncated.snapshot_comparable()) == snapshot
            parent = os.path.join(directory, "parent.jsonl")
            with open(parent, "w", encoding="utf-8") as handle:
                handle.writelines(lines)
            assert text(EventStore(parent).snapshot_comparable()) \
                == states[-1][1]

    def test_more_than_the_cap_in_one_segment(self, tmp_path):
        """An incident that takes in 40 detections in its second
        segment journals only the survivors, yet its drop count and
        rendering match the full-upsert store's."""
        opening = [make_detection(0, (0, 0, 0, False, 1, 0.5, 0))]
        burst = [make_detection(1, (0, 0, 0, False, offset, 0.5, 1))
                 for offset in range(40)]
        path = str(tmp_path / "events.jsonl")
        store = EventStore(path)
        lines = drive([opening, burst], store)
        with open(path, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        assert len(records[1]["event"]["evidence_added"]) == MAX_EVIDENCE - 1
        assert records[1]["event"]["evidence_dropped"] == 41 - MAX_EVIDENCE
        (event,) = EventStore(path).events()
        assert event.evidence_count == 41
        assert text(event.to_json(full=True)) \
            == text(json.loads(lines[-1])["event"])

    def test_unchanged_fields_are_not_journaled(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        segments = [[make_detection(0, (0, 0, 0, False, 1, 0.5, 0))],
                    [make_detection(1, (0, 0, 0, False, 1, 0.5, 0))]]
        drive(segments, EventStore(path))
        with open(path, encoding="utf-8") as handle:
            first, second = (json.loads(line)["event"] for line in handle)
        assert "type" in first and "evidence" not in first
        # ``last_seen`` moved, but folding the added item reproduces it.
        assert sorted(second) == ["evidence_added", "id", "segments",
                                  "state"]


class TestIndexes:
    @settings(max_examples=30, deadline=None)
    @given(segment_detections())
    def test_indexes_equal_a_rebuild(self, segments):
        store = EventStore()
        drive(segments, store)
        assert store._indexes == indexes_rebuilt(store)

    def test_store_keeps_its_own_copy(self):
        correlator = EventCorrelator()
        store = EventStore()
        first = make_detection(0, (0, 0, 0, False, 1, 0.5, 0))
        (event,), _, _ = correlator.process([first], SEGMENT_S)
        store.apply(event, SEGMENT_S)
        held = store.get(event.id)
        before = text(held.to_json(full=True))
        assert held is not event
        event.absorb(make_detection(0, (1, 1, 1, False, 2, 1.0, 3)))
        event.state = "ongoing"
        assert text(store.get(event.id).to_json(full=True)) == before
        assert store.query(state="ongoing") == []
        store.apply(event, 2 * SEGMENT_S)
        assert store.get(event.id).evidence_count == 2
        assert store.get(event.id).state == "ongoing"
        # A copy a reader already holds never changes under it.
        assert text(held.to_json(full=True)) == before


class TestConcurrentReaders:
    def test_a_rendered_incident_never_changes_under_its_reader(self):
        """Readers render incidents while the writer thread correlates
        (``absorb`` appends to and deletes from the correlator's
        events) and applies: every incident a reader got must render
        the same twice."""
        store = EventStore()
        segments = [[make_detection(index, (index % 3, key, key % 2, False,
                                            offset, 0.5, offset % 4))
                     for key in range(3) for offset in range(0, 300, 20)]
                    for index in range(120)]
        done = threading.Event()
        failures = []

        def write():
            try:
                drive(segments, store)
            finally:
                done.set()

        def read():
            while not done.is_set():
                for event in store.query():
                    first = text(event.to_json(full=True))
                    if text(event.to_json(full=True)) != first:
                        failures.append(event.id)
                        return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write)] + [
                threading.Thread(target=read) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert done.is_set() and failures == []
        assert len(store) > 0


@pytest.fixture(scope="module")
def showcase_journals(tmp_path_factory):
    """The seeded showcase collected live, its journal also written in
    the full-upsert and the whole-item delta encodings beside it."""
    directory = str(tmp_path_factory.mktemp("showcase"))
    scenario, _ = monitoring_showcase()
    archive = RollingArchiveWriter(directory, interval_s=SEGMENT_S,
                                   compress=False)
    store = EventStore(journal_path_for(directory))
    lines = {"full-upserts.jsonl": [], "whole-items.jsonl": []}

    class ParentEncodings(EventStore):
        def apply(self, event, watermark):
            lines["full-upserts.jsonl"].append(parent_line(event, watermark))
            lines["whole-items.jsonl"].append(sealed_line(
                whole_item_delta(store.get(event.id), event), watermark))
            store.apply(event, watermark)

    EventPipeline(store=ParentEncodings()).attach(archive)
    for update in scenario.stream:
        archive.write(update)
    archive.close()
    parents = str(tmp_path_factory.mktemp("parents"))
    for name, written in lines.items():
        with open(os.path.join(parents, name), "w",
                  encoding="utf-8") as handle:
            handle.writelines(written)
    return directory, journal_path_for(directory), [
        os.path.join(parents, name) for name in lines]


class TestParentJournal:
    def test_loads_to_the_same_store(self, showcase_journals):
        _, delta, parents = showcase_journals
        for parent in parents:
            assert os.path.getsize(delta) < os.path.getsize(parent)
            assert EventStore(parent).snapshot_comparable() \
                == EventStore(delta).snapshot_comparable()

    def test_serves_the_same_bodies(self, showcase_journals):
        directory, delta, parents = showcase_journals
        stores = [EventStore(delta)] + [EventStore(p) for p in parents]
        paths = ["/events", "/events?type=moas", "/events?state=resolved",
                 "/moas", "/hijacks", "/hijacks?threshold=0.3"]
        paths += [f"/events/{event.id}" for event in stores[0].events()]
        bodies = []
        engine = QueryEngine(directory)
        for store in stores:
            with QueryAPIServer(engine, events=store) as server:
                bodies.append([
                    urllib.request.urlopen(server.url + path).read()
                    for path in paths])
        engine.close()
        assert len(paths) > 8
        assert bodies[0] == bodies[1] == bodies[2]
