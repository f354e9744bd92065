"""The ISSUE acceptance scenario: seeded incidents through the live
seal-hook pipeline, surfaced at ``/events`` with correct lifecycle."""

import json
import urllib.error
import urllib.request

import pytest

from repro.bgp.archive import RollingArchiveWriter
from repro.events import (
    EventPipeline,
    EventState,
    EventStore,
    journal_path_for,
)
from repro.query import QueryAPIServer, QueryEngine
from repro.simulation import monitoring_showcase


@pytest.fixture(scope="module")
def showcase(tmp_path_factory):
    """The seeded scenario streamed through a live archive: the event
    pipeline only ever sees seal hooks, never a manual scan."""
    directory = str(tmp_path_factory.mktemp("showcase"))
    scenario, truth = monitoring_showcase()
    archive = RollingArchiveWriter(directory, interval_s=300.0,
                                   checkpoint=True, index=True)
    store = EventStore(journal_path_for(directory))
    pipeline = EventPipeline(store=store)
    pipeline.attach(archive)

    observed_states = {}        # event id -> set of states seen live
    for update in scenario.stream:
        if archive.write(update) is not None:
            for event in store.events():
                observed_states.setdefault(event.id,
                                           set()).add(event.state)
    archive.close()
    for event in store.events():
        observed_states.setdefault(event.id, set()).add(event.state)
    return directory, store, truth, observed_states


def get_json(url):
    try:
        with urllib.request.urlopen(url, timeout=30) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.fixture(scope="module")
def served(showcase):
    directory, store, truth, _ = showcase
    engine = QueryEngine(directory)
    with QueryAPIServer(engine, events=store) as server:
        yield server.url, truth
    engine.close()


class TestLivePipeline:
    def test_all_required_types_detected(self, showcase):
        _, store, truth, _ = showcase
        by_type = {}
        for event in store.events():
            for etype in event.types:
                by_type.setdefault(etype, []).append(event)
        # The three types the acceptance criterion names, plus the
        # two extra seeded incidents.
        for required in ("origin_hijack", "moas", "mass_withdrawal",
                         "subprefix_hijack", "flap_storm"):
            assert required in by_type, f"no {required} event"

    def test_detections_point_at_ground_truth(self, showcase):
        _, store, truth, _ = showcase
        moas = store.query(type="moas")[0]
        assert moas.prefix == str(truth.moas_prefix)
        assert truth.moas_attacker in moas.asns
        sub = store.query(type="subprefix_hijack")[0]
        assert sub.prefix == str(truth.subprefix)
        assert truth.subprefix_attacker in sub.asns
        forged = store.query(type="origin_hijack")[0]
        assert forged.prefix == str(truth.forged_prefix)
        assert truth.forged_attacker in forged.asns

    def test_lifecycle_new_to_resolved(self, showcase):
        _, store, _, observed_states = showcase
        # Every incident ends RESOLVED...
        for event in store.events():
            assert event.state == EventState.RESOLVED
            assert event.resolved_at is not None
        # ...after having been observed open mid-run, and at least one
        # multi-segment incident passed through ONGOING.
        assert any(EventState.NEW in states
                   for states in observed_states.values())
        assert any(EventState.ONGOING in states
                   for states in observed_states.values())

    def test_store_loads_back_from_journal(self, showcase):
        directory, store, _, _ = showcase
        reloaded = EventStore(journal_path_for(directory))
        assert reloaded.snapshot_comparable() \
            == store.snapshot_comparable()


class TestEventsAPI:
    def test_events_endpoint_lists_incidents(self, served):
        url, _ = served
        status, body = get_json(url + "/events")
        assert status == 200
        assert body["count"] == len(body["events"]) >= 3
        types = {t for e in body["events"] for t in e["types"]}
        assert {"origin_hijack", "moas", "mass_withdrawal"} <= types

    def test_filter_pushdown(self, served):
        url, truth = served
        status, body = get_json(
            url + f"/events?type=moas&prefix={truth.moas_prefix}")
        assert status == 200 and body["count"] == 1
        status, body = get_json(url + "/events?state=new")
        assert status == 200 and body["count"] == 0
        status, body = get_json(
            url + f"/events?origin={truth.forged_attacker}")
        assert status == 200 and body["count"] >= 1
        status, body = get_json(url + "/events?start=0&end=100")
        assert status == 200 and body["count"] == 0
        status, body = get_json(url + "/events?limit=2")
        assert status == 200 and body["count"] == 2

    def test_single_event_with_evidence(self, served):
        url, _ = served
        _, listing = get_json(url + "/events")
        eid = listing["events"][0]["id"]
        status, body = get_json(url + f"/events/{eid}")
        assert status == 200
        assert body["event"]["id"] == eid
        assert body["event"]["evidence"]

    def test_unknown_event_404(self, served):
        url, _ = served
        status, body = get_json(url + "/events/ev-999999")
        assert status == 404 and "error" in body

    def test_bad_filter_400(self, served):
        url, _ = served
        status, _ = get_json(url + "/events?type=bogus")
        assert status == 400
        status, _ = get_json(url + "/events?frobnicate=1")
        assert status == 400

    def test_moas_served_from_event_store(self, served):
        url, truth = served
        status, body = get_json(url + "/moas")
        assert status == 200 and body["source"] == "events"
        assert any(c["prefix"] == str(truth.moas_prefix)
                   for c in body["conflicts"])
        # There is no second source to select.
        status, body = get_json(url + "/moas?source=scan")
        assert status == 400 and "unknown parameters" in body["error"]

    def test_hijacks_served_from_event_store(self, served):
        url, truth = served
        status, body = get_json(url + "/hijacks")
        assert status == 200 and body["source"] == "events"
        assert any(c["prefix"] == str(truth.forged_prefix)
                   for c in body["cases"])

    def test_status_reports_event_block(self, served):
        url, _ = served
        status, body = get_json(url + "/status")
        assert status == 200
        assert body["events"]["total"] >= 3
        assert body["events"]["states"]["resolved"] >= 3

    def test_metrics_exports_open_gauge(self, served):
        url, _ = served
        status, body = get_json(url + "/metrics?format=json")
        assert status == 200
        families = {f["name"] for f in body["families"]}
        assert "repro_events_open" in families


class TestNoStoreFallback:
    def test_events_404_without_store(self, showcase):
        directory, _, _, _ = showcase
        engine = QueryEngine(directory)
        with QueryAPIServer(engine) as server:
            # One source, one lifecycle: nothing is re-derived from
            # the archive per request.
            for path in ("/events", "/moas", "/hijacks"):
                status, body = get_json(server.url + path)
                assert status == 404
                assert "--events" in body["error"]
            status, _ = get_json(server.url + "/moas?source=scan")
            assert status == 400
        engine.close()
