"""End-to-end tests for the JSON query API (repro.query.server).

The archives under test are produced the way the platform produces
them — by ``run_pipeline_epoch`` on the concurrent runtime — including
one interrupted by an injected writer crash and recovered with
``resume=True``.
"""

import gc
import http.client
import json
import math
import os
import re
import time
import urllib.error
import urllib.request

import pytest

from repro.bgp.archive import INDEX_SUFFIX, RollingArchiveWriter
from repro.bgp.message import BGPUpdate
from repro.bgp.rib import Route
from repro.core.orchestrator import Orchestrator, OrchestratorConfig
from repro.events import EventPipeline
from repro.pipeline import FaultPlan, InjectedCrash, PipelineConfig, \
    SupervisorConfig
from repro.query import QueryAPIServer, QueryEngine, QuerySpec, \
    index_path, update_to_json
from repro.workload import StreamConfig, SyntheticStreamGenerator, \
    split_by_vp

TIMEOUT = 30.0


def orch_config():
    return OrchestratorConfig(
        component1_interval_s=600.0,
        component2_interval_s=2400.0,
        mirror_window_s=600.0,
        events_per_cell=5,
    )


def get_json(url):
    """GET a URL; returns (status, decoded JSON body)."""
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.fixture(scope="module")
def stream():
    generator = SyntheticStreamGenerator(StreamConfig(
        n_vps=6, n_prefix_groups=6, duration_s=1200.0, seed=23,
    ))
    _, updates = generator.generate()
    return updates


@pytest.fixture(scope="module")
def epoch_archive(stream, tmp_path_factory):
    """An archive published by one pipeline epoch, with a RIB dump."""
    directory = tmp_path_factory.mktemp("epoch")
    archive = RollingArchiveWriter(str(directory), interval_s=120.0,
                                   compress=False, checkpoint=True,
                                   index=True)
    result = Orchestrator(orch_config()).run_pipeline_epoch(
        split_by_vp(stream),
        PipelineConfig(n_shards=2, overflow_policy="block"),
        archive=archive, timeout=TIMEOUT)
    assert result.metrics.retained > 0
    # Publish a RIB snapshot built from the archived updates.
    ribs = {}
    for update in archive.read_range(0.0, math.inf):
        if not update.is_withdrawal:
            ribs.setdefault(update.vp, []).append(Route(
                update.prefix, update.as_path, update.communities,
                update.time))
    rib_time = archive.segments[-1].end
    archive.write_rib_dump(rib_time, ribs)
    return archive, ribs, rib_time


@pytest.fixture(scope="module")
def server(epoch_archive):
    archive, _, _ = epoch_archive
    # /moas, /hijacks and /events answer from an event store only;
    # this one is the collector's function of the sealed segments.
    events = EventPipeline()
    events.sync(archive.segments)
    engine = QueryEngine(archive)
    with QueryAPIServer(engine, events=events.store) as api:
        yield api
    engine.close()


class TestEndpoints:
    def test_updates_full_scan(self, server, epoch_archive):
        archive, _, _ = epoch_archive
        status, body = get_json(server.url + "/updates")
        assert status == 200
        want = archive.read_range(0.0, math.inf)
        assert body["count"] == len(want)
        assert body["watermark"] == archive.segments[-1].end
        head = body["updates"][0]
        assert head["vp"] == want[0].vp
        assert head["prefix"] == str(want[0].prefix)
        assert head["as_path"] == list(want[0].as_path)

    def test_updates_filtered(self, server, epoch_archive):
        archive, _, _ = epoch_archive
        sample = archive.read_range(0.0, math.inf)[0]
        status, body = get_json(
            server.url + f"/updates?prefix={sample.prefix}"
            f"&vp={sample.vp}&limit=10")
        assert status == 200
        want = archive.read_range(0.0, math.inf, prefix=sample.prefix,
                                  vp=sample.vp)[:10]
        assert body["count"] == len(want)
        assert [u["time"] for u in body["updates"]] \
            == [u.time for u in want]

    def test_updates_bad_param(self, server):
        status, body = get_json(server.url + "/updates?bogus=1")
        assert status == 400 and "error" in body
        status, body = get_json(server.url + "/updates?prefix=nonsense")
        assert status == 400 and "error" in body

    def test_vps(self, server, epoch_archive):
        archive, _, _ = epoch_archive
        status, body = get_json(server.url + "/vps")
        assert status == 200
        counts = {row["vp"]: row["updates"] for row in body["vps"]}
        want = {}
        for update in archive.read_range(0.0, math.inf):
            want[update.vp] = want.get(update.vp, 0) + 1
        assert counts == want

    def test_rib_streams_the_snapshot(self, server, epoch_archive):
        _, ribs, rib_time = epoch_archive
        status, body = get_json(server.url + "/rib")
        assert status == 200
        assert body["time"] == rib_time
        assert body["count"] == sum(len(r) for r in ribs.values())
        vp = sorted(ribs)[0]
        status, body = get_json(server.url + f"/rib?vp={vp}")
        assert status == 200
        assert body["count"] == len(ribs[vp])
        assert all(route["vp"] == vp for route in body["routes"])

    def test_rib_before_first_dump_is_404(self, server):
        status, body = get_json(server.url + "/rib?time=0")
        assert status == 404 and "error" in body

    def test_moas(self, server):
        status, body = get_json(server.url + "/moas")
        assert status == 200
        assert body["count"] == len(body["conflicts"])
        for conflict in body["conflicts"]:
            assert len(conflict["origins"]) >= 2

    def test_hijacks(self, server):
        status, body = get_json(server.url + "/hijacks?threshold=0.5")
        assert status == 200
        assert body["threshold"] == 0.5
        assert body["count"] == len(body["cases"])
        assert all(case["score"] >= 0.5 for case in body["cases"])

    def test_status(self, server, epoch_archive):
        archive, _, _ = epoch_archive
        status, body = get_json(server.url + "/status")
        assert status == 200
        assert body["segments"] == len(archive.segments)
        assert body["watermark"] == archive.segments[-1].end
        assert body["queries"] >= 1

    def test_unknown_endpoint(self, server):
        status, body = get_json(server.url + "/nope")
        assert status == 404 and "error" in body

    def test_metrics_prometheus_text(self, server):
        # Serve some traffic first so the counters are nonzero.
        get_json(server.url + "/updates?limit=1")
        with urllib.request.urlopen(server.url + "/metrics",
                                    timeout=10) as reply:
            assert reply.status == 200
            assert reply.headers["Content-Type"].startswith(
                "text/plain")
            text = reply.read().decode()
        assert "# TYPE repro_query_requests_total counter" in text
        assert "repro_query_segments_total" in text
        hits = misses = 0
        for line in text.splitlines():
            if line.startswith('repro_query_requests_total{cache="hit"}'):
                hits = float(line.rsplit(" ", 1)[1])
            if line.startswith('repro_query_requests_total{cache="miss"}'):
                misses = float(line.rsplit(" ", 1)[1])
        snapshot = server.engine.stats_snapshot()
        assert hits + misses == snapshot.queries >= 1

    def test_metrics_json(self, server):
        status, body = get_json(server.url + "/metrics?format=json")
        assert status == 200
        names = {family["name"] for family in body["families"]}
        assert "repro_query_requests_total" in names

    def test_metrics_bad_params(self, server):
        status, body = get_json(server.url + "/metrics?format=xml")
        assert status == 400 and "error" in body
        status, body = get_json(server.url + "/metrics?bogus=1")
        assert status == 400 and "error" in body

    def test_metrics_covers_pipeline_when_registry_shared(
            self, epoch_archive):
        """A pipeline-backed engine exposes collection, supervision
        and query families from one scrape (the serve default)."""
        from repro.pipeline import PipelineMetrics

        archive, _, _ = epoch_archive
        metrics = PipelineMetrics()
        engine = QueryEngine(archive, stats=metrics.query)
        with QueryAPIServer(engine) as api:
            get_json(api.url + "/updates?limit=1")
            with urllib.request.urlopen(api.url + "/metrics",
                                        timeout=10) as reply:
                text = reply.read().decode()
        engine.close()
        for family in ("repro_pipeline_stage_updates_total",
                       "repro_session_updates_total",
                       "repro_supervision_events_total",
                       "repro_trace_span_seconds",
                       "repro_query_requests_total"):
            assert f"# TYPE {family}" in text, family


class TestRecoveredArchiveServing:
    """A crash-interrupted epoch, recovered and resumed, must serve
    the same answers as an uninterrupted one — and recovery must not
    leave orphaned index files behind."""

    def test_resume_then_serve(self, stream, tmp_path):
        streams = split_by_vp(stream)

        # Baseline epoch, no faults.
        baseline = RollingArchiveWriter(str(tmp_path / "baseline"),
                                        interval_s=120.0, compress=False,
                                        checkpoint=True, index=True)
        Orchestrator(orch_config()).run_pipeline_epoch(
            streams, PipelineConfig(n_shards=2, overflow_policy="block"),
            archive=baseline, timeout=TIMEOUT)

        # Crash run: the writer dies mid-epoch.
        crash_dir = tmp_path / "crash"
        archive = RollingArchiveWriter(str(crash_dir), interval_s=120.0,
                                       compress=False, checkpoint=True,
                                       index=True)
        with pytest.raises(InjectedCrash):
            Orchestrator(orch_config()).run_pipeline_epoch(
                streams,
                PipelineConfig(
                    n_shards=2, overflow_policy="block",
                    fault_plan=FaultPlan.parse("crash=writer@60"),
                    supervision=SupervisorConfig(
                        backoff_initial_s=0.005, backoff_max_s=0.02,
                        watchdog_interval_s=0.02, stall_timeout_s=0.1)),
                archive=archive, timeout=TIMEOUT)

        # Plant an orphan: an index whose segment is gone.  (A torn
        # segment sealed just before the crash leaves exactly this.)
        orphan = str(crash_dir / ("updates.999999999000-999999999120"
                                  ".mrt" + INDEX_SUFFIX))
        with open(orphan, "w") as handle:
            handle.write("{}")

        recovered = RollingArchiveWriter(str(crash_dir), interval_s=120.0,
                                         compress=False, checkpoint=True,
                                         index=True)
        report = recovered.recover()
        assert os.path.basename(orphan) in report.index_orphans
        assert not os.path.exists(orphan)
        # Every index left on disk belongs to a surviving segment.
        on_disk = {name for name in os.listdir(crash_dir)
                   if name.endswith(INDEX_SUFFIX)}
        valid = {os.path.basename(index_path(s.path))
                 for s in recovered.segments}
        assert on_disk <= valid

        result = Orchestrator(orch_config()).run_pipeline_epoch(
            streams,
            PipelineConfig(n_shards=2, overflow_policy="block"),
            archive=recovered, timeout=TIMEOUT, resume=True)
        assert result.metrics.retained > 0

        # The API over the recovered archive answers exactly like the
        # baseline's.
        with QueryEngine(recovered) as engine, \
                QueryAPIServer(engine) as api:
            status, body = get_json(api.url + "/updates")
            assert status == 200
            want = baseline.read_range(0.0, math.inf)
            assert body["count"] == len(want)
            assert [(u["time"], u["vp"], u["prefix"])
                    for u in body["updates"]] \
                == [(u.time, u.vp, str(u.prefix)) for u in want]
            for path in ("/vps", "/status"):
                status, _ = get_json(api.url + path)
                assert status == 200


def family_samples(registry, name):
    for family in registry.to_json()["families"]:
        if family["name"] == name:
            return family["samples"]
    return []


def sample_total(registry, name, **labels):
    total = 0.0
    for sample in family_samples(registry, name):
        if all(sample["labels"].get(k) == v for k, v in labels.items()):
            total += sample["value"]
    return total


class TestNonFiniteParameters:
    """Numbers arriving from the socket: NaN is never a value, and
    ±inf only where a range may be open-ended."""

    @pytest.mark.parametrize("query", [
        "/hijacks?threshold=nan", "/hijacks?threshold=inf",
        "/updates?start=nan", "/updates?end=nan", "/updates?start=-inf",
        "/moas?start=nan", "/events?end=nan", "/rib?time=nan",
    ])
    def test_rejected_with_400(self, server, query):
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(server.url + query, timeout=10)
        assert caught.value.code == 400
        # The body is JSON proper — no bare NaN / Infinity token.
        assert "error" in json.loads(
            caught.value.read(), parse_constant=pytest.fail)

    def test_open_ended_range_still_valid(self, server):
        status, body = get_json(server.url + "/updates?end=inf&limit=1")
        assert status == 200 and body["count"] == 1
        status, _ = get_json(server.url + "/events?end=inf")
        assert status == 200

    def test_nan_leaves_no_dead_cache_entries(self, server):
        before = len(server.engine.cache)
        for _ in range(3):
            status, _ = get_json(server.url + "/updates?start=nan")
            assert status == 400
        assert len(server.engine.cache) == before


class TestHealthProbes:
    def test_healthz_always_ok(self, server):
        status, body = get_json(server.url + "/healthz")
        assert status == 200 and body["status"] == "ok"

    def test_readyz_ok_without_guard(self, server, epoch_archive):
        archive, _, _ = epoch_archive
        status, body = get_json(server.url + "/readyz")
        assert status == 200
        assert body["ready"] is True and body["status"] == "ok"
        assert body["quarantined"] == []
        assert body["watermark"] == archive.segments[-1].end

    def test_draining_server_fails_readyz_but_not_healthz(
            self, epoch_archive):
        archive, _, _ = epoch_archive
        engine = QueryEngine(archive)
        with QueryAPIServer(engine) as api:
            api.drain()
            status, body = get_json(api.url + "/readyz")
            assert status == 503 and body["status"] == "draining"
            assert body["ready"] is False
            # Liveness keeps answering: the process is healthy, it is
            # just refusing new work.
            status, _ = get_json(api.url + "/healthz")
            assert status == 200
            # Data endpoints shed with the draining 503.
            status, body = get_json(api.url + "/updates")
            assert status == 503 and body["error"] == "overloaded"
            assert body["reason"] == "draining"
        engine.close()


class TestSanitizedInternalErrors:
    class BoomEngine:
        """Engine stand-in whose /updates path always explodes."""

        def __init__(self, registry):
            self.registry = registry

        def render(self, spec, deadline=None, trace=None):
            raise RuntimeError("secret internal detail")

        def watermark(self):
            return None

    def test_500_body_is_opaque(self, epoch_archive):
        archive, _, _ = epoch_archive
        engine = QueryEngine(archive)
        with QueryAPIServer(engine) as api:
            handler = api.httpd.RequestHandlerClass
            handler.engine = self.BoomEngine(engine.registry)
            try:
                status, body = get_json(api.url + "/updates")
            finally:
                handler.engine = engine
        engine.close()
        assert status == 500
        # The traceback and the exception text stay server-side; the
        # client gets only an opaque request id to quote at an operator.
        assert "secret internal detail" not in json.dumps(body)
        assert "RuntimeError" not in json.dumps(body)
        assert re.fullmatch(r"internal error \(request [0-9a-f]{8}\)",
                            body["error"])

    def test_repeated_500s_open_the_circuit_breaker(self, epoch_archive):
        archive, _, _ = epoch_archive
        engine = QueryEngine(archive)
        with QueryAPIServer(engine, breaker_threshold=2,
                            breaker_reset_s=60.0) as api:
            handler = api.httpd.RequestHandlerClass
            handler.engine = self.BoomEngine(engine.registry)
            try:
                for _ in range(2):
                    status, _ = get_json(api.url + "/updates")
                    assert status == 500
                status, body = get_json(api.url + "/updates")
                assert status == 503
                assert body["reason"] == "circuit_open"
                assert body["retry_after_s"] >= 1
                # Only /updates tripped; other endpoints still serve.
                handler.engine = engine
                status, _ = get_json(api.url + "/vps")
                assert status == 200
                status, body = get_json(api.url + "/readyz")
                assert status == 200 and body["status"] == "degraded"
                assert body["breakers_open"] == ["/updates"]
            finally:
                handler.engine = engine
        engine.close()


class TestClientAborts:
    def test_mid_response_hangup_is_counted_not_500ed(
            self, epoch_archive):
        archive, _, _ = epoch_archive
        engine = QueryEngine(archive)
        with QueryAPIServer(engine) as api:
            handler = api.httpd.RequestHandlerClass
            original = handler.engine

            class Hangup:
                registry = engine.registry

                def render(self, spec, deadline=None, trace=None):
                    # What a write to a closed socket raises mid-body.
                    raise BrokenPipeError("client went away")

                def watermark(self):
                    return None

            handler.engine = Hangup()
            try:
                before = sample_total(engine.registry,
                                      "repro_query_client_aborts_total")
                # The client may see an empty reply or a reset —
                # either way the server must not 500 or open a breaker.
                try:
                    urllib.request.urlopen(api.url + "/updates",
                                           timeout=10).read()
                except (urllib.error.HTTPError, urllib.error.URLError,
                        ConnectionError):
                    pass
                after = sample_total(engine.registry,
                                     "repro_query_client_aborts_total")
                assert after == before + 1
                assert api.breaker.open_endpoints() == []
            finally:
                handler.engine = original
            status, _ = get_json(api.url + "/updates?limit=1")
            assert status == 200
        engine.close()


class TestOverloadShedding:
    def test_full_slots_shed_fast_503_with_retry_after(
            self, epoch_archive):
        import threading

        archive, _, _ = epoch_archive
        engine = QueryEngine(archive)
        entered = threading.Event()
        release = threading.Event()
        real_render = engine.render

        def slow_render(spec, deadline=None, trace=None):
            entered.set()
            release.wait(10.0)
            return real_render(spec, deadline=deadline)

        engine.render = slow_render
        with QueryAPIServer(engine, max_concurrent=1,
                            queue_limit=0) as api:
            outcome = []

            def occupant():
                outcome.append(get_json(api.url + "/updates?limit=1"))

            thread = threading.Thread(target=occupant)
            thread.start()
            assert entered.wait(10.0)
            # The only slot is taken and the queue is disabled: this
            # request must be refused immediately, not queued.
            request = urllib.request.Request(api.url + "/updates")
            try:
                urllib.request.urlopen(request, timeout=10)
                pytest.fail("expected a 503")
            except urllib.error.HTTPError as exc:
                assert exc.code == 503
                assert int(exc.headers["Retry-After"]) >= 1
                body = json.loads(exc.read())
                assert body["error"] == "overloaded"
                assert body["reason"] == "queue_full"
            release.set()
            thread.join(10.0)
            assert outcome[0][0] == 200      # the occupant finished
            assert sample_total(engine.registry,
                                "repro_guard_shed_total",
                                reason="queue_full") >= 1
            # Probes bypassed admission the whole time.
            status, _ = get_json(api.url + "/healthz")
            assert status == 200
        engine.render = real_render
        engine.close()

    def test_expired_deadline_sheds_mid_request(self, epoch_archive):
        archive, _, _ = epoch_archive
        engine = QueryEngine(archive)
        real_render = engine.render

        def glacial_render(spec, deadline=None, trace=None):
            time.sleep(0.1)
            return real_render(spec, deadline=deadline, trace=trace)

        engine.render = glacial_render
        with QueryAPIServer(engine, request_timeout_s=0.02) as api:
            status, body = get_json(api.url + "/updates")
            assert status == 503
            assert body["reason"] == "deadline"
            assert sample_total(engine.registry,
                                "repro_guard_shed_total",
                                reason="deadline") >= 1
        engine.render = real_render
        engine.close()


class TestServerStop:
    def test_stop_closes_the_socket_and_joins(self, epoch_archive):
        archive, _, _ = epoch_archive
        engine = QueryEngine(archive)
        api = QueryAPIServer(engine).start()
        url = api.url
        status, _ = get_json(url + "/healthz")
        assert status == 200
        api.stop()
        assert api._thread is None
        # The listening socket is gone: nothing can connect any more.
        with pytest.raises((ConnectionError, urllib.error.URLError,
                            OSError)):
            urllib.request.urlopen(url + "/healthz", timeout=2)
        # A second stop is a harmless no-op, not a crash.
        api.stop()
        engine.close()

    def test_double_start_refused(self, epoch_archive):
        archive, _, _ = epoch_archive
        engine = QueryEngine(archive)
        api = QueryAPIServer(engine).start()
        with pytest.raises(RuntimeError):
            api.start()
        api.stop()
        engine.close()


class TestVPsRanking:
    """/vps with limit/sort and gill value scores (docs/QUERY.md)."""

    @pytest.fixture(scope="class")
    def gill_server(self, epoch_archive):
        from repro.gill import GillJournal

        archive, _, _ = epoch_archive
        vps = sorted({u.vp for u in archive.read_range(0.0, math.inf)})
        journal = GillJournal()
        journal.append({
            "watermark": 1200.0, "kept": 10, "dropped": 5,
            "scores": {
                vp: {"value": round(1.0 - i / 10.0, 3),
                     "redundancy": round(i / 10.0, 3),
                     "volume": 100 + i, "anchor": i == 0}
                for i, vp in enumerate(vps)
            },
        })
        engine = QueryEngine(archive)
        with QueryAPIServer(engine, gill=journal) as api:
            yield api, vps
        engine.close()

    def test_limit_and_sort_updates(self, server):
        status, full = get_json(server.url + "/vps")
        assert status == 200
        status, body = get_json(server.url
                                + "/vps?limit=3&sort=updates")
        assert status == 200
        assert body["count"] == full["count"]
        assert body["returned"] == 3
        counts = [row["updates"] for row in body["vps"]]
        assert counts == sorted(counts, reverse=True)
        want = sorted(full["vps"],
                      key=lambda r: (-r["updates"], r["vp"]))[:3]
        assert [r["vp"] for r in body["vps"]] \
            == [r["vp"] for r in want]

    def test_sort_value_without_gill_is_400(self, server):
        status, body = get_json(server.url + "/vps?sort=value")
        assert status == 400 and "gill" in body["error"]

    def test_bad_params_are_400(self, server):
        for query in ("?limit=0", "?limit=x", "?sort=bogus",
                      "?bogus=1"):
            status, body = get_json(server.url + "/vps" + query)
            assert status == 400 and "error" in body, query
        _, body = get_json(server.url + "/vps?sort=bogus")
        assert all(repr(accepted) in body["error"]
                   for accepted in ("vp", "updates", "value"))

    def test_gill_scores_merge_into_rows(self, gill_server):
        api, vps = gill_server
        status, body = get_json(api.url + "/vps")
        assert status == 200
        rows = {row["vp"]: row for row in body["vps"]}
        assert rows[vps[0]]["value"] == 1.0
        assert rows[vps[0]]["anchor"] is True
        assert rows[vps[1]]["value"] == 0.9
        assert "redundancy" in rows[vps[1]]

    def test_sort_value_ranks_by_score(self, gill_server):
        api, vps = gill_server
        status, body = get_json(api.url + "/vps?sort=value&limit=2")
        assert status == 200
        assert [row["vp"] for row in body["vps"]] == vps[:2]
        values = [row["value"] for row in body["vps"]]
        assert values == sorted(values, reverse=True)


class TestRequestTracing:
    """Per-request tracing: id headers on every response, the
    /debug/traces ring, and inbound trace propagation."""

    @staticmethod
    def _headers(url, trace_id=None):
        request = urllib.request.Request(url)
        if trace_id is not None:
            request.add_header("X-Trace-Id", trace_id)
        try:
            with urllib.request.urlopen(request, timeout=10) as reply:
                return reply.status, dict(reply.headers)
        except urllib.error.HTTPError as exc:
            return exc.code, dict(exc.headers)

    def test_every_response_carries_ids(self, server):
        # Success, client error, not-found, probe, scrape: all tagged.
        for path in ("/updates?limit=1", "/vps?bogus=1",
                     "/no-such-endpoint", "/healthz", "/readyz",
                     "/metrics", "/status", "/debug/traces"):
            status, headers = self._headers(server.url + path)
            assert headers.get("X-Request-Id"), (path, status)
            assert headers.get("X-Trace-Id"), (path, status)

    def test_request_ids_are_distinct(self, server):
        _, first = self._headers(server.url + "/healthz")
        _, second = self._headers(server.url + "/healthz")
        assert first["X-Request-Id"] != second["X-Request-Id"]

    def test_inbound_trace_id_is_honoured(self, server):
        inbound = "00000000deadbeef"
        _, headers = self._headers(server.url + "/updates?limit=1",
                                   trace_id=inbound)
        assert headers["X-Trace-Id"] == inbound

    def test_debug_traces_show_engine_stages(self, server):
        inbound = "0000feedcafe0001"
        self._headers(server.url + "/updates?origin=65000",
                      trace_id=inbound)
        # Ask for the whole ring: the shared server has answered many
        # requests and ours need not be among the 20 slowest.  The
        # handler thread records the span *after* flushing its
        # response, so poll briefly for it to land in the ring.
        mine = []
        for _ in range(100):
            status, body = get_json(server.url + "/debug/traces?n=500")
            assert status == 200
            mine = [t for t in body["traces"]
                    if t["trace_id"] == inbound]
            if mine:
                break
            time.sleep(0.01)
        assert mine, body["traces"]
        stages = [s["name"] for s in mine[0]["stages"]]
        for stage in ("admission", "index-prune", "segment-select",
                      "respond"):
            assert stage in stages, stages
        assert mine[0]["endpoint"] == "/updates"
        assert mine[0]["status"] == 200

    def test_debug_traces_bad_params(self, server):
        status, _ = get_json(server.url + "/debug/traces?n=0")
        assert status == 400
        status, _ = get_json(server.url + "/debug/traces?bogus=1")
        assert status == 400

    def test_shed_carries_request_id(self, epoch_archive):
        archive, _, _ = epoch_archive
        engine = QueryEngine(archive)
        with QueryAPIServer(engine) as api:
            api.drain()
            status, body = get_json(api.url + "/updates")
            assert status == 503
            assert body["reason"] == "draining"
            assert body["request_id"]
        engine.close()


class TestWatermarkClaim:
    def test_watermark_never_runs_ahead_of_the_answer(self, stream,
                                                      tmp_path):
        """A live writer seals a segment while /updates is being
        answered: the response must advertise the watermark its data
        was read under, not the one the archive reached afterwards."""
        half = len(stream) // 2
        writer = RollingArchiveWriter(str(tmp_path), interval_s=120.0,
                                      compress=False, index=True)
        writer.write_stream(stream[:half])
        engine = QueryEngine(writer)          # a WriterCatalog
        real_render = engine.render

        def render_then_seal(spec, deadline=None, trace=None):
            answer = real_render(spec, deadline=deadline, trace=trace)
            writer.write_stream(stream[half:])
            writer.close()
            return answer

        engine.render = render_then_seal
        before = engine.watermark()
        sealed_before = writer.read_range(0.0, before)
        with QueryAPIServer(engine) as api:
            status, body = get_json(api.url + "/updates")
        engine.render = real_render
        assert status == 200
        assert engine.watermark() > before    # the seal did happen
        assert body["count"] == len(sealed_before)
        assert body["watermark"] == before
        assert list(body) == ["watermark", "count", "updates"]
        engine.close()


class TestPayloadCacheObservability:
    def test_status_block_and_metric_families(self, stream, tmp_path):
        from repro.query import render_query_stats

        writer = RollingArchiveWriter(str(tmp_path), interval_s=120.0,
                                      compress=True, checkpoint=True,
                                      index=True)
        writer.write_stream(stream)
        writer.close()
        n = len(writer.segments)
        # /updates never reads the result cache: both requests reach
        # the segment reads.
        with QueryEngine(str(tmp_path)) as engine, \
                QueryAPIServer(engine) as api:
            for _ in range(2):
                status, body = get_json(api.url + "/updates")
                assert status == 200 and body["count"] == len(stream)
            status, body = get_json(api.url + "/status")
            assert status == 200
            block = body["payload_cache"]
            assert set(block) == {"hits", "misses", "bytes"}
            assert (block["hits"], block["misses"]) == (n, n)
            assert block["bytes"] > 0
            assert body["segments_decoded"] == 2 * n
            with urllib.request.urlopen(api.url + "/metrics",
                                        timeout=10) as reply:
                text = reply.read().decode()
            assert "# TYPE repro_query_payload_cache_total counter" in text
            assert "# TYPE repro_query_payload_cache_bytes gauge" in text
            assert f'repro_query_payload_cache_total{{result="hit"}} {n}' \
                in text
            assert f'repro_query_payload_cache_total{{result="miss"}} {n}' \
                in text
            assert sample_total(engine.registry,
                                "repro_query_payload_cache_bytes") \
                == block["bytes"]
            rendered = render_query_stats(engine.stats_snapshot())
            assert f"payloads: {n} reused / {n} decompressed, " \
                   f"{block['bytes']} bytes held" in rendered


class TestRenderedBodies:
    """/updates joins slices of elements rendered once per segment; the
    bytes on the wire must be what json.dumps of the answer gives."""

    def test_bodies_are_json_dumps_byte_for_byte(self, server,
                                                 epoch_archive):
        archive, _, _ = epoch_archive
        everything = archive.read_range(0.0, math.inf)
        sample = everything[len(everything) // 2]
        cases = [
            ("/updates", QuerySpec()),
            (f"/updates?prefix={sample.prefix}&limit=3",
             QuerySpec(prefix=sample.prefix, limit=3)),
            (f"/updates?vp={sample.vp}&start=300&end=420",
             QuerySpec(vp=sample.vp, start=300.0, end=420.0)),
            ("/updates?start=5000", QuerySpec(start=5000.0)),
        ]
        # One keep-alive connection: every request after the first
        # relies on the previous Content-Length being exact.
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=10)
        try:
            for path, spec in cases:
                want = [u for u in everything if spec.matches(u)]
                if spec.limit is not None:
                    want = want[:spec.limit]
                conn.request("GET", path)
                reply = conn.getresponse()
                body = reply.read()
                assert reply.status == 200, path
                assert int(reply.headers["Content-Length"]) == len(body)
                assert body == json.dumps({
                    "watermark": archive.segments[-1].end,
                    "count": len(want),
                    "updates": [update_to_json(u) for u in want],
                }).encode(), path
        finally:
            conn.close()

    def test_scans_retain_no_decoded_updates(self, stream, tmp_path):
        """Answers are not kept as update objects: after 200 distinct
        scans the process holds exactly the updates it held before."""
        writer = RollingArchiveWriter(str(tmp_path), interval_s=120.0,
                                      compress=True, checkpoint=True,
                                      index=True)
        writer.write_stream(stream)
        writer.close()

        def live_updates():
            gc.collect()
            return sum(isinstance(o, BGPUpdate) for o in gc.get_objects())

        with QueryEngine(str(tmp_path)) as engine, \
                QueryAPIServer(engine) as api:
            before = live_updates()
            conn = http.client.HTTPConnection(api.host, api.port,
                                              timeout=10)
            first, last = stream[0].time, stream[-1].time
            try:
                for i in range(200):
                    start = first + (last - first) * i / 200
                    conn.request("GET", f"/updates?start={start!r}"
                                        f"&end={start + 240.0!r}")
                    reply = conn.getresponse()
                    reply.read()
                    assert reply.status == 200
            finally:
                conn.close()
            assert live_updates() == before
