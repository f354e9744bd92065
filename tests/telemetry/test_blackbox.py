"""The flight recorder and the trace CLI against a live server.

One ring per process holds finished spans and notes; an incident dumps
it beside the archive as ``flightrecorder-<proc>.json``.
"""

import json
import multiprocessing
import os
import time
import urllib.error
import urllib.request

import pytest

from repro.bgp.archive import RollingArchiveWriter
from repro.bgp.message import BGPUpdate
from repro.bgp.prefix import Prefix
from repro.cli import main
from repro.events import EventStore, journal_path_for
from repro.guard.manager import IntegrityGuard
from repro.pipeline.faults import corrupt_bitflip
from repro.query import QueryAPIServer, QueryEngine
from repro.telemetry import blackbox, recorder

DUMP = "flightrecorder-serve.json"


def get(url, trace_id=None):
    request = urllib.request.Request(url)
    if trace_id is not None:
        request.add_header("X-Trace-Id", trace_id)
    try:
        with urllib.request.urlopen(request, timeout=10) as reply:
            return reply.status
    except urllib.error.HTTPError as exc:
        return exc.code


def wait_for_spans(tracer, n):
    """A handler records its span just after flushing the response."""
    deadline = time.monotonic() + 5.0
    while len(tracer.recent()) < n and time.monotonic() < deadline:
        time.sleep(0.01)
    return tracer.recent()


@pytest.fixture
def fresh_box(monkeypatch):
    """A process recorder nobody has named yet, so the server takes
    the ``serve`` role (and the test's dump file name) for itself."""
    monkeypatch.setattr(blackbox, "_recorder", None)
    return recorder()


@pytest.fixture
def archive_dir(tmp_path):
    writer = RollingArchiveWriter(str(tmp_path), interval_s=100.0,
                                  compress=False, checkpoint=True,
                                  index=True)
    writer.write_stream([
        BGPUpdate(f"vp{t % 3}", float(t), Prefix.parse("10.0.0.0/24"),
                  (65000, 65100 + t % 2))
        for t in range(0, 400, 10)])
    writer.close()
    return tmp_path, writer.segments


def read_dump(directory):
    with open(os.path.join(str(directory), DUMP), encoding="utf-8") as f:
        return json.load(f)


class TestIncidentDumps:
    def test_quarantine_dumps_spans_before_it(self, fresh_box,
                                              archive_dir):
        directory, segments = archive_dir
        victim = os.path.basename(segments[1].path)
        corrupt_bitflip(segments[1].path)
        store = EventStore(journal_path_for(str(directory)))
        guard = IntegrityGuard(str(directory), events=store)
        with QueryEngine(str(directory), guard=guard) as engine, \
                QueryAPIServer(engine, guard=guard) as server:
            assert get(server.url + "/healthz") == 200
            assert get(server.url + "/readyz") == 200
            assert len(wait_for_spans(server.tracer, 2)) == 2
            assert get(server.url + "/updates") == 200
        assert guard.quarantined == (victim,)
        dump = read_dump(directory)
        assert (dump["process"], dump["reason"]) \
            == ("serve", f"quarantine {victim}")
        entries = dump["entries"]
        spans = [entry for entry in entries if entry["kind"] == "span"]
        assert [(s["endpoint"], s["status"]) for s in spans] \
            == [("/healthz", 200), ("/readyz", 200)]
        assert all(len(s["trace_id"]) == 16 and s["request_id"]
                   for s in spans)
        assert entries[-1]["kind"] == "quarantine"
        assert entries[-1]["segment"] == victim
        incident = store.get(f"guard-{victim}")
        assert incident.type == "integrity"
        assert incident.evidence[0].extra["flightrecorder"] == DUMP

    def test_breaker_opening_dumps(self, fresh_box, archive_dir):
        directory, _ = archive_dir
        with QueryEngine(str(directory)) as engine, \
                QueryAPIServer(engine, breaker_threshold=2,
                               breaker_reset_s=60.0) as server:
            def boom(spec, deadline=None, trace=None):
                raise RuntimeError("injected")

            engine.render = boom
            assert [get(server.url + "/updates") for _ in range(3)] \
                == [500, 500, 503]
            dumps = engine.registry.to_json()
        dump = read_dump(directory)
        assert dump["reason"] == "breaker-open /updates"
        [note] = [entry for entry in dump["entries"]
                  if entry["kind"] == "breaker-open"]
        assert note["endpoint"] == "/updates"
        assert "metrics" in dump and "metric_deltas" in dump
        [family] = [f for f in dumps["families"]
                    if f["name"] == "repro_flightrecorder_dumps_total"]
        assert [(s["labels"], s["value"]) for s in family["samples"]] \
            == [({"reason": "breaker-open"}, 1.0)]


class TestTraceCLI:
    def test_trace_renders_live_debug_traces(self, archive_dir, capsys):
        directory, _ = archive_dir
        mine = "0000feedcafe0002"
        with QueryEngine(str(directory)) as engine, \
                QueryAPIServer(engine) as server:
            assert get(server.url + "/updates?vp=vp1", mine) == 200
            assert wait_for_spans(server.tracer, 1)
            assert main(["trace", f"127.0.0.1:{server.port}",
                         "-n", "5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("== traced requests (1 in ring, "
                              "slowest first) ==\n")
        [line] = [row for row in out.splitlines() if mine in row]
        assert "200" in line and "/updates" in line
        for stage in ("admission", "index-prune", "segment-select",
                      "respond"):
            assert stage in line

    def test_trace_unreachable_exits_2(self, capsys):
        assert main(["trace", "127.0.0.1:1"]) == 2
        assert "cannot fetch" in capsys.readouterr().err


def _report_recorder(conn):
    box = recorder()
    conn.send((box.pid, box.proc, [e.get("kind") for e in box.ring]))
    conn.close()


class TestFork:
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_gets_a_fresh_recorder(self, fresh_box):
        fresh_box.note("parent-only")
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)
        child = context.Process(target=_report_recorder, args=(send,))
        child.start()
        assert receive.poll(10), "the child never reported"
        pid, proc, kinds = receive.recv()
        child.join(timeout=10)
        assert child.exitcode == 0
        assert pid == child.pid != os.getpid()
        assert proc == f"pid{child.pid}" and kinds == []
        assert [e["kind"] for e in recorder().ring] == ["parent-only"]
