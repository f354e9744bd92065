"""The API server's execution model (repro.query.server, "Execution").

Admitted requests run one at a time under the server's execution lock;
waiting for it counts against the request's deadline; probes never wait
for it; a send under it never waits for a client; and every response
leaves in one ``sendmsg`` of the header block and the body.
"""

import http.client
import io
import json
import math
import re
import socket
import threading
import time
from email.utils import formatdate
from http.server import BaseHTTPRequestHandler

import pytest

from repro.bgp.archive import RollingArchiveWriter
from repro.bgp.message import BGPUpdate
from repro.bgp.prefix import Prefix
from repro.query import QueryAPIServer, QueryEngine, update_to_json

from .test_server import sample_total

PREFIXES = [Prefix.parse(f"10.{i}.0.0/24") for i in range(5)]
STREAM = [BGPUpdate(f"vp{i % 3}", i * 1.5, PREFIXES[i % 5],
                    (64500, 65000 + i % 4)) for i in range(400)]


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("execution"))
    writer = RollingArchiveWriter(directory, interval_s=120.0,
                                  compress=False, checkpoint=True,
                                  index=True)
    writer.write_stream(STREAM)
    writer.close()
    return directory


def get(api, path, timeout=10.0):
    """GET over a fresh connection: (status, decoded JSON body)."""
    conn = http.client.HTTPConnection(api.host, api.port, timeout=timeout)
    try:
        conn.request("GET", path)
        reply = conn.getresponse()
        return reply.status, json.loads(reply.read())
    finally:
        conn.close()


class HeldRender:
    """Wraps ``engine.render``: counts the calls and, while ``hold`` is
    clear, parks each one after entering."""

    def __init__(self, engine):
        self.real = engine.render
        self.entered = threading.Event()
        self.hold = threading.Event()
        self.hold.set()
        self.calls = 0
        engine.render = self

    def __call__(self, spec, deadline=None, trace=None):
        self.calls += 1
        self.entered.set()
        self.hold.wait(10.0)
        return self.real(spec, deadline=deadline, trace=trace)


class Exclusive:
    """Wraps some of an engine's methods with one count of the calls
    inside any of them at once.  Each call first sleeps ``pause_s``,
    which releases the GIL: calls that could overlap then do."""

    def __init__(self, engine, names, pause_s):
        self.pause_s = pause_s
        self.inside = 0
        self.most_inside = 0
        self.calls = 0
        self._lock = threading.Lock()
        for name in names:
            setattr(engine, name, self._wrap(getattr(engine, name)))

    def _wrap(self, real):
        def wrapped(*args, **kwargs):
            with self._lock:
                self.inside += 1
                self.calls += 1
                self.most_inside = max(self.most_inside, self.inside)
            try:
                time.sleep(self.pause_s)
                return real(*args, **kwargs)
            finally:
                with self._lock:
                    self.inside -= 1
        return wrapped


def slow_reads(engine, seconds):
    """Make every segment read of ``engine`` take ``seconds`` longer."""
    real = engine._read_view

    def read_view(*args, **kwargs):
        time.sleep(seconds)
        return real(*args, **kwargs)

    engine._read_view = read_view


class TestOneAtATime:
    def test_admitted_routes_never_overlap(self, archive):
        """Four keep-alive clients, all admitted at once: no two of
        the engine calls a request makes under the lock — the plan
        (over the request's catalog snapshot), segment reads — ever run
        together, and every answer is right."""
        with QueryEngine(archive) as engine, \
                QueryAPIServer(engine, max_concurrent=8) as api:
            calls = Exclusive(engine, ["_plan", "_read_view"],
                              pause_s=0.001)
            failures = []

            def client(index):
                conn = http.client.HTTPConnection(api.host, api.port,
                                                  timeout=10)
                try:
                    for i in range(15):
                        prefix = PREFIXES[(index + i) % 5]
                        conn.request("GET", f"/updates?prefix={prefix}")
                        reply = conn.getresponse()
                        body = json.loads(reply.read())
                        want = sum(u.prefix == prefix for u in STREAM)
                        if reply.status != 200 or body["count"] != want:
                            failures.append((reply.status, body))
                finally:
                    conn.close()

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
            assert not failures
            # Per request: the plan and one read per segment (5).
            assert calls.calls >= 60 * 6
            assert calls.most_inside == 1

    def test_a_long_request_lets_a_short_one_through(self, archive):
        """A request arriving behind a long scan does not wait for all
        of it: between two segment reads the scan, which has run for
        more than a GIL switch interval, passes the lock to it and
        queues again.  Both answers are right."""
        with QueryEngine(archive) as engine, QueryAPIServer(engine) as api:
            slow_reads(engine, 0.2)
            segments = len(engine.catalog.segments())
            assert segments >= 4
            finished = []

            def scan():
                finished.append(("scan", *get(api, "/updates")))

            long = threading.Thread(target=scan)
            started = time.monotonic()
            long.start()
            time.sleep(0.1)            # inside the scan's first read
            # Pruned by time: reads no segment.
            status, body = get(api, "/updates?start=1e9")
            waited = time.monotonic() - started
            finished.append(("short", status, body))
            long.join(10.0)
            assert [name for name, *_ in finished] == ["short", "scan"]
            assert (status, body["count"]) == (200, 0)
            assert finished[1][1] == 200
            assert finished[1][2]["count"] == len(STREAM)
            # Released at the end of the first read, not the last.
            assert waited < 0.2 * (segments - 1)

    @pytest.mark.parametrize("edge", ["full", "draining"])
    def test_a_passed_turn_is_no_new_admission(self, archive, edge):
        """A long scan that passes its turn while the gate is full, or
        after drain(), queues again and answers 200: passing a turn
        checks neither the bound nor the drain latch."""
        with QueryEngine(archive) as engine, \
                QueryAPIServer(engine, max_concurrent=2) as api:
            slow_reads(engine, 0.2)
            finished = []

            def request(path):
                finished.append((path, *get(api, path)))

            scan = threading.Thread(target=request, args=("/updates",))
            scan.start()
            time.sleep(0.05)           # inside the scan's first read
            short = threading.Thread(target=request,
                                     args=("/updates?start=1e9",))
            short.start()
            deadline = time.monotonic() + 5.0
            while not api.execution.waiting():
                assert time.monotonic() < deadline
                time.sleep(0.001)
            if edge == "full":
                status, body = get(api, "/status")
                assert (status, body["reason"]) == (503, "queue_full")
            else:
                api.drain()
            short.join(10.0)
            scan.join(10.0)
            assert [(path, status) for path, status, _ in finished] \
                == [("/updates?start=1e9", 200), ("/updates", 200)]
            assert finished[1][2]["count"] == len(STREAM)

    def test_deadline_expires_waiting_for_the_lock(self, archive):
        """A request that cannot get the lock within its deadline is
        the 503 ``deadline`` shed, counted as one."""
        with QueryEngine(archive) as engine, \
                QueryAPIServer(engine, request_timeout_s=0.3) as api:
            render = HeldRender(engine)
            render.hold.clear()
            occupant = threading.Thread(
                target=lambda: get(api, "/updates?limit=1"))
            occupant.start()
            assert render.entered.wait(10.0)
            before = sample_total(engine.registry, "repro_guard_shed_total",
                                  reason="deadline")
            started = time.monotonic()
            status, body = get(api, "/status")
            waited = time.monotonic() - started
            after = sample_total(engine.registry, "repro_guard_shed_total",
                                 reason="deadline")
            render.hold.set()
            occupant.join(10.0)
            assert (status, body["error"], body["reason"]) \
                == (503, "overloaded", "deadline")
            assert 0.25 <= waited < 5.0
            assert after == before + 1
            assert render.calls == 1

    def test_probes_answer_while_a_render_is_held(self, archive):
        with QueryEngine(archive) as engine, QueryAPIServer(engine) as api:
            render = HeldRender(engine)
            render.hold.clear()
            occupant = threading.Thread(
                target=lambda: get(api, "/updates?limit=1"))
            occupant.start()
            try:
                assert render.entered.wait(10.0)
                for path in ("/healthz", "/readyz", "/metrics?format=json"):
                    started = time.monotonic()
                    status, _ = get(api, path, timeout=2.0)
                    assert status == 200, path
                    assert time.monotonic() - started < 1.0, path
                # A 404 is answered before admission: no wait either.
                assert get(api, "/nowhere", timeout=2.0)[0] == 404
            finally:
                render.hold.set()
                occupant.join(10.0)

    def test_a_client_that_stops_reading_stalls_only_itself(
            self, archive):
        """A body far larger than the socket buffers, to a client that
        never reads it: the send under the lock takes what fits, then
        releases the lock, so another client's small request is
        answered at once."""
        with QueryEngine(archive) as engine, \
                QueryAPIServer(engine, max_concurrent=2) as api:
            real_render = engine.render
            huge = b'{"vp": "' + b"x" * (16 << 20) + b'"}'

            def render(spec, deadline=None, trace=None):
                if spec.vp == "stall":
                    return None, 1, [memoryview(huge)]
                return real_render(spec, deadline=deadline, trace=trace)

            engine.render = render
            # A small receive window, set before connecting, keeps the
            # bytes in flight far below the body's size.
            stalled = socket.socket()
            stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            stalled.connect((api.host, api.port))
            try:
                stalled.sendall(b"GET /updates?vp=stall HTTP/1.1\r\n"
                                b"Host: test\r\n\r\n")
                time.sleep(0.3)        # let it fill the socket buffers
                started = time.monotonic()
                status, body = get(api, "/updates?limit=1", timeout=5.0)
                assert status == 200 and body["count"] == 1
                assert time.monotonic() - started < 1.0
            finally:
                stalled.close()


class CountingSocket(socket.socket):
    """An accepted connection that records what each send call sent."""

    def __init__(self, sock):
        super().__init__(sock.family, sock.type, sock.proto, sock.detach())
        self.sends = []
        #: Buffers handed to each sendmsg call.
        self.buffers = []

    def sendmsg(self, buffers, *args):
        buffers = [bytes(b) for b in buffers]
        sent = super().sendmsg(buffers, *args)
        self.sends.append(b"".join(buffers)[:sent])
        self.buffers.append(len(buffers))
        return sent

    def sendall(self, data, *args):
        super().sendall(data, *args)
        self.sends.append(bytes(data))

    def send(self, data, *args):
        sent = super().send(data, *args)
        self.sends.append(bytes(data[:sent]))
        return sent


def exchange(api, path, method="GET", fields=""):
    """One request on a fresh connection: (the raw bytes received —
    status line, headers and body — and the server's send calls).
    The request asks the server to close the connection after the
    response, so reading to EOF waits for its last send.  ``fields``
    are more header lines, each ending in CRLF."""
    with socket.create_connection((api.host, api.port), timeout=10) as sock:
        sock.sendall(f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
                     f"{fields}Connection: close\r\n\r\n".encode())
        received = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            received += chunk
    return received, api.accepted[-1].sends


def header_names(response):
    head = response.split(b"\r\n\r\n", 1)[0].decode("latin-1")
    return [line.split(":", 1)[0] for line in head.split("\r\n")[1:]]


class TestOneWrite:
    #: The header order every JSON response had when headers and body
    #: left in separate writes.
    HEADERS = ["Server", "Date", "Content-Type", "Content-Length",
               "X-Trace-Id", "X-Request-Id"]

    @pytest.fixture
    def api(self, archive):
        with QueryEngine(archive) as engine, \
                QueryAPIServer(engine) as api:
            api.accepted = []
            accept = api.httpd.get_request

            def get_request():
                sock, address = accept()
                wrapped = CountingSocket(sock)
                api.accepted.append(wrapped)
                return wrapped, address

            api.httpd.get_request = get_request
            yield api

    @pytest.mark.parametrize("prefix", [PREFIXES[2], None])
    def test_updates_leave_in_one_call(self, api, prefix):
        """The header block and the joined body, in one call."""
        path = "/updates" if prefix is None else f"/updates?prefix={prefix}"
        response, sends = exchange(api, path)
        assert sends == [response]
        assert response.startswith(b"HTTP/1.1 200 OK\r\n")
        assert header_names(response) == self.HEADERS
        want = [u for u in STREAM if prefix in (None, u.prefix)]
        assert response.split(b"\r\n\r\n", 1)[1] == json.dumps({
            "watermark": math.ceil(STREAM[-1].time / 120.0) * 120.0,
            "count": len(want),
            "updates": [update_to_json(u) for u in want],
        }).encode()
        assert api.accepted[-1].buffers == [2]

    @pytest.mark.parametrize("path", ["/updates?limit=0",
                                      "/updates?start=1e9", "/status",
                                      "/updates?bogus=1"])
    def test_other_responses_leave_in_one_call(self, api, path):
        response, sends = exchange(api, path)
        assert sends == [response]
        assert header_names(response) == self.HEADERS
        body = json.loads(response.split(b"\r\n\r\n", 1)[1])
        if path == "/updates?bogus=1":
            assert response.startswith(b"HTTP/1.1 400 ")
            assert "error" in body
        else:
            assert response.startswith(b"HTTP/1.1 200 ")

    #: A clock reading well inside its second, and an inbound trace id.
    CLOCK = 1_700_000_000.25
    TRACE_ID = "00000000000000ab"

    @staticmethod
    def stdlib_head(status, fields):
        """The header block ``send_response`` + ``send_header`` +
        ``end_headers`` buffer for one response, as the server built
        it before it formatted heads itself."""
        handler = BaseHTTPRequestHandler.__new__(BaseHTTPRequestHandler)
        handler.protocol_version = "HTTP/1.1"
        handler.request_version = "HTTP/1.1"
        handler.requestline = ""
        handler.log_message = lambda *args: None
        handler.send_response(status)
        for name, value in fields:
            handler.send_header(name, value)
        return b"".join(handler._headers_buffer) + b"\r\n"

    @pytest.mark.parametrize("path, status", [
        ("/updates?limit=2", 200), ("/updates?bogus=1", 400),
        ("/nowhere", 404), ("/updates", 503)])
    def test_head_bytes_are_the_stdlib_ones(self, api, monkeypatch, path,
                                            status):
        """With the clock and the trace id fixed, the head the server
        formats is byte for byte the stdlib's, and its ``Date`` is
        ``formatdate`` of that second."""
        monkeypatch.setattr(time, "time", lambda: self.CLOCK)
        if status == 503:
            api.drain()
        response, sends = exchange(api, path,
                                   fields=f"X-Trace-Id: {self.TRACE_ID}\r\n")
        assert sends == [response]
        head, body = response.split(b"\r\n\r\n", 1)
        received = dict(line.split(": ", 1) for line
                        in head.decode("latin-1").split("\r\n")[1:])
        request_id = received["X-Request-Id"]
        assert re.fullmatch("[0-9a-f]{8}", request_id)
        fields = [("Content-Type", "application/json"),
                  ("Content-Length", str(len(body))),
                  ("X-Trace-Id", self.TRACE_ID),
                  ("X-Request-Id", request_id)]
        if status == 503:
            fields.append(("Retry-After", "1"))
        assert head + b"\r\n\r\n" == self.stdlib_head(status, fields)
        assert received["Date"] == formatdate(usegmt=True) \
            == formatdate(int(self.CLOCK), usegmt=True)

    def test_unsupported_method_is_the_stdlib_501(self, api, monkeypatch):
        monkeypatch.setattr(time, "time", lambda: self.CLOCK)
        response, _ = exchange(api, "/updates", method="BREW")
        handler = BaseHTTPRequestHandler.__new__(BaseHTTPRequestHandler)
        handler.protocol_version = "HTTP/1.1"
        handler.request_version = "HTTP/1.1"
        handler.requestline = "BREW /updates HTTP/1.1"
        handler.command = "BREW"
        handler.log_message = lambda *args: None
        handler.wfile = io.BytesIO()
        handler.send_error(501, "Unsupported method ('BREW')")
        assert response == handler.wfile.getvalue()
        assert response.startswith(b"HTTP/1.1 501 ")

    def test_shed_leaves_in_one_call(self, api):
        api.drain()
        response, sends = exchange(api, "/updates")
        assert sends == [response]
        assert response.startswith(b"HTTP/1.1 503 ")
        assert header_names(response) == self.HEADERS + ["Retry-After"]
        assert json.loads(response.split(b"\r\n\r\n", 1)[1])["reason"] \
            == "draining"
