"""The data-serving front end: a JSON HTTP API over the query engine.

bgproutes.io's pitch (§8) is that collected data is *easy to get at* —
per-prefix, per-VP lookups rather than "download the MRT files and
grep".  This module serves that API from the Python standard library
(``ThreadingHTTPServer``: one OS thread per connection, see "Execution"
below):

* ``GET /updates``   — archived updates; params ``prefix``, ``vp``,
  ``origin``, ``start``, ``end``, ``limit``; the body is joined from
  the elements the engine rendered once per sealed segment
  (:meth:`~repro.query.engine.QueryEngine.render`);
* ``GET /rib``       — a published RIB snapshot, streamed; params
  ``time`` (newest dump at or before it) and ``vp``;
* ``GET /vps``       — per-VP stored-update counts from the indexes;
* ``GET /moas``      — MOAS conflicts in a time range, from the
  event store;
* ``GET /hijacks``   — DFOH-style suspicious new links in a time
  range at or above ``threshold``, from the event store;
* ``GET /events``    — correlated incidents from the event store
  (docs/EVENTS.md; like ``/moas`` and ``/hijacks``, 404 when the
  server has no store — collect with ``pipeline --events`` or serve
  with ``--events``); filters ``type``, ``prefix``, ``origin``,
  ``start``, ``end``, ``state``, ``limit`` push down into the store's
  indexes; ``GET /events/<id>`` returns one incident with evidence;
* ``GET /status``    — watermark, segment count and engine counters;
* ``GET /metrics``   — the engine's metrics registry, Prometheus text
  by default or JSON with ``?format=json`` (docs/TELEMETRY.md);
* ``GET /debug/traces`` — the slowest recently-traced requests with
  per-stage latencies (``repro-bgp trace`` renders it).

Every request is traced (:meth:`~repro.telemetry.Tracer.
start_request`): an inbound ``X-Trace-Id`` is honoured, spans cover
admission, the engine's index prune / segment select / guard
verification, and the response write, and **all** responses —
including sheds and errors — carry ``X-Trace-Id`` and ``X-Request-Id``
headers matching the server log.

Responses are JSON; errors map to ``{"error": ...}`` with 400
(malformed parameters), 404 (unknown path / no data), 500 (internal —
the body carries an opaque request id, never the exception) or 503
(overloaded / draining / circuit open, with ``Retry-After``).

The server is overload-safe (:mod:`repro.guard.serving`): one gate
bounds the requests in flight and sheds the rest at once, every
admitted request carries a deadline that propagates into the engine's
decode loops, repeated endpoint failures open a circuit breaker, and
SIGTERM drains gracefully.  ``/healthz`` (liveness) and
``/readyz`` (readiness; degraded under quarantine, 503 while
draining) bypass admission so probes work under overload.

Execution: each connection has its handler thread, but admitted
requests run one at a time under the server's execution lock, the same
gate — parameters, render (whose catalog snapshot gives the
watermark), body and send.  CPython runs one
thread at a time anyway, so concurrent handlers gain no parallelism
here; they only hand the GIL to each other at each of a request's
blocking system calls, which on a 2-core VM cost two keep-alive
clients 1.2–1.8x the server CPU per point request of one.  Requests
that are shed, probes, and 400s raised before admission never wait for
the lock; the wait counts against the request's deadline; ``/rib``
streams outside it.  The lock goes to waiters in arrival order, and
between two segment reads a request that has held it for a GIL switch
interval lets the waiting ones go first
(:class:`~repro.guard.serving.ExecutionLock`), so a short request
arriving behind a long scan of cold segments is not held up by all of
it.  The request head is parsed in one pass (:meth:`_QueryAPIHandler.
parse_request`, with ``http.server``'s decisions) and a response's
header block is formatted directly (``_head``); a response leaves in
one ``sendmsg`` of the header block and the body.  Under the lock the
send does not block: when the client's socket buffer is full, the lock
is released first and the rest of the response then waits for the
client, so a client that stops reading stalls only itself.
"""

from __future__ import annotations

import http.client
import json
import logging
import math
import re
import socket
import sys
import threading
import time
import traceback
from email.utils import formatdate
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Iterator, List, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from .. import __version__
from ..events.store import EventStore
from ..guard.manager import IntegrityGuard
from ..guard.scrub import Scrubber
from ..guard.serving import CircuitBreaker, Deadline, DeadlineExceeded, \
    ExecutionLock, Overloaded
from ..telemetry import Tracer, set_build_info
from ..telemetry.blackbox import recorder, set_process_role
from .engine import QueryEngine
from .planner import QuerySpec, check_params, float_param

_log = logging.getLogger("repro.query.server")


def _parse_params(query: str) -> Dict[str, str]:
    return dict(parse_qsl(query, keep_blank_values=True))


#: The lines of a decoded head as the ``email`` parser splits them:
#: at ``\r\n``, a lone ``\r`` or a lone ``\n``, ends kept.
_HEAD_LINE = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+")
#: A line the ``email`` parser takes as part of a header block: a
#: field (a name of printable ASCII other than ``:``, then ``:``), a
#: continuation, or an mbox ``From `` line.
_FIELD_LINE = re.compile(r"From |[\041-\071\073-\176]*:|[\t ]")


class HeadFields(dict):
    """A request's header fields, keyed by lower-cased name, each the
    value of its first occurrence; ``get`` folds the name's case, as
    ``HTTPMessage.get`` does."""

    def get(self, name: str, default=None):
        return dict.get(self, name.lower(), default)


def head_fields(lines: List[bytes]) -> HeadFields:
    """The header fields of the lines ``http.client._read_headers``
    read, as ``http.client.parse_headers`` would give them.

    The ``email`` parser's rules, kept in one pass: the block ends at
    the first line that is neither a field, a continuation nor a
    ``From `` line (a blank line, or a name holding a space); a
    continuation extends the field before it (line ends kept
    inside, trailing ones stripped) and is dropped when no field is
    open; ``From `` lines and lines with an empty name are skipped
    and close the open field.
    """
    found: List[Tuple[str, List[str]]] = []
    value: Optional[List[str]] = None       # the open field's lines
    for line in _HEAD_LINE.findall(b"".join(lines).decode("iso-8859-1")):
        if not _FIELD_LINE.match(line):
            break
        if line[0] in " \t":
            if value is not None:
                value.append(line)
            continue
        colon = line.find(":")
        if colon <= 0 or line.startswith("From "):
            value = None
            continue
        value = [line[colon + 1:].lstrip(" \t")]
        found.append((line[:colon].lower(), value))
    fields = HeadFields()
    for name, parts in found:
        fields.setdefault(name, "".join(parts).rstrip("\r\n"))
    return fields


#: The second ``_date`` was formatted for, and its ``Date`` value.
_date: Tuple[int, str] = (-1, "")


def _http_date() -> str:
    """``Date`` as ``send_response`` formats it, formatted once a
    second."""
    global _date
    second = int(time.time())
    if second != _date[0]:
        _date = (second, formatdate(second, usegmt=True))
    return _date[1]


class _QueryAPIHandler(BaseHTTPRequestHandler):
    """Routes one request; the engine is attached by the server."""

    engine: QueryEngine          # set on the subclass by QueryAPIServer
    events: Optional[EventStore] = None
    #: Live per-VP value/redundancy source: any object with a
    #: ``vp_scores() -> {vp: {...}}`` method — a running
    #: :class:`repro.gill.GillStage` or a loaded
    #: :class:`repro.gill.GillJournal`.
    gill: Optional[object] = None
    quiet: bool = True
    #: The server's gate, bound by QueryAPIServer: admission, and the
    #: lock admitted requests run under one at a time (module
    #: docstring, "Execution").
    execution: ExecutionLock
    breaker: CircuitBreaker
    guard: Optional[IntegrityGuard] = None
    #: Always-on request tracing, bound by QueryAPIServer; backs the
    #: X-Trace-Id / X-Request-Id response headers and /debug/traces.
    tracer: Tracer
    request_timeout_s: Optional[float] = None
    aborts = None                # repro_query_client_aborts_total child
    protocol_version = "HTTP/1.1"
    # A response usually leaves in one sendmsg, but a partial send
    # finishes in more, and /rib streams chunks; without TCP_NODELAY,
    # Nagle + the client's delayed ACK turn such a keep-alive response
    # into a ~40ms stall.
    disable_nagle_algorithm = True
    #: Whether this request holds ``execution`` right now.
    _executing = False
    #: The endpoint whose circuit breaker the response settles, while
    #: an admitted route runs (see _settle).
    _settles: Optional[str] = None

    # -- plumbing ------------------------------------------------------------

    def log_message(self, fmt: str, *args) -> None:
        if not self.quiet:
            super().log_message(fmt, *args)

    # -- the request head ---------------------------------------------------

    def parse_request(self) -> bool:
        """Parse ``raw_requestline`` and the header lines after it.

        Every decision is ``BaseHTTPRequestHandler.parse_request``'s
        for a server speaking HTTP/1.1 (``protocol_version``):
        400 for a bad version or bad syntax, 505 from HTTP/2.0 on, 431
        for a header line over ``http.client._MAXLINE`` or more than
        ``_MAXHEADERS`` lines, HTTP/0.9, ``Connection``, ``Expect:
        100-continue`` and ``//`` path folding.  The header lines are
        read by ``http.client._read_headers`` and become a
        :class:`HeadFields` in one pass (:func:`head_fields`), where
        the stdlib parses them with ``email.feedparser`` into an
        ``HTTPMessage``.
        """
        self.command = None
        self.request_version = version = self.default_request_version
        self.close_connection = True
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        self.requestline = requestline
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            try:
                if not version.startswith("HTTP/"):
                    raise ValueError
                numbers = version[5:].split(".")
                if len(numbers) != 2 or not all(
                        n.isdigit() and len(n) <= 10 for n in numbers):
                    raise ValueError
                number = int(numbers[0]), int(numbers[1])
            except ValueError:
                self.send_error(HTTPStatus.BAD_REQUEST,
                                "Bad request version (%r)" % version)
                return False
            if number >= (1, 1):
                self.close_connection = False
            if number >= (2, 0):
                self.send_error(HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                                "Invalid HTTP version (%s)" % version[5:])
                return False
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(HTTPStatus.BAD_REQUEST,
                            "Bad request syntax (%r)" % requestline)
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(HTTPStatus.BAD_REQUEST,
                                "Bad HTTP/0.9 request type (%r)" % command)
                return False
        if path.startswith("//"):
            # No open redirect through a scheme-less "//host" path.
            path = "/" + path.lstrip("/")
        self.command, self.path = command, path
        try:
            lines = http.client._read_headers(self.rfile)
        except http.client.LineTooLong as err:
            self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                            "Line too long", str(err))
            return False
        except http.client.HTTPException as err:
            self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                            "Too many headers", str(err))
            return False
        self.headers = fields = head_fields(lines)
        connection = fields.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        # A string comparison, as in http.server: "HTTP/1.10" passes,
        # "HTTP/01.1" does not.
        if fields.get("expect", "").lower() == "100-continue" \
                and self.request_version >= "HTTP/1.1":
            return self.handle_expect_100()
        return True

    # -- the response --------------------------------------------------------

    def _head(self, status: int, fields: List[Tuple[str, object]]) -> bytes:
        """A response's status line and header block, blank line
        included: the bytes ``send_response``, ``send_header`` and
        ``end_headers`` would have buffered — ``Server`` and ``Date``
        first, then ``fields`` — and nothing for HTTP/0.9.  Sets
        ``_last_status`` for the request's span."""
        self._last_status = status
        if not self.quiet:
            self.log_request(status)
        if self.request_version == "HTTP/0.9":
            return b""
        lines = "".join(f"{name}: {value}\r\n" for name, value in fields)
        return (f"{self.protocol_version} {status} "
                f"{self.responses[status][0]}\r\n"
                f"Server: {self.version_string()}\r\n"
                f"Date: {_http_date()}\r\n{lines}\r\n").encode("latin-1")

    def _trace_fields(self) -> List[Tuple[str, str]]:
        """X-Trace-Id / X-Request-Id on every response: a client can
        always correlate an answer — or a shed — with the server's
        logs and /debug/traces."""
        trace = self._trace
        return [("X-Trace-Id", trace.trace_id),
                ("X-Request-Id", trace.request_id)]

    def _settle(self, status: int) -> None:
        """As an admitted route's response is about to leave: a
        non-5xx answer is the endpoint's success, recorded now so the
        client's next request finds the circuit already settled."""
        endpoint = self._settles
        if endpoint is not None:
            self._settles = None
            if status < 500:
                self.breaker.record_success(endpoint)

    def _send_body(self, body: bytes, status: int = 200,
                   headers: Optional[Dict[str, str]] = None,
                   content_type: str = "application/json") -> None:
        fields: List[Tuple[str, object]] = [("Content-Type", content_type),
                                            ("Content-Length", len(body))]
        fields += self._trace_fields()
        if headers:
            fields += headers.items()
        head = self._head(status, fields)
        self._settle(status)
        self._write(head, body)

    def _write(self, head: bytes, body: bytes) -> None:
        """Send the header block and the body in one ``sendmsg``.
        Under the execution lock that call never waits for the client:
        when the socket takes less than offered, the lock is released
        first and the rest is sent blocking."""
        flags = socket.MSG_DONTWAIT if self._executing else 0
        try:
            sent = self.connection.sendmsg([head, body], (), flags)
        except BlockingIOError:
            sent = 0
        if sent == len(head) + len(body):
            return
        self._release_execution()
        if sent < len(head):
            self.connection.sendall(memoryview(head)[sent:])
            sent = len(head)
        self.connection.sendall(memoryview(body)[sent - len(head):])

    def _acquire_execution(self) -> None:
        """Take the execution lock, waiting at most what remains of
        the request's deadline (raises DeadlineExceeded — the 503
        ``deadline`` shed — when that runs out first)."""
        if not self.execution.acquire(max(0.0, self._deadline.remaining())):
            raise DeadlineExceeded("waiting for the execution lock")
        self._executing = True
        self._turn_started = time.monotonic()

    def _yield_turn(self) -> None:
        """Between the engine's segment reads: a request that has run
        for a GIL switch interval lets the requests waiting for the
        lock go first, then queues for it behind them."""
        if self._executing and self.execution.waiting() \
                and time.monotonic() - self._turn_started \
                >= sys.getswitchinterval():
            self._release_execution()
            self._acquire_execution()

    def _release_execution(self) -> None:
        if self._executing:
            self._executing = False
            self.execution.release()

    def _send_json(self, payload: dict, status: int = 200,
                   headers: Optional[Dict[str, str]] = None) -> None:
        self._send_body(json.dumps(payload).encode("utf-8"), status,
                        headers)

    def _send_text(self, body: str, status: int = 200) -> None:
        self._send_body(body.encode("utf-8"), status,
                        content_type="text/plain; version=0.0.4; "
                                     "charset=utf-8")

    def _send_json_stream(self, chunks: Iterator[bytes]) -> None:
        """Stream a response of unknown length (chunked transfer).

        Used by ``/rib`` so a snapshot is never materialized in
        memory: each chunk is encoded as it leaves the decoder.
        """
        head = self._head(200, [("Content-Type", "application/json"),
                                ("Transfer-Encoding", "chunked"),
                                *self._trace_fields()])
        self._settle(200)
        if head:
            self.wfile.write(head)
        for chunk in chunks:
            if chunk:
                self.wfile.write(b"%x\r\n%s\r\n" % (len(chunk), chunk))
        self.wfile.write(b"0\r\n\r\n")

    def _error(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status)

    def _shed(self, reason: str, retry_after_s: float = 1.0) -> None:
        """Fast 503: the request was refused, not failed."""
        retry = max(1, int(math.ceil(retry_after_s)))
        request_id = self._trace.request_id
        # Sheds are the responses an operator investigates most, so
        # the request id goes to the log as well as the body/headers.
        _log.log(logging.DEBUG if self.quiet else logging.WARNING,
                 "request %s shed: %s (retry in %ds)",
                 request_id, reason, retry)
        self._send_json(
            {"error": "overloaded", "reason": reason,
             "retry_after_s": retry, "request_id": request_id},
            503, headers={"Retry-After": str(retry)})

    def _client_aborted(self) -> None:
        """The client hung up mid-response: count it, never 500 it."""
        if self.aborts is not None:
            self.aborts.inc()

    def _internal_error(self, endpoint: str, request_id: str) -> None:
        """Satellite: the traceback stays server-side; the body carries
        only an opaque request id an operator can grep the log for."""
        _log.log(logging.DEBUG if self.quiet else logging.ERROR,
                 "request %s (%s) failed:\n%s",
                 request_id, endpoint, traceback.format_exc())
        try:
            self._error(500, f"internal error (request {request_id})")
        except (BrokenPipeError, ConnectionResetError):
            self._client_aborted()

    # -- routing -------------------------------------------------------------

    def do_GET(self) -> None:    # noqa: N802 (http.server naming)
        url = urlsplit(self.path)
        endpoint = "/events/<id>" if url.path.startswith("/events/") \
            else url.path
        # Every request gets a span, honouring an inbound X-Trace-Id
        # so a caller can stitch our processing into its own trace.
        trace = self.tracer.start_request(
            endpoint, inbound_trace_id=self.headers.get("X-Trace-Id"),
            query=url.query)
        self._trace = trace
        self._last_status = 0
        request_id = trace.request_id
        self._deadline: Optional[Deadline] = None
        self._settles: Optional[str] = None
        try:
            self._route(url, endpoint, request_id)
        finally:
            trace.mark("respond")
            trace.finish(self._last_status)

    def _route(self, url, endpoint: str, request_id: str) -> None:
        trace = self._trace
        try:
            try:
                params = _parse_params(url.query)
                # Probes, scrapes and the trace ring bypass admission:
                # they must keep answering precisely when the server
                # is overloaded.
                if url.path == "/healthz":
                    self._get_healthz(params)
                    return
                if url.path == "/readyz":
                    self._get_readyz(params)
                    return
                if url.path == "/metrics":
                    self._get_metrics(params)
                    return
                if url.path == "/debug/traces":
                    self._get_debug_traces(params)
                    return
                route = {
                    "/updates": self._get_updates,
                    "/rib": self._get_rib,
                    "/vps": self._get_vps,
                    "/moas": self._get_moas,
                    "/hijacks": self._get_hijacks,
                    "/events": self._get_events,
                    "/status": self._get_status,
                }.get(url.path)
                if route is None and not url.path.startswith("/events/"):
                    self._error(404, f"unknown endpoint {url.path}")
                    return
                self._deadline = Deadline(
                    math.inf if self.request_timeout_s is None
                    else self.request_timeout_s, self._yield_turn)
                with self.execution.admit(endpoint, request_id):
                    self._execute(url, route, params, endpoint)
            except Overloaded as exc:
                self._shed(exc.reason, exc.retry_after_s)
            except ValueError as exc:
                self._error(400, str(exc))
        except (BrokenPipeError, ConnectionResetError):
            self._client_aborted()
        except Exception:  # noqa: BLE001 - sanitized 500
            self.breaker.record_failure(endpoint)
            self._internal_error(endpoint, request_id)
        finally:
            # A client error, a shed or an abort is no verdict on the
            # endpoint: a half-open probe ending so goes to the next.
            self.breaker.hand_back(endpoint, request_id)

    def _execute(self, url, route, params: Dict[str, str],
                 endpoint: str) -> None:
        """Run one admitted route under the execution lock; the wait
        for it is part of the request's admission stage.  ``/rib``
        never takes the lock: its stream waits on the client between
        chunks.  The route's response settles the endpoint's circuit
        breaker (:meth:`_settle`); a route that raises settles nothing
        here."""
        if url.path != "/rib":
            self._acquire_execution()
        self._settles = endpoint
        try:
            self._trace.mark("admission")
            if route is None:
                self._get_event(url.path[len("/events/"):], params)
            else:
                route(params)
        finally:
            self._settles = None
            self._release_execution()

    # -- endpoints -----------------------------------------------------------

    def _get_healthz(self, params: Dict[str, str]) -> None:
        """Liveness: the process answers; nothing about data quality."""
        self._send_json({"status": "ok"})

    def _get_readyz(self, params: Dict[str, str]) -> None:
        """Readiness: 503 while draining; ``degraded`` (still 200 —
        intact segments are being served) under quarantine or an open
        circuit breaker."""
        draining = self.execution.draining
        quarantined = list(self.guard.quarantined) \
            if self.guard is not None else []
        breakers_open = self.breaker.open_endpoints()
        if draining:
            status = "draining"
        elif quarantined or breakers_open:
            status = "degraded"
        else:
            status = "ok"
        self._send_json({
            "ready": not draining,
            "status": status,
            "quarantined": quarantined,
            "breakers_open": breakers_open,
            "watermark": self.engine.watermark(),
        }, status=503 if draining else 200)

    def _get_updates(self, params: Dict[str, str]) -> None:
        spec = QuerySpec.from_params(params)
        # The watermark of the catalog snapshot the answer was planned
        # from: under a live writer it never covers a segment the
        # answer does not carry.
        watermark, count, parts = self.engine.render(
            spec, deadline=self._deadline, trace=self._trace)
        # Byte for byte json.dumps({"watermark", "count", "updates"}):
        # the elements were rendered when their segment's view was
        # built; the head and tail are glued to the first and last.
        head = json.dumps({"watermark": watermark, "count": count})
        parts = parts or [b""]
        parts[0] = head[:-1].encode("utf-8") + b', "updates": [' + parts[0]
        parts[-1] = b"".join((parts[-1], b"]}"))
        self._send_body(b", ".join(parts))

    def _get_vps(self, params: Dict[str, str]) -> None:
        check_params(params, {"limit", "sort"})
        limit: Optional[int] = None
        if "limit" in params:
            limit = int(params["limit"])
            if limit <= 0:
                raise ValueError("limit must be positive")
        sort = params.get("sort", "vp")
        if sort not in ("vp", "updates", "value"):
            raise ValueError("sort must be 'vp', 'updates' or 'value'")
        counts = self.engine.vp_counts()
        scores = self.gill.vp_scores() if self.gill is not None else {}
        if sort == "value" and not scores:
            raise ValueError("sort=value needs an attached gill tracker "
                             "with at least one completed rescore")
        rows = []
        for vp in sorted(counts):
            row = {"vp": vp, "updates": counts[vp]}
            score = scores.get(vp)
            if score is not None:
                row.update(score)
            rows.append(row)
        if sort == "updates":
            rows.sort(key=lambda r: (-r["updates"], r["vp"]))
        elif sort == "value":
            rows.sort(key=lambda r: (-r.get("value", float("-inf")),
                                     r["vp"]))
        if limit is not None:
            rows = rows[:limit]
        self._send_json({
            "count": len(counts),
            "returned": len(rows),
            "vps": rows,
        })

    def _get_rib(self, params: Dict[str, str]) -> None:
        check_params(params, {"time", "vp"})
        at = float_param(params, "time")
        dump = self.engine.rib_dump_at(at)
        if dump is None:
            self._error(404, "no RIB dump published"
                             + (f" at or before {at:.0f}" if at is not None
                                else ""))
            return
        dump_time, path = dump
        vp_filter = params.get("vp")

        def chunks() -> Iterator[bytes]:
            head = json.dumps({"time": dump_time, "vp": vp_filter})
            yield (head[:-1] + ', "routes": [').encode("utf-8")
            first = True
            count = 0
            for record in self.engine.iter_rib_dump(path):
                if vp_filter is not None and record.vp != vp_filter:
                    continue
                route = record.route
                entry = json.dumps({
                    "vp": record.vp,
                    "prefix": str(route.prefix),
                    "as_path": list(route.as_path),
                    "communities": sorted(
                        list(c) for c in route.communities),
                    "time": route.time,
                })
                yield (entry if first else "," + entry).encode("utf-8")
                first = False
                count += 1
            yield b'], "count": %d}' % count

        self._send_json_stream(chunks())

    @staticmethod
    def _time_range(params: Dict[str, str]
                    ) -> Tuple[Optional[float], Optional[float]]:
        return (float_param(params, "start"),
                float_param(params, "end", finite=False))

    def _store(self) -> Optional[EventStore]:
        """The attached event store, caught up with its journal — or
        None after answering 404: incidents are served from the
        collector's standing record, never re-derived per request."""
        if self.events is None:
            self._error(404, "no event store attached (collect with "
                             "`pipeline --events`, or serve with "
                             "`--events`)")
            return None
        self.events.refresh()
        return self.events

    def _get_moas(self, params: Dict[str, str]) -> None:
        check_params(params, {"start", "end"})
        start, end = self._time_range(params)
        store = self._store()
        if store is None:
            return
        conflicts = []
        for event in store.query(type="moas", start=start, end=end):
            origins = sorted({
                origin
                for detection in event.evidence
                if detection.type == "moas"
                for origin in detection.extra.get("origins", ())
            } or event.asns)
            conflicts.append({
                "prefix": event.prefix,
                "origins": origins,
                "event": event.id,
                "state": event.state,
            })
        self._send_json({
            "source": "events",
            "count": len(conflicts),
            "conflicts": conflicts,
        })

    def _get_hijacks(self, params: Dict[str, str]) -> None:
        check_params(params, {"start", "end", "threshold"})
        threshold = float_param(params, "threshold", 0.6)
        start, end = self._time_range(params)
        store = self._store()
        if store is None:
            return
        best: Dict[Tuple, dict] = {}
        for event in store.query(type="origin_hijack",
                                 start=start, end=end):
            for detection in event.evidence:
                if detection.type != "origin_hijack" \
                        or detection.score < threshold:
                    continue
                link = detection.extra.get("link")
                if link is None:
                    continue
                key = (tuple(link), detection.prefix)
                case = best.get(key)
                if case is None or detection.score > case["score"]:
                    best[key] = {
                        "link": sorted(link),
                        "prefix": detection.prefix,
                        "score": round(detection.score, 4),
                        "origin": detection.extra.get("origin"),
                        "event": event.id,
                        "state": event.state,
                    }
        cases = sorted(best.values(),
                       key=lambda c: (-c["score"], c["link"]))
        self._send_json({
            "source": "events",
            "threshold": threshold,
            "count": len(cases),
            "cases": cases,
        })

    # -- event intelligence ---------------------------------------------------

    def _get_events(self, params: Dict[str, str]) -> None:
        check_params(params, {"type", "prefix", "origin", "start", "end",
                              "state", "limit"})
        store = self._store()
        if store is None:
            return
        start, end = self._time_range(params)
        origin = int(params["origin"]) if "origin" in params else None
        limit = int(params["limit"]) if "limit" in params else None
        hits = store.query(
            type=params.get("type"), prefix=params.get("prefix"),
            origin=origin, start=start, end=end,
            state=params.get("state"), limit=limit)
        self._send_json({
            "watermark": store.watermark,
            "count": len(hits),
            "open": store.open_counts(),
            "events": [event.to_json(full=False) for event in hits],
        })

    def _get_event(self, event_id: str, params: Dict[str, str]) -> None:
        store = self._store()
        if store is None:
            return
        if params:
            raise ValueError("/events/<id> takes no parameters")
        event = store.get(event_id)
        if event is None:
            self._error(404, f"no event {event_id!r}")
            return
        self._send_json({"event": event.to_json(full=True)})

    def _get_metrics(self, params: Dict[str, str]) -> None:
        check_params(params, {"format"})
        fmt = params.get("format", "prometheus")
        registry = self.engine.registry
        if self.events is not None:
            # A standalone server has no live event pipeline feeding
            # the registry, so refresh the gauge from the journal at
            # scrape time (repro-bgp top renders the events line).
            self.events.refresh()
            open_gauge = registry.gauge(
                "repro_events_open",
                "Currently unresolved events by primary type",
                labels=["type"])
            for etype, count in self.events.open_counts().items():
                open_gauge.labels(etype).set(count)
        if fmt == "json":
            self._send_json(registry.to_json())
        elif fmt in ("prometheus", "text"):
            self._send_text(registry.prometheus())
        else:
            raise ValueError(f"unknown format {fmt!r} "
                             "(expected 'prometheus' or 'json')")

    def _get_debug_traces(self, params: Dict[str, str]) -> None:
        """This server's spans in the process ring (docs/TELEMETRY.md):
        the ``n`` slowest recent requests with per-stage latencies."""
        check_params(params, {"n"})
        n = int(params.get("n", 20))
        if n <= 0:
            raise ValueError("n must be positive")
        self._send_json(self.tracer.to_json(n))

    def _get_status(self, params: Dict[str, str]) -> None:
        if params:
            raise ValueError("/status takes no parameters")
        stats = self.engine.stats_snapshot()
        segments = self.engine.catalog.segments()
        payload = {
            "watermark": segments[-1].end if segments else None,
            "segments": len(segments),
            "records": sum(s.count for s in segments),
            "queries": stats.queries,
            "cache_hit_rate": round(stats.cache_hit_rate, 4),
            "segments_pruned": stats.segments_pruned,
            "segments_decoded": stats.segments_decoded,
            "index_builds": stats.index_builds,
            "index_build_time_s": round(stats.index_build_time_s, 6),
            "payload_cache": {
                "hits": stats.payload_cache_hits,
                "misses": stats.payload_cache_misses,
                "bytes": stats.payload_cache_bytes,
            },
        }
        if self.events is not None:
            self.events.refresh()
            payload["events"] = {
                "total": len(self.events),
                "watermark": self.events.watermark,
                "open": self.events.open_counts(),
                "states": self.events.state_counts(),
            }
        if self.guard is not None:
            payload["guard"] = self.guard.status()
        self._send_json(payload)


class QueryAPIServer:
    """Owns the HTTP server, its serving thread and its protections.

    Overload knobs: at most ``max_concurrent`` requests are in flight
    (one executing under the execution lock, the rest waiting for it
    in arrival order), everything else is shed with a fast 503 +
    ``Retry-After``.  Each admitted request gets a
    ``request_timeout_s`` deadline that bounds its wait for the lock
    and that the engine's decode loops poll.  ``breaker_threshold``
    straight 500s open an endpoint's circuit for ``breaker_reset_s``.
    With a ``guard`` attached, ``/readyz`` and ``/status`` report
    quarantine state, and ``scrub_interval_s`` starts a background
    scrubber next to the serving thread.
    """

    def __init__(self, engine: QueryEngine, host: str = "127.0.0.1",
                 port: int = 0, quiet: bool = True,
                 events: Optional[EventStore] = None,
                 gill: Optional[object] = None,
                 guard: Optional[IntegrityGuard] = None,
                 max_concurrent: int = 24,
                 request_timeout_s: Optional[float] = 30.0,
                 breaker_threshold: int = 5,
                 breaker_reset_s: float = 5.0,
                 scrub_interval_s: Optional[float] = None):
        registry = engine.registry
        set_build_info(registry, __version__, backend="serve")
        # Name this process's black box — unless the pipeline already
        # claimed the role (an embedded server in a collector process
        # must not steal the coordinator's dump file).
        box = recorder()
        if box.proc.startswith("pid"):
            box = set_process_role("serve")
        box.bind_registry(registry)
        self.breaker = CircuitBreaker(
            failure_threshold=breaker_threshold,
            reset_after_s=breaker_reset_s, registry=registry,
            on_open=self._breaker_opened)
        self.execution = ExecutionLock(max_concurrent, registry,
                                       self.breaker)
        self.tracer = Tracer(1.0, registry=registry)
        aborts = registry.counter(
            "repro_query_client_aborts_total",
            "Responses abandoned because the client disconnected.")
        handler = type("BoundQueryAPIHandler", (_QueryAPIHandler,),
                       {"engine": engine, "quiet": quiet,
                        "events": events, "gill": gill,
                        "execution": self.execution,
                        "breaker": self.breaker,
                        "guard": guard,
                        "tracer": self.tracer,
                        "request_timeout_s": request_timeout_s,
                        "aborts": aborts})
        self.engine = engine
        self.request_timeout_s = request_timeout_s
        self.events = events
        self.gill = gill
        self.guard = guard
        self._scrubber: Optional[Scrubber] = None
        if scrub_interval_s is not None and guard is not None:
            self._scrubber = Scrubber(
                guard.directory, guard, interval_s=scrub_interval_s,
                registry=registry)
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    def _breaker_opened(self, endpoint: str) -> None:
        """A circuit just opened: black-box the last seconds of
        serving next to the archive, so the spans and requests that
        burned through the failure budget are preserved."""
        box = recorder()
        box.note("breaker-open", endpoint=endpoint)
        directory = self.guard.directory if self.guard is not None \
            else getattr(self.engine.catalog, "directory", None)
        if not isinstance(directory, str):
            return
        try:
            box.dump(directory, reason=f"breaker-open {endpoint}",
                     registry=self.engine.registry)
        except OSError:
            pass

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "QueryAPIServer":
        """Serve on a background thread; returns self for chaining."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        if self._scrubber is not None:
            self._scrubber.start()
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="query-api",
            daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI's foreground mode)."""
        if self._scrubber is not None:
            self._scrubber.start()
        self.httpd.serve_forever()

    def drain(self) -> None:
        """Refuse new requests (503 draining); in-flight ones finish."""
        self.execution.drain()

    def request_shutdown(self) -> None:
        """Initiate graceful drain + shutdown from any thread and
        return immediately — safe to call from a SIGTERM handler.

        New requests get the 503 ``draining`` while every request in
        flight finishes (for at most the request timeout); only then
        does the serve loop stop, so :meth:`serve_forever` returns
        after their responses have been sent.  ``httpd.shutdown()``
        blocks until the serve loop exits, so calling it from a signal
        handler running *on* the serving thread would deadlock: the
        wait and the shutdown run on a helper thread.
        """
        self.drain()

        def shut_down_when_idle() -> None:
            self.execution.wait_idle(self.request_timeout_s)
            self.httpd.shutdown()

        threading.Thread(target=shut_down_when_idle,
                         name="query-api-shutdown", daemon=True).start()

    def stop(self, timeout_s: float = 5.0) -> None:
        """Graceful stop: drain, close the listening socket, then join.

        The socket closes *before* the join so no new connection can
        keep the serve loop busy, and the join result is checked — a
        thread that outlives the timeout raises instead of leaking
        silently (satellite fix: the old code ignored both).
        """
        self.drain()
        self.httpd.shutdown()
        self.httpd.server_close()
        self.execution.wait_idle(timeout_s)
        if self._scrubber is not None:
            self._scrubber.stop()
        if self._thread is not None:
            thread = self._thread
            thread.join(timeout=timeout_s)
            self._thread = None
            if thread.is_alive():
                raise RuntimeError(
                    f"query-api thread failed to stop within "
                    f"{timeout_s:.1f}s")

    def __enter__(self) -> "QueryAPIServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
