"""The server's request-head parser against ``http.server``'s.

``_QueryAPIHandler.parse_request`` reads the header lines with
``http.client._read_headers`` and builds its field mapping in one pass
instead of running them through ``email.feedparser``.  Every decision
must stay the stdlib's: drawn request heads go through both handlers,
and the bytes written back (the ``Date`` value aside), the connection
verdict, the parsed request line, the bytes consumed and the header
values the server reads must agree.
"""

import io
import re

from hypothesis import example, given, settings
from hypothesis import strategies as st
from http.server import BaseHTTPRequestHandler

from repro.query.server import HeadFields, _QueryAPIHandler, head_fields

#: Header names whose values are compared, in several spellings: the
#: three the server reads, two the drawn heads use as fillers, and the
#: name an mbox ``From :x`` line would give if it were taken as a field.
NAMES = ["X-Trace-Id", "x-trace-id", "Connection", "CONNECTION", "Expect",
         "expect", "Host", "From", "From "]


class Routed:
    """Records that the request reached ``do_GET``, and nothing else."""

    routed = False

    def do_GET(self):  # noqa: N802 (http.server naming)
        self.routed = True

    def log_message(self, fmt, *args):
        pass


class Oracle(Routed, BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"


class Ours(Routed, _QueryAPIHandler):
    pass


def handle(handler_class, head: bytes):
    """One ``handle_one_request`` over ``head``, without a socket."""
    handler = handler_class.__new__(handler_class)
    handler.rfile = io.BytesIO(head)
    handler.wfile = io.BytesIO()
    handler.client_address = ("127.0.0.1", 0)
    handler.close_connection = True
    handler.handle_one_request()
    headers = getattr(handler, "headers", None)
    return {
        "written": re.sub(rb"\r\nDate: [^\r]*\r\n", b"\r\nDate: -\r\n",
                          handler.wfile.getvalue()),
        "close_connection": handler.close_connection,
        "command": getattr(handler, "command", None),
        "path": getattr(handler, "path", None),
        "request_version": getattr(handler, "request_version", None),
        "routed": handler.routed,
        "consumed": handler.rfile.tell(),
        "headers": None if headers is None
        else {name: headers.get(name) for name in NAMES},
    }


def status_of(outcome):
    match = re.match(rb"HTTP/1\.1 (\d{3}) ", outcome["written"])
    return int(match.group(1)) if match else None


def assert_same(head: bytes):
    want = handle(Oracle, head)
    got = handle(Ours, head)
    assert got == want, head[:300]
    return got


# -- drawn heads ----------------------------------------------------------

METHODS = ["GET", "POST", "HEAD", "PUT", "get", "BREW", "G\xe9T"]
PATHS = ["/updates?prefix=10.0.0.0/24", "/", "//evil.example/x", "///a//b",
         "*", "/updates?limit=1&vp=a%20b", "http://host/updates", "/\xff"]
VERSIONS = ["HTTP/0.9", "HTTP/1.0", "HTTP/1.1", "HTTP/2.0", "HTTP/1.2",
            "HTTP/1.10", "HTTP/01.1", "HTTP/1.01", "HTTP/3.7", "HTTP/1",
            "HTTP/1.1.1", "HTTP/a.b", "HTTP/1.\xb2", "HTTP/+1.1",
            "HTTP/ 1.1", "http/1.1", "HTTP/12345678901.1", "HTTP/1.-1",
            "HTTP/", "HTTP/1.1x"]
VALUES = ["close", "Close", "CLOSE", "keep-alive", "Keep-Alive",
          "100-continue", "100-Continue", "close ", " close", "close\r",
          "", "abc", "0123456789abcdef", "deadbeef" * 5, "\xa0close",
          "a\x85b", "a\rb", "x\x00y"]
FIELD_NAMES = ["X-Trace-Id", "x-trace-id", "X-TRACE-ID", "Connection",
               "connection", "CONNECTION", "Expect", "EXPECT", "Host",
               "From", "X Bad", "X-Bad ", "N\xe0me", ""]

texts = st.text(alphabet=st.characters(max_codepoint=255), max_size=12)


@st.composite
def field_lines(draw):
    kind = draw(st.sampled_from(["field", "field", "field", "continuation",
                                 "no-colon", "from", "empty-name",
                                 "lone-cr"]))
    if kind == "field":
        name = draw(st.sampled_from(FIELD_NAMES))
        separator = draw(st.sampled_from([":", ": ", ":\t", " : ", ":  "]))
        value = draw(st.one_of(st.sampled_from(VALUES), texts))
        return f"{name}{separator}{value}"
    if kind == "continuation":
        return draw(st.sampled_from([" ", "\t"])) \
            + draw(st.one_of(st.sampled_from(VALUES), texts))
    if kind == "no-colon":
        return draw(st.sampled_from(["garbage", "Connection close",
                                     "X-Trace-Id"]))
    if kind == "from":
        return draw(st.sampled_from(["From someone", "From :x",
                                     "From: x"]))
    if kind == "empty-name":
        return ":" + draw(st.sampled_from(VALUES))
    return "Connection: close\rExpect: 100-continue"


@st.composite
def request_lines(draw):
    """Mostly a good request line, so the header lines get parsed."""
    if draw(st.integers(0, 3)):
        return " ".join([draw(st.sampled_from(["GET", "GET", "POST"])),
                         draw(st.sampled_from(PATHS)),
                         draw(st.sampled_from(["HTTP/1.0", "HTTP/1.1"]))])
    words = [draw(st.sampled_from(METHODS)), draw(st.sampled_from(PATHS))]
    version = draw(st.sampled_from(VERSIONS + [None]))
    if version is not None:
        words.append(version)
    else:
        words = draw(st.permutations(words))
    words += draw(st.lists(st.sampled_from(["extra", "HTTP/1.1"]),
                           max_size=1))
    return draw(st.sampled_from([" ", "  ", "\t", " \x0b"])).join(words)


@st.composite
def heads(draw):
    ending = draw(st.sampled_from(["\r\n", "\r\n", "\n"]))
    lines = [draw(request_lines())]
    lines += draw(st.lists(field_lines(), max_size=8))
    filler = draw(st.sampled_from([0] * 9 + [96, 97, 98, 99]))
    at = draw(st.integers(1, len(lines)))
    lines[at:at] = [f"X-Filler-{i}: {i}" for i in range(filler)]
    end = draw(st.sampled_from(["\r\n", "\n", ""]))
    after = draw(st.sampled_from(["", "GET / HTTP/1.1\r\n\r\n",
                                  "Host: late\r\n\r\n"]))
    text = ending.join(lines) + ending + end + after
    return text.encode("latin-1")


class TestParity:
    @settings(max_examples=600, deadline=None)
    @given(heads())
    @example(b"GET /updates HTTP/1.1\r\nHost: a\r\n\r\n")
    @example(b"GET /updates\r\n\r\n")
    @example(b"POST /updates\r\n\r\n")
    @example(b"\r\n")
    @example(b"")
    @example(b"GET / HTTP/1.1\r\nExpect: 100-continue\r\n\r\n")
    @example(b"GET / HTTP/1.0\r\nExpect: 100-continue\r\n\r\n")
    @example(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
    @example(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
    @example(b"GET / HTTP/1.1\r\nConnection: close\r\n more\r\n\r\n")
    @example(b"GET / HTTP/1.1\r\n continued\r\nConnection: close\r\n\r\n")
    @example(b"GET / HTTP/1.1\r\nX-Trace-Id: 1\r\nx-trace-id: 2\r\n\r\n")
    @example(b"GET / HTTP/1.1\r\nbad line\r\nConnection: close\r\n\r\n")
    @example(b"GET / HTTP/1.1\r\nFrom x\r\n more\r\n\r\n")
    @example(b"GET / HTTP/1.1\r\nConnection: close\r\nFrom x\r\n more\r\n"
             b"\r\n")
    @example(b"GET / HTTP/1.1\r\nExpect: 100-continue\r\n:x\r\n\ty\r\n\r\n")
    @example(b"GET / HTTP/2.0\r\n\r\n")
    @example(b"BREW / HTTP/1.1\r\n\r\n")
    def test_same_decisions_as_http_server(self, head):
        assert_same(head)

    @given(st.lists(st.sampled_from(["Connection", "connection",
                                     "CONNECTION", "cOnNeCtIoN"]),
                    min_size=1, max_size=3),
           st.lists(st.sampled_from(["close", "Close", "keep-alive",
                                     "KEEP-ALIVE", "Keep-Alive"]),
                    min_size=3, max_size=3),
           st.sampled_from(["Expect", "expect", "EXPECT"]),
           st.sampled_from(["100-continue", "100-CONTINUE", "100-Continue",
                            "100-continue "]),
           st.sampled_from(["HTTP/1.0", "HTTP/1.1"]))
    def test_connection_and_expect_in_any_case(self, names, values,
                                               expect, expectation,
                                               version):
        fields = "".join(f"{name}: {value}\r\n"
                         for name, value in zip(names, values))
        head = (f"GET /updates {version}\r\n{fields}"
                f"{expect}: {expectation}\r\n\r\n").encode()
        assert_same(head)


class TestLimits:
    """The 414 / 431 edges, where the line lengths sit at and over
    the 65 536 bytes ``http.server`` and ``http.client`` allow."""

    def test_request_line_at_and_over_the_limit(self):
        statuses = []
        for length in (65535, 65536, 65537, 70000):
            line = b"GET /" + b"a" * (length - len(b"GET / HTTP/1.1\r\n")) \
                + b" HTTP/1.1\r\n"
            assert len(line) == length
            statuses.append(status_of(assert_same(line + b"\r\n")))
        assert statuses == [None, None, 414, 414]

    def test_header_line_at_and_over_the_limit(self):
        statuses = []
        for length in (65535, 65536, 65537, 70000):
            field = b"X-Trace-Id: " + b"f" * (length - 14) + b"\r\n"
            assert len(field) == length
            statuses.append(status_of(assert_same(
                b"GET / HTTP/1.1\r\n" + field + b"\r\n")))
        assert statuses == [None, None, 431, 431]

    def test_header_count_at_and_over_the_limit(self):
        statuses = []
        for count in (98, 99, 100, 101):
            fields = b"".join(b"X-%d: %d\r\n" % (i, i) for i in range(count))
            statuses.append(status_of(assert_same(
                b"GET / HTTP/1.1\r\n" + fields + b"\r\n")))
        assert statuses == [None, None, 431, 431]


class TestFields:
    def test_first_occurrence_wins_and_names_fold_case(self):
        fields = head_fields([b"X-Trace-Id: ab\r\n", b"x-trace-id: cd\r\n",
                              b"\r\n"])
        assert isinstance(fields, HeadFields)
        assert fields == {"x-trace-id": "ab"}
        assert fields.get("X-TRACE-ID") == fields.get("x-trace-id") == "ab"
        assert fields.get("Expect", "") == ""
