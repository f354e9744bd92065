"""The serve side of the benchmark: server process, requests, load.

The system under test is a real ``repro-bgp serve`` subprocess reached
over HTTP; this module starts and stops it, draws the request mix from
the seed, and drives the closed loop.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple
from urllib.parse import quote

from common import SRC, Spans

#: Closed loop: each client sends its next request only after reading
#: the previous response in full.
N_CLIENTS = 2
#: Untimed requests before the timed section.  A scan is never a cache
#: hit, but its ~1.7k-update result is still retained: 128 of them fill
#: the server's LRU cache (peak RSS 106 -> 270 MB) and bring on the
#: ~400 ms gen-2 GC pauses of a long-running server.  Timing fewer
#: warm-ups would measure that transient instead of the steady state.
WARMUP_REQUESTS = {"point": 100, "scan": 128}
#: Width of one ``serve_scan`` time window (about 2k updates of the
#: ``wide`` stream).
SCAN_WINDOW_S = 480.0
ZIPF_EXPONENT = 1.1
#: Share of responses kept whole for the body-for-body comparison.
BODY_SAMPLE_SHARE = 0.05
#: Bytes kept of every other response: enough to hold ``"count"``.
HEAD_BYTES = 96
REQUEST_TIMEOUT_S = 30.0


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class ServerProcess:
    """One ``repro-bgp serve <dir> --no-scrub`` subprocess.

    Defaults otherwise: guard verification on, cache 128.  A watchdog
    timer hard-kills a server that outlives ``kill_after_s``.
    """

    def __init__(self, directory: str, log_path: str,
                 kill_after_s: float):
        self.port = _free_port()
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        self._log = open(log_path, "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", directory,
             "--port", str(self.port), "--no-scrub"],
            env=env, stdout=self._log, stderr=subprocess.STDOUT)
        self._watchdog = threading.Timer(kill_after_s, self.process.kill)
        self._watchdog.daemon = True
        self._watchdog.start()

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=REQUEST_TIMEOUT_S)

    def wait_ready(self, timeout_s: float = 30.0) -> None:
        """Poll ``GET /readyz`` until it answers 200."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode}")
            conn = self.connect()
            try:
                conn.request("GET", "/readyz")
                reply = conn.getresponse()
                reply.read()
                if reply.status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.01)
        raise RuntimeError("server never became ready")

    def cpu_s(self) -> float:
        """User+sys CPU the server process has burned so far."""
        with open(f"/proc/{self.process.pid}/stat") as handle:
            # The command name may hold spaces; fields resume after it.
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) \
            / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> int:
        """SIGTERM (graceful drain), await the exit, return its code."""
        self._watchdog.cancel()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()
        return self.process.returncode


def fetch(conn: http.client.HTTPConnection, path: str
          ) -> Tuple[int, bytes]:
    """One GET; status 0 stands for a transport failure or timeout."""
    try:
        conn.request("GET", path)
        reply = conn.getresponse()
        return reply.status, reply.read()
    except (OSError, http.client.HTTPException):
        conn.close()        # the next request reconnects
        return 0, b""


@dataclass(frozen=True)
class Query:
    """One ``/updates`` request: a point lookup or a time-range scan."""

    prefix: Optional[object]        # repro.bgp.prefix.Prefix
    start: float
    end: float

    @property
    def path(self) -> str:
        params = []
        if self.prefix is not None:
            params.append(f"prefix={quote(str(self.prefix), safe='')}")
        if self.start != 0.0:
            params.append(f"start={self.start!r}")
        if self.end != float("inf"):
            params.append(f"end={self.end!r}")
        return "/updates?" + "&".join(params)


class QueryMix:
    """Seeded request mix over one archive's stream.

    ``point`` draws a prefix ~ Zipf(1.1) over all distinct prefixes and
    asks for its whole history; ``scan`` draws a uniformly random
    window of ``SCAN_WINDOW_S``, never the same one twice.  Which
    prefixes are the popular ones is part of the frozen scenario, like
    the stream's structure: histories run from a handful of updates to
    hundreds, so re-ranking per seed moves the size of a typical
    response.  The seed draws the requests.
    """

    def __init__(self, stream: Sequence):
        prefixes = sorted({u.prefix for u in stream}, key=str)
        random.Random("popularity ranks").shuffle(prefixes)
        self.prefixes = prefixes
        self._cum_weights = list(itertools.accumulate(
            1.0 / (rank + 1) ** ZIPF_EXPONENT
            for rank in range(len(prefixes))))
        self.t_lo = stream[0].time
        self.t_hi = stream[-1].time

    def draw(self, kind: str, rng: random.Random) -> Query:
        if kind == "point":
            prefix = rng.choices(self.prefixes,
                                 cum_weights=self._cum_weights)[0]
            return Query(prefix, 0.0, float("inf"))
        start = rng.uniform(self.t_lo,
                            max(self.t_lo, self.t_hi - SCAN_WINDOW_S))
        return Query(None, start, start + SCAN_WINDOW_S)

    def uncached_points(self, count: int) -> List[Query]:
        """``count`` point lookups over the most popular prefixes, each
        with its own far-future ``end``: the same work as a plain
        lookup, but no two share a cache key."""
        return [Query(self.prefixes[i % len(self.prefixes)], 0.0,
                      1e12 + i)
                for i in range(count)]


@dataclass
class Response:
    query: Query
    status: int
    sent_at: float          # perf_counter when the request was sent
    latency_s: float        # send → body fully read
    n_bytes: int
    #: The whole body when sampled for comparison, else its head.
    body: bytes
    sampled: bool


def request(conn: http.client.HTTPConnection, query: Query,
            sampled: bool) -> Response:
    started = time.perf_counter()
    status, body = fetch(conn, query.path)
    latency = time.perf_counter() - started
    return Response(query, status, started, latency, len(body),
                    body if sampled else body[:HEAD_BYTES], sampled)


def shed_total(conn: http.client.HTTPConnection) -> float:
    """Requests the server refused with a fast 503, all reasons, from
    its ``/metrics?format=json``."""
    status, body = fetch(conn, "/metrics?format=json")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return sum(sample["value"]
               for family in json.loads(body)["families"]
               if family["name"] == "repro_guard_shed_total"
               for sample in family["samples"])


def warm_up(server: ServerProcess, mix: QueryMix, kind: str,
            seed: int) -> None:
    rng = random.Random(f"{seed}/{kind}/warm-up")
    conn = server.connect()
    try:
        for _ in range(WARMUP_REQUESTS[kind]):
            fetch(conn, mix.draw(kind, rng).path)
    finally:
        conn.close()


def closed_loop(server: ServerProcess, mix: QueryMix, kind: str,
                seed: int, seconds: float, spans: Spans,
                parent: Optional[int] = None
                ) -> Tuple[List[Response], float]:
    """Drive ``N_CLIENTS`` keep-alive connections for ``seconds``.

    Returns every response and the wall time from the first request
    sent to the last response read.
    """
    per_client: List[List[Response]] = [[] for _ in range(N_CLIENTS)]
    deadline = time.perf_counter() + seconds

    def client(index: int) -> None:
        rng = random.Random(f"{seed}/{kind}/client{index}")
        conn = server.connect()
        try:
            while time.perf_counter() < deadline:
                query = mix.draw(kind, rng)
                sampled = rng.random() < BODY_SAMPLE_SHARE
                reply = request(conn, query, sampled)
                per_client[index].append(reply)
                spans.add("client.request", reply.sent_at,
                          reply.sent_at + reply.latency_s, parent)
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(i,),
                                name=f"client{i}")
               for i in range(N_CLIENTS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    return [r for replies in per_client for r in replies], wall
