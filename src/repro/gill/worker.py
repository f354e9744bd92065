"""The scoring worker: per-VP RIB graphs and boundary snapshots in a
child process.

:class:`~repro.gill.incremental.IncrementalVPScorer` splits in two.
Everything that decides what the archive keeps — sightings, clusters,
the lagged graph cursor, the end-snapshot queue, ``n_events`` — stays
with the caller.  What those decisions only read back at a slot
boundary moves here: one :class:`~repro.core.features.RIBGraph` per
VP, the boundary snapshots (``_node_pair_features`` on every graph)
and the running sum of per-event pairwise distances.  That half is
~55% of the writer thread's time with the filter on, and it runs
while the writer admits, encodes, compresses, indexes and runs the
event pass.

Protocol
========

The caller buffers commands, in the order the in-process scorer used
to evaluate them, and sends them in batches of :data:`BATCH`:

* ``(APPLY, vp, prefix id, path)`` / ``(WITHDRAW, vp, prefix id)`` —
  one lagged update onto one VP's graph (prefixes are interned to
  ints by the caller; a graph only keys by them);
* ``(SNAPSHOT, id, as1, as2)`` — every VP's raw features of the pair
  at the cursor, kept under ``id``;
* ``(FINALIZE, start id, end id)`` — add
  ``pairwise_squared_distances(normalize_features(start − end))`` to
  the sum and drop both snapshots;
* ``(DISCARD, id)`` — drop a snapshot (a global event's pair, or an
  end snapshot a re-sighting replaced);
* ``(SYNC,)`` — reply with the sum and the work counters.  This is the
  only round trip, once per archive slot.

The worker evaluates the same expressions in the same order, so the
sum is bit-identical to the in-process one and no output byte moves.

Process
=======

The worker is a plain ``os.fork()`` of the constructing process, made
before the collection pipeline starts its own threads.  The child
closes every inherited descriptor but its end of the socket pair and
stdio, resets SIGINT/SIGTERM to their defaults, freezes the inherited
heap out of its garbage collector, and from then on touches only its
socket and modules that were imported before the fork — it never runs
the caller's ``__main__`` (``spawn`` would, and would import
:mod:`repro` again: ~0.5 s, against ~2 ms for the fork).  It exits on end-of-file, so a parent
that dies leaves no orphan; a worker that dies surfaces as
:class:`ScoringWorkerError` at the next send or sync.
"""

from __future__ import annotations

import gc
import os
import pickle
import signal
import traceback
import weakref
from multiprocessing import Pipe
from typing import List, NamedTuple, Tuple

import numpy as np

from ..core.features import FEATURE_VECTOR_DIM, RIBGraph
from ..core.scoring import (
    _node_pair_features,
    normalize_features,
    pairwise_squared_distances,
)

APPLY, WITHDRAW, SNAPSHOT, FINALIZE, DISCARD, SYNC = range(6)

#: Commands per send: ~1.6 per kept update, so a slot of a 24-VP
#: overshoot feed is a dozen sends and the worker is never far behind.
BATCH = 64


class ScoringWorkerError(RuntimeError):
    """The scoring worker died or failed; the filter cannot go on."""


class WorkerCounts(NamedTuple):
    """What the worker reported at the most recent sync."""

    #: Dijkstras run (``RIBGraph.distances_from`` calls), all graphs.
    distances_from: int = 0
    #: Local-feature recomputations (``RIBGraph._local_features``).
    local_features: int = 0
    #: Boundary snapshots held.
    snapshots: int = 0


class _CountingGraph(RIBGraph):
    """A :class:`RIBGraph` that counts its two memoised computations
    into a list shared by the worker's graphs."""

    def __init__(self, work: List[int]):
        super().__init__()
        self._work = work

    def distances_from(self, source: int):
        self._work[0] += 1
        return super().distances_from(source)

    def _local_features(self, node: int):
        self._work[1] += 1
        return super()._local_features(node)


class _Pair:
    """Duck-typed stand-in for an :class:`ObservedEvent` at snapshot
    time — ``_node_pair_features`` only reads ``as1``/``as2``, which are
    known when a cluster opens, long before the event finalizes."""

    __slots__ = ("as1", "as2")

    def __init__(self, as1: int, as2: int):
        self.as1 = as1
        self.as2 = as2


def _serve(conn, n_vps: int) -> None:
    """The child's loop: run commands until end-of-file."""
    work = [0, 0]
    graphs = [_CountingGraph(work) for _ in range(n_vps)]
    snapshots = {}
    distance_sum = np.zeros((n_vps, n_vps))
    while True:
        try:
            batch = pickle.loads(conn.recv_bytes())
        except EOFError:
            return
        for command in batch:
            op = command[0]
            if op == APPLY:
                graphs[command[1]].install(command[2], command[3])
            elif op == WITHDRAW:
                graphs[command[1]].withdraw(command[2])
            elif op == SNAPSHOT:
                # An array, not lists of floats: an open cluster holds
                # two of these for minutes, and rows are only subtracted.
                pair = _Pair(command[2], command[3])
                snapshots[command[1]] = np.array(
                    [_node_pair_features(graph, pair) for graph in graphs],
                    dtype=float).reshape(n_vps, FEATURE_VECTOR_DIM)
            elif op == FINALIZE:
                start = snapshots.pop(command[1])
                end = snapshots.pop(command[2])
                distance_sum += pairwise_squared_distances(
                    normalize_features(start - end))
            elif op == DISCARD:
                del snapshots[command[1]]
            else:
                conn.send_bytes(pickle.dumps(
                    (None, distance_sum.tobytes(),
                     WorkerCounts(work[0], work[1], len(snapshots)))))


def _child(conn, n_vps: int) -> None:
    """Run in the forked child; never returns."""
    status = 1
    try:
        keep = conn.fileno()
        os.closerange(3, keep)
        os.closerange(keep + 1, os.sysconf("SC_OPEN_MAX"))
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        gc.freeze()
        try:
            _serve(conn, n_vps)
            status = 0
        except Exception:
            # The writer reads this at its next sync.
            conn.send_bytes(pickle.dumps((traceback.format_exc(),)))
    finally:
        os._exit(status)


def _reap(pid: int, conn, owner: int) -> None:
    """Stop and reap the worker (finalizer: also runs on collection of
    an abandoned handle and at interpreter exit)."""
    if os.getpid() != owner:
        return
    conn.close()
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:
        pass


class ScoringWorker:
    """The parent's handle on one worker process.

    Single-threaded like the writer it serves: :meth:`add` and
    :meth:`sync` are called from one thread at a time.
    """

    def __init__(self, n_vps: int):
        self.n_vps = n_vps
        self._buffer: List[Tuple] = []
        ours, theirs = Pipe()
        pid = os.fork()
        if pid == 0:
            _child(theirs, n_vps)
        theirs.close()
        self.pid = pid
        self._conn = ours
        self._stop = weakref.finalize(self, _reap, pid, ours, os.getpid())

    def add(self, command: Tuple) -> None:
        buffer = self._buffer
        buffer.append(command)
        if len(buffer) >= BATCH:
            self.send()

    def send(self) -> None:
        """Hand the buffered commands to the worker (no reply)."""
        if self._buffer:
            batch, self._buffer = self._buffer, []
            self._send(batch)

    def _send(self, batch: List[Tuple]) -> None:
        try:
            self._conn.send_bytes(pickle.dumps(batch, 5))
        except OSError as exc:
            raise self._died(exc) from None

    def sync(self) -> Tuple[np.ndarray, WorkerCounts]:
        """The round trip: send what is buffered, return the distance
        sum and the worker's counters once it has run everything."""
        batch, self._buffer = self._buffer, []
        batch.append((SYNC,))
        self._send(batch)
        try:
            reply = pickle.loads(self._conn.recv_bytes())
        except (EOFError, OSError) as exc:
            raise self._died(exc) from None
        if reply[0] is not None:
            self.close()
            raise ScoringWorkerError(
                f"gill scoring worker (pid {self.pid}) failed:\n{reply[0]}")
        total = np.frombuffer(reply[1], dtype=float).reshape(
            self.n_vps, self.n_vps).copy()
        return total, reply[2]

    def _died(self, exc: BaseException) -> ScoringWorkerError:
        try:
            _, status = os.waitpid(self.pid, 0)
            how = (f"killed by signal {os.WTERMSIG(status)}"
                   if os.WIFSIGNALED(status)
                   else f"exit status {os.WEXITSTATUS(status)}")
        except ChildProcessError:
            how = "already reaped"
        self._stop.detach()
        self._conn.close()
        return ScoringWorkerError(
            f"gill scoring worker (pid {self.pid}) is gone ({how}): "
            f"{type(exc).__name__}")

    def close(self) -> None:
        """Stop and reap the worker (idempotent)."""
        self._buffer = []
        self._stop()
