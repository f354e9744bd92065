"""The crash flight recorder: a per-process black box.

Every process keeps one bounded ring of recent observations — finished
trace spans (:class:`~repro.telemetry.trace.Span`, appended as-is) and
supervision notes — and dumps it as ``flightrecorder-<proc>.json``
when the integrity guard quarantines a segment, a serve-path circuit
breaker opens, or the writer stage dies.  The same ring backs
``GET /debug/traces`` and ``--slow-traces``: a tracer reads its own
spans back out of it.

The ring is a ``deque`` with ``maxlen``: appends are atomic under the
GIL, so neither a finished span nor :meth:`note` takes a lock.  Dumps
are diagnostic (wall clock, live metric values), **not** part of the
archive's byte-identity contract.  The process-global recorder
(:func:`recorder`) is re-created after a fork, so a child never
inherits its parent's ring.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Deque, Dict, Optional

#: Entries the ring keeps, spans and notes together.
RING_SIZE = 256


class FlightRecorder:
    """One process's bounded black-box ring."""

    def __init__(self, proc: str = ""):
        self.proc = proc or f"pid{os.getpid()}"
        self.pid = os.getpid()
        #: Finished spans and note dicts, oldest first.
        self.ring: Deque[object] = deque(maxlen=RING_SIZE)
        self._dump_lock = threading.Lock()
        self._last_metrics: Dict[str, float] = {}
        self._dump_counter = None       # bound lazily via bind_registry

    def bind_registry(self, registry) -> None:
        """Count dumps in the given metrics registry."""
        self._dump_counter = registry.counter(
            "repro_flightrecorder_dumps_total",
            "Flight-recorder dumps written, by trigger reason.",
            labels=("reason",))

    def note(self, kind: str, **payload) -> None:
        """Append one observation; lock-free (atomic deque append)."""
        self.ring.append({"t": time.time(), "kind": kind, **payload})

    def dump(self, directory: str, reason: str,
             registry=None,
             queues: Optional[Dict[str, object]] = None) -> str:
        """Write ``flightrecorder-<proc>.json`` into ``directory``.

        Repeated dumps overwrite: the file always holds the *latest*
        black box.  Returns the written path.
        """
        entries = [
            entry if isinstance(entry, dict)
            else {"t": entry.finished_at, "kind": "span", **entry.to_json()}
            for entry in list(self.ring)
        ]
        document: Dict[str, object] = {
            "process": self.proc,
            "pid": self.pid,
            "reason": reason,
            "captured_at": time.time(),
            "entries": entries,
        }
        if queues:
            document["queues"] = queues
        if registry is not None:
            current = {name: value for name, (value, _)
                       in registry.scalar_values().items()}
            with self._dump_lock:
                delta = {
                    name: round(value - self._last_metrics.get(name,
                                                               0.0), 6)
                    for name, value in current.items()
                    if value != self._last_metrics.get(name, 0.0)
                }
                self._last_metrics = current
            document["metrics"] = current
            document["metric_deltas"] = delta
        path = os.path.join(directory, f"flightrecorder-{self.proc}.json")
        with self._dump_lock:
            tmp = f"{path}.tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(document, handle, sort_keys=True,
                          default=str)
                handle.write("\n")
            os.replace(tmp, path)
        if self._dump_counter is not None:
            self._dump_counter.labels(reason=reason.split()[0]).inc()
        self.note("dump", reason=reason)
        return path


# -- the process-global recorder ---------------------------------------------

_lock = threading.Lock()
_recorder: Optional[FlightRecorder] = None
_recorder_pid: Optional[int] = None


def recorder() -> FlightRecorder:
    """This process's flight recorder (fork-safe: a child that
    inherits the parent's module state gets a fresh ring)."""
    global _recorder, _recorder_pid
    pid = os.getpid()
    if _recorder is not None and _recorder_pid == pid:
        return _recorder
    with _lock:
        if _recorder is None or _recorder_pid != pid:
            _recorder = FlightRecorder()
            _recorder_pid = pid
    return _recorder


def set_process_role(proc: str) -> FlightRecorder:
    """Name this process's recorder (``coordinator``, ``serve``, …).

    The name keys the dump file, so every role dumps to its own
    ``flightrecorder-<proc>.json``.
    """
    box = recorder()
    box.proc = proc
    return box
