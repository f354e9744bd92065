"""The crash flight recorder: a per-process black box.

Aircraft-style last-seconds capture for the pipeline: every process
keeps one bounded, lock-light ring of recent observations — finished
trace spans, queue depths, supervision notes — and dumps it as
``flightrecorder-<proc>.json`` when something dies:

* the integrity guard quarantines a rotten segment;
* a serve-path circuit breaker opens;
* the writer stage hits an unhandled error.

The ring itself is a ``collections.deque`` with ``maxlen`` — appends
are atomic under the GIL, so :meth:`FlightRecorder.note` takes no lock
on the hot path and costs one small dict allocation.  Dumping walks a
snapshot under a lock (rare, already on a failure path).

Dumps are *diagnostic* artifacts: their content carries wall-clock
timestamps and live metric values and is **not** part of the archive's
byte-identity contract.

The module keeps one process-global recorder (:func:`recorder`),
re-created after a fork so a child never inherits its parent's ring.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional

#: Dump file name pattern; ``<proc>`` is the recorder's process role.
DUMP_PREFIX = "flightrecorder-"


def dump_filename(proc: str) -> str:
    return f"{DUMP_PREFIX}{proc}.json"


class FlightRecorder:
    """One process's bounded black-box ring."""

    def __init__(self, proc: str = "", capacity: int = 256):
        self.proc = proc or f"pid{os.getpid()}"
        self.pid = os.getpid()
        self.capacity = max(8, capacity)
        self._ring: Deque[Dict[str, object]] = \
            deque(maxlen=self.capacity)
        self._dump_lock = threading.Lock()
        self._last_metrics: Dict[str, float] = {}
        self.dumps = 0
        self._dump_counter = None       # bound lazily via bind_registry

    def bind_registry(self, registry) -> None:
        """Count dumps in the given metrics registry."""
        self._dump_counter = registry.counter(
            "repro_flightrecorder_dumps_total",
            "Flight-recorder dumps written, by trigger reason.",
            labels=("reason",))

    # -- the hot path --------------------------------------------------------

    def note(self, kind: str, **payload) -> None:
        """Append one observation; lock-free (atomic deque append)."""
        entry = {"t": time.time(), "kind": kind}
        entry.update(payload)
        self._ring.append(entry)

    # -- dumping -------------------------------------------------------------

    def snapshot(self) -> List[Dict[str, object]]:
        """Ring contents, oldest first (a copy)."""
        return list(self._ring)

    def dump(self, directory: str, reason: str,
             registry=None,
             queues: Optional[Dict[str, object]] = None) -> str:
        """Write ``flightrecorder-<proc>.json`` into ``directory``.

        Repeated dumps overwrite: the file always holds the *latest*
        black box.  Returns the written path.
        """
        document: Dict[str, object] = {
            "process": self.proc,
            "pid": self.pid,
            "reason": reason,
            "captured_at": time.time(),
            "entries": self.snapshot(),
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
        path = os.path.join(directory, dump_filename(self.proc))
        with self._dump_lock:
            tmp = f"{path}.tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(document, handle, sort_keys=True,
                          default=str)
                handle.write("\n")
            os.replace(tmp, path)
            self.dumps += 1
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
