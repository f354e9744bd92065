"""The integrity guard: quarantine bookkeeping for one archive directory.

One :class:`IntegrityGuard` instance is shared by everything that
reads an archive directory — the query engine's decode path, the
events replay, the background scrubber, the ``/readyz`` endpoint.
When any of them finds a segment whose bytes disagree with the
manifest digests, the guard:

* moves the segment file (and its ``.idx`` sidecar) into
  ``quarantine/`` under the archive directory, so it can never be
  served again but an operator can still inspect it;
* bumps the ``repro_guard_*`` metric families;
* dumps this process's flight recorder
  (:mod:`repro.telemetry.blackbox`) next to the archive, so the black
  box shows what the reader was doing when it found the rot;
* journals an ``integrity`` incident into the events store (when one
  is attached) with the dump file as evidence, so quarantines surface
  on ``/events`` next to hijacks and outages.

Quarantine state is rebuilt from the ``quarantine/`` directory on
construction, so a restarted server remembers what a previous process
condemned.  All methods are thread-safe; quarantining the same
segment twice is a no-op (first caller wins), which is what makes it
safe for the scrubber and a concurrent query to race on the same
corrupt file.
"""

from __future__ import annotations

import os
import threading
from typing import Optional, Tuple

from ..telemetry import MetricsRegistry
from ..telemetry.blackbox import recorder

#: Sub-directory of the archive dir where condemned segments go.
QUARANTINE_DIR = "quarantine"

#: Sidecar index suffix (mirrors repro.bgp.archive.INDEX_SUFFIX; kept
#: literal here to avoid importing the archive module).
_INDEX_SUFFIX = ".idx"


def quarantine_dir_for(directory: str) -> str:
    return os.path.join(directory, QUARANTINE_DIR)


class IntegrityGuard:
    """Quarantine + verification bookkeeping for one archive directory."""

    def __init__(self, directory: str,
                 registry: Optional[MetricsRegistry] = None,
                 events=None):
        self.directory = directory
        self.events = events
        #: Serialises quarantining (first caller wins).
        self._lock = threading.Lock()
        #: Names of the condemned files.  Replaced, never mutated, so a
        #: reader needs no lock.
        self._quarantined: frozenset = frozenset()
        registry = registry if registry is not None else MetricsRegistry()
        self.registry = registry
        self._verifications = registry.counter(
            "repro_guard_verifications_total",
            "Segment integrity verifications, by outcome.",
            labels=("outcome",))
        # Resolved on the first verified read, not here, so a guard
        # that never verified lists no ``outcome="ok"`` sample.
        self._verified_ok = None
        self._quarantines = registry.counter(
            "repro_guard_quarantined_total",
            "Segments quarantined, by mismatch reason.",
            labels=("reason",))
        self._quarantined_gauge = registry.gauge(
            "repro_guard_quarantined_segments",
            "Segments currently in quarantine.")
        # Remember what a previous process already condemned.
        qdir = quarantine_dir_for(directory)
        if os.path.isdir(qdir):
            self._quarantined = frozenset(
                name for name in os.listdir(qdir)
                if not name.endswith(_INDEX_SUFFIX))
        self._quarantined_gauge.set(float(len(self._quarantined)))

    # -- verification accounting ---------------------------------------------

    def verification_ok(self, count: int = 1) -> None:
        """Count ``count`` verified segment reads (the serve path
        counts a request's reads at once)."""
        # Resolve the child once (racing threads resolve the same one).
        child = self._verified_ok
        if child is None:
            child = self._verified_ok = \
                self._verifications.labels(outcome="ok")
        child.inc(count)

    def verification_failed(self) -> None:
        self._verifications.labels(outcome="mismatch").inc()

    # -- quarantine ----------------------------------------------------------

    def is_quarantined(self, path: str) -> bool:
        # Asked before every segment read: no lock, and no basename
        # while nothing is quarantined.
        names = self._quarantined
        return bool(names) and os.path.basename(path) in names

    @property
    def quarantined(self) -> Tuple[str, ...]:
        return tuple(sorted(self._quarantined))

    @property
    def degraded(self) -> bool:
        return bool(self._quarantined)

    def quarantine(self, path: str, reason: str,
                   watermark: Optional[float] = None) -> bool:
        """Condemn one segment file.  Returns False when it already was
        (the race-loser's move is skipped, metrics stay single-counted).
        """
        name = os.path.basename(path)
        with self._lock:
            if name in self._quarantined:
                return False
            self._quarantined = self._quarantined | {name}
            self.verification_failed()
            self._quarantines.labels(reason=reason).inc()
            self._quarantined_gauge.set(float(len(self._quarantined)))
            self._move_aside(path, name)
        dump = self._dump_flight(name, reason)
        self._journal_incident(name, reason, watermark, dump)
        return True

    def _dump_flight(self, name: str, reason: str) -> Optional[str]:
        """Black-box the quarantine: the serve/replay process's last
        seconds often show *how* the rot was found (which query, which
        scrub pass).  Returns the dump's basename, or None when the
        disk refused."""
        box = recorder()
        box.note("quarantine", segment=name, reason=reason)
        try:
            path = box.dump(self.directory,
                            reason=f"quarantine {name}",
                            registry=self.registry)
        except OSError:
            return None
        return os.path.basename(path)

    def _move_aside(self, path: str, name: str) -> None:
        qdir = quarantine_dir_for(self.directory)
        try:
            os.makedirs(qdir, exist_ok=True)
            if os.path.exists(path):
                os.replace(path, os.path.join(qdir, name))
            # The sidecar indexed the bytes we just condemned: it goes
            # too, so a lazily-rebuilding reader can't resurrect it.
            sidecar = path + _INDEX_SUFFIX
            if os.path.exists(sidecar):
                os.replace(sidecar, os.path.join(qdir, name + _INDEX_SUFFIX))
        except OSError:
            # Quarantine is best-effort on a failing disk; the in-memory
            # set still guarantees the segment is never served.
            pass

    def _journal_incident(self, name: str, reason: str,
                          watermark: Optional[float],
                          dump: Optional[str] = None) -> None:
        if self.events is None:
            return
        from ..events.model import Detection, Event, EventState
        when = watermark if watermark is not None else 0.0
        extra = {"segment": name, "reason": reason}
        if dump is not None:
            extra["flightrecorder"] = dump
        detection = Detection.derived("guard", when, extra=extra)
        event = Event(
            id=f"guard-{name}",
            type="integrity",
            state=EventState.NEW,
            first_seen=when,
            last_seen=when,
            detectors=["guard"],
            types=["integrity"],
            score=1.0,
            segments=1,
            evidence=[detection],
        )
        try:
            self.events.apply(event, watermark=when)
        except Exception:
            # An unwritable events journal must not block quarantine.
            pass

    # -- status --------------------------------------------------------------

    def status(self) -> dict:
        names = self._quarantined
        return {"degraded": bool(names), "quarantined": sorted(names)}
