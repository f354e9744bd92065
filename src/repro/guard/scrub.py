"""Background and on-demand archive scrubbing.

The read path only verifies segments a query actually touches; cold
segments could rot unnoticed for months.  The scrubber closes that
gap the way production storage systems do: a slow, rate-limited sweep
that re-digests one segment per tick, quarantining mismatches through
the same :class:`~repro.guard.manager.IntegrityGuard` the hot path
uses.

Two entry points:

* :func:`scrub_directory` — one full synchronous pass (the
  ``repro-bgp scrub`` CLI, tests, CI);
* :class:`Scrubber` — a daemon thread stepping one segment per
  ``interval_s``, meant to run on the archive's segment cadence so a
  full sweep costs about one segment-write of I/O per segment sealed.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from . import integrity
from .manager import IntegrityGuard


@dataclass
class ScrubReport:
    """What one synchronous scrub pass found."""

    checked: int = 0
    intact: int = 0
    skipped: int = 0                 # already quarantined before the pass
    quarantined: List[Tuple[str, str]] = field(default_factory=list)
    indexes_rebuilt: int = 0
    duration_s: float = 0.0

    @property
    def clean(self) -> bool:
        return not self.quarantined


def _catalog_segments(directory: str):
    # Imported lazily: repro.query imports repro.guard for Deadline,
    # so the reverse import has to happen at call time.
    from ..query.engine import DirectoryCatalog
    return DirectoryCatalog(directory).segments()


def _verify_segment(segment) -> Optional[str]:
    """Mismatch reason for one segment, or None when intact.

    Segments with manifest digests are verified against them
    (sha256 included — a scrub is the strong pass); segments from
    pre-checksum archives fall back to a full parse.
    """
    if segment.crc32 is not None or segment.sha256 is not None:
        return integrity.verify_file(segment.path, size=segment.size,
                                     crc32=segment.crc32,
                                     sha256=segment.sha256)
    try:
        from ..bgp.archive import read_archive
        read_archive(segment.path)
    except OSError:
        return "missing"
    except Exception:
        return "parse"
    return None


def scrub_directory(directory: str,
                    guard: Optional[IntegrityGuard] = None,
                    rebuild_indexes: bool = True,
                    registry=None,
                    events=None) -> ScrubReport:
    """Verify every manifest segment in ``directory`` once.

    Mismatching segments are quarantined via ``guard`` (one is created
    if not supplied).  With ``rebuild_indexes``, intact segments whose
    sidecar index is missing, stale or torn get a fresh one — the
    self-healing half of the sweep.
    """
    started = time.monotonic()
    if guard is None:
        guard = IntegrityGuard(directory, registry=registry, events=events)
    segments = _catalog_segments(directory)
    report = ScrubReport()
    for segment in segments:
        if guard.is_quarantined(segment.path):
            report.skipped += 1
            continue
        report.checked += 1
        reason = _verify_segment(segment)
        if reason is not None:
            guard.quarantine(segment.path, reason, watermark=segment.end)
            report.quarantined.append((os.path.basename(segment.path),
                                       reason))
            continue
        guard.verification_ok()
        report.intact += 1
        if rebuild_indexes and _heal_index(segment):
            report.indexes_rebuilt += 1
    report.duration_s = time.monotonic() - started
    return report


def _heal_index(segment) -> bool:
    """Rebuild a missing/stale/torn sidecar for an intact segment."""
    from ..query.index import build_index, load_index
    if load_index(segment.path) is not None:
        return False
    try:
        build_index(segment.path, persist=True)
    except Exception:
        return False
    return True


class Scrubber:
    """Rate-limited background sweep: one segment per ``interval_s``.

    The thread re-lists the manifest each tick (the archive may be
    growing underneath it) and walks segments round-robin, so a full
    pass over N segments takes N ticks — on the segment cadence that
    means scrub I/O tracks write I/O one-to-one.
    """

    def __init__(self, directory: str,
                 guard: IntegrityGuard,
                 interval_s: float = 300.0,
                 registry=None):
        self.directory = directory
        self.guard = guard
        self.interval_s = max(0.05, interval_s)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._cursor = 0
        registry = registry if registry is not None else guard.registry
        self._scrubbed = registry.counter(
            "repro_guard_scrub_segments_total",
            "Segments examined by the background scrubber.")

    def start(self) -> "Scrubber":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(target=self._run,
                                        name="guard-scrubber", daemon=True)
        self._thread.start()
        return self

    def stop(self, timeout_s: float = 2.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout_s)
            self._thread = None

    def step(self) -> Optional[str]:
        """Verify the next segment in the rotation (also used directly
        by tests).  Returns the checked segment's basename, or None
        when the archive has no verifiable segment."""
        try:
            segments = _catalog_segments(self.directory)
        except Exception:
            return None
        live = [s for s in segments
                if not self.guard.is_quarantined(s.path)]
        if not live:
            return None
        if self._cursor >= len(live):
            self._cursor = 0
        segment = live[self._cursor]
        self._cursor += 1
        self._scrubbed.inc()
        reason = _verify_segment(segment)
        if reason is not None:
            self.guard.quarantine(segment.path, reason,
                                  watermark=segment.end)
        else:
            self.guard.verification_ok()
        return os.path.basename(segment.path)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.step()
            except Exception:
                # A scrub failure must never take the server down.
                continue
