"""The gill drop journal: per-segment filter accounting on disk.

Every archive slot the filter completes gets exactly one JSONL record
(`gill.jsonl` next to the segments) carrying the kept/dropped counts,
the per-(VP, definition) drop breakdown, the anchor keep-list in force,
and the per-VP value/redundancy scores from the most recent rescore.
The record for slot *k* is written when the first slot-*k+1* candidate
arrives — strictly before the archive seals segment *k* (which happens
at the first slot-*k+1* *write*) — so a crash between the two leaves a
journal record whose segment the archive later truncates.  Loading with
``truncate_beyond=archive.durable_watermark`` (the same contract as
:meth:`repro.events.EventStore.load`) drops exactly those records, and
replaying the recovered archive regenerates them byte-identically.

Records are ``json.dumps(..., sort_keys=True)`` lines so byte-for-byte
comparison across runs is meaningful; a torn final line (crash mid
append) is tolerated and discarded on load.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Union

from ..guard.integrity import SealedJournal, seal_record

#: File name of the drop journal inside an archive directory.
JOURNAL_NAME = "gill.jsonl"


def gill_journal_path_for(archive_dir: Union[str, os.PathLike]) -> str:
    """The conventional journal path for an archive directory."""
    return os.path.join(os.fspath(archive_dir), JOURNAL_NAME)


class GillJournal:
    """Append-only JSONL journal of per-slot filter records.

    With ``path=None`` the journal is memory-only (tests, ad-hoc runs);
    otherwise every :meth:`append` durably adds one line.  Thread-safe:
    the writer thread appends while a serving thread reads.
    """

    def __init__(self, path: Optional[Union[str, os.PathLike]] = None):
        self.path = os.fspath(path) if path is not None else None
        # fsync per record: slot k's record must be durable before the
        # archive seals segment k (module docstring).
        self._file = SealedJournal(self.path, fsync=True) \
            if self.path is not None else None
        self._lock = threading.RLock()
        self._records: List[dict] = []

    # -- writing --------------------------------------------------------------

    def append(self, record: dict) -> None:
        with self._lock:
            # Sealed (CRC-carrying) both in memory and on disk, so a
            # reloaded journal equals the in-memory one byte for byte
            # and a flipped byte on disk is caught at load time.
            self._records.append(self._file.append(record)
                                 if self._file is not None
                                 else seal_record(record))

    # -- loading --------------------------------------------------------------

    def load(self, truncate_beyond: Optional[float] = None) -> int:
        """(Re)load the journal from disk; returns records dropped
        (the truncate / torn-tail contract is
        :meth:`~repro.guard.integrity.SealedJournal.load`)."""
        with self._lock:
            if self._file is None:
                self._records = []
                return 0
            self._records, dropped = self._file.load(truncate_beyond)
            return dropped

    # -- reading --------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    @property
    def records(self) -> List[dict]:
        with self._lock:
            return list(self._records)

    def last(self) -> Optional[dict]:
        with self._lock:
            return self._records[-1] if self._records else None

    def last_watermark(self) -> float:
        """Watermark of the newest record (−inf when empty)."""
        record = self.last()
        if record is None:
            return float("-inf")
        return float(record.get("watermark", float("-inf")))

    def vp_scores(self) -> Dict[str, dict]:
        """Per-VP score rows from the newest record ({} when none).

        This is the serving-side accessor: ``repro-bgp serve`` attaches
        a journal loaded from a finished archive and answers ``/vps``
        score queries from the last rescore without running a filter.
        """
        record = self.last()
        if record is None:
            return {}
        return dict(record.get("scores", {}))

    def totals(self) -> Dict[str, int]:
        """Aggregate kept/dropped counts across all records."""
        with self._lock:
            kept = sum(int(r.get("kept", 0)) for r in self._records)
            dropped = sum(int(r.get("dropped", 0)) for r in self._records)
        return {"kept": kept, "dropped": dropped}
