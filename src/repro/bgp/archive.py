"""Rolling MRT archives: how the platform publishes collected data (§9).

RIS and RouteViews publish update files covering fixed wall-clock
intervals (5 and 15 minutes respectively) plus periodic RIB dumps.
:class:`RollingArchiveWriter` reproduces that layout: retained updates
are appended to the archive of their interval; closed intervals are
flushed to ``updates.<start>-<end>.mrt[.bz2]`` files under the archive
directory, and an index lets consumers locate the file for any time.
"""

from __future__ import annotations

import json
import math
import os
import time as time_mod
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, \
    Optional, Sequence, Tuple

from ..guard.integrity import SealedJournal, file_digests, fsync_path, \
    verify_file
from .message import BGPUpdate
from .mrt import MRTError, RIBRecord, encode_rib_entry, encode_update, \
    iter_archive, read_archive, write_records
from .prefix import Prefix
from .rib import Route

#: RIS publishes 5-minute update files; RV publishes 15-minute files.
RIS_INTERVAL_S = 300.0
RV_INTERVAL_S = 900.0

#: Manifest file of a checkpointed archive directory.
CHECKPOINT_NAME = "CHECKPOINT.json"

#: Suffix of the per-segment query index persisted next to a segment
#: (see :mod:`repro.query.index` for the format).
INDEX_SUFFIX = ".idx"

#: Called after a segment seals: ``(segment, index_build_seconds)``.
#: The second argument is None when indexing is disabled.
SealHook = Callable[["ArchiveSegment", Optional[float]], None]


@dataclass(frozen=True)
class ArchiveSegment:
    """One published update file.

    ``size``/``crc32``/``sha256`` fingerprint the file's bytes as
    sealed; readers verify against them and quarantine mismatches
    (:mod:`repro.guard`).  They are None for segments from archives
    written before checksumming existed — those verify vacuously.
    """

    start: float
    end: float
    path: str
    count: int
    size: Optional[int] = None
    crc32: Optional[str] = None
    sha256: Optional[str] = None


class Manifest(NamedTuple):
    """A directory's ``CHECKPOINT.json`` as :func:`read_manifest`
    read it; ``journal.tail()`` follows the writer's later lines."""

    segments: List[ArchiveSegment]
    interval_s: float
    compress: bool
    journal: SealedJournal


def _segment_line(segment: ArchiveSegment) -> dict:
    return {"start": segment.start, "count": segment.count,
            "file": os.path.basename(segment.path), "size": segment.size,
            "crc32": segment.crc32, "sha256": segment.sha256,
            "watermark": segment.end}


def segment_of(directory: str, line: dict) -> ArchiveSegment:
    """The segment a manifest line of ``directory`` publishes."""
    return ArchiveSegment(line["start"], line["watermark"],
                          os.path.join(directory, line["file"]),
                          line["count"], size=line.get("size"),
                          crc32=line.get("crc32"), sha256=line.get("sha256"))


def read_manifest(directory: str) -> Optional[Manifest]:
    """Read a directory's ``CHECKPOINT.json``, never writing to it.

    It is a :class:`~repro.guard.integrity.SealedJournal`: a header
    line (``interval_s``, ``compress``), then one :func:`_segment_line`
    per published segment, whose ``watermark`` is the segment's end.
    Archives from before the journal hold one JSON document (an
    ``end`` per entry); it reads the same until
    :meth:`RollingArchiveWriter.recover` converts it.  Returns None
    when the directory has no manifest; an unreadable one raises
    ``OSError`` or ``ValueError``, and what that means is the caller's
    policy.
    """
    path = os.path.join(directory, CHECKPOINT_NAME)
    if not os.path.exists(path):
        return None
    journal = SealedJournal(path, fsync=True)
    header, *lines = journal.load()[0] or [None]
    if header is None:
        # The single document older writers rewrote at every seal.
        with open(path, encoding="utf-8") as handle:
            header = json.load(handle)
            journal.offset = os.fstat(handle.fileno()).st_size
        if not isinstance(header, dict) or "segments" not in header:
            raise ValueError(f"{path}: not a manifest")
        lines = [dict(entry, watermark=entry["end"])
                 for entry in header["segments"]]
    if "interval_s" not in header:
        raise ValueError(f"{path}: no manifest header")
    return Manifest([segment_of(directory, line) for line in lines],
                    header["interval_s"], bool(header.get("compress", True)),
                    journal)


@dataclass(frozen=True)
class RecoveryReport:
    """What :meth:`RollingArchiveWriter.recover` found and fixed."""

    #: Time up to which the archive is durable (exclusive); None when
    #: no segment survived.  Resume feeds updates at or after this.
    watermark: Optional[float]
    #: Segments that survived recovery.
    segments: int
    #: Torn segment files that were deleted (on disk, not in manifest).
    torn_removed: Tuple[str, ...]
    #: Buffered updates of the open interval, and of segments sealed
    #: but never published, discarded by recovery.
    lost_pending: int
    #: Orphaned per-segment index files deleted (their segment is gone
    #: or was never manifested; the query engine rebuilds lazily).
    index_orphans: Tuple[str, ...] = ()


class RollingArchiveWriter:
    """Write retained updates into per-interval MRT files.

    Updates must arrive in nondecreasing time order (the platform's
    natural ordering).  An interval's file is written when the first
    update of a *later* interval arrives, or on :meth:`close`.

    With ``checkpoint=True`` every flushed segment is fsync'd and then
    published by one fsync'd line appended to the directory's
    ``CHECKPOINT.json`` manifest (:func:`read_manifest`; the writer's
    first publish creates the file whole, replacing any earlier one),
    making the archive crash-consistent: after any crash,
    :meth:`recover` deletes torn segment files (on disk but not in the
    manifest), drops a corrupt trailing segment, and rewinds the writer
    to the last durable watermark so an interrupted collection epoch
    can resume exactly there.  A recovered archive keeps the segment
    interval and encoding its manifest records: ``interval_s`` and
    ``compress`` apply only to a new archive.

    :meth:`seal` splits a flush in two for a caller that must make
    something else durable in between: it seals the open interval
    early (file, index, seal listeners) and holds the segment back
    from :attr:`segments` and the manifest until :meth:`publish`.
    """

    def __init__(self, directory: str,
                 interval_s: float = RIS_INTERVAL_S,
                 compress: bool = True,
                 checkpoint: bool = False,
                 index: bool = False):
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        self.directory = directory
        self.interval_s = interval_s
        self.compress = compress
        self.checkpoint_enabled = checkpoint
        #: Build the query index for every segment at seal time, from
        #: the updates just encoded (no read-back), so the archive is
        #: servable with no lazy-indexing first-query cost
        #: (:mod:`repro.query`).
        self.index_enabled = index
        #: Seal subscribers, called in registration order after a
        #: segment is durable — and its checkpoint too, except when
        #: :meth:`seal` holds it back.
        self._seal_listeners: List[SealHook] = []
        #: Build time of the most recently sealed segment's index.
        self.last_index_build_s: Optional[float] = None
        self.segments: List[ArchiveSegment] = []
        # Sealed by seal() but not yet published.
        self._held: List[ArchiveSegment] = []
        # Segment start times, for bisection: segments are flushed in
        # time order, so ``_starts`` is strictly increasing.
        self._starts: List[float] = []
        # The manifest; its inode stays None until this writer creates
        # or recovers the file.
        self._manifest = SealedJournal(self.checkpoint_path, fsync=True)
        self._pending: List[BGPUpdate] = []
        self._current_slot: Optional[int] = None
        self._last_time: Optional[float] = None
        os.makedirs(directory, exist_ok=True)

    def add_seal_listener(self, hook: SealHook) -> None:
        """Subscribe to segment seals (index metrics, event pipeline,
        mirrors — any number of consumers coexist; no wrapper hacks)."""
        self._seal_listeners.append(hook)

    def remove_seal_listener(self, hook: SealHook) -> None:
        """Unsubscribe a previously added seal hook (no-op if absent)."""
        try:
            self._seal_listeners.remove(hook)
        except ValueError:
            pass

    @property
    def seal_listeners(self) -> Tuple[SealHook, ...]:
        return tuple(self._seal_listeners)

    @property
    def checkpoint_path(self) -> str:
        return os.path.join(self.directory, CHECKPOINT_NAME)

    @property
    def durable_watermark(self) -> Optional[float]:
        """End of the last checkpointed segment (exclusive), if any."""
        return self.segments[-1].end if self.segments else None

    def _slot(self, time: float) -> int:
        return int(math.floor(time / self.interval_s))

    def _segment_path(self, slot: int) -> str:
        start = int(slot * self.interval_s)
        end = int((slot + 1) * self.interval_s)
        suffix = ".mrt.bz2" if self.compress else ".mrt"
        return os.path.join(self.directory,
                            f"updates.{start:012d}-{end:012d}{suffix}")

    def write(self, update: BGPUpdate) -> Optional[ArchiveSegment]:
        """Append one update; returns a segment if one was flushed."""
        if self._last_time is not None and update.time < self._last_time:
            raise ValueError("updates must be time-ordered")
        self._last_time = update.time
        slot = self._slot(update.time)
        flushed = None
        if self._current_slot is not None and slot != self._current_slot:
            flushed = self._flush()
        self._current_slot = slot
        self._pending.append(update)
        return flushed

    def write_stream(self, updates: Iterable[BGPUpdate]
                     ) -> List[ArchiveSegment]:
        segments = []
        for update in updates:
            segment = self.write(update)
            if segment is not None:
                segments.append(segment)
        return segments

    def _flush(self) -> Optional[ArchiveSegment]:
        sealed = self._seal_file()
        self.publish()
        if sealed is None:
            return None
        segment, build_s = sealed
        for hook in list(self._seal_listeners):
            hook(segment, build_s)
        return segment

    def seal(self) -> Optional[ArchiveSegment]:
        """Seal the open interval now, before a later interval's first
        update arrives; returns the segment (None when nothing is
        pending).

        The file, its index and the seal listeners run here; the
        segment joins :attr:`segments` and the manifest only at
        :meth:`publish` (or the next flush).  Later writes must be at
        or after the segment's end.
        """
        sealed = self._seal_file()
        if sealed is None:
            return None
        segment, build_s = sealed
        self._last_time = max(self._last_time, segment.end)
        for hook in list(self._seal_listeners):
            hook(segment, build_s)
        return segment

    def publish(self) -> None:
        """Publish the segments :meth:`seal` held back: append them to
        :attr:`segments` and, with checkpointing, to the manifest."""
        if not self._held:
            return
        held, self._held = self._held, []
        self.segments.extend(held)
        self._starts.extend(segment.start for segment in held)
        # A segment's line follows its durable file, so a crash between
        # the two leaves a torn file that recovery identifies and
        # deletes.
        if self.checkpoint_enabled and self._manifest.inode is None:
            self._write_manifest()
        elif self.checkpoint_enabled:
            for segment in held:
                self._manifest.append(_segment_line(segment))

    def _seal_file(self
                   ) -> Optional[Tuple[ArchiveSegment, Optional[float]]]:
        """Write, fingerprint and index the open interval, and hold
        the segment for :meth:`publish`."""
        if not self._pending or self._current_slot is None:
            return None
        path = self._segment_path(self._current_slot)
        records = [encode_update(update) for update in self._pending]
        write_records(records, path, self.compress)
        if self.checkpoint_enabled:
            fsync_path(path)
            fsync_path(self.directory)      # its name, before its line
        # Fingerprint the sealed bytes so every future read can prove
        # the file is still what we wrote (repro.guard).
        digests = file_digests(path)
        segment = ArchiveSegment(
            self._current_slot * self.interval_s,
            (self._current_slot + 1) * self.interval_s,
            path, len(records),
            size=digests.size, crc32=digests.crc32, sha256=digests.sha256,
        )
        build_s = None
        if self.index_enabled:
            build_s = self._build_index(segment, records)
        self._held.append(segment)
        self._pending = []
        return segment, build_s

    def _build_index(self, segment: ArchiveSegment,
                     records: List[bytes]) -> float:
        """Index and persist the segment from the updates just encoded
        (a record's offset is the sum of the lengths before it), with
        no read-back; returns the build time in seconds."""
        # Imported lazily: repro.query depends on this module, and the
        # index is only needed when indexing was requested.
        from ..query.index import index_records

        started = time_mod.perf_counter()
        offsets = accumulate(map(len, records), initial=0)
        index_records(zip(offsets, self._pending), segment.size) \
            .save(segment.path)
        self.last_index_build_s = time_mod.perf_counter() - started
        return self.last_index_build_s

    def close(self) -> Optional[ArchiveSegment]:
        """Flush the open interval (end of collection)."""
        segment = self._flush()
        self._current_slot = None
        return segment

    # -- crash consistency --------------------------------------------------

    def _write_manifest(self) -> None:
        """Create the manifest whole, listing :attr:`segments`."""
        self._manifest.replace(
            [{"interval_s": self.interval_s, "compress": self.compress}]
            + [_segment_line(segment) for segment in self.segments])

    def recover(self) -> RecoveryReport:
        """Restore the crash-consistent on-disk state and rewind.

        The manifest is the source of truth: any ``updates.*`` file on
        disk that it does not list is a torn write and is deleted; a
        manifest entry whose file is missing or unparseable truncates
        the manifest there.  Buffered updates of the open interval are
        discarded (they were never durable) and counted in the report.
        The writer itself is rewound to the durable watermark, so the
        next ``write`` may carry any time at or after it, and takes the
        manifest's segment interval and encoding, so the segments it
        writes next continue the archive as it was written.
        """
        if not self.checkpoint_enabled:
            raise RuntimeError(
                "recover() requires a checkpointed archive "
                "(checkpoint=True); refusing to delete segments of an "
                "unmanaged directory")
        manifest = read_manifest(self.directory)
        if manifest is not None:
            self.interval_s = manifest.interval_s
            self.compress = manifest.compress
        # Truncate at the first missing or corrupt segment.  Only the
        # last entry can legitimately be damaged (earlier ones were
        # durable before it was manifested), but verify pessimistically.
        durable: List[ArchiveSegment] = []
        for segment in manifest.segments if manifest is not None else ():
            if not os.path.exists(segment.path) \
                    or not self._verifies(segment):
                break
            durable.append(segment)
        listed = {os.path.basename(s.path) for s in durable}
        torn: List[str] = []
        orphans: List[str] = []
        for name in sorted(os.listdir(self.directory)):
            if not name.startswith("updates."):
                continue
            if name.endswith(INDEX_SUFFIX):
                # A query index is an orphan when its segment did not
                # survive recovery — serving it would answer queries
                # from deleted (torn or truncated) data.
                if name[:-len(INDEX_SUFFIX)] not in listed:
                    os.remove(os.path.join(self.directory, name))
                    orphans.append(name)
            elif name not in listed:
                os.remove(os.path.join(self.directory, name))
                torn.append(name)
        lost = len(self._pending) + sum(s.count for s in self._held)
        self._held = []
        self.segments = durable
        self._starts = [s.start for s in durable]
        self._pending = []
        self._current_slot = None
        self._last_time = self.durable_watermark
        if manifest is not None and not manifest.journal.torn \
                and len(durable) == len(manifest.segments):
            self._manifest = manifest.journal       # appended to as is
        else:
            # Lines past the durable prefix, a torn line, an old
            # single-document manifest or none: write it whole, once.
            self._write_manifest()
        return RecoveryReport(self.durable_watermark, len(durable),
                              tuple(torn), lost, tuple(orphans))

    def _verifies(self, segment: ArchiveSegment) -> bool:
        """Is a manifested segment's file still what was sealed?

        With recorded digests this catches silent corruption a parse
        cannot — a bit flip inside a record body leaves the framing
        valid but changes the CRC.  Pre-checksum manifests fall back
        to the parse check.
        """
        if segment.crc32 is not None or segment.size is not None:
            return verify_file(segment.path, size=segment.size,
                               crc32=segment.crc32) is None
        return self._parses(segment.path)

    def _parses(self, path: str) -> bool:
        try:
            read_archive(path)
            return True
        except (OSError, EOFError, ValueError, MRTError):
            return False

    # -- consumer side ----------------------------------------------------

    def segment_for(self, time: float) -> Optional[ArchiveSegment]:
        """The published segment covering ``time``, if any."""
        index = bisect_right(self._starts, time) - 1
        if index >= 0 and time < self.segments[index].end:
            return self.segments[index]
        return None

    # -- RIB dumps ----------------------------------------------------------

    def write_rib_dump(self, time: float,
                       ribs: Dict[str, Sequence[Route]]) -> str:
        """Publish a full RIB snapshot (platforms dump every 8h, §8).

        ``ribs`` maps VP names to their routes; the file is named
        ``rib.<time>.mrt[.bz2]`` next to the update segments.
        """
        suffix = ".mrt.bz2" if self.compress else ".mrt"
        path = os.path.join(self.directory,
                            f"rib.{int(time):012d}{suffix}")
        write_records((encode_rib_entry(vp, route)
                       for vp in sorted(ribs)
                       for route in ribs[vp]),
                      path, self.compress)
        return path

    def iter_rib_dump(self, path: str) -> Iterator[RIBRecord]:
        """Stream a published RIB snapshot entry by entry.

        Unlike :meth:`read_rib_dump` this never materializes the whole
        snapshot: decompression and decoding are incremental, so a
        multi-gigabyte dump costs one record of memory at a time.
        """
        for record in iter_archive(path):
            if isinstance(record, RIBRecord):
                yield record

    def read_rib_dump(self, path: str) -> Dict[str, List[Route]]:
        """Read back a published RIB snapshot."""
        ribs: Dict[str, List[Route]] = {}
        for record in self.iter_rib_dump(path):
            ribs.setdefault(record.vp, []).append(record.route)
        return ribs

    def read_range(self, start: float, end: float,
                   prefix: Optional[Prefix] = None,
                   vp: Optional[str] = None) -> List[BGPUpdate]:
        """Replay published updates with time in [start, end).

        ``prefix`` and ``vp`` push the filter predicate into the
        decode loop: non-matching records are discarded as they stream
        off disk instead of being accumulated and filtered by the
        caller.  With no filter the behaviour (and result order) is
        exactly the historical full scan.
        """
        updates: List[BGPUpdate] = []
        # Bisect to the first segment that can overlap [start, end);
        # segments are start-ordered, so stop at the first past ``end``.
        first = max(0, bisect_right(self._starts, start) - 1)
        for segment in self.segments[first:]:
            if segment.start >= end:
                break
            if segment.end <= start:
                continue
            for record in iter_archive(segment.path):
                if isinstance(record, BGPUpdate) \
                        and start <= record.time < end \
                        and (prefix is None or record.prefix == prefix) \
                        and (vp is None or record.vp == vp):
                    updates.append(record)
        updates.sort(key=lambda u: (u.time, u.vp, u.prefix))
        return updates
