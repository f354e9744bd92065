"""The query engine: planner + segment views + result cache.

:class:`QueryEngine` answers :class:`~repro.query.planner.QuerySpec`
lookups against either a live :class:`~repro.bgp.archive.
RollingArchiveWriter` (the pipeline's archive, still being appended
to) or a bare archive directory (a published dataset).  Execution:

1. **prune** — the planner bisects the segments to the time range
   and intersects it with the archive-level postings of each
   predicate key (:class:`~repro.query.planner.ArchivePostings`, kept
   from the segments' indexes, which are built lazily and persisted
   for pre-index archives): a segment whose key sets lack some
   predicate's key is never read, and no plan probes every index;
2. **read + verify** — every surviving segment is read and checked
   against the manifest's size/CRC32, on every request;
3. **select** — the :class:`SegmentView` of the bytes just verified
   evaluates the whole spec: time by bisection, the prefix/VP/origin
   predicates on per-segment value codes.  A view is built once per
   segment contents (decode, sort, render) and memoised while the
   file keeps the same size and CRC32;
4. **merge** — per-segment selections join in archive order — the
   exact ``(time, vp, prefix)`` order ``read_range`` uses — then the
   limit applies.

:meth:`QueryEngine.render` answers with slices of the views' rendered
``/updates`` elements: a request decodes and encodes nothing.
:meth:`QueryEngine.query` decodes exactly the selected records for
library callers and keeps its answers in an LRU keyed by the spec and
pinned to the archive's watermark token, so a live pipeline sealing a
new segment invalidates every cached answer instead of serving stale
data.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time as time_mod
from array import array
from bisect import bisect_left
from itertools import accumulate, pairwise
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, \
    Union

from ..bgp.archive import ArchiveSegment, Manifest, RollingArchiveWriter, \
    read_manifest, segment_of
from ..bgp.message import BGPUpdate
from ..bgp.mrt import MRTError, RIBRecord, decode_at, iter_archive, \
    iter_decoded, payload_of
from ..guard.integrity import crc32_of, mismatch_reason
from ..guard.manager import IntegrityGuard
from ..guard.serving import Deadline
from .cache import WatermarkLRUCache
from .index import SegmentIndex, ensure_index
from .planner import ArchivePostings, QueryPlan, QuerySpec
from .stats import QueryStats, QueryStatsSnapshot

#: View builds poll the request deadline every this many records, so
#: an expired request abandons a segment within milliseconds instead
#: of finishing a multi-second build it no longer has a client for.
_DEADLINE_STRIDE = 256

#: Byte budget of the segment-view memo.  A 5-minute segment's view is
#: ~200 KB (almost all of it rendered JSON), so this holds several
#: hours of them; an archive whose hot set is larger rebuilds LRU-cold
#: ones.
_PAYLOAD_CACHE_BYTES = 32 << 20

#: What follows every rendered ``/updates`` element — ``json.dumps``'
#: list separator, so a run of adjacent elements is one slice.
_SEPARATOR = b", "

_SEGMENT_RE = re.compile(r"^updates\.(\d+)-(\d+)\.mrt(\.bz2)?$")
_RIB_RE = re.compile(r"^rib\.(\d+)\.mrt(\.bz2)?$")

#: The cache token for an archive state: (watermark, segment count).
WatermarkToken = Tuple[Optional[float], int]

#: One segment's part of an answer: its view, the verified file bytes
#: it was selected under, and the selected view positions (ascending).
_Selection = Tuple["SegmentView", bytes, Sequence[int]]


def update_to_json(update: BGPUpdate) -> dict:
    """The ``/updates`` element of one update (docs/QUERY.md)."""
    return {
        "vp": update.vp,
        "time": update.time,
        "prefix": str(update.prefix),
        "as_path": list(update.as_path),
        "communities": sorted(list(c) for c in update.communities),
        "withdrawal": update.is_withdrawal,
    }


def _nbytes(*arrays: array) -> int:
    return sum(len(a) * a.itemsize for a in arrays)


class _Column:
    """One record attribute of a :class:`SegmentView`.

    ``codes[i]`` is record ``i``'s value as an index into ``table``
    (value -> code, in first-seen order); ``order[starts[c]:starts[c +
    1]]`` lists the records holding code ``c``, ascending — the
    segment's own postings, so a predicate costs a bisection, not a
    pass over every record.
    """

    __slots__ = ("table", "codes", "order", "starts")

    def __init__(self, values: List[object]):
        self.table: Dict[object, int] = {}
        codes = [self.table.setdefault(value, len(self.table))
                 for value in values]
        self.codes = array("H" if len(self.table) <= 1 << 16 else "I",
                           codes)
        self.order = array("I", sorted(range(len(codes)),
                                       key=codes.__getitem__))
        counts = [0] * len(self.table)
        for code in codes:
            counts[code] += 1
        self.starts = array("I", accumulate(counts, initial=0))

    @property
    def nbytes(self) -> int:
        return _nbytes(self.codes, self.order, self.starts)

    def count(self, code: int) -> int:
        return self.starts[code + 1] - self.starts[code]

    def positions(self, code: int, low: int, high: int) -> Sequence[int]:
        """Records in ``[low, high)`` holding ``code``, ascending."""
        first, last = self.starts[code], self.starts[code + 1]
        begin = bisect_left(self.order, low, first, last)
        return self.order[begin:bisect_left(self.order, high, begin, last)]


class SegmentView:
    """One verified segment, decoded, sorted and rendered once.

    Records are stable-sorted by ``(time, vp, prefix)`` and kept as
    arrays: times, payload offsets, and one :class:`_Column` each for
    VP, prefix and origin.  A view built with ``render`` also holds
    every record's ``json.dumps(update_to_json(u))`` followed by
    :data:`_SEPARATOR` in ``rendered``; record ``i`` spans
    ``bounds[i]`` to ``bounds[i + 1] - len(_SEPARATOR)``.  (Library
    queries decode their records instead and skip that half of the
    build.)  No decoded record outlives the build.
    """

    __slots__ = ("times", "offsets", "vp", "prefix", "origin",
                 "rendered", "bounds", "weight")

    def __init__(self, payload: bytes,
                 deadline: Optional[Deadline] = None,
                 render: bool = True):
        rows = []
        for count, (offset, record) in enumerate(iter_decoded(payload), 1):
            if deadline is not None and count % _DEADLINE_STRIDE == 0:
                deadline.check("mid segment decode")
            if isinstance(record, BGPUpdate):
                rows.append((record.time, record.vp, record.prefix,
                             offset, record))
        rows.sort(key=lambda row: row[:3])
        self.times = array("d", (row[0] for row in rows))
        self.offsets = array("Q", (row[3] for row in rows))
        self.vp = _Column([row[1] for row in rows])
        self.prefix = _Column([row[2] for row in rows])
        self.origin = _Column([row[4].origin_as for row in rows])
        #: Bytes retained: the arrays, and the buffer once rendered.
        self.weight = _nbytes(self.times, self.offsets) + sum(
            column.nbytes for column in (self.vp, self.prefix, self.origin))
        self.rendered: Optional[bytes] = None
        self.bounds: Optional[array] = None
        if render:
            self.bounds = array("Q", [0])
            chunks = []
            end = 0
            for count, row in enumerate(rows):
                if deadline is not None and count % _DEADLINE_STRIDE == 0:
                    deadline.check("mid segment render")
                chunk = json.dumps(update_to_json(row[4])).encode() \
                    + _SEPARATOR
                chunks.append(chunk)
                end += len(chunk)
                self.bounds.append(end)
            self.rendered = b"".join(chunks)
            self.weight += len(self.rendered) + _nbytes(self.bounds)

    def __len__(self) -> int:
        return len(self.times)

    def select(self, spec: QuerySpec) -> Sequence[int]:
        """Positions of the records ``spec.matches``, ascending — a
        ``range`` when only time constrains them.

        Time bisects.  Each predicate value becomes this segment's
        code for it (absent: nothing matches); the rarest code's
        postings, bisected to the time range, are the candidates, and
        the other predicates are checked on their codes.
        """
        low = bisect_left(self.times, spec.start)
        high = bisect_left(self.times, spec.end, low)
        matching = []
        for value, column in ((spec.prefix, self.prefix),
                              (spec.vp, self.vp),
                              (spec.origin, self.origin)):
            if value is not None:
                code = column.table.get(value)
                if code is None:
                    return ()
                matching.append((column.count(code), column, code))
        if not matching:
            return range(low, high)
        matching.sort(key=lambda match: match[0])
        _, column, code = matching[0]
        hits = column.positions(code, low, high)
        if len(matching) == 1:
            return hits
        return [position for position in hits
                if all(other.codes[position] == want
                       for _, other, want in matching[1:])]

    def parts(self, positions: Sequence[int]) -> List[memoryview]:
        """The rendered elements at ``positions``, as zero-copy slices
        to be joined by :data:`_SEPARATOR`: a ``range`` is one slice,
        because adjacent elements are already joined that way."""
        buffer = memoryview(self.rendered)
        bounds = self.bounds
        tail = len(_SEPARATOR)
        if isinstance(positions, range):
            if not positions:
                return []
            return [buffer[bounds[positions.start]:
                           bounds[positions.stop] - tail]]
        return [buffer[bounds[p]:bounds[p + 1] - tail] for p in positions]

    def sort_keys(self, positions: Sequence[int]
                  ) -> List[Tuple[float, str, object]]:
        """``(time, vp, prefix)`` of the records at ``positions``."""
        vps, prefixes = list(self.vp.table), list(self.prefix.table)
        return [(self.times[p], vps[self.vp.codes[p]],
                 prefixes[self.prefix.codes[p]]) for p in positions]


class _Reads:
    """One request's segment reads: view reuses, view builds, and
    reads verified against the manifest under a guard."""

    __slots__ = ("hits", "misses", "verified")

    def __init__(self) -> None:
        self.hits = self.misses = self.verified = 0


class WriterCatalog:
    """Catalog over a live (or closed) RollingArchiveWriter."""

    def __init__(self, writer: RollingArchiveWriter):
        self._writer = writer
        self.directory = writer.directory

    def segments(self) -> List[ArchiveSegment]:
        # list() snapshots under the GIL; the writer only appends.
        return list(self._writer.segments)

    def rib_dumps(self) -> List[Tuple[float, str]]:
        return _scan_rib_dumps(self.directory)


class DirectoryCatalog:
    """Catalog over a bare archive directory (no writer object).

    The checkpoint manifest is preferred when present (it is the
    source of truth for a crash-consistent archive); otherwise the
    directory listing is parsed.

    The manifest is read once, then followed: the writer publishes a
    segment by appending a line, so a call reads only the lines since
    the last one and extends the same list; the file is read whole
    again only when ``tail()`` says it was replaced (recovery).
    """

    def __init__(self, directory: str):
        if not os.path.isdir(directory):
            raise FileNotFoundError(f"no archive directory: {directory}")
        self.directory = directory
        #: The manifest as last read and followed; None when absent or
        #: unreadable (the next call reads it again).
        self._manifest: Optional[Manifest] = None
        # Handler threads and the scrubber share a catalog.
        self._lock = threading.Lock()

    def segments(self) -> List[ArchiveSegment]:
        with self._lock:
            manifest = self._manifest
            lines = manifest.journal.tail() if manifest is not None else None
            if lines is not None:
                manifest.segments.extend(segment_of(self.directory, line)
                                         for line in lines)
            else:
                try:
                    manifest = read_manifest(self.directory)
                except (OSError, ValueError):
                    manifest = None     # fall back to the listing
                self._manifest = manifest
            if manifest is not None:
                return list(manifest.segments)
        found: List[ArchiveSegment] = []
        for name in sorted(os.listdir(self.directory)):
            match = _SEGMENT_RE.match(name)
            if match is None:
                continue
            start, end = float(match.group(1)), float(match.group(2))
            found.append(ArchiveSegment(
                start, end, os.path.join(self.directory, name), 0))
        found.sort(key=lambda s: s.start)
        return found

    def rib_dumps(self) -> List[Tuple[float, str]]:
        return _scan_rib_dumps(self.directory)


def _scan_rib_dumps(directory: str) -> List[Tuple[float, str]]:
    dumps: List[Tuple[float, str]] = []
    for name in sorted(os.listdir(directory)):
        match = _RIB_RE.match(name)
        if match is not None:
            dumps.append((float(match.group(1)),
                          os.path.join(directory, name)))
    dumps.sort()
    return dumps


Catalog = Union[WriterCatalog, DirectoryCatalog]


def open_catalog(source: Union[str, RollingArchiveWriter, Catalog]
                 ) -> Catalog:
    """Resolve an engine source: directory path, writer, or catalog."""
    if isinstance(source, (WriterCatalog, DirectoryCatalog)):
        return source
    if isinstance(source, RollingArchiveWriter):
        return WriterCatalog(source)
    if isinstance(source, str):
        return DirectoryCatalog(source)
    raise TypeError(f"cannot open a catalog over {type(source)!r}")


class QueryEngine:
    """Indexed, memoised lookups over an update archive."""

    def __init__(self, source: Union[str, RollingArchiveWriter, Catalog],
                 cache_size: int = 128,
                 stats: Optional[QueryStats] = None,
                 guard: Optional[IntegrityGuard] = None):
        self.catalog = open_catalog(source)
        self.stats = stats if stats is not None else QueryStats()
        #: Answers of :meth:`query` (``render`` never reads it).
        self.cache = WatermarkLRUCache(cache_size)
        #: Quarantine bookkeeping shared with the scrubber and server;
        #: without one, mismatching segments are still skipped (never
        #: served) but stay on disk.
        self.guard = guard
        self._indexes: Dict[Tuple[str, int, Optional[str]],
                            SegmentIndex] = {}
        #: Segment views by path, pinned to the (size, CRC32) of the
        #: file bytes they were built from (see _read_view).
        self._views = WatermarkLRUCache(_PAYLOAD_CACHE_BYTES,
                                        weigh=lambda view: view.weight)
        #: The planner's postings over the segment list they were last
        #: extended to (see _postings_for); like the indexes, guarded
        #: by _index_lock, which is re-entrant because planning resolves
        #: probed segments through _index_for.
        self._postings = ArchivePostings(_pinned)
        self._index_lock = threading.RLock()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release the memoised views and cached answers."""
        self._views.clear()
        self.cache.clear()
        self.stats.payload_cache_bytes.set(0)

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- archive state -------------------------------------------------------

    @staticmethod
    def _token(segments: Sequence[ArchiveSegment]) -> WatermarkToken:
        """The cache-invalidation token for one observed archive state."""
        watermark = segments[-1].end if segments else None
        return (watermark, len(segments))

    def watermark(self) -> Optional[float]:
        """End of the last sealed segment (exclusive), if any."""
        return self._token(self.catalog.segments())[0]

    # -- indexes -------------------------------------------------------------

    def _index_for(self, segment: ArchiveSegment
                   ) -> Optional[SegmentIndex]:
        """The segment's index, loading or lazily building it.

        Returns None when the segment cannot be indexed (the planner
        then keeps it in the scan).  In-memory indexes are keyed by
        the file's fingerprint so a recovered-and-rewritten segment
        never reuses a stale one: the manifest's size and CRC32 when
        it records them (every read verifies the file against those,
        so planning needs no ``stat`` per segment), else the size on
        disk.
        """
        if _pinned(segment):
            key = (segment.path, segment.size, segment.crc32)
        else:
            try:
                key = (segment.path, os.path.getsize(segment.path), None)
            except OSError:
                return None
        with self._index_lock:
            index = self._indexes.get(key)
            if index is not None:
                return index
            try:
                started = time_mod.perf_counter()
                index, built = ensure_index(segment.path)
            except MRTError:
                return None
            if built:
                self.stats.index_builds.inc()
                self.stats.index_build_time_s.inc(
                    time_mod.perf_counter() - started)
            else:
                self.stats.index_loads.inc()
            self._indexes[key] = index
            return index

    # -- integrity (repro.guard) ---------------------------------------------

    def _quarantine(self, segment: ArchiveSegment, reason: str) -> None:
        """Condemn a mismatching segment: drop its in-memory index and
        view and hand it to the guard (which moves the file + sidecar
        aside)."""
        with self._index_lock:
            for key in [k for k in self._indexes if k[0] == segment.path]:
                del self._indexes[key]
            self._postings = ArchivePostings(_pinned)
        self._views.discard(segment.path)
        self.stats.payload_cache_bytes.set(self._views.weight)
        if self.guard is not None:
            self.guard.quarantine(segment.path, reason,
                                  watermark=segment.end)

    def _read_view(self, segment: ArchiveSegment, render: bool,
                   reads: "_Reads", deadline: Optional[Deadline] = None,
                   verify_sink: Optional[List[float]] = None
                   ) -> Optional[Tuple[SegmentView, bytes]]:
        """The segment's view (``rendered`` when ``render``) and the
        file bytes it was verified against, or None when the file is
        gone (quarantined/deleted) or fails verification.  The read is
        tallied in ``reads``, which the caller counts into the metrics
        once (:meth:`_count_reads`).

        Verification hashes the raw bytes that were just read anyway,
        so its cost is one CRC32 pass, and it runs on every read.  Only
        what follows it is memoised: building a view from bytes whose
        size and CRC32 equal those a retained view came from would
        produce that view again, so it is reused.
        """
        if self.guard is not None \
                and self.guard.is_quarantined(segment.path):
            return None
        try:
            raw = _read_file(segment.path, segment.size)
        except OSError:
            return None
        started = time_mod.perf_counter()
        reason = mismatch_reason(raw, size=segment.size, crc32=segment.crc32)
        if verify_sink is not None:
            verify_sink.append(time_mod.perf_counter() - started)
        if reason is not None:
            self._quarantine(segment, reason)
            return None
        crc32 = segment.crc32               # just checked equal, if any
        if crc32 is not None and self.guard is not None:
            reads.verified += 1
        identity = (len(raw), crc32 or crc32_of(raw))
        view = self._views.get(segment.path, identity)
        if view is not None and render and view.rendered is None:
            view = None         # built for query(); render it this once
        if view is not None:
            reads.hits += 1
            return view, raw
        reads.misses += 1
        try:
            payload = payload_of(raw)
        except (OSError, EOFError, ValueError):
            self._quarantine(segment, "decompress")
            return None
        try:
            view = SegmentView(payload, deadline, render)
        except MRTError:
            # Structurally corrupt despite matching digests (or a
            # pre-checksum archive): condemn it, serve the rest.
            self._quarantine(segment, "decode")
            return None
        self._views.put(segment.path, identity, view)
        self.stats.payload_cache_bytes.set(self._views.weight)
        return view, raw

    def _count_reads(self, reads: "_Reads") -> None:
        """Add one request's tallied reads to the payload-cache and
        guard verification counters."""
        stats = self.stats
        if reads.hits:
            stats.payload_cache_hits.inc(reads.hits)
        if reads.misses:
            stats.payload_cache_misses.inc(reads.misses)
        if reads.verified:
            self.guard.verification_ok(reads.verified)

    # -- execution -----------------------------------------------------------

    def _postings_for(self, segments: List[ArchiveSegment]
                      ) -> ArchivePostings:
        """The postings over ``segments`` (call under _index_lock).

        Unchanged, they are the last plan's; when ``segments`` only
        appends to that list, they are extended by the new segments;
        any other change rebuilds them.  Either way a segment is
        posted only from an index already in memory: the others are
        probed until a plan whose window reaches them resolves them
        (:meth:`_index_for`), so no plan builds or loads an index
        outside its time range.  A resolved index is posted when the
        manifest pins the segment's bytes (size and CRC32, its key in
        :meth:`_index_for`); one without that fingerprint is probed on
        every plan, because only a ``stat`` can tell whether its file
        was rewritten.
        """
        postings = self._postings
        known = postings.segments
        if segments == known:
            return postings
        done = len(known)
        if segments[:done] != known:
            postings = self._postings = ArchivePostings(_pinned)
            done = 0
        for segment in segments[done:]:
            postings.append(segment, self._indexes.get(
                (segment.path, segment.size, segment.crc32))
                if _pinned(segment) else None)
        return postings

    def _plan(self, segments: List[ArchiveSegment],
              spec: QuerySpec) -> QueryPlan:
        with self._index_lock:
            return self._postings_for(segments).plan(spec, self._index_for)

    def plan(self, spec: QuerySpec) -> QueryPlan:
        """The pruning decision for ``spec`` (exposed for inspection)."""
        return self._plan(self.catalog.segments(), spec)

    def _select(self, plan: QueryPlan, render: bool,
                deadline: Optional[Deadline],
                verify_sink: Optional[List[float]]) -> List[_Selection]:
        """Every planned segment's matches, merged and limited."""
        spec = plan.spec
        selected: List[_Selection] = []
        reads = _Reads()
        try:
            for segment in plan.scan:
                if deadline is not None:
                    if deadline.yield_turn is not None:
                        deadline.yield_turn()
                    deadline.check("before segment read")
                opened = self._read_view(segment, render, reads, deadline,
                                         verify_sink)
                if opened is None:
                    continue
                view, raw = opened
                positions = view.select(spec)
                if positions:
                    selected.append((view, raw, positions))
        finally:
            self._count_reads(reads)
        stats = self.stats
        for child, count in ((stats.segments_considered, plan.considered),
                             (stats.segments_pruned_time, plan.pruned_time),
                             (stats.segments_pruned_index,
                              plan.pruned_index),
                             (stats.segments_decoded, len(plan.scan))):
            if count:
                child.inc(count)
        if not all(a[0].times[a[2][-1]] < b[0].times[b[2][0]]
                   for a, b in pairwise(selected)):
            selected = _interleave(selected)
        if spec.limit is None:
            return selected
        limited: List[_Selection] = []
        remaining = spec.limit
        for view, raw, positions in selected:
            if remaining <= 0:
                break
            limited.append((view, raw, positions[:remaining]))
            remaining -= len(positions)
        return limited

    def render(self, spec: QuerySpec,
               deadline: Optional[Deadline] = None,
               trace=None
               ) -> Tuple[Optional[float], int, List[memoryview]]:
        """Answer one spec as ``(watermark, count, parts)``: the
        ``/updates`` elements of the matches, in ``(time, vp, prefix)``
        order, as slices to be joined by ``", "`` — byte for byte
        ``json.dumps([update_to_json(u) for u in self.query(spec)])``
        inside the brackets — and the watermark of the one catalog
        snapshot they were planned from, so under a live writer the
        watermark never covers a segment the plan did not consider.

        A ``deadline`` is polled before each segment and inside view
        builds: when it expires, :class:`~repro.guard.serving.
        DeadlineExceeded` is raised and the view is not kept.  Its
        ``yield_turn`` hook, if any, is called before each segment
        read.  A
        ``trace`` (a :class:`~repro.telemetry.trace.Span`, e.g. the
        server's per-request span) gets stage marks for the index
        prune and the segment reads + selection, plus guard
        verification as an aggregated overlay.
        """
        segments = self.catalog.segments()
        plan = self._plan(segments, spec)
        if trace is not None:
            trace.mark("index-prune")
        verify_sink: Optional[List[float]] = [] if trace is not None else None
        selected = self._select(plan, True, deadline, verify_sink)
        if trace is not None:
            trace.mark("segment-select")
            if verify_sink:
                trace.add_stage("guard-verify", sum(verify_sink))
        count = 0
        parts: List[memoryview] = []
        for view, _, positions in selected:
            count += len(positions)
            parts.extend(view.parts(positions))
        self.stats.cache_misses.inc()
        if count:
            self.stats.records_returned.inc(count)
        return self._token(segments)[0], count, parts

    def query(self, spec: QuerySpec,
              deadline: Optional[Deadline] = None) -> List[BGPUpdate]:
        """Answer one spec; equal to a naive scan-and-filter of the
        whole archive, in ``(time, vp, prefix)`` order.

        The selection is :meth:`render`'s; only the selected records
        are decoded (a bz2 segment is unpacked again for them — views
        keep no payload).  Answers are cached under the
        archive's watermark token; nothing is cached when the
        ``deadline`` expires mid-scan.
        """
        segments = self.catalog.segments()
        token = self._token(segments)
        key = spec.key()
        stale_before = self.cache.invalidations
        cached = self.cache.get(key, token)
        stats = self.stats
        if cached is not None:
            stats.cache_hits.inc()
            if cached:
                stats.records_returned.inc(len(cached))
            return list(cached)
        if self.cache.invalidations > stale_before:
            stats.cache_invalidations.inc()
        plan = self._plan(segments, spec)
        results: List[BGPUpdate] = []
        for view, raw, positions in self._select(plan, False, deadline,
                                                 None):
            payload = payload_of(raw)
            offsets = view.offsets
            results.extend(decode_at(payload, offsets[p])[0]
                           for p in positions)
        self.cache.put(key, token, tuple(results))
        stats.cache_misses.inc()
        if results:
            stats.records_decoded.inc(len(results))
            stats.records_returned.inc(len(results))
        return results

    # -- aggregate views (the /vps endpoint) ---------------------------------

    def vp_counts(self) -> Dict[str, int]:
        """Per-VP stored-update counts, aggregated from the indexes
        (no segment is read when its index is available)."""
        counts: Dict[str, int] = {}
        reads = _Reads()
        for segment in self.catalog.segments():
            if self.guard is not None \
                    and self.guard.is_quarantined(segment.path):
                continue
            index = self._index_for(segment)
            if index is not None:
                for vp, count in index.vps.items():
                    counts[vp] = counts.get(vp, 0) + count
                continue
            # Unindexable segment: count from its view (a corrupt one
            # is condemned there and contributes nothing).
            opened = self._read_view(segment, False, reads)
            if opened is None:
                continue
            column = opened[0].vp
            for vp, code in column.table.items():
                counts[vp] = counts.get(vp, 0) + column.count(code)
        self._count_reads(reads)
        return counts

    # -- RIB dumps (the /rib endpoint) ---------------------------------------

    def rib_dump_at(self, time: Optional[float] = None
                    ) -> Optional[Tuple[float, str]]:
        """The newest published RIB dump at or before ``time``
        (the newest overall when ``time`` is None)."""
        dumps = self.catalog.rib_dumps()
        if time is not None:
            dumps = [d for d in dumps if d[0] <= time]
        return dumps[-1] if dumps else None

    def iter_rib_dump(self, path: str) -> Iterator[RIBRecord]:
        """Stream one RIB dump's entries without materializing it."""
        for record in iter_archive(path):
            if isinstance(record, RIBRecord):
                yield record

    # -- observability -------------------------------------------------------

    def stats_snapshot(self) -> QueryStatsSnapshot:
        return self.stats.snapshot()

    @property
    def registry(self):
        """The metrics registry behind this engine's counters.

        When the engine shares a pipeline's :class:`~repro.query.
        stats.QueryStats`, this is the pipeline's whole registry, so
        ``/metrics`` on the API server covers collection and serving
        in one scrape.
        """
        return self.stats.registry


def _pinned(segment: ArchiveSegment) -> bool:
    """Whether the manifest pins the segment's bytes (size and
    CRC32), which every read verifies."""
    return segment.size is not None and segment.crc32 is not None


def _read_file(path: str, size: Optional[int]) -> bytes:
    """A segment file's bytes.  Given the manifest's ``size``, one
    ``read`` of ``size + 1`` bytes returns the whole file or shows
    that it grew, in three system calls (``open``, ``read``,
    ``close``) instead of ``open().read()``'s buffered sequence."""
    if size is None:
        with open(path, "rb") as handle:
            return handle.read()
    fd = os.open(path, os.O_RDONLY)
    try:
        data = os.read(fd, size + 1)
        while len(data) < size:         # a short read, or a truncation
            more = os.read(fd, size + 1 - len(data))
            if not more:
                break
            data += more
        return data
    finally:
        os.close(fd)


def _interleave(selected: List[_Selection]) -> List[_Selection]:
    """Merge selections whose segments overlap in time (a directory
    holding segments of two different intervals) by ``(time, vp,
    prefix)``; ties keep archive order, as ``read_range``'s stable
    sort does."""
    keyed = []
    for rank, (view, raw, positions) in enumerate(selected):
        for key, position in zip(view.sort_keys(positions), positions):
            keyed.append((key, rank, position, view, raw))
    keyed.sort(key=lambda item: item[:3])
    return [(view, raw, (position,))
            for _, _, position, view, raw in keyed]
