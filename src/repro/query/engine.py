"""The query engine: planner + segment views + result cache.

:class:`QueryEngine` answers :class:`~repro.query.planner.QuerySpec`
lookups against either a live :class:`~repro.bgp.archive.
RollingArchiveWriter` (the pipeline's archive, still being appended
to) or a bare archive directory (a published dataset).  Execution:

1. **prune** — the planner drops segments outside the time range,
   then consults each surviving segment's index (built lazily and
   persisted for pre-index archives): the bloom fingerprint and the
   postings rule segments out without reading them;
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

import bz2
import json
import os
import re
import threading
import time as time_mod
from array import array
from bisect import bisect_left
from itertools import accumulate, pairwise
from typing import Callable, Dict, Iterator, List, Optional, Sequence, \
    Tuple, Union

from ..bgp.archive import CHECKPOINT_NAME, ArchiveSegment, \
    RollingArchiveWriter, read_manifest
from ..bgp.message import BGPUpdate
from ..bgp.mrt import MRTError, RIBRecord, decode_at, iter_archive, \
    iter_decoded
from ..guard.integrity import crc32_of, mismatch_reason
from ..guard.manager import IntegrityGuard
from ..guard.serving import Deadline
from .cache import WatermarkLRUCache
from .index import SegmentIndex, ensure_index
from .planner import QueryPlan, QuerySpec, plan_query
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


class WriterCatalog:
    """Catalog over a live (or closed) RollingArchiveWriter."""

    def __init__(self, writer: RollingArchiveWriter):
        self._writer = writer
        self.directory = writer.directory
        self.compressed = writer.compress

    def segments(self) -> List[ArchiveSegment]:
        # list() snapshots under the GIL; the writer only appends.
        return list(self._writer.segments)

    def rib_dumps(self) -> List[Tuple[float, str]]:
        return _scan_rib_dumps(self.directory)


class DirectoryCatalog:
    """Catalog over a bare archive directory (no writer object).

    The checkpoint manifest is preferred when present (it is the
    source of truth for a crash-consistent archive); otherwise the
    directory listing is parsed.  Compression is inferred from the
    segment file names unless given.

    The parsed manifest is kept until the file changes: the writer
    publishes every seal with ``os.replace``, which gives the path a
    new inode and mtime, so one ``stat`` per call says whether the
    last parse still stands.
    """

    def __init__(self, directory: str,
                 compressed: Optional[bool] = None):
        if not os.path.isdir(directory):
            raise FileNotFoundError(f"no archive directory: {directory}")
        self.directory = directory
        self._compressed = compressed
        #: (stat stamp, parsed manifest) of the last successful parse.
        self._parsed: Optional[Tuple[Tuple[int, int, int],
                                     Tuple[List[ArchiveSegment], bool]]] \
            = None

    @property
    def compressed(self) -> bool:
        if self._compressed is None:
            segments = self.segments()
            if not segments:
                return True     # nothing to infer from yet; don't cache
            self._compressed = segments[0].path.endswith(".bz2")
        return self._compressed

    def _manifest(self) -> Optional[Tuple[List[ArchiveSegment], bool]]:
        """The checkpoint manifest, re-parsed only when the file's
        ``(inode, size, mtime)`` moved; None when absent or unreadable
        (the caller falls back to the listing)."""
        try:
            stat = os.stat(os.path.join(self.directory, CHECKPOINT_NAME))
        except OSError:
            return None
        stamp = (stat.st_ino, stat.st_size, stat.st_mtime_ns)
        parsed = self._parsed   # one read: handler threads share us
        if parsed is not None and parsed[0] == stamp:
            return parsed[1]
        try:
            manifest = read_manifest(self.directory)
        except (OSError, ValueError):
            return None
        # A file replaced between the stat and the read is stored
        # under the older stamp, so the next call parses it again.
        if manifest is not None:
            self._parsed = (stamp, manifest)
        return manifest

    def segments(self) -> List[ArchiveSegment]:
        manifest = self._manifest()
        if manifest is not None:
            if self._compressed is None:
                self._compressed = manifest[1]
            return list(manifest[0])
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


def open_catalog(source: Union[str, RollingArchiveWriter, Catalog],
                 compressed: Optional[bool] = None) -> Catalog:
    """Resolve an engine source: directory path, writer, or catalog."""
    if isinstance(source, (WriterCatalog, DirectoryCatalog)):
        return source
    if isinstance(source, RollingArchiveWriter):
        return WriterCatalog(source)
    if isinstance(source, str):
        return DirectoryCatalog(source, compressed)
    raise TypeError(f"cannot open a catalog over {type(source)!r}")


class QueryEngine:
    """Indexed, memoised lookups over an update archive."""

    def __init__(self, source: Union[str, RollingArchiveWriter, Catalog],
                 compressed: Optional[bool] = None,
                 cache_size: int = 128,
                 persist_indexes: bool = True,
                 stats: Optional[QueryStats] = None,
                 verify: bool = True,
                 guard: Optional[IntegrityGuard] = None,
                 read_hook: Optional[Callable[[str], None]] = None):
        self.catalog = open_catalog(source, compressed)
        self.stats = stats if stats is not None else QueryStats()
        #: Answers of :meth:`query` (``render`` never reads it).
        self.cache = WatermarkLRUCache(cache_size)
        self.persist_indexes = persist_indexes
        #: Verify manifest digests on every segment read (repro.guard).
        #: ``verify=False`` exists for the benchmark's overhead A/B.
        self.verify = verify
        #: Quarantine bookkeeping shared with the scrubber and server;
        #: without one, mismatching segments are still skipped (never
        #: served) but stay on disk.
        self.guard = guard
        #: Test/chaos hook called with the path before each segment
        #: read (slow-read fault injection).
        self.read_hook = read_hook
        self._indexes: Dict[Tuple[str, int, Optional[str]],
                            SegmentIndex] = {}
        #: Segment views by path, pinned to the (size, CRC32) of the
        #: file bytes they were built from (see _read_view).
        self._views = WatermarkLRUCache(_PAYLOAD_CACHE_BYTES,
                                        weigh=lambda view: view.weight)
        self._index_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release the memoised views and cached answers."""
        self._views.clear()
        self.cache.clear()
        self.stats.payload_cache_bytes(0)

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
        if segment.size is not None and segment.crc32 is not None:
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
                index, built = ensure_index(
                    segment.path, self.catalog.compressed,
                    persist=self.persist_indexes)
            except MRTError:
                return None
            if built:
                self.stats.index_built(
                    time_mod.perf_counter() - started)
            else:
                self.stats.index_loaded()
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
        self._views.discard(segment.path)
        self.stats.payload_cache_bytes(self._views.weight)
        if self.guard is not None:
            self.guard.quarantine(segment.path, reason,
                                  watermark=segment.end)

    def _read_view(self, segment: ArchiveSegment, render: bool,
                   deadline: Optional[Deadline] = None,
                   verify_sink: Optional[List[float]] = None
                   ) -> Optional[Tuple[SegmentView, bytes]]:
        """The segment's view (``rendered`` when ``render``) and the
        file bytes it was verified against, or None when the file is
        gone (quarantined/deleted) or fails verification.

        Verification hashes the raw bytes that were just read anyway,
        so its cost is one CRC32 pass — the ≤5% overhead budget the
        query benchmark enforces.  It runs on every read.  Only what
        follows it is memoised: building a view from bytes whose size
        and CRC32 equal those a retained view came from would produce
        that view again, so it is reused.
        """
        if self.guard is not None \
                and self.guard.is_quarantined(segment.path):
            return None
        if self.read_hook is not None:
            self.read_hook(segment.path)
        try:
            raw = _read_file(segment.path, segment.size)
        except OSError:
            return None
        crc32 = None
        if self.verify:
            started = time_mod.perf_counter()
            reason = mismatch_reason(raw, size=segment.size,
                                     crc32=segment.crc32)
            if verify_sink is not None:
                verify_sink.append(time_mod.perf_counter() - started)
            if reason is not None:
                self._quarantine(segment, reason)
                return None
            if segment.crc32 is not None:
                crc32 = segment.crc32       # just checked equal
                if self.guard is not None:
                    self.guard.verification_ok()
        identity = (len(raw), crc32 or crc32_of(raw))
        view = self._views.get(segment.path, identity)
        if view is not None and render and view.rendered is None:
            view = None         # built for query(); render it this once
        self.stats.payload_cache_lookup(hit=view is not None)
        if view is None:
            try:
                payload = self._payload(raw)
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
            self.stats.payload_cache_bytes(self._views.weight)
        return view, raw

    def _payload(self, raw: bytes) -> bytes:
        return bz2.decompress(raw) if self.catalog.compressed else raw

    # -- execution -----------------------------------------------------------

    def plan(self, spec: QuerySpec) -> QueryPlan:
        """The pruning decision for ``spec`` (exposed for inspection)."""
        return plan_query(self.catalog.segments(), spec, self._index_for)

    def _select(self, plan: QueryPlan, render: bool,
                deadline: Optional[Deadline],
                verify_sink: Optional[List[float]]) -> List[_Selection]:
        """Every planned segment's matches, merged and limited."""
        spec = plan.spec
        selected: List[_Selection] = []
        for segment in plan.scan:
            if deadline is not None:
                deadline.check("before segment read")
            opened = self._read_view(segment, render, deadline,
                                     verify_sink)
            if opened is None:
                continue
            view, raw = opened
            positions = view.select(spec)
            if positions:
                selected.append((view, raw, positions))
        self.stats.plan_executed(
            considered=plan.considered,
            pruned_time=plan.pruned_time,
            pruned_index=plan.pruned_index,
            decoded=len(plan.scan))
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
               trace=None) -> Tuple[int, List[memoryview]]:
        """Answer one spec as ``(count, parts)``: the ``/updates``
        elements of the matches, in ``(time, vp, prefix)`` order, as
        slices to be joined by ``", "`` — byte for byte
        ``json.dumps([update_to_json(u) for u in self.query(spec)])``
        inside the brackets.

        A ``deadline`` is polled before each segment and inside view
        builds: when it expires, :class:`~repro.guard.serving.
        DeadlineExceeded` is raised and the view is not kept.  A
        ``trace`` (a :class:`~repro.telemetry.trace.Span`, e.g. the
        server's per-request span) gets stage marks for the index
        prune and the segment reads + selection, plus guard
        verification as an aggregated overlay.
        """
        plan = self.plan(spec)
        if trace is not None:
            trace.mark("index-prune")
        verify_sink: Optional[List[float]] = \
            [] if trace is not None and self.verify else None
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
        self.stats.query_served(cache_hit=False, returned=count)
        return count, parts

    def query(self, spec: QuerySpec,
              deadline: Optional[Deadline] = None) -> List[BGPUpdate]:
        """Answer one spec; equal to a naive scan-and-filter of the
        whole archive, in ``(time, vp, prefix)`` order.

        The selection is :meth:`render`'s; only the selected records
        are decoded (a compressed segment is decompressed again for
        them — views keep no payload).  Answers are cached under the
        archive's watermark token; nothing is cached when the
        ``deadline`` expires mid-scan.
        """
        segments = self.catalog.segments()
        token = self._token(segments)
        key = spec.key()
        stale_before = self.cache.invalidations
        cached = self.cache.get(key, token)
        if cached is not None:
            self.stats.query_served(cache_hit=True, returned=len(cached))
            return list(cached)
        if self.cache.invalidations > stale_before:
            self.stats.cache_invalidated()
        plan = plan_query(segments, spec, self._index_for)
        results: List[BGPUpdate] = []
        for view, raw, positions in self._select(plan, False, deadline,
                                                 None):
            payload = self._payload(raw)
            offsets = view.offsets
            results.extend(decode_at(payload, offsets[p])[0]
                           for p in positions)
        self.stats.records_scanned(len(results))
        self.cache.put(key, token, tuple(results))
        self.stats.query_served(cache_hit=False, returned=len(results))
        return results

    # -- aggregate views (the /vps endpoint) ---------------------------------

    def vp_counts(self) -> Dict[str, int]:
        """Per-VP stored-update counts, aggregated from the indexes
        (no segment is read when its index is available)."""
        counts: Dict[str, int] = {}
        for segment in self.catalog.segments():
            if self.guard is not None \
                    and self.guard.is_quarantined(segment.path):
                continue
            index = self._index_for(segment)
            if index is not None:
                for vp, offsets in index.vps.items():
                    counts[vp] = counts.get(vp, 0) + len(offsets)
                continue
            # Unindexable segment: count from its view (a corrupt one
            # is condemned there and contributes nothing).
            opened = self._read_view(segment, False)
            if opened is None:
                continue
            column = opened[0].vp
            for vp, code in column.table.items():
                counts[vp] = counts.get(vp, 0) + column.count(code)
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
        for record in iter_archive(path, self.catalog.compressed):
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


def _read_file(path: str, size: Optional[int]) -> bytes:
    """A segment file's bytes.  Given the manifest's ``size``, one
    ``read`` of ``size + 1`` bytes returns the whole file or shows
    that it grew, in three system calls — each a GIL hand-off when
    many requests share the process — instead of ``open().read()``'s
    buffered sequence."""
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
