"""The query engine: planner + executor + result cache over an archive.

:class:`QueryEngine` answers :class:`~repro.query.planner.QuerySpec`
lookups against either a live :class:`~repro.bgp.archive.
RollingArchiveWriter` (the pipeline's archive, still being appended
to) or a bare archive directory (a published dataset).  Execution:

1. **prune** — the planner drops segments outside the time range,
   then consults each surviving segment's index (built lazily and
   persisted for pre-index archives): the bloom fingerprint and the
   postings rule segments out without decoding them;
2. **decode** — surviving segments are read and verified on a thread
   pool, every time; the bz2 decompression of bytes that verified is
   memoised (sealed segments are immutable), and only the
   postings-selected record offsets are decoded;
3. **merge** — per-segment hits merge in watermark order — the exact
   ``(time, vp, prefix)`` order ``read_range`` uses — then the limit
   applies;
4. **cache** — results enter an LRU keyed by the spec and pinned to
   the archive's watermark token, so a live pipeline sealing a new
   segment invalidates every cached answer instead of serving stale
   data.
"""

from __future__ import annotations

import bz2
import math
import os
import re
import threading
import time as time_mod
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Iterator, List, Optional, Sequence, \
    Tuple, Union

from ..bgp.archive import CHECKPOINT_NAME, ArchiveSegment, \
    RollingArchiveWriter, read_manifest
from ..bgp.message import BGPUpdate
from ..bgp.mrt import MRTError, RIBRecord, decode_record_at, \
    decode_records, iter_archive
from ..guard.integrity import crc32_of, mismatch_reason
from ..guard.manager import IntegrityGuard
from ..guard.serving import Deadline
from .cache import WatermarkLRUCache
from .index import SegmentIndex, ensure_index
from .planner import PlannedSegment, QueryPlan, QuerySpec, plan_query
from .stats import QueryStats, QueryStatsSnapshot

#: Decode loops poll the request deadline every this many records, so
#: an expired request abandons a segment within microseconds instead
#: of finishing a multi-second scan it no longer has a client for.
_DEADLINE_STRIDE = 256

#: Byte budget of the decompressed-payload memo.  A 5-minute segment
#: decompresses to ~100 KB, so this holds a day of them; an archive
#: whose hot set is larger falls back to decompressing LRU-cold ones.
_PAYLOAD_CACHE_BYTES = 32 << 20

_SEGMENT_RE = re.compile(r"^updates\.(\d+)-(\d+)\.mrt(\.bz2)?$")
_RIB_RE = re.compile(r"^rib\.(\d+)\.mrt(\.bz2)?$")

#: The spec every update matches (the unindexed ``vp_counts`` scan).
_EVERYTHING = QuerySpec(start=-math.inf)

#: The cache token for an archive state: (watermark, segment count).
WatermarkToken = Tuple[Optional[float], int]


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
    """Indexed, cached, concurrent lookups over an update archive."""

    def __init__(self, source: Union[str, RollingArchiveWriter, Catalog],
                 compressed: Optional[bool] = None,
                 max_workers: int = 4,
                 cache_size: int = 128,
                 persist_indexes: bool = True,
                 stats: Optional[QueryStats] = None,
                 verify: bool = True,
                 guard: Optional[IntegrityGuard] = None,
                 read_hook: Optional[Callable[[str], None]] = None):
        self.catalog = open_catalog(source, compressed)
        self.stats = stats if stats is not None else QueryStats()
        self.cache = WatermarkLRUCache(cache_size)
        self.persist_indexes = persist_indexes
        #: Verify manifest digests on every segment read (repro.guard).
        #: ``verify=False`` exists for the benchmark's overhead A/B.
        self.verify = verify
        #: Quarantine bookkeeping shared with the scrubber and server;
        #: without one, mismatching segments are still skipped (never
        #: served) but stay on disk.
        self.guard = guard
        #: Test/chaos hook called with the path before each payload
        #: read (slow-read fault injection).
        self.read_hook = read_hook
        self._indexes: Dict[Tuple[str, int], SegmentIndex] = {}
        #: Decompressed payloads by path, pinned to the (size, CRC32)
        #: of the compressed bytes they came from (see _read_verified).
        self._payloads = WatermarkLRUCache(_PAYLOAD_CACHE_BYTES, weigh=len)
        self._index_lock = threading.Lock()
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, max_workers),
            thread_name_prefix="query")
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._pool.shutdown(wait=True)

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
        then degrades it to a full decode).  In-memory indexes are
        keyed by (path, file size) so a recovered-and-rewritten
        segment never reuses a stale one.
        """
        try:
            key = (segment.path, os.path.getsize(segment.path))
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
        payload and hand it to the guard (which moves the file +
        sidecar aside)."""
        with self._index_lock:
            for key in [k for k in self._indexes if k[0] == segment.path]:
                del self._indexes[key]
        self._payloads.discard(segment.path)
        self.stats.payload_cache_bytes(self._payloads.weight)
        if self.guard is not None:
            self.guard.quarantine(segment.path, reason,
                                  watermark=segment.end)

    def _read_verified(self, segment: ArchiveSegment,
                       verify_sink: Optional[List[float]] = None
                       ) -> Optional[bytes]:
        """The segment's decompressed payload, or None when the file
        is gone (quarantined/deleted) or fails verification.

        Verification hashes the raw bytes that were just read anyway,
        so its cost is one CRC32 pass — the ≤5% overhead budget the
        query benchmark enforces.  It runs on every read.  Only what
        follows it is memoised: decompressing bytes whose size and
        CRC32 equal those a retained payload came from would produce
        that payload again, so it is reused.
        """
        if self.guard is not None \
                and self.guard.is_quarantined(segment.path):
            return None
        if self.read_hook is not None:
            self.read_hook(segment.path)
        try:
            with open(segment.path, "rb") as handle:
                raw = handle.read()
        except OSError:
            return None
        if self.verify:
            started = time_mod.perf_counter()
            reason = mismatch_reason(raw, size=segment.size,
                                     crc32=segment.crc32)
            if verify_sink is not None:
                # list.append is atomic under the GIL, so pool threads
                # can share one sink without a lock.
                verify_sink.append(time_mod.perf_counter() - started)
            if reason is not None:
                self._quarantine(segment, reason)
                return None
            if self.guard is not None and segment.crc32 is not None:
                self.guard.verification_ok()
        if not self.catalog.compressed:
            return raw
        identity = (len(raw), crc32_of(raw))
        payload = self._payloads.get(segment.path, identity)
        self.stats.payload_cache_lookup(hit=payload is not None)
        if payload is None:
            try:
                payload = bz2.decompress(raw)
            except (OSError, EOFError, ValueError):
                self._quarantine(segment, "decompress")
                return None
            self._payloads.put(segment.path, identity, payload)
            self.stats.payload_cache_bytes(self._payloads.weight)
        return payload

    # -- execution -----------------------------------------------------------

    def _scan_segment(self, planned: PlannedSegment, spec: QuerySpec,
                      deadline: Optional[Deadline] = None,
                      verify_sink: Optional[List[float]] = None
                      ) -> List[BGPUpdate]:
        if deadline is not None:
            deadline.check("before segment decode")
        payload = self._read_verified(planned.segment, verify_sink)
        if payload is None:
            return []
        hits: List[BGPUpdate] = []
        decoded = 0
        if planned.offsets is None:
            records = decode_records(payload)
        else:
            records = (decode_record_at(payload, offset)
                       for offset in planned.offsets)
        try:
            for record in records:
                decoded += 1
                if deadline is not None \
                        and decoded % _DEADLINE_STRIDE == 0:
                    deadline.check("mid segment decode")
                if isinstance(record, BGPUpdate) \
                        and spec.matches(record):
                    hits.append(record)
        except MRTError:
            # Structurally corrupt despite matching digests (or a
            # pre-checksum archive): condemn it, serve the rest.
            self.stats.records_scanned(decoded)
            self._quarantine(planned.segment, "decode")
            return []
        self.stats.records_scanned(decoded)
        return hits

    def plan(self, spec: QuerySpec) -> QueryPlan:
        """The pruning decision for ``spec`` (exposed for inspection)."""
        return plan_query(self.catalog.segments(), spec, self._index_for)

    def query(self, spec: QuerySpec,
              deadline: Optional[Deadline] = None,
              trace=None) -> List[BGPUpdate]:
        """Answer one spec; equal to a naive scan-and-filter of the
        whole archive, in ``(time, vp, prefix)`` order.

        A ``deadline`` propagates into the decode loops: when it
        expires mid-scan, :class:`~repro.guard.serving.
        DeadlineExceeded` is raised and nothing is cached.

        A ``trace`` (any :class:`~repro.telemetry.trace.Trace`, e.g.
        the server's per-request span) gets stage marks for the cache
        lookup, the index prune, the decode pass, and — as an
        aggregated overlay, since it runs on the pool threads — guard
        verification.
        """
        segments = self.catalog.segments()
        token = self._token(segments)
        key = spec.key()
        stale_before = self.cache.invalidations
        cached = self.cache.get(key, token)
        if trace is not None:
            trace.mark("cache-lookup")
        if cached is not None:
            self.stats.query_served(cache_hit=True, returned=len(cached))
            return list(cached)
        if self.cache.invalidations > stale_before:
            self.stats.cache_invalidated()
        plan = plan_query(segments, spec, self._index_for)
        if trace is not None:
            trace.mark("index-prune")
        verify_sink: Optional[List[float]] = \
            [] if trace is not None and self.verify else None
        if len(plan.scan) <= 1:
            hit_lists = [self._scan_segment(planned, spec, deadline,
                                            verify_sink)
                         for planned in plan.scan]
        else:
            hit_lists = list(self._pool.map(
                lambda planned: self._scan_segment(planned, spec,
                                                   deadline,
                                                   verify_sink),
                plan.scan))
        if trace is not None:
            trace.mark("segment-decode")
            if verify_sink:
                trace.add_stage("guard-verify", sum(verify_sink))
        results: List[BGPUpdate] = [u for hits in hit_lists for u in hits]
        results.sort(key=lambda u: (u.time, u.vp, u.prefix))
        if spec.limit is not None:
            results = results[:spec.limit]
        self.cache.put(key, token, tuple(results))
        self.stats.plan_executed(
            considered=plan.considered,
            pruned_time=plan.pruned_time,
            pruned_index=plan.pruned_index,
            decoded=len(plan.scan))
        self.stats.query_served(cache_hit=False, returned=len(results))
        return results

    # -- aggregate views (the /vps endpoint) ---------------------------------

    def vp_counts(self) -> Dict[str, int]:
        """Per-VP stored-update counts, aggregated from the indexes
        (no segment is decoded when its index is available)."""
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
            # Unindexable segment: fall back to decoding it (a corrupt
            # one is condemned there and contributes nothing).
            for update in self._scan_segment(
                    PlannedSegment(segment, None), _EVERYTHING):
                counts[update.vp] = counts.get(update.vp, 0) + 1
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
