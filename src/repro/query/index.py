"""Per-segment query indexes (the read-side of the archive).

A sealed archive segment is immutable, so GILL can afford to index it
once and serve it forever.  For each segment we persist, next to the
segment file (``<segment>.idx``), exactly what its two readers use:

* the segment's distinct **prefixes** (as text) and **origin ASNs**,
  and its **VPs** with their record counts: the planner prunes a
  segment when some predicate's key is absent from these sets (it
  reads them as archive-level postings,
  :class:`~repro.query.planner.ArchivePostings`), and ``/vps`` sums
  the counts without reading the segment.  Where records sit inside
  the segment is the :class:`~repro.query.engine.SegmentView`'s
  business, not the index's;
* the record **count** and the segment file's **size**, which is the
  staleness check: an index whose recorded size disagrees with the
  file on disk is ignored and rebuilt (the lazy path for archives
  written before indexing existed, or by an older index version).

The format is JSON — segments are small (one collection interval), so
a human-debuggable sidecar beats a binary one; everything hot happens
on the decoded in-memory :class:`SegmentIndex`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

from ..bgp.archive import INDEX_SUFFIX
from ..bgp.message import BGPUpdate
from ..bgp.mrt import MRTError, Record, RIBRecord, iter_decoded, \
    read_payload
from ..bgp.prefix import Prefix

INDEX_VERSION = 2


def index_path(segment_path: str) -> str:
    """Where a segment's index lives: right next to the segment."""
    return segment_path + INDEX_SUFFIX


class IndexProbe:
    """One query's predicates as index keys, formatted once: the keys
    the planner looks up in its postings, and a per-segment check of
    one index (:meth:`may_match`)."""

    __slots__ = ("prefix", "vp", "origin")

    def __init__(self, prefix: Optional[Prefix] = None,
                 vp: Optional[str] = None,
                 origin: Optional[int] = None):
        self.prefix = None if prefix is None else str(prefix)
        self.vp = vp
        self.origin = origin

    def may_match(self, index: "SegmentIndex") -> bool:
        """Can any record of the indexed segment match?  False is exact
        (some predicate's key is absent, so the segment is pruned)."""
        return ((self.prefix is None or self.prefix in index.prefixes)
                and (self.vp is None or self.vp in index.vps)
                and (self.origin is None or self.origin in index.origins))


@dataclass
class SegmentIndex:
    """The decoded index of one sealed segment."""

    count: int
    #: Size in bytes of the segment file when indexed — the staleness
    #: fingerprint checked by :func:`load_index`.
    size: int
    #: Distinct prefix texts and origin ASNs as ordered sets (dicts to
    #: ``None``), in first-appearance order: a seal and a rebuild write
    #: the same bytes.
    prefixes: Dict[str, None] = field(default_factory=dict)
    origins: Dict[int, None] = field(default_factory=dict)
    #: Records per VP.
    vps: Dict[str, int] = field(default_factory=dict)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "version": INDEX_VERSION,
            "count": self.count,
            "size": self.size,
            "prefixes": list(self.prefixes),
            "origins": list(self.origins),
            "vps": self.vps,
        }

    @classmethod
    def from_json(cls, data: dict) -> "SegmentIndex":
        if data.get("version") != INDEX_VERSION:
            raise ValueError(f"unsupported index version "
                             f"{data.get('version')}")
        return cls(
            count=data["count"],
            size=data["size"],
            prefixes=dict.fromkeys(data["prefixes"]),
            origins=dict.fromkeys(data["origins"]),
            vps=dict(data["vps"]),
        )

    def save(self, segment_path: str) -> str:
        """Atomically persist next to the segment; returns the path."""
        path = index_path(segment_path)
        tmp = path + ".tmp"
        text = json.dumps(self.to_json(), separators=(",", ":"))
        with open(tmp, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
        return path


def index_records(records: Iterable[Tuple[int, Record]], size: int
                  ) -> SegmentIndex:
    """Index one segment's ``(payload offset, record)`` pairs.

    ``size`` is the segment file's size (the staleness key).  The
    writer passes the updates it has just encoded; :func:`build_index`
    passes the records it decoded from the file.  Only the records
    matter: keys keep their first-appearance order, and each distinct
    prefix is formatted once.
    """
    count = 0
    prefixes: Dict[Prefix, None] = {}
    origins: Dict[int, None] = {}
    vps: Dict[str, int] = {}
    for _, record in records:
        count += 1
        if isinstance(record, BGPUpdate):
            prefix, vp, origin = record.prefix, record.vp, record.origin_as
        elif isinstance(record, RIBRecord):
            prefix, vp = record.route.prefix, record.vp
            path = record.route.as_path
            origin = path[-1] if path else None
        else:           # pragma: no cover - no other record types yet
            continue
        prefixes[prefix] = None
        vps[vp] = vps.get(vp, 0) + 1
        if origin is not None:
            origins[origin] = None
    return SegmentIndex(count=count, size=size,
                        prefixes=dict.fromkeys(map(str, prefixes)),
                        origins=origins, vps=vps)


def build_index(segment_path: str, compressed: object = None,
                persist: bool = False) -> SegmentIndex:
    """Index one sealed segment from its file (optionally persisting
    the sidecar): the lazy path for segments sealed without an index
    or with a stale one.

    ``compressed`` decides nothing (the file's first bytes say whether
    it is bz2, :func:`~repro.bgp.mrt.is_bz2`); it is still accepted
    because the perf harness's layer timing passes it positionally.
    """
    index = index_records(
        iter_decoded(read_payload(segment_path)),
        os.path.getsize(segment_path))
    if persist:
        index.save(segment_path)
    return index


def load_index(segment_path: str) -> Optional[SegmentIndex]:
    """Load a persisted index, or None when missing, stale or corrupt.

    Staleness is judged against the segment file's current size: an
    index written for different bytes must never answer queries.
    """
    path = index_path(segment_path)
    try:
        with open(path) as handle:
            index = SegmentIndex.from_json(json.load(handle))
        if index.size != os.path.getsize(segment_path):
            return None
        return index
    except (OSError, ValueError, KeyError, TypeError):
        return None


def ensure_index(segment_path: str) -> Tuple[SegmentIndex, bool]:
    """Load the segment's index, building (and persisting) on a miss.

    Returns ``(index, built)`` — ``built`` tells the caller whether a
    lazy rebuild happened, for the build-time counters.  This is the
    path that upgrades archives written before indexing existed, or
    with an older sidecar version.  Persisting is best effort: in a
    directory the reader cannot write, the index is returned as built.
    """
    index = load_index(segment_path)
    if index is not None:
        return index, False
    try:
        index = build_index(segment_path)
    except (OSError, EOFError, ValueError) as exc:
        # Unreadable, undecompressable or malformed (MRTError is a
        # ValueError): one error type for "this segment has no index".
        raise MRTError(f"cannot index segment {segment_path}: {exc}") \
            from exc
    try:
        index.save(segment_path)
    except OSError:
        pass            # a read-only archive: the caller keeps it in memory
    return index, True
