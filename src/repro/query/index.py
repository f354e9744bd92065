"""Per-segment query indexes (the read-side of the archive).

A sealed archive segment is immutable, so GILL can afford to index it
once and serve it forever.  For each segment we persist, next to the
segment file (``<segment>.idx``):

* **postings** — for every prefix, VP and origin AS appearing in the
  segment, the byte offsets (into the decompressed payload) of the
  matching records, so a single-prefix query decodes only its own
  records instead of the whole segment;
* a **bloom fingerprint** over all three key spaces, so the planner
  can rule a segment out without opening the segment *or* walking the
  postings maps;
* the record **count** and the segment file's **size**, which is the
  staleness check: an index whose recorded size disagrees with the
  file on disk is ignored and rebuilt (the lazy path for archives
  written before indexing existed).

The format is JSON — segments are small (one collection interval), so
a human-debuggable sidecar beats a binary one; everything hot happens
on the decoded in-memory :class:`SegmentIndex`.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import bz2

from ..bgp.archive import INDEX_SUFFIX
from ..bgp.message import BGPUpdate
from ..bgp.mrt import MRTError, RIBRecord, iter_decoded
from ..bgp.prefix import Prefix

INDEX_VERSION = 1


def index_path(segment_path: str) -> str:
    """Where a segment's index lives: right next to the segment."""
    return segment_path + INDEX_SUFFIX


class BloomFilter:
    """A tiny bloom filter over string keys.

    Bits live in one Python int (arbitrary precision), which makes
    membership a shift-and-mask and serialization a hex string.  Double
    hashing over two crc32 seeds gives the ``n_hashes`` positions.
    """

    __slots__ = ("n_bits", "n_hashes", "bits")

    def __init__(self, n_bits: int = 4096, n_hashes: int = 4,
                 bits: int = 0):
        if n_bits <= 0 or n_hashes <= 0:
            raise ValueError("bloom needs positive sizing")
        self.n_bits = n_bits
        self.n_hashes = n_hashes
        self.bits = bits

    def _positions(self, key: str) -> Iterable[int]:
        raw = key.encode("utf-8")
        h1 = zlib.crc32(raw)
        h2 = zlib.crc32(raw, 0x9E3779B9) | 1
        for i in range(self.n_hashes):
            yield (h1 + i * h2) % self.n_bits

    def add(self, key: str) -> None:
        for position in self._positions(key):
            self.bits |= 1 << position

    def __contains__(self, key: str) -> bool:
        return all(self.bits >> p & 1 for p in self._positions(key))

    def to_hex(self) -> str:
        return f"{self.bits:x}"

    @classmethod
    def from_hex(cls, n_bits: int, n_hashes: int, hexed: str
                 ) -> "BloomFilter":
        return cls(n_bits, n_hashes, int(hexed, 16))


def _prefix_key(prefix: Prefix) -> str:
    return f"p:{prefix}"


def _vp_key(vp: str) -> str:
    return f"v:{vp}"


def _origin_key(origin: int) -> str:
    return f"o:{origin}"


@dataclass
class SegmentIndex:
    """The decoded index of one sealed segment."""

    count: int
    #: Size in bytes of the segment file when indexed — the staleness
    #: fingerprint checked by :func:`load_index`.
    size: int
    prefixes: Dict[str, List[int]] = field(default_factory=dict)
    vps: Dict[str, List[int]] = field(default_factory=dict)
    origins: Dict[str, List[int]] = field(default_factory=dict)
    bloom: BloomFilter = field(default_factory=BloomFilter)

    # -- planning ------------------------------------------------------------

    def may_match(self, prefix: Optional[Prefix] = None,
                  vp: Optional[str] = None,
                  origin: Optional[int] = None) -> bool:
        """Can any record match the given predicates?  False is exact
        (the segment can be pruned); True may still be a false
        positive of the bloom, which the postings then resolve."""
        if prefix is not None and _prefix_key(prefix) not in self.bloom:
            return False
        if vp is not None and _vp_key(vp) not in self.bloom:
            return False
        if origin is not None and _origin_key(origin) not in self.bloom:
            return False
        if prefix is not None and str(prefix) not in self.prefixes:
            return False
        if vp is not None and vp not in self.vps:
            return False
        if origin is not None and str(origin) not in self.origins:
            return False
        return True

    def candidate_offsets(self, prefix: Optional[Prefix] = None,
                          vp: Optional[str] = None,
                          origin: Optional[int] = None
                          ) -> Optional[List[int]]:
        """Record offsets that could match, or None for "all records".

        Picks the most selective postings list among the given
        predicates; the decoded records still go through the full
        predicate, so over-approximation is fine and intersection
        is unnecessary.
        """
        postings: List[List[int]] = []
        if prefix is not None:
            postings.append(self.prefixes.get(str(prefix), []))
        if vp is not None:
            postings.append(self.vps.get(vp, []))
        if origin is not None:
            postings.append(self.origins.get(str(origin), []))
        if not postings:
            return None
        return min(postings, key=len)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "version": INDEX_VERSION,
            "count": self.count,
            "size": self.size,
            "bloom": {
                "n_bits": self.bloom.n_bits,
                "n_hashes": self.bloom.n_hashes,
                "bits": self.bloom.to_hex(),
            },
            "prefixes": self.prefixes,
            "vps": self.vps,
            "origins": self.origins,
        }

    @classmethod
    def from_json(cls, data: dict) -> "SegmentIndex":
        if data.get("version") != INDEX_VERSION:
            raise ValueError(f"unsupported index version "
                             f"{data.get('version')}")
        bloom = data["bloom"]
        return cls(
            count=data["count"],
            size=data["size"],
            prefixes={k: list(v) for k, v in data["prefixes"].items()},
            vps={k: list(v) for k, v in data["vps"].items()},
            origins={k: list(v) for k, v in data["origins"].items()},
            bloom=BloomFilter.from_hex(bloom["n_bits"],
                                       bloom["n_hashes"],
                                       bloom["bits"]),
        )

    def save(self, segment_path: str) -> str:
        """Atomically persist next to the segment; returns the path."""
        path = index_path(segment_path)
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(self.to_json(), handle, separators=(",", ":"))
        os.replace(tmp, path)
        return path


def read_payload(segment_path: str, compressed: bool = True) -> bytes:
    """The decompressed record payload of a segment file."""
    with open(segment_path, "rb") as handle:
        payload = handle.read()
    return bz2.decompress(payload) if compressed else payload


def build_index(segment_path: str, compressed: bool = True,
                persist: bool = False,
                payload: Optional[bytes] = None) -> SegmentIndex:
    """Index one sealed segment (optionally persisting the sidecar).

    ``payload`` lets a caller who already decompressed the segment
    skip doing it twice.
    """
    if payload is None:
        payload = read_payload(segment_path, compressed)
    index = SegmentIndex(count=0, size=os.path.getsize(segment_path))
    for offset, record in iter_decoded(payload):
        index.count += 1
        if isinstance(record, BGPUpdate):
            prefix, vp, origin = record.prefix, record.vp, record.origin_as
        elif isinstance(record, RIBRecord):
            prefix, vp = record.route.prefix, record.vp
            path = record.route.as_path
            origin = path[-1] if path else None
        else:           # pragma: no cover - no other record types yet
            continue
        index.prefixes.setdefault(str(prefix), []).append(offset)
        index.vps.setdefault(vp, []).append(offset)
        index.bloom.add(_prefix_key(prefix))
        index.bloom.add(_vp_key(vp))
        if origin is not None:
            index.origins.setdefault(str(origin), []).append(offset)
            index.bloom.add(_origin_key(origin))
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


def ensure_index(segment_path: str, compressed: bool = True,
                 persist: bool = True
                 ) -> Tuple[SegmentIndex, bool]:
    """Load the segment's index, building (and persisting) on a miss.

    Returns ``(index, built)`` — ``built`` tells the caller whether a
    lazy rebuild happened, for the build-time counters.  This is the
    path that upgrades archives written before indexing existed.
    """
    index = load_index(segment_path)
    if index is not None:
        return index, False
    try:
        index = build_index(segment_path, compressed, persist=persist)
    except (OSError, EOFError, ValueError) as exc:
        # Unreadable, undecompressable or malformed (MRTError is a
        # ValueError): one error type for "this segment has no index".
        raise MRTError(f"cannot index segment {segment_path}: {exc}") \
            from exc
    return index, True
