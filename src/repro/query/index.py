"""Per-segment query indexes (the read-side of the archive).

A sealed archive segment is immutable, so GILL can afford to index it
once and serve it forever.  For each segment we persist, next to the
segment file (``<segment>.idx``):

* **postings** — for every prefix, VP and origin AS appearing in the
  segment, the byte offsets (into the decompressed payload) of the
  matching records: their keys settle what the bloom only suggests,
  and their lengths answer ``/vps`` without reading the segment;
* a **bloom fingerprint** over all three key spaces, so the planner
  can rule a segment out without opening the segment *or* walking the
  postings maps (:class:`IndexProbe` hashes a query's keys once for
  every segment);
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
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

import bz2

from ..bgp.archive import INDEX_SUFFIX
from ..bgp.message import BGPUpdate
from ..bgp.mrt import MRTError, Record, RIBRecord, iter_decoded
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

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BloomFilter) and (
            (self.n_bits, self.n_hashes, self.bits)
            == (other.n_bits, other.n_hashes, other.bits))

    def to_hex(self) -> str:
        return f"{self.bits:x}"

    @classmethod
    def from_hex(cls, n_bits: int, n_hashes: int, hexed: str
                 ) -> "BloomFilter":
        return cls(n_bits, n_hashes, int(hexed, 16))


# Bloom keys; the prefix and origin may also be given as their text
# (the postings key), which formats the same.

def _prefix_key(prefix: Union[Prefix, str]) -> str:
    return f"p:{prefix}"


def _vp_key(vp: str) -> str:
    return f"v:{vp}"


def _origin_key(origin: Union[int, str]) -> str:
    return f"o:{origin}"


class IndexProbe:
    """One query's predicates, keyed once for every segment's index.

    The planner asks each segment of the archive the same question.
    Formatting the prefix and hashing the bloom keys is most of that
    work, so it happens here once per query: the postings key texts up
    front, and the bloom bitmask of all keys once per distinct bloom
    shape ``(n_bits, n_hashes)``.  A segment is then a mask test and a
    dict lookup per predicate.
    """

    __slots__ = ("_postings", "_bloom_keys", "_masks")

    def __init__(self, prefix: Optional[Prefix] = None,
                 vp: Optional[str] = None,
                 origin: Optional[int] = None):
        #: (SegmentIndex postings attribute, key) per predicate.
        self._postings: List[Tuple[str, str]] = []
        self._bloom_keys: List[str] = []
        if prefix is not None:
            self._postings.append(("prefixes", str(prefix)))
            self._bloom_keys.append(_prefix_key(prefix))
        if vp is not None:
            self._postings.append(("vps", vp))
            self._bloom_keys.append(_vp_key(vp))
        if origin is not None:
            self._postings.append(("origins", str(origin)))
            self._bloom_keys.append(_origin_key(origin))
        self._masks: Dict[Tuple[int, int], int] = {}

    def _mask(self, bloom: BloomFilter) -> int:
        shape = (bloom.n_bits, bloom.n_hashes)
        mask = self._masks.get(shape)
        if mask is None:
            mask = 0
            for key in self._bloom_keys:
                for position in bloom._positions(key):
                    mask |= 1 << position
            self._masks[shape] = mask
        return mask

    def may_match(self, index: "SegmentIndex") -> bool:
        """:meth:`SegmentIndex.may_match` for these predicates."""
        mask = self._mask(index.bloom)
        if index.bloom.bits & mask != mask:
            return False
        return all(key in getattr(index, family)
                   for family, key in self._postings)


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
        return IndexProbe(prefix, vp, origin).may_match(self)

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
        text = json.dumps(self.to_json(), separators=(",", ":"))
        with open(tmp, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
        return path


def read_payload(segment_path: str, compressed: bool = True) -> bytes:
    """The decompressed record payload of a segment file."""
    with open(segment_path, "rb") as handle:
        payload = handle.read()
    return bz2.decompress(payload) if compressed else payload


def index_records(records: Iterable[Tuple[int, Record]], size: int
                  ) -> SegmentIndex:
    """Index one segment's ``(payload offset, record)`` pairs.

    ``size`` is the segment file's size (the staleness key).  The
    writer passes the updates it has just encoded; :func:`build_index`
    passes the records it decoded from the file.  Postings keep each
    key's first-appearance order, and each distinct key is formatted
    and added to the bloom once.
    """
    count = 0
    prefixes: Dict[Prefix, List[int]] = defaultdict(list)
    vps: Dict[str, List[int]] = defaultdict(list)
    origins: Dict[int, List[int]] = defaultdict(list)
    for offset, record in records:
        count += 1
        if isinstance(record, BGPUpdate):
            prefix, vp, origin = record.prefix, record.vp, record.origin_as
        elif isinstance(record, RIBRecord):
            prefix, vp = record.route.prefix, record.vp
            path = record.route.as_path
            origin = path[-1] if path else None
        else:           # pragma: no cover - no other record types yet
            continue
        prefixes[prefix].append(offset)
        vps[vp].append(offset)
        if origin is not None:
            origins[origin].append(offset)
    index = SegmentIndex(
        count=count, size=size,
        prefixes={str(prefix): offsets
                  for prefix, offsets in prefixes.items()},
        vps=dict(vps),
        origins={str(origin): offsets
                 for origin, offsets in origins.items()})
    for key in index.prefixes:
        index.bloom.add(_prefix_key(key))
    for key in index.vps:
        index.bloom.add(_vp_key(key))
    for key in index.origins:
        index.bloom.add(_origin_key(key))
    return index


def build_index(segment_path: str, compressed: bool = True,
                persist: bool = False) -> SegmentIndex:
    """Index one sealed segment from its file (optionally persisting
    the sidecar): the lazy path for segments sealed without an index
    or with a stale one."""
    index = index_records(
        iter_decoded(read_payload(segment_path, compressed)),
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
