"""A compact MRT-style binary codec for update archives.

GILL stores collected updates "in a public database using the MRT format
with Bzip2 file compression" (§9).  We implement a simplified but faithful
subset of RFC 6396 framing: each record is a header (timestamp, type,
subtype, length) followed by a body.  Two record types are supported:

* ``UPDATE`` — one BGP update (announce or withdraw) with VP, prefix,
  AS path and communities;
* ``RIB_ENTRY`` — one route from a RIB dump.

The goal is byte-exact round-tripping of everything GILL's algorithms
consume, plus optional bz2 compression, so archives written by the
orchestrator can be replayed by users.
"""

from __future__ import annotations

import bz2
import struct
from typing import BinaryIO, Iterable, Iterator, List, Optional, Tuple, \
    Union

from .message import BGPUpdate
from .prefix import Prefix, PrefixError
from .rib import Route

MRT_TYPE_UPDATE = 16       # BGP4MP, as in RFC 6396
MRT_TYPE_RIB = 13          # TABLE_DUMP_V2
SUBTYPE_ANNOUNCE = 1
SUBTYPE_WITHDRAW = 2
SUBTYPE_RIB_ENTRY = 4

_HEADER = struct.Struct("!dHHI")   # timestamp, type, subtype, body length
_U16 = struct.Struct("!H")         # string length, path / community count
_PREFIX = struct.Struct("!BB")     # address family, mask length

#: ``_U32_RUN[n]`` unpacks or packs ``n`` consecutive u32s (an AS path
#: is one run, a community set two u32s per entry); longer runs compile
#: their format on demand.
_U32_RUN = tuple(struct.Struct(f"!{n}I") for n in range(64))


def _u32_run(count: int) -> struct.Struct:
    return _U32_RUN[count] if count < len(_U32_RUN) \
        else struct.Struct(f"!{count}I")


class MRTError(ValueError):
    """Raised on malformed MRT data."""


def _encode(time: float, rtype: int, subtype: int, vp: str,
            prefix: Prefix, as_path=None, communities=()) -> bytes:
    """Build one record; ``as_path=None`` omits path and communities
    (the withdrawal layout)."""
    name = vp.encode("utf-8")
    if len(name) > 0xFFFF:
        raise MRTError("string too long for MRT encoding")
    body = [_U16.pack(len(name)), name,
            _PREFIX.pack(prefix.family, prefix.length),
            prefix.network.to_bytes(4 if prefix.family == 4 else 16, "big")]
    if as_path is not None:
        flat = [part for community in sorted(communities)
                for part in community]
        body += [_U16.pack(len(as_path)),
                 _u32_run(len(as_path)).pack(*as_path),
                 _U16.pack(len(flat) // 2),
                 _u32_run(len(flat)).pack(*flat)]
    payload = b"".join(body)
    return _HEADER.pack(time, rtype, subtype, len(payload)) + payload


def encode_update(update: BGPUpdate) -> bytes:
    """Serialize one update as an MRT record."""
    if update.is_withdrawal:
        return _encode(update.time, MRT_TYPE_UPDATE, SUBTYPE_WITHDRAW,
                       update.vp, update.prefix)
    return _encode(update.time, MRT_TYPE_UPDATE, SUBTYPE_ANNOUNCE,
                   update.vp, update.prefix, update.as_path,
                   update.communities)


def encode_rib_entry(vp: str, route: Route) -> bytes:
    """Serialize one RIB-dump route as an MRT record."""
    return _encode(route.time, MRT_TYPE_RIB, SUBTYPE_RIB_ENTRY, vp,
                   route.prefix, route.as_path, route.communities)


Record = Union[BGPUpdate, "RIBRecord"]


class RIBRecord:
    """A decoded RIB-dump entry: the VP plus its stored route."""

    __slots__ = ("vp", "route")

    def __init__(self, vp: str, route: Route):
        self.vp = vp
        self.route = route

    def __eq__(self, other) -> bool:
        return (isinstance(other, RIBRecord)
                and self.vp == other.vp and self.route == other.route)

    def __repr__(self) -> str:
        return f"RIBRecord(vp={self.vp!r}, route={self.route!r})"


def decode_at(data, offset: int = 0) -> Tuple[Record, int]:
    """Decode the record starting at ``offset`` of a bytes-like.

    Returns ``(record, next_offset)``.  This is the only place the
    record field layout is parsed: archives, segment indexes, the
    query engine and the cluster wire format all come through here.
    Every field is bounds-checked against the body length the header
    declares, and any malformed field raises :class:`MRTError`.
    """
    start = offset + _HEADER.size
    if offset < 0 or start > len(data):
        raise MRTError(f"truncated MRT header at offset {offset}")
    time, rtype, subtype, length = _HEADER.unpack_from(data, offset)
    end = start + length
    if end > len(data):
        raise MRTError(f"truncated record: wanted {length} body bytes, "
                       f"got {len(data) - start}")
    if rtype == MRT_TYPE_UPDATE:
        if subtype not in (SUBTYPE_ANNOUNCE, SUBTYPE_WITHDRAW):
            raise MRTError(f"unknown update subtype {subtype}")
    elif rtype != MRT_TYPE_RIB or subtype != SUBTYPE_RIB_ENTRY:
        raise MRTError(f"unknown record type {rtype}/{subtype}")
    try:
        if start + 2 > end:
            raise MRTError("truncated record: no VP length")
        (name_len,) = _U16.unpack_from(data, start)
        pos = start + 2 + name_len
        if pos + 2 > end:
            raise MRTError("truncated record: VP overruns the body")
        vp = str(data[start + 2:pos], "utf-8")
        family, mask = _PREFIX.unpack_from(data, pos)
        if family not in (4, 6):
            raise MRTError(f"bad address family {family}")
        pos += 2
        net_end = pos + (4 if family == 4 else 16)
        if net_end > end:
            raise MRTError("truncated record: prefix overruns the body")
        prefix = Prefix(family, int.from_bytes(data[pos:net_end], "big"),
                        mask)
        if subtype == SUBTYPE_WITHDRAW:
            return BGPUpdate(vp, time, prefix, is_withdrawal=True), end
        if net_end + 2 > end:
            raise MRTError("truncated record: no AS-path length")
        (hops,) = _U16.unpack_from(data, net_end)
        pos = net_end + 2
        path_end = pos + 4 * hops
        if path_end + 2 > end:
            raise MRTError("truncated record: AS path overruns the body")
        as_path = _u32_run(hops).unpack_from(data, pos)
        (pairs,) = _U16.unpack_from(data, path_end)
        if path_end + 2 + 8 * pairs > end:
            raise MRTError(
                "truncated record: communities overrun the body")
        flat = _u32_run(2 * pairs).unpack_from(data, path_end + 2)
        communities = frozenset(zip(flat[::2], flat[1::2]))
    except (UnicodeDecodeError, PrefixError) as exc:
        raise MRTError(f"malformed record at offset {offset}: {exc}") \
            from exc
    if rtype == MRT_TYPE_RIB:
        return RIBRecord(vp, Route(prefix, as_path, communities, time)), end
    return BGPUpdate(vp, time, prefix, as_path, communities), end


def iter_decoded(data) -> Iterator[Tuple[int, Record]]:
    """Decode records, yielding each with its starting byte offset.

    The offsets are positions into the (decompressed) payload, suitable
    for :func:`decode_record_at` — the contract the per-segment query
    indexes rely on to decode only matching records.
    """
    offset, size = 0, len(data)
    while offset < size:
        record, following = decode_at(data, offset)
        yield offset, record
        offset = following


def decode_records(data) -> Iterator[Record]:
    """Decode a concatenation of MRT records."""
    return (record for _, record in iter_decoded(data))


def decode_record_at(data, offset: int) -> Record:
    """Decode the single record starting at ``offset`` in ``data``."""
    return decode_at(data, offset)[0]


def read_record(buf: BinaryIO) -> Optional[Record]:
    """Decode the next record from a binary stream, or None at EOF.

    Reads the header, then exactly the body it declares, so streaming
    a multi-gigabyte archive holds one record in memory at a time.
    """
    header = buf.read(_HEADER.size)
    if not header:
        return None
    if len(header) != _HEADER.size:
        raise MRTError("truncated MRT header")
    return decode_at(header + buf.read(_HEADER.unpack(header)[3]))[0]


def write_records(records: Iterable[bytes], path: str,
                  compress: bool = True) -> None:
    """Write encoded records, back to back, to an (optionally
    bz2-compressed) MRT file."""
    payload = b"".join(records)
    if compress:
        payload = bz2.compress(payload)
    with open(path, "wb") as handle:
        handle.write(payload)


def write_archive(updates: Iterable[BGPUpdate], path: str,
                  compress: bool = True) -> int:
    """Write updates to an (optionally bz2-compressed) MRT archive file.

    Returns the number of records written.
    """
    records = [encode_update(update) for update in updates]
    write_records(records, path, compress)
    return len(records)


def read_archive(path: str, compressed: bool = True) -> List[Record]:
    """Read back an archive written by :func:`write_archive`."""
    with open(path, "rb") as handle:
        payload = handle.read()
    if compressed:
        payload = bz2.decompress(payload)
    return list(decode_records(payload))


def iter_archive(path: str, compressed: bool = True) -> Iterator[Record]:
    """Stream records from an archive without loading it whole.

    Decompression (when enabled) happens incrementally through
    :func:`bz2.open`, so peak memory stays bounded by one record —
    the contract :meth:`RollingArchiveWriter.iter_rib_dump` relies on
    for multi-gigabyte RIB snapshots.
    """
    opener = bz2.open if compressed else open
    with opener(path, "rb") as handle:
        yield from iter(lambda: read_record(handle), None)
