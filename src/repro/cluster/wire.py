"""Compact binary wire format for cross-process pipeline handoff.

Nothing in ``src/`` sends these frames any more: the ``processes``
shard backend they served is gone (docs/CLUSTER.md says why), and the
codec stays only because ``perf/layers.py`` still times it.  It goes
once the benchmark drops its ``cluster.wire.*`` rows.

The multiprocessing backend moved updates between the coordinator and
its shard worker processes in *batched frames* rather than pickling
queue payloads one object at a time.  A frame is::

    !QHI      sequence number, shard id, record count
    record*   tagged records, concatenated

Each record is one tag byte followed by a tag-specific body; update
payloads embed the exact MRT record bytes the archive itself uses
(:func:`repro.bgp.mrt.encode_update`), so IPC never depends on pickle
details and the hot path reuses a codec that already round-trips
byte-exactly.

Frames are the unit of delivery *and* of recovery: the coordinator
keeps every frame it has sent until the matching result frame (same
sequence number) comes back, and resends the outstanding tail to a
respawned worker after a crash.  Workers therefore treat the sequence
number as a dedup cursor — a frame at or below the last sequence they
completed is dropped — giving exactly-once handoff at frame
granularity without any shared state.

Record tags:

``ENVELOPE``     coordinator → worker, one in-flight update
``HEARTBEAT``    a session progress marker, either way: the worker
                 forwards the session's heartbeat as is
``END``          coordinator → worker, shard input exhausted
``DISPOSITION``  worker → coordinator, the verdict on one update
``DONE``         worker → coordinator, shard has drained and is exiting

Tags 5, 7 and 8 are retired and decode as unknown.  A trace span is a
live in-process object and never crosses the wire: an envelope or
disposition carrying one encodes to the same bytes as one without.
"""

from __future__ import annotations

import struct
from typing import List, Sequence, Tuple

from ..bgp import mrt
from ..bgp.message import BGPUpdate
from ..pipeline.stages import Disposition, Envelope, Heartbeat, \
    ShardDone

TAG_ENVELOPE = 1
TAG_HEARTBEAT = 2
TAG_END = 3
TAG_DISPOSITION = 4
TAG_DONE = 6

_F64 = struct.Struct("!d")
_U16 = struct.Struct("!H")
_FRAME = struct.Struct("!QHI")     # sequence, shard, record count

_FLAG_RETAINED = 0x01


class WireError(ValueError):
    """Raised on malformed cluster wire data."""


class EndOfInput:
    """Control marker closing a worker's input stream (wire-level
    analogue of the in-process ``_STOP`` queue sentinel)."""

    def __repr__(self) -> str:
        return "EndOfInput()"

    def __eq__(self, other) -> bool:
        return isinstance(other, EndOfInput)

    def __hash__(self) -> int:
        return hash(EndOfInput)


#: Singleton end-of-input marker.
END_OF_INPUT = EndOfInput()


def _stamp(session: str, value: float) -> bytes:
    """The ``(session, f64)`` pair every non-marker record carries."""
    raw = session.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise WireError("string too long for wire encoding")
    return _U16.pack(len(raw)) + raw + _F64.pack(value)


def encode_record(item: object) -> bytes:
    """Encode one tagged record."""
    if isinstance(item, Envelope):
        return bytes((TAG_ENVELOPE,)) \
            + _stamp(item.session, item.enqueued_at) \
            + mrt.encode_update(item.update)
    if isinstance(item, Heartbeat):
        return bytes((TAG_HEARTBEAT,)) + _stamp(item.session, item.time)
    if isinstance(item, Disposition):
        flags = _FLAG_RETAINED if item.retained else 0
        return bytes((TAG_DISPOSITION, flags)) \
            + _stamp(item.session, item.enqueued_at) \
            + mrt.encode_update(item.update)
    if isinstance(item, EndOfInput):
        return bytes((TAG_END,))
    if isinstance(item, ShardDone):
        return bytes((TAG_DONE,))
    raise WireError(f"cannot encode {type(item).__name__} on the wire")


def _stamp_at(data: bytes, pos: int) -> Tuple[str, float, int]:
    (length,) = _U16.unpack_from(data, pos)
    end = pos + 2 + length
    # A session cut short by the end of the data fails the f64 unpack.
    (value,) = _F64.unpack_from(data, end)
    return str(data[pos + 2:end], "utf-8"), value, end + _F64.size


def _update_at(data: bytes, pos: int) -> Tuple[BGPUpdate, int]:
    record, end = mrt.decode_at(data, pos)
    if not isinstance(record, BGPUpdate):
        raise WireError(f"expected an update record, got {record!r}")
    return record, end


def _record_at(data: bytes, pos: int) -> Tuple[object, int]:
    """Parse the record at ``pos``; returns it and the next offset."""
    tag = data[pos]
    pos += 1
    if tag == TAG_ENVELOPE:
        session, enqueued_at, pos = _stamp_at(data, pos)
        update, pos = _update_at(data, pos)
        return Envelope(update, session, enqueued_at), pos
    if tag == TAG_DISPOSITION:
        retained = bool(data[pos] & _FLAG_RETAINED)
        session, enqueued_at, pos = _stamp_at(data, pos + 1)
        update, pos = _update_at(data, pos)
        return Disposition(update, retained, session, enqueued_at), pos
    if tag == TAG_HEARTBEAT:
        session, time, pos = _stamp_at(data, pos)
        return Heartbeat(session, time), pos
    if tag == TAG_END:
        return END_OF_INPUT, pos
    if tag == TAG_DONE:
        return ShardDone(), pos
    raise WireError(f"unknown wire tag {tag}")


def _records_at(data: bytes, pos: int, count: int) -> List[object]:
    """Parse exactly ``count`` records filling ``data`` from ``pos``.

    The one place parse failures are translated: whatever a malformed
    field trips over (a short unpack, an index past the end, bad
    UTF-8, a bad embedded MRT record), the caller sees ``WireError``.
    """
    records = []
    try:
        for _ in range(count):
            item, pos = _record_at(data, pos)
            records.append(item)
    except WireError:
        raise
    except (struct.error, IndexError, ValueError) as exc:
        raise WireError(
            f"malformed wire record near byte {pos}: {exc}") from exc
    if pos != len(data):
        raise WireError(f"{len(data) - pos} trailing bytes after "
                        f"{count} records")
    return records


def decode_record(data: bytes) -> object:
    """Decode exactly one record; trailing bytes are an error."""
    return _records_at(data, 0, 1)[0]


def encode_frame(sequence: int, shard: int,
                 records: Sequence[object]) -> bytes:
    """Pack ``records`` into one framed batch."""
    return _FRAME.pack(sequence, shard, len(records)) \
        + b"".join(map(encode_record, records))


def decode_frame(data: bytes) -> Tuple[int, int, List[object]]:
    """Unpack one frame into ``(sequence, shard, records)``."""
    if len(data) < _FRAME.size:
        raise WireError("truncated frame header")
    sequence, shard, count = _FRAME.unpack_from(data)
    return sequence, shard, _records_at(data, _FRAME.size, count)
