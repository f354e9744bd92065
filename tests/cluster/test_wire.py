"""Property tests for the cluster wire codec.

The serialization contract the IPC path depends on: every payload type
round-trips byte→object→byte without pickle, malformed data raises
``WireError`` instead of mis-decoding, and frames carry their sequence
number and shard id faithfully.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import mrt
from repro.bgp.message import BGPUpdate
from repro.bgp.prefix import Prefix
from repro.bgp.rib import Route
from repro.cluster import wire
from repro.cluster.wire import (
    END_OF_INPUT,
    WireError,
    decode_frame,
    decode_record,
    encode_frame,
    encode_record,
)
from repro.pipeline.stages import (
    END_OF_STREAM,
    Disposition,
    Envelope,
    Heartbeat,
    ShardDone,
)
from repro.telemetry import Tracer

# -- strategies --------------------------------------------------------------

names = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=0x2FA0),
    min_size=1, max_size=24)

def _prefix(family, length, raw):
    bits = 32 if family == 4 else 128
    host = bits - length
    return Prefix(family, (raw >> host) << host, length)


prefixes = st.one_of(
    st.builds(_prefix, st.just(4),
              st.integers(0, 32), st.integers(0, 2 ** 32 - 1)),
    st.builds(_prefix, st.just(6),
              st.integers(0, 128), st.integers(0, 2 ** 128 - 1)),
)

times = st.floats(min_value=0.0, max_value=2e9,
                  allow_nan=False, allow_infinity=False)

stamps = st.floats(min_value=-1e6, max_value=1e9,
                   allow_nan=False, allow_infinity=False)

announcements = st.builds(
    BGPUpdate, names, times, prefixes,
    st.lists(st.integers(1, 2 ** 32 - 1), max_size=6).map(tuple),
    st.frozensets(st.tuples(st.integers(0, 2 ** 32 - 1),
                            st.integers(0, 2 ** 32 - 1)), max_size=4),
)

withdrawals = st.builds(
    BGPUpdate, names, times, prefixes,
    st.just(()), st.just(frozenset()), st.just(True))

updates = st.one_of(announcements, withdrawals)

envelopes = st.builds(Envelope, updates, names, stamps)

heartbeats = st.one_of(
    st.builds(Heartbeat, names, times),
    st.builds(Heartbeat, names, st.just(END_OF_STREAM)),
)

dispositions = st.builds(Disposition, updates, st.booleans(),
                         names, stamps)

records = st.one_of(envelopes, heartbeats, dispositions,
                    st.just(END_OF_INPUT))

# Traced variants: a live pipeline span on an envelope or disposition,
# as a sampling tracer hands them out.
live_spans = st.builds(Tracer(1.0).start, names)

traced_envelopes = st.builds(Envelope, updates, names, stamps,
                             live_spans)

traced_dispositions = st.builds(Disposition, updates, st.booleans(),
                                names, stamps, live_spans)

traced_records = st.one_of(traced_envelopes, traced_dispositions)


# -- record round-trips ------------------------------------------------------

class TestRecordRoundtrip:
    @given(envelopes)
    @settings(max_examples=200)
    def test_envelope(self, envelope):
        assert decode_record(encode_record(envelope)) == envelope

    @given(heartbeats)
    @settings(max_examples=200)
    def test_heartbeat(self, heartbeat):
        assert decode_record(encode_record(heartbeat)) == heartbeat

    @given(dispositions)
    @settings(max_examples=200)
    def test_disposition(self, disposition):
        assert decode_record(encode_record(disposition)) == disposition

    @given(heartbeats)
    def test_watermark(self, heartbeat):
        """The watermark a shard forwards is the session's heartbeat
        itself; the retired watermark tag no longer decodes."""
        assert encode_record(heartbeat)[0] == wire.TAG_HEARTBEAT
        assert decode_record(encode_record(heartbeat)) == heartbeat
        with pytest.raises(WireError, match="unknown wire tag 5"):
            decode_record(b"\x05" + encode_record(heartbeat)[1:])

    def test_end_marker(self):
        data = encode_record(END_OF_INPUT)
        assert data == b"\x03"
        assert decode_record(data) == END_OF_INPUT

    def test_shard_done(self):
        assert isinstance(decode_record(encode_record(ShardDone())),
                          ShardDone)

    def test_end_of_stream_heartbeat_survives(self):
        marker = Heartbeat("rrc00", END_OF_STREAM)
        decoded = decode_record(encode_record(marker))
        assert math.isinf(decoded.time)

    def test_trace_is_not_transported(self):
        # Sampled spans are thread-backend-only; the wire form must
        # drop them rather than pickle an unpicklable live object.
        env = Envelope(BGPUpdate("vp", 1.0, Prefix.parse("10.0.0.0/8")),
                       "s", 0.0, trace=object())
        assert decode_record(encode_record(env)).trace is None


# -- frame round-trips -------------------------------------------------------

class TestFrameRoundtrip:
    @given(st.integers(0, 2 ** 64 - 1), st.integers(0, 0xFFFF),
           st.lists(records, max_size=12))
    @settings(max_examples=100)
    def test_frame(self, sequence, shard, batch):
        encoded = encode_frame(sequence, shard, batch)
        got_seq, got_shard, got = decode_frame(encoded)
        assert got_seq == sequence
        assert got_shard == shard
        assert got == batch

    def test_empty_frame(self):
        assert decode_frame(encode_frame(0, 0, [])) == (0, 0, [])

    def test_no_pickle_on_the_wire(self):
        # A frame must be plain struct+MRT bytes: no pickle opcodes.
        batch = [Envelope(BGPUpdate("vp", 1.0,
                                    Prefix.parse("10.0.0.0/8")), "s", 0.0),
                 Heartbeat("s", 2.0), END_OF_INPUT]
        encoded = encode_frame(1, 0, batch)
        assert b"\x80\x04" not in encoded      # pickle protocol 4 magic
        assert b"pickle" not in encoded


# -- traced records -----------------------------------------------------------

def _untraced(item):
    if isinstance(item, (Envelope, Disposition)):
        return dataclasses.replace(item, trace=None)
    return item


class TestTracedWire:
    """A span never crosses the wire: a traced record encodes to the
    bytes of its untraced twin and decodes to that twin."""

    @given(traced_envelopes)
    @settings(max_examples=200)
    def test_traced_envelope_roundtrip(self, envelope):
        plain = _untraced(envelope)
        assert encode_record(envelope) == encode_record(plain)
        assert decode_record(encode_record(envelope)) == plain

    @given(traced_dispositions)
    @settings(max_examples=200)
    def test_traced_disposition_roundtrip(self, disposition):
        plain = _untraced(disposition)
        assert encode_record(disposition) == encode_record(plain)
        assert decode_record(encode_record(disposition)) == plain

    @given(st.integers(0, 2 ** 64 - 1), st.integers(0, 0xFFFF),
           st.lists(st.one_of(records, traced_records), max_size=12))
    @settings(max_examples=100)
    def test_mixed_frame_roundtrip(self, sequence, shard, batch):
        plain = [_untraced(item) for item in batch]
        encoded = encode_frame(sequence, shard, batch)
        assert encoded == encode_frame(sequence, shard, plain)
        assert decode_frame(encoded) == (sequence, shard, plain)


# -- malformed input ---------------------------------------------------------

class TestMalformed:
    def test_unknown_tag(self):
        with pytest.raises(WireError, match="unknown wire tag"):
            decode_record(b"\xff")

    def test_trailing_bytes(self):
        with pytest.raises(WireError, match="trailing"):
            decode_record(encode_record(END_OF_INPUT) + b"junk")

    def test_truncated_frame_header(self):
        with pytest.raises(WireError, match="truncated frame header"):
            decode_frame(b"\x00\x01")

    @given(st.lists(records, min_size=1, max_size=4),
           st.integers(min_value=1))
    @settings(max_examples=60)
    def test_truncated_frame_body(self, batch, cut):
        encoded = encode_frame(1, 0, batch)
        cut = min(cut, len(encoded) - wire._FRAME.size)
        if cut <= 0:
            return
        with pytest.raises(WireError):
            decode_frame(encoded[:-cut])

    def test_unencodable_type(self):
        with pytest.raises(WireError, match="cannot encode"):
            encode_record(object())

    def test_embedded_rib_record_rejected(self):
        rib = mrt.encode_rib_entry(
            "vp", Route(Prefix.parse("10.0.0.0/8"), (1,)))
        with pytest.raises(WireError, match="expected an update"):
            decode_record(b"\x01\x00\x01s" + bytes(8) + rib)

    @given(st.lists(st.one_of(records, traced_records),
                    min_size=1, max_size=4), st.data())
    @settings(max_examples=300)
    def test_damaged_frame_raises_only_wire_error(self, batch, data):
        """Any one-byte mutation or truncation of a valid frame either
        still decodes or raises ``WireError`` — never ``struct.error``,
        ``MRTError``, ``UnicodeDecodeError`` or an ``IndexError``."""
        frame = bytearray(encode_frame(1, 0, batch))
        if data.draw(st.booleans(), label="truncate"):
            del frame[data.draw(st.integers(0, len(frame) - 1)):]
        else:
            at = data.draw(st.integers(0, len(frame) - 1))
            frame[at] = data.draw(st.integers(0, 255))
        try:
            decode_frame(bytes(frame))
        except WireError:
            pass


# -- format pinning ----------------------------------------------------------

_ANNOUNCE = BGPUpdate("vp10010", 1234.5, Prefix.parse("10.0.11.0/24"),
                      (65001, 3356, 4200000000),
                      {(3356, 100), (65001, 0)})
_WITHDRAW = BGPUpdate("rrc00-π", 7.25, Prefix.parse("2001:db8::/32"),
                      is_withdrawal=True)
_UNTRACED = [
    Envelope(_ANNOUNCE, "s0", 0.125), Heartbeat("s0", 9.0),
    Heartbeat("s1", END_OF_STREAM),
    Disposition(_WITHDRAW, True, "s0", 0.5),
    Disposition(_ANNOUNCE, False, "s1", 0.75),
    END_OF_INPUT, ShardDone()]

_ANNOUNCE_HEX = (
    "40934a0000000000001000010000002f00077670313030313004180a000b0000"
    "030000fde900000d1cfa56ea00000200000d1c000000640000fde900000000")
_WITHDRAW_HEX = (
    "401d000000000000001000020000001c000872726330302dcf80062020010db8"
    "000000000000000000000000")

# encode_frame(7, 3, _UNTRACED) as captured before the offset-based
# codec (commit 393e2c3).  Since then the frame has lost its WATERMARK
# record (tag 05: a shard forwards the session's heartbeat itself, so
# there is no separate watermark record) and the record count says 7,
# not 8; nothing else moved.
_UNTRACED_HEX = (
    "0000000000000007" "0003" "00000007"
    "01" "00027330" "3fc0000000000000" + _ANNOUNCE_HEX +
    "02" "00027330" "4022000000000000"
    "02" "00027331" "7ff0000000000000"
    "04" "01" "00027330" "3fe0000000000000" + _WITHDRAW_HEX +
    "04" "00" "00027331" "3fe8000000000000" + _ANNOUNCE_HEX +
    "03" "06")


class TestGoldenFrames:
    def test_untraced_frame_is_byte_identical(self):
        assert encode_frame(7, 3, _UNTRACED).hex() == _UNTRACED_HEX
        seq, shard, got = decode_frame(bytes.fromhex(_UNTRACED_HEX))
        assert (seq, shard, got[:-1]) == (7, 3, _UNTRACED[:-1])
        assert isinstance(got[-1], ShardDone)
