"""Tests for the MRT-style codec."""

import bz2
import io
import os
import struct
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.message import BGPUpdate
from repro.bgp.mrt import (
    MRTError,
    RIBRecord,
    decode_at,
    decode_record_at,
    decode_records,
    encode_rib_entry,
    encode_update,
    is_bz2,
    iter_archive,
    iter_decoded,
    read_archive,
    read_record,
    write_archive,
    write_records,
)
from repro.bgp.prefix import Prefix
from repro.bgp.rib import Route
from repro.query.index import read_payload

P1 = Prefix.parse("10.0.0.0/24")
P6 = Prefix.parse("2001:db8::/32")


def roundtrip(update):
    records = list(decode_records(encode_update(update)))
    assert len(records) == 1
    return records[0]


class TestUpdateRoundtrip:
    def test_announcement(self):
        u = BGPUpdate("vp1", 123.5, P1, (6, 2, 1, 4), {(6, 100), (4, 0)})
        assert roundtrip(u) == u

    def test_withdrawal(self):
        u = BGPUpdate("vp1", 7.0, P1, is_withdrawal=True)
        assert roundtrip(u) == u

    def test_ipv6_prefix(self):
        u = BGPUpdate("vp-long-name", 0.0, P6, (1, 2))
        assert roundtrip(u) == u

    def test_empty_communities(self):
        u = BGPUpdate("v", 0.0, P1, (1,))
        assert roundtrip(u) == u

    def test_large_asn(self):
        u = BGPUpdate("v", 0.0, P1, (4200000000, 2))
        assert roundtrip(u) == u


class TestRIBRecordRoundtrip:
    def test_rib_entry(self):
        route = Route(P1, (1, 2, 3), frozenset({(1, 5)}), 42.0)
        records = list(decode_records(encode_rib_entry("vp9", route)))
        assert records == [RIBRecord("vp9", route)]


class TestErrors:
    def test_truncated_header(self):
        data = encode_update(BGPUpdate("v", 0.0, P1, (1,)))
        with pytest.raises(MRTError):
            list(decode_records(data[:-3] + b""))

    def test_garbage_type(self):
        data = bytearray(encode_update(BGPUpdate("v", 0.0, P1, (1,))))
        data[8:10] = (99).to_bytes(2, "big")   # corrupt the type field
        with pytest.raises(MRTError):
            list(decode_records(bytes(data)))


class TestArchive:
    def test_write_read_compressed(self, tmp_path):
        updates = [BGPUpdate(f"vp{i}", float(i), P1, (i + 1, 2))
                   for i in range(10)]
        path = str(tmp_path / "arch.mrt.bz2")
        assert write_archive(updates, path) == 10
        assert read_archive(path) == updates

    def test_write_read_uncompressed(self, tmp_path):
        updates = [BGPUpdate("vp1", 0.0, P1, (1, 2))]
        path = str(tmp_path / "arch.mrt")
        write_archive(updates, path, compress=False)
        assert read_archive(path) == updates

    def test_empty_archive(self, tmp_path):
        path = str(tmp_path / "empty.mrt.bz2")
        assert write_archive([], path) == 0
        assert read_archive(path) == []


as_paths = st.lists(st.integers(min_value=1, max_value=2**32 - 1),
                    min_size=1, max_size=8).map(tuple)
communities = st.sets(
    st.tuples(st.integers(min_value=0, max_value=2**32 - 1),
              st.integers(min_value=0, max_value=2**32 - 1)),
    max_size=5,
).map(frozenset)


@given(
    vp=st.text(min_size=1, max_size=20),
    time=st.floats(min_value=0, max_value=2**31, allow_nan=False),
    index=st.integers(min_value=0, max_value=10000),
    path=as_paths,
    comms=communities,
)
def test_codec_roundtrip_property(vp, time, index, path, comms):
    """Property: decode(encode(u)) == u for arbitrary updates."""
    u = BGPUpdate(vp, time, Prefix.from_index(index), path, comms)
    assert roundtrip(u) == u


# -- format pinning ----------------------------------------------------------

ANNOUNCE = BGPUpdate("vp10010", 1234.5, Prefix.parse("10.0.11.0/24"),
                     (65001, 3356, 4200000000),
                     {(3356, 100), (65001, 0)})
WITHDRAW = BGPUpdate("rrc00-π", 7.25, P6, is_withdrawal=True)
RIB_ROUTE = Route(P6, (1, 2, 3), frozenset({(1, 5)}), 42.0)

# Captured from the encoder as it stood before the offset-based codec
# (commit 393e2c3): the archive format on disk must never move.
GOLDEN = {
    "announce": (
        "40934a0000000000001000010000002f00077670313030313004180a000b00"
        "00030000fde900000d1cfa56ea00000200000d1c000000640000fde900000000"),
    "withdraw": (
        "401d000000000000001000020000001c000872726330302dcf80062020010d"
        "b8000000000000000000000000"),
    "rib": (
        "4045000000000000000d00040000002f0003767039062020010db800000000"
        "0000000000000000000300000001000000020000000300010000000100000005"),
}


class TestGoldenBytes:
    def test_encoders_are_byte_identical(self):
        assert encode_update(ANNOUNCE).hex() == GOLDEN["announce"]
        assert encode_update(WITHDRAW).hex() == GOLDEN["withdraw"]
        assert encode_rib_entry("vp9", RIB_ROUTE).hex() == GOLDEN["rib"]

    def test_golden_bytes_decode(self):
        payload = bytes.fromhex("".join(GOLDEN.values()))
        assert list(decode_records(payload)) == [
            ANNOUNCE, WITHDRAW, RIBRecord("vp9", RIB_ROUTE)]


# -- one decoder, many entry points ------------------------------------------

updates = st.builds(
    BGPUpdate, st.text(max_size=12),
    st.floats(min_value=0, max_value=2**31, allow_nan=False),
    st.integers(0, 10000).map(Prefix.from_index) | st.just(P6),
    as_paths, communities)
withdrawals = st.builds(
    BGPUpdate, st.text(max_size=12), st.floats(0, 2**31), st.just(P6),
    is_withdrawal=st.just(True))
encoded_records = st.one_of(
    updates.map(encode_update), withdrawals.map(encode_update),
    updates.map(lambda u: encode_rib_entry(
        u.vp, Route(u.prefix, u.as_path, u.communities, u.time))))


@given(st.lists(encoded_records, max_size=6))
def test_entry_points_agree(chunks):
    """``iter_decoded`` offsets, ``decode_at`` chaining,
    ``decode_record_at`` and the stream reader are the same decoder."""
    payload = b"".join(chunks)
    starts = [sum(map(len, chunks[:i])) for i in range(len(chunks))]
    walked = list(iter_decoded(payload))
    assert [offset for offset, _ in walked] == starts
    records = [record for _, record in walked]
    assert records == list(decode_records(payload))
    for start, chunk, record in zip(starts, chunks, records):
        assert decode_record_at(payload, start) == record
        assert decode_at(memoryview(payload), start) == \
            (record, start + len(chunk))
    stream = io.BytesIO(payload)
    assert list(iter(lambda: read_record(stream), None)) == records


class TestEncodingDetection:
    """Readers are never told how a file is encoded: a bz2 stream is
    recognised by its first ten bytes, whatever the file is called."""

    @given(chunks=st.lists(encoded_records, max_size=6),
           compress=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_every_reader_detects_the_encoding(self, chunks, compress):
        payload = b"".join(chunks)
        expected = list(decode_records(payload))
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "segment")
            write_records(chunks, path, compress)
            with open(path, "rb") as handle:
                assert is_bz2(handle.read()) == compress
            assert read_archive(path) == expected
            assert list(iter_archive(path)) == expected
            assert read_payload(path) == payload

    @pytest.mark.parametrize("tail", ["00000000", "31415926", "17724538"],
                             ids=["zeros", "block-magic", "end-magic"])
    def test_plain_record_opening_like_bz2_reads_as_mrt(self, tmp_path,
                                                        tail):
        """A timestamp that packs to ``BZh9`` (then zeros, or the first
        four bytes of either bz2 magic) leaves the MRT type where the
        magic's last two bytes would be: still a plain record."""
        time = struct.unpack("!d", b"BZh9" + bytes.fromhex(tail))[0]
        update = BGPUpdate("vp1", time, P1, (1, 2))
        path = str(tmp_path / "lookalike.mrt")
        write_archive([update], path, compress=False)
        with open(path, "rb") as handle:
            assert handle.read(8) == b"BZh9" + bytes.fromhex(tail)
        assert read_archive(path) == [update]
        assert list(iter_archive(path)) == [update]
        assert read_payload(path) == encode_update(update)

    @pytest.mark.parametrize("content", [b"", bz2.compress(b"")],
                             ids=["empty", "empty-bz2"])
    def test_empty_files_hold_no_records(self, tmp_path, content):
        path = tmp_path / "empty"
        path.write_bytes(content)
        assert is_bz2(content) == bool(content)
        assert read_archive(str(path)) == []
        assert list(iter_archive(str(path))) == []
        assert read_payload(str(path)) == b""


@given(st.lists(encoded_records, min_size=1, max_size=3), st.data())
@settings(max_examples=300)
def test_damaged_payload_raises_only_mrt_error(chunks, data):
    """Any one-byte mutation or truncation either still decodes or
    raises ``MRTError`` — never ``struct.error``, ``PrefixError``,
    ``UnicodeDecodeError`` or an ``IndexError``."""
    payload = bytearray(b"".join(chunks))
    if data.draw(st.booleans(), label="truncate"):
        del payload[data.draw(st.integers(0, len(payload) - 1)):]
    else:
        at = data.draw(st.integers(0, len(payload) - 1))
        payload[at] = data.draw(st.integers(0, 255))
    damaged = bytes(payload)
    for decode in (lambda: list(decode_records(damaged)),
                   lambda: decode_record_at(damaged, len(chunks[0])),
                   lambda: list(iter(
                       lambda s=io.BytesIO(damaged): read_record(s),
                       None))):
        try:
            decode()
        except MRTError:
            pass


def test_field_corruption_is_an_mrt_error():
    record = bytearray(encode_update(ANNOUNCE))
    record[16 + 2] = 0xFF                  # first VP byte: invalid UTF-8
    with pytest.raises(MRTError, match="malformed record"):
        decode_at(bytes(record))
    record = bytearray(encode_update(ANNOUNCE))
    record[16 + 2 + 7 + 1] = 8             # /8 with host bits set
    with pytest.raises(MRTError, match="host bits"):
        decode_at(bytes(record))
    with pytest.raises(MRTError):
        decode_at(encode_update(ANNOUNCE), -1)
