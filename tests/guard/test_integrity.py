"""Unit tests for the integrity primitives (repro.guard.integrity)."""

import hashlib
import json
import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.guard.integrity import (
    SealedJournal,
    crc32_of,
    file_digests,
    mismatch_reason,
    record_intact,
    seal_record,
    verify_file,
)

PAYLOAD = b"the bytes that were sealed" * 100


def write_payload(tmp_path, data=PAYLOAD):
    path = tmp_path / "segment.bin"
    path.write_bytes(data)
    return str(path)


class TestFileDigests:
    def test_matches_reference_implementations(self, tmp_path):
        path = write_payload(tmp_path)
        digests = file_digests(path)
        assert digests.size == len(PAYLOAD)
        assert digests.crc32 \
            == f"{zlib.crc32(PAYLOAD) & 0xFFFFFFFF:08x}"
        assert digests.sha256 == hashlib.sha256(PAYLOAD).hexdigest()

    def test_empty_file(self, tmp_path):
        path = write_payload(tmp_path, b"")
        digests = file_digests(path)
        assert digests.size == 0
        assert digests.crc32 == "00000000"

    def test_crc32_of_agrees_with_file_digests(self, tmp_path):
        path = write_payload(tmp_path)
        assert crc32_of(PAYLOAD) == file_digests(path).crc32


class TestMismatchReason:
    def digests(self):
        return dict(size=len(PAYLOAD), crc32=crc32_of(PAYLOAD),
                    sha256=hashlib.sha256(PAYLOAD).hexdigest())

    def test_intact_bytes_pass(self):
        assert mismatch_reason(PAYLOAD, **self.digests()) is None

    def test_size_checked_first(self):
        # A truncated payload fails on size before any hashing.
        assert mismatch_reason(PAYLOAD[:-1], **self.digests()) == "size"

    def test_flip_caught_by_crc(self):
        flipped = bytearray(PAYLOAD)
        flipped[len(flipped) // 2] ^= 0xFF
        assert mismatch_reason(bytes(flipped), **self.digests()) \
            == "crc32"

    def test_sha_only_checked_when_given(self):
        # Wrong sha but matching size+crc: the hot path (no sha asked)
        # passes, the scrub path (sha asked) catches it.
        assert mismatch_reason(PAYLOAD, size=len(PAYLOAD),
                               crc32=crc32_of(PAYLOAD)) is None
        assert mismatch_reason(PAYLOAD, sha256="0" * 64) == "sha256"

    def test_absent_digests_verify_vacuously(self):
        # Pre-checksum archives carry no digests at all.
        assert mismatch_reason(PAYLOAD) is None


class TestVerifyFile:
    def test_intact_file_passes(self, tmp_path):
        path = write_payload(tmp_path)
        digests = file_digests(path)
        assert verify_file(path, size=digests.size,
                           crc32=digests.crc32,
                           sha256=digests.sha256) is None

    def test_missing_file(self, tmp_path):
        assert verify_file(str(tmp_path / "gone"), size=1) == "missing"

    def test_on_disk_flip_caught(self, tmp_path):
        path = write_payload(tmp_path)
        digests = file_digests(path)
        data = bytearray(PAYLOAD)
        data[0] ^= 0x01
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        assert verify_file(path, size=digests.size,
                           crc32=digests.crc32) == "crc32"

    def test_size_only_fast_path(self, tmp_path):
        # With neither hash asked for, nothing is read back.
        path = write_payload(tmp_path)
        assert verify_file(path, size=len(PAYLOAD)) is None
        assert verify_file(path, size=len(PAYLOAD) + 1) == "size"


class TestSealedRecords:
    def test_roundtrip(self):
        record = {"watermark": 1200.0, "kept": 10, "dropped": 5}
        sealed = seal_record(record)
        assert record_intact(sealed)
        assert {k: v for k, v in sealed.items() if k != "crc"} == record

    def test_tampered_value_detected(self):
        sealed = seal_record({"watermark": 1200.0, "kept": 10})
        sealed["kept"] = 11
        assert not record_intact(sealed)

    def test_sealing_is_deterministic(self):
        # Equal records seal to byte-identical lines regardless of
        # insertion order — the property the byte-identical-journal
        # chaos tests rely on.
        a = seal_record({"a": 1, "b": [2, 3]})
        b = seal_record({"b": [2, 3], "a": 1})
        assert json.dumps(a, sort_keys=True) \
            == json.dumps(b, sort_keys=True)

    def test_unsealed_records_pass_vacuously(self):
        # Journals written before sealing existed have no crc field.
        assert record_intact({"watermark": 0.0})

    def test_journal_line_flip_detected(self):
        line = json.dumps(seal_record({"scores": {"vp1": 0.5}}))
        flipped = line.replace("0.5", "0.7")
        assert not record_intact(json.loads(flipped))


# Keys around "crc" in sort order, so the spliced field lands first,
# in the middle and last; text and floats of every kind.
_KEYS = st.one_of(
    st.sampled_from(["anchors", "cr", "crc0", "crd", "drops", "event",
                     "kept", "op", "scores", "watermark", "\u00e9t\u00e9"]),
    st.text(max_size=6))
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=8),
    st.floats(allow_nan=True, allow_infinity=True))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=12)
_GILL_RECORDS = st.fixed_dictionaries({
    "watermark": st.floats(0, 1e6), "kept": st.integers(0, 10 ** 6),
    "anchors": st.lists(st.text(max_size=6), max_size=3),
    "scores": st.dictionaries(st.text(max_size=6), st.fixed_dictionaries({
        "redundancy": st.floats(), "volume": st.integers(),
        "anchor": st.booleans()}), max_size=3)})
_EVENT_RECORDS = st.fixed_dictionaries({
    "op": st.just("upsert"), "watermark": st.floats(0, 1e6),
    "event": st.dictionaries(_KEYS, _VALUES, max_size=6)})


class TestJournalAppend:
    @settings(max_examples=200, deadline=None)
    @given(record=st.one_of(st.dictionaries(_KEYS, _VALUES, max_size=6),
                            _GILL_RECORDS, _EVENT_RECORDS))
    def test_line_is_dumps_of_the_sealed_record(self, tmp_path_factory,
                                                record):
        """Each field is encoded once, yet the line is byte for byte
        the sorted-keys dump of :func:`seal_record`'s copy."""
        path = tmp_path_factory.mktemp("journal") / "j.jsonl"
        journal = SealedJournal(str(path), fsync=False)
        sealed = journal.append(record)
        expected = json.dumps(seal_record(record), sort_keys=True) + "\n"
        assert path.read_text(encoding="utf-8") == expected
        assert journal.offset == len(expected.encode("utf-8"))
        assert json.dumps(sealed, sort_keys=True) + "\n" == expected

    def test_a_stale_crc_field_is_replaced(self, tmp_path):
        path = tmp_path / "j.jsonl"
        record = {"kept": 1, "crc": "00000000"}
        SealedJournal(str(path), fsync=False).append(record)
        assert path.read_text(encoding="utf-8") \
            == json.dumps(seal_record(record), sort_keys=True) + "\n"


class TestVerificationCounter:
    """``verification_ok`` runs once per verified segment read, so it
    resolves its labelled child once — on first use, so a guard that
    never verified exposes no ``outcome="ok"`` sample."""

    def test_child_resolved_once_on_first_use(self, tmp_path,
                                              monkeypatch):
        from repro.guard import IntegrityGuard
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        guard = IntegrityGuard(str(tmp_path), registry=registry)
        family = guard._verifications
        resolved = []
        labels = family.labels
        monkeypatch.setattr(
            family, "labels",
            lambda **names: resolved.append(names) or labels(**names))

        def samples():
            doc = registry.to_json()
            return [(s["labels"], s["value"]) for f in doc["families"]
                    if f["name"] == "repro_guard_verifications_total"
                    for s in f["samples"]]
        assert samples() == []
        for _ in range(3):
            guard.verification_ok()
        guard.verification_failed()
        assert resolved == [{"outcome": "ok"}, {"outcome": "mismatch"}]
        assert samples() == [({"outcome": "mismatch"}, 1),
                             ({"outcome": "ok"}, 3)]
