"""Content integrity primitives: digests, verification, sealed lines.

Everything here is pure stdlib with no repro-internal imports, so the
archive writer (:mod:`repro.bgp.archive`), the query engine
(:mod:`repro.query.engine`) and the journals (:mod:`repro.gill.
journal`, :mod:`repro.events.store`) can all depend on it without
cycles.

Two integrity schemes live here:

* **file digests** — a CRC32 (cheap, verified on every read) and a
  SHA-256 (strong, verified by the scrubber) over a segment file's
  bytes, recorded in the archive's ``CHECKPOINT.json`` manifest at
  seal time;
* **sealed journal lines** — JSONL records carry a ``crc`` field over
  their canonical serialization, so a flipped byte inside a journal is
  distinguished from a legitimately different record (a torn tail only
  catches truncation).
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

#: Read segment files in chunks of this size when digesting.
_CHUNK = 1 << 20


class IntegrityError(Exception):
    """A segment or journal record failed verification."""

    def __init__(self, path: str, reason: str):
        super().__init__(f"integrity violation in {path}: {reason}")
        self.path = path
        self.reason = reason


@dataclass(frozen=True)
class FileDigests:
    """The recorded fingerprint of one sealed segment file."""

    size: int
    crc32: str
    sha256: str


def file_digests(path: str) -> FileDigests:
    """Digest a file's bytes (streamed; one pass computes both)."""
    crc = 0
    sha = hashlib.sha256()
    size = 0
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(_CHUNK)
            if not chunk:
                break
            size += len(chunk)
            crc = zlib.crc32(chunk, crc)
            sha.update(chunk)
    return FileDigests(size=size, crc32=f"{crc & 0xFFFFFFFF:08x}",
                       sha256=sha.hexdigest())


def crc32_of(data: bytes) -> str:
    return f"{zlib.crc32(data) & 0xFFFFFFFF:08x}"


def mismatch_reason(data: bytes,
                    size: Optional[int] = None,
                    crc32: Optional[str] = None,
                    sha256: Optional[str] = None) -> Optional[str]:
    """Why in-memory bytes disagree with recorded digests (None = ok).

    Checks run cheapest-first: a truncated file fails on ``size``
    without hashing anything; ``sha256`` is only computed when given
    (the scrubber's strong mode).  Absent digests are skipped, so
    archives written before checksumming verify vacuously.
    """
    if size is not None and len(data) != size:
        return "size"
    if crc32 is not None and crc32_of(data) != crc32:
        return "crc32"
    if sha256 is not None \
            and hashlib.sha256(data).hexdigest() != sha256:
        return "sha256"
    return None


def verify_file(path: str,
                size: Optional[int] = None,
                crc32: Optional[str] = None,
                sha256: Optional[str] = None) -> Optional[str]:
    """Like :func:`mismatch_reason` over a file on disk.

    Returns the mismatch reason, ``"missing"`` when the file is gone,
    or None when every given digest matches.
    """
    try:
        actual_size = os.path.getsize(path)
    except OSError:
        return "missing"
    if size is not None and actual_size != size:
        return "size"
    if crc32 is None and sha256 is None:
        return None
    # Stream once, computing only the digests actually asked for (the
    # hot read path asks for CRC alone; sha256 is the scrub pass).
    crc = 0
    sha = hashlib.sha256() if sha256 is not None else None
    try:
        with open(path, "rb") as handle:
            while True:
                chunk = handle.read(_CHUNK)
                if not chunk:
                    break
                if crc32 is not None:
                    crc = zlib.crc32(chunk, crc)
                if sha is not None:
                    sha.update(chunk)
    except OSError:
        return "missing"
    if crc32 is not None and f"{crc & 0xFFFFFFFF:08x}" != crc32:
        return "crc32"
    if sha is not None and sha.hexdigest() != sha256:
        return "sha256"
    return None


# -- sealed journal lines -----------------------------------------------------

#: The record key carrying a line's own checksum.
CRC_KEY = "crc"


def _canonical(record: dict) -> str:
    return json.dumps({k: v for k, v in record.items()
                       if k != CRC_KEY}, sort_keys=True)


def seal_record(record: dict) -> dict:
    """A copy of ``record`` carrying its own CRC32 under ``"crc"``.

    The checksum covers the canonical (sorted-keys) serialization of
    every other field, so sealing is deterministic: equal records seal
    to byte-identical lines — the property the chaos tests' journal
    byte-comparisons rely on.
    """
    sealed = dict(record)
    sealed[CRC_KEY] = f"{zlib.crc32(_canonical(record).encode('utf-8')) & 0xFFFFFFFF:08x}"
    return sealed


def record_intact(record: dict) -> bool:
    """Does a loaded journal record match its own seal?

    Records without a ``crc`` field (journals written before sealing
    existed) pass vacuously — the old torn-tail heuristics still
    apply to them.
    """
    recorded = record.get(CRC_KEY)
    if recorded is None:
        return True
    expected = f"{zlib.crc32(_canonical(record).encode('utf-8')) & 0xFFFFFFFF:08x}"
    return recorded == expected


def read_sealed_lines(lines: Iterable[str]
                      ) -> Tuple[List[Tuple[str, dict]], bool]:
    """Read a journal's sealed lines up to the first one not to trust.

    Returns ``(entries, torn)``: every ``(line, record)`` before the
    first line that is unterminated (a crash mid-append), unparseable,
    or fails its own seal, and whether reading stopped at such a line.
    Nothing after it is trusted, and an appender must not write behind
    it — the next record would be glued onto the partial line — so a
    journal's owner rewrites the file from ``entries`` when ``torn``.
    """
    entries: List[Tuple[str, dict]] = []
    for line in lines:
        if not line.endswith("\n"):
            return entries, True
        try:
            record = json.loads(line)
        except ValueError:
            return entries, True
        if not isinstance(record, dict) or not record_intact(record):
            return entries, True
        entries.append((line, record))
    return entries, False


class SealedJournal:
    """The one on-disk implementation behind ``gill.jsonl`` and
    ``events.jsonl``: an append-only file of :func:`seal_record` lines
    (sorted keys, so equal records are equal bytes).  Not thread-safe;
    the owning journal calls it under its own lock.

    ``fsync`` is the owner's flush policy: gill makes each slot record
    durable before the archive seals that slot; the event journal is
    regenerated from the archive on attach and sits on the seal path,
    so it does not pay for one.
    """

    def __init__(self, path: str, fsync: bool):
        self.path = path
        self.fsync = fsync
        #: Bytes of the file consumed so far: where :meth:`tail` resumes.
        self.offset = 0

    def append(self, record: dict) -> dict:
        """Seal ``record``, append its line, return the sealed copy."""
        sealed = seal_record(record)
        line = json.dumps(sealed, sort_keys=True) + "\n"
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line)
            if self.fsync:
                handle.flush()
                os.fsync(handle.fileno())
        self.offset += len(line.encode("utf-8"))
        return sealed

    def reset(self) -> None:
        """Truncate the file: its owner is about to regenerate it."""
        open(self.path, "w", encoding="utf-8").close()
        self.offset = 0

    def load(self, truncate_beyond: Optional[float] = None
             ) -> Tuple[List[dict], int]:
        """Re-read from the start: ``(records kept, records dropped)``.

        Records whose ``watermark`` exceeds ``truncate_beyond`` describe
        archive segments that crash recovery deleted.  When any are
        dropped, or the file ends in a torn line — the next append would
        be glued onto it — the file is atomically rewritten from the
        kept lines; a clean journal is never rewritten.
        """
        entries: List[Tuple[str, dict]] = []
        torn = False
        if os.path.exists(self.path):
            with open(self.path, "r", encoding="utf-8") as handle:
                entries, torn = read_sealed_lines(handle)
        kept = [(line, record) for line, record in entries
                if truncate_beyond is None
                or record.get("watermark") is None
                or record["watermark"] <= truncate_beyond]
        if torn or len(kept) < len(entries):
            tmp = self.path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.writelines(line for line, _ in kept)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.path)
        self.offset = sum(len(line.encode("utf-8")) for line, _ in kept)
        return [record for _, record in kept], len(entries) - len(kept)

    def tail(self) -> Optional[List[dict]]:
        """Records appended since the last load / append / tail, or
        None when the file shrank (recovery rewrote it) and the owner
        must :meth:`load` again.  Never rewrites: a partial last line
        is simply not consumed yet."""
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return []
        if size < self.offset:
            return None
        if size == self.offset:
            return []
        with open(self.path, "r", encoding="utf-8") as handle:
            handle.seek(self.offset)
            entries, _ = read_sealed_lines(handle)
        self.offset += sum(len(line.encode("utf-8")) for line, _ in entries)
        return [record for _, record in entries]
