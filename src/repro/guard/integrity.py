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

import bisect
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


_encode = json.JSONEncoder(sort_keys=True).encode


def _crc(canonical: str) -> str:
    return f"{zlib.crc32(canonical.encode('utf-8')) & 0xFFFFFFFF:08x}"


def _sealed_line(record: dict) -> Tuple[str, str]:
    """``(crc, line)`` where ``line`` is ``json.dumps(seal_record(record),
    sort_keys=True) + "\n"`` for a record with string keys, but each
    field is encoded once: the canonical text the CRC covers is the
    line minus its ``"crc"`` field, so that field is spliced in at its
    sorted position afterwards."""
    keys = sorted(key for key in record if key != CRC_KEY)
    fields = [f"{_encode(key)}: {_encode(record[key])}" for key in keys]
    crc = _crc("{" + ", ".join(fields) + "}")
    fields.insert(bisect.bisect(keys, CRC_KEY), f'"{CRC_KEY}": "{crc}"')
    return crc, "{" + ", ".join(fields) + "}\n"


def seal_record(record: dict) -> dict:
    """A copy of ``record`` carrying its own CRC32 under ``"crc"``.

    The checksum covers the canonical (sorted-keys) serialization of
    every other field, so sealing is deterministic: equal records seal
    to byte-identical lines — the property the chaos tests' journal
    byte-comparisons rely on.
    """
    sealed = dict(record)
    sealed[CRC_KEY] = _crc(_canonical(record))
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
    return recorded == _crc(_canonical(record))


def fsync_path(path: str) -> None:
    """fsync a file or directory by path (a directory's fsync makes the
    creation or replacement of its entries durable, not just the files'
    contents)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def read_sealed_lines(lines: Iterable[str]
                      ) -> Tuple[List[Tuple[str, dict]], bool]:
    """Read a journal's sealed lines up to the first one not to trust.

    Returns ``(entries, torn)``: every ``(line, record)`` before the
    first line that is unterminated (a crash mid-append), unparseable,
    or fails its own seal, and whether reading stopped at such a line.
    Nothing after it is trusted, and an appender must not write behind
    it — the next record would be glued onto the partial line — so a
    journal's owner cuts the file back to ``entries`` when ``torn``.
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
    """The one on-disk implementation behind the archive's three
    durable logs (``CHECKPOINT.json``, ``gill.jsonl`` and
    ``events.jsonl``): an append-only file of :func:`seal_record`
    lines (sorted keys, so equal records are equal bytes).  Not
    thread-safe; the owning journal calls it under its own lock.

    Reading never writes: :meth:`load` and :meth:`tail` only read, so
    a reader that catches its owner's append half-written leaves it
    alone.  Only the file's owner rewrites it — :meth:`load` with
    ``truncate_beyond`` at recovery, :meth:`replace` and :meth:`reset`
    — and an owner's first :meth:`append` after a load that ended in a
    torn line cuts that line off first, so a record is never glued
    onto it.

    ``fsync`` is the owner's flush policy: the manifest and gill make
    each line durable before the archive relies on it (and then also
    the directory entry of a file they create or replace); the event
    journal is regenerated from the archive on attach and sits on the
    seal path, so it does not pay for one.
    """

    def __init__(self, path: str, fsync: bool):
        self.path = path
        self.fsync = fsync
        #: Bytes of the file consumed so far (the end of its last whole
        #: line read or written): where :meth:`tail` resumes.
        self.offset = 0
        #: Inode of the file read so far (None before one was read):
        #: when the path names another file, the owner replaced it.
        self.inode: Optional[int] = None
        #: The last read stopped before the end of the file, at a line
        #: not to trust (a crash mid-append): bytes past ``offset``.
        self.torn = False

    def append(self, record: dict) -> dict:
        """Seal ``record``, append its line, return the sealed copy
        (equal to :func:`seal_record`'s)."""
        crc, line = _sealed_line(record)
        sealed = dict(record)
        sealed[CRC_KEY] = crc
        if self.torn:
            self._cut()
        with open(self.path, "a", encoding="utf-8") as handle:
            created = handle.tell() == 0
            handle.write(line)
            if self.fsync:
                handle.flush()
                os.fsync(handle.fileno())
        if created and self.fsync:
            fsync_path(os.path.dirname(self.path) or ".")
        self.offset += len(line.encode("utf-8"))
        return sealed

    def reset(self) -> None:
        """Truncate the file: its owner is about to regenerate it."""
        open(self.path, "w", encoding="utf-8").close()
        self.offset = 0
        self.torn = False

    def replace(self, records: Iterable[dict]) -> None:
        """Atomically make the file hold exactly ``records``, sealed:
        how an owner creates the file whole or replaces it."""
        self._replace(_sealed_line(record)[1] for record in records)

    def load(self, truncate_beyond: Optional[float] = None
             ) -> Tuple[List[dict], int]:
        """Re-read from the start: ``(records kept, records dropped)``,
        the records being those of the whole lines before the first
        one not to trust (:func:`read_sealed_lines`).

        A plain load only reads.  ``truncate_beyond`` is the owner's
        recovery: records whose ``watermark`` exceeds it describe
        archive segments that crash recovery deleted, and are dropped
        by an atomic rewrite (a reader following the file sees it
        replaced and loads again); a torn tail alone is cut off in
        place (no reader consumed it).  A clean journal is never
        written.
        """
        entries = self._read()
        kept = [(line, record) for line, record in entries
                if truncate_beyond is None
                or record.get("watermark") is None
                or record["watermark"] <= truncate_beyond]
        if len(kept) < len(entries):
            self._replace(line for line, _ in kept)
        elif self.torn and truncate_beyond is not None:
            self._cut()
        return [record for _, record in kept], len(entries) - len(kept)

    def tail(self) -> Optional[List[dict]]:
        """Records appended since the last load / append / tail, or
        None when the path no longer names the file read so far —
        replaced (an owner's rewrite), shorter, or gone — and the
        reader must :meth:`load` again.  Never writes: a partial last
        line is simply not consumed yet."""
        try:
            stat = os.stat(self.path)
        except FileNotFoundError:
            return [] if self.inode is None else None
        if stat.st_size < self.offset or (
                self.inode is not None and stat.st_ino != self.inode):
            return None
        if stat.st_size == self.offset:
            return []
        with open(self.path, "r", encoding="utf-8") as handle:
            if os.fstat(handle.fileno()).st_ino != stat.st_ino:
                return None         # replaced since the stat
            handle.seek(self.offset)
            entries, _ = read_sealed_lines(handle)
        self.inode = stat.st_ino
        self.offset += sum(len(line.encode("utf-8")) for line, _ in entries)
        return [record for _, record in entries]

    def _read(self) -> List[Tuple[str, dict]]:
        self.offset, self.inode, self.torn = 0, None, False
        try:
            handle = open(self.path, "r", encoding="utf-8")
        except FileNotFoundError:
            return []
        with handle:
            self.inode = os.fstat(handle.fileno()).st_ino
            entries, self.torn = read_sealed_lines(handle)
        self.offset = sum(len(line.encode("utf-8")) for line, _ in entries)
        return entries

    def _replace(self, lines: Iterable[str]) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
            handle.flush()
            os.fsync(handle.fileno())
            stat = os.fstat(handle.fileno())
        os.replace(tmp, self.path)
        if self.fsync:
            fsync_path(os.path.dirname(self.path) or ".")
        self.offset, self.inode, self.torn = stat.st_size, stat.st_ino, \
            False

    def _cut(self) -> None:
        """Cut the torn bytes past :attr:`offset` off in place."""
        with open(self.path, "r+b") as handle:
            handle.truncate(self.offset)
            if self.fsync:
                os.fsync(handle.fileno())
        self.torn = False
