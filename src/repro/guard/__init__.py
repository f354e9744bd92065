"""repro.guard — archive integrity + overload-safe serving.

The paper's platform only matters if the archive it serves can be
trusted and the serving endpoint stays up under abuse.  This package
is that trust layer:

* **integrity** (:mod:`repro.guard.integrity`) — per-segment
  CRC32/SHA-256 digests recorded in ``CHECKPOINT.json`` at seal time
  and verified on every read; sealed (CRC-carrying) journal lines for
  the events and gill journals;
* **quarantine** (:mod:`repro.guard.manager`) — mismatching segments
  are moved to ``quarantine/``, their sidecar indexes dropped, an
  ``integrity`` incident journaled, and serving continues from the
  intact remainder;
* **scrubbing** (:mod:`repro.guard.scrub`) — a rate-limited
  background sweep re-digesting cold segments, plus the
  ``repro-bgp scrub`` CLI;
* **overload protection** (:mod:`repro.guard.serving`) — one gate
  that bounds the requests in flight, sheds the rest with a fast 503
  and runs the admitted ones one at a time, per-request deadlines
  propagated into decode loops, per-endpoint circuit breakers, and
  graceful drain.

See docs/FAULTS.md (corruption fault model) and docs/QUERY.md
(endpoint semantics: ``/healthz``, ``/readyz``, 503 + ``Retry-After``).
"""

from .integrity import (
    CRC_KEY,
    FileDigests,
    IntegrityError,
    crc32_of,
    file_digests,
    mismatch_reason,
    record_intact,
    seal_record,
    verify_file,
)
from .manager import IntegrityGuard, QUARANTINE_DIR, quarantine_dir_for
from .scrub import ScrubReport, Scrubber, scrub_directory
from .serving import (
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    ExecutionLock,
    Overloaded,
)

__all__ = [
    "CRC_KEY",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceeded",
    "ExecutionLock",
    "FileDigests",
    "IntegrityError",
    "IntegrityGuard",
    "Overloaded",
    "QUARANTINE_DIR",
    "ScrubReport",
    "Scrubber",
    "crc32_of",
    "file_digests",
    "mismatch_reason",
    "quarantine_dir_for",
    "record_intact",
    "scrub_directory",
    "seal_record",
    "verify_file",
]
