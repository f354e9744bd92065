"""Deterministic fault injection and supervision policy (§8 robustness).

Real collection platforms live with misbehaving feeders: sessions flap,
peers emit garbage, a worker wedges on one update, disks fail mid-write.
This module gives the runtime a *deterministic* chaos harness — every
fault is scheduled by event count, never by wall clock, so a seeded
plan reproduces the same failure sequence on every run — plus the
supervision knobs (:class:`SupervisorConfig`) that govern how the
runtime recovers.

The fault model (see docs/FAULTS.md):

``disconnect``
    The session's update iterator raises :class:`SessionFault` after
    the N-th update.  ``xK`` repeats it every N updates — a flap.
``malformed``
    The N-th update is replaced by a corrupted copy (NaN timestamp),
    which the session must skip and count.
``reorder``
    The N-th update is re-stamped far in the session's past — an
    out-of-time-order update the session must reject to protect the
    writer's watermark.
``stall``
    The shard worker sleeps on its N-th envelope for ``duration_s``
    seconds (``inf`` = stuck until the watchdog abandons it).
``io-error``
    The archive raises :class:`InjectedIOError` (an ``OSError``) on its
    N-th write; the writer stage recovers from the checkpoint.
``crash``
    The archive raises :class:`InjectedCrash` on its N-th write; this
    is *not* recoverable in-flight and kills the epoch — the
    crash-consistent resume path is exercised instead.
``bitflip`` / ``truncate`` / ``torn-index``
    Disk corruption after the fact: the N-th *sealed* segment gets one
    byte XOR-flipped in its middle, is truncated to 60% of its length,
    or has its ``.idx`` sidecar torn mid-JSON.  Target ``archive``.
    These model silent media rot — the write succeeded, the manifest
    digests are recorded, and the bytes later stop matching them; the
    ``repro.guard`` read path must detect, quarantine and never serve
    them.
``slow-read``
    The N-th segment payload read sleeps ``duration_s`` first (target
    ``reader``) — an aging disk or cold NFS path; request deadlines
    must keep one slow read from wedging a serving slot forever.
"""

from __future__ import annotations

import math
import os
import random
import re
import threading
import time as time_mod
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, \
    Tuple

from ..bgp.message import BGPUpdate

FAULT_KINDS = ("disconnect", "malformed", "reorder", "stall",
               "io-error", "crash",
               "bitflip", "truncate", "torn-index", "slow-read")

#: The disk-corruption subset (applied to sealed segments, not writes).
CORRUPTION_KINDS = ("bitflip", "truncate", "torn-index")

#: Fraction of a segment kept by a ``truncate`` fault.
TRUNCATE_KEEP_FRACTION = 0.6

#: How far into the past a ``reorder`` fault re-stamps an update.
REORDER_SKEW_S = 900.0


class SessionFault(Exception):
    """Injected transient session failure (disconnect / flap)."""


class InjectedIOError(OSError):
    """Injected recoverable archive I/O failure."""


class InjectedCrash(RuntimeError):
    """Injected fatal archive failure (no in-flight recovery)."""


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``at`` counts events on the target: updates pulled from a session's
    iterator, envelopes processed by a shard, or archive writes.  With
    ``count > 1`` the fault re-fires every ``at`` events (a flap).
    """

    kind: str
    target: str                 # session name, 'shard<i>', or 'writer'
    at: int
    count: int = 1
    duration_s: float = 0.0     # stall only; inf = stuck until abandoned

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.at <= 0:
            raise ValueError("fault position must be positive")
        if self.count <= 0:
            raise ValueError("fault count must be positive")
        if self.duration_s < 0:
            raise ValueError("stall duration must be nonnegative")
        if self.kind in ("io-error", "crash") and self.target != "writer":
            raise ValueError(f"{self.kind} faults target 'writer'")
        if self.kind == "stall" and self.shard_index() is None:
            raise ValueError("stall faults target 'shard<i>'")
        if self.kind in CORRUPTION_KINDS and self.target != "archive":
            raise ValueError(f"{self.kind} faults target 'archive'")
        if self.kind == "slow-read" and self.target != "reader":
            raise ValueError("slow-read faults target 'reader'")

    def shard_index(self) -> Optional[int]:
        match = re.fullmatch(r"shard(\d+)", self.target)
        return int(match.group(1)) if match else None

    def positions(self) -> Tuple[int, ...]:
        """Event counts at which this fault fires (1-based)."""
        return tuple(self.at * k for k in range(1, self.count + 1))

    def describe(self) -> str:
        text = f"{self.kind}={self.target}@{self.at}"
        if self.count > 1:
            text += f"x{self.count}"
        if self.kind in ("stall", "slow-read"):
            text += f"~{self.duration_s:g}"
        return text


_SPEC_RE = re.compile(
    r"^(?P<kind>[a-z-]+)=(?P<target>[^@]+)@(?P<at>\d+)"
    r"(?:x(?P<count>\d+))?(?:~(?P<dur>inf|[0-9.]+))?$"
)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, reproducible schedule of faults."""

    specs: Tuple[FaultSpec, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.specs)

    # -- construction -------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a CLI spec: ``kind=target@at[xCOUNT][~DURATION]``.

        Specs are comma- or semicolon-separated, e.g.
        ``disconnect=peer0@120x3,stall=shard1@50~inf,io-error=writer@2``.
        """
        specs: List[FaultSpec] = []
        for piece in re.split(r"[;,]", text):
            piece = piece.strip()
            if not piece:
                continue
            match = _SPEC_RE.match(piece)
            if match is None:
                raise ValueError(f"bad fault spec {piece!r} "
                                 "(want kind=target@at[xN][~dur])")
            duration = match.group("dur")
            specs.append(FaultSpec(
                kind=match.group("kind"),
                target=match.group("target"),
                at=int(match.group("at")),
                count=int(match.group("count") or 1),
                duration_s=float(duration) if duration else 0.0,
            ))
        return cls(tuple(specs))

    @classmethod
    def seeded(cls, seed: int, sessions: Sequence[str], n_shards: int,
               horizon: int = 500, flaps: int = 1, malformed: int = 2,
               reorders: int = 1, stalls: int = 1, io_errors: int = 1,
               crashes: int = 0, corruptions: int = 0,
               slow_reads: int = 0) -> "FaultPlan":
        """A reproducible random plan over the given topology.

        ``horizon`` bounds the event counts at which faults fire; the
        same seed and topology always yield the same plan.
        """
        if not sessions:
            raise ValueError("need at least one session to fault")
        rng = random.Random(seed)
        span = max(2, horizon)
        specs: List[FaultSpec] = []
        for _ in range(flaps):
            specs.append(FaultSpec(
                "disconnect", rng.choice(list(sessions)),
                at=rng.randrange(1, span),
                count=rng.randrange(1, 4)))
        for _ in range(malformed):
            specs.append(FaultSpec(
                "malformed", rng.choice(list(sessions)),
                at=rng.randrange(1, span)))
        for _ in range(reorders):
            specs.append(FaultSpec(
                "reorder", rng.choice(list(sessions)),
                at=rng.randrange(1, span)))
        for _ in range(stalls):
            specs.append(FaultSpec(
                "stall", f"shard{rng.randrange(n_shards)}",
                at=rng.randrange(1, span),
                duration_s=rng.choice([0.2, 0.5, math.inf])))
        for _ in range(io_errors):
            specs.append(FaultSpec(
                "io-error", "writer", at=rng.randrange(1, max(2, span // 4))))
        for _ in range(crashes):
            specs.append(FaultSpec(
                "crash", "writer", at=rng.randrange(1, max(2, span // 4))))
        for _ in range(corruptions):
            specs.append(FaultSpec(
                rng.choice(list(CORRUPTION_KINDS)), "archive",
                at=rng.randrange(1, max(2, span // 16))))
        for _ in range(slow_reads):
            specs.append(FaultSpec(
                "slow-read", "reader",
                at=rng.randrange(1, max(2, span // 16)),
                duration_s=rng.choice([0.05, 0.2, 0.5])))
        return cls(tuple(specs))

    # -- selection ----------------------------------------------------------

    def for_session(self, name: str) -> Tuple[FaultSpec, ...]:
        return tuple(s for s in self.specs
                     if s.target == name
                     and s.kind in ("disconnect", "malformed", "reorder"))

    def for_shard(self, shard: int) -> Tuple[FaultSpec, ...]:
        return tuple(s for s in self.specs
                     if s.kind == "stall" and s.shard_index() == shard)

    def for_writer(self) -> Tuple[FaultSpec, ...]:
        return tuple(s for s in self.specs
                     if s.kind in ("io-error", "crash"))

    def for_archive(self) -> Tuple[FaultSpec, ...]:
        return tuple(s for s in self.specs
                     if s.kind in CORRUPTION_KINDS)

    def for_reader(self) -> Tuple[FaultSpec, ...]:
        return tuple(s for s in self.specs if s.kind == "slow-read")

    def describe(self) -> str:
        return ",".join(s.describe() for s in self.specs) or "(no faults)"


@dataclass
class SupervisorConfig:
    """How the runtime reacts to faults.

    Backoff between session restarts is exponential with deterministic
    seeded jitter; a session restarting more than ``quarantine_after``
    times trips the flap circuit breaker and is quarantined (its
    remaining stream is abandoned, counted, and reported).  The shard
    watchdog abandons and replaces a worker whose in-flight update has
    made no progress for ``stall_timeout_s``.  A session blocked in a
    ``block``-policy put for longer than ``degrade_after_s`` degrades
    to ``drop`` until space frees up.
    """

    backoff_initial_s: float = 0.05
    backoff_max_s: float = 1.0
    backoff_factor: float = 2.0
    jitter_frac: float = 0.2
    quarantine_after: int = 5
    watchdog_interval_s: float = 0.05
    stall_timeout_s: float = 0.75
    degrade_after_s: Optional[float] = 0.5
    max_archive_recoveries: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.backoff_initial_s <= 0 or self.backoff_max_s <= 0:
            raise ValueError("backoff times must be positive")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff factor must be >= 1")
        if not 0.0 <= self.jitter_frac <= 1.0:
            raise ValueError("jitter fraction must be in [0, 1]")
        if self.quarantine_after <= 0:
            raise ValueError("quarantine threshold must be positive")
        if self.watchdog_interval_s <= 0 or self.stall_timeout_s <= 0:
            raise ValueError("watchdog times must be positive")
        if self.degrade_after_s is not None and self.degrade_after_s <= 0:
            raise ValueError("degrade timeout must be positive")
        if self.max_archive_recoveries < 0:
            raise ValueError("recovery budget must be nonnegative")

    def backoff_s(self, attempt: int, rng: random.Random) -> float:
        """Backoff before restart ``attempt`` (1-based), with jitter."""
        base = min(self.backoff_max_s,
                   self.backoff_initial_s
                   * self.backoff_factor ** (attempt - 1))
        if self.jitter_frac <= 0:
            return base
        return base * (1.0 + self.jitter_frac * (2 * rng.random() - 1.0))


class FaultyStream:
    """A resumable iterator that injects a session's scheduled faults.

    Unlike a generator, raising from ``__next__`` does not poison the
    iterator: after a :class:`SessionFault` the supervisor can keep
    pulling and the stream resumes where it left off — exactly how a
    re-established BGP session continues from the peer's live state.
    """

    def __init__(self, session: str, updates: Iterable[BGPUpdate],
                 specs: Sequence[FaultSpec]):
        self.session = session
        self._source = iter(updates)
        self._index = 0
        self._last_good_time: Optional[float] = None
        self._disconnects = sorted(
            pos for s in specs if s.kind == "disconnect"
            for pos in s.positions())
        self._malformed = {
            pos for s in specs if s.kind == "malformed"
            for pos in s.positions()}
        self._reorders = {
            pos for s in specs if s.kind == "reorder"
            for pos in s.positions()}

    def __iter__(self) -> Iterator[BGPUpdate]:
        return self

    def __next__(self) -> BGPUpdate:
        if self._disconnects and self._index >= self._disconnects[0]:
            position = self._disconnects.pop(0)
            raise SessionFault(
                f"session {self.session} disconnected after "
                f"{position} updates")
        update = next(self._source)
        self._index += 1
        if self._index in self._malformed:
            return update.with_time(float("nan"))
        if self._index in self._reorders:
            rewound = (self._last_good_time or update.time) - REORDER_SKEW_S
            return update.with_time(rewound)
        self._last_good_time = update.time
        return update


def corrupt_bitflip(path: str) -> None:
    """XOR-flip one byte in the middle of a file — silent media rot
    that leaves length (and usually record framing) intact, so only a
    checksum can catch it."""
    size = os.path.getsize(path)
    if size == 0:
        return
    offset = size // 2
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))


def corrupt_truncate(path: str,
                     keep_fraction: float = TRUNCATE_KEEP_FRACTION
                     ) -> None:
    """Mid-file truncation — a lost tail after a partial sector write."""
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(max(1, int(size * keep_fraction)))


def corrupt_torn_index(path: str) -> None:
    """Tear the segment's ``.idx`` sidecar mid-JSON (creating a torn
    stub when no sidecar exists).  The segment itself stays intact:
    the reader must discard the sidecar and rebuild, never misdecode."""
    sidecar = path + ".idx"
    if os.path.exists(sidecar):
        size = os.path.getsize(sidecar)
        with open(sidecar, "r+b") as handle:
            handle.truncate(max(1, size // 2))
    else:
        with open(sidecar, "wb") as handle:
            handle.write(b'{"torn":')


_CORRUPTORS = {
    "bitflip": corrupt_bitflip,
    "truncate": corrupt_truncate,
    "torn-index": corrupt_torn_index,
}


class FaultInjector:
    """Executes a :class:`FaultPlan` against the running pipeline.

    Thread-safe: sessions, workers and the writer all consult their
    own schedules.  ``log`` records every fault that actually fired,
    in firing order, for post-run inspection.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self.log: List[str] = []
        self._write_count = 0
        self._writer_specs: List[Tuple[int, str]] = sorted(
            (pos, s.kind) for s in plan.for_writer()
            for pos in s.positions())
        self._seal_count = 0
        self._corruptions: List[Tuple[int, str]] = sorted(
            (pos, s.kind) for s in plan.for_archive()
            for pos in s.positions())
        self._read_count = 0
        self._slow_reads: List[Tuple[int, float]] = sorted(
            (pos, s.duration_s) for s in plan.for_reader()
            for pos in s.positions())
        self._stalls: Dict[int, List[Tuple[int, float]]] = {}
        for spec in plan.specs:
            if spec.kind != "stall":
                continue
            shard = spec.shard_index()
            assert shard is not None
            self._stalls.setdefault(shard, []).extend(
                (pos, spec.duration_s) for pos in spec.positions())
        for schedule in self._stalls.values():
            schedule.sort()
        self._holding: Dict[int, bool] = {}

    def record(self, event: str) -> None:
        with self._lock:
            self.log.append(event)

    # -- session faults -----------------------------------------------------

    def wrap_stream(self, session: str,
                    updates: Iterable[BGPUpdate]) -> Iterable[BGPUpdate]:
        specs = self.plan.for_session(session)
        if not specs:
            return updates
        return FaultyStream(session, updates, specs)

    # -- shard faults -------------------------------------------------------

    def maybe_stall(self, shard: int, processed: int,
                    wake: threading.Event) -> bool:
        """Stall the calling worker if one is scheduled at ``processed``.

        Returns True when a stall fired.  The sleep waits on ``wake``
        (the worker's abandonment event), so a watchdog abandoning the
        worker ends even an infinite stall immediately.
        """
        schedule = self._stalls.get(shard)
        if not schedule or schedule[0][0] != processed:
            return False
        _, duration = schedule.pop(0)
        self.record(f"stall shard{shard} at {processed} "
                    f"for {duration:g}s")
        with self._lock:
            self._holding[shard] = True
        try:
            wake.wait(None if math.isinf(duration) else duration)
        finally:
            with self._lock:
                self._holding[shard] = False
        return True

    def holding(self, shard: int) -> bool:
        """True while a worker is inside an injected stall on ``shard``."""
        with self._lock:
            return self._holding.get(shard, False)

    # -- writer faults ------------------------------------------------------

    def wrap_archive(self, archive):
        """Proxy an archive writer, injecting scheduled write failures.

        Also subscribes the corruption schedule (bitflip / truncate /
        torn-index) to the archive's seal hook when one is planned, so
        the N-th sealed segment rots on disk right after its digests
        land in the manifest — the adversarial ordering the guard must
        survive.
        """
        if archive is None:
            return archive
        if self._corruptions and hasattr(archive, "add_seal_listener"):
            archive.add_seal_listener(self.on_segment_seal)
        if not self._writer_specs:
            return archive
        return _FaultyArchive(archive, self)

    def release_archive(self, archive) -> None:
        """Take back the seal subscription :meth:`wrap_archive` made on
        ``archive`` (the raw writer, not the proxy) once the run ended."""
        if hasattr(archive, "remove_seal_listener"):
            archive.remove_seal_listener(self.on_segment_seal)

    # -- disk corruption ----------------------------------------------------

    def on_segment_seal(self, segment, build_s=None) -> None:
        """Seal-hook listener: corrupt the segment if one is scheduled."""
        with self._lock:
            self._seal_count += 1
            if not self._corruptions \
                    or self._corruptions[0][0] != self._seal_count:
                return
            position, kind = self._corruptions.pop(0)
            self.log.append(f"{kind} archive segment {position} "
                            f"({os.path.basename(segment.path)})")
        _CORRUPTORS[kind](segment.path)

    def apply_archive_corruption(self, segments) -> List[Tuple[str, str]]:
        """Apply every remaining scheduled corruption to sealed segments.

        Convenience for tests and offline chaos runs that build the
        archive first and rot it afterwards: the k-th scheduled
        corruption (by position) hits the (position mod len)-th
        segment.  Returns the applied ``(kind, path)`` pairs.
        """
        segments = list(segments)
        applied: List[Tuple[str, str]] = []
        if not segments:
            return applied
        with self._lock:
            schedule, self._corruptions = self._corruptions, []
        for position, kind in schedule:
            path = segments[(position - 1) % len(segments)].path
            _CORRUPTORS[kind](path)
            self.record(f"{kind} archive segment "
                        f"({os.path.basename(path)})")
            applied.append((kind, path))
        return applied

    # -- reader faults ------------------------------------------------------

    def on_payload_read(self, path: str) -> None:
        """Read hook for :class:`repro.query.QueryEngine`: sleeps when a
        slow-read fault is scheduled at this read position."""
        with self._lock:
            self._read_count += 1
            if not self._slow_reads \
                    or self._slow_reads[0][0] != self._read_count:
                return
            position, duration = self._slow_reads.pop(0)
            self.log.append(f"slow-read at read {position} "
                            f"for {duration:g}s "
                            f"({os.path.basename(path)})")
        time_mod.sleep(duration)

    def on_archive_write(self) -> None:
        """Called by the proxy before each write; raises when scheduled."""
        with self._lock:
            self._write_count += 1
            if not self._writer_specs \
                    or self._writer_specs[0][0] != self._write_count:
                return
            position, kind = self._writer_specs.pop(0)
            self.log.append(f"{kind} writer at write {position}")
        if kind == "crash":
            raise InjectedCrash(f"injected archive crash at "
                                f"write {position}")
        raise InjectedIOError(f"injected archive I/O error at "
                              f"write {position}")


class _FaultyArchive:
    """Archive proxy raising injected failures on scheduled writes."""

    def __init__(self, archive, injector: FaultInjector):
        self._archive = archive
        self._injector = injector

    def write(self, update: BGPUpdate):
        self._injector.on_archive_write()
        return self._archive.write(update)

    def __getattr__(self, name: str):
        return getattr(self._archive, name)
