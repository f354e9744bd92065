"""Query specification and segment-pruning planner.

A :class:`QuerySpec` is the engine's (and the HTTP API's) unit of
work: optional exact-match predicates on prefix, VP and origin AS,
plus a half-open time range and a result limit.  The planner turns a
spec into a :class:`QueryPlan`: which sealed segments must be read,
and which can be pruned — by the time range without touching any file,
or by the index without reading the segment.  :class:`ArchivePostings`
keeps an archive's per-segment key sets as archive-level postings, so
a plan costs a bisection plus the segments its keys name.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..bgp.archive import ArchiveSegment
from ..bgp.message import BGPUpdate
from ..bgp.prefix import Prefix
from .index import IndexProbe, SegmentIndex


def check_params(params: "dict[str, str]", known: "set[str]") -> None:
    """Reject an HTTP query naming a parameter outside ``known`` (a 400)."""
    unknown = set(params) - known
    if unknown:
        raise ValueError(f"unknown parameters: {sorted(unknown)}")


def float_param(params: "dict[str, str]", name: str,
                default: Optional[float] = None,
                finite: bool = True) -> Optional[float]:
    """A numeric HTTP query parameter, or ``default`` when absent.

    NaN is never a value: it compares unequal to itself, so it would
    key a result-cache entry no later request can hit, and ``NaN`` in
    a response body is not JSON.  ``finite=False`` admits ±inf (an
    open-ended ``end``).  Raises ``ValueError`` — a 400 — otherwise.
    """
    if name not in params:
        return default
    value = float(params[name])
    if math.isnan(value) or (finite and math.isinf(value)):
        raise ValueError(f"{name} must be a "
                         f"{'finite ' if finite else ''}number")
    return value


#: ``prefix`` parameters as parsed, by text.  Requests name the same
#: prefixes again and again, and a parse goes through ``ipaddress``;
#: the memo is bounded, and text that fails to parse is never kept, so
#: it raises :class:`~repro.bgp.prefix.PrefixError` every time.
prefix_param = lru_cache(maxsize=4096)(Prefix.parse)


@dataclass(frozen=True)
class QuerySpec:
    """What a data consumer asks the archive.

    All predicates are exact matches; absent predicates match
    everything.  The time range is half-open ``[start, end)`` like
    :meth:`RollingArchiveWriter.read_range`.
    """

    prefix: Optional[Prefix] = None
    vp: Optional[str] = None
    origin: Optional[int] = None
    start: float = 0.0
    end: float = math.inf
    limit: Optional[int] = None

    def __post_init__(self) -> None:
        # ``not <=`` rather than ``<``: a NaN bound fails it too.
        if not self.start <= self.end:
            raise ValueError("end must be at or after start")
        if self.limit is not None and self.limit < 0:
            raise ValueError("limit must be nonnegative")

    def key(self) -> Tuple:
        """Hashable identity for the result cache."""
        return (self.prefix, self.vp, self.origin,
                self.start, self.end, self.limit)

    def matches(self, update: BGPUpdate) -> bool:
        """Does one decoded update satisfy every predicate?

        An origin predicate never matches withdrawals (they carry no
        AS path, hence no origin) — same as filtering on
        ``update.origin_as`` by hand.
        """
        if not self.start <= update.time < self.end:
            return False
        if self.prefix is not None and update.prefix != self.prefix:
            return False
        if self.vp is not None and update.vp != self.vp:
            return False
        if self.origin is not None and update.origin_as != self.origin:
            return False
        return True

    @classmethod
    def from_params(cls, params: "dict[str, str]") -> "QuerySpec":
        """Build a spec from HTTP query parameters (strings).

        Raises ``ValueError`` on malformed values — the server maps
        that to a 400 response.
        """
        check_params(params, {"prefix", "vp", "origin", "start", "end",
                              "limit"})
        return cls(
            prefix=prefix_param(params["prefix"])
            if "prefix" in params else None,
            vp=params.get("vp"),
            origin=int(params["origin"]) if "origin" in params else None,
            start=float_param(params, "start", 0.0),
            end=float_param(params, "end", math.inf, finite=False),
            limit=int(params["limit"]) if "limit" in params else None,
        )


@dataclass(frozen=True)
class QueryPlan:
    """The pruning decision for every segment of the archive.

    ``scan`` lists, in archive order, the segments that must be read:
    the index could not rule them out (or there was no index)."""

    spec: QuerySpec
    scan: Tuple[ArchiveSegment, ...]
    pruned_time: int
    pruned_index: int

    @property
    def considered(self) -> int:
        return len(self.scan) + self.pruned_time + self.pruned_index


class ArchivePostings:
    """An archive's segment list as postings, maintained across plans.

    For every key of the segments' format-2 indexes — prefix text, VP,
    origin ASN — the ascending positions of the segments whose key
    sets hold it, so a plan reads the postings of the spec's keys
    instead of probing every segment's index.  Time prunes by
    bisection: ``reach[i]`` is the latest end among segments ``0..i``
    and ``floor[i]`` the earliest start among segments ``i..``, so the
    segments that can overlap ``[start, end)`` form one window of
    positions whatever the archive's order.

    A segment appended without an index is *probed*: a plan whose
    time window holds it asks ``index_for`` for it, as
    it would without postings, and keeps it in the scan when that
    gives no index.  When ``pinned`` says the segment's bytes cannot
    change while it is in the list, the index so resolved is posted
    and later plans read it from the postings; any other segment is
    probed on every plan.  Segments are only ever appended; a caller
    whose segment list changes in any other way starts a new instance.
    """

    def __init__(self, pinned: Callable[[ArchiveSegment], bool]
                 = lambda segment: False) -> None:
        self._pinned = pinned
        self.segments: List[ArchiveSegment] = []
        self._reach: List[float] = []
        self._floor: List[float] = []
        #: Starts and ends both non-decreasing in list order: then the
        #: time window holds only segments that overlap the range.
        self._ordered = True
        self._indexes: List[Optional[SegmentIndex]] = []
        self._probed: List[int] = []
        #: Positions by prefix text, by VP and by origin ASN.
        self._postings: Tuple[Dict[object, List[int]], ...] = ({}, {}, {})

    def append(self, segment: ArchiveSegment,
               index: Optional[SegmentIndex] = None) -> None:
        position = len(self.segments)
        if self.segments:
            last = self.segments[-1]
            self._ordered = self._ordered and last.start <= segment.start \
                and last.end <= segment.end
            self._reach.append(max(self._reach[-1], segment.end))
        else:
            self._reach.append(segment.end)
        self.segments.append(segment)
        floor = self._floor
        floor.append(segment.start)
        lower = position - 1
        while lower >= 0 and floor[lower] > segment.start:
            floor[lower] = segment.start
            lower -= 1
        self._indexes.append(None)
        self._probed.append(position)
        if index is not None:
            self._post(position, index)

    def _post(self, position: int, index: SegmentIndex) -> None:
        """Move a probed segment's keys into the postings."""
        self._indexes[position] = index
        del self._probed[bisect_left(self._probed, position)]
        for postings, keys in zip(self._postings, (index.prefixes, index.vps,
                                                   index.origins)):
            for key in keys:
                insort(postings.setdefault(key, []), position)

    def _resolve(self, position: int,
                 index_for: Optional[
                     Callable[[ArchiveSegment], Optional[SegmentIndex]]]
                 ) -> Optional[SegmentIndex]:
        """A probed segment's index through ``index_for``, posted when
        the segment is pinned."""
        if index_for is None:
            return None
        segment = self.segments[position]
        index = index_for(segment)
        if index is not None and self._pinned(segment):
            self._post(position, index)
        return index

    def plan(self, spec: QuerySpec,
             index_for: Optional[
                 Callable[[ArchiveSegment], Optional[SegmentIndex]]
             ] = None) -> QueryPlan:
        """Prune the segments against ``spec``: the time window,
        intersected with the postings of each present predicate, plus
        the probed segments the window holds."""
        segments = self.segments
        low = bisect_right(self._reach, spec.start)
        high = bisect_left(self._floor, spec.end, low)

        def overlaps(position: int) -> bool:
            segment = segments[position]
            return segment.end > spec.start and segment.start < spec.end

        window: Sequence[int] = range(low, high)
        if not self._ordered:
            window = list(filter(overlaps, window))
        probe = IndexProbe(spec.prefix, spec.vp, spec.origin)
        present = [postings.get(key, ()) for postings, key in zip(
            self._postings, (probe.prefix, probe.vp, probe.origin))
            if key is not None]
        hits: Sequence[int] = ()
        if present:
            rarest = min(present, key=len)
            hits = rarest[bisect_left(rarest, low):bisect_left(rarest, high)]
            if not self._ordered:
                hits = list(filter(overlaps, hits))
        probed = self._probed[bisect_left(self._probed, low):
                              bisect_left(self._probed, high)]
        if not self._ordered:
            probed = list(filter(overlaps, probed))
        # Every probed segment in the window is resolved, predicates or
        # not, as without postings: that heals a missing or torn
        # sidecar on the first plan that reaches its segment.
        resolved = {position: self._resolve(position, index_for)
                    for position in probed}
        if not present:
            scan = [segments[p] for p in window]
        else:
            scan = []
            for position in sorted((*hits, *probed)) if probed else hits:
                index = resolved.get(position, self._indexes[position])
                if index is None or probe.may_match(index):
                    scan.append(segments[position])
        pruned_time = len(segments) - len(window)
        return QueryPlan(spec, tuple(scan), pruned_time,
                         len(window) - len(scan))


def plan_query(segments: Sequence[ArchiveSegment], spec: QuerySpec,
               index_for: Optional[
                   Callable[[ArchiveSegment], Optional[SegmentIndex]]
               ] = None) -> QueryPlan:
    """Prune segments against a spec.

    ``index_for`` resolves a segment inside the spec's time range to
    its (possibly lazily built) index; returning None for a segment
    keeps it in the scan —
    correct, just slower — so the planner works unchanged over
    pre-index archives.  A segment is pruned exactly when its time
    range misses the spec's, or one of the spec's keys is absent from
    its index.  This builds :class:`ArchivePostings` for one plan; a
    :class:`~repro.query.engine.QueryEngine` keeps its postings across
    plans.
    """
    postings = ArchivePostings()
    for segment in segments:
        postings.append(segment)
    return postings.plan(spec, index_for)
