"""Query specification and segment-pruning planner.

A :class:`QuerySpec` is the engine's (and the HTTP API's) unit of
work: optional exact-match predicates on prefix, VP and origin AS,
plus a half-open time range and a result limit.  The planner turns a
spec into a :class:`QueryPlan`: which sealed segments must be read,
and which can be pruned — by the time range without touching any file,
or by the index without reading the segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

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
            prefix=Prefix.parse(params["prefix"])
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


def plan_query(segments: Sequence[ArchiveSegment], spec: QuerySpec,
               index_for: Optional[
                   Callable[[ArchiveSegment], Optional[SegmentIndex]]
               ] = None) -> QueryPlan:
    """Prune segments against a spec.

    ``index_for`` resolves a segment to its (possibly lazily built)
    index; returning None for a segment keeps it in the scan —
    correct, just slower — so the planner works unchanged over
    pre-index archives.  The spec's index keys are formatted once for
    all segments (:class:`~repro.query.index.IndexProbe`); a segment
    is pruned exactly when one of them is absent from its index.
    """
    probe = IndexProbe(spec.prefix, spec.vp, spec.origin)
    scan: List[ArchiveSegment] = []
    pruned_time = pruned_index = 0
    for segment in segments:
        if segment.end <= spec.start or segment.start >= spec.end:
            pruned_time += 1
            continue
        index = index_for(segment) if index_for is not None else None
        if index is not None and not probe.may_match(index):
            pruned_index += 1
            continue
        scan.append(segment)
    return QueryPlan(spec, tuple(scan), pruned_time, pruned_index)
