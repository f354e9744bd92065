"""BGP update messages as stored by collection platforms.

The paper (§2) models a stored update with four relevant attributes:
timestamp, prefix, AS path, and the set of BGP communities.  We also track
the observing vantage point (VP) since every GILL algorithm is keyed on it,
and whether the message is a withdrawal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import FrozenSet, Iterable, Optional, Sequence, Set, Tuple

from .prefix import Prefix

#: A BGP community value ``(asn, value)`` as in RFC 1997.
Community = Tuple[int, int]

#: A directed AS-level link as it appears in an AS path.
ASLink = Tuple[int, int]


def path_links(as_path: Sequence[int]) -> Set[ASLink]:
    """Return the set of directed AS links in an AS path.

    Prepending (repeated ASNs) does not create self-links, matching how the
    paper's redundancy conditions treat the link set ``L`` of an update.
    """
    links: Set[ASLink] = set()
    previous: Optional[int] = None
    for asn in as_path:
        if previous is not None and previous != asn:
            links.add((previous, asn))
        previous = asn
    return links


@dataclass(frozen=True, slots=True)
class BGPUpdate:
    """One BGP update observed by a vantage point.

    The paper denotes an update ``u(v, t, p, L, Lw, C, Cw)``: VP, time,
    prefix, AS-path link set, implicitly-withdrawn link set, communities,
    and implicitly-withdrawn communities.  ``L`` and the withdrawn sets are
    derived (by :class:`repro.bgp.rib.RIB`) rather than stored: an update in
    the wire stream carries only vp/time/prefix/path/communities.
    """

    vp: str
    time: float
    prefix: Prefix
    as_path: Tuple[int, ...] = ()
    communities: FrozenSet[Community] = frozenset()
    is_withdrawal: bool = False

    def __post_init__(self) -> None:
        # Normalize containers so callers may pass lists/sets.
        if not isinstance(self.as_path, tuple):
            object.__setattr__(self, "as_path", tuple(self.as_path))
        if not isinstance(self.communities, frozenset):
            object.__setattr__(self, "communities", frozenset(self.communities))
        if self.is_withdrawal and self.as_path:
            raise ValueError("withdrawals carry no AS path")

    @property
    def origin_as(self) -> Optional[int]:
        """The AS that originated the route, or None for withdrawals."""
        return self.as_path[-1] if self.as_path else None

    @property
    def peer_as(self) -> Optional[int]:
        """The first AS on the path (the VP's own AS), or None."""
        return self.as_path[0] if self.as_path else None

    def links(self) -> Set[ASLink]:
        """Directed AS links on this update's AS path (``L`` in the paper)."""
        return path_links(self.as_path)

    def with_time(self, time: float) -> "BGPUpdate":
        """Copy of this update re-stamped at ``time`` (used when GILL
        reconstitutes updates from correlation groups, §17.2)."""
        return replace(self, time=time)

    def attribute_key(self) -> Tuple:
        """Identity of the update ignoring time: (vp, prefix, path, comms).

        Two updates are *identical* in the paper's sense when this key
        matches and their timestamps differ by less than the slack (100s).
        """
        return (self.vp, self.prefix, self.as_path,
                self.communities, self.is_withdrawal)


@dataclass(frozen=True, slots=True)
class AnnotatedUpdate:
    """A :class:`BGPUpdate` enriched with its routing context.

    ``previous_links`` / ``previous_communities`` come from the route the
    VP held for the prefix just before this update (empty when there was
    none, §4.2).  From them derive both notions the paper uses:

    * ``withdrawn_links`` — the paper's ``Lw``: previous links rendered
      obsolete by this update;
    * ``effective_links`` — the *new* links this update introduces, the
      set Condition 2 compares (denoted ``L \\ Lw`` in §4.2).
    """

    update: BGPUpdate
    previous_links: FrozenSet[ASLink] = frozenset()
    previous_communities: FrozenSet[Community] = frozenset()

    @property
    def withdrawn_links(self) -> FrozenSet[ASLink]:
        """``Lw`` — previous links absent from this update's path."""
        return frozenset(set(self.previous_links) - self.update.links())

    @property
    def withdrawn_communities(self) -> FrozenSet[Community]:
        """``Cw`` — previous communities absent from this update."""
        return frozenset(set(self.previous_communities)
                         - self.update.communities)

    @property
    def effective_links(self) -> FrozenSet[ASLink]:
        """The *new* links this update introduces (Condition 2's set)."""
        return frozenset(self.update.links() - set(self.previous_links))

    @property
    def effective_communities(self) -> FrozenSet[Community]:
        """The *new* communities this update introduces (Condition 3)."""
        return frozenset(self.update.communities
                         - set(self.previous_communities))


def canonical_key(update: BGPUpdate) -> Tuple:
    """Total order over an update's attributes, ignoring time.

    Equal-timestamp updates have no inherent order; any component that
    must emit them deterministically (the writer's reorder buffer, the
    gill filter's slot batches, the cluster's partition merge) breaks
    the tie with this key so the archived byte stream is identical no
    matter which thread, process, or partition delivered each update
    first.
    """
    return (update.vp, update.prefix, update.as_path,
            tuple(sorted(update.communities)), update.is_withdrawal)


def sort_updates(updates: Iterable[BGPUpdate]) -> list:
    """Sort updates chronologically with a deterministic tie-break."""
    return sorted(
        updates,
        key=lambda u: (u.time, u.vp, u.prefix, u.as_path, u.is_withdrawal),
    )
