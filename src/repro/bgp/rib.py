"""Routing Information Bases (RIBs) and update annotation.

A RIB holds, per prefix, the current best route a vantage point exports.
Collection platforms dump RIB snapshots every few hours and store every
update in between (§2).  GILL's redundancy conditions compare the *new*
links/communities of an update against what the previous route already
carried, so annotating a stream with implicit withdrawals requires replaying
it through a RIB — this module does that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from .message import AnnotatedUpdate, BGPUpdate, Community, path_links
from .prefix import Prefix


@dataclass(frozen=True, slots=True)
class Route:
    """A route installed in a RIB: path + communities + install time."""

    prefix: Prefix
    as_path: Tuple[int, ...]
    communities: FrozenSet[Community] = frozenset()
    time: float = 0.0

    @property
    def origin_as(self) -> int:
        return self.as_path[-1]


class RIB:
    """The routing table of a single vantage point.

    Applying an update returns the :class:`AnnotatedUpdate` carrying the
    implicitly withdrawn links (``Lw``) and communities (``Cw``) relative to
    the route previously installed for the prefix (§4.2).
    """

    def __init__(self, vp: str):
        self.vp = vp
        self._routes: Dict[Prefix, Route] = {}

    def __len__(self) -> int:
        return len(self._routes)

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._routes

    def get(self, prefix: Prefix) -> Optional[Route]:
        return self._routes.get(prefix)

    def routes(self) -> Iterator[Route]:
        return iter(self._routes.values())

    def prefixes(self) -> Iterator[Prefix]:
        return iter(self._routes.keys())

    def apply(self, update: BGPUpdate) -> AnnotatedUpdate:
        """Install ``update`` and return it annotated with withdrawals."""
        if update.vp != self.vp:
            raise ValueError(
                f"update from VP {update.vp!r} applied to RIB of {self.vp!r}"
            )
        previous = self._routes.get(update.prefix)
        previous_links = (frozenset(path_links(previous.as_path))
                          if previous else frozenset())
        previous_comms = (frozenset(previous.communities)
                          if previous else frozenset())
        if update.is_withdrawal:
            self._routes.pop(update.prefix, None)
        else:
            self._routes[update.prefix] = Route(
                update.prefix, update.as_path, update.communities,
                update.time,
            )
        return AnnotatedUpdate(update, previous_links, previous_comms)

    def snapshot(self) -> List[Route]:
        """A RIB dump: the current routes, sorted by prefix."""
        return sorted(self._routes.values(), key=lambda r: r.prefix)


def annotate_stream(updates: Iterable[BGPUpdate]) -> List[AnnotatedUpdate]:
    """Replay a chronological multi-VP stream, annotating every update.

    Maintains one RIB per VP.  The input must be time-ordered per VP;
    global ordering is not required.
    """
    ribs: Dict[str, RIB] = {}
    annotated: List[AnnotatedUpdate] = []
    for update in updates:
        rib = ribs.get(update.vp)
        if rib is None:
            rib = ribs[update.vp] = RIB(update.vp)
        annotated.append(rib.apply(update))
    return annotated


def final_ribs(updates: Iterable[BGPUpdate]) -> Dict[str, RIB]:
    """Replay a stream and return the resulting per-VP RIBs."""
    ribs: Dict[str, RIB] = {}
    for update in updates:
        rib = ribs.get(update.vp)
        if rib is None:
            rib = ribs[update.vp] = RIB(update.vp)
        rib.apply(update)
    return ribs
