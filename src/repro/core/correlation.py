"""Correlation groups: per-prefix sets of time-correlated updates (§17.1).

GILL groups updates for the same prefix that appear together within a
100s window.  Inside a group an update is identified by its *signature*
(sending VP, AS path, community values); groups with identical signature
sets are merged and their weight counts how often the set appeared
during the construction window (Fig. 10).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..bgp.message import BGPUpdate
from ..bgp.prefix import Prefix

#: Maximal spacing for two updates to be correlated in time (§17.1).
CORRELATION_WINDOW_S = 100.0

#: Recommended construction window (§17.1: two days balances stability
#: of group weights against computational expense).
DEFAULT_CONSTRUCTION_TIME_S = 2 * 24 * 3600.0

#: An update's identity within a correlation group.
Signature = Tuple[str, Tuple[int, ...], FrozenSet, bool]


def signature(update: BGPUpdate) -> Signature:
    """(vp, AS path, communities, withdrawal flag) — prefix and time are
    factored out by the group's construction."""
    return (update.vp, update.as_path, update.communities,
            update.is_withdrawal)


def member_set(window: Iterable[BGPUpdate]) -> FrozenSet[Signature]:
    """What identifies a group within its prefix: the signatures of the
    updates that appeared together in one window."""
    return frozenset(signature(u) for u in window)


@dataclass
class CorrelationGroup:
    """One correlation group for one prefix."""

    prefix: Prefix
    members: FrozenSet[Signature]
    weight: int = 1

    def __contains__(self, sig: Signature) -> bool:
        return sig in self.members


class CorrelationGroups:
    """All correlation groups of a data set, indexed for GILL's queries."""

    def __init__(self, window_s: float = CORRELATION_WINDOW_S):
        self.window_s = window_s
        self._groups: Dict[Prefix, List[CorrelationGroup]] = {}
        self._by_members: Dict[Tuple[Prefix, FrozenSet[Signature]],
                               CorrelationGroup] = {}
        # (prefix, signature) -> groups containing that signature,
        # i.e. the paper's Corr(p, u).
        self._by_signature: Dict[Tuple[Prefix, Signature],
                                 List[CorrelationGroup]] = defaultdict(list)

    # -- construction ---------------------------------------------------------

    @classmethod
    def build(cls, updates: Sequence[BGPUpdate],
              window_s: float = CORRELATION_WINDOW_S) -> "CorrelationGroups":
        """Build groups from a (not necessarily sorted) update set."""
        groups = cls(window_s)
        by_prefix: Dict[Prefix, List[BGPUpdate]] = defaultdict(list)
        for update in updates:
            by_prefix[update.prefix].append(update)
        for prefix, bucket in by_prefix.items():
            bucket.sort(key=lambda u: u.time)
            for window in _windows(bucket, window_s):
                groups._add_window(prefix, window)
        return groups

    def _add_window(self, prefix: Prefix,
                    window: Sequence[BGPUpdate]) -> None:
        members = member_set(window)
        group = self._by_members.get((prefix, members))
        if group is not None:
            group.weight += 1
            return
        group = self._by_members[(prefix, members)] = \
            CorrelationGroup(prefix, members)
        self._groups.setdefault(prefix, []).append(group)
        for sig in members:
            self._by_signature[(prefix, sig)].append(group)

    # -- queries ----------------------------------------------------------------

    def prefixes(self) -> List[Prefix]:
        return sorted(self._groups)

    def groups_for_prefix(self, prefix: Prefix) -> List[CorrelationGroup]:
        return list(self._groups.get(prefix, ()))

    def groups_containing(self, prefix: Prefix,
                          update: BGPUpdate) -> List[CorrelationGroup]:
        """``Corr(p, u)``: groups for ``prefix`` that include ``update``."""
        return list(self._by_signature.get((prefix, signature(update)), ()))

    def max_weight_group(self, prefix: Prefix, update: BGPUpdate
                         ) -> Optional[CorrelationGroup]:
        """The heaviest group including ``update`` (§17.2's maxweight).

        Ties are broken deterministically (smallest member set, then
        lexicographically smallest members) so runs are reproducible —
        the paper picks randomly among ties.
        """
        groups = self.groups_containing(prefix, update)
        if not groups:
            return None
        return max(
            groups,
            key=lambda g: (g.weight, -len(g.members),
                           tuple(sorted(map(repr, g.members)))),
        )

    def total_groups(self) -> int:
        return len(self._by_members)


def _windows(sorted_updates: Sequence[BGPUpdate],
             window_s: float) -> Iterable[Sequence[BGPUpdate]]:
    """Chop a time-sorted bucket into windows anchored at each first
    update: an update joins the open window while it is within
    ``window_s`` of the window's first update."""
    window: List[BGPUpdate] = []
    for update in sorted_updates:
        if window and update.time - window[0].time >= window_s:
            yield window
            window = []
        window.append(update)
    if window:
        yield window


def reconstitute(groups: CorrelationGroups, prefix: Prefix,
                 update: BGPUpdate) -> List[BGPUpdate]:
    """``A(p, u, t)`` (§17.2): rebuild the updates of the heaviest
    correlation group containing ``update``, stamped at its time."""
    group = groups.max_weight_group(prefix, update)
    if group is None:
        return []
    rebuilt = [
        BGPUpdate(vp, update.time, prefix, path, comms, withdrawal)
        for vp, path, comms, withdrawal in group.members
    ]
    rebuilt.sort(key=lambda u: (u.vp, u.as_path))
    return rebuilt
