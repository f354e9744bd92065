"""Incremental detectors: sealed segments in, detections out.

Each detector keeps its own streaming state between segments and
implements one method::

    observe(updates, start, end) -> list[Detection]

``updates`` is one sealed segment's updates in nondecreasing time
order; ``[start, end)`` are the segment's interval bounds (``end`` is
the archive watermark after the seal).  Detectors are deterministic
functions of the segment sequence — the property crash recovery
relies on: replaying the same sealed segments through fresh detectors
reproduces the exact same state and detections
(docs/EVENTS.md).

The pipeline ships five detectors:

* :class:`OriginHijackStreamDetector` — DFOH-style forged-origin
  detection, streaming-ified: the known AS graph trains on the first
  segment(s), plausible new links are absorbed as they appear, and
  implausible ones are flagged *and kept out of the graph* so a
  continuing hijack keeps producing evidence until it is withdrawn;
* :class:`SubPrefixStreamDetector` — ARTEMIS-style foreign
  more-specifics with explicit close when every VP withdraws the
  sub-prefix;
* :class:`MOASStreamDetector` — per-VP origin tracking with an
  open/close conflict lifecycle;
* :class:`MassWithdrawalDetector` — per-segment withdrawal counts
  against an EWMA baseline, bursts open and close explicitly;
* :class:`FlapStormDetector` — RFD-style per-(VP, prefix) penalty
  with exponential decay; a storm opens at the suppress threshold and
  closes when the penalty decays below reuse.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..bgp.message import BGPUpdate
from ..bgp.prefix import Prefix
from ..usecases.hijack_detection import DFOHDetector
from ..usecases.moas import _is_bogon_asn
from ..usecases.topo_mapping import links_in_path
from .model import Detection


class StreamingDetector:
    """Base interface; subclasses define ``name`` and ``observe``."""

    #: Stable identifier used in detection records and metrics labels.
    name: str = "detector"

    def observe(self, updates: Sequence[BGPUpdate],
                start: float, end: float) -> List[Detection]:
        raise NotImplementedError


class OriginHijackStreamDetector(StreamingDetector):
    """DFOH [25] as a standing process instead of a batch scan.

    The first ``train_segments`` sealed segments (the initial table
    transfer, typically) build the known AS graph without flagging.
    Afterwards every announcement's new links are scored at first
    sight: plausible links join the graph silently, implausible ones
    become detections and are *not* absorbed — so while the forged
    path keeps being announced, every segment re-evidences the same
    incident, and withdrawal ends the evidence stream (the correlator
    then resolves the event after its quiet period).
    """

    name = "origin_hijack"

    def __init__(self, suspicion_threshold: float = 0.6,
                 train_segments: int = 1):
        self.dfoh = DFOHDetector(suspicion_threshold)
        self.train_segments = train_segments
        self._segments_seen = 0
        #: Flagged links and their first-sight score (kept stable so a
        #: long incident does not drift as the graph grows around it).
        self._suspicious: Dict[Tuple[int, int], float] = {}

    def observe(self, updates: Sequence[BGPUpdate],
                start: float, end: float) -> List[Detection]:
        self._segments_seen += 1
        if self._segments_seen <= self.train_segments:
            self.dfoh.train_on_updates(updates)
            return []
        found: Dict[Tuple[Tuple[int, int], Prefix], dict] = {}
        for update in updates:
            if update.is_withdrawal:
                continue
            for link in links_in_path(update.as_path):
                if link in self.dfoh._known_links:
                    continue
                score = self._suspicious.get(link)
                if score is None:
                    score = self.dfoh.link_suspicion(*link)
                    if score < self.dfoh.suspicion_threshold:
                        # Plausible: absorb silently, like any newly
                        # observed adjacency.
                        self.dfoh.train([[link[0], link[1]]])
                        continue
                    self._suspicious[link] = score
                slot = found.setdefault((link, update.prefix), {
                    "time": update.time, "vps": set(),
                    "origin": update.origin_as, "score": score,
                })
                slot["vps"].add(update.vp)
        # Each distinct prefix is formatted once; detections come out
        # sorted by (link, prefix text).
        text = {prefix: str(prefix) for _, prefix in found}
        out = []
        for (link, prefix), slot in sorted(
                ((link, text[prefix]), slot)
                for (link, prefix), slot in found.items()):
            out.append(Detection.derived(
                self.name, slot["time"], prefix=prefix,
                vps=sorted(slot["vps"]), score=slot["score"],
                extra={"link": list(link), "origin": slot["origin"]}))
        return out


class SubPrefixStreamDetector(StreamingDetector):
    """Foreign more-specific announcements, with withdrawal close.

    Ownership (covering prefix → legitimate origin) is learned at
    first sight, exactly like :class:`~repro.usecases.subprefix.
    SubPrefixDetector`; a flagged sub-prefix is never absorbed into
    ownership, and the incident closes when the last VP carrying it
    withdraws it.
    """

    name = "subprefix"

    def __init__(self) -> None:
        self._ownership: Dict[Prefix, int] = {}
        #: Open hijacks: sub-prefix -> (covering, origin, carrying VPs).
        self._open: Dict[Prefix, dict] = {}

    def _covering_for(self, prefix: Prefix
                      ) -> Optional[Tuple[Prefix, int]]:
        best: Optional[Tuple[Prefix, int]] = None
        for known, origin in self._ownership.items():
            if known != prefix and known.contains(prefix):
                if best is None or known.length > best[0].length:
                    best = (known, origin)
        return best

    def observe(self, updates: Sequence[BGPUpdate],
                start: float, end: float) -> List[Detection]:
        out: List[Detection] = []
        for update in updates:
            open_slot = self._open.get(update.prefix)
            if update.is_withdrawal:
                if open_slot is None:
                    continue
                open_slot["vps"].discard(update.vp)
                if not open_slot["vps"]:
                    del self._open[update.prefix]
                    out.append(self._detection(
                        update.prefix, open_slot, update.time,
                        vps=(update.vp,), closes=True))
                continue
            if update.origin_as is None:
                continue
            if open_slot is not None:
                newly = update.vp not in open_slot["vps"]
                open_slot["vps"].add(update.vp)
                if newly:
                    out.append(self._detection(
                        update.prefix, open_slot, update.time,
                        vps=(update.vp,)))
                continue
            if update.prefix in self._ownership:
                continue
            covering = self._covering_for(update.prefix)
            if covering is not None and covering[1] != update.origin_as:
                slot = {"covering": covering[0],
                        "victim": covering[1],
                        "attacker": update.origin_as,
                        "vps": {update.vp}}
                self._open[update.prefix] = slot
                out.append(self._detection(update.prefix, slot,
                                           update.time,
                                           vps=(update.vp,)))
            else:
                self._ownership[update.prefix] = update.origin_as
        return out

    def _detection(self, sub_prefix: Prefix, slot: dict, time: float,
                   vps: Tuple[str, ...], closes: bool = False
                   ) -> Detection:
        return Detection.derived(
            self.name, time, prefix=str(sub_prefix), vps=vps,
            closes=closes,
            extra={"covering": str(slot["covering"]),
                   "victim": slot["victim"],
                   "attacker": slot["attacker"]})


class MOASStreamDetector(StreamingDetector):
    """Multiple-origin conflicts with an open/close lifecycle.

    Tracks, per prefix, which VPs currently route via which origin
    (announcements move a VP between origins; withdrawals clear it).
    A conflict opens when a second non-bogon origin becomes active and
    closes when the active set collapses back to at most one.
    """

    name = "moas"

    def __init__(self) -> None:
        #: prefix -> origin -> VPs currently holding that origin.
        self._holders: Dict[Prefix, Dict[int, Set[str]]] = \
            defaultdict(dict)
        self._open: Set[Prefix] = set()

    def _active(self, prefix: Prefix) -> List[int]:
        return sorted(o for o, vps
                      in self._holders.get(prefix, {}).items() if vps)

    def observe(self, updates: Sequence[BGPUpdate],
                start: float, end: float) -> List[Detection]:
        out: List[Detection] = []
        touched_vps: Dict[Prefix, Set[str]] = defaultdict(set)
        for update in updates:
            prefix = update.prefix
            holders = self._holders[prefix]
            if update.is_withdrawal:
                for vps in holders.values():
                    vps.discard(update.vp)
            else:
                origin = update.origin_as
                if origin is None or _is_bogon_asn(origin):
                    continue
                for other, vps in holders.items():
                    if other != origin:
                        vps.discard(update.vp)
                holders.setdefault(origin, set()).add(update.vp)
            touched_vps[prefix].add(update.vp)
            active = self._active(prefix)
            if len(active) >= 2 and prefix not in self._open:
                self._open.add(prefix)
                out.append(self._detection(prefix, active,
                                           touched_vps[prefix],
                                           update.time))
            elif len(active) <= 1 and prefix in self._open:
                self._open.discard(prefix)
                out.append(self._detection(prefix, active,
                                           touched_vps[prefix],
                                           update.time, closes=True))
        return out

    def _detection(self, prefix: Prefix, origins: List[int],
                   vps: Set[str], time: float,
                   closes: bool = False) -> Detection:
        return Detection.derived(
            self.name, time, prefix=str(prefix), vps=sorted(vps),
            closes=closes, extra={"origins": list(origins)})


class MassWithdrawalDetector(StreamingDetector):
    """Withdrawal bursts against a smoothed per-segment baseline.

    A segment whose withdrawal count is both above ``min_count`` and
    ``burst_factor`` times the EWMA baseline opens (or continues) a
    burst; the first calm segment closes it.  Burst segments do not
    feed the baseline, so a long outage cannot normalize itself.
    """

    name = "mass_withdrawal"

    def __init__(self, min_count: int = 20, burst_factor: float = 4.0,
                 ewma_alpha: float = 0.3):
        self.min_count = min_count
        self.burst_factor = burst_factor
        self.ewma_alpha = ewma_alpha
        self._baseline: Optional[float] = None
        self._open = False

    def observe(self, updates: Sequence[BGPUpdate],
                start: float, end: float) -> List[Detection]:
        withdrawals = [u for u in updates if u.is_withdrawal]
        count = len(withdrawals)
        baseline = self._baseline if self._baseline is not None else 0.0
        bursting = (count >= self.min_count
                    and count >= self.burst_factor * max(baseline, 1.0))
        out: List[Detection] = []
        if bursting:
            prefixes = {str(u.prefix) for u in withdrawals}
            vps = {u.vp for u in withdrawals}
            out.append(Detection.derived(
                self.name, withdrawals[0].time, vps=sorted(vps),
                score=min(1.0, count / (10.0 * self.min_count)),
                extra={"withdrawals": count,
                       "prefixes": len(prefixes),
                       "baseline": round(baseline, 2)},
                segment=(start, end), baseline=baseline))
            self._open = True
        else:
            if self._open:
                self._open = False
                out.append(Detection.derived(
                    self.name, start, closes=True,
                    extra={"withdrawals": count}))
            self._baseline = count if self._baseline is None else (
                (1.0 - self.ewma_alpha) * self._baseline
                + self.ewma_alpha * count)
        return out


class FlapStormDetector(StreamingDetector):
    """Route-flap storms via RFD-style penalty with exponential decay.

    Every update to a (VP, prefix) pair adds one penalty unit after
    decaying the previous penalty by ``exp(-dt * ln2 / half_life)``.
    A prefix whose worst per-VP penalty crosses ``suppress`` opens a
    storm; it closes when every VP's penalty has decayed below
    ``reuse`` (evaluated at each segment boundary).
    """

    name = "flap_storm"

    def __init__(self, half_life_s: float = 300.0,
                 suppress: float = 4.0, reuse: float = 1.5):
        self.half_life_s = half_life_s
        self.suppress = suppress
        self.reuse = reuse
        #: (vp, prefix) -> (penalty, last update time).
        self._penalty: Dict[Tuple[str, Prefix], Tuple[float, float]] = {}
        #: Open storms: prefix -> VPs that crossed suppress.
        self._open: Dict[Prefix, Set[str]] = {}

    def _decayed(self, penalty: float, since: float, now: float) -> float:
        if now <= since:
            return penalty
        return penalty * math.exp(-(now - since) * math.log(2)
                                  / self.half_life_s)

    def observe(self, updates: Sequence[BGPUpdate],
                start: float, end: float) -> List[Detection]:
        out: List[Detection] = []
        for update in updates:
            key = (update.vp, update.prefix)
            penalty, since = self._penalty.get(key, (0.0, update.time))
            penalty = self._decayed(penalty, since, update.time) + 1.0
            self._penalty[key] = (penalty, update.time)
            if penalty >= self.suppress:
                storm = self._open.get(update.prefix)
                if storm is None:
                    self._open[update.prefix] = {update.vp}
                    out.append(self._detection(
                        update.prefix, update.time, penalty,
                        vps=(update.vp,)))
                else:
                    storm.add(update.vp)
        # Segment-boundary sweep: close storms whose penalties decayed,
        # drop negligible entries so state stays bounded.  One pass
        # groups the penalties of open storms by prefix, in table order.
        penalties: Dict[Prefix, List[Tuple[float, float]]] = {
            prefix: [] for prefix in self._open}
        for (_, pfx), entry in self._penalty.items():
            group = penalties.get(pfx)
            if group is not None:
                group.append(entry)
        for prefix in sorted(self._open, key=str):
            vps = self._open[prefix]
            worst = max((self._decayed(p, s, end)
                         for p, s in penalties[prefix]), default=0.0)
            if worst <= self.reuse:
                del self._open[prefix]
                out.append(self._detection(
                    prefix, end, worst, vps=tuple(sorted(vps)),
                    closes=True))
        self._penalty = {
            key: (penalty, since)
            for key, (penalty, since) in self._penalty.items()
            if self._decayed(penalty, since, end) > 0.05
        }
        return out

    def _detection(self, prefix: Prefix, time: float, penalty: float,
                   vps: Tuple[str, ...], closes: bool = False
                   ) -> Detection:
        return Detection.derived(
            self.name, time, prefix=str(prefix), vps=sorted(vps),
            score=min(1.0, penalty / (2.0 * self.suppress)),
            closes=closes, extra={"penalty": round(penalty, 3)},
            penalty=penalty)


def default_detectors(suspicion_threshold: float = 0.6,
                      train_segments: int = 1) -> List[StreamingDetector]:
    """The standard pipeline: all five detectors, default tuning."""
    return [
        OriginHijackStreamDetector(suspicion_threshold, train_segments),
        SubPrefixStreamDetector(),
        MOASStreamDetector(),
        MassWithdrawalDetector(),
        FlapStormDetector(),
    ]
