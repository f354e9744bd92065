"""The platform status page (bgproutes.io's operational view, §9).

New peers "are visible on the website within a few minutes"; users
consult the published filters and anchor list to know what the archive
contains.  This module assembles that operational snapshot from the
running components: per-VP traffic accounting, anchor membership,
session states, honesty scores, and refresh bookkeeping.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..bgp.message import BGPUpdate
from ..bgp.session import SessionManager, SessionState
from ..core.orchestrator import Orchestrator


@dataclass(frozen=True)
class VPStatus:
    """One row of the peers table."""

    vp: str
    received: int
    retained: int
    is_anchor: bool
    honesty: float

    @property
    def retention(self) -> float:
        return self.retained / self.received if self.received else 0.0


@dataclass(frozen=True)
class PlatformStatus:
    """The full status snapshot."""

    vps: Sequence[VPStatus]
    total_received: int
    total_retained: int
    filter_rules: int
    anchor_count: int
    component1_runs: int
    component2_runs: int
    pending_sessions: int = 0
    rejected_sessions: int = 0
    #: Crash-recovery bookkeeping from the orchestrator (§8).
    epoch_resumes: int = 0
    rib_redumps: int = 0

    @property
    def retention(self) -> float:
        if not self.total_received:
            return 1.0
        return self.total_retained / self.total_received


def collect_status(orchestrator: Orchestrator,
                   processed: Sequence[BGPUpdate],
                   retained: Sequence[BGPUpdate],
                   sessions: Optional[SessionManager] = None
                   ) -> PlatformStatus:
    """Assemble the status snapshot after (or during) a collection run.

    ``processed`` is everything the orchestrator ingested and
    ``retained`` what survived its filters — callers typically keep
    both lists anyway when replaying archives.
    """
    received_per_vp: Dict[str, int] = defaultdict(int)
    retained_per_vp: Dict[str, int] = defaultdict(int)
    for update in processed:
        received_per_vp[update.vp] += 1
    for update in retained:
        retained_per_vp[update.vp] += 1

    anchors = set(orchestrator.anchor_vps)
    validator = orchestrator.validator
    rows = [
        VPStatus(
            vp,
            received_per_vp[vp],
            retained_per_vp.get(vp, 0),
            vp in anchors,
            validator.peer_honesty(vp) if validator else 1.0,
        )
        for vp in sorted(received_per_vp)
    ]

    pending = rejected = 0
    if sessions is not None:
        for session in sessions.sessions.values():
            if session.state in (SessionState.PENDING_EMAIL,
                                 SessionState.PENDING_VALIDATION):
                pending += 1
            elif session.state is SessionState.REJECTED:
                rejected += 1

    stats = orchestrator.stats
    return PlatformStatus(
        vps=tuple(rows),
        total_received=stats.received,
        total_retained=stats.retained,
        filter_rules=len(orchestrator.filters),
        anchor_count=len(anchors),
        component1_runs=stats.component1_runs,
        component2_runs=stats.component2_runs,
        pending_sessions=pending,
        rejected_sessions=rejected,
        epoch_resumes=stats.epoch_resumes,
        rib_redumps=stats.rib_redumps,
    )


def render_status(status: PlatformStatus) -> str:
    """Render the status page as plain text."""
    lines = [
        "== platform status ==",
        f"peers: {len(status.vps)} active"
        + (f", {status.pending_sessions} pending" if
           status.pending_sessions else "")
        + (f", {status.rejected_sessions} rejected" if
           status.rejected_sessions else ""),
        f"updates: {status.total_received} received, "
        f"{status.total_retained} retained "
        f"({status.retention:.1%})",
        f"filters: {status.filter_rules} rules; "
        f"anchors: {status.anchor_count}",
        f"sampling runs: component #1 x{status.component1_runs}, "
        f"component #2 x{status.component2_runs}",
    ]
    if status.epoch_resumes or status.rib_redumps:
        lines.append(
            f"recovery: {status.epoch_resumes} epoch resumes, "
            f"{status.rib_redumps} RIB re-dumps")
    lines += [
        "",
        f"{'peer':>12s} {'recv':>7s} {'kept':>7s} {'ret%':>6s} "
        f"{'anchor':>6s} {'honesty':>7s}",
    ]
    for row in status.vps:
        lines.append(
            f"{row.vp:>12s} {row.received:7d} {row.retained:7d} "
            f"{row.retention:6.1%} {'yes' if row.is_anchor else '-':>6s} "
            f"{row.honesty:7.2f}"
        )
    return "\n".join(lines) + "\n"
