"""Incremental §4.2 trackers with batch parity (GILL-in-the-loop).

The batch reproduction in :mod:`repro.core` answers "how redundant was
this hour of data?" after the fact: :meth:`repro.core.correlation.
CorrelationGroups.build` buckets a finished stream per prefix, and
:func:`repro.core.scoring.compute_event_features` replays it once per
scoring pass.  Running the filter *inside* the pipeline needs the same
answers while the stream is still arriving, one update at a time, with
bounded memory.  (Per-update redundancy itself is decided by
:class:`~repro.gill.stage.GillStage`'s own witness scan.)

This module holds the incremental counterparts.  Each one is written
against its batch twin and guarded by differential tests
(``tests/gill/test_incremental.py``): feeding a time-ordered stream
through the incremental path must produce the same groups, the same
events, and the same score matrix as the batch pass over the full
stream.

Why parity holds:

* **Correlation groups** — batch windows are anchored at each window's
  first update and chopped purely on timestamps, so the boundary does
  not depend on how equal-time ties were ordered.  The incremental
  tracker keeps one open window per prefix and seals it through the
  same ``CorrelationGroups._add_window`` the batch builder uses.
* **Events** — a cluster's membership is final once the stream is more
  than the cluster window past its last sighting: any later sighting of
  the same key would open a new cluster in the batch pass too.
* **Scores** — the batch feature sweep evaluates each VP's RIB graph at
  event boundaries, with the graph at time ``t`` reflecting updates
  ``< t``.  The incremental scorer applies updates *lagged* by the
  settle slack, which is exactly the farthest any boundary can sit in
  the past (start = first sighting − slack) or future (end = last
  sighting + slack) relative to the sighting that creates or extends a
  cluster, so every snapshot can still be taken at its exact boundary.
  The graphs, the snapshots and the distance sum live in a worker
  process (:mod:`repro.gill.worker`) that evaluates the same
  expressions in the same order; this module decides when each is
  taken.
"""

from __future__ import annotations

import heapq
from collections import defaultdict, deque
from typing import Deque, Dict, FrozenSet, List, Optional, Sequence, Set, \
    Tuple

import numpy as np

from ..bgp.message import AnnotatedUpdate, BGPUpdate
from ..bgp.prefix import Prefix
from ..core.correlation import (
    CORRELATION_WINDOW_S,
    CorrelationGroups,
    Signature,
    member_set,
)
from ..core.events import (
    EVENT_CLUSTER_WINDOW_S,
    EVENT_SETTLE_SLACK_S,
    GLOBAL_VISIBILITY_CUTOFF,
    EventKind,
    ObservedEvent,
)
from .worker import (
    APPLY,
    DISCARD,
    FINALIZE,
    SNAPSHOT,
    WITHDRAW,
    ScoringWorker,
    WorkerCounts,
)


class IncrementalCorrelationGroups:
    """Streaming twin of :meth:`CorrelationGroups.build`.

    Feed a time-ordered stream through :meth:`add`; the per-prefix open
    window seals through the same ``_add_window`` path the batch builder
    uses, so after :meth:`close` the wrapped :attr:`groups` object is
    interchangeable with a batch build over the same updates.
    """

    def __init__(self, window_s: float = CORRELATION_WINDOW_S):
        self.window_s = window_s
        self.groups = CorrelationGroups(window_s)
        self._open: Dict[Prefix, List[BGPUpdate]] = {}
        self._closed = False

    def add(self, update: BGPUpdate) -> None:
        """Ingest one update (times must be nondecreasing)."""
        if self._closed:
            raise ValueError("tracker already closed")
        window = self._open.get(update.prefix)
        if window is None:
            window = self._open[update.prefix] = []
        elif window and update.time - window[0].time >= self.window_s:
            self._seal(update.prefix, window)
            self._open[update.prefix] = window = []
        window.append(update)

    def _seal(self, prefix: Prefix, window: List[BGPUpdate]) -> None:
        self.groups._add_window(prefix, window)

    def close(self) -> CorrelationGroups:
        """Seal the remaining open windows and return the groups."""
        if not self._closed:
            for prefix, window in self._open.items():
                if window:
                    self._seal(prefix, window)
            self._open.clear()
            self._closed = True
        return self.groups

    def _sealed_groups(self) -> int:
        return self.groups.total_groups()

    def total_groups(self) -> int:
        """Sealed groups so far plus currently open windows."""
        return self._sealed_groups() + sum(
            1 for window in self._open.values() if window)


class IncrementalGroupCount(IncrementalCorrelationGroups):
    """:meth:`total_groups` alone, for a process that never stops.

    The filter stage journals how many groups the kept stream formed
    and asks nothing else of them, so a sealed window leaves only its
    identity behind — ``(prefix, member set)``, which an exact distinct
    count cannot do without — and no :class:`CorrelationGroup`, weight
    or ``Corr(p, u)`` index.  :attr:`groups` stays empty.
    """

    def __init__(self, window_s: float = CORRELATION_WINDOW_S):
        super().__init__(window_s)
        self._distinct: Set[Tuple[Prefix, FrozenSet[Signature]]] = set()

    def _seal(self, prefix: Prefix, window: List[BGPUpdate]) -> None:
        self._distinct.add((prefix, member_set(window)))

    def _sealed_groups(self) -> int:
        return len(self._distinct)


class _Cluster:
    """One open observation cluster inside :class:`IncrementalVPScorer`."""

    __slots__ = ("key", "order", "kind", "pair", "prefix", "sightings",
                 "start_snapshot", "end_snapshot", "end_boundary")

    def __init__(self, key: Tuple, order: int, kind: EventKind,
                 pair: Tuple[int, int], prefix: Optional[Prefix],
                 start_snapshot: int):
        self.key = key
        self.order = order      # opening rank: ties among end boundaries
        self.kind = kind
        self.pair = pair
        self.prefix = prefix
        self.sightings: List[Tuple[float, str]] = []
        # Ids of the worker's snapshots of the pair at the boundaries.
        self.start_snapshot = start_snapshot
        self.end_snapshot: Optional[int] = None
        self.end_boundary = 0.0


class IncrementalVPScorer:
    """Streaming twin of event detection + scoring (§18.1-§18.3).

    Consumes a time-ordered *annotated* stream and maintains, at once:

    * the observation machinery of :func:`repro.core.events.
      detect_events` (per-VP cross-prefix link refcounts, per-(vp,
      prefix) origins, per-key sighting clusters);
    * per-VP :class:`RIBGraph` instances applied **lagged** by the
      settle slack, so that when a sighting at time ``T`` opens a
      cluster the graphs stand exactly at the event's start boundary
      ``T − slack``, and end boundaries (``last + slack``) are always
      still ahead of the graph cursor and can be snapshotted when the
      cursor passes them;
    * the running sum of per-event normalized pairwise distances, from
      which :meth:`scores` reproduces :func:`repro.core.scoring.
      redundancy_scores` without replaying the stream.

    The graphs, their boundary snapshots and the distance sum live in
    a :class:`~repro.gill.worker.ScoringWorker` process, forked at
    construction; this object decides every apply, snapshot, finalize
    and discard and streams them there.  :meth:`scores` is the one
    round trip.  :meth:`close` (end of stream) and :meth:`shutdown`
    stop the worker; :meth:`scores` then answers from the last sync.

    A cluster finalizes when the stream (or an explicit watermark, see
    :meth:`finalize_until`) is more than the cluster window past its
    last sighting; global events (seen by ≥ the visibility cutoff of
    ``total_vps``) are discarded exactly as in the batch detector.
    """

    def __init__(self, vps: Sequence[str],
                 total_vps: Optional[int] = None,
                 cluster_window_s: float = EVENT_CLUSTER_WINDOW_S,
                 visibility_cutoff: float = GLOBAL_VISIBILITY_CUTOFF,
                 settle_slack_s: float = EVENT_SETTLE_SLACK_S):
        if cluster_window_s <= settle_slack_s:
            raise ValueError("cluster window must exceed the settle slack "
                             "(end boundaries must close before clusters do)")
        self.vps = list(vps)
        self.vp_index = {vp: i for i, vp in enumerate(self.vps)}
        self.total_vps = total_vps if total_vps is not None else len(self.vps)
        self.cluster_window_s = cluster_window_s
        self.visibility_cutoff = visibility_cutoff
        self.settle_slack_s = settle_slack_s

        self._pending: Deque[BGPUpdate] = deque()
        self._floor = float("-inf")  # graphs reflect updates with time < floor
        # The worker's graphs key paths by these; a graph only looks
        # prefixes up, so any one-to-one key keeps its behaviour.
        self._prefix_ids: Dict[Prefix, int] = {}
        self._snapshots = 0         # ids handed out

        self._link_count: Dict[str, Dict[Tuple[int, int], int]] = \
            defaultdict(lambda: defaultdict(int))
        self._origins: Dict[Tuple[str, Prefix], int] = {}
        self._clusters: "Dict[Tuple, _Cluster]" = {}
        self._opened = 0
        # Clusters without an end snapshot, one entry each, ordered by
        # (end boundary when queued, opening rank).  A re-sighting only
        # moves ``cluster.end_boundary``; the entry is re-queued at the
        # new boundary when the cursor reaches the old one.
        self._awaiting_end: "List[Tuple[float, int, _Cluster]]" = []

        self._distance_sum = np.zeros((len(self.vps), len(self.vps)))
        #: The worker's counters and open clusters at the last sync.
        self.synced = WorkerCounts()
        self.synced_clusters = 0
        self._volumes: Dict[str, int] = defaultdict(int)
        self.events: List[ObservedEvent] = []
        self.n_events = 0
        self._closed = False
        self._worker: Optional[ScoringWorker] = ScoringWorker(len(self.vps))

    # -- ingest ---------------------------------------------------------------

    def feed(self, annotated: AnnotatedUpdate) -> None:
        """Ingest one annotated update (times must be nondecreasing)."""
        if self._closed:
            raise ValueError("scorer already closed")
        update = annotated.update
        if update.vp not in self.vp_index:
            return
        self._volumes[update.vp] += 1
        self._advance(update.time - self.settle_slack_s)

        counts = self._link_count[update.vp]
        for a, b in sorted(annotated.effective_links):
            pair = (min(a, b), max(a, b))
            counts[pair] += 1
            if counts[pair] == 1:
                self._sight((EventKind.NEW_LINK, pair), EventKind.NEW_LINK,
                            pair, None, update.time, update.vp)
        for a, b in sorted(annotated.withdrawn_links):
            pair = (min(a, b), max(a, b))
            if counts[pair] > 0:
                counts[pair] -= 1
                if counts[pair] == 0:
                    self._sight((EventKind.OUTAGE, pair), EventKind.OUTAGE,
                                pair, None, update.time, update.vp)
        if not update.is_withdrawal:
            key = (update.vp, update.prefix)
            old_origin = self._origins.get(key)
            new_origin = update.origin_as
            if old_origin is not None and old_origin != new_origin:
                pair = (min(old_origin, new_origin),
                        max(old_origin, new_origin))
                self._sight(
                    (EventKind.ORIGIN_CHANGE, pair, update.prefix),
                    EventKind.ORIGIN_CHANGE, pair, update.prefix,
                    update.time, update.vp)
            self._origins[key] = new_origin

        self._pending.append(update)

    def _sight(self, key: Tuple, kind: EventKind, pair: Tuple[int, int],
               prefix: Optional[Prefix], time: float, vp: str) -> None:
        cluster = self._clusters.get(key)
        if cluster is not None and \
                time - cluster.sightings[-1][0] > self.cluster_window_s:
            self._finalize(cluster)
            cluster = None
        if cluster is None:
            # The graphs stand exactly at the start boundary: feed()
            # advanced the floor to time − slack before observing.
            start = self._snapshot(pair)
            self._opened += 1
            cluster = _Cluster(key, self._opened, kind, pair, prefix, start)
            self._clusters[key] = cluster
        # Queued already iff an earlier sighting still awaits its snapshot.
        queued = bool(cluster.sightings) and cluster.end_snapshot is None
        cluster.sightings.append((time, vp))
        cluster.end_boundary = time + self.settle_slack_s
        if cluster.end_snapshot is not None:
            self._worker.add((DISCARD, cluster.end_snapshot))
            cluster.end_snapshot = None
        if not queued:
            heapq.heappush(self._awaiting_end,
                           (cluster.end_boundary, cluster.order, cluster))

    # -- graph cursor ---------------------------------------------------------

    def _advance(self, target: float) -> None:
        """Apply pending updates with ``time < target``, taking end
        snapshots at each boundary the cursor passes."""
        if target <= self._floor:
            return
        add, ids = self._worker.add, self._prefix_ids
        while self._pending and self._pending[0].time < target:
            update = self._pending.popleft()
            self._snapshot_ends(update.time)
            prefix = ids.get(update.prefix)
            if prefix is None:
                prefix = ids[update.prefix] = len(ids)
            vp = self.vp_index[update.vp]
            if update.is_withdrawal:
                add((WITHDRAW, vp, prefix))
            else:
                add((APPLY, vp, prefix, update.as_path))
        self._snapshot_ends(target)
        self._floor = target

    def _snapshot(self, pair: Tuple[int, int]) -> int:
        """Have the worker snapshot every VP's features of ``pair`` at
        the cursor; returns the snapshot's id."""
        self._snapshots += 1
        self._worker.add((SNAPSHOT, self._snapshots, pair[0], pair[1]))
        return self._snapshots

    def _snapshot_ends(self, time: float) -> None:
        queue = self._awaiting_end
        while queue and queue[0][0] <= time:
            _, order, cluster = heapq.heappop(queue)
            if cluster.end_boundary > time:
                heapq.heappush(queue, (cluster.end_boundary, order, cluster))
                continue
            cluster.end_snapshot = self._snapshot(cluster.pair)

    # -- finalization ---------------------------------------------------------

    def _finalize(self, cluster: _Cluster) -> None:
        if cluster.end_snapshot is None:
            # Reachable when the end boundary is still ahead of the
            # cursor (finalize_until()/close(), or a sighting gap wider
            # than the cluster window): advance the cursor to it while
            # the cluster is still registered for the snapshot sweep.
            self._advance(cluster.end_boundary)
        del self._clusters[cluster.key]
        observers = frozenset(vp for _, vp in cluster.sightings)
        if len(observers) / max(1, self.total_vps) >= self.visibility_cutoff:
            # A global event, skipped exactly like the batch detector.
            self._worker.add((DISCARD, cluster.start_snapshot))
            self._worker.add((DISCARD, cluster.end_snapshot))
            return
        event = ObservedEvent(
            cluster.kind, cluster.pair[0], cluster.pair[1],
            start=cluster.sightings[0][0] - self.settle_slack_s,
            end=cluster.sightings[-1][0] + self.settle_slack_s,
            observers=observers,
            prefix=cluster.prefix,
        )
        self._worker.add((FINALIZE, cluster.start_snapshot,
                          cluster.end_snapshot))
        self.events.append(event)
        self.n_events += 1

    def finalize_until(self, watermark: float) -> None:
        """Finalize every cluster no later sighting can extend.

        Call with a stream watermark (e.g. a segment boundary) before
        reading :meth:`scores`, so scores reflect all events decided by
        that point regardless of per-key sighting gaps.
        """
        ripe = [cluster for cluster in self._clusters.values()
                if watermark - cluster.sightings[-1][0]
                > self.cluster_window_s]
        ripe.sort(key=lambda c: c.end_boundary)
        for cluster in ripe:
            self._finalize(cluster)

    def close(self) -> None:
        """End of stream: finalize every open cluster, take the final
        sum from the worker and stop it."""
        if self._closed:
            return
        ripe = sorted(self._clusters.values(),
                      key=lambda c: c.end_boundary)
        for cluster in ripe:
            self._finalize(cluster)
        self._advance(float("inf"))
        self._closed = True
        self._sync()
        self.shutdown()

    def shutdown(self) -> None:
        """Stop the worker without ending the stream (idempotent)."""
        if self._worker is not None:
            self._worker.close()
            self._worker = None

    # -- worker ---------------------------------------------------------------

    def send(self) -> None:
        """Hand the buffered commands to the worker now, without
        waiting: it works through them while the caller does other
        work (the writer seals the slot's segment)."""
        self._worker.send()

    def _sync(self) -> None:
        self._distance_sum, self.synced = self._worker.sync()
        self.synced_clusters = len(self._clusters)

    # -- results --------------------------------------------------------------

    def scores(self) -> np.ndarray:
        """The §18.3 redundancy score matrix over finalized events.

        Reproduces :func:`repro.core.scoring.redundancy_scores` from the
        running distance sum (same averaging, min-max flip, clipping,
        and unit diagonal).  Waits for the worker to run every command
        sent so far.
        """
        if self._worker is not None:
            self._sync()
        n_vps = len(self.vps)
        if self.n_events == 0:
            return np.ones((n_vps, n_vps))
        average = self._distance_sum / self.n_events
        off_diagonal = ~np.eye(n_vps, dtype=bool)
        values = average[off_diagonal]
        if values.size == 0:
            return np.ones((n_vps, n_vps))
        low, high = values.min(), values.max()
        if high - low <= 0:
            scores = np.ones((n_vps, n_vps))
        else:
            scores = 1.0 - (average - low) / (high - low)
            scores = np.clip(scores, 0.0, 1.0)
        np.fill_diagonal(scores, 1.0)
        return scores

    def volumes(self) -> List[int]:
        """Updates seen per VP, aligned with :attr:`vps`."""
        return [self._volumes.get(vp, 0) for vp in self.vps]
