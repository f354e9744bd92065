"""The gill filter stage: online overshoot-and-discard at ingest.

The paper's platform shape (§3): peer with every willing VP, then drop
the redundant fraction of the firehose *before* it hits storage, keeping
a set of anchor VPs whose data preserves reconstitution power.  The
batch reproduction already measures all of that offline; this stage is
the same machinery run inline, between the pipeline's watermark-ordered
writer stage and the rolling archive writer.

Placement and protocol
======================

The writer releases updates in nondecreasing time order, but this
stage's contract does not fix the order of equal-time updates.
Definitions 2/3 are asymmetric, so "which of two simultaneous updates
is the witness" would make the filtered archive nondeterministic.  The
stage therefore buffers all updates sharing a timestamp and decides the
batch only when time strictly advances, in a canonical sort order —
``offer()`` returns the kept updates of *completed* timestamps, and
``flush()`` drains the final batch at end of stream.  Filtered archives
are consequently byte-identical across runs and across crash/resume.

Filter state is a function of the **kept** stream only — the per-prefix
witness windows, the kept-RIB annotations, the correlation groups, and
the scorer all ingest an update only after it is admitted.  That is
what makes resume exact: replaying the recovered archive through
:meth:`attach` rebuilds the filter to the precise state the crashed run
had at the durable watermark, and re-deciding the re-fed tail produces
the same drops.  It also gives every *dropped* update a kept witness in
the archive within the time slack, which is what preserves
reconstitution (§4.2: redundancy is defined against data you kept).

Rescoring and the keep-list
===========================

At every archive-slot boundary the stage finalizes ripe event clusters,
recomputes the §18.3 score matrix from the incremental scorer's running
sums, reruns §18.4 anchor selection, and journals the slot's accounting
(:mod:`repro.gill.journal`).  Anchor VPs — plus any operator keep-list —
bypass the filter entirely, so the archive always contains the full
feed of the VPs that carry the platform's reconstitution power.

Seal before sync
================

The scorer's graphs and snapshots run in a worker process
(:mod:`repro.gill.worker`), and the slot boundary is the only point
where the stage waits for it.  When a :attr:`GillStage.sealer` is
bound, the boundary runs in this order, so the worker finishes the
slot's scoring while the writer seals the slot's segment:

1. finalize ripe clusters and send the worker every buffered command;
2. ``sealer.seal()`` — the segment file, its index and the seal
   listeners (the event pass), but no manifest entry yet;
3. wait for the scores, select anchors, append the slot's journal
   record;
4. ``sealer.publish()`` — the segment's manifest entry.

A slot's record is therefore durable before its segment is: a crash
anywhere in between leaves a segment file recovery deletes as torn and
a record the journal load truncates, and the resumed run re-decides
the slot from the durable segments before it.
"""

from __future__ import annotations

import math
import threading
import time as time_mod
from dataclasses import dataclass, field
from typing import Dict, Deque, List, Optional, Sequence, Set, Tuple

from collections import defaultdict, deque

from ..bgp.message import AnnotatedUpdate, BGPUpdate, path_links
from ..bgp.rib import RIB
from ..bgp.prefix import Prefix
from ..core.anchors import DEFAULT_GAMMA, select_anchor_vps
from ..core.redundancy import (
    TIME_SLACK_S,
    RedundancyDefinition,
    condition2,
    condition3,
    is_redundant_with,
)
from ..telemetry import Declared, MetricsRegistry, bind
from .incremental import IncrementalGroupCount, IncrementalVPScorer
from .journal import GillJournal, gill_journal_path_for

#: The filter's decisions, also read by the pipeline snapshot.
GILL_DECISIONS = Declared(
    "counter", "repro_gill_decisions_total",
    "Filter decisions on archive-bound updates", ("decision",),
    gill_kept=("kept",), gill_dropped=("dropped",))


@dataclass
class GillConfig:
    """Tuning knobs for the online redundancy filter.

    ``definition`` picks the §4.2 strictness (1 = prefix+time, the most
    aggressive filter; 3 = +AS path+communities, the most conservative).
    ``keep`` names VPs that always bypass the filter, on top of the
    anchors the re-scorer selects when ``auto_anchors`` is on.
    """

    definition: RedundancyDefinition = RedundancyDefinition.PREFIX
    keep: Tuple[str, ...] = ()
    auto_anchors: bool = True
    max_anchors: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.definition, RedundancyDefinition):
            self.definition = RedundancyDefinition(int(self.definition))
        self.keep = tuple(self.keep)
        if self.max_anchors is not None and self.max_anchors < 1:
            raise ValueError("max_anchors must be at least 1")


class GillStage:
    """Online redundancy filter between the writer's heap and the archive.

    Construct with the VP universe, :meth:`attach` to the (raw,
    un-fault-wrapped) archive, then let the writer call :meth:`offer`
    per retained update and :meth:`flush` at end of stream, and
    :meth:`close` the stage once the run is over.  Construction forks
    the scoring worker, so build the stage before starting threads.
    Thread confinement matches the writer: all mutation happens on the
    writer thread; :meth:`vp_scores` / :meth:`summary` are safe from
    serving threads.
    """

    def __init__(self, config: GillConfig, vps: Sequence[str],
                 registry=None, interval_s: float = 300.0,
                 journal: Optional[GillJournal] = None):
        self.config = config
        self.vps = sorted(vps)
        self.interval_s = float(interval_s)
        self.archive = None
        self.journal = journal if journal is not None else GillJournal()
        #: Seals the archive at live slot boundaries: an object with
        #: ``seal()`` and ``publish()`` (see the module docstring; the
        #: writer stage routes both through its own archive path).
        #: None leaves sealing to the archive's next write.
        self.sealer = None

        # -- filter state (kept stream only) ----------------------------------
        self._batch: List[BGPUpdate] = []
        self._batch_time: Optional[float] = None
        self._slot: Optional[int] = None
        self._ribs: Dict[str, RIB] = {}
        self._windows: Dict[Prefix, Deque[AnnotatedUpdate]] = \
            defaultdict(deque)
        self._correlation = IncrementalGroupCount()
        self._scorer = IncrementalVPScorer(self.vps)
        self._keep: Set[str] = set(config.keep)
        self._anchors: Set[str] = set()

        # -- per-slot accounting ----------------------------------------------
        self._slot_kept = 0
        self._slot_dropped = 0
        self._slot_drops: Dict[str, Dict[str, int]] = {}
        self._journaled_through = float("-inf")
        self._replaying = False

        # -- shared results (read from serving threads) -----------------------
        self._lock = threading.Lock()
        self._last_scores: Dict[str, dict] = {}
        self._total_kept = 0
        self._total_dropped = 0
        self._rescores = 0

        self._register_metrics(registry)

    # -- metrics --------------------------------------------------------------

    def _register_metrics(self, registry) -> None:
        if registry is None:
            registry = MetricsRegistry()
        self.registry = registry
        decisions = bind(registry, (GILL_DECISIONS,))
        self._kept_counter = decisions["gill_kept"]
        self._dropped_counter = decisions["gill_dropped"]
        self._dropped_by = registry.counter(
            "repro_gill_dropped_total",
            "Dropped updates by VP and strictest satisfied definition",
            labels=("vp", "definition"))
        # Children resolved on first drop, not here: the exposition
        # lists only the (vp, definition) pairs that dropped something.
        self._dropped_children: Dict[Tuple[str, str], object] = {}
        self._rescore_seconds = registry.histogram(
            "repro_gill_rescore_seconds",
            "Per-slot re-scoring latency", unit="seconds")
        self._sync_wait_seconds = registry.histogram(
            "repro_gill_sync_wait_seconds",
            "Time the writer blocks at each slot sync waiting for the "
            "scoring worker", unit="seconds")
        self._rescores_total = registry.counter(
            "repro_gill_rescores_total", "Completed re-scoring passes")
        self._anchors_gauge = registry.gauge(
            "repro_gill_anchor_vps", "VPs currently on the keep-list")
        self._groups_gauge = registry.gauge(
            "repro_gill_correlation_groups",
            "Correlation groups tracked over the kept stream")
        self._events_gauge = registry.gauge(
            "repro_gill_events", "Events finalized by the online scorer")
        self._anchors_gauge.set(len(self._keep))

    # -- attachment / replay --------------------------------------------------

    def attach(self, archive) -> int:
        """Bind to an archive; replay its durable segments into state.

        The archive must be the *raw* writer (recover()ed when resuming),
        not a fault-injection wrapper: replay reads its segment manifest
        and the journal truncates to its durable watermark.  Returns the
        number of segments replayed.
        """
        self.archive = archive
        self.interval_s = float(archive.interval_s)
        if self.journal.path is None:
            self.journal = GillJournal(
                gill_journal_path_for(archive.directory))
        segments = list(archive.segments)
        watermark = archive.durable_watermark
        self.journal.load(truncate_beyond=watermark)
        if not segments and len(self.journal):
            raise ValueError(
                "archive reports no segments but the gill journal has "
                f"{len(self.journal)} record(s); recover() the archive "
                "before attaching so the durable segment manifest is "
                "loaded")
        self._journaled_through = self.journal.last_watermark()
        from ..bgp.mrt import iter_archive
        self._replaying = True
        try:
            for segment in segments:
                for record in iter_archive(segment.path):
                    if isinstance(record, BGPUpdate):
                        self._step_slot(record.time)
                        self._ingest_kept(record)
        finally:
            self._replaying = False
        return len(segments)

    # -- writer-facing protocol -----------------------------------------------

    def offer(self, update: BGPUpdate) -> List[BGPUpdate]:
        """Submit one retained update; returns updates ready to archive.

        Updates are released only once their timestamp is complete (a
        later time arrived), in a canonical order independent of heap
        arrival order — see the module docstring.
        """
        released: List[BGPUpdate] = []
        if self._batch and update.time != self._batch_time:
            released = self._decide_batch()
        self._batch.append(update)
        self._batch_time = update.time
        return released

    def flush(self) -> List[BGPUpdate]:
        """End of stream: decide the final batch and journal the slot."""
        released = self._decide_batch() if self._batch else []
        if self._slot is not None:
            # The final batch is not archived yet: the archive's close()
            # seals the last segment, after this record.
            self._flush_slot(seal=False)
            self._slot = None
        return released

    # -- decision core --------------------------------------------------------

    _BATCH_KEY = staticmethod(lambda u: (u.vp, u.prefix, u.as_path,
                                         tuple(sorted(u.communities)),
                                         u.is_withdrawal))

    def _decide_batch(self) -> List[BGPUpdate]:
        batch = sorted(self._batch, key=self._BATCH_KEY)
        self._batch = []
        self._batch_time = None
        kept: List[BGPUpdate] = []
        for update in batch:
            self._step_slot(update.time)
            if self._admit(update):
                kept.append(update)
        return kept

    def _step_slot(self, time: float) -> None:
        slot = int(math.floor(time / self.interval_s))
        if self._slot is None:
            self._slot = slot
        elif slot > self._slot:
            self._flush_slot()
            self._slot = slot

    def _window(self, update: BGPUpdate) -> Deque[AnnotatedUpdate]:
        """``update``'s prefix's witness window, pruned to the kept
        updates less than ``TIME_SLACK_S`` older than it."""
        window = self._windows[update.prefix]
        while window and update.time - window[0].update.time \
                >= TIME_SLACK_S:
            window.popleft()
        return window

    def _admit(self, update: BGPUpdate) -> bool:
        annotated = self._annotate(update)
        window = self._window(update)
        if update.vp not in self._keep and update.vp not in self._anchors:
            # Updates arrive in nondecreasing time, so every entry of
            # the pruned window has this prefix and is less than
            # ``TIME_SLACK_S`` older: all Condition 1 asks, and under
            # Definition 1 the window is the witness list.
            if self.config.definition is RedundancyDefinition.PREFIX:
                witnesses = list(window)
            else:
                witnesses = [other for other in window
                             if is_redundant_with(annotated, other,
                                                  self.config.definition,
                                                  TIME_SLACK_S)]
            if witnesses:
                self._record_drop(annotated, witnesses)
                return False
        self._ingest_kept(update, annotated)
        return True

    def _annotate(self, update: BGPUpdate) -> AnnotatedUpdate:
        """Annotate against the kept-RIB *without* installing.

        New links/communities are relative to the last *archived* route
        for the prefix — the consistent frame for both the witness scan
        and replay after a crash.
        """
        rib = self._ribs.get(update.vp)
        previous = rib.get(update.prefix) if rib is not None else None
        previous_links = (frozenset(path_links(previous.as_path))
                          if previous else frozenset())
        previous_comms = (frozenset(previous.communities)
                          if previous else frozenset())
        return AnnotatedUpdate(update, previous_links, previous_comms)

    def _ingest_kept(self, update: BGPUpdate,
                     annotated: Optional[AnnotatedUpdate] = None) -> None:
        if annotated is None:  # replay path: annotate, then install
            annotated = self._annotate(update)
        rib = self._ribs.get(update.vp)
        if rib is None:
            rib = self._ribs[update.vp] = RIB(update.vp)
        rib.apply(update)
        self._window(update).append(annotated)
        self._correlation.add(update)
        self._scorer.feed(annotated)
        self._slot_kept += 1
        if not self._replaying:
            self._kept_counter.inc()
        with self._lock:
            self._total_kept += 1

    def _record_drop(self, annotated: AnnotatedUpdate,
                     witnesses: Sequence[AnnotatedUpdate]) -> None:
        update = annotated.update
        strictest = self._strictest_definition(annotated, witnesses)
        self._slot_dropped += 1
        per_vp = self._slot_drops.setdefault(update.vp, {})
        key = str(strictest.value)
        per_vp[key] = per_vp.get(key, 0) + 1
        if not self._replaying:
            self._dropped_counter.inc()
            child = self._dropped_children.get((update.vp, key))
            if child is None:
                child = self._dropped_children[(update.vp, key)] = \
                    self._dropped_by.labels(vp=update.vp, definition=key)
            child.inc()
        with self._lock:
            self._total_dropped += 1

    def _strictest_definition(self, annotated: AnnotatedUpdate,
                              witnesses: Sequence[AnnotatedUpdate]
                              ) -> RedundancyDefinition:
        """The strictest §4.2 definition some witness satisfies.

        Every witness already satisfies Condition 1 (and, under
        Definitions 2/3, the stricter conditions too); this only
        upgrades the audit label, never the filter decision.
        """
        strictest = self.config.definition
        for witness in witnesses:
            if strictest is RedundancyDefinition.PREFIX_ASPATH_COMMUNITY:
                break
            if not condition2(annotated, witness):
                continue
            if condition3(annotated, witness):
                strictest = RedundancyDefinition.PREFIX_ASPATH_COMMUNITY
            elif strictest is RedundancyDefinition.PREFIX:
                strictest = RedundancyDefinition.PREFIX_ASPATH
        return strictest

    # -- slot flush / rescoring -----------------------------------------------

    def _flush_slot(self, seal: bool = True) -> None:
        watermark = (self._slot + 1) * self.interval_s
        started = time_mod.perf_counter()
        self._scorer.finalize_until(watermark)
        # The scorer lists each finalized event for callers that compare
        # them with the batch detector; here only the count is read.
        self._scorer.events.clear()
        sealer = self.sealer if seal and not self._replaying else None
        if sealer is not None:
            # Every kept update of the slot is in the archive: seal its
            # segment while the worker scores the slot's tail.
            self._scorer.send()
            sealing = time_mod.perf_counter()
            sealer.seal()
            # The rescore latency leaves the seal out.
            started += time_mod.perf_counter() - sealing
        waiting = time_mod.perf_counter()
        scores = self._scorer.scores()
        self._sync_wait_seconds.record(time_mod.perf_counter() - waiting)
        volumes = self._scorer.volumes()
        if self.config.auto_anchors:
            selection = select_anchor_vps(
                self.vps, scores, volumes, gamma=DEFAULT_GAMMA,
                max_anchors=self.config.max_anchors)
            self._anchors = set(selection.anchors)
        n = len(self.vps)
        rows: Dict[str, dict] = {}
        for i, vp in enumerate(self.vps):
            off_diag = [scores[i, j] for j in range(n) if j != i]
            redundancy = (sum(off_diag) / len(off_diag)) if off_diag else 0.0
            rows[vp] = {
                "value": round(1.0 - redundancy, 6),
                "redundancy": round(redundancy, 6),
                "volume": volumes[i],
                "anchor": vp in self._anchors or vp in self._keep,
            }
        elapsed = time_mod.perf_counter() - started
        self._rescore_seconds.record(elapsed)
        self._rescores_total.inc()
        self._anchors_gauge.set(len(self._anchors | self._keep))
        self._groups_gauge.set(self._correlation.total_groups())
        self._events_gauge.set(self._scorer.n_events)

        record = {
            "watermark": watermark,
            "segment_start": self._slot * self.interval_s,
            "definition": self.config.definition.value,
            "kept": self._slot_kept,
            "dropped": self._slot_dropped,
            "drops": {vp: dict(sorted(defs.items()))
                      for vp, defs in sorted(self._slot_drops.items())},
            "anchors": sorted(self._anchors | self._keep),
            "events": self._scorer.n_events,
            "groups": self._correlation.total_groups(),
            "scores": {vp: rows[vp] for vp in self.vps},
        }
        if not self._replaying and watermark > self._journaled_through:
            self.journal.append(record)
            self._journaled_through = watermark
        if sealer is not None:
            sealer.publish()
        self._slot_kept = 0
        self._slot_dropped = 0
        self._slot_drops = {}
        with self._lock:
            self._last_scores = rows
            self._rescores += 1

    def close(self) -> None:
        """Stop the scoring worker (idempotent); the stage keeps its
        last scores and totals for readers."""
        self._scorer.shutdown()

    # -- serving-side accessors -----------------------------------------------

    def vp_scores(self) -> Dict[str, dict]:
        """Per-VP rows from the most recent rescore ({} before any)."""
        with self._lock:
            return dict(self._last_scores)

    def keep_list(self) -> Set[str]:
        """VPs currently bypassing the filter (anchors + operator keeps)."""
        return set(self._anchors) | self._keep

    def summary(self) -> dict:
        """Run totals for CLI reporting."""
        with self._lock:
            kept, dropped = self._total_kept, self._total_dropped
            rescores = self._rescores
        total = kept + dropped
        return {
            "definition": self.config.definition.value,
            "kept": kept,
            "dropped": dropped,
            "dropped_fraction": (dropped / total) if total else 0.0,
            "rescores": rescores,
            "keep_list": sorted(self.keep_list()),
        }
