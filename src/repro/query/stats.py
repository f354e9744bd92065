"""Query-engine counters, shared with the pipeline status page.

The engine reports everything an operator of a serving platform wants
on one screen: query volume, cache efficiency, how hard the indexes
are working (segments pruned without decoding vs segments actually
decoded) and how much time goes into building indexes.

:class:`QueryStats` is now a thin facade over a
:class:`repro.telemetry.MetricsRegistry` — every counter lives in the
shared registry namespace (``repro_query_*`` families) so the query
engine's traffic appears in the same ``/metrics`` exposition as the
pipeline's, whether the engine runs standalone (its own registry) or
inside a pipeline (``PipelineMetrics`` passes its registry down).
The mutable facade is thread-safe (server handler threads and the
archive writer both report into it); :meth:`QueryStats.snapshot`
produces the immutable view embedded in
:class:`repro.pipeline.metrics.PipelineMetricsSnapshot` and rendered
by :mod:`repro.platform.status`.

This module's only repro-internal import is :mod:`repro.telemetry`
(itself import-free), so both the read side (:mod:`repro.query`) and
the write side (:mod:`repro.pipeline.metrics`) can depend on it
without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..telemetry import MetricsRegistry


@dataclass(frozen=True)
class QueryStatsSnapshot:
    """One immutable observation of the query engine's counters."""

    queries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_invalidations: int = 0
    #: Segments the planner looked at (after time-range bisection).
    segments_considered: int = 0
    #: Skipped by the time range without touching any file.
    segments_pruned_time: int = 0
    #: Skipped by the bloom fingerprint / postings without decoding.
    segments_pruned_index: int = 0
    segments_decoded: int = 0
    records_decoded: int = 0
    records_returned: int = 0
    index_builds: int = 0
    index_build_time_s: float = 0.0
    index_loads: int = 0
    #: Scanned segments whose view was reused / had to be built
    #: (every one is still read and verified, and counted in
    #: ``segments_decoded``).
    payload_cache_hits: int = 0
    payload_cache_misses: int = 0
    #: Segment-view bytes the engine retains right now.
    payload_cache_bytes: int = 0

    @property
    def cache_hit_rate(self) -> float:
        looked = self.cache_hits + self.cache_misses
        return self.cache_hits / looked if looked else 0.0

    @property
    def segments_pruned(self) -> int:
        return self.segments_pruned_time + self.segments_pruned_index

    @property
    def any_activity(self) -> bool:
        return bool(self.queries or self.index_builds or self.index_loads)


class QueryStats:
    """Facade binding the query engine's counters into a registry."""

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        r = self.registry
        requests = r.counter(
            "repro_query_requests_total",
            "Queries served, by result-cache outcome.",
            labels=("cache",))
        self._hits = requests.labels("hit")
        self._misses = requests.labels("miss")
        self._invalidations = r.counter(
            "repro_query_cache_invalidations_total",
            "Cached answers evicted because the archive watermark "
            "moved.")
        segments = r.counter(
            "repro_query_segments_total",
            "Segments the query planner handled, by outcome.",
            labels=("outcome",))
        self._considered = segments.labels("considered")
        self._pruned_time = segments.labels("pruned_time")
        self._pruned_index = segments.labels("pruned_index")
        self._decoded = segments.labels("decoded")
        records = r.counter(
            "repro_query_records_total",
            "Archive records decoded while answering vs returned.",
            labels=("kind",))
        self._records_decoded = records.labels("decoded")
        self._records_returned = records.labels("returned")
        index_ops = r.counter(
            "repro_query_index_ops_total",
            "Per-segment index operations, by kind.",
            labels=("op",))
        self._index_builds = index_ops.labels("build")
        self._index_loads = index_ops.labels("load")
        self._index_build_s = r.counter(
            "repro_query_index_build_seconds_total",
            "Total wall time spent building segment indexes.",
            unit="seconds")
        payloads = r.counter(
            "repro_query_payload_cache_total",
            "Verified segment reads, by whether the segment's view "
            "was reused.",
            labels=("result",))
        self._payload_hits = payloads.labels("hit")
        self._payload_misses = payloads.labels("miss")
        self._payload_bytes = r.gauge(
            "repro_query_payload_cache_bytes",
            "Segment-view bytes retained in memory.",
            unit="bytes")

    # -- write side (unchanged call sites) -----------------------------------

    def query_served(self, cache_hit: bool, returned: int) -> None:
        (self._hits if cache_hit else self._misses).inc()
        if returned:
            self._records_returned.inc(returned)

    def cache_invalidated(self, count: int = 1) -> None:
        self._invalidations.inc(count)

    def plan_executed(self, considered: int, pruned_time: int,
                      pruned_index: int, decoded: int) -> None:
        if considered:
            self._considered.inc(considered)
        if pruned_time:
            self._pruned_time.inc(pruned_time)
        if pruned_index:
            self._pruned_index.inc(pruned_index)
        if decoded:
            self._decoded.inc(decoded)

    def records_scanned(self, count: int) -> None:
        if count:
            self._records_decoded.inc(count)

    def index_built(self, seconds: float) -> None:
        self._index_builds.inc()
        self._index_build_s.inc(seconds)

    def index_loaded(self) -> None:
        self._index_loads.inc()

    def payload_cache_lookup(self, hit: bool) -> None:
        (self._payload_hits if hit else self._payload_misses).inc()

    def payload_cache_bytes(self, retained: int) -> None:
        self._payload_bytes.set(retained)

    # -- read side -----------------------------------------------------------

    @property
    def cache_hits(self) -> int:
        return int(self._hits.value)

    @property
    def cache_misses(self) -> int:
        return int(self._misses.value)

    @property
    def queries(self) -> int:
        return self.cache_hits + self.cache_misses

    @property
    def cache_invalidations(self) -> int:
        return int(self._invalidations.value)

    @property
    def index_builds(self) -> int:
        return int(self._index_builds.value)

    @property
    def index_loads(self) -> int:
        return int(self._index_loads.value)

    def snapshot(self) -> QueryStatsSnapshot:
        return QueryStatsSnapshot(
            queries=self.queries,
            cache_hits=self.cache_hits,
            cache_misses=self.cache_misses,
            cache_invalidations=self.cache_invalidations,
            segments_considered=int(self._considered.value),
            segments_pruned_time=int(self._pruned_time.value),
            segments_pruned_index=int(self._pruned_index.value),
            segments_decoded=int(self._decoded.value),
            records_decoded=int(self._records_decoded.value),
            records_returned=int(self._records_returned.value),
            index_builds=self.index_builds,
            index_build_time_s=self._index_build_s.value,
            index_loads=self.index_loads,
            payload_cache_hits=int(self._payload_hits.value),
            payload_cache_misses=int(self._payload_misses.value),
            payload_cache_bytes=int(self._payload_bytes.value),
        )


def render_query_stats(snapshot: QueryStatsSnapshot) -> str:
    """One status-page block for the query engine (no trailing \\n)."""
    lines = [
        "== query engine ==",
        f"queries {snapshot.queries}  "
        f"cache {snapshot.cache_hits} hit / {snapshot.cache_misses} miss "
        f"({snapshot.cache_hit_rate:.1%})  "
        f"invalidations {snapshot.cache_invalidations}",
        f"segments: {snapshot.segments_considered} considered, "
        f"{snapshot.segments_pruned} pruned "
        f"({snapshot.segments_pruned_time} time, "
        f"{snapshot.segments_pruned_index} index), "
        f"{snapshot.segments_decoded} decoded",
        f"records: {snapshot.records_decoded} decoded, "
        f"{snapshot.records_returned} returned",
        f"indexes: {snapshot.index_builds} built "
        f"({snapshot.index_build_time_s:.3f}s), "
        f"{snapshot.index_loads} loaded",
        f"payloads: {snapshot.payload_cache_hits} reused / "
        f"{snapshot.payload_cache_misses} decompressed, "
        f"{snapshot.payload_cache_bytes} bytes held",
    ]
    return "\n".join(lines)
