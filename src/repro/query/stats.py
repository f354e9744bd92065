"""Query-engine counters, shared with the pipeline status page.

The engine reports everything an operator of a serving platform wants
on one screen: query volume, cache efficiency, how hard the indexes
are working (segments pruned without decoding vs segments actually
decoded) and how much time goes into building indexes.

Each counter is declared once in :data:`QUERY_METRICS`: its
``repro_query_*`` family, HELP text, labels and the
:class:`QueryStatsSnapshot` field it fills.  :class:`QueryStats` holds
the bound children (one attribute per field) that the engine
increments, and its :meth:`~QueryStats.snapshot` reads the fields back
from the registry.  The registry is the engine's own or, inside a
pipeline, the pipeline's, so the query traffic appears in the same
``/metrics`` exposition as collection.

This module's only repro-internal import is :mod:`repro.telemetry`
(itself import-free), so both the read side (:mod:`repro.query`) and
the write side (:mod:`repro.pipeline.metrics`) can depend on it
without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..telemetry import Declared, MetricsRegistry, bind, read

QUERY_METRICS = (
    Declared("counter", "repro_query_requests_total",
             "Queries served, by result-cache outcome.", ("cache",),
             cache_hits=("hit",), cache_misses=("miss",)),
    Declared("counter", "repro_query_cache_invalidations_total",
             "Cached answers evicted because the archive watermark "
             "moved.", cache_invalidations=()),
    Declared("counter", "repro_query_segments_total",
             "Segments the query planner handled, by outcome.",
             ("outcome",), segments_considered=("considered",),
             segments_pruned_time=("pruned_time",),
             segments_pruned_index=("pruned_index",),
             segments_decoded=("decoded",)),
    Declared("counter", "repro_query_records_total",
             "Archive records decoded while answering vs returned.",
             ("kind",), records_decoded=("decoded",),
             records_returned=("returned",)),
    Declared("counter", "repro_query_index_ops_total",
             "Per-segment index operations, by kind.", ("op",),
             index_builds=("build",), index_loads=("load",)),
    Declared("counter", "repro_query_index_build_seconds_total",
             "Total wall time spent building segment indexes.",
             unit="seconds", index_build_time_s=()),
    Declared("counter", "repro_query_payload_cache_total",
             "Verified segment reads, by whether the segment's view "
             "was reused.", ("result",),
             payload_cache_hits=("hit",), payload_cache_misses=("miss",)),
    Declared("gauge", "repro_query_payload_cache_bytes",
             "Segment-view bytes retained in memory.", unit="bytes",
             payload_cache_bytes=()),
)


@dataclass(frozen=True)
class QueryStatsSnapshot:
    """One immutable observation of the query engine's counters."""

    cache_hits: int = 0
    cache_misses: int = 0
    cache_invalidations: int = 0
    #: Segments the planner looked at (after time-range bisection).
    segments_considered: int = 0
    #: Skipped by the time range without touching any file.
    segments_pruned_time: int = 0
    #: Skipped by the index's key sets without decoding.
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
    def queries(self) -> int:
        return self.cache_hits + self.cache_misses

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.queries if self.queries else 0.0

    @property
    def segments_pruned(self) -> int:
        return self.segments_pruned_time + self.segments_pruned_index

    @property
    def any_activity(self) -> bool:
        return bool(self.queries or self.index_builds or self.index_loads)


class QueryStats:
    """The query engine's children, bound into a registry: one
    attribute per :class:`QueryStatsSnapshot` field (e.g.
    ``stats.cache_hits.inc()``)."""

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        vars(self).update(bind(self.registry, QUERY_METRICS))

    def snapshot(self) -> QueryStatsSnapshot:
        return read(QueryStatsSnapshot, self.registry, QUERY_METRICS)[0]


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
