"""Deterministic seal-boundary merge of partitioned partial archives.

The multi-node deployment (:mod:`repro.cluster.partition`) leaves one
checkpointed partial archive per collector; this module folds them
into the canonical combined archive.  The merge happens at the seal
boundary — every partial is closed and durable before any combined
byte is written — so it is a pure function of the partial contents.

Ordering is the same rule the single-process writer applies to its
reorder heap: updates sort by ``(time,) + canonical_key(update)``.
Each partial archive is already emitted in that order (partitions hold
disjoint VPs and the writer sorts equal-time runs canonically), so a
k-way streaming merge over the partition iterators reproduces the
single-process byte stream exactly — segments, checkpoint manifest and
guard digests included.

Analysis layers that need the *global* view run here rather than per
partition: an optional :class:`~repro.gill.GillStage` (VP universe =
union of the partition manifests) and an optional
:class:`~repro.events.EventPipeline` attach to the merged writer, so
``gill.jsonl`` and ``events.jsonl`` come out identical to a
single-process collection over the same streams.
"""

from __future__ import annotations

import heapq
import time as time_mod
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from ..bgp.archive import ArchiveSegment, RollingArchiveWriter, \
    read_manifest
from ..bgp.message import BGPUpdate, canonical_key
from ..bgp.mrt import iter_archive
from .partition import PartitionError, PartitionManifest, \
    discover_partitions

#: Update the merge-lag gauge every this many merged updates.
_LAG_SAMPLE_EVERY = 256


@dataclass(frozen=True)
class MergeReport:
    """What one :func:`merge_archives` call produced."""

    directory: str
    partitions: int
    #: Partitions that contributed zero updates (empty VP set or an
    #: epoch with nothing retained) — merged as no-ops.
    empty_partitions: int
    updates: int
    segments: Tuple[ArchiveSegment, ...]
    #: Largest stream-time skew observed between partition heads while
    #: merging; a straggler partition shows up here.
    max_lag_s: float
    duration_s: float


def _partition_updates(directory: str, manifest: PartitionManifest
                       ) -> Iterator[BGPUpdate]:
    """Stream one partial archive's updates in its written order."""
    checkpoint = read_manifest(directory)
    for segment in checkpoint[0] if checkpoint is not None else ():
        for record in iter_archive(segment.path, manifest.compress):
            if isinstance(record, BGPUpdate):
                yield record


def merge_archives(source: object,
                   out_directory: str,
                   gill=None,
                   events=None,
                   compress: Optional[bool] = None,
                   registry=None) -> MergeReport:
    """Merge partial archives into one canonical combined archive.

    ``source`` is either the parent directory produced by
    :func:`~repro.cluster.partition.collect_partitioned` (its
    ``part-<i>`` children are discovered) or an explicit sequence of
    partial archive directories.  Each must carry a ``PARTITION.json``
    manifest; interval and compression must agree across partitions.

    ``gill`` (a :class:`~repro.gill.GillConfig`) runs the online
    redundancy filter over the merged stream; ``events`` (an
    :class:`~repro.events.EventPipeline`) is attached to the merged
    writer before the first byte so every sealed segment feeds event
    analysis.  ``compress`` overrides the output compression (default:
    same as the partials).  ``registry`` receives
    ``repro_cluster_merge_*`` telemetry when given.
    """
    if isinstance(source, str):
        part_dirs: Sequence[str] = discover_partitions(source)
        if not part_dirs:
            raise PartitionError(f"{source} holds no part-* directories")
    else:
        part_dirs = list(source)
        if not part_dirs:
            raise PartitionError("no partition directories given")

    manifests = [PartitionManifest.load(path) for path in part_dirs]
    interval_s = manifests[0].interval_s
    in_compress = manifests[0].compress
    for manifest, path in zip(manifests, part_dirs):
        if manifest.interval_s != interval_s:
            raise PartitionError(
                f"{path} has interval {manifest.interval_s}, expected "
                f"{interval_s}: partitions of one epoch must agree")
        if manifest.compress != in_compress:
            raise PartitionError(
                f"{path} compression disagrees with the first partition")
    out_compress = in_compress if compress is None else compress

    lag_gauge = None
    if registry is not None:
        lag_gauge = registry.gauge(
            "repro_cluster_merge_lag_seconds",
            "Stream-time skew between partition heads during a merge.",
            unit="seconds").labels()
        registry.gauge(
            "repro_cluster_merge_partitions",
            "Partial archives feeding the current merge."
        ).labels().set(len(part_dirs))

    writer = RollingArchiveWriter(out_directory,
                                  interval_s=interval_s,
                                  compress=out_compress,
                                  checkpoint=True)
    gill_stage = None
    if gill is not None:
        from ..gill import GillStage

        vp_universe = sorted(
            {vp for manifest in manifests for vp in manifest.vps})
        gill_stage = GillStage(gill, vps=vp_universe, registry=registry)
        gill_stage.attach(writer)
    if events is not None:
        events.attach(writer)

    started = time_mod.perf_counter()
    # K-way merge with explicit head tracking: heapq.merge would hide
    # the per-partition heads, and the head skew *is* the merge-lag
    # telemetry (a straggler partition holds the merge at its pace).
    iterators = [_partition_updates(path, manifest)
                 for path, manifest in zip(part_dirs, manifests)]
    heads: List[Tuple[Tuple, int, BGPUpdate]] = []
    active = 0
    for index, iterator in enumerate(iterators):
        first = next(iterator, None)
        if first is None:
            continue
        active += 1
        heapq.heappush(
            heads, ((first.time,) + canonical_key(first), index, first))

    def head_lag() -> float:
        if len(heads) < 2:
            return 0.0
        times = [entry[2].time for entry in heads]
        return max(times) - min(times)

    merged = 0
    max_lag = 0.0
    segments_flushed = 0
    while heads:
        # Head skew is read before each pop (the heap holds at most
        # one entry per partition, so this is O(partitions)); only the
        # gauge write is rate-limited.
        lag = head_lag()
        if lag > max_lag:
            max_lag = lag
        _key, index, update = heapq.heappop(heads)
        if gill_stage is not None:
            for ready in gill_stage.offer(update):
                if writer.write(ready) is not None:
                    segments_flushed += 1
        else:
            if writer.write(update) is not None:
                segments_flushed += 1
        merged += 1
        following = next(iterators[index], None)
        if following is not None:
            heapq.heappush(
                heads,
                ((following.time,) + canonical_key(following),
                 index, following))
        if lag_gauge is not None and (
                merged % _LAG_SAMPLE_EVERY == 0 or following is None):
            lag_gauge.set(head_lag())

    if gill_stage is not None:
        for ready in gill_stage.flush():
            if writer.write(ready) is not None:
                segments_flushed += 1
    writer.close()
    duration = time_mod.perf_counter() - started
    if lag_gauge is not None:
        lag_gauge.set(0.0)
    return MergeReport(
        directory=out_directory,
        partitions=len(part_dirs),
        empty_partitions=len(part_dirs) - active,
        updates=merged,
        segments=tuple(writer.segments),
        max_lag_s=max_lag,
        duration_s=duration,
    )
