"""Multi-node collection: N collector processes over a VP partition.

The paper's next-generation platform scales out by giving each
collector node a disjoint set of vantage points (§6): every node runs
the full collection pipeline over *its* peers only and publishes a
partial archive.  This module reproduces that topology on one host —
:func:`collect_partitioned` forks one collector process per partition,
each writing a checkpointed ``part-<i>`` archive plus a
``PARTITION.json`` manifest, and :func:`merge_archives
<repro.cluster.merge.merge_archives>` later folds the partials into the
canonical archive at the seal boundary.

Partitioning is deterministic: VPs are sorted and dealt round-robin
(:func:`partition_vps`), so the same VP universe always maps to the
same nodes.  Partial archives are written *without* the gill filter or
event analysis — both need the global cross-VP view and therefore run
once, at merge time, over the combined stream.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..bgp.archive import RollingArchiveWriter
from ..bgp.message import BGPUpdate

#: Manifest file of one partition's partial archive directory.
PARTITION_MANIFEST = "PARTITION.json"

#: Partial archive directories are named ``part-<index>``.
PART_PREFIX = "part-"

#: Per-partition result file, written by the collector process on a
#: clean exit so the parent can account without an IPC channel.
RESULT_NAME = "RESULT.json"


class PartitionError(RuntimeError):
    """A collector process failed or its partial archive is unusable."""


def partition_vps(vps: Iterable[str], n_partitions: int
                  ) -> List[List[str]]:
    """Deal the sorted VP universe round-robin into ``n`` partitions.

    Sorting first makes the assignment a pure function of the VP set:
    re-running a deployment with the same peers lands every VP on the
    same node, which is what lets a partition resume from its own
    checkpoint.  Partitions may be empty when ``n`` exceeds the VP
    count — the merge treats an empty partial archive as a no-op.
    """
    if n_partitions < 1:
        raise ValueError("need at least one partition")
    ordered = sorted(vps)
    return [ordered[index::n_partitions] for index in range(n_partitions)]


def part_directory(directory: str, index: int) -> str:
    return os.path.join(directory, f"{PART_PREFIX}{index}")


@dataclass(frozen=True)
class PartitionManifest:
    """What one partial archive covers (persisted as PARTITION.json)."""

    index: int
    n_partitions: int
    vps: Tuple[str, ...]
    interval_s: float
    compress: bool

    def write(self, directory: str) -> str:
        path = os.path.join(directory, PARTITION_MANIFEST)
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump({
                "partition": self.index,
                "n_partitions": self.n_partitions,
                "vps": list(self.vps),
                "interval_s": self.interval_s,
                "compress": self.compress,
            }, handle, indent=1)
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, directory: str) -> "PartitionManifest":
        path = os.path.join(directory, PARTITION_MANIFEST)
        try:
            with open(path) as handle:
                state = json.load(handle)
        except OSError as exc:
            raise PartitionError(
                f"{directory} has no readable {PARTITION_MANIFEST}: "
                f"{exc}") from exc
        return cls(index=int(state["partition"]),
                   n_partitions=int(state["n_partitions"]),
                   vps=tuple(state["vps"]),
                   interval_s=float(state["interval_s"]),
                   compress=bool(state["compress"]))


@dataclass(frozen=True)
class PartitionResult:
    """One collector process's outcome."""

    index: int
    directory: str
    vps: Tuple[str, ...]
    received: int
    retained: int
    written: int
    segments: int
    accounted: bool


@dataclass(frozen=True)
class PartitionReport:
    """What :func:`collect_partitioned` produced."""

    directory: str
    results: Tuple[PartitionResult, ...]

    @property
    def written(self) -> int:
        return sum(result.written for result in self.results)

    @property
    def accounted(self) -> bool:
        return all(result.accounted for result in self.results)

    @property
    def part_directories(self) -> Tuple[str, ...]:
        return tuple(result.directory for result in self.results)


def _collector_main(manifest: PartitionManifest, directory: str,
                    streams: Mapping[str, Iterable[BGPUpdate]],
                    config, filters, validator, timeout: Optional[float]
                    ) -> None:
    """Run one partition's collection pipeline (child process body).

    The partial archive is always checkpointed: the merge reads the
    durable segment manifest, and a crashed partition resumes from its
    own watermark like any single-node epoch.
    """
    from ..pipeline.runtime import CollectionPipeline

    archive = RollingArchiveWriter(directory,
                                   interval_s=manifest.interval_s,
                                   compress=manifest.compress,
                                   checkpoint=True)
    pipeline = CollectionPipeline(config, filters=filters,
                                  validator=validator, archive=archive)
    result = pipeline.run(streams, timeout=timeout)
    with open(os.path.join(directory, RESULT_NAME), "w") as handle:
        json.dump({
            "received": result.metrics.received,
            "retained": result.metrics.retained,
            "written": result.metrics.written,
            "segments": len(result.segments),
            "accounted": result.accounted,
        }, handle, indent=1)
    if not result.accounted:
        raise SystemExit(3)


def collect_partitioned(streams: Mapping[str, Iterable[BGPUpdate]],
                        directory: str,
                        n_partitions: int,
                        interval_s: float = 300.0,
                        compress: bool = False,
                        config=None,
                        filters=None,
                        validator=None,
                        timeout: Optional[float] = None
                        ) -> PartitionReport:
    """Collect one epoch across ``n_partitions`` collector processes.

    Each partition owns a disjoint VP subset (round-robin over the
    sorted universe) and runs the standard pipeline over only those
    session streams, writing a checkpointed partial archive under
    ``<directory>/part-<i>`` with a ``PARTITION.json`` manifest.  The
    partials carry every retained update of their VPs in the writer's
    canonical order; :func:`~repro.cluster.merge.merge_archives` then
    produces the combined archive.

    ``config`` seeds each partition's :class:`PipelineConfig` (shards,
    overflow policy, cost model …).  Gill filtering and fault plans are
    rejected here: the gill needs the cross-VP view (it runs at merge
    time) and chaos targets one pipeline's shards, not a node set.
    """
    from ..pipeline.runtime import PipelineConfig

    if config is None:
        config = PipelineConfig()
    if config.gill is not None:
        raise ValueError(
            "gill filtering runs at merge time, not per partition "
            "(a partition only sees its own VPs)")
    if config.fault_plan:
        raise ValueError("fault plans target a single pipeline's "
                         "shards; partitions run clean")

    parts = partition_vps(streams, n_partitions)
    os.makedirs(directory, exist_ok=True)

    processes: List[Tuple[int, mp.Process, str, Tuple[str, ...]]] = []
    for index, vps in enumerate(parts):
        part_dir = part_directory(directory, index)
        os.makedirs(part_dir, exist_ok=True)
        manifest = PartitionManifest(index=index,
                                     n_partitions=n_partitions,
                                     vps=tuple(vps),
                                     interval_s=interval_s,
                                     compress=compress)
        manifest.write(part_dir)
        if not vps:
            # Empty partition: the manifest alone is the partial
            # archive (zero segments); nothing to run.
            continue
        subset: Dict[str, Iterable[BGPUpdate]] = {
            vp: streams[vp] for vp in vps}
        process = mp.Process(
            target=_collector_main,
            args=(manifest, part_dir, subset, config, filters,
                  validator, timeout),
            name=f"repro-collector-{index}",
        )
        process.start()
        processes.append((index, process, part_dir, tuple(vps)))

    failures: List[str] = []
    for index, process, part_dir, _vps in processes:
        process.join(timeout)
        if process.is_alive():
            process.terminate()
            process.join(5.0)
            failures.append(f"partition {index} timed out")
        elif process.exitcode != 0:
            failures.append(
                f"partition {index} exited with code {process.exitcode}")
    if failures:
        raise PartitionError("; ".join(failures))

    results: List[PartitionResult] = []
    running = {index: (part_dir, vps)
               for index, _p, part_dir, vps in processes}
    for index, vps in enumerate(parts):
        part_dir = part_directory(directory, index)
        if index not in running:
            results.append(PartitionResult(
                index=index, directory=part_dir, vps=tuple(vps),
                received=0, retained=0, written=0, segments=0,
                accounted=True))
            continue
        try:
            with open(os.path.join(part_dir, RESULT_NAME)) as handle:
                state = json.load(handle)
        except OSError as exc:
            raise PartitionError(
                f"partition {index} left no result file: {exc}") from exc
        results.append(PartitionResult(
            index=index, directory=part_dir, vps=tuple(vps),
            received=int(state["received"]),
            retained=int(state["retained"]),
            written=int(state["written"]),
            segments=int(state["segments"]),
            accounted=bool(state["accounted"])))
    return PartitionReport(directory=directory, results=tuple(results))


def discover_partitions(directory: str) -> List[str]:
    """Partial archive directories under ``directory``, index order."""
    found: List[Tuple[int, str]] = []
    for name in os.listdir(directory):
        if not name.startswith(PART_PREFIX):
            continue
        path = os.path.join(directory, name)
        if not os.path.isdir(path):
            continue
        try:
            index = int(name[len(PART_PREFIX):])
        except ValueError:
            continue
        found.append((index, path))
    return [path for _index, path in sorted(found)]
