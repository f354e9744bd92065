"""Multi-process collection cluster.

``repro.cluster`` scales the collection pipeline past the GIL:

* :mod:`~repro.cluster.wire` — compact batched binary framing for
  cross-process handoff (no per-update pickling);
* :mod:`~repro.cluster.backend` — the ``processes`` worker backend:
  per-shard worker processes with supervised respawn and exactly-once
  frame redelivery, feeding the coordinator's watermark-ordered writer;
* :mod:`~repro.cluster.partition` — multi-collector mode: N processes
  each collecting a VP partition into its own partial archive;
* :mod:`~repro.cluster.merge` — deterministic seal-boundary merge of
  partial archives into a stream byte-identical to a single-process
  run.
"""

from .wire import (EndOfInput, END_OF_INPUT, WireError, decode_frame,
                   decode_record, encode_frame, encode_record)

__all__ = [
    "EndOfInput",
    "END_OF_INPUT",
    "WireError",
    "decode_frame",
    "decode_record",
    "encode_frame",
    "encode_record",
    "ProcessWorkerPool",
    "MergeReport",
    "PartitionError",
    "PartitionManifest",
    "PartitionReport",
    "collect_partitioned",
    "discover_partitions",
    "merge_archives",
    "partition_vps",
]

_PARTITION_NAMES = ("PartitionError", "PartitionManifest",
                    "PartitionReport", "collect_partitioned",
                    "discover_partitions", "partition_vps")


def __getattr__(name: str):
    # Lazy: the backend/partition/merge modules import multiprocessing
    # machinery the wire-only users never need.
    if name == "ProcessWorkerPool":
        from .backend import ProcessWorkerPool
        return ProcessWorkerPool
    if name in _PARTITION_NAMES:
        from . import partition
        return getattr(partition, name)
    if name in ("merge_archives", "MergeReport"):
        from . import merge
        return getattr(merge, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
