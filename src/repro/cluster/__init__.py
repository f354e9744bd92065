"""Multi-collector collection: partition, then merge.

``repro.cluster`` scales collection past one process the way the
paper does (§8–§9) — more collectors, each peering with a subset of
the VPs — with no per-update IPC (docs/CLUSTER.md):

* :mod:`~repro.cluster.partition` — N collector processes, each
  collecting a VP partition into its own partial archive;
* :mod:`~repro.cluster.merge` — deterministic seal-boundary merge of
  partial archives into a stream byte-identical to a single-process
  run;
* :mod:`~repro.cluster.wire` — the batched binary framing of the
  removed ``processes`` shard backend, kept only while ``perf/``
  still times its codec.
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
    # Lazy: the partition/merge modules import multiprocessing
    # machinery the wire-only users never need.
    if name in _PARTITION_NAMES:
        from . import partition
        return getattr(partition, name)
    if name in ("merge_archives", "MergeReport"):
        from . import merge
        return getattr(merge, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
