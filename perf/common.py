"""Shared plumbing of the perf benchmark: paths, statistics, spans.

Importing this module puts the checkout's ``src/`` on ``sys.path`` so
every other ``perf`` module can import ``repro`` no matter how the
benchmark was launched (the driver sets no ``PYTHONPATH``).
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from statistics import median
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
SRC = os.path.join(ROOT, "src")
#: Scratch space and trace files; ignored by git, inside the checkout.
RESULTS_DIR = os.path.join(PERF_DIR, "results")

if SRC not in sys.path:
    sys.path.insert(0, SRC)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def dir_bytes(directory: str, keep) -> int:
    """Total size of the files in ``directory`` whose name ``keep``
    accepts (non-recursive: archives are flat)."""
    return sum(os.path.getsize(os.path.join(directory, name))
               for name in os.listdir(directory) if keep(name))


def is_segment(name: str) -> bool:
    """An ``updates.*`` MRT segment (not its ``.idx`` sidecar)."""
    return name.startswith("updates.") and not name.endswith(".idx")


class Spans:
    """In-memory span log: ``{id, name, start, end, parent}`` records.

    Spans are recorded from the benchmark's own files, around its
    calls into each layer; nothing inside ``src/`` is instrumented.
    ``next()`` on the id counter and list appends are atomic under the
    GIL, so client threads may share one instance.  A disabled
    instance records nothing (the untraced pass).
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.records: List[Dict[str, object]] = []
        self._ids = itertools.count(1)

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None) -> Optional[int]:
        if not self.enabled:
            return None
        span_id = next(self._ids)
        self.records.append({"id": span_id, "name": name, "start": start,
                             "end": end, "parent": parent})
        return span_id

    @contextmanager
    def span(self, name: str,
             parent: Optional[int] = None) -> Iterator[Optional[int]]:
        """Time a block; yields the id children should name as parent."""
        if not self.enabled:
            yield None
            return
        span_id = next(self._ids)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            self.records.append({"id": span_id, "name": name,
                                 "start": start,
                                 "end": time.perf_counter(),
                                 "parent": parent})

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.records, handle)


def run_in_group(command: List[str], timeout_s: float,
                 capture: bool = False) -> Tuple[Optional[int], bytes]:
    """Run ``command`` in its own process group under a hard kill.

    Returns ``(exit code, stdout)``; the exit code is None when the
    timeout struck.  Whatever happened, every process of the group —
    a server, worker processes — is dead when this returns.
    """
    process = subprocess.Popen(
        command, start_new_session=True,
        stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
        stderr=None if capture else subprocess.DEVNULL)
    try:
        output, _ = process.communicate(timeout=timeout_s)
        return process.returncode, output or b""
    except subprocess.TimeoutExpired:
        return None, b""
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()


# -- the one scenario and collection configuration every run uses -------------

#: Generator seed of every synthetic stream: VP regions, chattiness,
#: prefix groups, core chains and the events drawn on them.  Frozen,
#: like the sizes: the driver accepts a metric only if its spread over
#: ten ``--seed`` values stays inside its bound, and across generator
#: seeds ``collect_filtered`` throughput moves 3x and archive bytes per
#: update 30% (README, "Seeds").  ``--seed`` moves the stream in time
#: and draws the requests.
SCENARIO_SEED = 1

#: Segment (and gill slot) length, RIS-style 5-minute files.
INTERVAL_S = 300.0


def archive_writer(directory: str, index: bool = True,
                   checkpoint: bool = True):
    from repro.bgp.archive import RollingArchiveWriter

    return RollingArchiveWriter(directory, interval_s=INTERVAL_S,
                                compress=True, checkpoint=checkpoint,
                                index=index)


def collection_pipeline(archive, gill: bool):
    """Threads backend, 2 shards, lossless backpressure, no cost model.

    ``degrade_after_s=None`` matters: the default 0.5 s block→drop
    degradation silently drops updates at seal stalls under flood,
    which makes loss and archive bytes nondeterministic (README,
    finding 1).
    """
    from repro.gill import GillConfig
    from repro.pipeline import CollectionPipeline, PipelineConfig, \
        SupervisorConfig

    return CollectionPipeline(
        PipelineConfig(n_shards=2, overflow_policy="block",
                       supervision=SupervisorConfig(degrade_after_s=None),
                       gill=GillConfig() if gill else None),
        archive=archive)
