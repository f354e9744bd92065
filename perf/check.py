"""The correctness oracle every benchmark run applies to its outputs.

Each function returns a list of human-readable errors (empty = the
output is correct).  References are computed here from the in-memory
input stream, never through the code under test.
"""

from __future__ import annotations

import hashlib
import json
import os
from bisect import bisect_left
from typing import Dict, List, Sequence

from common import is_segment
from serving import Query, Response

#: Journals that, with the segments, must be byte-identical across the
#: repeats of one invocation.
JOURNALS = ("gill.jsonl", "events.jsonl")


def check_collect(stream: Sequence, archive, metrics, accounted: bool,
                  gill: bool) -> List[str]:
    """One collect repeat against its sorted input ``stream``.

    ``archive`` is the run's ``RollingArchiveWriter``, ``metrics`` its
    ``PipelineMetricsSnapshot``.
    """
    errors: List[str] = []
    offered = len(stream)
    if metrics.received != offered:
        errors.append(f"received {metrics.received} != offered {offered}")
    if metrics.ingest_dropped:
        errors.append(f"{metrics.ingest_dropped} ingest drops")
    if metrics.written != offered:
        errors.append(f"written {metrics.written} != offered {offered}")
    if not accounted:
        errors.append("loss accounting identity does not hold")
    stored = archive.read_range(0.0, float("inf"))
    if gill:
        if metrics.gill_kept + metrics.gill_dropped != offered:
            errors.append(
                f"gill kept {metrics.gill_kept} + dropped "
                f"{metrics.gill_dropped} != offered {offered}")
        if len(stored) != metrics.gill_kept:
            errors.append(f"archive holds {len(stored)} updates, "
                          f"gill kept {metrics.gill_kept}")
        remaining = iter(stream)
        if not all(any(update == candidate for candidate in remaining)
                   for update in stored):
            errors.append("archive is not a subsequence of the input")
    elif stored != list(stream):
        if len(stored) != offered:
            errors.append(f"archive holds {len(stored)} updates, "
                          f"offered {offered}")
        else:
            first = next(i for i, (a, b) in enumerate(zip(stored, stream))
                         if a != b)
            errors.append(f"archive differs from input at update {first}")
    return errors


def output_digests(directory: str) -> Dict[str, str]:
    """SHA-256 of every segment and journal a collect run wrote."""
    digests = {}
    for name in sorted(os.listdir(directory)):
        if is_segment(name) or name in JOURNALS:
            with open(os.path.join(directory, name), "rb") as handle:
                digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def check_repeat(first: Dict[str, str], other: Dict[str, str],
                 repeat: int) -> List[str]:
    """Segments and journals byte-identical to the first repeat's."""
    if first == other:
        return []
    differing = sorted(name for name in set(first) | set(other)
                       if first.get(name) != other.get(name))
    return [f"repeat {repeat} differs from repeat 0 in {differing[:3]}"]


def _update_json(update) -> dict:
    """The documented ``/updates`` element for one update
    (docs/QUERY.md), rebuilt here rather than imported."""
    return {
        "vp": update.vp,
        "time": update.time,
        "prefix": str(update.prefix),
        "as_path": list(update.as_path),
        "communities": sorted(list(c) for c in update.communities),
        "withdrawal": update.is_withdrawal,
    }


class ServeOracle:
    """Expected ``/updates`` answers from the in-memory stream.

    The naive reference is ``[u for u in stream if spec.matches(u)]``;
    thousands of requests over 50k updates make that too slow to run
    per response, so the oracle keeps two independent structures that
    give the same answer: the stream grouped by prefix, and its
    (sorted) times for bisection.
    """

    def __init__(self, stream: Sequence):
        self._stream = list(stream)
        self._times = [u.time for u in self._stream]
        self._by_prefix: Dict[object, list] = {}
        for update in self._stream:
            self._by_prefix.setdefault(update.prefix, []).append(update)

    def expected(self, query: Query) -> list:
        if query.prefix is not None:
            return self._by_prefix.get(query.prefix, [])
        low = bisect_left(self._times, query.start)
        high = bisect_left(self._times, query.end)
        return self._stream[low:high]

    def check(self, response: Response) -> List[str]:
        """Status 200, ``count`` right on every response; the whole
        body compared on the sampled ones."""
        if response.status != 200:
            return [f"{response.query.path}: status {response.status}"]
        expected = self.expected(response.query)
        if response.sampled:
            try:
                payload = json.loads(response.body)
            except ValueError:
                return [f"{response.query.path}: body is not JSON"]
            if payload.get("count") != len(expected):
                return [f"{response.query.path}: count "
                        f"{payload.get('count')} != {len(expected)}"]
            if payload.get("updates") != [_update_json(u)
                                          for u in expected]:
                return [f"{response.query.path}: body differs from "
                        f"the reference"]
            return []
        # Unsampled: only the head was kept; it carries the count.
        try:
            count = int(response.body.split(b'"count": ', 1)[1]
                        .split(b",", 1)[0])
        except (IndexError, ValueError):
            return [f"{response.query.path}: no count in the response"]
        if count != len(expected):
            return [f"{response.query.path}: count {count} != "
                    f"{len(expected)}"]
        return []
