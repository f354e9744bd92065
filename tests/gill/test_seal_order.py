"""Crash/resume through the filter's seal-before-sync order.

At a live slot boundary the writer seals segment *k* (file, index,
event pass) before the filter waits for the worker's slot-*k* scores,
and publishes segment *k*'s manifest entry only after the slot-*k*
record is in ``gill.jsonl`` (docs/GILL.md, "Where the work runs").
Each test here crashes the writer at one point that order creates and
resumes from the recovered archive: every file must come out
byte-identical to an uninterrupted ``--gill --events`` run.
"""

import json
import os

import pytest

from repro.bgp.archive import RollingArchiveWriter, read_manifest
from repro.events import EventPipeline, EventStore, journal_path_for
from repro.gill import GillConfig
from repro.guard.integrity import seal_record
from repro.pipeline import CollectionPipeline, InjectedCrash, \
    PipelineConfig
from repro.workload import StreamConfig, SyntheticStreamGenerator, \
    split_by_vp

TIMEOUT = 60.0
INTERVAL_S = 120.0


@pytest.fixture(scope="module")
def stream():
    generator = SyntheticStreamGenerator(StreamConfig(
        n_vps=10, n_prefix_groups=8, duration_s=1200.0, seed=13))
    _, updates = generator.generate()
    return updates


class CrashingArchive(RollingArchiveWriter):
    """Raises right before (``journaled``), half-way through
    (``torn-line``: half of the segment's manifest line is on disk) or
    right after (``published``) publishing the ``at``-th early seal."""

    def __init__(self, directory, point=None, at=None):
        super().__init__(str(directory), interval_s=INTERVAL_S,
                         compress=False, checkpoint=True, index=True)
        self.point = point
        self.at = at
        self.seals = 0

    def seal(self):
        segment = super().seal()
        self.seals += segment is not None
        return segment

    def publish(self):
        due = bool(self._held) and self.seals == self.at
        if due and self.point == "journaled":
            raise InjectedCrash(f"crash before publishing seal {self.at}")
        if due and self.point == "torn-line":
            segment = self._held[0]
            line = json.dumps(seal_record({
                "start": segment.start, "count": segment.count,
                "file": os.path.basename(segment.path),
                "size": segment.size, "crc32": segment.crc32,
                "sha256": segment.sha256, "watermark": segment.end}),
                sort_keys=True)
            with open(self.checkpoint_path, "a") as handle:
                handle.write(line[:len(line) // 2])
            raise InjectedCrash(f"crash while publishing seal {self.at}")
        super().publish()
        if due and self.point == "published":
            raise InjectedCrash(f"crash after publishing seal {self.at}")


def crash_on_seal(at):
    """A seal listener raising at the ``at``-th sealed segment."""
    count = [0]

    def listener(segment, build_s):
        count[0] += 1
        if count[0] == at:
            raise InjectedCrash(f"crash at seal {at}")
    return listener


def collect(stream, archive, listen_first=None, listen_last=None):
    """One ``--gill --events`` epoch; the optional listeners go before
    and after the event pass on the seal hook."""
    if listen_first is not None:
        archive.add_seal_listener(listen_first)
    pipeline = CollectionPipeline(
        PipelineConfig(n_shards=2, overflow_policy="block",
                       gill=GillConfig(definition=1)),
        archive=archive)
    store = EventStore(journal_path_for(archive.directory))
    EventPipeline(store=store,
                  registry=pipeline.metrics.registry).attach(archive)
    if listen_last is not None:
        archive.add_seal_listener(listen_last)
    result = pipeline.run(split_by_vp(stream), timeout=TIMEOUT)
    assert result.accounted
    return pipeline


def files(directory):
    """Every file the run left, by name (crash diagnostics aside)."""
    out = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if os.path.isfile(path) and not name.startswith("flightrecorder"):
            with open(path, "rb") as handle:
                out[name] = handle.read()
    return out


@pytest.fixture(scope="module")
def uninterrupted(stream, tmp_path_factory):
    directory = tmp_path_factory.mktemp("uninterrupted")
    collect(stream, CrashingArchive(directory))
    want = files(directory)
    assert "gill.jsonl" in want and "events.jsonl" in want
    assert sum(name.endswith(".idx") for name in want) >= 8
    return want


def resume(stream, directory):
    archive = CrashingArchive(directory)
    report = archive.recover()
    assert report.watermark is not None
    tail = [u for u in stream if u.time >= report.watermark]
    collect(tail, archive)
    return report


@pytest.mark.parametrize("at", [2, 5])
@pytest.mark.parametrize("point", ["segment-file", "event-pass",
                                   "journaled", "torn-line", "published"])
def test_crash_resumes_byte_identical(stream, uninterrupted, tmp_path,
                                      point, at):
    """Crash with segment *k* sealed early, at:

    * ``segment-file`` — its file and index are on disk, the event pass
      has not run;
    * ``event-pass`` — the event pass has run, the writer has not
      synced with the worker;
    * ``journaled`` — the slot-*k* record is in ``gill.jsonl``, the
      manifest does not list segment *k*;
    * ``torn-line`` — as ``journaled``, with half of segment *k*'s
      manifest line written, which publishes nothing;
    * ``published`` — the manifest lists it (the record must already
      be durable: a segment whose record is lost would be re-journaled
      on resume with none of the slot's drops).
    """
    if point in ("journaled", "torn-line", "published"):
        archive = CrashingArchive(tmp_path, point, at)
        listeners = {}
    else:
        archive = CrashingArchive(tmp_path)
        key = "listen_first" if point == "segment-file" else "listen_last"
        listeners = {key: crash_on_seal(at)}
    with pytest.raises(InjectedCrash):
        collect(stream, archive, **listeners)
    manifest = read_manifest(str(tmp_path))
    listed = {os.path.basename(s.path) for s in manifest.segments}
    watermark = manifest.segments[-1].end
    torn = [name for name in os.listdir(tmp_path)
            if name.endswith(".mrt") and name not in listed]
    records = [json.loads(line) for line in open(tmp_path / "gill.jsonl")]
    if point == "published":
        assert not torn and len(listed) == at
        assert records[-1]["watermark"] == watermark
    else:
        # Segment k is on disk with its index, out of the manifest ...
        assert len(torn) == 1
        assert os.path.exists(tmp_path / (torn[0] + ".idx"))
        assert len(listed) == at - 1
        # ... and its record is journaled once the worker synced.
        synced = point in ("journaled", "torn-line")
        assert records[-1]["watermark"] == watermark + synced * INTERVAL_S
        assert manifest.journal.torn == (point == "torn-line")
    report = resume(stream, tmp_path)
    assert report.torn_removed == tuple(torn)
    assert files(tmp_path) == uninterrupted
