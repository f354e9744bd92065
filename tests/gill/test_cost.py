"""What the filter stage costs and keeps: pinned bytes, a work count and
bounds on retained state.

None of these is a timer.  The golden digests were captured from the
commit before ``RIBGraph`` memoised anything (3c19308), so a memo that
changes one float in one score shows up as a different ``gill.jsonl``.
"""

import bisect
import hashlib
import os

import pytest

from repro.bgp.archive import RollingArchiveWriter
from repro.core.features import RIBGraph
from repro.gill import GillConfig, GillStage, IncrementalCorrelationGroups
from repro.gill.incremental import IncrementalGroupCount
from repro.workload import SyntheticStreamGenerator, overshoot_config

N_VPS = 24
INTERVAL_S = 300.0

#: SHA-256 of every file the D=1800 run leaves, parent commit 3c19308.
GOLDEN_1800 = {
    "gill.jsonl":
        "70b26fc5915776b3e2220537d0b45477a71eec710eb417c520a653c4a694f0d6",
    "updates.000000000900-000000001200.mrt":
        "69735cfe347a76277855d3e9cd92231b7f2b6ddd2b397f76bf79199404b09906",
    "updates.000000001200-000000001500.mrt":
        "49517a3bd9bdb517a5efa2eef4ce7249a784c5d58a56d4d849ad5bbfd48e5411",
    "updates.000000001500-000000001800.mrt":
        "4db90381d0b1780b102f05509981ab71a2882aff0077ff3bc10f231382106367",
    "updates.000000001800-000000002100.mrt":
        "5b78dea1d386add6fdeb6e56f8981da42327161b854f98acbc16f0d85ef0a32f",
    "updates.000000002100-000000002400.mrt":
        "c09750a15af337387d8aa859bce7b54a1c8dc8b47d875fe144713a941ac1f01a",
    "updates.000000002400-000000002700.mrt":
        "1b938fabdd78a5808c801ccd2afb7f092a0ec7800cc9e1f2a1f547e6edbe98cd",
    "updates.000000002700-000000003000.mrt":
        "d698d0318083877fa16bb6a5771398095fb0533f1f834359be5ff95e63dcb6a8",
}


def overshoot_stream(duration_s):
    generator = SyntheticStreamGenerator(
        overshoot_config(1, n_vps=N_VPS, duration_s=duration_s))
    _, stream = generator.generate()
    stream.sort(key=lambda u: (u.time, u.vp, u.prefix))
    return sorted(generator.vps), stream


def test_golden_digests(tmp_path):
    """``gill.jsonl`` and every segment, byte for byte."""
    vps, stream = overshoot_stream(1800.0)
    archive = RollingArchiveWriter(str(tmp_path), interval_s=INTERVAL_S,
                                   compress=False)
    stage = GillStage(GillConfig(), vps)
    stage.attach(archive)
    for update in stream:
        for kept in stage.offer(update):
            archive.write(kept)
    for kept in stage.flush():
        archive.write(kept)
    archive.close()
    digests = {}
    for name in sorted(os.listdir(tmp_path)):
        with open(tmp_path / name, "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()
    assert digests == GOLDEN_1800


#: Stream seconds whose updates bound the stage's windowed state: twice
#: the longest window it keeps (event clusters, one archive slot).
RECENT_S = 600.0


def windowed_sizes(stage):
    """Every structure that should follow the stream's recent past
    rather than its length."""
    scorer, groups = stage._scorer, stage._correlation
    return {
        "witness_windows": sum(map(len, stage._windows.values())),
        "scorer_pending": len(scorer._pending),
        "open_clusters": len(scorer._clusters),
        "awaiting_end": len(scorer._awaiting_end),
        "open_group_windows": sum(map(len, groups._open.values())),
        "retained_events": len(scorer.events),
        "retained_groups": groups.groups.total_groups(),
    }


@pytest.fixture(scope="module")
def ninety_minutes():
    """One D=5400 run through the stage: ``distances_from`` calls, kept
    updates, and — up to minute 30 and from there to minute 90 — the
    largest each windowed structure got, as a share of the updates
    offered in the ``RECENT_S`` before it was sampled."""
    vps, stream = overshoot_stream(5400.0)
    times = [update.time for update in stream]
    stage = GillStage(GillConfig(), vps, interval_s=INTERVAL_S)
    calls = [0]
    original = RIBGraph.distances_from

    def counted(graph, source):
        calls[0] += 1
        return original(graph, source)

    shares = {"first": {}, "rest": {}}
    offered = {"first": 0, "rest": 0}
    kept = 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RIBGraph, "distances_from", counted)
        for index, update in enumerate(stream):
            kept += len(stage.offer(update))
            elapsed = update.time - times[0]
            phase = "first" if elapsed < 1800.0 else "rest"
            offered[phase] += 1
            if index % 25 or elapsed < RECENT_S:
                continue
            recent = index + 1 - bisect.bisect_left(
                times, update.time - RECENT_S)
            worst = shares[phase]
            for name, size in windowed_sizes(stage).items():
                worst[name] = max(worst.get(name, 0.0), size / recent)
        kept += len(stage.flush())
    return {"calls": calls[0], "kept": kept, "offered": offered,
            "shares": shares, "stage": stage}


def test_dijkstras_per_kept_update(ninety_minutes):
    """The work-count gate: 11.0 before the node-feature memo (every
    snapshot ran two per VP), 3.13 with it."""
    per_kept = ninety_minutes["calls"] / ninety_minutes["kept"]
    assert per_kept <= 3.5, per_kept


def test_state_follows_the_recent_stream_not_its_length(ninety_minutes):
    offered = ninety_minutes["offered"]
    assert offered["rest"] > 1.8 * offered["first"]
    for phase, shares in ninety_minutes["shares"].items():
        # Measured: witness windows 0.69, open group windows 0.64,
        # pending 0.34, open clusters 0.25, awaiting end 0.15.
        for name in ("witness_windows", "scorer_pending", "open_clusters",
                     "awaiting_end", "open_group_windows"):
            assert 0.0 < shares[name] <= 1.0, (phase, name, shares)
        # Finalized events live until the next slot flush; sealed
        # correlation groups are counted, not kept.
        assert shares["retained_events"] <= 0.05, (phase, shares)
        assert shares["retained_groups"] == 0
    stage = ninety_minutes["stage"]
    assert stage._scorer.n_events > 1000
    assert stage._scorer.events == []
    # One queue entry per cluster without an end snapshot, never more.
    assert len(stage._scorer._awaiting_end) <= len(stage._scorer._clusters)


@pytest.mark.parametrize("duration_s", [900.0, 1800.0])
def test_group_count_is_exact(duration_s):
    """Counting distinct member sets equals building the groups, at
    every point of the stream (open windows included)."""
    _, stream = overshoot_stream(duration_s)
    full, count = IncrementalCorrelationGroups(), IncrementalGroupCount()
    for index, update in enumerate(stream):
        full.add(update)
        count.add(update)
        if index % 97 == 0:
            assert count.total_groups() == full.total_groups()
    assert count.total_groups() == full.total_groups()
    full.close()
    count.close()
    assert count.total_groups() == full.total_groups() > 0
