"""Generated inputs against the writer's ordering contract.

Every session's stream is time-ordered; across sessions timestamps
collide.  Whatever the shard count and heartbeat interval, the mirror
must see the whole input in ``(time, canonical key, session)`` order,
and the archive must hold the bytes of the one-shard run.
"""

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.archive import RollingArchiveWriter
from repro.bgp.message import BGPUpdate, canonical_key
from repro.bgp.prefix import Prefix
from repro.pipeline import CollectionPipeline, PipelineConfig

PREFIXES = [Prefix.parse(f"10.0.{i}.0/24") for i in range(3)]

#: One update: (time, prefix index, path choice); 0 is a withdrawal.
_points = st.tuples(st.integers(0, 12), st.integers(0, 2),
                    st.integers(0, 2))


@st.composite
def session_streams(draw):
    """2-4 sessions over a short shared clock, so ties are common."""
    streams = {}
    for index in range(draw(st.integers(2, 4))):
        name = f"s{index}"
        points = sorted(draw(st.lists(_points, max_size=40)))
        streams[name] = [
            BGPUpdate(name, float(t), PREFIXES[p],
                      () if path == 0 else (65000 + index, path),
                      is_withdrawal=path == 0)
            for t, p, path in points]
    return streams


def collect(streams, n_shards, heartbeat_every):
    """Run one collection; return the mirrored stream and the archive
    directory's bytes."""
    mirrored = []
    with tempfile.TemporaryDirectory() as directory:
        archive = RollingArchiveWriter(directory, interval_s=4.0,
                                       compress=False)
        pipeline = CollectionPipeline(
            PipelineConfig(n_shards=n_shards, overflow_policy="block",
                           heartbeat_every=heartbeat_every),
            archive=archive,
            mirror=lambda u, retained: mirrored.append(u))
        result = pipeline.run(streams, timeout=30.0)
        assert result.accounted
        files = {name: open(os.path.join(directory, name), "rb").read()
                 for name in sorted(os.listdir(directory))}
    return mirrored, files


@settings(max_examples=40, deadline=None)
@given(streams=session_streams(), n_shards=st.sampled_from([1, 2, 3]),
       heartbeat_every=st.sampled_from([1, 2, 7, 64]))
def test_mirror_and_archive_follow_the_canonical_order(
        streams, n_shards, heartbeat_every):
    mirrored, files = collect(streams, n_shards, heartbeat_every)
    everything = [u for stream in streams.values() for u in stream]
    assert mirrored == sorted(
        everything, key=lambda u: (u.time, canonical_key(u), u.vp))
    _, one_shard = collect(streams, 1, heartbeat_every)
    assert files == one_shard
