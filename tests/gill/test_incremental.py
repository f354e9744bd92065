"""Differential parity: incremental trackers vs their batch twins.

The filter's correctness argument rests on these tests — each
incremental structure in :mod:`repro.gill.incremental` must produce
*exactly* the batch answer when fed the same time-ordered stream.
"""

from collections import Counter

import numpy as np
import pytest

from repro.bgp.rib import annotate_stream
from repro.core.correlation import CorrelationGroups
from repro.core.events import detect_events
from repro.core.scoring import score_vps, update_volumes
from repro.gill import (
    IncrementalCorrelationGroups,
    IncrementalVPScorer,
)
from repro.workload.generator import (
    StreamConfig,
    SyntheticStreamGenerator,
    overshoot_config,
)


def _sorted_stream(config):
    generator = SyntheticStreamGenerator(config)
    _, stream = generator.generate()
    stream.sort(key=lambda u: (u.time, u.vp, u.prefix))
    return generator.vps, stream


@pytest.fixture(scope="module")
def mixed():
    """A divergence-heavy stream exercising all three definitions."""
    return _sorted_stream(StreamConfig(
        n_vps=8, n_prefix_groups=8, duration_s=1500.0, seed=5))


@pytest.fixture(scope="module")
def overshoot():
    """The redundant-clusters scenario the filter targets."""
    return _sorted_stream(overshoot_config(seed=2, n_vps=12,
                                           duration_s=900.0))


def _canonical_groups(groups: CorrelationGroups):
    return {
        prefix: Counter((g.members, g.weight) for g in bucket)
        for prefix, bucket in groups._groups.items()
    }


@pytest.mark.parametrize("stream_fixture", ["mixed", "overshoot"])
def test_correlation_groups_parity(stream_fixture, request):
    _, stream = request.getfixturevalue(stream_fixture)
    batch = CorrelationGroups.build(stream)
    tracker = IncrementalCorrelationGroups()
    for update in stream:
        tracker.add(update)
    incremental = tracker.close()
    assert _canonical_groups(incremental) == _canonical_groups(batch)
    assert incremental.total_groups() == batch.total_groups()


def test_total_groups_counts_open_windows(mixed):
    _, stream = mixed
    tracker = IncrementalCorrelationGroups()
    for update in stream:
        tracker.add(update)
    live = tracker.total_groups()
    assert live == tracker.close().total_groups()
    with pytest.raises(ValueError):
        tracker.add(stream[-1])


def _event_key(event):
    return (event.kind.value, event.as1, event.as2, event.start,
            event.end, str(event.prefix), tuple(sorted(event.observers)))


@pytest.mark.parametrize("stream_fixture", ["mixed", "overshoot"])
def test_event_and_score_parity(stream_fixture, request):
    vps, stream = request.getfixturevalue(stream_fixture)
    vps = sorted(vps)
    batch_events = detect_events(stream, total_vps=len(vps))
    _, batch_scores = score_vps(stream, batch_events, vps)
    batch_volumes = update_volumes(stream, vps)

    scorer = IncrementalVPScorer(vps)
    for one in annotate_stream(stream):
        scorer.feed(one)
    scorer.close()

    assert Counter(map(_event_key, scorer.events)) \
        == Counter(map(_event_key, batch_events))
    assert scorer.n_events == len(batch_events)
    np.testing.assert_allclose(scorer.scores(), batch_scores,
                               atol=1e-12)
    assert scorer.volumes() == batch_volumes


def test_finalize_until_is_a_prefix_of_close(mixed):
    """Mid-stream finalization decides only ripe clusters, and the
    events it emits are exactly those the full run also emits."""
    vps, stream = mixed
    vps = sorted(vps)
    annotated = annotate_stream(stream)
    cut = len(annotated) // 2
    watermark = annotated[cut].update.time

    scorer = IncrementalVPScorer(vps)
    for one in annotated[:cut]:
        scorer.feed(one)
    scorer.finalize_until(watermark)
    early = Counter(map(_event_key, scorer.events))
    for one in annotated[cut:]:
        scorer.feed(one)
    scorer.close()
    final = Counter(map(_event_key, scorer.events))

    assert early == final & early  # nothing retracted
    batch = Counter(map(_event_key,
                        detect_events(stream, total_vps=len(vps))))
    assert final == batch


def test_scorer_requires_window_beyond_slack():
    with pytest.raises(ValueError):
        IncrementalVPScorer(["vp1", "vp2"], cluster_window_s=50.0,
                            settle_slack_s=100.0)
