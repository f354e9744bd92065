"""GillStage semantics: drops, keep-list, determinism, journaling."""

import itertools
import json

import pytest

from repro.bgp.message import BGPUpdate
from repro.bgp.prefix import Prefix
from repro.core.redundancy import TIME_SLACK_S, RedundancyDefinition
from repro.gill import GillConfig, GillJournal, GillStage

P1 = Prefix.from_index(1)
P2 = Prefix.from_index(2)
VPS = ("vp1", "vp2", "vp3")


def _upd(vp, t, prefix=P1, path=(1, 2, 3), comms=()):
    return BGPUpdate(vp, t, prefix, path, frozenset(comms))


def _run(stage, updates):
    kept = []
    for update in updates:
        kept.extend(stage.offer(update))
    kept.extend(stage.flush())
    return kept


def test_duplicate_within_slack_is_dropped():
    stage = GillStage(GillConfig(definition=1, auto_anchors=False),
                      VPS, interval_s=300.0)
    kept = _run(stage, [_upd("vp1", 10.0), _upd("vp2", 20.0)])
    assert [u.vp for u in kept] == ["vp1"]
    info = stage.summary()
    assert (info["kept"], info["dropped"]) == (1, 1)


def test_witness_expires_after_slack():
    stage = GillStage(GillConfig(definition=1, auto_anchors=False),
                      VPS, interval_s=300.0)
    kept = _run(stage, [_upd("vp1", 10.0),
                        _upd("vp2", 10.0 + TIME_SLACK_S + 5.0)])
    assert [u.vp for u in kept] == ["vp1", "vp2"]


def test_different_prefix_is_never_redundant():
    stage = GillStage(GillConfig(definition=1, auto_anchors=False),
                      VPS, interval_s=300.0)
    kept = _run(stage, [_upd("vp1", 10.0, P1), _upd("vp2", 11.0, P2)])
    assert len(kept) == 2


def test_keep_list_bypasses_the_filter():
    stage = GillStage(GillConfig(definition=1, keep=("vp2",),
                                 auto_anchors=False),
                      VPS, interval_s=300.0)
    kept = _run(stage, [_upd("vp1", 10.0), _upd("vp2", 20.0),
                        _upd("vp3", 30.0)])
    assert [u.vp for u in kept] == ["vp1", "vp2"]
    assert stage.keep_list() == {"vp2"}


def test_definition2_spares_new_links():
    stage = GillStage(GillConfig(definition=2, auto_anchors=False),
                      VPS, interval_s=300.0)
    kept = _run(stage, [_upd("vp1", 10.0, path=(1, 2, 3)),
                        _upd("vp2", 20.0, path=(9, 8, 3)),
                        _upd("vp3", 30.0, path=(1, 2, 3))])
    # vp2's links are not nested in vp1's; vp3's are nested in vp1's.
    assert [u.vp for u in kept] == ["vp1", "vp2"]


def test_equal_time_decisions_are_permutation_invariant():
    batch = [_upd("vp1", 50.0, path=(1, 2, 3)),
             _upd("vp2", 50.0, path=(9, 8, 3)),
             _upd("vp3", 50.0, path=(4, 2, 3))]
    outcomes = set()
    for perm in itertools.permutations(batch):
        stage = GillStage(GillConfig(definition=2, auto_anchors=False),
                          VPS, interval_s=300.0)
        kept = _run(stage, list(perm))
        outcomes.add(tuple(sorted(u.vp for u in kept)))
    assert len(outcomes) == 1


def test_strictest_definition_audit_label():
    stage = GillStage(GillConfig(definition=1, auto_anchors=False),
                      VPS, interval_s=300.0)
    # Exact duplicate -> Definition 3; divergent path -> stays 1.
    _run(stage, [_upd("vp1", 10.0, path=(1, 2, 3)),
                 _upd("vp2", 20.0, path=(1, 2, 3)),
                 _upd("vp3", 30.0, path=(9, 8, 7))])
    record = stage.journal.last()
    assert record["drops"] == {"vp2": {"3": 1}, "vp3": {"1": 1}}
    assert record["definition"] == 1


def test_slot_flush_journals_accounting():
    stage = GillStage(GillConfig(definition=1, auto_anchors=False),
                      VPS, interval_s=100.0)
    _run(stage, [_upd("vp1", 10.0), _upd("vp2", 20.0),
                 _upd("vp1", 150.0, P2), _upd("vp3", 230.0, P2)])
    records = stage.journal.records
    assert [r["watermark"] for r in records] == [100.0, 200.0, 300.0]
    assert [(r["kept"], r["dropped"]) for r in records] \
        == [(1, 1), (1, 0), (0, 1)]
    assert stage.vp_scores().keys() == set(VPS)
    totals = stage.journal.totals()
    assert (totals["kept"], totals["dropped"]) == (2, 2)


def test_journal_load_truncates_beyond_watermark(tmp_path):
    path = tmp_path / "gill.jsonl"
    journal = GillJournal(path)
    journal.append({"watermark": 100.0, "kept": 1, "dropped": 0})
    journal.append({"watermark": 200.0, "kept": 2, "dropped": 1})
    with open(path, "a") as handle:
        handle.write('{"watermark": 300.0, "kept"')  # torn tail
    fresh = GillJournal(path)
    assert fresh.load(truncate_beyond=100.0) == 1
    assert fresh.last_watermark() == 100.0
    # The file was rewritten without the truncated and torn lines.
    lines = [json.loads(line) for line in open(path)]
    assert [r["watermark"] for r in lines] == [100.0]


def test_config_validation():
    assert GillConfig(definition=3).definition \
        is RedundancyDefinition.PREFIX_ASPATH_COMMUNITY
    with pytest.raises(ValueError):
        GillConfig(max_anchors=0)


def test_metrics_families_update():
    stage = GillStage(GillConfig(definition=1, auto_anchors=False),
                      VPS, interval_s=300.0)
    _run(stage, [_upd("vp1", 10.0), _upd("vp2", 20.0)])
    doc = stage.registry.to_json()
    by_name = {f["name"]: f for f in doc["families"]}
    decisions = {s["labels"]["decision"]: s["value"]
                 for s in by_name["repro_gill_decisions_total"]["samples"]}
    assert decisions == {"kept": 1, "dropped": 1}
    dropped = by_name["repro_gill_dropped_total"]["samples"]
    assert [(s["labels"]["vp"], s["labels"]["definition"], s["value"])
            for s in dropped] == [("vp2", "3", 1)]
    assert by_name["repro_gill_rescores_total"]["samples"][0]["value"] == 1


def test_drop_counter_children_resolve_once(monkeypatch):
    """``_record_drop`` runs per drop on the writer thread: each
    (vp, definition) child is resolved on its first drop only."""
    stage = GillStage(GillConfig(definition=1, auto_anchors=False),
                      VPS, interval_s=300.0)
    family = stage._dropped_by
    resolved = []
    labels = family.labels
    monkeypatch.setattr(
        family, "labels",
        lambda **names: resolved.append(names) or labels(**names))
    _run(stage, [_upd("vp1", 10.0), _upd("vp2", 20.0), _upd("vp2", 30.0),
                 _upd("vp3", 40.0, comms=[(1, 1)]), _upd("vp2", 50.0)])
    stage.close()
    assert resolved == [{"vp": "vp2", "definition": "3"},
                        {"vp": "vp3", "definition": "2"}]
    doc = stage.registry.to_json()
    dropped = [f for f in doc["families"]
               if f["name"] == "repro_gill_dropped_total"][0]["samples"]
    assert [(s["labels"]["vp"], s["labels"]["definition"], s["value"])
            for s in dropped] == [("vp2", "3", 3), ("vp3", "2", 1)]
