"""Journal items hold only what replay cannot recompute.

Each detector has one derivation function (``model.DERIVATIONS``) that
gives a detection's ``type``, ``lifecycle``, ``key``, ``asns`` and
``summary`` from its stored facts; the detectors build their detections
through it, and the journal writer leaves a field out of an item only
when ``Detection.from_json(item, incident)`` gives that field back.
These tests draw facts the way each detector builds them — scores and
penalties whose 6- and 3-digit rounding moves a ``.2f`` summary
included — and hold every item to both directions of that rule.
"""

import json
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import Detection, Event, EventStore
from repro.events.model import (DERIVATIONS, DERIVED_FIELDS,
                                DETECTOR_OF_TYPE, EVENT_TYPES, journal_item)

PREFIXES = ("10.0.0.0/24", "10.0.0.0/26", "10.1.0.0/16")
vps = st.lists(st.sampled_from([f"vp{i}" for i in range(6)]), max_size=4,
               unique=True).map(sorted)
asn = st.integers(1, 70000)
times = st.floats(0.0, 2.0 ** 18, allow_nan=False)
prefixes = st.sampled_from(PREFIXES)


def near(*values):
    """Each value, and the floats just either side of it."""
    return st.sampled_from([v + d for v in values
                            for d in (-1e-7, 0.0, 1e-7)])


@st.composite
def origin_hijack(draw):
    link = draw(st.tuples(asn, asn).filter(lambda ab: ab[0] != ab[1]))
    return Detection.derived(
        "origin_hijack", draw(times), prefix=draw(prefixes), vps=draw(vps),
        score=draw(near(0.625, 0.615, 0.6, 1.0) | st.floats(0.6, 1.0)),
        extra={"link": list(link),
               "origin": draw(st.none() | st.just(0) | asn)})


@st.composite
def subprefix(draw):
    return Detection.derived(
        "subprefix", draw(times), prefix=draw(prefixes),
        vps=(draw(st.sampled_from(["vp0", "vp1"])),),
        closes=draw(st.booleans()),
        extra={"covering": "10.0.0.0/8", "victim": draw(asn),
               "attacker": draw(asn)})


@st.composite
def moas(draw):
    origins = sorted(draw(st.sets(asn, max_size=4)))
    return Detection.derived(
        "moas", draw(times), prefix=draw(prefixes), vps=draw(vps),
        closes=len(origins) <= 1, extra={"origins": origins})


@st.composite
def mass_withdrawal(draw):
    start = draw(st.integers(0, 800)) * 300.0
    if draw(st.booleans()):
        return Detection.derived("mass_withdrawal", start, closes=True,
                                 extra={"withdrawals": draw(st.integers(0, 19))})
    count = draw(st.integers(20, 5000))
    baseline = draw(near(0.25, 0.05, 3.35) | st.floats(0.0, 100.0))
    return Detection.derived(
        "mass_withdrawal", start + draw(st.floats(0.0, 299.0)),
        vps=draw(vps), score=min(1.0, count / 200.0),
        extra={"withdrawals": count,
               "prefixes": draw(st.integers(1, count)),
               "baseline": round(baseline, 2)},
        segment=(start, start + 300.0), baseline=baseline)


#: A storm opens at a penalty of at least 4 and closes at most 1.5.
penalties = (near(0.625, 1.125, 1.5, 4.125, 4.005, 5.0)
             | st.floats(0.0, 1.5) | st.floats(4.0, 12.0))


def flap(penalty, time=1.0, prefix=PREFIXES[0], vps=("vp1",)):
    return Detection.derived(
        "flap_storm", time, prefix=prefix, vps=vps,
        score=min(1.0, penalty / 8.0), closes=penalty < 4.0,
        extra={"penalty": round(penalty, 3)}, penalty=penalty)


@st.composite
def flap_storm(draw):
    return flap(draw(penalties), draw(times), draw(prefixes), draw(vps))


@st.composite
def guard(draw):
    extra = {"segment": draw(st.sampled_from(
                 ["updates.000000000900-000000001200.mrt.bz2", "seg"])),
             "reason": draw(st.sampled_from(["crc32", "sha256", "size"]))}
    if draw(st.booleans()):
        extra["flightrecorder"] = "flightrecorder-1.json"
    return Detection.derived("guard", draw(times), extra=extra)


STRATEGIES = {"origin_hijack": origin_hijack(), "subprefix": subprefix(),
              "moas": moas(), "mass_withdrawal": mass_withdrawal(),
              "flap_storm": flap_storm(), "guard": guard()}


@st.composite
def incident_and_detection(draw, detector):
    """A detection and the incident it is journaled in: mostly one its
    own detector opened on its prefix, sometimes another type's or on
    another prefix (cross-detector merges)."""
    detection = draw(STRATEGIES[detector])
    etype = draw(st.sampled_from((detection.type,) * 3 + EVENT_TYPES))
    prefix = draw(st.sampled_from((detection.prefix,) * 3 + PREFIXES
                                  + (None,)))
    incident = Event(id="ev-000001", type=etype, state="new",
                     first_seen=0.0, last_seen=0.0, prefix=prefix)
    return incident, detection


def text(value):
    return json.dumps(value, sort_keys=True)


def read_back(item, incident):
    """``from_json`` of the item as the journal stores it (JSON text)."""
    return Detection.from_json(json.loads(text(item)), incident).to_json()


def check_item(incident, detection):
    full = detection.to_json()
    item, replayed = journal_item(detection, incident)
    # Replay gives back every field, left out or not.
    assert text(read_back(item, incident)) == text(full)
    assert text(replayed.to_json()) == text(full)
    # Only what replay cannot give is written: without any one of its
    # fields, the item no longer reads back the same.
    for name in set(item) - {"time"}:
        partial = {k: v for k, v in item.items() if k != name}
        try:
            assert text(read_back(partial, incident)) != text(full), name
        except (KeyError, IndexError, TypeError, ValueError):
            pass
    return full, item


def own_incident(detection):
    return Event(id="ev-000001", type=detection.type, state="new",
                 first_seen=detection.time, last_seen=detection.time,
                 prefix=detection.prefix)


def round_trip(detector):
    @settings(max_examples=150, deadline=None)
    @given(incident_and_detection(detector))
    def test(self, drawn):
        check_item(*drawn)
    return test


class TestRoundTrip:
    test_origin_hijack = round_trip("origin_hijack")
    test_subprefix = round_trip("subprefix")
    test_moas = round_trip("moas")
    test_mass_withdrawal = round_trip("mass_withdrawal")
    test_flap_storm = round_trip("flap_storm")
    test_guard = round_trip("guard")

    def test_equal_values_of_another_type_are_kept(self):
        # A key holding 7.0 where the derivation gives 7: equal in
        # Python, different as JSON text.
        sub = Detection.derived(
            "subprefix", 1.0, prefix=PREFIXES[1], vps=["vp1"],
            extra={"covering": PREFIXES[0], "victim": 2, "attacker": 7})
        floated = replace(sub, key=(PREFIXES[1], 7.0))
        _, item = check_item(own_incident(floated), floated)
        assert item["key"] == [PREFIXES[1], 7.0]
        assert "key" not in check_item(own_incident(sub), sub)[1]

    def test_every_detector_and_type_has_a_derivation(self):
        assert sorted(DERIVATIONS) == sorted(STRATEGIES) \
            == sorted(DETECTOR_OF_TYPE.values())
        assert sorted(DETECTOR_OF_TYPE) == sorted(EVENT_TYPES)


class TestDoubleRounding:
    """A summary formatted from the unrounded value is journaled exactly
    when the stored value would format differently."""

    @settings(max_examples=150, deadline=None)
    @given(origin_hijack())
    def test_suspicion(self, detection):
        _, item = check_item(own_incident(detection), detection)
        score = detection.score
        assert ("summary" in item) \
            == (f"{round(score, 6):.2f}" != f"{score:.2f}")
        assert not {"type", "key", "asns", "lifecycle"} & set(item)

    def test_half_way_suspicion(self):
        # 0.6250001 formats as 0.63 but is stored as 0.625, which
        # formats as 0.62; 0.6249999 formats as 0.62 either way.
        above = Detection.derived("origin_hijack", 1.0, prefix=PREFIXES[0],
                                  score=0.6250001,
                                  extra={"link": [1, 2], "origin": 2})
        below = Detection.derived("origin_hijack", 1.0, prefix=PREFIXES[0],
                                  score=0.6249999,
                                  extra={"link": [1, 2], "origin": 2})
        assert "(suspicion 0.63)" in above.summary
        assert "summary" in check_item(own_incident(above), above)[1]
        assert "summary" not in check_item(own_incident(below), below)[1]

    @settings(max_examples=150, deadline=None)
    @given(penalties)
    def test_penalty(self, penalty):
        detection = flap(penalty)
        assert detection.summary.endswith(f" {penalty:.2f}")
        _, item = check_item(own_incident(detection), detection)
        assert ("summary" in item) \
            == (f"{round(penalty, 3):.2f}" != f"{penalty:.2f}")

    def test_burst_summary_is_journaled(self):
        # Its segment bounds and unrounded baseline are not facts.
        burst = Detection.derived(
            "mass_withdrawal", 310.0, vps=["vp1"], score=0.5,
            extra={"withdrawals": 100, "prefixes": 40, "baseline": 2.0},
            segment=(300.0, 600.0), baseline=2.0)
        _, item = check_item(own_incident(burst), burst)
        assert sorted(item) == ["extra", "score", "summary", "time", "vps"]


class TestMergedEvidence:
    """Evidence on an incident another detector or prefix opened keeps
    the fields that differ from the incident's, and derives the rest."""

    def moas(self, prefix):
        return Detection.derived("moas", 400.0, prefix=prefix,
                                 vps=["vp1", "vp2"],
                                 extra={"origins": [7, 9]})

    def test_moas_item_on_an_origin_hijack_incident(self, tmp_path):
        hijack = Detection.derived(
            "origin_hijack", 300.0, prefix=PREFIXES[0], vps=["vp1"],
            score=0.8, extra={"link": [7, 9], "origin": 9})
        incident = own_incident(hijack)
        item, _ = journal_item(self.moas(PREFIXES[0]), incident)
        assert item["detector"] == "moas"
        assert not set(DERIVED_FIELDS) & set(item)
        assert "prefix" not in item
        self.check_store(tmp_path, incident, [hijack, self.moas(PREFIXES[0])])

    def test_subprefix_item_on_another_prefix(self, tmp_path):
        incident = own_incident(self.moas(PREFIXES[2]))
        sub = Detection.derived(
            "subprefix", 500.0, prefix=PREFIXES[1], vps=["vp3"],
            extra={"covering": PREFIXES[0], "victim": 7, "attacker": 66})
        item, _ = journal_item(sub, incident)
        assert item["detector"] == "subprefix"
        assert item["prefix"] == PREFIXES[1]
        assert not set(DERIVED_FIELDS) & set(item)
        self.check_store(tmp_path, incident, [self.moas(PREFIXES[2]), sub])

    def check_store(self, tmp_path, incident, detections):
        """Applied one detection per line, the incident reloads to the
        live rendering, merged items included."""
        path = str(tmp_path / "events.jsonl")
        store = EventStore(path)
        for index, detection in enumerate(detections):
            incident.absorb(detection)
            incident.segments += 1
            store.apply(incident, 300.0 * (index + 1))
        assert text(EventStore(path).get(incident.id).to_json()) \
            == text(incident.to_json())
        assert [d.detector for d in store.get(incident.id).evidence] \
            == [d.detector for d in detections]
