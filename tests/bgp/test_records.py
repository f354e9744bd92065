"""Guards on the slotted per-update records.

The collect path makes one :class:`BGPUpdate`, :class:`AnnotatedUpdate`,
:class:`Route`, :class:`Envelope`, :class:`Heartbeat` or
:class:`Disposition` per update (or per heartbeat), and a flood holds
about half of them at once in the writer's reorder runs.  They are
slotted dataclasses: no per-instance ``__dict__``.  These tests pin
that layout and that everything built on the records (equality,
hashing, pickling, ``dataclasses.replace`` and the derived keys and
link sets) means what the field tuple means.
"""

import pickle
import sys
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.message import AnnotatedUpdate, BGPUpdate, canonical_key, \
    path_links
from repro.bgp.prefix import Prefix
from repro.bgp.rib import RIB, Route
from repro.pipeline.stages import Disposition, Envelope, Heartbeat

PREFIXES = [Prefix.parse(text) for text in (
    "10.0.0.0/24", "10.0.1.0/24", "192.168.0.0/16", "2001:db8::/32")]
VPS = ["vp0", "vp1", "vp-é"]
ASNS = [1, 2, 65001, 4200000000]


def sample_update():
    return BGPUpdate("vp1", 12.5, PREFIXES[0], (65001, 2, 1),
                     frozenset({(65001, 100), (2, 7)}))


def samples():
    """One instance of each per-update record class."""
    update = sample_update()
    return [
        update,
        AnnotatedUpdate(update, frozenset({(65001, 3), (3, 1)}),
                        frozenset({(65001, 100)})),
        Route(update.prefix, update.as_path, update.communities,
              update.time),
        Envelope(update, "vp1", 3.25),
        Heartbeat("vp1", 12.5),
        Disposition(update, True, "vp1", 3.25),
    ]


def field_tuple(record):
    return tuple(getattr(record, f.name) for f in fields(record))


@st.composite
def updates(draw):
    """One update from small pools, so equal fields are common."""
    vp = draw(st.sampled_from(VPS))
    time = draw(st.integers(0, 4)) * 2.5
    prefix = draw(st.sampled_from(PREFIXES))
    if draw(st.integers(0, 4)) == 0:
        return BGPUpdate(vp, time, prefix, is_withdrawal=True)
    path = draw(st.lists(st.sampled_from(ASNS), max_size=4))
    communities = draw(st.frozensets(
        st.tuples(st.sampled_from(ASNS), st.integers(0, 3)), max_size=3))
    return BGPUpdate(vp, time, prefix, tuple(path), communities)


@pytest.mark.parametrize("record", samples(),
                         ids=lambda record: type(record).__name__)
class TestLayout:
    def test_no_instance_dict(self, record):
        assert not hasattr(record, "__dict__")
        assert sorted(type(record).__slots__) \
            == sorted(f.name for f in fields(record))

    @pytest.mark.parametrize("protocol",
                             [pickle.DEFAULT_PROTOCOL, 5])
    def test_pickle_round_trip(self, record, protocol):
        copy = pickle.loads(pickle.dumps(record, protocol=protocol))
        assert type(copy) is type(record)
        assert copy == record
        assert field_tuple(copy) == field_tuple(record)
        if type(record).__hash__ is not None:
            assert hash(copy) == hash(record)


def test_update_is_small():
    assert sys.getsizeof(sample_update()) <= 80


def test_mutable_payloads_stay_unhashable():
    """Envelope and Disposition compare by value and are not frozen,
    so (as before they were slotted) they have no hash."""
    for record in samples():
        if isinstance(record, (Envelope, Disposition)):
            assert type(record).__hash__ is None
        else:
            hash(record)


def test_replace_and_with_time():
    update = sample_update()
    for moved in (replace(update, time=99.0), update.with_time(99.0)):
        assert type(moved) is BGPUpdate
        assert moved.time == 99.0
        assert moved.attribute_key() == update.attribute_key()
        assert moved != update
    assert replace(update, time=update.time) == update


def test_post_init_still_normalises():
    update = BGPUpdate("vp1", 1.0, PREFIXES[0], [3, 2, 1], {(3, 1)})
    assert update.as_path == (3, 2, 1)
    assert update.communities == frozenset({(3, 1)})
    with pytest.raises(ValueError):
        BGPUpdate("vp1", 1.0, PREFIXES[0], (1,), is_withdrawal=True)


def test_frozen_records_reject_assignment():
    for record in samples():
        if isinstance(record, (Envelope, Disposition)):
            continue
        for field in fields(record):
            with pytest.raises(AttributeError):
                setattr(record, field.name, None)


@settings(max_examples=200, deadline=None)
@given(a=updates(), b=updates())
def test_identity_is_the_field_tuple(a, b):
    assert (a == b) == (field_tuple(a) == field_tuple(b))
    assert hash(a) == hash(field_tuple(a))
    if a == b:
        assert hash(a) == hash(b)
    assert a.attribute_key() == (a.vp, a.prefix, a.as_path,
                                 a.communities, a.is_withdrawal)
    assert canonical_key(a) == (a.vp, a.prefix, a.as_path,
                                tuple(sorted(a.communities)),
                                a.is_withdrawal)


@settings(max_examples=100, deadline=None)
@given(stream=st.lists(updates(), max_size=30))
def test_annotated_link_sets_unchanged(stream):
    """A RIB's annotations are the set differences against the route
    the VP held for the prefix just before."""
    ribs = {}
    held = {}
    for update in stream:
        annotated = ribs.setdefault(update.vp, RIB(update.vp)).apply(update)
        previous = held.get((update.vp, update.prefix))
        before = path_links(previous.as_path) if previous else set()
        comms = previous.communities if previous else frozenset()
        assert annotated.update is update
        assert annotated.previous_links == frozenset(before)
        assert annotated.previous_communities == comms
        assert annotated.withdrawn_links \
            == frozenset(before - update.links())
        assert annotated.effective_links \
            == frozenset(update.links() - before)
        assert annotated.withdrawn_communities \
            == frozenset(comms - update.communities)
        assert annotated.effective_communities \
            == frozenset(update.communities - comms)
        if update.is_withdrawal:
            held.pop((update.vp, update.prefix), None)
        else:
            held[(update.vp, update.prefix)] = update
