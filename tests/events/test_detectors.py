"""Unit tests for the streaming detectors."""

from repro.bgp.message import BGPUpdate
from repro.bgp.prefix import Prefix
from repro.events import (
    FlapStormDetector,
    MassWithdrawalDetector,
    MOASStreamDetector,
    OriginHijackStreamDetector,
    SubPrefixStreamDetector,
    default_detectors,
)

P1 = Prefix.parse("10.0.0.0/24")
P1_SUB = Prefix.parse("10.0.0.0/26")
P2 = Prefix.parse("10.1.0.0/24")


def ann(vp, t, prefix, path):
    return BGPUpdate(vp, t, prefix, tuple(path))


def wd(vp, t, prefix):
    return BGPUpdate(vp, t, prefix, is_withdrawal=True)


class TestOriginHijackStream:
    def training(self):
        # A known graph: 1-2, 2-3, 1-4, 4-3 (a well-meshed core).
        return [
            ann("vp1", 0.0, P1, (1, 2, 3)),
            ann("vp2", 1.0, P1, (4, 3)),
            ann("vp1", 2.0, P2, (1, 4)),
        ]

    def test_first_segment_trains_silently(self):
        detector = OriginHijackStreamDetector()
        assert detector.observe(self.training(), 0.0, 300.0) == []

    def test_implausible_link_flagged_every_segment(self):
        detector = OriginHijackStreamDetector()
        detector.observe(self.training(), 0.0, 300.0)
        # AS8-AS9 touch nothing in the known graph: maximally
        # suspicious, and never absorbed.
        forged = [ann("vp1", 310.0, P2, (8, 9))]
        first = detector.observe(forged, 300.0, 600.0)
        assert len(first) == 1
        d = first[0]
        assert d.type == "origin_hijack"
        assert not d.lifecycle
        assert d.extra["link"] == [8, 9]
        assert d.score >= 0.6
        # Still announced next segment: same incident re-evidenced.
        again = detector.observe([ann("vp1", 610.0, P2, (8, 9))],
                                 600.0, 900.0)
        assert len(again) == 1
        assert again[0].key_id == d.key_id
        assert again[0].score == d.score

    def test_plausible_link_absorbed_silently(self):
        detector = OriginHijackStreamDetector()
        detector.observe(self.training(), 0.0, 300.0)
        # AS2-AS4 share neighbors 1 and 3: plausible, absorbed.
        found = detector.observe([ann("vp1", 310.0, P2, (2, 4))],
                                 300.0, 600.0)
        assert found == []
        assert (2, 4) in detector.dfoh._known_links

    def test_withdrawal_produces_no_evidence(self):
        detector = OriginHijackStreamDetector()
        detector.observe(self.training(), 0.0, 300.0)
        assert detector.observe([wd("vp1", 310.0, P2)],
                                300.0, 600.0) == []


class TestSubPrefixStream:
    def test_foreign_more_specific_flagged(self):
        detector = SubPrefixStreamDetector()
        out = detector.observe([ann("vp1", 0.0, P1, (1, 5))],
                               0.0, 300.0)
        assert out == []                       # ownership learned
        out = detector.observe([ann("vp1", 310.0, P1_SUB, (1, 9))],
                               300.0, 600.0)
        assert len(out) == 1
        d = out[0]
        assert d.type == "subprefix_hijack"
        assert d.asns == (9, 5)
        assert d.extra["covering"] == str(P1)
        assert not d.closes

    def test_close_when_last_vp_withdraws(self):
        detector = SubPrefixStreamDetector()
        detector.observe([ann("vp1", 0.0, P1, (1, 5))], 0.0, 300.0)
        detector.observe([ann("vp1", 310.0, P1_SUB, (1, 9)),
                          ann("vp2", 311.0, P1_SUB, (2, 9))],
                         300.0, 600.0)
        # First VP withdrawing does not close it...
        out = detector.observe([wd("vp1", 610.0, P1_SUB)], 600.0, 900.0)
        assert out == []
        # ...the last one does.
        out = detector.observe([wd("vp2", 910.0, P1_SUB)], 900.0, 1200.0)
        assert len(out) == 1 and out[0].closes

    def test_own_more_specific_not_flagged(self):
        detector = SubPrefixStreamDetector()
        detector.observe([ann("vp1", 0.0, P1, (1, 5))], 0.0, 300.0)
        out = detector.observe([ann("vp1", 310.0, P1_SUB, (1, 5))],
                               300.0, 600.0)
        assert out == []


class TestMOASStream:
    def test_open_and_close(self):
        detector = MOASStreamDetector()
        out = detector.observe([ann("vp1", 0.0, P1, (1, 5))],
                               0.0, 300.0)
        assert out == []
        out = detector.observe([ann("vp2", 310.0, P1, (2, 7))],
                               300.0, 600.0)
        assert len(out) == 1
        assert out[0].type == "moas" and not out[0].closes
        assert out[0].extra["origins"] == [5, 7]
        # vp2 moves back to the legitimate origin: conflict over.
        out = detector.observe([ann("vp2", 610.0, P1, (2, 5))],
                               600.0, 900.0)
        assert len(out) == 1 and out[0].closes

    def test_withdrawal_resolves(self):
        detector = MOASStreamDetector()
        detector.observe([ann("vp1", 0.0, P1, (1, 5)),
                          ann("vp2", 1.0, P1, (2, 7))], 0.0, 300.0)
        out = detector.observe([wd("vp2", 310.0, P1)], 300.0, 600.0)
        assert len(out) == 1 and out[0].closes

    def test_bogon_origin_ignored(self):
        detector = MOASStreamDetector()
        out = detector.observe([ann("vp1", 0.0, P1, (1, 5)),
                                ann("vp2", 1.0, P1, (2, 64512))],
                               0.0, 300.0)
        assert out == []


class TestMassWithdrawal:
    def test_burst_opens_and_calm_closes(self):
        detector = MassWithdrawalDetector(min_count=5)
        calm = [wd("vp1", 10.0, P1)]
        assert detector.observe(calm, 0.0, 300.0) == []
        burst = [wd(f"vp{i}", 310.0 + i, P1) for i in range(8)]
        out = detector.observe(burst, 300.0, 600.0)
        assert len(out) == 1
        assert out[0].type == "mass_withdrawal" and not out[0].closes
        assert out[0].extra["withdrawals"] == 8
        out = detector.observe([], 600.0, 900.0)
        assert len(out) == 1 and out[0].closes
        assert out[0].time == 600.0

    def test_burst_does_not_feed_baseline(self):
        detector = MassWithdrawalDetector(min_count=5)
        detector.observe([], 0.0, 300.0)
        burst = [wd(f"vp{i}", 310.0, P1) for i in range(50)]
        detector.observe(burst, 300.0, 600.0)
        assert detector._baseline < 1.0


class TestFlapStorm:
    def test_storm_opens_then_decays_closed(self):
        detector = FlapStormDetector(half_life_s=300.0, suppress=4.0,
                                     reuse=1.5)
        # Re-announce every 60s: penalty compounds past suppress.
        flaps = [ann("vp1", float(t), P1, (1, 5))
                 for t in range(0, 600, 60)]
        out = detector.observe(flaps, 0.0, 600.0)
        opens = [d for d in out if not d.closes]
        assert len(opens) == 1
        assert opens[0].type == "flap_storm"
        # Quiet segments: the penalty decays below reuse and closes.
        closed = []
        end = 600.0
        for _ in range(4):
            closed += detector.observe([], end, end + 300.0)
            end += 300.0
        assert any(d.closes for d in closed)
        close = next(d for d in closed if d.closes)
        assert close.extra["penalty"] <= 1.5

    def test_slow_updates_never_suppress(self):
        detector = FlapStormDetector(half_life_s=300.0, suppress=4.0)
        slow = [ann("vp1", float(t), P1, (1, 5))
                for t in range(0, 3600, 600)]
        assert detector.observe(slow, 0.0, 3600.0) == []


class _ReferenceFlapStorm(FlapStormDetector):
    """The sweep as it was: every open storm scans every penalty."""

    def observe(self, updates, start, end):
        out = []
        for update in updates:
            key = (update.vp, update.prefix)
            penalty, since = self._penalty.get(key, (0.0, update.time))
            penalty = self._decayed(penalty, since, update.time) + 1.0
            self._penalty[key] = (penalty, update.time)
            if penalty >= self.suppress:
                storm = self._open.get(update.prefix)
                if storm is None:
                    self._open[update.prefix] = {update.vp}
                    out.append(self._detection(
                        update.prefix, update.time, penalty,
                        vps=(update.vp,)))
                else:
                    storm.add(update.vp)
        for prefix in sorted(self._open, key=str):
            vps = self._open[prefix]
            worst = max((self._decayed(p, s, end)
                         for (vp, pfx), (p, s) in self._penalty.items()
                         if pfx == prefix), default=0.0)
            if worst <= self.reuse:
                del self._open[prefix]
                out.append(self._detection(
                    prefix, end, worst, vps=tuple(sorted(vps)),
                    closes=True))
        self._penalty = {
            key: (penalty, since)
            for key, (penalty, since) in self._penalty.items()
            if self._decayed(penalty, since, end) > 0.05
        }
        return out


def test_flap_storm_sweep_equals_the_per_storm_scan():
    """Many concurrent storms, opening, closing and reopening over a
    dozen segments: the grouped sweep detects exactly what the old
    per-storm scan of the whole penalty table did."""
    prefixes = [Prefix.from_index(i) for i in range(60)]
    grouped, reference = FlapStormDetector(), _ReferenceFlapStorm()
    opened = closed = 0
    for segment in range(12):
        start = segment * 300.0
        updates = [
            ann(f"vp{vp}", start + offset, prefix, (1, 5 + vp))
            for index, prefix in enumerate(prefixes)
            for vp in range(index % 5 + 1)
            # Storms flap on and off at their own period, 3-7 segments.
            if (segment // (index % 5 + 3) + index) % 2 == 0
            for offset in range(vp, 300, 20 + 7 * (index % 4))]
        updates.sort(key=lambda u: (u.time, u.vp, str(u.prefix)))
        got = grouped.observe(updates, start, start + 300.0)
        assert got == reference.observe(updates, start, start + 300.0)
        opened += sum(not d.closes for d in got)
        closed += sum(d.closes for d in got)
        assert grouped._penalty == reference._penalty
        assert grouped._open == reference._open
    assert opened > 60 and closed > 30


def test_default_detectors_cover_all_types():
    names = {d.name for d in default_detectors()}
    assert names == {"origin_hijack", "subprefix", "moas",
                     "mass_withdrawal", "flap_storm"}
