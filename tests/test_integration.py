"""End-to-end integration tests across subsystems.

These exercise full pipelines rather than single modules: simulator →
collection → GILL → filters → analyses, and the worked example of the
paper's Figs. 5/10.
"""

import pytest

from repro.bgp.prefix import Prefix
from repro.bgp.rib import annotate_stream
from repro.core import (
    CorrelationGroups,
    GillSampler,
    UpdateSampler,
    reconstitution_power,
)
from repro.simulation import (
    ASTopology,
    ForgedOriginHijack,
    LinkFailure,
    LinkRestoration,
    SimulatedInternet,
    assign_prefix_ownership,
    random_vp_deployment,
    synthetic_known_topology,
)
from repro.usecases import (
    PathChange,
    hijack_visible,
    localize_failure,
    observed_as_links,
)

P1 = Prefix.parse("10.0.0.0/24")
P2 = Prefix.parse("10.0.1.0/24")
P3 = Prefix.parse("10.0.2.0/24")


@pytest.fixture
def fig5_net():
    topo = ASTopology()
    topo.add_p2p(1, 2)
    topo.add_c2p(4, 1)
    topo.add_c2p(4, 2)
    topo.add_c2p(3, 1)
    topo.add_c2p(6, 2)
    topo.add_c2p(5, 2)
    topo.add_c2p(7, 5)
    topo.add_p2p(5, 6)
    net = SimulatedInternet(topo, seed=0)
    net.announce_prefix(P1, 4)
    net.announce_prefix(P2, 4)
    net.announce_prefix(P3, 6)
    net.deploy_vps([2, 3, 5, 6])
    return net


class TestFig5Scenario:
    """The motivating example of §4.1/§5 end to end."""

    def test_repeated_events_build_heavy_groups(self, fig5_net):
        stream = []
        t = 1000.0
        for _ in range(3):
            stream += fig5_net.apply_event(LinkFailure(2, 4, time=t))
            stream += fig5_net.apply_event(
                LinkRestoration(2, 4, time=t + 3000))
            t += 8000.0
        groups = CorrelationGroups.build(stream)
        weights = sorted(g.weight for g in groups.groups_for_prefix(P1))
        # The restore-state group repeats; the failure state repeats too.
        assert weights[-1] >= 2

    def test_component1_finds_cross_prefix_redundancy(self, fig5_net):
        """p1 and p2 (both AS4's) move together: step 3 demotes one."""
        stream = []
        t = 1000.0
        for _ in range(3):
            stream += fig5_net.apply_event(LinkFailure(2, 4, time=t))
            stream += fig5_net.apply_event(
                LinkRestoration(2, 4, time=t + 3000))
            t += 8000.0
        result = UpdateSampler().run(stream)
        assert result.demoted_count > 0
        # Updates survive for at most one of the twin prefixes per VP.
        p1_vps = {u.vp for u in result.nonredundant if u.prefix == P1}
        p2_vps = {u.vp for u in result.nonredundant if u.prefix == P2}
        assert not (p1_vps & p2_vps)

    def test_single_vp_reconstitutes_the_other(self, fig5_net):
        """One of the two affected VPs suffices to rebuild both (§17.2)."""
        stream = []
        t = 1000.0
        for _ in range(2):
            stream += fig5_net.apply_event(LinkFailure(2, 4, time=t))
            stream += fig5_net.apply_event(
                LinkRestoration(2, 4, time=t + 3000))
            t += 8000.0
        p1_updates = [u for u in stream if u.prefix == P1]
        groups = CorrelationGroups.build(stream)
        powers = []
        for vp in sorted({u.vp for u in p1_updates}):
            u = [x for x in p1_updates if x.vp == vp]
            powers.append(reconstitution_power(p1_updates, u, groups))
        assert max(powers) == 1.0

    def test_hijack_detected_only_from_nearby_vp(self, fig5_net):
        updates = fig5_net.apply_event(
            ForgedOriginHijack(7, P3, time=500.0, type_x=1))
        assert hijack_visible(updates, P3, attacker=7)
        far_only = [u for u in updates if u.vp in ("vp3",)]
        assert not hijack_visible(far_only, P3, attacker=7)

    def test_failure_localizable_from_both_directions(self, fig5_net):
        """§5: updates from VPs on both sides pin down link 2-4."""
        prior = {}
        for prefix in fig5_net.prefixes():
            routes = fig5_net.routes_for(prefix)
            for asn in fig5_net.vp_ases:
                route = routes.get(asn)
                if route:
                    prior[(f"vp{asn}", prefix)] = route.path
        updates = fig5_net.apply_event(LinkFailure(2, 4, time=1000.0))
        changes = [
            PathChange(prior[(u.vp, u.prefix)],
                       () if u.is_withdrawal else u.as_path)
            for u in updates if (u.vp, u.prefix) in prior
        ]
        assert localize_failure(changes, (2, 4))


class TestSimulatorToGillPipeline:
    """Simulator stream -> GILL -> filters -> analyses, at small scale."""

    @pytest.fixture(scope="class")
    def pipeline(self):
        import random
        topo = synthetic_known_topology(100, seed=20)
        net = SimulatedInternet(topo, seed=20)
        net.announce_ownership(
            assign_prefix_ownership(topo.ases(), 120, seed=20))
        net.deploy_vps(random_vp_deployment(topo, 0.3, seed=21))
        rng = random.Random(22)
        links = [(a, b) for a, b, _ in net.topo.links()]
        stream = []
        t = 1000.0
        for _ in range(20):
            a, b = links[rng.randrange(len(links))]
            try:
                stream += net.apply_event(LinkFailure(a, b, t))
                stream += net.apply_event(
                    LinkRestoration(a, b, t + 600.0))
            except ValueError:
                pass
            t += 1500.0
        stream.sort(key=lambda u: u.time)
        result = GillSampler(events_per_cell=5, seed=20).run(
            stream, topology=topo)
        return topo, stream, result

    def test_substantial_discard(self, pipeline):
        _, stream, result = pipeline
        retained = result.sample(stream)
        assert len(retained) < len(stream)

    def test_filters_consistent_with_classification(self, pipeline):
        _, stream, result = pipeline
        for update in result.component1.nonredundant:
            assert result.filters.accept(update)

    def test_anchor_vps_are_deployed_vps(self, pipeline):
        _, stream, result = pipeline
        stream_vps = {u.vp for u in stream}
        assert set(result.anchor_vps) <= stream_vps

    def test_retained_sample_still_maps_topology(self, pipeline):
        """The discarded majority contributes few unique links."""
        _, stream, result = pipeline
        retained = result.sample(stream)
        all_links = observed_as_links(stream)
        kept_links = observed_as_links(retained)
        assert len(kept_links) >= 0.6 * len(all_links)


class TestAnnotationConsistency:
    def test_annotate_stream_matches_manual_replay(self):
        from repro.bgp.rib import RIB
        from repro.workload import StreamConfig, SyntheticStreamGenerator
        generator = SyntheticStreamGenerator(StreamConfig(
            n_vps=6, n_prefix_groups=4, duration_s=600.0, seed=30))
        warmup, stream = generator.generate()
        data = warmup + stream
        annotated = annotate_stream(data)
        ribs = {}
        for raw, ann in zip(data, annotated):
            rib = ribs.setdefault(raw.vp, RIB(raw.vp))
            expected = rib.apply(raw)
            assert ann == expected


@pytest.mark.parametrize("package", ["repro.cluster", "repro.telemetry",
                                     "repro.pipeline"])
def test_every_export_resolves(package):
    """A stale ``__all__`` entry must fail here, not at a caller's
    first use (``repro.cluster`` resolves its exports lazily)."""
    import importlib
    module = importlib.import_module(package)
    missing = [name for name in module.__all__
               if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names nothing: {missing}"
