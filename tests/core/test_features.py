"""Tests for RIB graphs and Table-6 features."""

import heapq
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.message import BGPUpdate
from repro.bgp.prefix import Prefix
from repro.bgp.rib import Route
from repro.core.features import (
    FEATURE_VECTOR_DIM,
    RIBGraph,
    event_feature_vector,
)

P = [Prefix.from_index(i) for i in range(8)]


def graph_from_paths(*paths):
    g = RIBGraph()
    for i, path in enumerate(paths):
        g.install(P[i], tuple(path))
    return g


class TestGraphMaintenance:
    def test_install_adds_weighted_edges(self):
        g = graph_from_paths((1, 2, 3), (1, 2, 4))
        assert g.edge_weight(1, 2) == 2
        assert g.edge_weight(2, 3) == 1
        assert g.edge_count() == 3

    def test_direction_preserved(self):
        g = graph_from_paths((1, 2))
        assert g.has_edge(1, 2)
        assert not g.has_edge(2, 1)

    def test_reinstall_replaces_path(self):
        g = RIBGraph()
        g.install(P[0], (1, 2, 3))
        g.install(P[0], (1, 4, 3))
        assert not g.has_edge(2, 3)
        assert g.has_edge(4, 3)

    def test_withdraw_removes_edges(self):
        g = RIBGraph()
        g.install(P[0], (1, 2))
        g.withdraw(P[0])
        assert g.edge_count() == 0
        assert g.nodes() == set()

    def test_withdraw_keeps_shared_edges(self):
        g = graph_from_paths((1, 2, 3), (1, 2, 4))
        g.withdraw(P[1])
        assert g.edge_weight(1, 2) == 1

    def test_apply_update(self):
        g = RIBGraph()
        g.apply_update(BGPUpdate("vp1", 0.0, P[0], (1, 2)))
        assert g.has_edge(1, 2)
        g.apply_update(BGPUpdate("vp1", 1.0, P[0], is_withdrawal=True))
        assert g.edge_count() == 0

    def test_from_routes(self):
        g = RIBGraph.from_routes([Route(P[0], (1, 2)), Route(P[1], (1, 3))])
        assert g.degree(1) == 2

    def test_prepending_collapsed(self):
        g = graph_from_paths((1, 2, 2, 2, 3))
        assert g.edge_count() == 2


class TestDistances:
    def test_heavier_edges_are_closer(self):
        g = graph_from_paths((1, 2), (1, 2), (1, 3))
        dist = g.distances_from(1)
        assert dist[2] == pytest.approx(0.5)
        assert dist[3] == pytest.approx(1.0)

    def test_multi_hop(self):
        g = graph_from_paths((1, 2, 3))
        assert g.distances_from(1)[3] == pytest.approx(2.0)

    def test_undirected_projection(self):
        g = graph_from_paths((1, 2))
        assert g.distances_from(2)[1] == pytest.approx(1.0)

    def test_unreachable_absent(self):
        g = graph_from_paths((1, 2), (3, 4))
        assert 3 not in g.distances_from(1)


class TestNodeFeatures:
    def test_absent_node_zero_vector(self):
        g = graph_from_paths((1, 2))
        assert g.node_features(99) == (0.0,) * 6

    def test_triangle_counted(self):
        g = graph_from_paths((1, 2, 3), (2, 1, 3))
        # Edges 1-2, 2-3, 1-3 form a triangle.
        feats = g.node_features(1)
        assert feats[4] == 1.0          # triangles
        assert feats[5] > 0.0           # clustering

    def test_no_triangle_in_path(self):
        g = graph_from_paths((1, 2, 3))
        assert g.node_features(2)[4] == 0.0
        assert g.node_features(2)[5] == 0.0

    def test_star_center_has_high_closeness(self):
        g = graph_from_paths((1, 2), (1, 3), (1, 4), (1, 5))
        center = g.node_features(1)[0]
        leaf = g.node_features(2)[0]
        assert center > leaf

    def test_eccentricity_of_chain_end(self):
        g = graph_from_paths((1, 2, 3, 4))
        assert g.node_features(1)[3] == pytest.approx(3.0)
        assert g.node_features(2)[3] == pytest.approx(2.0)

    def test_average_neighbor_degree(self):
        g = graph_from_paths((1, 2, 3))
        # 2's neighbors are 1 (deg 1) and 3 (deg 1), equally weighted.
        assert g.node_features(2)[2] == pytest.approx(1.0)
        # 1's single neighbor 2 has degree 2.
        assert g.node_features(1)[2] == pytest.approx(2.0)


class TestPairFeatures:
    def test_jaccard(self):
        g = graph_from_paths((1, 3), (2, 3), (1, 4), (2, 5))
        jaccard, _, _ = g.pair_features(1, 2)
        assert jaccard == pytest.approx(1 / 3)

    def test_adamic_adar(self):
        g = graph_from_paths((1, 3), (2, 3), (3, 4))
        _, adamic, _ = g.pair_features(1, 2)
        assert adamic == pytest.approx(1.0 / math.log(3))

    def test_adamic_adar_skips_degree_one(self):
        g = graph_from_paths((1, 3), (2, 3))
        # Common neighbor 3 has degree 2, fine; but if it had degree 1
        # it would be skipped (log 1 = 0).  Check degree 2 case works.
        _, adamic, _ = g.pair_features(1, 2)
        assert adamic == pytest.approx(1.0 / math.log(2))

    def test_preferential_attachment(self):
        g = graph_from_paths((1, 2), (1, 3), (4, 5))
        _, _, pa = g.pair_features(1, 4)
        assert pa == 2.0

    def test_disconnected_pair(self):
        g = graph_from_paths((1, 2))
        assert g.pair_features(8, 9) == (0.0, 0.0, 0.0)


class TestEventFeatureVector:
    def test_dimension(self):
        g1 = graph_from_paths((1, 2, 3))
        g2 = graph_from_paths((1, 4, 3))
        vec = event_feature_vector(g1, g2, 2, 3)
        assert len(vec) == FEATURE_VECTOR_DIM == 15

    def test_identical_graphs_zero_vector(self):
        g1 = graph_from_paths((1, 2, 3))
        g2 = graph_from_paths((1, 2, 3))
        assert event_feature_vector(g1, g2, 2, 3) == [0.0] * 15

    def test_change_reflected(self):
        g1 = graph_from_paths((1, 2, 3))
        g2 = graph_from_paths((1, 3))
        vec = event_feature_vector(g1, g2, 2, 3)
        assert any(v != 0.0 for v in vec)


# -- the unmemoised expressions, frozen as an oracle -------------------------
#
# Verbatim copies of the feature code before any memo beyond the node
# features and edge lengths existed, reading only ``_succ``, ``_pred``
# and ``_weight``.  Run against a graph's own sets they iterate them in
# the same order the memoised code must, so they compare with ``==``
# whatever the hash layout.

def _neighbors(g, node):
    return g._succ.get(node, set()) | g._pred.get(node, set())


def _degree(g, node):
    return len(_neighbors(g, node))


def _undirected_weight(g, a, b):
    return (g._weight.get((a, b), 0) + g._weight.get((b, a), 0))


def reference_nodes(g):
    return {n for n in g._succ if g._succ[n]} | \
           {n for n in g._pred if g._pred[n]}


def reference_distances_from(g, source):
    dist = {source: 0.0}
    heap = [(0.0, source)]
    visited = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        for other in _neighbors(g, node):
            weight = _undirected_weight(g, node, other)
            if weight <= 0 or other in visited:
                continue
            candidate = d + 1.0 / weight
            if candidate < dist.get(other, math.inf):
                dist[other] = candidate
                heapq.heappush(heap, (candidate, other))
    return dist


def _average_neighbor_degree(g, node):
    neighbors = _neighbors(g, node)
    if not neighbors:
        return 0.0
    strength = sum(_undirected_weight(g, node, o) for o in neighbors)
    if strength <= 0:
        return 0.0
    return sum(
        _undirected_weight(g, node, o) * _degree(g, o)
        for o in neighbors
    ) / strength


def _triangles(g, node):
    neighbors = _neighbors(g, node)
    count = 0
    for a in neighbors:
        for b in _neighbors(g, a):
            if b in neighbors and b != node:
                count += 1
    return count // 2


def _clustering(g, node):
    neighbors = sorted(_neighbors(g, node))
    degree = len(neighbors)
    if degree < 2:
        return 0.0
    strength = sum(_undirected_weight(g, node, o) for o in neighbors)
    if strength <= 0:
        return 0.0
    total = 0.0
    for i, a in enumerate(neighbors):
        for b in neighbors[i + 1:]:
            if _undirected_weight(g, a, b) > 0:
                total += (_undirected_weight(g, node, a)
                          + _undirected_weight(g, node, b)) / 2.0
    return total / (strength * (degree - 1))


def reference_node_features(g, node):
    if not _neighbors(g, node):
        return (0.0,) * 6
    dist = reference_distances_from(g, node)
    reachable = [d for other, d in dist.items() if other != node]
    n_nodes = len(reference_nodes(g))
    if reachable:
        total = sum(reachable)
        closeness = (len(reachable) / total if total > 0 else 0.0)
        closeness *= len(reachable) / max(1, n_nodes - 1)
        harmonic = sum(1.0 / d for d in reachable if d > 0)
        eccentricity = max(reachable)
    else:
        closeness = harmonic = eccentricity = 0.0
    return (
        closeness,
        harmonic,
        _average_neighbor_degree(g, node),
        eccentricity,
        float(_triangles(g, node)),
        _clustering(g, node),
    )


def reference_pair_features(g, a, b):
    na, nb = _neighbors(g, a), _neighbors(g, b)
    union = na | nb
    common = na & nb
    jaccard = len(common) / len(union) if union else 0.0
    adamic = sum(
        1.0 / math.log(_degree(g, z))
        for z in common if _degree(g, z) > 1
    )
    return (jaccard, adamic, float(len(na) * len(nb)))


def assert_matches_reference(graph, ases):
    """Every memoised read of ``graph`` equals the oracle's, bit for bit
    and, where order feeds a float sum, in the same order."""
    assert graph.nodes() == reference_nodes(graph)
    for a in ases:
        assert list(graph._neighbors(a)) == list(_neighbors(graph, a))
        assert graph.neighbors(a) is not graph._neighbors(a)
        assert graph.degree(a) == _degree(graph, a)
        assert graph.node_features(a) == reference_node_features(graph, a)
        if graph.neighbors(a):
            assert list(graph.distances_from(a).items()) \
                == list(reference_distances_from(graph, a).items())
        for b in ases:
            assert graph.pair_features(a, b) \
                == reference_pair_features(graph, a, b)


def run_steps(steps, graph=None, check=None):
    """Apply ``(action, slot, path)`` steps, calling ``check(graph,
    installed, touched)`` after each.

    ``again`` re-installs the slot's path, ``prepend`` re-installs it
    with its first AS repeated (same edges), ``readd`` withdraws it and
    installs it back, one step each (its edges disappear and
    reappear).
    """
    graph = RIBGraph() if graph is None else graph
    installed, touched = {}, set()
    for action, slot, path in steps:
        prefix = P[slot]
        if action in ("again", "prepend", "readd") and prefix in installed:
            path = installed[prefix]
            if action == "prepend":
                path = path[:1] + path
            if action == "readd":
                graph.withdraw(prefix)
                check(graph, {p: r for p, r in installed.items()
                              if p != prefix}, touched)
        if action == "withdraw":
            graph.withdraw(prefix)
            touched.update(installed.pop(prefix, ()))
        else:
            graph.install(prefix, path)
            installed[prefix] = path
            touched.update(path)
        check(graph, installed, touched)
    return graph


_ACTIONS = st.sampled_from(
    ["install", "withdraw", "again", "prepend", "readd"])

# ASes below 8 keep every neighbor set free of hash collisions, so a set
# iterates in the same order however it was built up, and a graph
# rebuilt from scratch must agree with the maintained one to the bit.
_ASES = st.integers(min_value=1, max_value=7)
_STEPS = st.lists(
    st.tuples(_ACTIONS,
              st.integers(min_value=0, max_value=len(P) - 1),
              st.lists(_ASES, min_size=1, max_size=5).map(tuple)),
    min_size=1, max_size=25)

# ASes that share hash slots (1, 9, 17, 25 mod 8): taking an edge out
# and putting another in can reorder a neighbor set, so only the
# oracle, which reads the graph's own sets, can be compared with.
_COLLIDING_STEPS = st.lists(
    st.tuples(_ACTIONS,
              st.integers(min_value=0, max_value=len(P) - 1),
              st.lists(st.sampled_from([1, 2, 9, 10, 17, 25, 33, 3]),
                       min_size=1, max_size=5).map(tuple)),
    min_size=1, max_size=25)


class TestMemoInvalidation:
    @settings(max_examples=150, deadline=None)
    @given(steps=_STEPS)
    def test_maintained_graph_equals_rebuilt_graph(self, steps):
        """After every install / withdraw / re-install / prepend /
        withdraw-and-re-add, the features read through the memos equal
        (``==``, not approx) the oracle's on the same graph and those of
        a graph that never held a memo entry."""
        def check(graph, installed, touched):
            assert_matches_reference(graph, sorted(touched))
            rebuilt = RIBGraph.from_routes(
                Route(p, route) for p, route in installed.items())
            assert graph.nodes() == rebuilt.nodes()
            for a in sorted(touched):
                assert graph.neighbors(a) == rebuilt.neighbors(a)
                assert graph.node_features(a) == rebuilt.node_features(a)
                for b in sorted(touched):
                    assert graph.pair_features(a, b) \
                        == rebuilt.pair_features(a, b)

        run_steps(steps, check=check)

    @settings(max_examples=150, deadline=None)
    @given(steps=_COLLIDING_STEPS)
    def test_colliding_neighbor_sets_match_the_oracle(self, steps):
        run_steps(steps, check=lambda graph, installed, touched:
                  assert_matches_reference(graph, sorted(touched)))

    def test_weight_change_edge_readd_and_node_return(self):
        """Scripted: a weight-only change, an edge taken out and put
        back, a node that disappears and reappears — each after every
        feature was read, so a stale memo entry would be served."""
        ases = [1, 2, 3, 4, 5, 9, 17]

        def check(graph, installed, touched):
            assert_matches_reference(graph, ases)

        run_steps([
            ("install", 0, (1, 2, 3)),
            ("install", 1, (2, 3, 4)),
            ("install", 2, (1, 3)),
            ("install", 3, (9, 1, 17)),
            ("install", 4, (1, 2, 3)),      # weights of 1-2, 2-3 only
            ("prepend", 0, ()),
            ("readd", 2, ()),               # 1-3 out and back in
            ("withdraw", 1, ()),            # 4 disappears
            ("install", 5, (4, 3, 2)),      # and comes back elsewhere
            ("install", 3, (17, 1, 9)),     # reversed directions
            ("withdraw", 3, ()),            # 9 and 17 disappear
            ("install", 6, (17, 9, 1)),     # and come back
        ], check=check)

    def test_reinstalling_the_same_edges_keeps_the_memo(self):
        g = graph_from_paths((1, 2, 3), (1, 4))
        features = g.node_features(2)
        g.install(P[0], (1, 2, 3))
        g.install(P[0], (1, 2, 2, 3))       # prepending: same edges
        g.withdraw(P[5])                    # never installed
        assert g.node_features(2) is features
        g.install(P[0], (1, 3))
        assert g.node_features(2) == (0.0,) * 6

    def test_unrelated_changes_keep_local_features(self):
        """A weight change two hops away keeps a node's local
        features; an edge appearing next to a neighbor drops them."""
        g = graph_from_paths((1, 2, 3, 4, 5), (6, 7))
        g.node_features(1)
        local = g._local_memo[1]
        g.install(P[2], (3, 4))             # weight of 3-4 only
        g.install(P[3], (6, 7))             # another component
        g.node_features(1)
        assert g._local_memo[1] is local
        g.install(P[4], (2, 8))             # 2, a neighbor of 1, grows
        assert 1 not in g._local_memo
        assert g.node_features(1) == reference_node_features(g, 1)
