"""Per-VP RIB graphs and the 15 topological features of Table 6 (§18.2).

Each VP's RIB induces a directed weighted AS graph ``G_v(t)``: nodes are
ASes, an edge follows each consecutive AS pair of a best path, and the
weight counts how many routes traverse the edge.  GILL quantifies how a
VP experienced an event by differencing feature values computed on the
graphs at the event's start and end.

Six node-based features (computed for each of the event's two ASes) and
three pair-based features yield the 15-dimensional vector ``T(v, e)``.
Distance-based features use the undirected projection with edge length
``1 / weight`` (heavier edges are "closer"); direction is preserved for
graph identity, as two identical paths in opposite directions must not
look redundant (§18).
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from ..bgp.message import BGPUpdate
from ..bgp.prefix import Prefix
from ..bgp.rib import Route

#: Feature names by Table-6 index.
FEATURE_NAMES = (
    "closeness_centrality",        # 0, node, weighted
    "harmonic_centrality",         # 1, node, weighted
    "average_neighbor_degree",     # 2, node, weighted
    "eccentricity",                # 3, node, weighted
    "triangles",                   # 4, node, unweighted
    "clustering",                  # 5, node, weighted
    "jaccard",                     # 6, pair, unweighted
    "adamic_adar",                 # 7, pair, unweighted
    "preferential_attachment",     # 8, pair, unweighted
)

N_NODE_FEATURES = 6
N_PAIR_FEATURES = 3
#: 6 node features x 2 ASes + 3 pair features.
FEATURE_VECTOR_DIM = 2 * N_NODE_FEATURES + N_PAIR_FEATURES


class RIBGraph:
    """The directed weighted AS graph of one VP's RIB."""

    def __init__(self) -> None:
        self._weight: Dict[Tuple[int, int], int] = {}
        self._succ: Dict[int, Set[int]] = defaultdict(set)
        self._pred: Dict[int, Set[int]] = defaultdict(set)
        # Per-prefix installed path, so updates can be diffed out.
        self._paths: Dict[Prefix, Tuple[int, ...]] = {}
        # Memos of derived values, valid for one state of the edge
        # multiset: ``_replace_edges`` is the only writer of the three
        # maps above and the only place these are dropped.  A node's
        # features depend on the whole graph (distances), so any change
        # clears them all; the edge lengths around a node depend only
        # on its own incident edges, so those drop per endpoint.
        # Values are the results of the unmemoised expressions, held
        # rather than re-evaluated: same neighbor order, same float
        # operations in the same order.
        self._node_memo: Dict[int, Tuple[float, ...]] = {}
        self._length_memo: Dict[int, List[Tuple[int, float]]] = {}

    # -- maintenance ---------------------------------------------------------

    @staticmethod
    def _edges(path: Sequence[int]) -> Tuple[Tuple[int, int], ...]:
        return tuple((path[i], path[i + 1]) for i in range(len(path) - 1)
                     if path[i] != path[i + 1])

    def _replace_edges(self, old: Tuple[Tuple[int, int], ...],
                       new: Tuple[Tuple[int, int], ...]) -> None:
        """Take one path's edges out and put another's in.

        Equal edge sequences leave the graph, and every memo, as they
        are: re-announcing the installed path is the common case on a
        redundant feed, and it changes nothing a feature can see.
        """
        if old == new:
            return
        for edge in old:
            count = self._weight.get(edge, 0) - 1
            if count > 0:
                self._weight[edge] = count
            else:
                self._weight.pop(edge, None)
                self._succ[edge[0]].discard(edge[1])
                self._pred[edge[1]].discard(edge[0])
        for edge in new:
            self._weight[edge] = self._weight.get(edge, 0) + 1
            self._succ[edge[0]].add(edge[1])
            self._pred[edge[1]].add(edge[0])
        self._node_memo.clear()
        for edge in old + new:
            self._length_memo.pop(edge[0], None)
            self._length_memo.pop(edge[1], None)

    def install(self, prefix: Prefix, path: Tuple[int, ...]) -> None:
        """Install (or replace) the path for a prefix."""
        previous = self._paths.get(prefix, ())
        self._paths[prefix] = path
        self._replace_edges(self._edges(previous), self._edges(path))

    def withdraw(self, prefix: Prefix) -> None:
        self._replace_edges(self._edges(self._paths.pop(prefix, ())), ())

    def apply_update(self, update: BGPUpdate) -> None:
        if update.is_withdrawal:
            self.withdraw(update.prefix)
        else:
            self.install(update.prefix, update.as_path)

    @classmethod
    def from_routes(cls, routes: Iterable[Route]) -> "RIBGraph":
        graph = cls()
        for route in routes:
            graph.install(route.prefix, route.as_path)
        return graph

    # -- basic queries ----------------------------------------------------------

    def nodes(self) -> Set[int]:
        return {n for n in self._succ if self._succ[n]} | \
               {n for n in self._pred if self._pred[n]}

    def has_edge(self, a: int, b: int) -> bool:
        return (a, b) in self._weight

    def edge_weight(self, a: int, b: int) -> int:
        return self._weight.get((a, b), 0)

    def edge_count(self) -> int:
        return len(self._weight)

    def neighbors(self, node: int) -> Set[int]:
        """Undirected neighborhood."""
        return self._succ.get(node, set()) | self._pred.get(node, set())

    def degree(self, node: int) -> int:
        return len(self.neighbors(node))

    def weighted_degree(self, node: int) -> float:
        total = 0.0
        for other in self._succ.get(node, ()):
            total += self._weight.get((node, other), 0)
        for other in self._pred.get(node, ()):
            total += self._weight.get((other, node), 0)
        return total

    def _undirected_weight(self, a: int, b: int) -> float:
        return (self._weight.get((a, b), 0) + self._weight.get((b, a), 0))

    def _lengths(self, node: int) -> List[Tuple[int, float]]:
        """``(neighbor, 1 / undirected weight)`` in ``neighbors(node)``
        iteration order — what one Dijkstra step relaxes."""
        found = self._length_memo.get(node)
        if found is None:
            found = self._length_memo[node] = []
            for other in self.neighbors(node):
                weight = self._undirected_weight(node, other)
                if weight > 0:
                    found.append((other, 1.0 / weight))
        return found

    # -- distances ---------------------------------------------------------------

    def distances_from(self, source: int) -> Dict[int, float]:
        """Weighted shortest-path distances on the undirected projection,
        with edge length 1/weight."""
        dist: Dict[int, float] = {source: 0.0}
        heap: List[Tuple[float, int]] = [(0.0, source)]
        visited: Set[int] = set()
        lengths, known = self._lengths, dist.get
        pop, push, inf = heapq.heappop, heapq.heappush, math.inf
        while heap:
            d, node = pop(heap)
            if node in visited:
                continue
            visited.add(node)
            for other, length in lengths(node):
                if other in visited:
                    continue
                candidate = d + length
                if candidate < known(other, inf):
                    dist[other] = candidate
                    push(heap, (candidate, other))
        return dist

    # -- node features (Table 6, indices 0-5) ------------------------------------

    def node_features(self, node: int) -> Tuple[float, ...]:
        """The 6 node-based features for one AS.

        A node absent from the graph gets all-zero features, which makes
        event differencing well-defined when an AS (dis)appears.
        """
        found = self._node_memo.get(node)
        if found is None:
            found = self._node_memo[node] = self._node_features(node)
        return found

    def _node_features(self, node: int) -> Tuple[float, ...]:
        if not self.neighbors(node):
            return (0.0,) * N_NODE_FEATURES
        dist = self.distances_from(node)
        reachable = [d for other, d in dist.items() if other != node]
        n_nodes = len(self.nodes())
        if reachable:
            total = sum(reachable)
            closeness = (len(reachable) / total if total > 0 else 0.0)
            # Wasserman-Faust scaling keeps values comparable across
            # graphs with different reachable-set sizes.
            closeness *= len(reachable) / max(1, n_nodes - 1)
            harmonic = sum(1.0 / d for d in reachable if d > 0)
            eccentricity = max(reachable)
        else:
            closeness = harmonic = eccentricity = 0.0
        return (
            closeness,
            harmonic,
            self._average_neighbor_degree(node),
            eccentricity,
            float(self._triangles(node)),
            self._clustering(node),
        )

    def _average_neighbor_degree(self, node: int) -> float:
        """Weighted average neighbor degree (Barrat et al.)."""
        neighbors = self.neighbors(node)
        if not neighbors:
            return 0.0
        strength = sum(self._undirected_weight(node, o) for o in neighbors)
        if strength <= 0:
            return 0.0
        return sum(
            self._undirected_weight(node, o) * self.degree(o)
            for o in neighbors
        ) / strength

    def _triangles(self, node: int) -> int:
        neighbors = self.neighbors(node)
        count = 0
        for a in neighbors:
            for b in self.neighbors(a):
                if b in neighbors and b != node:
                    count += 1
        return count // 2

    def _clustering(self, node: int) -> float:
        """Weighted clustering coefficient (Barrat et al. [54])."""
        neighbors = sorted(self.neighbors(node))
        degree = len(neighbors)
        if degree < 2:
            return 0.0
        strength = sum(self._undirected_weight(node, o) for o in neighbors)
        if strength <= 0:
            return 0.0
        total = 0.0
        for i, a in enumerate(neighbors):
            for b in neighbors[i + 1:]:
                if self._undirected_weight(a, b) > 0:
                    total += (self._undirected_weight(node, a)
                              + self._undirected_weight(node, b)) / 2.0
        return total / (strength * (degree - 1))

    # -- pair features (Table 6, indices 6-8) -------------------------------------

    def pair_features(self, a: int, b: int) -> Tuple[float, ...]:
        """Jaccard, Adamic-Adar, preferential attachment for an AS pair."""
        na, nb = self.neighbors(a), self.neighbors(b)
        union = na | nb
        common = na & nb
        jaccard = len(common) / len(union) if union else 0.0
        adamic = sum(
            1.0 / math.log(self.degree(z))
            for z in common if self.degree(z) > 1
        )
        return (jaccard, adamic, float(len(na) * len(nb)))


def event_feature_vector(graph_start: RIBGraph, graph_end: RIBGraph,
                         as1: int, as2: int) -> List[float]:
    """``T(v, e)``: the 15-dim start-minus-end feature difference (§18.2)."""
    vector: List[float] = []
    start1 = graph_start.node_features(as1)
    end1 = graph_end.node_features(as1)
    start2 = graph_start.node_features(as2)
    end2 = graph_end.node_features(as2)
    for i in range(N_NODE_FEATURES):
        vector.append(start1[i] - end1[i])
        vector.append(start2[i] - end2[i])
    pair_start = graph_start.pair_features(as1, as2)
    pair_end = graph_end.pair_features(as1, as2)
    vector.extend(s - e for s, e in zip(pair_start, pair_end))
    return vector
