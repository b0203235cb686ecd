"""Metagraph pruning and Girvan-Newman administrator communities.

The metagraph is first reduced to its heaviest edges (top fraction by
weight, boundary ties kept, dangling nodes dropped), then split by
iteratively removing the highest-betweenness edge. Betweenness uses hop
metric shortest paths by default (weights express confidence, not
distance) and exact rational arithmetic throughout, so tie-breaking and
the modularity-maximal cut are fully deterministic.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .graphs import Edge, Metagraph, _by_size, _component_of, _components, _edge

Adjacency = dict[str, set[str]]


@dataclass(frozen=True)
class Partition:
    """Communities (largest first, ties by smallest member) with the quality
    score and the edge-removal trace that produced them."""

    communities: tuple[frozenset[str], ...]
    modularity: Fraction
    dendrogram: tuple[Edge, ...] = ()

    @property
    def sizes(self) -> list[int]:
        return [len(c) for c in self.communities]


def modularity(mg: Metagraph, communities: Iterable[frozenset[str]]) -> Fraction:
    """Weighted Newman modularity of a node partition, as an exact rational.

    Zero for the trivial one-community partition and for edgeless graphs.
    Nodes outside every community contribute nothing.
    """
    total = mg.total_weight()
    if total == 0:
        return Fraction(0)
    community_of: dict[str, int] = {}
    n_communities = 0
    for idx, community in enumerate(communities):
        for node in community:
            community_of[node] = idx
        n_communities = idx + 1
    internal = [Fraction(0)] * n_communities
    degree_sum = [Fraction(0)] * n_communities
    for (u, v), w in mg.weights.items():
        cu = community_of.get(u)
        cv = community_of.get(v)
        if cu is not None:
            degree_sum[cu] += w
        if cv is not None:
            degree_sum[cv] += w
        if cu is not None and cu == cv:
            internal[cu] += w
    q = Fraction(0)
    for idx in range(n_communities):
        q += internal[idx] / total - (degree_sum[idx] / (2 * total)) ** 2
    return q


def prune_edges(mg: Metagraph, top_fraction: float = 0.05) -> Metagraph:
    """Keep the heaviest ceil(top_fraction * E) edges; boundary-weight ties
    all survive; degree-0 nodes are dropped afterwards."""
    if not 0 < top_fraction <= 1:
        raise ValueError("top_fraction must be in (0, 1]")
    if not mg.weights:
        return Metagraph(normalizers=dict(mg.normalizers))
    k = math.ceil(top_fraction * len(mg.weights))
    cutoff = sorted(mg.weights.values(), reverse=True)[k - 1]
    kept = {e: w for e, w in mg.weights.items() if w >= cutoff}
    nodes = {n for e in kept for n in e}
    return Metagraph(nodes=nodes, weights=kept, normalizers=dict(mg.normalizers))


# ---------------------------------------------------------------------------
# Edge betweenness (Brandes accumulation, exact fractions)
# ---------------------------------------------------------------------------

def _brandes_component(
    adj: Adjacency,
    nodes: Iterable[str],
    distances: Mapping[Edge, Fraction] | None = None,
) -> dict[Edge, Fraction]:
    """Edge betweenness restricted to one component's node set.

    Each unordered node pair contributes, once, the fraction of its
    shortest paths crossing the edge. ``distances`` switches from hop
    counting to weighted (Dijkstra) shortest paths.
    """
    nodes = sorted(nodes)
    scores: dict[Edge, Fraction] = {}
    for u in nodes:
        for v in adj[u]:
            if u < v:
                scores[(u, v)] = Fraction(0)
    for s in nodes:
        sigma: dict[str, int] = {s: 1}
        preds: dict[str, list[str]] = {s: []}
        order: list[str] = []
        if distances is None:
            dist: dict[str, int] = {s: 0}
            queue: deque[str] = deque([s])
            while queue:
                v = queue.popleft()
                order.append(v)
                for w in sorted(adj[v]):
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        sigma[w] = 0
                        preds[w] = []
                        queue.append(w)
                    if dist[w] == dist[v] + 1:
                        sigma[w] += sigma[v]
                        preds[w].append(v)
        else:
            fdist: dict[str, Fraction] = {}
            done: set[str] = set()
            heap: list[tuple[Fraction, str]] = [(Fraction(0), s)]
            fdist[s] = Fraction(0)
            while heap:
                d, v = heapq.heappop(heap)
                if v in done:
                    continue
                done.add(v)
                order.append(v)
                for w in sorted(adj[v]):
                    nd = d + distances[_edge(v, w)]
                    if w not in fdist or nd < fdist[w]:
                        fdist[w] = nd
                        sigma[w] = sigma[v]
                        preds[w] = [v]
                        heapq.heappush(heap, (nd, w))
                    elif nd == fdist[w] and w not in done:
                        sigma[w] += sigma[v]
                        preds[w].append(v)
        delta: dict[str, Fraction] = {v: Fraction(0) for v in order}
        for w in reversed(order):
            for v in preds[w]:
                c = Fraction(sigma[v], sigma[w]) * (1 + delta[w])
                scores[_edge(v, w)] += c
                delta[v] += c
    # Each unordered pair was seen from both endpoints.
    return {e: sc / 2 for e, sc in scores.items()}


def _betweenness(
    adj: Adjacency,
    components: Iterable[frozenset[str]],
    distances: Mapping[Edge, Fraction] | None,
) -> dict[Edge, Fraction]:
    """Brandes scores of every edge inside the given components."""
    scores: dict[Edge, Fraction] = {}
    for members in components:
        scores.update(_brandes_component(adj, members, distances))
    return scores


def _distances(mg: Metagraph, weighted: bool) -> dict[Edge, Fraction] | None:
    """Inverse edge weights as distances, or None for the hop metric."""
    return {e: 1 / w for e, w in mg.weights.items()} if weighted else None


def edge_betweenness(mg: Metagraph, weighted: bool = False) -> dict[Edge, Fraction]:
    """Betweenness for every metagraph edge.

    Hop-metric shortest paths by default; ``weighted`` uses inverse edge
    weight as distance so heavier (higher-confidence) edges read as closer.
    """
    adj = mg.adjacency()
    return _betweenness(adj, _components(adj), _distances(mg, weighted))


# ---------------------------------------------------------------------------
# Girvan-Newman
# ---------------------------------------------------------------------------

def girvan_newman(
    mg: Metagraph,
    max_communities: int | None = None,
    weighted_paths: bool = False,
) -> Partition:
    """Divisive community detection on a (pruned) metagraph.

    Removes the highest-betweenness edge each round (ties: smallest
    endpoint pair), recording the partition whenever the component count
    grows, and returns the recorded partition of maximal modularity
    (earliest on ties), scored against the input graph with weights.
    ``max_communities`` instead returns the first partition reaching that
    many communities.
    """
    if max_communities is not None and max_communities < 1:
        raise ValueError("max_communities must be >= 1")
    if not mg.nodes:
        return Partition(communities=(), modularity=Fraction(0))
    adj = mg.adjacency()
    distances = _distances(mg, weighted_paths)

    parts = tuple(_components(adj))
    # Candidates are scored as they appear so only the best is retained;
    # strictly-greater comparison keeps the earliest partition on ties.
    best = Partition(parts, modularity(mg, parts))
    if max_communities is not None and len(parts) >= max_communities:
        return best

    scores = _betweenness(adj, parts, distances)
    removals: list[Edge] = []
    while scores:
        u, v = min(scores, key=lambda e: (-scores[e], e))
        del scores[(u, v)]
        adj[u].discard(v)
        adj[v].discard(u)
        removals.append((u, v))

        # Removal only perturbs the component that held the edge.
        comp_u = _component_of(adj, u)
        split = v not in comp_u
        affected = [comp_u, _component_of(adj, v)] if split else [comp_u]
        held = frozenset().union(*affected)
        for e in [e for e in scores if e[0] in held]:
            del scores[e]
        scores.update(_betweenness(adj, affected, distances))

        if split:
            parts = tuple(sorted([p for p in parts if u not in p] + affected, key=_by_size))
            q = modularity(mg, parts)
            if max_communities is not None and len(parts) >= max_communities:
                return Partition(parts, q, tuple(removals))
            if q > best.modularity:
                best = Partition(parts, q, tuple(removals))

    return best


@dataclass(frozen=True)
class SizeDistribution:
    histogram: dict[int, int]
    pair_fraction: float

    def to_json_obj(self) -> dict:
        return {
            "histogram": {str(size): count for size, count in sorted(self.histogram.items())},
            "pair_fraction": self.pair_fraction,
        }


def community_size_distribution(partition: Partition | Sequence[frozenset[str]]) -> SizeDistribution:
    """Counts per community size, plus the share of two-site communities."""
    communities = partition.communities if isinstance(partition, Partition) else tuple(partition)
    histogram: dict[int, int] = {}
    for c in communities:
        histogram[len(c)] = histogram.get(len(c), 0) + 1
    pairs = histogram.get(2, 0)
    total = len(communities)
    return SizeDistribution(histogram=histogram, pair_fraction=pairs / total if total else 0.0)
