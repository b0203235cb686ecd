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
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Collection, Iterable, Mapping, Sequence

from .graphs import Edge, Metagraph, _by_size, _component_of, _components

Adjacency = dict[str, set[str]]


@dataclass(frozen=True)
class Partition:
    """Communities (largest first, ties by smallest member) with the quality
    score and the edge-removal trace that produced them."""

    communities: tuple[frozenset[str], ...]
    modularity: Fraction
    dendrogram: tuple[Edge, ...] = ()


def _modularity_term(mg: Metagraph) -> Callable[[Collection[str]], Fraction]:
    """The modularity term of one community of ``mg``: its internal weight
    over the total, less the squared share of the edge ends it holds.

    Node strengths and each node's edges to larger nodes are built once, so
    a term costs as much as its community's edges. Members must be nodes of
    ``mg`` and support ``in``.
    """
    total = mg.total_weight()
    strength = dict.fromkeys(mg.nodes, Fraction(0))
    upper: dict[str, list[tuple[str, Fraction]]] = {n: [] for n in mg.nodes}
    for (u, v), w in mg.weights.items():
        strength[u] += w
        strength[v] += w
        upper[u].append((v, w))

    def term(members: Collection[str]) -> Fraction:
        if total == 0:
            return Fraction(0)
        internal = sum((w for u in members for v, w in upper[u] if v in members), Fraction(0))
        degree = sum((strength[u] for u in members), Fraction(0))
        return internal / total - (degree / (2 * total)) ** 2

    return term


def modularity(mg: Metagraph, communities: Iterable[frozenset[str]]) -> Fraction:
    """Weighted Newman modularity of a node partition, as an exact rational.

    Zero for the trivial one-community partition and for edgeless graphs.
    Nodes outside every community, and community members that are not
    nodes of ``mg``, contribute nothing.
    """
    term = _modularity_term(mg)
    return sum((term(mg.nodes.intersection(c)) for c in communities), Fraction(0))


def prune_edges(mg: Metagraph, top_fraction: float = 0.05) -> Metagraph:
    """Keep the heaviest ceil(top_fraction * E) edges; boundary-weight ties
    all survive; degree-0 nodes are dropped afterwards."""
    if not 0 < top_fraction <= 1:
        raise ValueError("top_fraction must be in (0, 1]")
    if not mg.weights:
        return Metagraph(normalizers=dict(mg.normalizers))
    # From the decimal the caller wrote: in float, 0.07 * 100 rounds up to 8.
    k = math.ceil(Fraction(str(top_fraction)) * len(mg.weights))
    cutoff = sorted(mg.weights.values(), reverse=True)[k - 1]
    kept = {e: w for e, w in mg.weights.items() if w >= cutoff}
    nodes = {n for e in kept for n in e}
    return Metagraph(nodes=nodes, weights=kept, normalizers=dict(mg.normalizers))


# ---------------------------------------------------------------------------
# Edge betweenness (Brandes accumulation in exact integers)
# ---------------------------------------------------------------------------

def _brandes_component(
    adj: Adjacency,
    nodes: Collection[str],
    distances: Mapping[str, Mapping[str, int]] | None = None,
) -> dict[Edge, Fraction]:
    """Edge betweenness restricted to one component's node set.

    Each unordered node pair contributes, once, the fraction of its
    shortest paths crossing the edge. ``distances`` switches from hop
    counting to weighted (Dijkstra) shortest paths.

    The dependencies are scaled by L, a common multiple of every path
    count sigma seen so far, which makes every step an integer: D[w] =
    L/sigma[w] + the sum of D over w's successors, and edge (v, w) gains
    sigma[v] * D[w], that is sigma[v]/sigma[w] * (1 + delta[w]) times L.
    When a source brings a sigma that does not divide L, L and the tallies
    grow by the missing factor. Each edge's tally becomes a Fraction once.
    """
    edges = [(u, v) for u in nodes for v in adj[u] if u < v]
    tally = dict.fromkeys(edges, 0)
    scale = 1
    for s in nodes:
        sigma: dict[str, int] = {s: 1}
        preds: dict[str, list[str]] = {s: []}
        if distances is None:
            order = [s]
            dist = {s: 0}
            for v in order:  # grows while it is walked: breadth-first
                dw, sv = dist[v] + 1, sigma[v]
                for w in adj[v]:
                    seen = dist.get(w)
                    if seen is None:
                        dist[w], sigma[w], preds[w] = dw, sv, [v]
                        order.append(w)
                    elif seen == dw:
                        sigma[w] += sv
                        preds[w].append(v)
        else:
            order = []
            dist = {s: 0}
            done: set[str] = set()
            heap = [(0, s)]
            while heap:
                d, v = heapq.heappop(heap)
                if v in done:
                    continue
                done.add(v)
                order.append(v)
                length = distances[v]
                for w in adj[v]:
                    nd = d + length[w]
                    if w not in dist or nd < dist[w]:
                        dist[w], sigma[w], preds[w] = nd, sigma[v], [v]
                        heapq.heappush(heap, (nd, w))
                    elif nd == dist[w] and w not in done:
                        sigma[w] += sigma[v]
                        preds[w].append(v)
        grown = math.lcm(scale, *sigma.values())
        if grown != scale:
            tally = {e: x * (grown // scale) for e, x in tally.items()}
            scale = grown
        below = dict.fromkeys(order, 0)
        for w in reversed(order):
            dep = scale // sigma[w] + below[w]
            for v in preds[w]:
                tally[(v, w) if v < w else (w, v)] += sigma[v] * dep
                below[v] += dep
    # Each unordered pair was seen from both endpoints, hence the 2.
    return {e: Fraction(x, 2 * scale) for e, x in tally.items()}


def _distances(mg: Metagraph, weighted: bool) -> dict[str, dict[str, int]] | None:
    """Inverse edge weights as distances by node and neighbour, or None for
    the hop metric.

    Every distance is multiplied by one common factor that makes it an
    integer, which changes no comparison and no tie between path lengths.
    """
    if not weighted:
        return None
    scale = math.lcm(*(w.numerator for w in mg.weights.values()))
    out: dict[str, dict[str, int]] = {n: {} for n in mg.nodes}
    for (u, v), w in mg.weights.items():
        out[u][v] = out[v][u] = w.denominator * (scale // w.numerator)
    return out


def edge_betweenness(mg: Metagraph, weighted: bool = False) -> dict[Edge, Fraction]:
    """Betweenness for every metagraph edge.

    Hop-metric shortest paths by default; ``weighted`` uses inverse edge
    weight as distance so heavier (higher-confidence) edges read as closer.
    """
    adj = mg.adjacency()
    distances = _distances(mg, weighted)
    scores: dict[Edge, Fraction] = {}
    for members in _components(adj):
        scores.update(_brandes_component(adj, members, distances))
    return scores


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

    A round costs as much as the component that lost the edge: only its
    betweenness is recomputed, and a split changes modularity by the terms
    of the two new parts less the term of the old one.
    """
    if max_communities is not None and max_communities < 1:
        raise ValueError("max_communities must be >= 1")
    if not mg.nodes:
        return Partition(communities=(), modularity=Fraction(0))
    adj = mg.adjacency()
    distances = _distances(mg, weighted_paths)
    term = _modularity_term(mg)
    # The current parts, each with its modularity term.
    terms = {part: term(part) for part in _components(adj)}
    q = sum(terms.values(), Fraction(0))
    # Strictly-greater comparison keeps the earliest partition on ties.
    best_q, best_parts, best_removals = q, tuple(terms), 0
    removals: list[Edge] = []
    if max_communities is None or len(terms) < max_communities:
        # One entry per component with edges: its top edge by (-score,
        # edge), so the heap's first entry is the graph's. Only the popped
        # component changes in a round, so no entry ever goes stale.
        heap: list[tuple[Fraction, Edge]] = []

        def push_top_edges(components: Iterable[frozenset[str]]) -> None:
            for members in components:
                scores = _brandes_component(adj, members, distances)
                if scores:
                    top = max(scores.values())
                    edge = min(e for e, score in scores.items() if score == top)
                    heapq.heappush(heap, (-top, edge))

        push_top_edges(terms)
        while heap:
            _, (u, v) = heapq.heappop(heap)
            adj[u].discard(v)
            adj[v].discard(u)
            removals.append((u, v))

            comp_u = _component_of(adj, u)
            affected = [comp_u] if v in comp_u else [comp_u, _component_of(adj, v)]
            if len(affected) == 2:  # a split: the old part gives way to the two
                q -= terms.pop(comp_u | affected[1])
                for part in affected:
                    terms[part] = term(part)
                    q += terms[part]
                if max_communities is not None and len(terms) >= max_communities:
                    best_q, best_parts, best_removals = q, tuple(terms), len(removals)
                    break
                if q > best_q:
                    best_q, best_parts, best_removals = q, tuple(terms), len(removals)
            push_top_edges(affected)

    return Partition(
        tuple(sorted(best_parts, key=_by_size)), best_q, tuple(removals[:best_removals])
    )


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
