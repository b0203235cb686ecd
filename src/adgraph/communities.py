"""Metagraph pruning and Girvan-Newman administrator communities.

The metagraph is first reduced to its heaviest edges (top fraction by
weight, boundary ties kept) and their endpoints, then split by
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


def _modularity_term(mg: Metagraph) -> tuple[Callable[[Collection[str]], int], int]:
    """The modularity term of one community of ``mg`` as an integer over a
    scale that the graph fixes, returned with that scale.

    With t the total, i the community's internal and s the summed node
    strength of its members, each an integer numerator of ``mg``, the term
    i/t - (s/2t)^2 is (4ti - s^2) / 4t^2, so the terms of one graph add
    as integers. Node strengths and each node's edges to larger nodes are
    built once, so a term costs as much as its community's edges. Members
    must be nodes of ``mg`` and support ``in``.
    """
    total = sum(mg.numerators.values())
    nodes = mg.nodes
    strength = dict.fromkeys(nodes, 0)
    upper: dict[str, list[tuple[str, int]]] = {n: [] for n in nodes}
    for (u, v), a in mg.numerators.items():
        strength[u] += a
        strength[v] += a
        upper[u].append((v, a))

    def term(members: Collection[str]) -> int:
        internal = sum(a for u in members for v, a in upper[u] if v in members)
        degree = sum(map(strength.__getitem__, members))
        return 4 * total * internal - degree * degree

    # An edgeless graph has only zero terms.
    return term, 4 * total * total or 1


def modularity(mg: Metagraph, communities: Iterable[frozenset[str]]) -> Fraction:
    """Weighted Newman modularity of a node partition, as an exact rational.

    Zero for the trivial one-community partition and for edgeless graphs.
    Nodes outside every community, and community members that are not
    nodes of ``mg``, contribute nothing.
    """
    term, scale = _modularity_term(mg)
    nodes = mg.nodes
    return Fraction(sum(term(nodes.intersection(c)) for c in communities), scale)


def prune_edges(mg: Metagraph, top_fraction: float = 0.05) -> Metagraph:
    """Keep the heaviest ceil(top_fraction * E) edges; boundary-weight ties
    all survive, and so do their endpoints, the pruned graph's nodes."""
    if not 0 < top_fraction <= 1:
        raise ValueError("top_fraction must be in (0, 1]")
    if not mg.numerators:
        return Metagraph(denominator=mg.denominator)
    # From the decimal the caller wrote: in float, 0.07 * 100 rounds up to 8.
    k = math.ceil(Fraction(str(top_fraction)) * len(mg.numerators))
    cutoff = sorted(mg.numerators.values(), reverse=True)[k - 1]
    return Metagraph({e: a for e, a in mg.numerators.items() if a >= cutoff}, mg.denominator)


# ---------------------------------------------------------------------------
# Edge betweenness (Brandes accumulation in exact integers)
# ---------------------------------------------------------------------------

def _brandes_component(
    adj: Adjacency,
    nodes: Collection[str],
    distances: Mapping[str, Mapping[str, int]] | None = None,
) -> tuple[dict[Edge, int], int]:
    """Edge betweenness restricted to one component's node set, as integer
    tallies and the one denominator they share.

    Each unordered node pair contributes, once, the fraction of its
    shortest paths crossing the edge. ``distances`` switches from hop
    counting to weighted (Dijkstra) shortest paths.

    The dependencies are scaled by L, a common multiple of every path
    count sigma seen so far, which makes every step an integer: D[w] =
    L/sigma[w] + the sum of D over w's successors, and edge (v, w) gains
    sigma[v] * D[w], that is sigma[v]/sigma[w] * (1 + delta[w]) times L.
    When a source brings a sigma that does not divide L, L and the tallies
    grow by the missing factor.
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
    return tally, 2 * scale


def _distances(mg: Metagraph, weighted: bool) -> dict[str, dict[str, int]] | None:
    """Inverse edge weights as distances by node and neighbour, or None for
    the hop metric.

    Every distance is multiplied by one common factor, lcm(numerators) /
    denominator, that makes it an integer; that changes no comparison and
    no tie between path lengths.
    """
    if not weighted:
        return None
    scale = math.lcm(*mg.numerators.values())
    out: dict[str, dict[str, int]] = {}
    for (u, v), a in mg.numerators.items():
        out.setdefault(u, {})[v] = out.setdefault(v, {})[u] = scale // a
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
        tally, denominator = _brandes_component(adj, members, distances)
        scores.update((e, Fraction(x, denominator)) for e, x in tally.items())
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
    many communities. Removing every edge leaves one community per node,
    so a ``max_communities`` above the node count raises ValueError.

    A round costs as much as the component that lost the edge: only its
    betweenness is recomputed, and a split changes modularity by the terms
    of the two new parts less the term of the old one.
    """
    if max_communities is not None and max_communities < 1:
        raise ValueError("max_communities must be >= 1")
    adj = mg.adjacency()
    if not adj:
        return Partition(communities=(), modularity=Fraction(0))
    if max_communities is not None and max_communities > len(adj):
        raise ValueError(
            f"max_communities is {max_communities}, more than the graph's {len(adj)} nodes"
        )
    distances = _distances(mg, weighted_paths)
    term, scale = _modularity_term(mg)
    # The current parts, each with its modularity term (over scale).
    terms = {part: term(part) for part in _components(adj)}
    q = sum(terms.values())
    # Strictly-greater comparison keeps the earliest partition on ties.
    best_q, best_parts, best_removals = q, tuple(terms), 0
    removals: list[Edge] = []
    if max_communities is None or len(terms) < max_communities:
        # One entry per component with edges: its top edge by (-score,
        # edge), so the heap's first entry is the graph's. Only the popped
        # component changes in a round, so no entry ever goes stale. The
        # score is keyed as (its rounded float, itself): rounding keeps
        # order, so only equal floats compare the exact Fractions, and
        # equal scores share one Fraction, which compares by identity.
        heap: list[tuple[float, Fraction, Edge]] = []
        exact_of: dict[tuple[int, int], Fraction] = {}  # lowest terms -> -score

        def push_top_edges(components: Iterable[frozenset[str]]) -> None:
            for members in components:
                if len(members) < 2:  # no edge to score
                    continue
                tally, denominator = _brandes_component(adj, members, distances)
                top = max(tally.values())
                edge = min(e for e, x in tally.items() if x == top)
                g = math.gcd(top, denominator)
                key = (top // g, denominator // g)
                exact = exact_of.get(key)
                if exact is None:
                    exact = exact_of[key] = Fraction(-key[0], key[1])
                heapq.heappush(heap, (-top / denominator, exact, edge))

        push_top_edges(terms)
        while heap:
            _, _, (u, v) = heapq.heappop(heap)
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
        tuple(sorted(best_parts, key=_by_size)),
        Fraction(best_q, scale),
        tuple(removals[:best_removals]),
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
