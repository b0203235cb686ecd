from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

import adgraph.communities
import adgraph.graphs
from adgraph.communities import (
    Partition,
    community_size_distribution,
    edge_betweenness,
    girvan_newman,
    modularity,
    prune_edges,
)
from adgraph.graphs import IdFamily, Metagraph, build_bipartite, build_metagraph
from helpers import (
    best_of_replay,
    enumerate_edge_betweenness,
    enumerate_weighted_edge_betweenness,
    girvan_newman_oracle,
    girvan_newman_replay,
    make_profile,
    metagraph_from_edges,
    modularity_oracle,
    prune_reference,
)

TWO_TRIANGLES_BRIDGE = [
    ("A", "B"), ("B", "C"), ("A", "C"),
    ("D", "E"), ("E", "F"), ("D", "F"),
    ("C", "D"),
]


def _adj(mg):
    return mg.adjacency()


def _random_weighted_graph(rng, n, p, weights, prefix="n", connected=False):
    """Edges of a random graph on n nodes with weights drawn from a list;
    ``connected`` adds a random spanning path."""
    nodes = [f"{prefix}{i}" for i in range(n)]
    pairs = {(u, v) for u, v in itertools.combinations(nodes, 2) if rng.random() < p}
    if connected:
        perm = nodes[:]
        rng.shuffle(perm)
        pairs |= {(min(a, b), max(a, b)) for a, b in zip(perm, perm[1:])}
    return [(u, v, rng.choice(weights)) for u, v in sorted(pairs)]


# Small rationals whose inverses (the weighted-path lengths) often tie.
TIE_PRONE_WEIGHTS = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)]


# --- prune_edges ------------------------------------------------------------

def test_prune_distinct_weights_keeps_exact_fraction():
    mg = metagraph_from_edges(
        [(f"a{i:03d}", f"b{i:03d}", Fraction(i + 1)) for i in range(100)]
    )
    # 0.07 * 100 is 7.000000000000001 in float; the exact count is 7.
    for fraction, kept in ((0.05, 5), (0.07, 7)):
        pruned = prune_edges(mg, fraction)
        assert pruned.edge_count == kept
        assert len(pruned.nodes) == 2 * kept  # dangling endpoints dropped
        assert min(pruned.weights.values()) == Fraction(101 - kept)


def test_prune_boundary_ties_all_survive():
    mg = metagraph_from_edges([(f"a{i}", f"b{i}") for i in range(10)])
    assert prune_edges(mg, 0.05).edge_count == 10


def test_prune_fraction_one_is_identity_on_edges():
    mg = metagraph_from_edges([("A", "B", Fraction(1)), ("B", "C", Fraction(2))])
    assert prune_edges(mg, 1.0).weights == mg.weights


def test_prune_empty_graph():
    assert prune_edges(Metagraph(), 0.05).edge_count == 0


def test_prune_survivors_dominate_removed():
    rng = random.Random(8)
    mg = metagraph_from_edges(
        [(f"a{i:03d}", f"b{i:03d}", Fraction(rng.randrange(1, 40), rng.randrange(1, 9)))
         for i in range(60)]
    )
    pruned = prune_edges(mg, 0.1)
    kept = set(pruned.weights)
    removed_weights = [w for e, w in mg.weights.items() if e not in kept]
    assert set(kept) <= set(mg.weights)
    if removed_weights:
        assert min(pruned.weights.values()) >= max(removed_weights)


def test_prune_rejects_bad_fraction():
    with pytest.raises(ValueError):
        prune_edges(Metagraph(), 0.0)
    with pytest.raises(ValueError):
        prune_edges(Metagraph(), 1.5)


# --- edge_betweenness -------------------------------------------------------

def test_path_graph_scores():
    mg = metagraph_from_edges([("A", "B"), ("B", "C")])
    scores = edge_betweenness(mg)
    assert scores[("A", "B")] == Fraction(2)
    assert scores[("B", "C")] == Fraction(2)


def test_triangle_scores():
    mg = metagraph_from_edges([("A", "B"), ("B", "C"), ("A", "C")])
    assert set(edge_betweenness(mg).values()) == {Fraction(1)}


def test_bridge_is_strict_maximum():
    mg = metagraph_from_edges(TWO_TRIANGLES_BRIDGE)
    scores = edge_betweenness(mg)
    bridge = scores[("C", "D")]
    assert all(bridge > s for e, s in scores.items() if e != ("C", "D"))
    assert scores == enumerate_edge_betweenness(_adj(mg))


def test_betweenness_matches_enumeration_on_random_graphs():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randrange(2, 9)
        nodes = [f"n{i}" for i in range(n)]
        edges = [
            (u, v) for u, v in itertools.combinations(nodes, 2) if rng.random() < 0.45
        ]
        if not edges:
            continue
        mg = metagraph_from_edges(edges)
        assert edge_betweenness(mg) == enumerate_edge_betweenness(_adj(mg))


def test_weighted_paths_mode_prefers_heavy_edges():
    # A-B direct (light) vs A-C-B detour (two heavy edges = shorter distances)
    mg = metagraph_from_edges([
        ("A", "B", Fraction(1, 10)),
        ("A", "C", Fraction(1)),
        ("B", "C", Fraction(1)),
    ])
    scores = edge_betweenness(mg, weighted=True)
    assert scores[("A", "C")] > scores[("A", "B")]


def test_weighted_betweenness_matches_enumeration_on_random_graphs():
    rng = random.Random(61)
    for _ in range(60):
        edges = _random_weighted_graph(rng, rng.randrange(2, 8), 0.5, TIE_PRONE_WEIGHTS)
        if not edges:
            continue
        mg = metagraph_from_edges(edges)
        assert edge_betweenness(mg, weighted=True) == enumerate_weighted_edge_betweenness(
            _adj(mg), mg.weights
        )


# --- modularity -------------------------------------------------------------

def test_modularity_single_community_is_zero():
    mg = metagraph_from_edges(TWO_TRIANGLES_BRIDGE)
    assert modularity(mg, [frozenset(mg.nodes)]) == 0


def test_modularity_matches_oracle_on_random_partitions():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randrange(2, 8)
        nodes = [f"n{i}" for i in range(n)]
        edges = [
            (u, v, Fraction(rng.randrange(1, 6), rng.randrange(1, 4)))
            for u, v in itertools.combinations(nodes, 2)
            if rng.random() < 0.5
        ]
        if not edges:
            continue
        mg = metagraph_from_edges(edges)
        labels = [rng.randrange(3) for _ in nodes]
        communities = [
            frozenset(n for n, l in zip(nodes, labels) if l == c) for c in range(3)
        ]
        communities = [c for c in communities if c]
        assert modularity(mg, communities) == modularity_oracle(mg, communities)


# --- girvan_newman ----------------------------------------------------------

def test_two_triangles_split():
    mg = metagraph_from_edges(TWO_TRIANGLES_BRIDGE)
    partition = girvan_newman(mg)
    assert sorted(sorted(c) for c in partition.communities) == [
        ["A", "B", "C"], ["D", "E", "F"],
    ]
    assert partition.modularity > 0
    assert partition.dendrogram[0] == ("C", "D")


def test_disconnected_cliques_returned_unchanged():
    edges = [("A", "B"), ("B", "C"), ("A", "C"), ("X", "Y"), ("Y", "Z"), ("X", "Z")]
    partition = girvan_newman(metagraph_from_edges(edges))
    assert sorted(sorted(c) for c in partition.communities) == [
        ["A", "B", "C"], ["X", "Y", "Z"],
    ]
    assert partition.dendrogram == ()


def test_empty_graph_empty_partition():
    partition = girvan_newman(Metagraph())
    assert partition.communities == ()


def test_max_communities_stops_early():
    mg = metagraph_from_edges(TWO_TRIANGLES_BRIDGE)
    partition = girvan_newman(mg, max_communities=2)
    assert len(partition.communities) == 2
    assert partition.dendrogram == (("C", "D"),)


def test_max_communities_above_the_node_count_raises():
    mg = metagraph_from_edges(
        [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("d", "e"), ("d", "f")]
    )
    assert girvan_newman(mg, max_communities=6).communities == tuple(map(frozenset, "abcdef"))
    for k in (7, 50):
        with pytest.raises(ValueError, match=f"max_communities is {k}, more than the graph's 6"):
            girvan_newman(mg, max_communities=k)
    assert girvan_newman(Metagraph(), max_communities=50) == Partition((), Fraction(0))


def test_gn_matches_oracle_on_named_fixtures():
    fixtures = {
        "two_triangles_bridge": TWO_TRIANGLES_BRIDGE,
        "path6": [(f"p{i}", f"p{i+1}") for i in range(5)],
        "star7": [("hub", f"leaf{i}") for i in range(6)],
        "two_cliques": [
            ("A", "B"), ("B", "C"), ("A", "C"),
            ("X", "Y"), ("Y", "Z"), ("X", "Z"),
        ],
    }
    for name, edges in fixtures.items():
        mg = metagraph_from_edges(edges)
        partition = girvan_newman(mg)
        oracle_parts, oracle_q = girvan_newman_oracle(mg)
        assert tuple(sorted(partition.communities, key=lambda c: (-len(c), min(c)))) == oracle_parts, name
        assert partition.modularity == oracle_q, name


def test_gn_matches_oracle_on_random_connected_graphs():
    rng = random.Random(41)
    done = 0
    while done < 30:
        n = rng.randrange(3, 9)
        nodes = [f"n{i}" for i in range(n)]
        edges = {(u, v) for u, v in itertools.combinations(nodes, 2) if rng.random() < 0.4}
        # force connectivity with a random spanning path
        perm = nodes[:]
        rng.shuffle(perm)
        edges |= {(min(a, b), max(a, b)) for a, b in zip(perm, perm[1:])}
        mg = metagraph_from_edges(sorted(edges))
        partition = girvan_newman(mg)
        oracle_parts, oracle_q = girvan_newman_oracle(mg)
        assert tuple(sorted(partition.communities, key=lambda c: (-len(c), min(c)))) == oracle_parts
        assert partition.modularity == oracle_q
        done += 1


def test_gn_matches_oracle_on_weighted_forests():
    rng = random.Random(53)
    for _ in range(25):
        edges = []
        for c in range(rng.randint(1, 3)):
            edges += _random_weighted_graph(
                rng, rng.randrange(2, 7), 0.4,
                [Fraction(rng.randrange(1, 6), rng.randrange(1, 4)) for _ in range(4)],
                prefix=f"c{c}n", connected=True,
            )
        mg = metagraph_from_edges(edges)
        candidates = girvan_newman_replay(mg)
        partition = girvan_newman(mg)
        assert partition == Partition(*best_of_replay(mg, candidates))
        assert partition.modularity == modularity_oracle(mg, partition.communities)
        for k in range(1, len(mg.nodes) + 1):
            parts, removals = next(c for c in candidates if len(c[0]) >= k)
            assert girvan_newman(mg, max_communities=k) == Partition(
                parts, modularity_oracle(mg, parts), removals
            )


def test_gn_weighted_paths_matches_oracle_replay():
    rng = random.Random(67)
    for _ in range(30):
        edges = _random_weighted_graph(rng, rng.randrange(3, 8), 0.5, TIE_PRONE_WEIGHTS)
        if not edges:
            continue
        mg = metagraph_from_edges(edges)
        candidates = girvan_newman_replay(
            mg, lambda adj: enumerate_weighted_edge_betweenness(adj, mg.weights)
        )
        assert girvan_newman(mg, weighted_paths=True) == Partition(*best_of_replay(mg, candidates))


def test_gn_deterministic():
    mg1 = metagraph_from_edges(TWO_TRIANGLES_BRIDGE)
    mg2 = metagraph_from_edges(list(reversed(TWO_TRIANGLES_BRIDGE)))
    assert girvan_newman(mg1) == girvan_newman(mg2)


def test_gn_modularity_at_least_trivial_when_positive_split_exists():
    mg = metagraph_from_edges(TWO_TRIANGLES_BRIDGE)
    partition = girvan_newman(mg)
    assert partition.modularity >= 0


# --- integer weights against the Fraction oracles ----------------------------

def _mixed_weight(rng):
    """A positive rational whose denominator is a small integer, a power of
    ten (a decimal read from metagraph.csv) or the lcm of two family
    normalizers (a built weight c1/n1 + c2/n2)."""
    kind = rng.randrange(3)
    if kind == 0:
        return Fraction(rng.randrange(1, 12), rng.choice([1, 2, 3, 5, 7, 12]))
    if kind == 1:
        return Fraction(repr(rng.randrange(1, 10**6) / 10 ** rng.randrange(7)))
    n1, n2 = rng.sample([2, 3, 4, 5, 6, 7, 9, 11], 2)
    return Fraction(rng.randrange(1, 3), n1) + Fraction(rng.randrange(1, 3), n2)


def test_integer_weights_match_fraction_oracles_on_mixed_denominators():
    """Pruning, modularity, both betweenness metrics and Girvan-Newman on
    integer numerators over one denominator agree with the oracles, which
    work on the Fraction weights."""
    rng = random.Random(71)
    for _ in range(40):
        pool = [_mixed_weight(rng) for _ in range(rng.randrange(1, 5))]  # few values: ties
        edges = _random_weighted_graph(rng, rng.randrange(2, 8), 0.5, pool)
        if not edges:
            continue
        weights = {(u, v): w for u, v, w in edges}
        mg = metagraph_from_edges(edges)
        assert mg.denominator == math.lcm(*(w.denominator for w in weights.values()))
        assert mg.weights == weights
        for top_fraction in (0.05, 0.3, 0.5, 1.0):
            pruned = prune_edges(mg, top_fraction)
            kept = prune_reference(weights, top_fraction)
            assert pruned.weights == kept
            assert pruned.nodes == {n for e in kept for n in e}
        adj = _adj(mg)
        assert edge_betweenness(mg) == enumerate_edge_betweenness(adj)
        assert edge_betweenness(mg, weighted=True) == enumerate_weighted_edge_betweenness(
            adj, weights
        )
        nodes = sorted(mg.nodes)
        labels = [rng.randrange(3) for _ in nodes]
        communities = [frozenset(n for n, l in zip(nodes, labels) if l == c) for c in range(3)]
        assert modularity(mg, communities) == modularity_oracle(mg, communities)
        assert girvan_newman(mg) == Partition(*best_of_replay(mg, girvan_newman_replay(mg)))
        replay = girvan_newman_replay(
            mg, lambda adj: enumerate_weighted_edge_betweenness(adj, weights)
        )
        assert girvan_newman(mg, weighted_paths=True) == Partition(*best_of_replay(mg, replay))


def test_graph_stage_builds_no_fraction_per_edge(monkeypatch):
    """build_metagraph and prune_edges build no Fraction per edge, and
    Girvan-Newman at most one per component it scores."""
    built, scored = [], []

    def counting_fraction(*args):
        built.append(args)
        return Fraction(*args)

    def counting_brandes(*args):
        scored.append(args)
        return brandes(*args)

    brandes = adgraph.communities._brandes_component
    monkeypatch.setattr(adgraph.graphs, "Fraction", counting_fraction)
    monkeypatch.setattr(adgraph.communities, "Fraction", counting_fraction)
    monkeypatch.setattr(adgraph.communities, "_brandes_component", counting_brandes)
    rng = random.Random(5)
    profiles = [
        make_profile(f"g{g}s{i}.example", publisher={f"pub-{g}"},
                     tracking={f"UA-{g}-{i % 2}", f"UA-{rng.randrange(20)}"})
        for g in range(12) for i in range(rng.randrange(3, 8))
    ]
    bgs = build_bipartite(profiles)
    mg = build_metagraph(bgs[IdFamily.PUBLISHER], bgs[IdFamily.ANALYTICS], bgs[IdFamily.CONTAINER])
    pruned = prune_edges(mg, 0.5)
    assert mg.edge_count > 100 and pruned.edge_count > 50
    assert len(built) <= 1  # prune's exact top_fraction
    built.clear()
    girvan_newman(pruned)
    assert len(built) <= len(scored) + 1  # one per scored component, plus the modularity


# --- size distribution ------------------------------------------------------

def test_size_distribution_pair_fraction():
    communities = [frozenset({f"a{i}", f"b{i}"}) for i in range(3)]
    communities.append(frozenset({"x", "y", "z"}))
    communities.append(frozenset({"p", "q", "r", "s", "t"}))
    dist = community_size_distribution(communities)
    assert dist.histogram == {2: 3, 3: 1, 5: 1}
    assert dist.pair_fraction == 0.6


def test_size_distribution_single_community():
    dist = community_size_distribution([frozenset({"a", "b", "c"})])
    assert dist.histogram == {3: 1} and dist.pair_fraction == 0.0


def test_size_distribution_from_two_triangle_partition():
    partition = girvan_newman(metagraph_from_edges(TWO_TRIANGLES_BRIDGE))
    assert community_size_distribution(partition).histogram == {3: 2}
