"""
From shared identifiers to administrator communities
====================================================

Build the site-identifier bipartite graphs, project them into the
weighted site-site metagraph, prune to the high-confidence edges and
split the result into communities with Girvan-Newman.
"""

from fractions import Fraction

from adgraph import (
    IdFamily,
    build_bipartite,
    build_metagraph,
    community_size_distribution,
    connected_components,
    girvan_newman,
    intermediary_keys,
    prune_edges,
    without_keys,
)
from adgraph.extractor import IdKind, SiteIdProfile, Source


def profile(domain, **kind_keys):
    keys = {IdKind[k.upper()]: frozenset(v) for k, v in kind_keys.items()}
    sources = {key: frozenset({Source.HTML}) for ks in keys.values() for key in ks}
    return SiteIdProfile(domain, keys, sources)


# The textbook projection example: UA-1000 ties a+b, UA-2000 ties b+c,
# UA-3000 is single-site, and pub-900000009 ties a+b again. Two analytics
# keys live on multiple sites (n=2) and one publisher key does (n=1), so
# weight(a,b) = 1/2 + 1/1 = 3/2 and weight(b,c) = 1/2.
profiles = [
    profile("a.example", tracking={"UA-1000"}, publisher={"pub-900000009"}),
    profile("b.example", tracking={"UA-1000", "UA-2000"}, publisher={"pub-900000009"}),
    profile("c.example", tracking={"UA-2000"}),
    profile("d.example", tracking={"UA-3000"}),
]
# build_bipartite reads the profiles once and returns all three graphs,
# keyed by family; any iterable of profiles will do, a stream included.
graphs = build_bipartite(profiles)
mg = build_metagraph(graphs[IdFamily.PUBLISHER], graphs[IdFamily.ANALYTICS],
                     graphs[IdFamily.CONTAINER])
for (u, v), w in sorted(mg.weights.items()):
    print(f"  {u} -- {v}: {w} (= {float(w)})")

# Connected components of a bipartite graph count site and id nodes both.
for component in connected_components(graphs[IdFamily.ANALYTICS]):
    print("  analytics component:", sorted(component))

# Intermediary platforms (one ID across hundreds of client sites) drown
# the ownership signal; intermediary_keys finds the keys of the graphs that
# exceed a site-count threshold, and without_keys leaves them out.
blog_platform = [profile(f"blog{i:03d}.example", tracking={"UA-5555"}) for i in range(300)]
with_platform = build_bipartite(profiles + blog_platform)
excluded = intermediary_keys(with_platform, threshold=100)
print("\nintermediary keys excluded:", sorted(excluded))
analytics = without_keys(with_platform[IdFamily.ANALYTICS], excluded)
print("analytics sites left:", sorted(analytics.site_nodes))

# Community detection on a graph with two obvious clusters joined by a
# weak bridge. Pruning keeps the heaviest edges (ties at the boundary all
# survive), then Girvan-Newman cuts the bridge first.
# Metagraph.from_weights takes exact weights keyed by (u, v) with u < v.
from adgraph.graphs import Metagraph

cluster_edges = [
    ("r1.example", "r2.example"), ("r2.example", "r3.example"), ("r1.example", "r3.example"),
    ("s1.example", "s2.example"), ("s2.example", "s3.example"), ("s1.example", "s3.example"),
]
weights = {edge: Fraction(1) for edge in cluster_edges}
weights[("r3.example", "s1.example")] = Fraction(1, 10)  # weak bridge
mg2 = Metagraph.from_weights(weights)

pruned = prune_edges(mg2, top_fraction=1.0)  # keep everything for the demo
partition = girvan_newman(pruned)
print("\ncommunities:", [sorted(c) for c in partition.communities])
print("modularity:", float(partition.modularity))
print("size histogram:", community_size_distribution(partition).histogram)
