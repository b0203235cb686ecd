"""Site-identifier bipartite graphs and the weighted site-site metagraph.

Three bipartite graphs (one per identifier family; Tracking and Measurement
share the analytics family) project into an undirected metagraph: every
identifier shared by two sites adds 1/n to their edge weight, where n is
the number of distinct identifiers of that family found on more than one
site. Weights are exact rationals so downstream pruning ties are exact:
all weights of a graph are integer numerators over one shared denominator.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType
from typing import IO, Any, Collection, Iterable, Mapping

from .corpus import _read_table
from .extractor import IdKind, SiteIdProfile


class IdFamily(enum.Enum):
    PUBLISHER = "publisher"
    ANALYTICS = "analytics"
    CONTAINER = "container"


KINDS_OF_FAMILY: dict[IdFamily, tuple[IdKind, ...]] = {
    IdFamily.PUBLISHER: (IdKind.PUBLISHER,),
    IdFamily.ANALYTICS: (IdKind.TRACKING, IdKind.MEASUREMENT),
    IdFamily.CONTAINER: (IdKind.CONTAINER,),
}

Edge = tuple[str, str]


@dataclass
class BipartiteGraph:
    """Site -> identifier edges for one identifier family, held as the set
    of sites of each identifier."""

    family: IdFamily
    key_to_sites: dict[str, frozenset[str]] = field(default_factory=dict)

    @property
    def site_nodes(self) -> set[str]:
        return set().union(*self.key_to_sites.values())

    @property
    def id_nodes(self) -> set[str]:
        return set(self.key_to_sites)

    @property
    def edge_count(self) -> int:
        return sum(len(v) for v in self.key_to_sites.values())

    def edges(self) -> list[tuple[str, str]]:
        """Every (site, key) pair, sorted."""
        return sorted((site, key) for key, sites in self.key_to_sites.items() for site in sites)


@dataclass(eq=False)
class Metagraph:
    """Undirected, rationally-weighted site-site graph: its edges, and
    their endpoints as its nodes.

    Edge (u, v), with u < v, weighs ``numerators[(u, v)] / denominator``:
    every weight shares the one positive integer denominator, so sums and
    comparisons of weights stay in integers. ``weights`` reads them as
    Fractions; ``from_weights`` builds a graph from Fractions.
    """

    numerators: dict[Edge, int] = field(default_factory=dict)
    denominator: int = 1

    @classmethod
    def from_weights(cls, weights: Mapping[Edge, Fraction | int]) -> Metagraph:
        """The graph of the given positive rational edge weights, keyed by
        (u, v) with u < v. Its denominator is the lcm of the weights'
        denominators."""
        exact = {e: Fraction(w) for e, w in weights.items()}
        for (u, v), w in exact.items():
            if not u < v:
                raise ValueError(f"metagraph edges need u < v, got {u!r},{v!r}")
            if w <= 0:
                raise ValueError(f"edge {u},{v} has weight {w}, which is not positive")
        denominator = math.lcm(*(w.denominator for w in exact.values()))
        return cls(
            {e: w.numerator * (denominator // w.denominator) for e, w in exact.items()},
            denominator,
        )

    @property
    def nodes(self) -> set[str]:
        return {n for e in self.numerators for n in e}

    @property
    def weights(self) -> Mapping[Edge, Fraction]:
        d = self.denominator
        return MappingProxyType({e: Fraction(a, d) for e, a in self.numerators.items()})

    @property
    def edge_count(self) -> int:
        return len(self.numerators)

    def adjacency(self) -> dict[str, set[str]]:
        adj: dict[str, set[str]] = {}
        for u, v in self.numerators:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        return adj

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Metagraph):
            return NotImplemented
        return self.weights == other.weights


def _shared_keys(key_to_sites: Mapping[str, Collection[str]]) -> int:
    """The number of keys carried by more than one site."""
    return sum(1 for sites in key_to_sites.values() if len(sites) > 1)


def build_bipartite(
    profiles: Iterable[SiteIdProfile], families: Collection[IdFamily] = tuple(IdFamily)
) -> dict[IdFamily, BipartiteGraph]:
    """The bipartite graph of each of ``families`` (default: all three), in
    one pass over the profiles; the keys of other families are skipped.

    Each graph has one site node per profile with at least one key in the
    family, one id node per distinct canonical key, and one edge per
    (site, key) pair; a key found under two kinds of one family counts
    once. ``without_keys`` leaves keys out afterwards.
    """
    maps: dict[IdFamily, dict[str, Any]] = {family: {} for family in families}
    map_of_kind = {kind: maps[f] for f in maps for kind in KINDS_OF_FAMILY[f]}
    for p in profiles:
        domain = p.landing_domain
        for kind, keys in p.keys.items():
            key_to_sites = map_of_kind.get(kind)
            if key_to_sites is not None:
                for key in keys:
                    key_to_sites.setdefault(key, set()).add(domain)
    # In place, so a family never holds a key's set and its frozenset at once.
    for key_to_sites in maps.values():
        for key, sites in key_to_sites.items():
            key_to_sites[key] = frozenset(sites)
    return {family: BipartiteGraph(family, key_to_sites) for family, key_to_sites in maps.items()}


def without_keys(graph: BipartiteGraph, excluded: Collection[str]) -> BipartiteGraph:
    """The graph without the keys in ``excluded`` (see ``intermediary_keys``),
    and so without any site that carries no other key of the family. The
    kept keys share their frozensets of sites with ``graph``."""
    kept = {key: sites for key, sites in graph.key_to_sites.items() if key not in excluded}
    return BipartiteGraph(graph.family, kept)


def _component_of(adj: Mapping[str, Iterable[str]], start: str) -> frozenset[str]:
    """The nodes connected to ``start``, itself included (depth-first)."""
    stack = [start]
    members = {start}
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in members:
                members.add(nb)
                stack.append(nb)
    return frozenset(members)


def _by_size(members: frozenset[str]) -> tuple[int, str]:
    """Order of components: largest first, ties by smallest member."""
    return -len(members), min(members)


def _components(adj: Mapping[str, Iterable[str]]) -> list[frozenset[str]]:
    """Every component of an undirected adjacency map, in ``_by_size`` order."""
    seen: set[str] = set()
    out: list[frozenset[str]] = []
    for start in adj:
        if start not in seen:
            members = _component_of(adj, start)
            seen.update(members)
            out.append(members)
    out.sort(key=_by_size)
    return out


def connected_components(graph: BipartiteGraph) -> list[frozenset[str]]:
    """Components over site and id nodes, largest first, ties by smallest member."""
    adj: dict[str, set[str]] = {}
    for key, sites in graph.key_to_sites.items():
        adj.setdefault(key, set()).update(sites)
        for site in sites:
            adj.setdefault(site, set()).add(key)
    return _components(adj)


def family_normalizers(graphs: Mapping[IdFamily, BipartiteGraph]) -> dict[IdFamily, int]:
    """Per family, the number of distinct canonical keys found on more than
    one site of its graph in ``graphs`` (as ``build_bipartite`` returns)."""
    return {f: _shared_keys(graphs[f].key_to_sites) for f in IdFamily}


def build_metagraph(
    publisher_bg: BipartiteGraph,
    analytics_bg: BipartiteGraph,
    container_bg: BipartiteGraph,
    normalizers: Mapping[IdFamily, int] | None = None,
) -> Metagraph:
    """Project the three bipartite graphs onto sites.

    For every family key shared by >= 2 sites, each unordered site pair
    sharing it gains 1/n_family weight. By default n_family counts the
    multi-site keys of the graphs being projected; pass ``normalizers``
    (e.g. from family_normalizers over a pre-exclusion profile set) to
    normalize against a different population. The graph's denominator is
    the lcm of the non-zero n_family, so each key adds an integer.
    """
    graphs = {
        IdFamily.PUBLISHER: publisher_bg,
        IdFamily.ANALYTICS: analytics_bg,
        IdFamily.CONTAINER: container_bg,
    }
    for family, bg in graphs.items():
        if bg.family is not family:
            raise ValueError(f"expected a {family.value} bipartite graph, got {bg.family.value}")

    effective = {
        family: _shared_keys(bg.key_to_sites) if normalizers is None else normalizers.get(family, 0)
        for family, bg in graphs.items()
    }
    mg = Metagraph(denominator=math.lcm(*filter(None, effective.values())))
    numerators = mg.numerators
    for family, bg in graphs.items():
        n = effective[family]
        if n == 0:
            continue
        unit = mg.denominator // n
        for key in sorted(bg.key_to_sites):
            sites = sorted(bg.key_to_sites[key])
            for i, u in enumerate(sites):
                for v in sites[i + 1:]:  # u < v: sites are sorted
                    numerators[(u, v)] = numerators.get((u, v), 0) + unit
    return mg


def intermediary_keys(
    graphs: Mapping[IdFamily, BipartiteGraph], threshold: float = 100
) -> frozenset[str]:
    """The canonical keys present on more than ``threshold`` sites of the
    graphs; a key found in two families counts the union of their sites.

    Intermediary monetization platforms place one ID across hundreds of
    client sites; their keys drown the co-ownership signal, so the pipeline
    leaves this set out of each graph with ``without_keys``.
    """
    if not threshold >= 2:  # NaN too
        raise ValueError("threshold must be >= 2")
    carriers: dict[str, frozenset[str]] = {}
    for bg in graphs.values():
        for key, sites in bg.key_to_sites.items():
            other = carriers.get(key)
            carriers[key] = sites if other is None else other | sites
    return frozenset(key for key, sites in carriers.items() if len(sites) > threshold)


# ---------------------------------------------------------------------------
# Edge-list CSV dumps
# ---------------------------------------------------------------------------

def dump_bipartite_csv(graph: BipartiteGraph, stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["site", "key", "family"])
    for site, key in graph.edges():
        writer.writerow([site, key, graph.family.value])


def dump_metagraph_csv(mg: Metagraph, stream: IO[str]) -> None:
    """Edge list ``site_a,site_b,weight`` with site_a < site_b, as decimals."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["site_a", "site_b", "weight"])
    # int / int is correctly rounded, so this is the float of the Fraction.
    d = mg.denominator
    writer.writerows([u, v, repr(a / d)] for (u, v), a in sorted(mg.numerators.items()))


def _edge_entry(row: list[str]) -> tuple[Edge, Fraction]:
    """The edge and positive weight of a ``site_a,site_b,weight`` row."""
    u, v, text = row
    weight = Fraction(text)
    if weight <= 0:
        raise ValueError(f"weight {text} is not positive")
    if u >= v:
        raise ValueError(f"metagraph rows need site_a < site_b, got {u!r},{v!r}")
    return (u, v), weight


def load_metagraph_csv(source: str | Path | IO[str]) -> Metagraph:
    """The metagraph of a ``site_a,site_b,weight`` edge list. Its
    denominator is the lcm of the weights' decimal denominators. A row
    with site_a >= site_b, or that repeats an earlier row's pair, raises
    FormatError naming the file and the row."""
    return Metagraph.from_weights(
        _read_table(source, ["site_a", "site_b", "weight"], _edge_entry, "edge")
    )
