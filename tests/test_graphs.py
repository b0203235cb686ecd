from __future__ import annotations

import io
import math
import random
from fractions import Fraction

import pytest

from adgraph.corpus import FormatError
from adgraph.extractor import IdKind
from adgraph.graphs import (
    KINDS_OF_FAMILY,
    IdFamily,
    Metagraph,
    build_bipartite,
    build_metagraph,
    connected_components,
    dump_bipartite_csv,
    dump_metagraph_csv,
    family_normalizers,
    intermediary_keys,
    load_metagraph_csv,
    without_keys,
)
from adgraph.history import Snapshot
from adgraph.stats import publisher_sizes
from helpers import (
    brute_force_metagraph,
    components_of,
    exclude_intermediaries_reference,
    make_profile,
)


def _graphs(profiles, normalizers=None, excluded=()):
    bgs = {f: without_keys(bg, excluded) for f, bg in build_bipartite(profiles).items()}
    return build_metagraph(
        bgs[IdFamily.PUBLISHER], bgs[IdFamily.ANALYTICS], bgs[IdFamily.CONTAINER],
        normalizers=normalizers,
    )


def _random_profiles(rng, max_sites=20):
    n_sites = rng.randrange(2, max_sites + 1)
    pubs = [f"pub-10000000{i:02d}" for i in range(6)]
    tracks = [f"UA-400{i}" for i in range(5)]
    measures = [f"G-MEAS{i:03d}" for i in range(4)]
    containers = [f"GTM-C{i:05d}" for i in range(4)]
    profiles = []
    for i in range(n_sites):
        profiles.append(
            make_profile(
                f"s{i:02d}.example",
                publisher={p for p in pubs if rng.random() < 0.25},
                tracking={t for t in tracks if rng.random() < 0.25},
                measurement={m for m in measures if rng.random() < 0.2},
                container={c for c in containers if rng.random() < 0.2},
            )
        )
    return profiles


# --- build_bipartite --------------------------------------------------------

def test_bipartite_counts():
    profiles = [
        make_profile("a.example", publisher={"pub-111111111"}),
        make_profile("b.example", publisher={"pub-111111111", "pub-222222222"}),
    ]
    bg = build_bipartite(profiles)[IdFamily.PUBLISHER]
    assert len(bg.site_nodes) == 2 and len(bg.id_nodes) == 2 and bg.edge_count == 3


def test_analytics_family_unions_tracking_and_measurement():
    profiles = [
        make_profile("a.example", tracking={"UA-7000"}),
        make_profile("b.example", measurement={"G-XXXXXXX"}),
    ]
    bg = build_bipartite(profiles)[IdFamily.ANALYTICS]
    assert bg.id_nodes == {"UA-7000", "G-XXXXXXX"}
    assert bg.site_nodes == {"a.example", "b.example"}


def test_bipartite_empty_profiles():
    bg = build_bipartite([])[IdFamily.PUBLISHER]
    assert bg.edge_count == 0 and not bg.site_nodes


def test_bipartite_edge_count_invariant():
    rng = random.Random(2)
    for _ in range(20):
        profiles = _random_profiles(rng)
        for family in IdFamily:
            bg = build_bipartite(profiles)[family]
            kinds = {IdFamily.PUBLISHER: (IdKind.PUBLISHER,),
                     IdFamily.ANALYTICS: (IdKind.TRACKING, IdKind.MEASUREMENT),
                     IdFamily.CONTAINER: (IdKind.CONTAINER,)}[family]
            expected = sum(
                len(frozenset().union(*[p.keys_for(k) for k in kinds]))
                for p in profiles
                if any(p.keys_for(k) for k in kinds)
            )
            assert bg.edge_count == expected


# --- connected_components ---------------------------------------------------

def test_components_mixed_nodes():
    profiles = [
        make_profile("a.example", publisher={"pub-111111111"}),
        make_profile("b.example", publisher={"pub-111111111"}),
        make_profile("c.example", publisher={"pub-222222222"}),
    ]
    comps = connected_components(build_bipartite(profiles)[IdFamily.PUBLISHER])
    assert [len(c) for c in comps] == [3, 2]


def test_components_fully_shared_id():
    profiles = [make_profile(f"s{i}.example", publisher={"pub-111111111"}) for i in range(5)]
    comps = connected_components(build_bipartite(profiles)[IdFamily.PUBLISHER])
    assert [len(c) for c in comps] == [6]


def test_components_chain_size_five():
    profiles = [
        make_profile("a.example", publisher={"pub-111111111"}),
        make_profile("b.example", publisher={"pub-111111111", "pub-222222222"}),
        make_profile("c.example", publisher={"pub-222222222"}),
    ]
    bg = build_bipartite(profiles)[IdFamily.PUBLISHER]
    comps = connected_components(bg)
    assert [len(c) for c in comps] == [5]
    # brute-force reachability over the same fixture
    nodes = {"a.example", "b.example", "c.example", "pub-111111111", "pub-222222222"}
    assert comps[0] == frozenset(nodes)


def test_components_partition_nodes():
    rng = random.Random(3)
    for _ in range(20):
        profiles = _random_profiles(rng)
        for family in IdFamily:
            bg = build_bipartite(profiles)[family]
            comps = connected_components(bg)
            covered = [n for c in comps for n in c]
            assert len(covered) == len(set(covered))
            assert set(covered) == bg.site_nodes | bg.id_nodes
            adj: dict[str, set[str]] = {}
            for p in profiles:
                for kind in KINDS_OF_FAMILY[family]:
                    for key in p.keys_for(kind):
                        adj.setdefault(p.landing_domain, set()).add(key)
                        adj.setdefault(key, set()).add(p.landing_domain)
            assert tuple(comps) == components_of(adj)


# --- build_metagraph --------------------------------------------------------

def test_metagraph_hand_fixture():
    profiles = [
        make_profile("a.example", tracking={"UA-1000"}),
        make_profile("b.example", tracking={"UA-1000", "UA-2000"}),
        make_profile("c.example", tracking={"UA-2000"}),
        make_profile("d.example", tracking={"UA-3000"}),
    ]
    assert family_normalizers(build_bipartite(profiles))[IdFamily.ANALYTICS] == 2
    mg = _graphs(profiles)
    assert mg.denominator == 2
    weights = mg.weights
    assert weights[("a.example", "b.example")] == Fraction(1, 2)
    assert weights[("b.example", "c.example")] == Fraction(1, 2)
    assert mg.edge_count == 2


def test_metagraph_hand_fixture_with_publisher():
    profiles = [
        make_profile("a.example", tracking={"UA-1000"}, publisher={"pub-900000009"}),
        make_profile("b.example", tracking={"UA-1000", "UA-2000"}, publisher={"pub-900000009"}),
        make_profile("c.example", tracking={"UA-2000"}),
        make_profile("d.example", tracking={"UA-3000"}),
    ]
    weights = _graphs(profiles).weights
    assert weights[("a.example", "b.example")] == Fraction(3, 2)
    assert weights[("b.example", "c.example")] == Fraction(1, 2)


def test_metagraph_no_shared_keys_is_empty():
    profiles = [
        make_profile("a.example", tracking={"UA-1000"}),
        make_profile("b.example", tracking={"UA-2000"}),
    ]
    mg = _graphs(profiles)
    assert mg.edge_count == 0


def test_metagraph_symmetry_and_positivity():
    rng = random.Random(7)
    profiles = _random_profiles(rng)
    mg = _graphs(profiles)
    for (u, v), w in mg.weights.items():
        assert u < v
        assert w > 0


def test_metagraph_matches_brute_force_on_random_corpora():
    rng = random.Random(13)
    for _ in range(100):
        profiles = _random_profiles(rng)
        mg = _graphs(profiles)
        _, expected = brute_force_metagraph(profiles)
        assert mg.weights == expected


def test_metagraph_numerators_share_the_normalizers_lcm():
    """Every weight is an integer over the lcm of the non-zero family
    normalizers, in both normalizer modes."""
    rng = random.Random(17)
    for _ in range(50):
        profiles = _random_profiles(rng)
        bgs = build_bipartite(profiles)
        others = build_bipartite(profiles + _random_profiles(rng))
        for normalizers in (None, family_normalizers(others)):
            mg = build_metagraph(bgs[IdFamily.PUBLISHER], bgs[IdFamily.ANALYTICS],
                                 bgs[IdFamily.CONTAINER], normalizers=normalizers)
            n = family_normalizers(bgs) if normalizers is None else normalizers
            assert mg.denominator == math.lcm(*filter(None, n.values()))
            assert all(type(a) is int and a > 0 for a in mg.numerators.values())
            _, expected = brute_force_metagraph(profiles, normalizers)
            weights = mg.weights
            assert weights == expected
            assert sum(weights.values(), Fraction(0)) == sum(expected.values(), Fraction(0))
            # A graph is its weights: nothing else of the build shows in ==.
            assert Metagraph.from_weights(weights) == mg


def _cross_family_profiles(rng):
    """``_random_profiles`` whose keys also turn up under a random other
    kind on some sites: pub-1000000000 as a Container key, say."""
    profiles = _random_profiles(rng)
    pool = sorted({key for p in profiles for keys in p.keys.values() for key in keys})
    crossed = []
    for p in profiles:
        keys = {kind.value: set(p.keys_for(kind)) for kind in IdKind}
        for key in pool:
            if rng.random() < 0.15:
                keys[rng.choice(list(keys))].add(key)
        crossed.append(make_profile(p.landing_domain, **keys))
    return crossed


def test_key_walks_match_brute_counts_on_random_corpora():
    """Every other draw puts key strings under two or more families, where
    a key's carriers are the union of its sites in each."""
    rng = random.Random(13)
    cross_family_keys = 0
    for draw in range(100):
        profiles = (_cross_family_profiles if draw % 2 else _random_profiles)(rng)
        all_keys = {key for p in profiles for keys in p.keys.values() for key in keys}

        def carriers(key, kinds=tuple(IdKind)):
            return {p.landing_domain for p in profiles if any(key in p.keys_for(k) for k in kinds)}

        graphs = build_bipartite(iter(profiles))  # one pass over a stream
        for f in IdFamily:
            expected = {key: carriers(key, KINDS_OF_FAMILY[f]) for key in all_keys}
            assert graphs[f].key_to_sites == {k: sites for k, sites in expected.items() if sites}
            assert all(type(sites) is frozenset for sites in graphs[f].key_to_sites.values())
        assert family_normalizers(graphs) == {
            f: sum(1 for key in all_keys if len(carriers(key, KINDS_OF_FAMILY[f])) > 1)
            for f in IdFamily
        }
        cross_family_keys += sum(
            sum(key in graphs[f].key_to_sites for f in IdFamily) > 1 for key in all_keys
        )
        assert Snapshot.build("s", profiles).publisher_sizes == {
            r.key: r.size for r in publisher_sizes(graphs[IdFamily.PUBLISHER])
        }
        for threshold in range(2, len(profiles) + 1):
            heavy = intermediary_keys(graphs, threshold)
            assert heavy == {k for k in all_keys if len(carriers(k)) > threshold}
            reduced = build_bipartite(exclude_intermediaries_reference(profiles, threshold))
            for f in IdFamily:
                assert without_keys(graphs[f], heavy) == reduced[f]
    assert cross_family_keys > 100


def test_metagraph_weight_sum_identity():
    rng = random.Random(17)
    for _ in range(25):
        profiles = _random_profiles(rng)
        mg = _graphs(profiles)
        expected = Fraction(0)
        for bg in build_bipartite(profiles).values():
            multi = {k: s for k, s in bg.key_to_sites.items() if len(s) > 1}
            if not multi:
                continue
            n = len(multi)
            for sites in multi.values():
                expected += Fraction(math.comb(len(sites), 2), n)
        assert sum(mg.weights.values(), Fraction(0)) == expected


def test_metagraph_pre_exclusion_normalizers():
    profiles = [
        make_profile(f"s{i}.example", tracking={"UA-1000"}) for i in range(5)
    ] + [
        make_profile("x.example", tracking={"UA-2000"}),
        make_profile("y.example", tracking={"UA-2000"}),
    ]
    graphs = build_bipartite(profiles)
    pre = family_normalizers(graphs)
    assert pre[IdFamily.ANALYTICS] == 2
    excluded = intermediary_keys(graphs, threshold=3)
    assert excluded == {"UA-1000"}
    # projected mode: only UA-2000 is still multi-site -> weight 1
    assert _graphs(profiles, excluded=excluded).weights == {("x.example", "y.example"): 1}
    # pre-exclusion mode: n stays 2 -> weight 1/2
    mg = _graphs(profiles, normalizers=pre, excluded=excluded)
    assert mg.weights == {("x.example", "y.example"): Fraction(1, 2)}


# --- intermediary_keys and without_keys -------------------------------------

def test_exclude_strips_heavy_key_everywhere():
    profiles = [make_profile(f"s{i:03d}.example", tracking={"UA-1000"}) for i in range(150)]
    profiles.append(make_profile("t.example", tracking={"UA-1000", "UA-2000"}))
    graphs = build_bipartite(profiles)
    excluded = intermediary_keys(graphs, threshold=100)
    assert excluded == {"UA-1000"}
    bg = without_keys(graphs[IdFamily.ANALYTICS], excluded)
    assert bg.site_nodes == {"t.example"}
    assert bg.key_to_sites == {"UA-2000": {"t.example"}}
    assert bg.key_to_sites["UA-2000"] is graphs[IdFamily.ANALYTICS].key_to_sites["UA-2000"]


def test_exclude_keeps_key_at_threshold():
    profiles = [make_profile(f"s{i:03d}.example", tracking={"UA-1000"}) for i in range(100)]
    graphs = build_bipartite(profiles)
    excluded = intermediary_keys(graphs, threshold=100)
    assert excluded == frozenset()
    bg = without_keys(graphs[IdFamily.ANALYTICS], excluded)
    assert bg.key_to_sites == {"UA-1000": {p.landing_domain for p in profiles}}


def test_exclude_infinite_threshold_is_identity():
    profiles = [make_profile(f"s{i}.example", tracking={"UA-1000"}) for i in range(5)]
    graphs = build_bipartite(profiles)
    excluded = intermediary_keys(graphs, threshold=math.inf)
    assert excluded == frozenset()
    for f in IdFamily:
        assert without_keys(graphs[f], excluded) == graphs[f]


def test_exclude_rejects_low_threshold():
    for threshold in (1, math.nan):
        with pytest.raises(ValueError):
            intermediary_keys(build_bipartite([]), threshold=threshold)


# --- CSV dumps --------------------------------------------------------------

def test_bipartite_csv_rows():
    """One sorted ``site,key,family`` row per site carrying a key of the
    family; a family without keys gives the header line alone."""
    rng = random.Random(4)
    for _ in range(20):
        profiles = _random_profiles(rng)
        for family, bg in build_bipartite(profiles).items():
            rows = sorted((p.landing_domain, key, family.value)
                          for p in profiles for kind in KINDS_OF_FAMILY[family]
                          for key in p.keys_for(kind))
            buf = io.StringIO()
            dump_bipartite_csv(bg, buf)
            assert buf.getvalue() == "".join(f"{','.join(row)}\n"
                                             for row in [("site", "key", "family"), *rows])
    for bg in build_bipartite([make_profile("a.example")]).values():
        buf = io.StringIO()
        dump_bipartite_csv(bg, buf)
        assert buf.getvalue() == "site,key,family\n"


def test_metagraph_csv_ordering_and_roundtrip():
    profiles = [
        make_profile("b.example", publisher={"pub-111111111"}),
        make_profile("a.example", publisher={"pub-111111111"}),
        make_profile("c.example", publisher={"pub-111111111"}),
    ]
    mg = _graphs(profiles)
    buf = io.StringIO()
    dump_metagraph_csv(mg, buf)
    text = buf.getvalue()
    lines = text.strip().split("\n")
    assert lines[0] == "site_a,site_b,weight"
    pairs = [tuple(l.split(",")[:2]) for l in lines[1:]]
    assert all(a < b for a, b in pairs)
    assert pairs == sorted(pairs)
    buf.seek(0)
    again = load_metagraph_csv(buf)
    assert set(again.weights) == set(mg.weights)


def test_metagraph_csv_reads_decimals_over_one_denominator():
    """A loaded graph holds the dumped decimals exactly, over the lcm of
    their denominators, and dumps to the same bytes again."""
    rng = random.Random(23)
    for _ in range(30):
        sites = [f"s{i}.example" for i in range(rng.randrange(2, 9))]
        weights = {
            (u, v): Fraction(rng.randrange(1, 20), rng.choice([1, 2, 3, 7, 10, 12, 30]))
            for i, u in enumerate(sites) for v in sites[i + 1:] if rng.random() < 0.6
        }
        first = io.StringIO()
        dump_metagraph_csv(Metagraph.from_weights(weights), first)
        first.seek(0)
        loaded = load_metagraph_csv(first)
        decimals = {e: Fraction(repr(float(w))) for e, w in weights.items()}
        assert loaded.weights == decimals
        assert loaded.denominator == math.lcm(*(w.denominator for w in decimals.values()))
        again = io.StringIO()
        dump_metagraph_csv(loaded, again)
        assert again.getvalue() == first.getvalue()


def test_metagraph_csv_round_trip_keeps_nodes_and_edges():
    """A metagraph's nodes are its edges' endpoints, so a site whose keys
    nobody else shares is none of them, and its edge list loads back to
    the same nodes and edges, each weight the float of the exact one."""
    rng = random.Random(29)
    for _ in range(30):
        lone = [f"lone{i}.example" for i in range(rng.randrange(1, 4))]
        profiles = _random_profiles(rng) + [
            make_profile(site, publisher={f"pub-90000000{i}"}, tracking={f"UA-900{i}"})
            for i, site in enumerate(lone)
        ]
        mg = _graphs(profiles)
        buf = io.StringIO()
        dump_metagraph_csv(mg, buf)
        buf.seek(0)
        loaded = load_metagraph_csv(buf)
        assert mg.nodes.isdisjoint(lone)
        assert loaded.nodes == mg.nodes
        assert loaded.numerators.keys() == mg.numerators.keys()
        weights = mg.weights
        assert all(float(w) == float(weights[e]) for e, w in loaded.weights.items())


def test_metagraph_csv_rejects_a_repeated_pair():
    text = ("site_a,site_b,weight\na.example,b.example,1\nb.example,c.example,1\n\n"
            "a.example,b.example,2\n")
    reason = "CSV stream: row 5: edge a.example,b.example repeats row 2"
    with pytest.raises(FormatError, match=reason):
        load_metagraph_csv(io.StringIO(text))


def test_from_weights_checks_edges():
    mg = Metagraph.from_weights({("a", "b"): Fraction(1, 6), ("b", "c"): Fraction(3, 4)})
    assert (mg.nodes, mg.numerators, mg.denominator) == ({"a", "b", "c"},
                                                         {("a", "b"): 2, ("b", "c"): 9}, 12)
    # Equal weights over different denominators make equal graphs.
    assert Metagraph.from_weights({("a", "b"): Fraction(1, 2)}) == Metagraph(
        numerators={("a", "b"): 2}, denominator=4
    )
    with pytest.raises(ValueError, match="u < v"):
        Metagraph.from_weights({("b", "a"): 1})
    with pytest.raises(ValueError, match="not positive"):
        Metagraph.from_weights({("a", "b"): 0})


def test_metagraph_csv_checks_header_and_row_width():
    for text, row, fields in (("site_a,site_b,weight\na.example,b.example,1,2\n", 2, 4),
                              ("site_a,site_b,weight\n\na.example,b.example\n", 3, 2)):
        with pytest.raises(FormatError, match=f"CSV stream: row {row} has {fields} fields, expected 3"):
            load_metagraph_csv(io.StringIO(text))
    for text in ("", "site_a,site_b\n"):
        with pytest.raises(FormatError, match="expected header site_a,site_b,weight"):
            load_metagraph_csv(io.StringIO(text))
    with pytest.raises(FormatError, match="CSV stream: row 3: .*'bogus'"):
        load_metagraph_csv(io.StringIO("site_a,site_b,weight\na.example,b.example,1\n"
                                       "b.example,c.example,bogus\n"))
