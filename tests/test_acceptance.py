"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print. Every tolerance is pinned here, not configurable.
"""

from __future__ import annotations

import dataclasses
import math
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import adgraph
from adgraph.cli import run
from adgraph.communities import girvan_newman, modularity, prune_edges
from adgraph.extractor import (
    extract_crawl,
    extract_profile,
    iter_profiles,
    load_blocklist,
    load_dictionary,
)
from adgraph.graphs import (
    IdFamily,
    build_bipartite,
    build_metagraph,
    intermediary_keys,
    without_keys,
)
from adgraph.history import (
    PublisherClass,
    Snapshot,
    TransitionClass,
    class_population_series,
    classify_publisher,
    transition_series,
)
from adgraph.stats import (
    fit_power_law,
    loglikelihood_ratio,
    poisson_sampling_baseline,
    shannon_diversity,
)
from helpers import (
    brute_force_metagraph,
    crawl_jsonl,
    fixture_corpus,
    girvan_newman_oracle,
    make_profile,
    metagraph_from_edges,
    profiles_to_manifest,
    sample_discrete_exponential,
    sample_discrete_power_law,
    scale_corpus_lines,
)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {title}")
        raise
    print(f"[PASS] criterion {number}: {title}")


def test_criterion_1_extraction_fidelity():
    with criterion(1, "extraction fidelity on the 50-page corpus (100% P/R, <5s)"):
        records, manifest = fixture_corpus()
        assert len(records) == 50
        started = time.monotonic()
        dictionary, blocklist = load_dictionary(), load_blocklist()
        profiles = [extract_profile(r, dictionary, blocklist) for r in records]
        elapsed = time.monotonic() - started
        extracted = profiles_to_manifest(profiles)
        # every expected (site, kind, key, sources) is found, and nothing else
        assert extracted == manifest
        assert elapsed < 5.0, f"extraction took {elapsed:.2f}s"


def test_criterion_2_metagraph_formula():
    with criterion(2, "metagraph 1/n weights: hand fixture exact + 100 random corpora"):
        profiles = [
            make_profile("a.example", tracking={"UA-1000"}, publisher={"pub-900000009"}),
            make_profile("b.example", tracking={"UA-1000", "UA-2000"}, publisher={"pub-900000009"}),
            make_profile("c.example", tracking={"UA-2000"}),
            make_profile("d.example", tracking={"UA-3000"}),
        ]

        def project(ps):
            bgs = build_bipartite(ps)
            return build_metagraph(bgs[IdFamily.PUBLISHER], bgs[IdFamily.ANALYTICS],
                                   bgs[IdFamily.CONTAINER])

        mg = project(profiles)
        weights = mg.weights
        assert weights[("a.example", "b.example")] == Fraction(3, 2)
        assert weights[("b.example", "c.example")] == Fraction(1, 2)
        assert mg.edge_count == 2
        _, oracle = brute_force_metagraph(profiles)
        assert mg.weights == oracle

        rng = random.Random(1234)
        for _ in range(100):
            n_sites = rng.randrange(2, 21)
            ps = []
            for i in range(n_sites):
                ps.append(make_profile(
                    f"s{i:02d}.example",
                    publisher={f"pub-10000000{k:02d}" for k in range(8) if rng.random() < 0.2},
                    tracking={f"UA-40{k:02d}" for k in range(6) if rng.random() < 0.2},
                    measurement={f"G-MEAS{k:03d}" for k in range(4) if rng.random() < 0.15},
                    container={f"GTM-C{k:05d}" for k in range(4) if rng.random() < 0.15},
                ))
            _, oracle = brute_force_metagraph(ps)
            assert project(ps).weights == oracle


def test_criterion_3_pruning():
    with criterion(3, "top-5% pruning: exact count, dangling removal, boundary ties"):
        mg = metagraph_from_edges(
            [(f"a{i:03d}", f"b{i:03d}", Fraction(i + 1)) for i in range(100)]
        )
        pruned = prune_edges(mg, 0.05)
        assert pruned.edge_count == 5
        assert len(pruned.nodes) == 10
        assert all(d for d in pruned.adjacency().values())  # no dangling nodes

        ties = metagraph_from_edges([(f"x{i}", f"y{i}", Fraction(1)) for i in range(10)])
        assert prune_edges(ties, 0.05).edge_count == 10


def test_criterion_4_girvan_newman_oracle():
    with criterion(4, "Girvan-Newman equals the exhaustive-betweenness oracle"):
        fixtures = {
            "two-triangle bridge": [
                ("A", "B"), ("B", "C"), ("A", "C"),
                ("D", "E"), ("E", "F"), ("D", "F"), ("C", "D"),
            ],
            "path": [(f"p{i}", f"p{i+1}") for i in range(6)],
            "star": [("hub", f"leaf{i}") for i in range(7)],
            "two cliques": [
                ("A", "B"), ("B", "C"), ("A", "C"),
                ("X", "Y"), ("Y", "Z"), ("X", "Z"),
            ],
        }
        for name, edges in fixtures.items():
            mg = metagraph_from_edges(edges)
            partition = girvan_newman(mg)
            oracle_parts, oracle_q = girvan_newman_oracle(mg)
            got = tuple(sorted(partition.communities, key=lambda c: (-len(c), min(c))))
            assert got == oracle_parts, name
            assert partition.modularity == oracle_q, name
        # the headline fixture splits into its two triangles
        bridge = metagraph_from_edges(fixtures["two-triangle bridge"])
        part = girvan_newman(bridge)
        assert sorted(sorted(c) for c in part.communities) == [
            ["A", "B", "C"], ["D", "E", "F"],
        ]
        assert part.modularity > modularity(bridge, [frozenset(bridge.nodes)])


def test_criterion_5_power_law_machinery():
    with criterion(5, "power-law fits recover alpha +/-0.2; LR signs; <30s per fit"):
        for alpha, seed in ((1.8, 201), (2.5, 202), (3.2, 203)):
            started = time.monotonic()
            xs = sample_discrete_power_law(alpha, 10_000, seed=seed)
            fit = fit_power_law(xs)
            statistic, p = loglikelihood_ratio(xs, fit)
            elapsed = time.monotonic() - started
            assert abs(fit.alpha - alpha) <= 0.2, f"alpha {alpha}: fitted {fit.alpha}"
            assert statistic > 0 and p < 0.01
            assert elapsed < 30.0, f"fit took {elapsed:.1f}s"
        xs = sample_discrete_exponential(0.1, 10_000, seed=204)
        fit = fit_power_law(xs, xmin=1)
        statistic, _ = loglikelihood_ratio(xs, fit)
        assert statistic < 0


def test_criterion_6_shannon_diversity():
    with criterion(6, "Shannon H' exact values and bounds on 1000 random multisets"):
        assert shannon_diversity(["News"] * 4).shannon_h == 0.0
        uniform = shannon_diversity(["News", "News", "Arts", "Arts"])
        assert abs(uniform.shannon_h - math.log(2)) <= 1e-12
        skewed = shannon_diversity(["News"] * 3 + ["Arts"])
        assert abs(skewed.shannon_h - 0.5623) <= 1e-4
        rng = random.Random(61)
        labels = [f"cat{i}" for i in range(15)]
        for _ in range(1000):
            sample = [rng.choice(labels) for _ in range(rng.randrange(1, 50))]
            report = shannon_diversity(sample)
            assert -1e-12 <= report.shannon_h <= math.log(report.richness) + 1e-12


def test_criterion_7_poisson_baseline():
    with criterion(7, "sampling baseline within +/-0.05 of the closed-form 5/3"):
        cats = {"a.example": "A", "b.example": "A", "c.example": "B", "d.example": "B"}
        mean = poisson_sampling_baseline(cats, k=2)
        assert abs(mean - 5 / 3) <= 0.05
        assert mean == 5 / 3


def _history_fixture():
    sizes = {"pub-a00000001": 5, "pub-b00000001": 50,
             "pub-c00000001": 7, "pub-d00000001": 7}

    def snap(sid, assignment):
        profiles = [make_profile(d, publisher=set(keys)) for d, keys in assignment.items()]
        return Snapshot.build(sid, profiles, publisher_sizes=sizes)

    s1 = snap("2020-01-01", {
        "w1.example": ["pub-a00000001"],
        "w2.example": ["pub-a00000001"],
        "w3.example": ["pub-b00000001"],
        "w4.example": ["pub-c00000001"],
        "w5.example": ["pub-a00000001", "pub-c00000001"],
        "w6.example": ["pub-d00000001"],
    })
    s2 = snap("2020-04-01", {
        "w1.example": ["pub-a00000001"],
        "w2.example": ["pub-b00000001"],   # 5 -> 50: bigger
        "w3.example": ["pub-a00000001"],   # 50 -> 5: smaller
        "w4.example": ["pub-d00000001"],   # 7 -> 7: insignificant
        "w5.example": ["pub-a00000001", "pub-c00000001"],
        "w6.example": ["pub-c00000001"],   # 7 -> 7: insignificant
    })
    s3 = snap("2020-07-01", {
        "w1.example": ["pub-a00000001"],
        "w2.example": ["pub-b00000001"],
        "w3.example": ["pub-a00000001"],
        "w4.example": ["pub-c00000001"],   # insignificant again
        "w5.example": ["pub-b00000001"],   # max(5,7)=7 -> 50: bigger
        "w6.example": ["pub-d00000001"],   # insignificant
    })
    return s1, s2, s3


def test_criterion_8_history():
    with criterion(8, "transition classification, class boundaries, drift slopes"):
        s1, s2, s3 = _history_fixture()
        series = transition_series([s1, s2, s3])
        by_hand = [
            {TransitionClass.NO_CHANGE: 2, TransitionClass.BIGGER: 1,
             TransitionClass.SMALLER: 1, TransitionClass.INSIGNIFICANT: 2},
            {TransitionClass.NO_CHANGE: 3, TransitionClass.BIGGER: 1,
             TransitionClass.SMALLER: 0, TransitionClass.INSIGNIFICANT: 2},
        ]
        assert [counts for _, _, counts in series.intervals] == by_hand

        # antisymmetry under snapshot reversal (relabeled to keep ids rising)
        relabeled = [
            dataclasses.replace(snap, snapshot_id=sid)
            for sid, snap in zip(("2021-01-01", "2021-04-01", "2021-07-01"), (s3, s2, s1))
        ]
        reversed_series = transition_series(relabeled)
        for forward, backward in zip(by_hand[::-1], [c for _, _, c in reversed_series.intervals]):
            assert backward[TransitionClass.BIGGER] == forward[TransitionClass.SMALLER]
            assert backward[TransitionClass.SMALLER] == forward[TransitionClass.BIGGER]
            assert backward[TransitionClass.NO_CHANGE] == forward[TransitionClass.NO_CHANGE]
            assert backward[TransitionClass.INSIGNIFICANT] == forward[TransitionClass.INSIGNIFICANT]

        for size, expected in ((10, PublisherClass.SMALL), (11, PublisherClass.MEDIUM),
                               (50, PublisherClass.MEDIUM), (51, PublisherClass.LARGE),
                               (100, PublisherClass.LARGE), (101, PublisherClass.MEGA)):
            assert classify_publisher(size) is expected

        # linear drift: mega -2/step, small +15000/step, medium +29, large +5
        drift = []
        for t in range(6):
            sizes = {}
            for i in range(20 - 2 * t):
                sizes[f"pub-mega{i:06d}"] = 150
            for i in range(60 + 5 * t):
                sizes[f"pub-larg{i:06d}"] = 75
            for i in range(300 + 29 * t):
                sizes[f"pub-medi{i:06d}"] = 25
            for i in range(15000 * (t + 1)):
                sizes[f"pub-smal{i:06d}"] = 1
            drift.append(Snapshot.build(f"2020-0{t+1}-01", [], total_sites=1,
                                        publisher_sizes=sizes))
        slopes = class_population_series(drift).slopes
        for cls, target in ((PublisherClass.MEGA, -2.0), (PublisherClass.LARGE, 5.0),
                            (PublisherClass.MEDIUM, 29.0), (PublisherClass.SMALL, 15000.0)):
            assert abs(slopes[cls] - target) <= 0.05 * abs(target)


def test_criterion_9_cross_process_determinism(tmp_path):
    with criterion(9, "report under PYTHONHASHSEED 0 and 1 writes byte-identical CSVs"):
        records, _ = fixture_corpus()
        crawl = tmp_path / "crawl.jsonl"
        crawl.write_text(crawl_jsonl(records), encoding="utf-8")
        script = "import sys\nfrom adgraph.cli import run\nsys.exit(run(sys.argv[1:]))\n"
        env = {**os.environ, "PYTHONPATH": str(Path(adgraph.__file__).resolve().parents[1])}
        for hash_seed in ("0", "1"):
            subprocess.run([sys.executable, "-c", script, "report", "--in", str(crawl),
                            "--out-dir", str(tmp_path / hash_seed), "--top-fraction", "1.0"],
                           env={**env, "PYTHONHASHSEED": hash_seed}, check=True)
        compared = 0
        for path in sorted((tmp_path / "0").iterdir()):
            if path.suffix in (".csv", ".jsonl"):
                other = tmp_path / "1" / path.name
                assert path.read_bytes() == other.read_bytes(), path.name
                compared += 1
        assert compared >= 8


def test_criterion_10_scale_smoke():
    with criterion(10, "100k records: extract -> graph -> prune -> communities <5min"):
        lines = scale_corpus_lines(100_000)
        started = time.monotonic()
        extraction = extract_crawl(iter(lines))
        assert extraction.site_count == 100_000 and not extraction.skips
        graphs = build_bipartite(iter_profiles(extraction.profiles))
        excluded = intermediary_keys(graphs, 100)
        bgs = {f: without_keys(bg, excluded) for f, bg in graphs.items()}
        mg = build_metagraph(bgs[IdFamily.PUBLISHER], bgs[IdFamily.ANALYTICS],
                             bgs[IdFamily.CONTAINER])
        pruned = prune_edges(mg, 0.05)
        partition = girvan_newman(pruned)
        elapsed = time.monotonic() - started
        assert len(partition.communities) > 0
        assert mg.edge_count == 2000 and pruned.edge_count == 1000
        assert elapsed < 300.0, f"pipeline took {elapsed:.1f}s"
