from __future__ import annotations

import json
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import adgraph.cli
from adgraph.graphs import IdFamily, build_bipartite
from adgraph.stats import (
    category_distribution,
    fit_power_law,
    linear_fit,
    loglikelihood_ratio,
    per_site_id_counts,
    poisson_sampling_baseline,
    popularity_by_size,
    publisher_sizes,
    richness_vs_baseline,
    shannon_diversity,
)
from adgraph.extractor import IdKind
from helpers import (
    enumerated_expected_richness,
    hypergeometric_expected_richness,
    make_profile,
    poisson_baseline_oracle,
    sample_discrete_exponential,
    sample_discrete_power_law,
)


# --- per_site_id_counts -----------------------------------------------------

def test_id_counts_ninety_percent_single():
    profiles = [make_profile(f"s{i}.example", publisher={f"pub-10000000{i:02d}"}) for i in range(9)]
    profiles.append(make_profile("multi.example",
                                 publisher={"pub-200000001", "pub-200000002"}))
    hist = per_site_id_counts(profiles)[IdKind.PUBLISHER]
    assert hist[1] == 0.9 and hist[2] == pytest.approx(0.1)


def test_id_counts_all_single():
    profiles = [make_profile(f"s{i}.example", tracking={f"UA-100{i}"}) for i in range(5)]
    assert per_site_id_counts(profiles)[IdKind.TRACKING] == {1: 1.0}


def test_id_counts_outlier_bucket():
    profiles = [make_profile("big.example", tracking={f"UA-9{i:06d}" for i in range(94)})]
    assert per_site_id_counts(profiles)[IdKind.TRACKING][94] == 1.0


def test_id_counts_fractions_sum_to_one():
    rng = random.Random(6)
    profiles = []
    for i in range(60):
        n = rng.randrange(0, 5)
        profiles.append(make_profile(f"s{i}.example",
                                     publisher={f"pub-1{rng.randrange(10**8):08d}" for _ in range(n)}))
    hist = per_site_id_counts(profiles)[IdKind.PUBLISHER]
    assert sum(hist.values()) == pytest.approx(1.0)


def test_id_counts_read_a_one_shot_iterable_once():
    rng = random.Random(9)
    profiles = [
        make_profile(f"s{i}.example",
                     publisher={f"pub-10000000{k}" for k in range(4) if rng.random() < 0.4},
                     tracking={f"UA-100{k}" for k in range(4) if rng.random() < 0.4},
                     container={f"GTM-C{k:05d}" for k in range(3) if rng.random() < 0.3})
        for i in range(40)
    ]
    assert per_site_id_counts(p for p in profiles) == per_site_id_counts(profiles)


# --- publisher_sizes --------------------------------------------------------

def _bipartite(profile_specs):
    profiles = [make_profile(d, publisher=keys) for d, keys in profile_specs]
    return build_bipartite(profiles)[IdFamily.PUBLISHER]


def test_publisher_sizes_ordering():
    bg = _bipartite([
        ("a.example", {"pub-111111111"}),
        ("b.example", {"pub-111111111"}),
        ("c.example", {"pub-111111111", "pub-222222222"}),
    ])
    records = publisher_sizes(bg)
    assert [(r.key, r.size) for r in records] == [("pub-111111111", 3), ("pub-222222222", 1)]


def test_publisher_sizes_top10_sum_mirror():
    # ten heavy publishers summing past 4,200 member sites + singleton noise
    specs = []
    for i in range(10):
        specs += [(f"h{i}s{j}.example", {f"pub-50000000{i:02d}"}) for j in range(420 + i)]
    specs += [(f"solo{i}.example", {f"pub-60000{i:04d}"}) for i in range(50)]
    records = publisher_sizes(_bipartite(specs))
    assert sum(r.size for r in records[:10]) == sum(420 + i for i in range(10))
    assert sum(r.size for r in records[:10]) > 4200


def test_publisher_sizes_empty():
    assert publisher_sizes(_bipartite([])) == []


def test_publisher_sizes_sum_equals_edges():
    rng = random.Random(9)
    specs = []
    for i in range(40):
        keys = {f"pub-1{rng.randrange(20):08d}" for _ in range(rng.randrange(1, 4))}
        specs.append((f"s{i}.example", keys))
    bg = _bipartite(specs)
    assert sum(r.size for r in publisher_sizes(bg)) == bg.edge_count


def test_publisher_sizes_ranks():
    bg = _bipartite([
        ("a.example", {"pub-111111111"}),
        ("b.example", {"pub-111111111"}),
        ("c.example", {"pub-111111111"}),
    ])
    records = publisher_sizes(bg, ranks={"a.example": 10, "b.example": 20})
    assert records[0].mean_rank == 15.0
    assert records[0].median_rank == 15.0


def test_publisher_median_rank_matches_numpy():
    rng = random.Random(31)
    specs, ranks = [], {}
    for i in range(300):
        members = rng.randrange(1, 12)  # odd and even member counts
        for j in range(members):
            site = f"p{i}s{j}.example"
            specs.append((site, {f"pub-1{i:08d}"}))
            if rng.random() < 0.8:
                ranks[site] = rng.randrange(1, 10**9 + 1)
    records = publisher_sizes(_bipartite(specs), ranks)
    seen = set()
    for r in records:
        member_ranks = sorted(ranks[s] for s in r.sites if s in ranks)
        if not member_ranks:
            assert r.median_rank is None
            continue
        seen.add(len(member_ranks) % 2)
        assert type(r.median_rank) is float
        assert r.median_rank == float(np.median(member_ranks))
    assert seen == {0, 1}


# --- fit_power_law / loglikelihood_ratio ------------------------------------

@pytest.mark.parametrize("alpha,seed", [(1.8, 101), (2.5, 102), (3.2, 103)])
def test_power_law_alpha_recovery(alpha, seed):
    xs = sample_discrete_power_law(alpha, 10_000, seed=seed)
    fit = fit_power_law(xs)
    assert abs(fit.alpha - alpha) <= 0.2


def test_power_law_constant_sample_errors():
    with pytest.raises(ValueError):
        fit_power_law([5] * 100)


def test_power_law_too_few_observations():
    with pytest.raises(ValueError):
        fit_power_law([1, 2, 3])


def test_lr_positive_on_power_law_sample():
    xs = sample_discrete_power_law(2.5, 10_000, seed=104)
    fit = fit_power_law(xs)
    statistic, p = loglikelihood_ratio(xs, fit)
    assert statistic > 0 and p < 0.01


def test_lr_negative_on_exponential_sample():
    xs = sample_discrete_exponential(0.1, 10_000, seed=105)
    fit = fit_power_law(xs, xmin=1)
    statistic, p = loglikelihood_ratio(xs, fit)
    assert statistic < 0


def test_lr_identical_models_gives_zero_one():
    from adgraph.stats import _vuong_normalize

    statistic, p = _vuong_normalize(np.zeros(50))
    assert statistic == 0.0 and p == 1.0


def test_lr_constant_nonzero_diffs_give_p_zero():
    from adgraph.stats import _vuong_normalize

    statistic, p = _vuong_normalize(np.full(50, 0.25))
    assert statistic == pytest.approx(12.5) and p == 0.0


def test_lr_degenerate_exponential_at_xmin():
    # All mass at xmin: the exponential MLE collapses to a point mass and
    # the comparison runs through the zero-variance branch.
    from adgraph import stats

    xs = np.array([3] * 12)
    fit = stats.PowerLawFit(alpha=2.0, xmin=3, ks_stat=0.0, n_tail=12)
    statistic, p = loglikelihood_ratio(xs, fit)
    assert statistic < 0 and p == 0.0


def test_lr_requires_tail():
    xs = sample_discrete_power_law(2.5, 1_000, seed=106)
    fit = fit_power_law(xs)
    from adgraph.stats import PowerLawFit

    tiny = PowerLawFit(alpha=fit.alpha, xmin=int(max(xs)) + 1, ks_stat=0.0, n_tail=0)
    with pytest.raises(ValueError):
        loglikelihood_ratio(xs, tiny)


# --- linear_fit -------------------------------------------------------------

def test_linear_fit_exact_line():
    fit = linear_fit([(0, 0), (1, 1), (2, 2)])
    assert fit.slope == pytest.approx(1.0)
    assert fit.intercept == pytest.approx(0.0)
    assert fit.r_squared == pytest.approx(1.0)


def test_linear_fit_constant_y_convention():
    fit = linear_fit([(0, 1), (1, 1), (2, 1)])
    assert fit.slope == 0.0 and fit.r_squared == 1.0


def test_linear_fit_noisy_generator_slope():
    rng = np.random.default_rng(7)
    xs = np.arange(40, dtype=float)
    ys = -2.0 * xs + 5 + rng.normal(0, 0.8, size=40)
    fit = linear_fit(list(zip(xs, ys)))
    # generator slope -2 recovered well within a wide CI
    assert abs(fit.slope + 2.0) < 0.2


def test_linear_fit_shift_invariance():
    rng = np.random.default_rng(8)
    points = [(float(i), float(rng.normal(3 * i, 2))) for i in range(12)]
    shifted = [(x, y + 100.0) for x, y in points]
    fit, fit_shifted = linear_fit(points), linear_fit(shifted)
    assert fit.slope == pytest.approx(fit_shifted.slope)
    assert fit.r_squared == pytest.approx(fit_shifted.r_squared)


def test_linear_fit_preconditions():
    with pytest.raises(ValueError):
        linear_fit([(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        linear_fit([(1, 1), (1, 2), (1, 3)])


# --- popularity_by_size -----------------------------------------------------

def _records_with_ranks(specs, ranks):
    profiles = [make_profile(d, publisher=keys) for d, keys in specs]
    bg = build_bipartite(profiles)[IdFamily.PUBLISHER]
    return publisher_sizes(bg, ranks)


def test_popularity_bucket_mean():
    specs = [("a.example", {"pub-111111111"}), ("b.example", {"pub-222222222"}),
             ("c.example", {"pub-333333333"}), ("d.example", {"pub-333333333"}),
             ("e.example", {"pub-444444444"}), ("f.example", {"pub-444444444"}),
             ("g.example", {"pub-444444444"})]
    ranks = {"a.example": 100, "b.example": 300, "c.example": 50,
             "d.example": 70, "e.example": 90, "f.example": 10, "g.example": 20}
    records = _records_with_ranks(specs, ranks)
    series, _fit = popularity_by_size(records)
    buckets = {size: mean for size, mean, _ in series}
    # size-1 bucket carries publishers a (100) and b (300): mean of means 200
    assert buckets[1] == pytest.approx(200.0)
    assert buckets[2] == pytest.approx(60.0)
    assert buckets[3] == pytest.approx(40.0)


def test_popularity_synthetic_slope_recovery():
    rng = np.random.default_rng(11)
    specs, ranks = [], {}
    counter = 0
    for size in range(1, 13):
        for rep in range(6):
            key = f"pub-7{size:02d}{rep:06d}"
            members = []
            for _ in range(size):
                domain = f"p{counter:05d}.example"
                counter += 1
                members.append(domain)
                ranks[domain] = max(1, int(1000 - 50 * size + rng.normal(0, 10)))
            specs += [(d, {key}) for d in members]
    records = _records_with_ranks(specs, ranks)
    series, fit = popularity_by_size(records)
    assert abs(fit.slope - (-50.0)) <= 5.0  # within 10%


def test_popularity_requires_three_buckets():
    specs = [("a.example", {"pub-111111111"}), ("b.example", {"pub-222222222"})]
    records = _records_with_ranks(specs, {"a.example": 5, "b.example": 9})
    with pytest.raises(ValueError):
        popularity_by_size(records)


def test_popularity_requires_ranked_members():
    specs = [("a.example", {"pub-111111111"})]
    records = _records_with_ranks(specs, {})
    with pytest.raises(ValueError):
        popularity_by_size(records)


def test_popularity_max_size_clamps():
    specs, ranks = [], {}
    for i, size in enumerate((1, 2, 3, 8, 9)):
        key = f"pub-88800000{i:02d}"
        for j in range(size):
            domain = f"q{i}x{j}.example"
            specs.append((domain, {key}))
            ranks[domain] = 100
    records = _records_with_ranks(specs, ranks)
    series, _ = popularity_by_size(records, max_size=5)
    assert [s for s, _, _ in series] == [1, 2, 3, 5]


# --- shannon_diversity ------------------------------------------------------

def test_shannon_single_category():
    report = shannon_diversity(["News"] * 4)
    assert report.shannon_h == 0.0 and report.richness == 1 and report.h_max == 0.0
    assert math.copysign(1, report.shannon_h) == 1  # +0.0, not -0.0


def test_shannon_uniform_two():
    report = shannon_diversity(["News", "News", "Arts", "Arts"])
    assert report.shannon_h == pytest.approx(math.log(2), abs=1e-12)


def test_shannon_three_one():
    report = shannon_diversity(["News"] * 3 + ["Arts"])
    assert report.shannon_h == pytest.approx(0.5623, abs=1e-4)


def test_shannon_empty_errors():
    with pytest.raises(ValueError):
        shannon_diversity([])


def test_shannon_bounds_random_multisets():
    rng = random.Random(19)
    labels = [f"cat{i}" for i in range(12)]
    for _ in range(1000):
        n = rng.randrange(1, 40)
        sample = [rng.choice(labels) for _ in range(n)]
        report = shannon_diversity(sample)
        assert -1e-12 <= report.shannon_h <= report.h_max + 1e-12
        assert sum(report.proportions.values()) == pytest.approx(1.0)


# --- poisson baseline -------------------------------------------------------

def _counts(cats):
    return sorted(Counter(cats.values()).values())


def test_poisson_single_category():
    cats = {f"s{i}.example": "News" for i in range(6)}
    assert poisson_sampling_baseline(cats, k=3) == 1.0


def test_poisson_exhaustive_draw():
    cats = {"a.example": "News", "b.example": "Arts", "c.example": "Arts",
            "d.example": "Science"}
    assert poisson_sampling_baseline(cats, k=4) == 3.0


def test_poisson_matches_hypergeometric_expectation():
    cats = {"a.example": "A", "b.example": "A", "c.example": "B", "d.example": "B"}
    expected = hypergeometric_expected_richness([2, 2], 2)
    assert expected == Fraction(5, 3)
    assert poisson_sampling_baseline(cats, k=2) == 5 / 3


def test_poisson_independent_of_map_order():
    cats = {f"s{i}.example": f"c{i % 3}" for i in range(9)}
    reordered = dict(reversed(list(cats.items())))
    assert poisson_sampling_baseline(cats, k=4) == poisson_sampling_baseline(reordered, k=4)


def test_poisson_rejects_oversized_k():
    with pytest.raises(ValueError):
        poisson_sampling_baseline({"a.example": "News"}, k=2)
    with pytest.raises(ValueError):
        poisson_sampling_baseline({"a.example": "News"}, k=0)


def test_poisson_monotone_in_k():
    rng = random.Random(21)
    cats = {f"s{i:03d}.example": f"c{rng.randrange(5)}" for i in range(30)}
    baselines = [poisson_sampling_baseline(cats, k) for k in range(1, 31)]
    assert baselines == [float(hypergeometric_expected_richness(_counts(cats), k))
                         for k in range(1, 31)]
    assert baselines == sorted(baselines)
    assert baselines[0] == 1.0 and baselines[-1] == len(set(cats.values()))


def _small_map(seed):
    """A seeded map of 1 to 12 sites: one category for seed 0, one
    category per site for seed 1, a random labelling otherwise."""
    rng = random.Random(seed)
    n = rng.randrange(1, 13)
    kinds = {0: 1, 1: n}.get(seed, rng.randrange(1, n + 1))
    return {f"s{i:02d}.example": f"c{i % kinds if seed < 2 else rng.randrange(kinds)}"
            for i in range(n)}


@pytest.mark.parametrize("seed", range(30))
def test_poisson_equals_the_enumeration_oracle(seed):
    cats = _small_map(seed)
    for k in range(1, len(cats) + 1):
        assert poisson_sampling_baseline(cats, k) == float(enumerated_expected_richness(cats, k))


def test_enumeration_maps_cover_both_sides_of_the_category_size():
    maps = [_small_map(seed) for seed in range(30)]
    assert len(maps[0]) > len(set(maps[0].values())) == 1
    assert len(set(maps[1].values())) == len(maps[1]) > 1
    pairs = {(m > k) - (m < k) for cats in maps
             for m in _counts(cats) for k in range(1, len(cats) + 1)}
    assert pairs == {-1, 0, 1}  # categories smaller than, as large as and larger than k


def test_baseline_agrees_with_per_trial_choice():
    # The per-trial Generator.choice mean lies within 4 sigma of the exact
    # expectation. Hit indicators of sampling without replacement are
    # negatively associated, so the richness variance is at most K/4.
    rng = random.Random(5)
    cats = {f"s{i:04d}.example": f"c{rng.randrange(20)}" for i in range(4000)}
    trials = 2000
    sigma = math.sqrt(len(set(cats.values())) / 4 / trials)
    for k in (2, 5, 12, 40):
        exact = poisson_sampling_baseline(cats, k)
        assert abs(poisson_baseline_oracle(cats, k, trials, 17) - exact) <= 4 * sigma


# --- richness_vs_baseline ---------------------------------------------------

@pytest.mark.parametrize("seed", range(9))
def test_baselines_equal_the_per_size_oracle(seed):
    rng = random.Random(seed)
    n = rng.randrange(2, 60) if seed < 6 else rng.randrange(60, 3000)
    names = rng.sample(range(10_000), n)
    cats = {f"s{i}.example": f"c{rng.randrange(1, 8)}" for i in names}
    sites = list(cats)
    sizes = sorted({1, n, *(rng.randrange(1, n + 1) for _ in range(6)),
                    *(rng.randrange(1, min(n, 40) + 1) for _ in range(3))})
    rng.shuffle(sizes)
    groups = [rng.sample(sites, k) + ["unlabeled.example"] for k in sizes]
    oracle = {k: float(hypergeometric_expected_richness(_counts(cats), k)) for k in sizes}
    series = richness_vs_baseline(groups, cats)
    assert [(size, baseline) for size, _, baseline in series] == sorted(oracle.items())
    for k in sizes:
        assert poisson_sampling_baseline(cats, k) == oracle[k]


@pytest.mark.parametrize("size", [2, 10, 299, 300])
def test_stats_poisson_writes_the_oracle_mean(tmp_path, size):
    rng = random.Random(size)
    cats = {f"s{i:03d}.example": f"c{rng.randrange(9)}" for i in range(300)}
    path = tmp_path / "cats.csv"
    path.write_text("".join(f"{site},{label}\n" for site, label in cats.items()),
                    encoding="utf-8")
    out = tmp_path / "baseline.json"
    assert adgraph.cli.run(["stats", "poisson", "--categories", str(path), "--size", str(size),
                            "--out", str(out)]) == 0
    expected = {"size": size, "labeled_sites": 300,
                "mean_richness": float(hypergeometric_expected_richness(_counts(cats), size))}
    assert out.read_text(encoding="utf-8") == json.dumps(expected, sort_keys=True, indent=2) + "\n"


def test_richness_single_category_groups():
    cats = {f"s{i}.example": "News" for i in range(10)}
    groups = [[f"s{i}.example", f"s{i+1}.example"] for i in range(0, 8, 2)]
    series = richness_vs_baseline(groups, cats)
    for _, observed, baseline in series:
        assert observed == 1.0 <= baseline


def test_richness_preferential_grouping_below_baseline():
    # categories balanced; groups deliberately single-category
    cats = {}
    groups = []
    for c in range(4):
        members = [f"c{c}s{i}.example" for i in range(6)]
        for m in members:
            cats[m] = f"cat{c}"
        groups.append(members[:3])
        groups.append(members[3:])
    series = richness_vs_baseline(groups, cats)
    for size, observed, baseline in series:
        assert size == 3 and observed == 1.0
        assert observed < baseline


def test_richness_self_consistency_with_sampler():
    rng = np.random.default_rng(31)
    cats = {f"s{i:03d}.example": f"c{i % 5}" for i in range(40)}
    sites = sorted(cats)
    groups = [list(np.array(sites)[rng.choice(40, size=6, replace=False)]) for _ in range(300)]
    series = richness_vs_baseline(groups, cats)
    (size, observed, baseline), = [row for row in series if row[0] == 6]
    assert abs(observed - baseline) < 0.15


def test_richness_skips_unlabeled_members():
    cats = {"a.example": "News", "b.example": "Arts"}
    series = richness_vs_baseline([["a.example", "b.example", "zz.example"], ["zz.example"]],
                                  cats)
    assert [row[0] for row in series] == [2]


# --- category_distribution --------------------------------------------------

def test_category_distribution_mirror():
    cats = {}
    spec = [("News and Media", 49), ("Computers Electronics and Technology", 37),
            ("Arts", 22), ("Science", 16), ("Other", 76)]
    for label, count in spec:
        for _ in range(count):
            cats[f"s{len(cats):03d}.example"] = label
    hist = category_distribution(list(cats), cats)
    assert hist["News and Media"] == pytest.approx(0.245)
    assert sum(hist.values()) == pytest.approx(1.0)


def test_category_distribution_uniform():
    cats = {f"s{i}.example": f"cat{i % 4}" for i in range(8)}
    hist = category_distribution(iter(cats), cats)
    assert set(hist.values()) == {0.25}


def test_category_distribution_no_labels():
    assert category_distribution(["a.example"], {}) == {}
