"""Distributional statistics over profiles, publishers and categories.

Covers per-site identifier counts, publisher portfolio sizes, discrete
power-law fitting with a power-law-vs-exponential likelihood ratio test,
the popularity-vs-size regression, category histograms, Shannon diversity
and the exact richness baseline under uniform site sampling.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction
from statistics import median
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import erfc, zeta

from .extractor import IdKind, SiteIdProfile
from .graphs import BipartiteGraph

_MIN_TAIL = 10
_ALPHA_BOUNDS = (1.000001, 25.0)


# ---------------------------------------------------------------------------
# Identifier and publisher distributions
# ---------------------------------------------------------------------------

class SiteIdCounts:
    """``per_site_id_counts`` as a fold: ``add`` each profile as it passes,
    then read ``fractions()``."""

    def __init__(self) -> None:
        self.sites: dict[IdKind, dict[int, int]] = {kind: {} for kind in IdKind}

    def add(self, profile: SiteIdProfile) -> None:
        for kind, keys in profile.keys.items():
            if keys:
                by_size = self.sites[kind]
                by_size[len(keys)] = by_size.get(len(keys), 0) + 1

    def fractions(self) -> dict[IdKind, dict[int, float]]:
        out: dict[IdKind, dict[int, float]] = {}
        for kind, by_size in self.sites.items():
            total = sum(by_size.values())
            out[kind] = {k: c / total for k, c in sorted(by_size.items())}
        return out


def per_site_id_counts(profiles: Iterable[SiteIdProfile]) -> dict[IdKind, dict[int, float]]:
    """Per kind: fraction of bearing sites holding exactly k distinct keys,
    in one pass over the profiles."""
    counts = SiteIdCounts()
    for p in profiles:
        counts.add(p)
    return counts.fractions()


@dataclass(frozen=True)
class PublisherRecord:
    key: str
    sites: frozenset[str]
    mean_rank: float | None = None
    median_rank: float | None = None

    @property
    def size(self) -> int:
        return len(self.sites)


def publisher_sizes(
    bipartite: BipartiteGraph, ranks: Mapping[str, int] | None = None
) -> list[PublisherRecord]:
    """One record per identifier, largest portfolio first (ties by key).

    ``ranks`` maps landing domains to popularity ranks; mean/median ranks
    cover the member sites that have one and are None otherwise.
    """
    records = []
    for key, sites in bipartite.key_to_sites.items():
        member_ranks = [ranks[s] for s in sites if s in ranks] if ranks else []
        mean_rank = sum(member_ranks) / len(member_ranks) if member_ranks else None
        median_rank = float(median(member_ranks)) if member_ranks else None
        records.append(PublisherRecord(key, sites, mean_rank, median_rank))
    records.sort(key=lambda r: (-r.size, r.key))
    return records


def category_distribution(
    publisher_sites: Iterable[str], category_map: Mapping[str, str]
) -> dict[str, float]:
    """Category shares among the labeled sites of ``publisher_sites``, the
    Publisher-bearing domains (the site nodes of a Publisher graph)."""
    labels = [category_map[site] for site in publisher_sites if site in category_map]
    if not labels:
        return {}
    counts: dict[str, int] = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    return {label: c / len(labels) for label, c in sorted(counts.items())}


# ---------------------------------------------------------------------------
# Discrete power law (MLE + KS xmin scan) and likelihood ratio test
# ---------------------------------------------------------------------------

@dataclass
class PowerLawFit:
    alpha: float
    xmin: int
    ks_stat: float
    n_tail: int
    lr_statistic: float | None = None
    lr_p_value: float | None = None

    def to_json_obj(self) -> dict:
        return asdict(self)


def _fit_alpha(tail_log_sum: float, n: int, xmin: int) -> float:
    """MLE exponent for the discrete power law x^-alpha / zeta(alpha, xmin)."""

    def nll(alpha: float) -> float:
        return alpha * tail_log_sum + n * math.log(zeta(alpha, xmin))

    res = minimize_scalar(nll, bounds=_ALPHA_BOUNDS, method="bounded")
    return float(res.x)


def fit_power_law(sizes: Sequence[int] | np.ndarray, xmin: int | None = None) -> PowerLawFit:
    """Discrete power-law fit with the KS-minimizing lower cutoff.

    The exponent is fit by maximum likelihood at every candidate xmin
    (unique sample values leaving >= 10 tail observations with some
    variation); the returned fit minimizes the KS distance between the
    empirical and fitted tail. Passing ``xmin`` pins the cutoff and skips
    the scan. Raises ValueError on fewer than 10 observations or a
    degenerate (constant) sample.
    """
    xs = np.asarray(sizes, dtype=np.int64)
    if xs.size < _MIN_TAIL:
        raise ValueError(f"need at least {_MIN_TAIL} observations, got {xs.size}")
    if np.any(xs < 1):
        raise ValueError("sizes must be positive integers")
    xs = np.sort(xs)
    if xs[0] == xs[-1]:
        raise ValueError("degenerate sample: all values identical")
    log_xs = np.log(xs)
    suffix_log = np.concatenate([np.cumsum(log_xs[::-1])[::-1], [0.0]])
    candidates = np.unique(xs) if xmin is None else np.asarray([xmin], dtype=np.int64)

    best: tuple[float, int, float, int] | None = None  # (ks, xmin, alpha, n_tail)
    for candidate in candidates:
        start = int(np.searchsorted(xs, candidate, side="left"))
        tail = xs[start:]
        if tail.size < _MIN_TAIL or tail[0] == tail[-1]:
            continue
        alpha = _fit_alpha(float(suffix_log[start]), int(tail.size), int(candidate))
        uniq = np.unique(tail)
        ecdf = np.searchsorted(tail, uniq, side="right") / tail.size
        model = 1.0 - zeta(alpha, uniq + 1) / zeta(alpha, int(candidate))
        ks = float(np.max(np.abs(ecdf - model)))
        if best is None or (ks, int(candidate)) < (best[0], best[1]):
            best = (ks, int(candidate), alpha, int(tail.size))
    if best is None:
        raise ValueError("no viable cutoff: every tail is too short or constant")
    ks, chosen, alpha, n_tail = best
    return PowerLawFit(alpha=alpha, xmin=chosen, ks_stat=ks, n_tail=n_tail)


def loglikelihood_ratio(
    sample: Sequence[int] | np.ndarray, fit: PowerLawFit
) -> tuple[float, float]:
    """Normalized (Vuong) log-likelihood ratio: fitted discrete power law
    against an MLE discrete exponential, on the tail x >= fit.xmin.

    Positive statistic favors the power law; the p-value is the two-sided
    normal approximation. Identical per-point likelihoods give (0, 1).
    """
    xs = np.asarray(sample, dtype=np.int64)
    tail = np.sort(xs[xs >= fit.xmin])
    n = tail.size
    if n < _MIN_TAIL:
        raise ValueError(f"tail above xmin={fit.xmin} has fewer than {_MIN_TAIL} points")

    ll_pl = -fit.alpha * np.log(tail) - math.log(zeta(fit.alpha, fit.xmin))

    shifted = tail - fit.xmin
    mean_shift = float(np.mean(shifted))
    if mean_shift == 0:
        # Exponential MLE degenerates to a point mass at xmin.
        ll_exp = np.zeros(n)
    else:
        lam = math.log1p(1.0 / mean_shift)
        ll_exp = math.log(-math.expm1(-lam)) - lam * shifted

    return _vuong_normalize(ll_pl - ll_exp)


def _vuong_normalize(diffs: np.ndarray) -> tuple[float, float]:
    """Statistic = sum of per-point log-likelihood differences; two-sided
    normal p-value with the empirical variance. Identical models (all
    diffs zero) give (0, 1); zero variance with a nonzero sum gives p=0."""
    statistic = float(np.sum(diffs))
    variance = float(np.mean((diffs - np.mean(diffs)) ** 2))
    if variance == 0:
        return statistic, 1.0 if statistic == 0 else 0.0
    p_value = float(erfc(abs(statistic) / math.sqrt(2 * diffs.size * variance)))
    return statistic, p_value


# ---------------------------------------------------------------------------
# Ordinary least squares
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegressionFit:
    slope: float
    intercept: float
    r_squared: float

    def to_json_obj(self) -> dict:
        return asdict(self)


def linear_fit(points: Sequence[tuple[float, float]]) -> RegressionFit:
    """OLS line through >= 3 points; r^2 = 1 for a perfectly constant y
    (the 0/0 convention), error when x carries no variation."""
    if len(points) < 3:
        raise ValueError("linear fit needs at least 3 points")
    x = np.asarray([p[0] for p in points], dtype=float)
    y = np.asarray([p[1] for p in points], dtype=float)
    if np.all(x == x[0]):
        raise ValueError("degenerate fit: x values are all equal")
    x_mean, y_mean = float(np.mean(x)), float(np.mean(y))
    sxx = float(np.sum((x - x_mean) ** 2))
    sxy = float(np.sum((x - x_mean) * (y - y_mean)))
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    ss_tot = float(np.sum((y - y_mean) ** 2))
    if ss_tot == 0:
        return RegressionFit(slope=slope, intercept=intercept, r_squared=1.0)
    ss_res = float(np.sum((y - (slope * x + intercept)) ** 2))
    return RegressionFit(slope=slope, intercept=intercept, r_squared=1.0 - ss_res / ss_tot)


def popularity_by_size(
    records: Sequence[PublisherRecord], max_size: int | None = None
) -> tuple[list[tuple[int, float, float]], RegressionFit]:
    """Publisher popularity grouped by portfolio size.

    Per size bucket: mean of the publishers' mean ranks and median of their
    median ranks; buckets above ``max_size`` collapse into it. Returns the
    bucket series plus an OLS fit of mean rank against size (>= 3 buckets
    required). Publishers without ranked members are excluded.
    """
    ranked = [r for r in records if r.mean_rank is not None]
    if not ranked:
        raise ValueError("no publisher has ranked member sites")
    buckets: dict[int, tuple[list[float], list[float]]] = {}
    for r in ranked:
        size = r.size if max_size is None else min(r.size, max_size)
        means, medians = buckets.setdefault(size, ([], []))
        means.append(r.mean_rank)
        medians.append(r.median_rank)
    series = [
        (size, float(np.mean(means)), float(np.median(medians)))
        for size, (means, medians) in sorted(buckets.items())
    ]
    if len(series) < 3:
        raise ValueError("popularity fit needs at least 3 size buckets")
    fit = linear_fit([(size, mean) for size, mean, _ in series])
    return series, fit


# ---------------------------------------------------------------------------
# Category diversity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiversityReport:
    richness: int
    proportions: dict[str, float]
    shannon_h: float
    h_max: float


def shannon_diversity(categories: Iterable[str]) -> DiversityReport:
    """Shannon index H' = -sum(p_i ln p_i) over category proportions.

    H' is 0 for a single category and at most ln(richness), reached when
    all categories are equally common.
    """
    counts: dict[str, int] = {}
    total = 0
    for label in categories:
        counts[label] = counts.get(label, 0) + 1
        total += 1
    if total == 0:
        raise ValueError("empty category multiset")
    proportions = {label: c / total for label, c in sorted(counts.items())}
    # 0.0 - x rather than -x: one category must give 0.0, not -0.0.
    h = 0.0 - sum(p * math.log(p) for p in proportions.values() if p > 0)
    return DiversityReport(
        richness=len(counts),
        proportions=proportions,
        shannon_h=h,
        h_max=math.log(len(counts)),
    )


def poisson_sampling_baseline(category_map: Mapping[str, str], k: int) -> float:
    """Expected category richness when a publisher of size k picks its
    sites uniformly at random, without replacement, from the labeled corpus.

    Uniform choice over sites biases selection by category prevalence,
    which is exactly the null model wanted for the preference test. The
    expectation is computed exactly (see ``_expected_richness``).
    """
    return _expected_richness(_sizes_of_categories(category_map), k)


def _sizes_of_categories(category_map: Mapping[str, str]) -> Counter[int]:
    """How many categories have each size m (their number of sites)."""
    return Counter(Counter(category_map.values()).values())


def _expected_richness(sizes: Mapping[int, int], k: int) -> float:
    """E[richness] = K - sum_c C(n - m_c, k) / C(n, k) for k of the n sites
    drawn without replacement, where ``sizes`` counts the K categories of
    each size m; the correctly rounded float of the exact rational.

    C(n - m, k) / C(n, k), the chance of missing a category of size m,
    equals C(n - k, m) / C(n, m); with j = min(m, k) it is
    C(n - max(m, k), j) / C(n, j), which keeps the binomials small.
    """
    n = sum(m * count for m, count in sizes.items())
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    missed = Fraction(0)
    for m, count in sizes.items():
        j = min(m, k)
        missed += Fraction(count * math.comb(n - max(m, k), j), math.comb(n, j))
    return float(sum(sizes.values()) - missed)


def richness_vs_baseline(
    groups: Iterable[Iterable[str]], category_map: Mapping[str, str]
) -> list[tuple[int, float, float]]:
    """Observed mean richness per group size against the sampling baseline.

    Group members without a category label are excluded; groups with no
    labeled member are skipped entirely.
    """
    observed: dict[int, list[int]] = {}
    for group in groups:
        labels = [category_map[site] for site in group if site in category_map]
        if not labels:
            continue
        observed.setdefault(len(labels), []).append(len(set(labels)))
    sizes = _sizes_of_categories(category_map)
    return [
        (size, float(np.mean(observed[size])), _expected_richness(sizes, size))
        for size in sorted(observed)
    ]
