"""Distributional statistics over profiles, publishers and categories.

Covers per-site identifier counts, publisher portfolio sizes, discrete
power-law fitting with a power-law-vs-exponential likelihood ratio test,
the popularity-vs-size regression, category histograms, Shannon diversity
and the category-sampling richness baseline.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass
from statistics import median
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import erfc, zeta

from .extractor import KIND_ORDER, IdKind, SiteIdProfile
from .graphs import BipartiteGraph

DEFAULT_SEED = 17

_MIN_TAIL = 10
_ALPHA_BOUNDS = (1.000001, 25.0)


# ---------------------------------------------------------------------------
# Identifier and publisher distributions
# ---------------------------------------------------------------------------

def per_site_id_counts(profiles: Sequence[SiteIdProfile]) -> dict[IdKind, dict[int, float]]:
    """Per kind: fraction of bearing sites holding exactly k distinct keys."""
    out: dict[IdKind, dict[int, float]] = {}
    for kind in KIND_ORDER:
        counts: dict[int, int] = {}
        for p in profiles:
            k = len(p.keys_for(kind))
            if k > 0:
                counts[k] = counts.get(k, 0) + 1
        total = sum(counts.values())
        out[kind] = {k: c / total for k, c in sorted(counts.items())} if total else {}
    return out


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
        member_ranks = sorted(ranks[s] for s in sites if s in ranks) if ranks else []
        mean_rank = sum(member_ranks) / len(member_ranks) if member_ranks else None
        median_rank = float(median(member_ranks)) if member_ranks else None
        records.append(PublisherRecord(key, sites, mean_rank, median_rank))
    records.sort(key=lambda r: (-r.size, r.key))
    return records


def category_distribution(
    profiles: Sequence[SiteIdProfile], category_map: Mapping[str, str]
) -> dict[str, float]:
    """Category shares among labeled Publisher-bearing sites."""
    labels = [
        category_map[p.landing_domain]
        for p in profiles
        if p.keys_for(IdKind.PUBLISHER) and p.landing_domain in category_map
    ]
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
    h = -sum(p * math.log(p) for p in proportions.values() if p > 0)
    return DiversityReport(
        richness=len(counts),
        proportions=proportions,
        shannon_h=h,
        h_max=math.log(len(counts)),
    )


def poisson_sampling_baseline(
    category_map: Mapping[str, str],
    k: int,
    trials: int,
    seed: int = DEFAULT_SEED,
) -> float:
    """Expected category richness when a publisher of size k picks its
    sites uniformly at random from the labeled corpus.

    Uniform choice over sites biases selection by category prevalence,
    which is exactly the null model wanted for the preference test. Each
    trial derives its own generator from (seed, trial), so the mean is
    independent of execution order.
    """
    return _sampling_baselines(category_map, [k], trials, seed)[0]


# Trial x slot elements in one block of the vectorised baseline replay.
_REPLAY_BLOCK_ELEMENTS = 1 << 16
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _replays(n: int, k: int) -> bool:
    """Whether the baseline replays ``Generator.choice(n, k, replace=False)``
    for a size k < n, instead of calling it for every trial.

    ``choice`` runs Floyd's algorithm on 32-bit draws unless n > 10,000 and
    k > n // 50, where it shuffles a tail instead. A trial replays when its
    k draws are distinct, which has probability (n-k+1)^k (n-k)! / n!;
    below one half, most trials would rerun anyway.
    """
    if n > 10_000 and k > n // 50:
        return False
    return k * math.log(n - k + 1) + math.lgamma(n - k + 1) - math.lgamma(n + 1) >= -math.log(2)


def _choice(n: int, k: int, seed: int, trial: int) -> np.ndarray:
    """Trial ``trial``'s sample of size k, from ``Generator.choice`` itself."""
    return np.random.default_rng([seed, trial]).choice(n, size=k, replace=False)


def _richness(codes: np.ndarray) -> int:
    return len(set(codes.tolist()))


def _sampling_baselines(
    category_map: Mapping[str, str], sizes: Sequence[int], trials: int, seed: int
) -> list[float]:
    """``poisson_sampling_baseline`` for each of ``sizes``, in one pass.

    Size k in trial t counts the categories of
    ``default_rng([seed, t]).choice(n, k, replace=False)``. That is Floyd's
    algorithm: slot s draws a Lemire bounded integer in [0, j] for
    j = n - k + s, from one 32-bit output of the trial's PCG64 stream each,
    and keeps it unless it was drawn before. So the first k outputs of the
    stream give every trial's sample at once, in numpy. Trials whose draws
    hit Lemire's rejection branch or repeat a value rerun through
    ``choice``, and so do all trials of a size that ``_replays`` declines;
    the means are exactly those of calling ``choice`` every time.
    """
    if not sizes:
        return []
    sites = sorted(category_map)
    n = len(sites)
    for k in sizes:
        if k < 1 or k > n:
            raise ValueError(f"k must be in [1, {n}], got {k}")
    if not 1 <= trials <= 1 << 32:  # a trial number is one 32-bit seed word
        raise ValueError(f"trials must be in [1, 2**32], got {trials}")
    if operator.index(seed) < 0:
        raise ValueError("expected non-negative integer")  # SeedSequence's words
    labels = np.array([category_map[s] for s in sites])
    categories, codes = np.unique(labels, return_inverse=True)
    totals = [0] * len(sizes)
    replayed = []
    for i, k in enumerate(sizes):
        if k == n:  # every site is drawn (slot 0 draws nothing, j = 0)
            totals[i] = len(categories) * trials
        elif _replays(n, k):
            replayed.append(i)
        else:
            totals[i] = sum(_richness(codes[_choice(n, k, seed, t)]) for t in range(trials))
    if replayed:
        words = (max(sizes[i] for i in replayed) + 1) // 2
        rows = max(1, _REPLAY_BLOCK_ELEMENTS // (2 * words))
        for first in range(0, trials, rows):
            block = range(first, min(first + rows, trials))
            stream = _uint32_stream(seed, block, words)
            for i in replayed:
                totals[i] += _replay_floyd(codes, sizes[i], stream, seed, block)
    return [total / trials for total in totals]


def _uint32_stream(seed: int, block: range, words: int) -> np.ndarray:
    """The first ``2 * words`` 32-bit outputs of each trial's generator,
    one row per trial, in ``next_uint32`` order: each 64-bit word gives its
    low half, then its high half."""
    return _pcg64_raw(seed, block, words).astype("<u8", copy=False).view("<u4")


def _replay_floyd(
    codes: np.ndarray, k: int, stream: np.ndarray, seed: int, block: range
) -> int:
    """Summed richness of size k over ``block``'s trials, replaying
    ``choice``'s Floyd draws from ``stream`` (requires k < n)."""
    n = len(codes)
    bound = np.arange(n - k + 1, n + 1, dtype=np.uint64)  # j + 1 for each slot
    drawn = stream[:, :k] * bound  # Lemire: the high half is the draw
    rerun = ((drawn & _MASK32) < (1 << 32) % bound).any(axis=1)  # the low half rejects
    drawn >>= 32
    drawn.sort(axis=1)
    rerun |= (drawn[:, 1:] == drawn[:, :-1]).any(axis=1)
    picked = codes[drawn]
    picked.sort(axis=1)
    richness = 1 + np.count_nonzero(picked[:, 1:] != picked[:, :-1], axis=1)
    total = int(richness[~rerun].sum())
    for row in np.flatnonzero(rerun).tolist():
        total += _richness(codes[_choice(n, k, seed, block[row])])
    return total


# ---------------------------------------------------------------------------
# numpy's PCG64 streams for many seeds at once
# ---------------------------------------------------------------------------

# SeedSequence's hash constants, and the multiplier of PCG64's 128-bit LCG.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_raw(seed: int, block: range, words: int) -> np.ndarray:
    """``np.random.PCG64([seed, t]).random_raw(words)`` for each trial t of
    ``block`` (all below 2**32), one row per trial, computed for all rows
    and words at once. 128-bit values are (high, low) pairs of uint64
    arrays."""
    halves = [half[:, None].astype(np.uint64) for half in _seed_sequence_state(seed, block)]
    state = [halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2)]
    # pcg64_set_seed: the first 128 bits seed the state, the next the stream.
    # Seeding steps once from inc + seed, and every output steps first.
    inc = (state[2] << 1 | state[3] >> 63, state[3] << 1 | 1)
    hi, lo = _add128(*inc, state[0], state[1])
    for _ in range(2):
        hi, lo = _add128(*_mul128(hi, lo, _PCG_MULT), *inc)
    # Jump ahead by doubling: s[w + span] = mult * s[w] + plus * inc, where
    # mult = M**span and plus = 1 + M + ... + M**(span - 1).
    mult, plus = _PCG_MULT, 1
    while hi.shape[1] < words:
        next_hi, next_lo = _add128(*_mul128(hi, lo, mult), *_mul128(*inc, plus))
        hi, lo = np.hstack([hi, next_hi]), np.hstack([lo, next_lo])
        mult, plus = mult * mult & _MASK128, plus * (mult + 1) & _MASK128
    hi, lo = hi[:, :words], lo[:, :words]
    folded, rotation = hi ^ lo, hi >> 58  # XSL-RR output
    return folded >> rotation | folded << ((64 - rotation) & 63)


def _seed_sequence_state(seed: int, block: range) -> list[np.ndarray]:
    """``SeedSequence([seed, t]).generate_state(8)`` for each trial t of
    ``block`` and a seed >= 0: eight uint32 columns."""
    seed = operator.index(seed)
    entropy = [np.full(len(block), (seed >> shift) & _MASK32, dtype=np.uint32)
               for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy.append(np.arange(block.start, block.stop, dtype=np.uint32))
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ value >> 16

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ result >> 16

    zero = np.zeros(len(block), dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for extra in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(extra))
    out, hash_const = [], _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        out.append(value ^ value >> 16)
    return out


def _mul128(hi: np.ndarray, lo: np.ndarray, c: int) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) times the constant c, modulo 2**128."""
    c_hi, c_lo = c >> 64, c & _MASK64
    c1, c0 = c_lo >> 32, c_lo & _MASK32
    a1, a0 = lo >> 32, lo & _MASK32
    p00, p01, p10, p11 = a0 * c0, a0 * c1, a1 * c0, a1 * c1
    middle = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    carry = p11 + (p01 >> 32) + (p10 >> 32) + (middle >> 32)  # high word of lo * c_lo
    return carry + lo * c_hi + hi * c_lo, lo * c_lo


def _add128(
    hi: np.ndarray, lo: np.ndarray, b_hi: np.ndarray, b_lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    low = lo + b_lo
    return hi + b_hi + (low < b_lo), low


def richness_vs_baseline(
    groups: Iterable[Iterable[str]],
    category_map: Mapping[str, str],
    trials: int,
    seed: int = DEFAULT_SEED,
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
    sizes = sorted(observed)
    baselines = _sampling_baselines(category_map, sizes, trials, seed)
    return [
        (size, float(np.mean(observed[size])), baseline)
        for size, baseline in zip(sizes, baselines)
    ]
