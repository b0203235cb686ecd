"""
Distributional statistics: power laws, popularity, diversity
============================================================

The analysis layer answers "how big are publishers, how popular are
their sites, and how themed are their portfolios".
"""

import numpy as np

from adgraph import (
    fit_power_law,
    linear_fit,
    loglikelihood_ratio,
    poisson_sampling_baseline,
    richness_vs_baseline,
    shannon_diversity,
)

# Publisher portfolio sizes are heavy-tailed. Generate a synthetic
# discrete power-law sample by inverse-CDF and recover its exponent, then
# run the power-law-vs-exponential likelihood ratio test: positive means
# the power law explains the tail better.
rng = np.random.default_rng(2)
u = rng.random(10_000)
alpha_true = 2.5
sizes = np.floor((1 - u) ** (-1 / (alpha_true - 1))).astype(int)  # continuous approx
sizes = sizes[sizes >= 1][:5000]
fit = fit_power_law(sizes)
statistic, p_value = loglikelihood_ratio(sizes, fit)
print(f"fitted alpha={fit.alpha:.2f} at xmin={fit.xmin} (true {alpha_true})")
print(f"LR statistic={statistic:.1f} p={p_value:.2e} -> power law preferred: {statistic > 0}")

# Popularity vs size is summarized with an ordinary least-squares line.
points = [(size, 1000 - 40 * size + float(rng.normal(0, 25))) for size in range(1, 15)]
ols = linear_fit(points)
print(f"\nOLS slope={ols.slope:.1f} intercept={ols.intercept:.0f} r2={ols.r_squared:.2f}")

# Shannon diversity of the categories inside one publisher's portfolio:
# 0 for a single-theme portfolio, ln(richness) when all themes are equal.
themed = shannon_diversity(["News"] * 8 + ["Sports"] * 1)
mixed = shannon_diversity(["News", "Sports", "Arts", "Science"])
print(f"\nthemed portfolio: H'={themed.shannon_h:.3f} (max {themed.h_max:.3f})")
print(f"mixed portfolio:  H'={mixed.shannon_h:.3f} (max {mixed.h_max:.3f})")

# The sampling baseline asks: if a publisher of size k picked sites at
# random (biased only by category prevalence), how many distinct
# categories would it hold on average? It is computed exactly, with no
# sampling. Real portfolios fall below this baseline when administration
# is preferential.
category_map = {f"news{i}.example": "News" for i in range(12)}
category_map.update({f"tech{i}.example": "Tech" for i in range(6)})
category_map.update({f"arts{i}.example": "Arts" for i in range(6)})
for k in (2, 5, 10):
    print(f"baseline richness at size {k}:",
          round(poisson_sampling_baseline(category_map, k), 3))

# Compare observed groups against the baseline: these single-theme groups
# sit well under it.
groups = [[f"news{i}.example" for i in range(4)], [f"tech{i}.example" for i in range(4)]]
for size, observed, baseline in richness_vs_baseline(groups, category_map):
    print(f"size {size}: observed {observed:.2f} vs baseline {baseline:.2f}")
