"""Parametric counterparts of the permutation tests.

The paper chooses resampling over parametric testing (Section 5.1.1); these
scipy-backed tests exist as a faster alternative engine and as the
comparison arm of the permutation-vs-parametric ablation benchmark.
scipy is imported on first use, so the default (permutation) engine never
pays for loading it.
"""

from __future__ import annotations

import numpy as np

from repro.stats.permutation import (
    TestResult,
    _clean_pair,
    mean_difference,
    variance_difference,
)


def welch_mean_greater(x: np.ndarray, y: np.ndarray) -> TestResult:
    """One-sided Welch t-test of ``mean(x) > mean(y)`` (unequal variances)."""
    x, y = _clean_pair(x, y)
    if x.size < 2 or y.size < 2:
        return TestResult(mean_difference(x, y), 1.0)
    if np.var(x) == 0 and np.var(y) == 0:
        # Degenerate: constant samples; fall back on a direct comparison.
        diff = mean_difference(x, y)
        return TestResult(diff, 0.0 if diff > 0 else 1.0)
    from scipy import stats as scipy_stats
    result = scipy_stats.ttest_ind(x, y, equal_var=False, alternative="greater")
    return TestResult(mean_difference(x, y), float(result.pvalue))


def f_variance_greater(x: np.ndarray, y: np.ndarray) -> TestResult:
    """One-sided F-test of ``var(x) > var(y)``.

    The classical variance-ratio test; sensitive to non-normality, which is
    exactly why the paper prefers resampling — the ablation quantifies the
    difference.
    """
    x, y = _clean_pair(x, y)
    if x.size < 2 or y.size < 2:
        return TestResult(variance_difference(x, y), 1.0)
    vx = float(np.var(x, ddof=1))
    vy = float(np.var(y, ddof=1))
    if vy == 0:
        p = 0.0 if vx > 0 else 1.0
        return TestResult(vx - vy, p)
    from scipy import stats as scipy_stats
    ratio = vx / vy
    p = float(scipy_stats.f.sf(ratio, x.size - 1, y.size - 1))
    return TestResult(vx - vy, p)


def levene_variance_greater(x: np.ndarray, y: np.ndarray) -> TestResult:
    """One-sided Brown–Forsythe (median-centred Levene) variance test.

    More robust to non-normality than the F-test.  The two-sided Levene
    p-value is halved and directed by the sign of the observed variance
    difference.
    """
    x, y = _clean_pair(x, y)
    if x.size < 2 or y.size < 2:
        return TestResult(variance_difference(x, y), 1.0)
    from scipy import stats as scipy_stats
    diff = variance_difference(x, y)
    try:
        _, two_sided = scipy_stats.levene(x, y, center="median")
    except ValueError:
        return TestResult(diff, 1.0)
    if np.isnan(two_sided):
        return TestResult(diff, 1.0)
    p = two_sided / 2.0 if diff > 0 else 1.0 - two_sided / 2.0
    return TestResult(diff, float(min(1.0, max(0.0, p))))
