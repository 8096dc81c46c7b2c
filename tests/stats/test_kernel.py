"""Unit + parity tests for the batched permutation-test kernel."""

import numpy as np
import pytest

from repro import obs
from repro.insights import (
    SignificanceConfig,
    enumerate_candidates,
    run_significance_tests,
)
from repro.insights.types import MEAN_GREATER, MEDIAN_GREATER, VARIANCE_GREATER
from repro.relational import table_from_arrays
from repro.stats import (
    KernelTest,
    SharedPermutations,
    derive_rng,
    mean_difference,
    mean_stat_from_moments,
    reduced_permutations,
    run_batched_tests,
    variance_difference,
    variance_stat_from_moments,
)
from repro.stats.kernel import MAX_STACK_ROWS
from tests.oracles import legacy_kernel


@pytest.fixture
def prng():
    return derive_rng(31, "kernel-tests")


class TestMomentFormulas:
    def test_mean_from_moments_matches_direct(self, prng):
        x = prng.normal(3, 2, 40)
        y = prng.normal(1, 2, 25)
        pooled = np.concatenate([x, y])
        stat = mean_stat_from_moments(float(x.sum()), float(pooled.sum()), 40, 25)
        assert stat == pytest.approx(mean_difference(x, y), rel=0, abs=1e-10)

    def test_variance_from_moments_matches_direct(self, prng):
        x = prng.normal(0, 4, 30)
        y = prng.normal(0, 1, 50)
        pooled = np.concatenate([x, y])
        squared = pooled * pooled
        stat = variance_stat_from_moments(
            float(x.sum()),
            float((x * x).sum()),
            float(pooled.sum()),
            float(squared.sum()),
            30,
            50,
        )
        assert stat == pytest.approx(variance_difference(x, y), rel=1e-9)

    def test_variance_from_moments_vectorized(self, prng):
        """Array inputs broadcast: one call per permutation column."""
        x_sums = prng.normal(10, 1, 7)
        x_sq = np.abs(prng.normal(50, 5, 7)) + x_sums**2 / 3
        stat = variance_stat_from_moments(x_sums, x_sq, 30.0, 400.0, 3, 4)
        assert stat.shape == (7,)


class TestLargeMagnitudeStability:
    def test_variance_p_matches_two_pass_reference_at_huge_mean(self, prng):
        """Values ~1e8 with unit variance: both kernels must agree with the
        stable two-pass ``np.var`` path.  The uncentered one-pass moment
        identity loses every significant digit in this regime (errors ~10
        against a statistic scale well under 1), silently flipping p-values;
        centering the pooled sample restores full precision."""
        batch = SharedPermutations(30, 30, 200, prng)
        x = prng.normal(1.0e8, 1.6, 30)
        y = prng.normal(1.0e8, 1.0, 30)
        observed = variance_difference(x, y)
        pooled = np.concatenate([x, y])
        reference = (
            np.var(pooled[batch.x_indices], axis=1, ddof=1)
            - np.var(pooled[batch.complement_indices()], axis=1, ddof=1)
        )
        slack = 1e-12 * max(1.0, abs(observed))
        extreme = int(np.count_nonzero(reference >= observed - slack))
        reference_p = (1.0 + extreme) / (1.0 + reference.size)
        legacy = batch.variance_greater(x, y)
        assert legacy.p_value == reference_p
        (got,) = run_batched_tests(batch, [_plan(VARIANCE_GREATER, batch, x, y)])
        assert got[1].p_value == legacy.p_value

    def test_mean_p_matches_gather_reference_at_huge_mean(self, prng):
        """Mean statistics are less cancellation-prone but share the
        centering; verify the legacy/batched pair still agrees with a
        direct gather-and-mean evaluation at large magnitude."""
        batch = SharedPermutations(25, 35, 200, prng)
        x = prng.normal(1.0e8 + 0.5, 1.0, 25)
        y = prng.normal(1.0e8, 1.0, 35)
        observed = mean_difference(x, y)
        pooled = np.concatenate([x, y])
        reference = (
            pooled[batch.x_indices].mean(axis=1)
            - pooled[batch.complement_indices()].mean(axis=1)
        )
        slack = 1e-12 * max(1.0, abs(observed))
        extreme = int(np.count_nonzero(reference >= observed - slack))
        reference_p = (1.0 + extreme) / (1.0 + reference.size)
        legacy = batch.mean_greater(x, y)
        assert legacy.p_value == reference_p
        (got,) = run_batched_tests(batch, [_plan(MEAN_GREATER, batch, x, y)])
        assert got[1].p_value == legacy.p_value


def _plan(itype, batch, x, y, index=0):
    pooled = np.concatenate([x, y])
    observed = itype.observed_statistic(x, y)
    return KernelTest(index, itype, pooled, observed)


class TestRunBatchedTests:
    def test_mean_parity_with_legacy_batch(self, prng):
        batch = SharedPermutations(30, 40, 150, prng)
        x, y = prng.normal(4, 1, 30), prng.normal(0, 1, 40)
        legacy = batch.mean_greater(x, y)
        (got,) = run_batched_tests(batch, [_plan(MEAN_GREATER, batch, x, y)])
        assert got[0] == 0
        assert got[1].p_value == legacy.p_value

    def test_variance_parity_with_legacy_batch(self, prng):
        batch = SharedPermutations(25, 25, 150, prng)
        x, y = prng.normal(0, 5, 25), prng.normal(0, 1, 25)
        legacy = batch.variance_greater(x, y)
        (got,) = run_batched_tests(batch, [_plan(VARIANCE_GREATER, batch, x, y)])
        assert got[1].p_value == legacy.p_value

    def test_many_tests_one_batch(self, prng):
        """Several measures share one batch; results keep their slots."""
        batch = SharedPermutations(20, 20, 99, prng)
        plans, expected = [], {}
        for i in range(6):
            x, y = prng.normal(i, 1, 20), prng.normal(0, 1, 20)
            itype = MEAN_GREATER if i % 2 == 0 else VARIANCE_GREATER
            plans.append(_plan(itype, batch, x, y, index=i))
            expected[i] = (
                batch.mean_greater(x, y) if i % 2 == 0 else batch.variance_greater(x, y)
            ).p_value
        results = dict(run_batched_tests(batch, plans))
        assert {i: r.p_value for i, r in results.items()} == expected

    def test_non_moment_type_falls_back(self, prng):
        """Median-greater has no moment form; the kernel delegates to it."""
        batch = SharedPermutations(15, 15, 60, prng)
        x = prng.normal(2, 1, 15)
        y = prng.normal(0, 1, 15)
        legacy = MEDIAN_GREATER.test(batch, x, y)
        (got,) = run_batched_tests(batch, [_plan(MEDIAN_GREATER, batch, x, y)])
        assert got[1].p_value == legacy.p_value

    def test_slicing_preserves_results_and_checkpoints(self, prng):
        """More moment rows than MAX_STACK_ROWS streams through in slices."""
        n_tests = MAX_STACK_ROWS + 10  # order-1 tests: forces at least 2 slices
        batch = SharedPermutations(10, 10, 50, prng)
        plans, expected = [], []
        for i in range(n_tests):
            x, y = prng.normal(1, 1, 10), prng.normal(0, 1, 10)
            plans.append(_plan(MEAN_GREATER, batch, x, y, index=i))
            expected.append(batch.mean_greater(x, y).p_value)
        ticks, progressed = [], []
        results = dict(
            run_batched_tests(
                batch, plans,
                checkpoint=lambda: ticks.append(1),
                progress=progressed.append,
            )
        )
        assert [results[i].p_value for i in range(n_tests)] == expected
        assert len(ticks) >= 2            # one per GEMM slice
        assert sum(progressed) == n_tests  # every test reported exactly once

    def test_tie_parity_with_large_magnitude_measures(self, prng):
        """Exact ties at 1e6 scale: GEMM-vs-gather ulp noise must not flip
        the extreme count (the tie slack scales with the statistic)."""
        batch = SharedPermutations(40, 1, 200, prng)
        x = prng.normal(2.0e6, 1.5e5, 40)
        y = np.array([1.1e6])
        legacy = batch.mean_greater(x, y)
        (got,) = run_batched_tests(batch, [_plan(MEAN_GREATER, batch, x, y)])
        # n_y == 1 makes every permutation keeping y fixed an exact tie.
        assert got[1].p_value == legacy.p_value

    def test_kernel_counters(self, prng):
        batch = SharedPermutations(10, 10, 50, prng)
        x, y = prng.normal(1, 1, 10), prng.normal(0, 1, 10)
        with obs.capture() as (_, metrics):
            run_batched_tests(batch, [_plan(MEAN_GREATER, batch, x, y)])
            snap = metrics.snapshot()
        assert snap["counters"]["stats.kernel_batches"] == 1
        assert snap["counters"]["stats.permutation_tests"] == 1


@pytest.fixture
def planted():
    rng = derive_rng(4242, "planted")
    n = 450
    g = rng.choice(["g0", "g1", "g2"], n)
    other = rng.choice(["o0", "o1"], n)
    m1 = rng.normal(50, 5, n) + np.where(g == "g1", 30.0, 0.0)
    m2 = rng.normal(0, 1, n) * np.where(g == "g2", 5.0, 1.0)
    return table_from_arrays({"g": g, "other": other}, {"m1": m1, "m2": m2})


def _tested_tuples(table, config):
    tested = run_significance_tests(table, enumerate_candidates(table), config)
    return [
        (t.candidate.key, t.statistic, t.p_value, t.p_adjusted) for t in tested
    ]


def _batched_and_legacy(table, config):
    """The production kernel's and the legacy oracle's tested tuples."""
    batched = _tested_tuples(table, config)
    with legacy_kernel():
        legacy = _tested_tuples(table, config)
    return batched, legacy


class TestKernelParityEndToEnd:
    """The legacy kernel oracle must agree on every tested insight."""

    def test_batched_equals_legacy(self, planted):
        with obs.capture() as (_, metrics):
            batched = _tested_tuples(planted, SignificanceConfig())
            gemms = metrics.snapshot()["counters"]["stats.kernel_batches"]
        with obs.capture() as (_, metrics), legacy_kernel():
            legacy = _tested_tuples(planted, SignificanceConfig())
            oracle_gemms = metrics.snapshot()["counters"].get(
                "stats.kernel_batches", 0
            )
        assert batched == legacy
        # Each side really ran its own path.
        assert gemms > 0 and oracle_gemms == 0

    def test_parity_with_fresh_batches_per_pair(self, planted):
        """share_across_pairs=False exercises the counter-derived RNG keys."""
        batched, legacy = _batched_and_legacy(
            planted, SignificanceConfig(share_across_pairs=False)
        )
        assert batched == legacy

    def test_parity_under_reduced_permutations(self, planted):
        """The degradation ladder's cut count agrees across kernels too."""
        cut = reduced_permutations(200, 4)
        assert cut < 200
        batched, legacy = _batched_and_legacy(
            planted, SignificanceConfig(n_permutations=cut)
        )
        assert batched == legacy

    def test_parity_with_median_extension_type(self, planted):
        from repro.insights import CandidateInsight

        candidates = [
            CandidateInsight("m1", "g", "g1", "g0", "D"),
            CandidateInsight("m1", "g", "g1", "g2", "M"),
            CandidateInsight("m2", "g", "g2", "g0", "V"),
        ]
        batched = run_significance_tests(planted, candidates, SignificanceConfig())
        with legacy_kernel():
            legacy = run_significance_tests(planted, candidates, SignificanceConfig())
        assert [(t.candidate.key, t.p_value) for t in batched] == [
            (t.candidate.key, t.p_value) for t in legacy
        ]
