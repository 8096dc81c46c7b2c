"""Unit + statistical tests for repro.stats.permutation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StatisticsError
from repro.stats import (
    SharedPermutations,
    derive_rng,
    mean_difference,
    permutation_mean_greater,
    permutation_variance_greater,
    variance_difference,
)


@pytest.fixture
def prng():
    return derive_rng(999, "perm-tests")


class TestStatistics:
    def test_mean_difference_signed(self):
        assert mean_difference(np.array([3.0, 5.0]), np.array([1.0, 1.0])) == 3.0
        assert mean_difference(np.array([0.0]), np.array([2.0])) == -2.0

    def test_variance_difference(self):
        x = np.array([0.0, 10.0])
        y = np.array([5.0, 5.0])
        assert variance_difference(x, y) == pytest.approx(50.0)

    def test_variance_difference_undefined_single_point(self):
        assert np.isnan(variance_difference(np.array([1.0]), np.array([1.0, 2.0])))


class TestSharedPermutations:
    def test_shapes(self, prng):
        batch = SharedPermutations(10, 15, 50, prng)
        assert batch.x_indices.shape == (50, 10)
        assert batch.complement_indices().shape == (50, 15)
        assert batch.n_permutations == 50

    def test_each_row_is_a_permutation(self, prng):
        batch = SharedPermutations(4, 3, 20, prng)
        complements = batch.complement_indices()
        for i in range(20):
            combined = np.concatenate([batch.x_indices[i], complements[i]])
            assert sorted(combined.tolist()) == list(range(7))

    def test_membership_mask_matches_x_indices(self, prng):
        batch = SharedPermutations(6, 9, 25, prng)
        mask = batch.membership_mask()
        assert mask.shape == (25, 15)
        assert mask.dtype == np.float64
        assert np.all(mask.sum(axis=1) == 6.0)
        for i in range(25):
            assert set(np.nonzero(mask[i])[0].tolist()) == set(batch.x_indices[i].tolist())

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 40),
        st.one_of(st.just(1), st.integers(1, 60)),
        st.one_of(st.just(1), st.integers(1, 60)),
        st.integers(0, 2**32 - 1),
    )
    def test_membership_is_the_argsort_prefix(self, n_permutations, n_x, n_y, seed):
        # On the same draw, the threshold-built X side is exactly the set
        # of the n_x smallest uniforms that argsort selects.
        batch = SharedPermutations(n_x, n_y, n_permutations, np.random.default_rng(seed))
        uniforms = np.random.default_rng(seed).random((n_permutations, n_x + n_y))
        expected = np.sort(np.argsort(uniforms, axis=1)[:, :n_x], axis=1)
        assert batch.membership.dtype == np.bool_
        assert batch.membership.shape == (n_permutations, n_x + n_y)
        np.testing.assert_array_equal(batch.x_indices, expected)
        for row, chosen in zip(batch.membership, expected):
            assert set(np.flatnonzero(row).tolist()) == set(chosen.tolist())

    def test_tie_at_the_threshold_falls_back_to_argsort(self):
        class FixedDraw:
            def __init__(self, uniforms):
                self.uniforms = uniforms

            def random(self, shape):
                assert shape == self.uniforms.shape
                return self.uniforms.copy()

        # Row 0 ties at the 2nd-smallest value (three uniforms <= 0.5), so
        # the threshold over-selects; row 1 has no tie.
        uniforms = np.array([[0.5, 0.1, 0.5, 0.9, 0.5], [0.3, 0.2, 0.8, 0.7, 0.1]])
        batch = SharedPermutations(2, 3, 2, FixedDraw(uniforms))
        expected = np.sort(np.argsort(uniforms, axis=1)[:, :2], axis=1)
        np.testing.assert_array_equal(batch.x_indices, expected)
        assert batch.membership.sum(axis=1).tolist() == [2, 2]

    def test_invalid_sizes(self, prng):
        with pytest.raises(StatisticsError):
            SharedPermutations(0, 5, 10, prng)
        with pytest.raises(StatisticsError):
            SharedPermutations(5, 5, 0, prng)

    def test_size_mismatch_detected(self, prng):
        batch = SharedPermutations(3, 3, 10, prng)
        with pytest.raises(StatisticsError, match="do not match"):
            batch.mean_greater(np.ones(4), np.ones(3))

    def test_nan_input_rejected_via_size_check(self, prng):
        batch = SharedPermutations(3, 3, 10, prng)
        with pytest.raises(StatisticsError):
            batch.mean_greater(np.array([1.0, 2.0, np.nan]), np.ones(3))


class TestPValueBehaviour:
    def test_strong_effect_small_p(self, prng):
        x = prng.normal(5, 1, 100)
        y = prng.normal(0, 1, 100)
        result = permutation_mean_greater(x, y, 200, prng)
        assert result.p_value <= 1.0 / 100
        assert result.significance >= 0.99

    def test_wrong_direction_large_p(self, prng):
        x = prng.normal(0, 1, 100)
        y = prng.normal(5, 1, 100)
        result = permutation_mean_greater(x, y, 200, prng)
        assert result.p_value > 0.9

    def test_null_p_roughly_uniform(self, prng):
        """Under H0 the p-value must be ~ Uniform(0,1): check the mean."""
        ps = []
        for i in range(60):
            x = prng.normal(0, 1, 30)
            y = prng.normal(0, 1, 30)
            ps.append(permutation_mean_greater(x, y, 99, prng).p_value)
        assert 0.3 < np.mean(ps) < 0.7

    def test_p_never_zero(self, prng):
        x = np.arange(100.0) + 1000.0
        y = np.arange(100.0)
        result = permutation_mean_greater(x, y, 200, prng)
        assert result.p_value >= 1.0 / 201

    def test_variance_test_detects_spread(self, prng):
        x = prng.normal(0, 5, 150)
        y = prng.normal(0, 1, 150)
        result = permutation_variance_greater(x, y, 200, prng)
        assert result.p_value < 0.05

    def test_variance_undefined_gives_p_one(self, prng):
        batch = SharedPermutations(1, 3, 10, prng)
        result = batch.variance_greater(np.array([1.0]), np.array([1.0, 2.0, 3.0]))
        assert result.p_value == 1.0

    def test_nans_stripped_by_wrappers(self, prng):
        x = np.array([5.0, np.nan, 6.0, 7.0])
        y = np.array([1.0, 2.0, np.nan])
        result = permutation_mean_greater(x, y, 50, prng)
        assert result.statistic == pytest.approx(6.0 - 1.5)

    def test_empty_side_rejected(self, prng):
        with pytest.raises(StatisticsError, match="non-empty"):
            permutation_mean_greater(np.array([np.nan]), np.array([1.0]), 50, prng)

    def test_determinism_with_same_rng_seed(self):
        x = np.arange(20.0)
        y = np.arange(20.0) + 0.5
        one = permutation_mean_greater(x, y, 100, derive_rng(7, "a"))
        two = permutation_mean_greater(x, y, 100, derive_rng(7, "a"))
        assert one.p_value == two.p_value

    def test_shared_batch_consistent_across_measures(self, prng):
        """The same batch must be reusable for several measures."""
        batch = SharedPermutations(20, 20, 100, prng)
        m1_x, m1_y = prng.normal(3, 1, 20), prng.normal(0, 1, 20)
        m2_x, m2_y = prng.normal(0, 1, 20), prng.normal(0, 1, 20)
        r1 = batch.mean_greater(m1_x, m1_y)
        r2 = batch.mean_greater(m2_x, m2_y)
        assert r1.p_value < 0.05
        assert 0.0 < r2.p_value <= 1.0
        # Re-running on the same batch is deterministic.
        assert batch.mean_greater(m1_x, m1_y).p_value == r1.p_value
