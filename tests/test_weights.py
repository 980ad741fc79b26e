import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from lorentzkit.weights import (
    HEAD,
    INDEX_LIMIT,
    PREFIX_CACHE_LIMIT,
    THETA_MAX,
    THETA_MIN,
    WeightSequence,
)

import _oracles as oracle


class TestConstruction:
    @pytest.mark.parametrize("theta", [0.0, 1.0, -0.3, 2.0, THETA_MIN - 1e-9, THETA_MAX + 1e-9])
    def test_theta_out_of_range(self, theta):
        with pytest.raises(ValueError):
            WeightSequence(theta)

    @pytest.mark.parametrize("theta", [THETA_MIN, 0.5, THETA_MAX])
    def test_theta_endpoints_accepted(self, theta):
        assert WeightSequence(theta).theta == theta

    def test_theta_rejects_nan(self):
        with pytest.raises(ValueError):
            WeightSequence(float("nan"))


class TestScalarValues:
    def test_weight_matches_direct_formula(self):
        w = WeightSequence(0.35)
        for n in [1, 2, 7, 100, 12345]:
            assert w.weight(n) == pytest.approx(oracle.weight(n, 0.35), rel=1e-15)

    def test_weight_rejects_nonpositive_index(self):
        w = WeightSequence(0.5)
        with pytest.raises(ValueError):
            w.weight(0)
        with pytest.raises(ValueError):
            w.weight(-3)

    def test_weight_rejects_bool(self):
        with pytest.raises(TypeError):
            WeightSequence(0.5).weight(True)

    def test_partial_sum_small(self):
        w = WeightSequence(0.5)
        assert w.partial_sum(0) == 0.0
        assert w.partial_sum(1) == 1.0
        assert w.partial_sum(2) == pytest.approx(1.7071067811865475, rel=1e-15)
        assert w.partial_sum(4) == pytest.approx(2.784457050376173, rel=1e-15)
        assert w.partial_sum(12) == pytest.approx(5.611184378465243, rel=1e-14)

    def test_partial_sum_other_theta(self):
        w = WeightSequence(0.25)
        assert w.partial_sum(2) == pytest.approx(1.8408964152537144, rel=1e-15)

    def test_partial_sums_prefix_consistent(self):
        w = WeightSequence(0.7)
        sums = w.partial_sums(50)
        assert sums[0] == 0.0
        for k in [1, 2, 17, 50]:
            assert sums[k] == w.partial_sum(k)

    def test_partial_sums_view_is_readonly(self):
        sums = WeightSequence(0.5).partial_sums(10)
        with pytest.raises(ValueError):
            sums[3] = 0.0

    @pytest.mark.parametrize("theta", [0.05, 0.5, 0.99])
    @pytest.mark.parametrize("n_max", [0, 1, 10**6])
    def test_partial_sums_bits_match_plain_cumsum(self, theta, n_max):
        # filled in place, the array is still one cumulative sum of the powers
        want = np.cumsum(np.arange(1, n_max + 1.0) ** -theta)
        sums = WeightSequence(theta).partial_sums(n_max)
        assert sums.shape == (n_max + 1,) and sums[0] == 0.0
        assert sums[1:].tobytes() == want.tobytes()

    def test_monotone_increasing(self):
        w = WeightSequence(0.9)
        sums = w.partial_sums(200)
        assert np.all(np.diff(sums) > 0)


class TestVectorValues:
    def test_weight_values_match_scalar(self):
        w = WeightSequence(0.6)
        vec = w.weight_values(64)
        for n in [1, 5, 33, 64]:
            assert vec[n - 1] == w.weight(n)

    def test_weight_values_decreasing(self):
        vec = WeightSequence(0.5).weight_values(1000)
        assert np.all(np.diff(vec) < 0)

    def test_averaged_weight_values_match_scalar(self):
        # the scalar is the array path on one block, so they agree bit for bit
        w = WeightSequence(0.45)
        vec = w.averaged_weight_values(200, 3)
        for i in [1, 2, 10, 20, 64, 200]:
            assert vec[i - 1] == w.averaged_weight(i, 3)

    def test_averaged_weight_values_match_oracle(self):
        # a difference of dense prefix sums was 5.6e-12 off here
        w = WeightSequence(0.05)
        want = [oracle.averaged_weight(i, 598, 0.05) for i in range(1, 1001)]
        assert_allclose(w.averaged_weight_values(1000, 598), want, rtol=1e-14, atol=0)

    def test_averaged_weight_values_past_dense_limit(self):
        # 6e7 indices, beyond the 2**25 entries a dense prefix array may hold
        k = 20_000_000
        got = WeightSequence(0.5).averaged_weight_values(3, k)
        with mpmath.workdps(40):
            w_k = mpmath.zeta(0.5) - mpmath.zeta(0.5, k + 1)
            want = [
                float((mpmath.zeta(0.5, (i - 1) * k + 1) - mpmath.zeta(0.5, i * k + 1)) / w_k)
                for i in (1, 2, 3)
            ]
        assert_allclose(got, want, rtol=2e-15, atol=0)

    def test_averaged_weight_values_k1_exact(self):
        w = WeightSequence(0.5)
        assert_allclose(w.averaged_weight_values(50, 1), w.weight_values(50), rtol=0)


class TestWindowSums:
    def test_empty_window(self):
        assert WeightSequence(0.5).window_sum(10, 0) == 0.0

    def test_single_term_window_is_exact(self):
        w = WeightSequence(0.5)
        for j in [0, 4, 999]:
            assert w.window_sum(j, 1) == w.weight(j + 1)

    def test_matches_oracle(self):
        w = WeightSequence(0.5)
        assert w.window_sum(4, 4) == pytest.approx(1.586979749566322, rel=1e-14)
        assert w.window_sum(0, 1) == 1.0

    def test_head_windows_summed_from_their_start(self):
        # every window inside the head is summed left to right from its first
        # weight, bit for bit, not taken as a difference of partial sums
        for theta in (0.4, 0.5):
            w = WeightSequence(theta)
            head = w.weight_values(HEAD)
            j, k = np.triu_indices(HEAD + 1)
            got = w.window_sums(j, k - j)
            want = [0.0 if a == b else np.cumsum(head[a:b])[-1] for a, b in zip(j, k)]
            assert got.tobytes() == np.array(want).tobytes()

    def test_window_equals_partial_sum_difference(self):
        w = WeightSequence(0.3)
        assert w.window_sum(7, 5) == pytest.approx(
            w.partial_sum(12) - w.partial_sum(7), rel=1e-14
        )

    def test_chunked_path_beyond_cache(self):
        w = WeightSequence(0.5)
        j = PREFIX_CACHE_LIMIT + 1000
        got = w.window_sum(j, 50)
        want = oracle.window_sum(j, 50, 0.5)
        assert got == pytest.approx(want, rel=1e-12)

    def test_averaged_weight_matches_oracle(self):
        w = WeightSequence(0.5)
        assert w.averaged_weight(2, 2) == pytest.approx(0.631097176264978, rel=1e-14)
        w25 = WeightSequence(0.25)
        # the block of length 4 that starts after index 7 + 2 * 4
        assert w25.window_sum(15, 4) / w25.partial_sum(4) == pytest.approx(
            0.5916081548744575, rel=1e-14
        )

    def test_averaged_weight_first_block_is_one(self):
        # the first window of length k is exactly the first k weights
        for theta in [0.1, 0.5, 0.9]:
            w = WeightSequence(theta)
            for k in [1, 2, 5]:
                assert w.averaged_weight(1, k) == pytest.approx(1.0, rel=1e-15)


class TestCacheBehaviour:
    def test_growth_preserves_existing_values(self):
        w = WeightSequence(0.5)
        first = w.partial_sum(10)
        w.partial_sum(100_000)  # a far sum leaves nearer ones unchanged
        assert w.partial_sum(10) == first

    def test_query_order_independent(self):
        a = WeightSequence(0.5)
        b = WeightSequence(0.5)
        a.partial_sum(17)
        a.partial_sum(40_000)
        b.partial_sum(40_000)
        assert a.partial_sum(12_345) == b.partial_sum(12_345)
        assert a.window_sum(100, 300) == b.window_sum(100, 300)

    @pytest.mark.parametrize("theta", [0.1, 0.5, 0.99])
    def test_dense_partial_sums_match_fsum(self, theta):
        w = WeightSequence(theta)
        sums = w.partial_sums(100_000)
        vals = w.weight_values(100_000)
        for n in [1, 2, 999, 99_999, 100_000]:
            assert sums[n] == pytest.approx(math.fsum(vals[:n]), rel=1e-12)

    @pytest.mark.parametrize("theta", [0.1, 0.5, 0.99])
    def test_em_sum_at_least_as_accurate_as_cumsum(self, theta):
        # the pointwise sums need no compensated cumulative sum
        w = WeightSequence(theta)
        n = 100_000
        want = math.fsum(w.weight_values(n))
        assert abs(w.partial_sum(n) - want) <= abs(w.partial_sums(n)[n] - want)

    def test_huge_partial_sum_streams(self):
        w = WeightSequence(0.99)
        n = PREFIX_CACHE_LIMIT + 123
        got = w.partial_sum(n)
        # integral bracket sanity: sum_1^n n^-t is between the integrals
        e = 1.0 - 0.99
        lo = ((n + 1) ** e - 1.0) / e
        hi = 1.0 + (n**e - 1.0) / e
        assert lo <= got <= hi


def hurwitz_window(theta, j, k):
    """``sum_{n=j+1}^{j+k} n**-theta`` from mpmath's Hurwitz zeta."""
    with mpmath.workdps(60):
        return mpmath.zeta(theta, j + 1) - mpmath.zeta(theta, j + k + 1)


def rel_err(got, want):
    with mpmath.workdps(60):
        return float(abs((mpmath.mpf(got) - want) / want))


class TestEulerMaclaurin:
    THETAS = (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99)
    STARTS = (0, 3, 63, 64, 100, 10**4, 10**7, 10**12, 10**15)
    LENGTHS = (1, 2, 10, 10**3, 10**6, 10**9, 10**15)

    def test_window_sum_matches_hurwitz_zeta(self):
        worst = 0.0
        for theta in self.THETAS:
            w = WeightSequence(theta)
            for k in self.LENGTHS:
                want = hurwitz_window(theta, 0, k)
                worst = max(worst, rel_err(w.partial_sum(k), want))
                for j in self.STARTS:
                    want = hurwitz_window(theta, j, k)
                    worst = max(worst, rel_err(w.window_sum(j, k), want))
        # a few units of 2**-52; the expm1 integral alone reaches 3.3e-15 on
        # windows of 1e15 terms
        assert worst <= 2e-15

    def test_beyond_former_cache_matches_hurwitz_zeta(self):
        theta = 0.8
        w = WeightSequence(theta)
        j = PREFIX_CACHE_LIMIT + 7
        k = 4 * 10**6
        got = w.window_sum(j, k)
        assert rel_err(got, hurwitz_window(theta, j, k)) <= 5e-15
        # and inside the integral bracket of a decreasing summand
        e = 1.0 - theta
        assert ((j + k + 1) ** e - (j + 1) ** e) / e <= got
        assert got <= (j + 1) ** -theta + ((j + k) ** e - (j + 1) ** e) / e

    def test_scalar_and_vector_bit_identical(self):
        rng = np.random.default_rng(7)
        starts = np.concatenate(
            [np.repeat(self.STARTS, len(self.LENGTHS)), rng.integers(0, 2**52, 500)]
        )
        lengths = np.concatenate(
            [np.tile(self.LENGTHS, len(self.STARTS)), rng.integers(0, 2**52, 500)]
        )
        for w in (WeightSequence(0.37), WeightSequence(0.8)):
            vec = w.window_sums(starts, lengths)
            scalar = [w.window_sum(int(j), int(k)) for j, k in zip(starts, lengths)]
            assert vec.tobytes() == np.array(scalar).tobytes()
            ns = np.concatenate([np.arange(200), lengths])
            scalar = [w.partial_sum(int(n)) for n in ns]
            assert w.partial_sums_at(ns).tobytes() == np.array(scalar).tobytes()

    def test_partial_sums_head_matches_dense_array(self):
        w = WeightSequence(0.5)
        dense = w.partial_sums(1000)
        for k in range(HEAD + 1):
            assert dense[k] == w.partial_sum(k)
        assert dense[1000] == pytest.approx(w.partial_sum(1000), rel=1e-14)

    def test_index_limit(self):
        w = WeightSequence(0.5)
        assert w.partial_sum(INDEX_LIMIT) > 0
        with pytest.raises(ValueError, match=r"2\*\*53"):
            w.partial_sum(INDEX_LIMIT + 1)
        with pytest.raises(ValueError, match=r"2\*\*53"):
            w.window_sum(INDEX_LIMIT, 2)
        with pytest.raises(ValueError, match=r"2\*\*53"):
            w.partial_sums_at([5, INDEX_LIMIT + 1])
        with pytest.raises(ValueError, match=r"2\*\*53"):
            w.window_sums([INDEX_LIMIT - 1], [2])

    def test_vector_inputs_validated(self):
        w = WeightSequence(0.5)
        with pytest.raises(TypeError):
            w.partial_sums_at([1.5])
        with pytest.raises(ValueError):
            w.window_sums([-1], [3])
        assert w.window_sums([], []).shape == (0,)
