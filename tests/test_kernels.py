import math

import numpy as np
import pytest

from lorentzkit import _kernels


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(42)


def _sorted_desc(values):
    return -np.sort(-np.abs(values))


class TestWeightedPowSum:
    def test_simple(self):
        vals = np.array([3.0, 2.0, 1.0])
        w = np.array([1.0, 0.5, 0.25])
        want = 9.0 + 4.0 * 0.5 + 1.0 * 0.25
        assert _kernels.weighted_pow_sum(vals, w, 2.0) == pytest.approx(want)


class TestBatchSortedPowSums:
    def test_matches_loop_over_rows(self, rng):
        mat = np.abs(rng.standard_normal((40, 16)))
        w = np.linspace(1.0, 0.2, 16)
        got = _kernels.batch_sorted_pow_sums(mat, w, 2.0)
        for t in range(40):
            want = _kernels.weighted_pow_sum(_sorted_desc(mat[t]), w, 2.0)
            assert got[t] == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0])
    def test_row_value_does_not_depend_on_row_count(self, rng, p):
        # a row's bits must not move when the batch around it is cut, or
        # chunked reports would depend on the chunk size
        rows = 12
        for n in list(range(1, 20)) + [33, 40, 64, 80, 90]:
            w = np.arange(1, n + 1) ** -0.5
            mat = np.abs(rng.standard_normal((rows, n)))
            mat[:, n // 2 :] *= rng.random((rows, n - n // 2)) < 0.5  # zero padding
            full = _kernels.batch_sorted_pow_sums(mat, w, p)
            for i in range(rows):
                one = _kernels.batch_sorted_pow_sums(mat[i : i + 1], w, p)
                first = min(max(i - 1, 0), rows - 3)
                three = _kernels.batch_sorted_pow_sums(mat[first : first + 3], w, p)
                assert one[0] == full[i], (n, i)
                assert three[i - first] == full[i], (n, i)

    def test_zero_entries_ignored(self):
        mat = np.array([[2.0, 0.0, 1.0, 0.0]])
        w = np.array([1.0, 0.5, 0.4, 0.3])
        got = _kernels.batch_sorted_pow_sums(mat, w, 1.0)
        assert got[0] == pytest.approx(2.0 + 0.5 * 1.0)


class TestSortedWeightedSums:
    def test_column_slice_matches_contiguous_copy(self, rng):
        both = np.abs(rng.standard_normal((30, 14)))
        w = np.arange(1, 15) ** -0.5
        before = both.copy()
        for view in (both[:, :7], both[:, 7:], both):
            got = _kernels.sorted_weighted_sums(view, w)
            assert np.array_equal(got, _kernels.sorted_weighted_sums(view.copy(), w))
        assert np.array_equal(both, before)  # the terms are left as they are

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, 7.3])
    def test_powering_before_the_sort_keeps_the_bits(self, rng, p):
        mat = np.abs(rng.standard_normal((50, 40)))
        mat[:, 20:] *= rng.random((50, 20)) < 0.5
        w = np.arange(1, 41) ** -0.3
        after = _kernels.weighted_pow_sum(np.sort(mat, axis=1), w[::-1], p)
        assert np.array_equal(_kernels.batch_sorted_pow_sums(mat, w, p), after)


class TestRatioScan:
    def test_picks_max_ratio(self):
        # prefix sums of the profiles (1, 1, 0) and (1, 0.5, 0.5)
        num = np.array([1.0, 2.0, 2.0])
        den = np.array([1.0, 1.5, 2.0])
        idx, ratio = _kernels.ratio_scan(num, den)
        assert idx == 1
        assert ratio == 2.0 / 1.5

    def test_tie_breaks_to_lexicographically_smaller(self):
        # every step vector ties when the profiles coincide; the first index,
        # the step vector with the fewest ones, is the smallest of them
        sums = np.cumsum(np.linspace(1.0, 0.2, 5))
        idx, ratio = _kernels.ratio_scan(sums, sums)
        assert idx == 0
        assert ratio == 1.0


class TestAscent:
    def test_improves_or_keeps_start(self):
        v0 = np.linspace(1.0, 0.2, 5)
        u_num = np.ones(5)
        u_den = np.linspace(1.0, 0.4, 5)

        def ratio(v):
            num = float(np.sum(v**2))
            den = float(np.sum(v**2 * u_den))
            return math.sqrt(num) / math.sqrt(den)

        v, r, sweeps = _kernels.ascent(v0, u_num, 2.0, u_den, 2.0, 17, 40)
        assert r >= ratio(v0) - 1e-15
        assert r == pytest.approx(ratio(v), rel=1e-12)
        # output still lives in the decreasing cone with pinned lead
        assert v[0] == 1.0
        assert np.all(np.diff(v) <= 1e-12)

    def test_finds_constant_vector_optimum(self):
        # for these norms the cone maximum sits at the constant vector
        n = 4
        v0 = np.linspace(1.0, 0.3, n)
        u_num = np.ones(n)
        u_den = np.arange(1, n + 1, dtype=float) ** -0.5
        v, r, _ = _kernels.ascent(v0, u_num, 1.0, u_den, 1.0, 33, 200)
        want = n / np.sum(u_den)
        assert r == pytest.approx(want, rel=1e-6)


class TestDispatch:
    def test_names_the_benchmark_reads(self):
        # perfbench's provenance and tracing look these up by name
        assert _kernels.USING_NUMBA is False
        assert callable(_kernels.ascent)
        assert callable(_kernels.ratio_scan)

    def test_public_names_are_callable(self):
        vals = np.array([2.0, 1.0])
        w = np.array([1.0, 0.5])
        assert _kernels.weighted_pow_sum(vals, w, 1.0) == pytest.approx(2.5)
