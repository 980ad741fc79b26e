import math
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

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
        assert _kernels.weighted_pow_sum_numpy(vals, w, 2.0) == pytest.approx(want)

    def test_paths_agree(self, rng):
        if not _kernels.NUMBA_IMPORTABLE:
            pytest.skip("numba unavailable")
        for _ in range(25):
            n = int(rng.integers(1, 200))
            vals = _sorted_desc(rng.standard_normal(n))
            w = np.linspace(1.0, 0.1, n)
            for p in [1.0, 1.5, 2.0, 3.0]:
                a = _kernels.weighted_pow_sum_numpy(vals, w, p)
                b = _kernels.weighted_pow_sum_numba(vals, w, p)
                assert b == pytest.approx(a, rel=1e-13)


class TestBatchSortedPowSums:
    def test_matches_loop_over_rows(self, rng):
        mat = np.abs(rng.standard_normal((40, 16)))
        w = np.linspace(1.0, 0.2, 16)
        got = _kernels.batch_sorted_pow_sums_numpy(mat, w, 2.0)
        for t in range(40):
            want = _kernels.weighted_pow_sum_numpy(_sorted_desc(mat[t]), w, 2.0)
            assert got[t] == pytest.approx(want, rel=1e-13)

    def test_zero_entries_ignored(self):
        mat = np.array([[2.0, 0.0, 1.0, 0.0]])
        w = np.array([1.0, 0.5, 0.4, 0.3])
        got = _kernels.batch_sorted_pow_sums_numpy(mat, w, 1.0)
        assert got[0] == pytest.approx(2.0 + 0.5 * 1.0)

    def test_paths_agree(self, rng):
        if not _kernels.NUMBA_IMPORTABLE:
            pytest.skip("numba unavailable")
        mat = np.abs(rng.standard_normal((64, 33)))
        w = np.linspace(1.0, 0.05, 33)
        a = _kernels.batch_sorted_pow_sums_numpy(mat, w, 1.5)
        b = _kernels.batch_sorted_pow_sums_numba(mat, w, 1.5)
        assert_allclose(a, b, rtol=1e-13)


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

        v, r, sweeps = _kernels.ascent_numpy(v0, u_num, 2.0, u_den, 2.0, 17, 40)
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
        v, r, _ = _kernels.ascent_numpy(v0, u_num, 1.0, u_den, 1.0, 33, 200)
        want = n / np.sum(u_den)
        assert r == pytest.approx(want, rel=1e-6)

    def test_paths_agree(self):
        if not _kernels.NUMBA_IMPORTABLE:
            pytest.skip("numba unavailable")
        v0 = np.linspace(1.0, 0.25, 6)
        u_num = np.ones(6)
        u_den = np.linspace(1.0, 0.2, 6)
        a = _kernels.ascent_numpy(v0, u_num, 2.0, u_den, 2.0, 9, 30)
        b = _kernels.ascent_numba(v0, u_num, 2.0, u_den, 2.0, 9, 30)
        assert_allclose(a[0], b[0], rtol=1e-12)
        assert b[1] == pytest.approx(a[1], rel=1e-12)


class TestKahanCumsum:
    def test_matches_fsum_prefixes(self, rng):
        vals = rng.standard_normal(2000) * 10.0 ** rng.integers(-8, 8, size=2000)
        got = _kernels.kahan_cumsum_numpy(vals)
        want = 0.0
        for i in [0, 1, 999, 1999]:
            want = math.fsum(vals[: i + 1])
            assert got[i] == pytest.approx(want, rel=1e-12)

    def test_more_accurate_than_plain_cumsum(self):
        # adding many tiny terms to a large one: plain cumsum loses them
        vals = np.concatenate([[1e16], np.full(10_000, 1.0)])
        plain = float(np.cumsum(vals)[-1])
        comp = float(_kernels.kahan_cumsum_numpy(vals)[-1])
        want = math.fsum(vals)
        assert abs(comp - want) <= abs(plain - want)

    def test_paths_agree(self, rng):
        if not _kernels.NUMBA_IMPORTABLE:
            pytest.skip("numba unavailable")
        vals = rng.standard_normal(5000)
        assert_allclose(
            _kernels.kahan_cumsum_numpy(vals),
            _kernels.kahan_cumsum_numba(vals),
            rtol=1e-15,
        )


class TestDispatch:
    def test_variants_table_complete(self):
        assert set(_kernels.VARIANTS) == {
            "weighted_pow_sum",
            "batch_sorted_pow_sums",
            "ascent",
            "kahan_cumsum",
        }
        for numpy_fn, _ in _kernels.VARIANTS.values():
            assert numpy_fn is not None

    def test_env_flag_forces_numpy(self):
        code = (
            "from lorentzkit import _kernels; "
            "print(_kernels.USING_NUMBA, _kernels.kahan_cumsum is _kernels.kahan_cumsum_numpy)"
        )
        env = dict(os.environ, **{_kernels.DISABLE_ENV_VAR: "1"})
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["False", "True"]

    def test_public_names_are_callable(self):
        vals = np.array([2.0, 1.0])
        w = np.array([1.0, 0.5])
        assert _kernels.weighted_pow_sum(vals, w, 1.0) == pytest.approx(2.5)
        assert _kernels.kahan_cumsum(vals)[-1] == pytest.approx(3.0)
