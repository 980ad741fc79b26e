import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from lorentzkit.space import (
    FiniteVector,
    SpaceParams,
    decreasing_rearrangement,
    disjoint_supports,
    lorentz_norm,
    lorentz_pnorm_pow,
    lorentz_pnorm_pow_runlength,
    lp_norm,
)
from lorentzkit import space, weights
from lorentzkit.weights import WeightSequence

import _oracles as oracle


@pytest.fixture(scope="module")
def half():
    return WeightSequence(0.5)


class TestFiniteVector:
    def test_from_dense_drops_zeros(self):
        v = FiniteVector.from_dense([1.0, 0.0, 2.0, 0.0])
        assert list(v.indices) == [1, 3]
        assert list(v.values) == [1.0, 2.0]

    def test_from_pairs_sorted(self):
        v = FiniteVector.from_pairs([(5, 2.0), (2, -1.0)])
        assert list(v.indices) == [2, 5]
        assert list(v.values) == [-1.0, 2.0]

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            FiniteVector.from_pairs([(1, 1.0), (1, 2.0)])

    def test_indices_start_at_one(self):
        with pytest.raises(ValueError):
            FiniteVector.from_pairs([(0, 1.0)])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            FiniteVector.from_pairs([(1, math.inf)])
        with pytest.raises(ValueError):
            FiniteVector.from_pairs([(1, math.nan)])

    def test_indices_and_values_pair_up(self):
        with pytest.raises(ValueError, match="^indices and values must have equal length$"):
            FiniteVector([1, 2], [1.0])

    def test_arrays_readonly(self):
        v = FiniteVector.from_dense([1.0, 2.0])
        with pytest.raises(ValueError):
            v.values[0] = 9.0

    def test_eq(self):
        a = FiniteVector.from_dense([1.0, 2.0])
        b = FiniteVector.from_pairs([(2, 2.0), (1, 1.0)])
        assert a == b
        assert a != FiniteVector.from_dense([1.0, 2.5])

    def test_disjoint_supports(self):
        x = FiniteVector.from_pairs([(1, 1.0), (3, 1.0)])
        y = FiniteVector.from_pairs([(2, 1.0)])
        z = FiniteVector.from_pairs([(3, 1.0)])
        assert disjoint_supports(x, y)
        assert not disjoint_supports(x, z)


class TestRearrangement:
    def test_sorted_magnitudes(self):
        v = FiniteVector.from_dense([-3.0, 1.0, 2.0])
        assert list(decreasing_rearrangement(v)) == [3.0, 2.0, 1.0]

    def test_empty(self):
        assert decreasing_rearrangement(FiniteVector.empty()).size == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sequence_rejected_by_every_dense_norm(self, half, bad):
        # the reason FiniteVector gives, not an overflow and not a silent nan
        params = SpaceParams(p=1.0, weights=half)
        for norm in (decreasing_rearrangement,
                     lambda x: lorentz_pnorm_pow(x, params),
                     lambda x: lorentz_norm(x, params),
                     lambda x: lp_norm(x, 1.0)):
            with pytest.raises(ValueError, match="^coefficients must be finite$"):
                norm([bad, 1.0])


class TestNorms:
    def test_matches_oracle_p1(self, half):
        params = SpaceParams(p=1.0, weights=half)
        v = FiniteVector.from_dense([3.0, 1.0, 2.0])
        assert lorentz_norm(v, params) == pytest.approx(4.991563831562721, rel=1e-14)

    def test_matches_oracle_p2(self, half):
        params = SpaceParams(p=2.0, weights=half)
        v = FiniteVector.from_dense([3.0, 1.0, 2.0])
        assert lorentz_norm(v, params) == pytest.approx(3.5221836116159273, rel=1e-14)

    def test_single_coordinate_norm_is_magnitude(self, half):
        params = SpaceParams(p=2.0, weights=half)
        v = FiniteVector.from_pairs([(17, -4.0)])
        assert lorentz_norm(v, params) == pytest.approx(4.0, rel=1e-15)

    def test_constant_vector_identity(self, half):
        # n equal entries of size c: norm = c * W_n^(1/p)
        params = SpaceParams(p=2.0, weights=half)
        v = FiniteVector.from_dense([1.5] * 12)
        want = 1.5 * half.partial_sum(12) ** 0.5
        assert lorentz_norm(v, params) == pytest.approx(want, rel=1e-14)

    def test_empty_vector_norm_zero(self, half):
        assert lorentz_norm(FiniteVector.empty(), SpaceParams(1.0, half)) == 0.0

    def test_lp_norm(self):
        v = FiniteVector.from_dense([3.0, -4.0])
        assert lp_norm(v, 2.0) == pytest.approx(5.0, rel=1e-15)
        assert lp_norm(v, 1.0) == pytest.approx(7.0, rel=1e-15)

    def test_p_below_one_rejected(self, half):
        with pytest.raises(ValueError):
            SpaceParams(p=0.5, weights=half)

    def test_weights_must_be_a_sequence(self):
        with pytest.raises(TypeError, match="^weights must be a WeightSequence$"):
            SpaceParams(1.0, object())

    def test_largest_exponent_keeps_its_bits(self, half):
        # at p = 1022 the scaled sum 2^-p (1 + 2^-1/2) is still a normal float64
        assert lorentz_norm([1.0, 1.0], SpaceParams(1022.0, half)) == 1.0005234246069195

    @pytest.mark.parametrize("p", [1024.0, 1074.0, 1075.0, 5000.0])
    def test_subnormal_power_sum_is_refused(self, half, p):
        # unrefused, p = 1074 gave 1.0006455967442032 (the true value is
        # 1.0004980755783008) and p >= 1075 gave 0.0
        for norm, name in [(lambda x: lorentz_norm(x, SpaceParams(p, half)), "Lorentz"),
                           (lambda x: lp_norm(x, p), "lp")]:
            with pytest.raises(ValueError, match=f"^{name} norm cannot be evaluated in "
                               f"float64 at p={p}: its scaled power sum underflows$"):
                norm([1.0, 1.0])

    def test_overflowing_norm_power_names_p_and_theta(self, half):
        # a ValueError, not inf with only a RuntimeWarning: dense, and run-length
        # for one vector or any row of a batch
        params = SpaceParams(p=2.0, weights=half)
        message = r"^Lorentz norm power overflows float64 at p=2\.0, theta=0\.5$"
        batch = np.ones((5, 2))
        batch[3, 0] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                lorentz_pnorm_pow([1e200, 1e200], params)
            with pytest.raises(ValueError, match=message):
                lorentz_pnorm_pow_runlength([1e200], [3], params)
            with pytest.raises(ValueError, match=message):
                lorentz_pnorm_pow_runlength(batch, [3, 4], params)
            assert lorentz_pnorm_pow([1e100, 1e100], params) == pytest.approx((1 + 2 ** -0.5) * 1e200)
            assert lorentz_pnorm_pow_runlength([1e100], [3], params) == pytest.approx(
                half.partial_sum(3) * 1e200, rel=1e-14)

    def test_underflowing_norm_power_names_p_and_theta(self, half):
        # unrefused, the first two gave 0.0 and the third the subnormal 1e-320
        params = SpaceParams(p=2.0, weights=half)
        message = r"^Lorentz norm power underflows float64 at p=2\.0, theta=0\.5$"
        batch = np.ones((5, 2))
        batch[3] = 1e-200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                lorentz_pnorm_pow([1e-200, 1e-200], params)
            with pytest.raises(ValueError, match=message):
                lorentz_pnorm_pow_runlength([1e-200], [3], params)
            with pytest.raises(ValueError, match=message):
                lorentz_pnorm_pow([1e-160], params)
            # a zero vector's 0.0 is exact, alone or as a row of a batch
            assert lorentz_pnorm_pow([], params) == 0.0
            powers = lorentz_pnorm_pow_runlength([[0.0, 0.0], [1.0, 1.0]], [3, 4], params)
            assert powers[0] == 0.0 and powers[1] > 0.0
            with pytest.raises(ValueError, match=message):
                lorentz_pnorm_pow_runlength(batch, [3, 4], params)

    def test_zero_and_empty_norm_powers_are_zero(self, half):
        params = SpaceParams(p=2.0, weights=half)
        assert lorentz_pnorm_pow([], params) == 0.0
        assert lorentz_pnorm_pow([0.0, 0.0], params) == 0.0
        assert lorentz_pnorm_pow(FiniteVector.empty(), params) == 0.0
        assert lorentz_pnorm_pow_runlength([0.0], [3], params) == 0.0
        batch = lorentz_pnorm_pow_runlength([[0.0, 0.0], [1.0, 0.0]], [3, 4], params)
        assert batch.tolist() == [0.0, half.partial_sum(3)]

    def test_norm_dominated_by_lp(self, half):
        # weights are <= 1, so the weighted norm never exceeds the plain one
        rng = np.random.default_rng(42)
        params = SpaceParams(p=2.0, weights=half)
        for _ in range(50):
            vals = rng.standard_normal(rng.integers(1, 30))
            v = FiniteVector.from_dense(vals)
            assert lorentz_norm(v, params) <= lp_norm(v, 2.0) + 1e-12


class TestNormProperties:
    @given(
        values=st.lists(
            st.floats(-100, 100, allow_nan=False, width=64), min_size=1, max_size=24
        ),
        p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
        theta=st.sampled_from([0.25, 0.5, 0.75]),
    )
    @settings(max_examples=120, deadline=None)
    def test_permutation_and_sign_invariance(self, values, p, theta):
        params = SpaceParams(p=p, weights=WeightSequence(theta))
        v = FiniteVector.from_dense(values)
        rng = np.random.default_rng(7)
        perm = rng.permutation(len(values))
        signs = rng.choice([-1.0, 1.0], size=len(values))
        shuffled = FiniteVector.from_dense(
            [values[perm[i]] * signs[i] for i in range(len(values))]
        )
        assert lorentz_norm(shuffled, params) == pytest.approx(
            lorentz_norm(v, params), rel=1e-12, abs=1e-300
        )

    @given(
        xs=st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=16),
        ys=st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=16),
        p=st.sampled_from([1.0, 2.0]),
    )
    @settings(max_examples=120, deadline=None)
    def test_triangle_inequality(self, xs, ys, p):
        params = SpaceParams(p=p, weights=WeightSequence(0.5))
        n = max(len(xs), len(ys))
        xs = xs + [0.0] * (n - len(xs))
        ys = ys + [0.0] * (n - len(ys))
        x = FiniteVector.from_dense(xs)
        y = FiniteVector.from_dense(ys)
        lhs = lorentz_norm(oracle.vector_sum(x, y), params)
        assert lhs <= lorentz_norm(x, params) + lorentz_norm(y, params) + 1e-9

    @given(
        values=st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(1e-6, 10, allow_nan=False),
                st.floats(-10, -1e-6, allow_nan=False),
            ),
            min_size=1,
            max_size=16,
        ),
        scale=st.one_of(
            st.just(0.0),
            st.floats(1e-3, 5, allow_nan=False),
            st.floats(-5, -1e-3, allow_nan=False),
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_homogeneity(self, values, scale):
        # magnitudes bounded away from the subnormal range: squaring in the
        # p = 2 norm would otherwise underflow before the root is taken
        params = SpaceParams(p=2.0, weights=WeightSequence(0.5))
        v = FiniteVector.from_dense(values)
        assert lorentz_norm(FiniteVector(v.indices, scale * v.values), params) == pytest.approx(
            abs(scale) * lorentz_norm(v, params), rel=1e-12, abs=0.0
        )

    @given(
        values=st.lists(
            st.floats(1e-6, 10, allow_nan=False), min_size=1, max_size=16
        ),
        exponent=st.integers(-300, 300),
        p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance_at_extreme_magnitudes(self, values, exponent, p):
        # at 1e+-300 the p-th powers leave the float range, the norms do not
        params = SpaceParams(p=p, weights=WeightSequence(0.5))
        v = FiniteVector.from_dense(values)
        scale = 10.0**exponent
        for norm in (lambda x: lorentz_norm(x, params), lambda x: lp_norm(x, p)):
            got = norm(FiniteVector(v.indices, scale * v.values))
            assert 0.0 < got < math.inf
            assert got == pytest.approx(scale * norm(v), rel=1e-13)
            # a power of two scales exactly
            two = 2.0 ** round(exponent * math.log2(10.0))
            assert norm(FiniteVector(v.indices, two * v.values)) == two * norm(v)


def _outcome(norm):
    """The bits of a norm power, or the message of its refusal."""
    try:
        return norm().hex()
    except ValueError as exc:
        return str(exc)


#: nonzero magnitudes from 1e-150 to 1e150, either sign
_SPREAD = st.builds(lambda m, e, sign: sign * m * 10.0 ** e, st.floats(1.0, 9.99),
                    st.integers(-150, 150), st.sampled_from([-1.0, 1.0]))


class TestDensePowerIsOneRow:
    """The p-th power of a plain vector is the run-length power of its
    nonzero magnitudes, each on one index."""

    @given(values=st.lists(st.one_of(st.just(0.0), _SPREAD, st.floats(-10.0, 10.0)),
                           max_size=40),
           p=st.sampled_from([1.0, 1.5, 2.0, 3.0, 7.3]), theta=st.floats(0.01, 0.99))
    @settings(max_examples=300, deadline=None)
    def test_bits_and_refusals_match(self, values, p, theta):
        params = SpaceParams(p=p, weights=WeightSequence(theta))
        mags = np.abs(np.array(values, dtype=np.float64))
        mags = mags[mags != 0.0]
        ones = np.ones(mags.size, np.int64)
        dense = _outcome(lambda: lorentz_pnorm_pow(values, params))
        assert dense == _outcome(lambda: lorentz_pnorm_pow_runlength(mags, ones, params))
        assert dense == _outcome(lambda: lorentz_pnorm_pow(FiniteVector.from_dense(values), params))
        if not dense.startswith("Lorentz") and float.fromhex(dense) < 1e300:
            # the shared body against the math.fsum oracle, none of whose terms
            # overflows where the power is below 1e300
            want = oracle.lorentz_norm(values, theta, p) ** p
            assert float.fromhex(dense) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused_by_both(self, half, bad):
        params = SpaceParams(p=2.0, weights=half)
        with pytest.raises(ValueError, match="^coefficients must be finite$"):
            lorentz_pnorm_pow([1.0, bad], params)
        with pytest.raises(ValueError, match="^block values must be finite$"):
            lorentz_pnorm_pow_runlength([1.0, bad], [1, 1], params)

    @pytest.mark.parametrize("values,side",
                             [([1e200, 3.0], "overflows"), ([1e-200, 0.0], "underflows"),
                              ([1e200, 1e200], "overflows"), ([1e-200, 1e-200], "underflows")])
    def test_out_of_range_refused_alike(self, half, values, side):
        params = SpaceParams(p=2.0, weights=half)
        message = f"Lorentz norm power {side} float64 at p=2.0, theta=0.5"
        assert _outcome(lambda: lorentz_pnorm_pow(values, params)) == message
        mags = np.array([v for v in values if v])
        ones = np.ones(mags.size, np.int64)
        assert _outcome(lambda: lorentz_pnorm_pow_runlength(mags, ones, params)) == message

    def test_random_vectors_keep_the_one_row_bits(self):
        # the dense power sums against weight_values, the one-row power against
        # unit window sums; both must give the same bits
        rng = np.random.default_rng(2024)
        for _ in range(200):
            params = SpaceParams(p=float(rng.choice([1.0, 2.0, rng.uniform(1.0, 12.0)])),
                                 weights=WeightSequence(rng.uniform(0.01, 0.99)))
            x = rng.standard_normal(rng.integers(0, 201)) * 10.0 ** rng.uniform(-3.0, 3.0)
            mags = decreasing_rearrangement(x)
            dense = lorentz_pnorm_pow(x, params)
            assert type(dense) is float
            ones = np.ones(mags.size, np.int64)
            assert dense.hex() == lorentz_pnorm_pow_runlength(mags, ones, params).hex()


class TestRunLengthNorm:
    def test_values_and_lengths_pair_up(self, half):
        with pytest.raises(ValueError, match="^values and lengths must have equal length$"):
            lorentz_pnorm_pow_runlength([[1.0, 2.0]], [1, 1, 1], SpaceParams(1.0, half))

    @pytest.mark.parametrize("rows", [2, None])
    def test_row_counts_pair_up(self, half, rows):
        # 3-row lengths against 2-row or 1-D values: refused, not broadcast
        params = SpaceParams(1.0, half)
        values = np.ones(3) if rows is None else np.ones((rows, 3))
        with pytest.raises(ValueError, match="^values and lengths must have equal length$"):
            lorentz_pnorm_pow_runlength(values, np.ones((3, 3), np.int64), params)
        # one row of lengths is shared by every row
        shared = lorentz_pnorm_pow_runlength(values, [1, 2, 3], params)
        assert np.array_equal(lorentz_pnorm_pow_runlength(values, [[1, 2, 3]], params), shared)

    def test_matches_materialized(self, half):
        params = SpaceParams(p=2.0, weights=half)
        values = np.array([0.5, 2.0, 1.0])
        lengths = np.array([3, 2, 4])
        dense = np.concatenate([np.full(l, v) for v, l in zip(values, lengths)])
        want = lorentz_pnorm_pow(FiniteVector.from_dense(dense), params)
        got = lorentz_pnorm_pow_runlength(values, lengths, params)
        assert got == pytest.approx(want, rel=1e-13)

    def test_norm_root(self, half):
        params = SpaceParams(p=2.0, weights=half)
        got = lorentz_pnorm_pow_runlength(np.array([1.0]), np.array([4]), params) ** 0.5
        assert got == pytest.approx(half.partial_sum(4) ** 0.5, rel=1e-14)

    def test_zero_blocks_dropped(self, half):
        params = SpaceParams(p=1.0, weights=half)
        got = lorentz_pnorm_pow_runlength(
            np.array([0.0, 2.0]), np.array([5, 2]), params
        )
        want = 2.0 * half.partial_sum(2)
        assert got == pytest.approx(want, rel=1e-14)
        # a zero block takes no index range, however long it is
        huge = lorentz_pnorm_pow_runlength(
            np.array([0.0, 2.0]), np.array([2**60, 2]), params
        )
        assert huge == got

    def test_batch_rows_match_single_calls(self, half):
        params = SpaceParams(p=1.5, weights=half)
        rng = np.random.default_rng(3)
        values = rng.standard_normal((7, 5))
        values[2, 1:] = 0.0
        values[4] = 0.0
        lengths = np.array([1, 70, 3, 10**9, 64])
        got = lorentz_pnorm_pow_runlength(values, lengths, params)
        want = [lorentz_pnorm_pow_runlength(row, lengths, params) for row in values]
        assert got.shape == (7,)
        assert got.tolist() == want
        per_row = lorentz_pnorm_pow_runlength(values, np.tile(lengths, (7, 1)), params)
        assert per_row.tolist() == want

    @pytest.mark.parametrize("block, columns", [(None, 55), (7, 3), (7, 9)])
    def test_row_blocks_match_single_calls(self, half, monkeypatch, block, columns):
        if block is not None:
            monkeypatch.setattr(space, "_EM_BLOCK", block)
            monkeypatch.setattr(weights, "_EM_BLOCK", block)
        per_block = max(1, space._EM_BLOCK // columns)
        rows = 3 * per_block + (per_block // 2 or 1)  # three blocks and a remainder
        params = SpaceParams(p=1.5, weights=half)
        rng = np.random.default_rng(11)
        values = rng.standard_normal((rows, columns))
        values[rng.random(values.shape) < 0.2] = 0.0
        values[::5] = 0.0
        shared = rng.integers(1, 10**6, columns)
        shared[0] = 10**9
        per_row = rng.integers(1, 10**6, (rows, columns))
        got = lorentz_pnorm_pow_runlength(values, shared, params)
        want = [lorentz_pnorm_pow_runlength(row, shared, params) for row in values]
        assert got.tolist() == want
        assert got[::5].tolist() == [0.0] * len(got[::5])
        got = lorentz_pnorm_pow_runlength(values, per_row, params)
        want = [lorentz_pnorm_pow_runlength(v, l, params) for v, l in zip(values, per_row)]
        assert got.tolist() == want

    @pytest.mark.parametrize("lengths", ["shared", "one_row", "per_row", "equal"])
    @pytest.mark.parametrize("block", [None, 16])
    def test_tie_order_matches_the_stable_oracle(self, half, monkeypatch, lengths, block):
        # equal values of unequal length must keep their column order, which
        # moves the cuts; the order of equal ones of equal length, or of zero
        # blocks, moves nothing
        if block is not None:  # 3 rows of 5 blocks per row block
            monkeypatch.setattr(space, "_EM_BLOCK", block)
            monkeypatch.setattr(weights, "_EM_BLOCK", block)
        rng = np.random.default_rng(8)
        rows, columns = 40, 5
        values = rng.choice([0.0, 0.25, 1.0, 3.0], size=(rows, columns))
        values[1::4] = rng.random((rows // 4, columns))  # rows without ties in every block
        values[2::8] = 0.0
        lens = {"shared": rng.integers(1, 4, columns),
                "one_row": rng.integers(1, 4, (1, columns)),
                "per_row": rng.integers(1, 4, (rows, columns)),
                "equal": np.full(columns, 3)}[lengths]
        if lengths == "per_row":
            lens[values == 0.0] = 2**60  # a zero block takes no index range
        params = SpaceParams(p=1.5, weights=half)
        want = oracle.runlength_pow_stable(values, lens, half, 1.5)
        assert lorentz_pnorm_pow_runlength(values, lens, params).tolist() == want.tolist()
        row = np.broadcast_to(lens, values.shape)[3]
        one = lorentz_pnorm_pow_runlength(values[3], row, params)
        assert type(one) is float and one == want[3]
        # the other tie order moves some row unless every length is equal
        swapped = oracle.runlength_pow_stable(values[:, ::-1], np.asarray(lens)[..., ::-1], half, 1.5)
        assert (swapped != want).any() == (lengths != "equal")

    def test_zero_row_batch(self, half):
        params = SpaceParams(p=2.0, weights=half)
        for lengths in (np.arange(1, 5), np.ones((0, 4), dtype=np.int64)):
            got = lorentz_pnorm_pow_runlength(np.empty((0, 4)), lengths, params)
            assert got.shape == (0,) and got.dtype == np.float64

    def test_peak_memory_does_not_grow_with_rows(self, half):
        import tracemalloc

        params = SpaceParams(p=2.0, weights=half)
        lengths = np.arange(1, 56)

        def peak(rows):
            values = np.random.default_rng(5).standard_normal((rows, 55))
            tracemalloc.start()
            try:
                lorentz_pnorm_pow_runlength(values, lengths, params)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2_000)  # first-call caches
        small = peak(2_000)
        # only the output vector, one float per row, grows, plus a page of
        # Python objects; evaluated whole, the batch grew by about 170 bytes
        # per coefficient
        assert peak(20_000) - small <= 8 * 18_000 + 4096

    @pytest.mark.parametrize("cut, length", [(19_958_399, 1), (10**7, 12)])
    def test_block_masses_at_deep_cuts_match_hurwitz_zeta(self, half, cut, length):
        masses = space._block_masses(half, np.array([cut, length]))
        with mpmath.workdps(60):
            want = mpmath.zeta(0.5, cut + 1) - mpmath.zeta(0.5, cut + length + 1)
            assert abs((mpmath.mpf(masses[1]) - want) / want) < 1e-15

    def test_negative_values_use_magnitude(self, half):
        params = SpaceParams(p=1.0, weights=half)
        a = lorentz_pnorm_pow_runlength(np.array([-2.0]), np.array([3]), params)
        b = lorentz_pnorm_pow_runlength(np.array([2.0]), np.array([3]), params)
        assert a == b

    def test_bad_lengths_rejected(self, half):
        params = SpaceParams(p=1.0, weights=half)
        with pytest.raises(ValueError):
            lorentz_pnorm_pow_runlength(np.array([1.0]), np.array([0]), params)
