import itertools

import numpy as np
import pytest

from lorentzkit.blocks import (
    BlockScheme,
    SchemeOverflowError,
    block_vector,
    corollary_scheme,
    expand,
    expand_runlength,
    staggered_family,
)
from lorentzkit.space import (
    FiniteVector,
    SpaceParams,
    disjoint_supports,
    lorentz_norm,
    lorentz_pnorm_pow,
    lorentz_pnorm_pow_runlength,
)
from lorentzkit.weights import WeightSequence

import _oracles as oracle


class TestBlockScheme:
    def test_default_counts_are_level_indices(self):
        s = BlockScheme((1, 2, 4))
        assert s.counts == (1, 2, 3)

    def test_offsets_accumulate(self):
        s = BlockScheme((1, 2, 4))
        # level k contributes count_k * length_k indices
        assert s.offsets == (0, 1, 5, 17)
        assert s.total_support == 17

    def test_needs_a_level(self):
        with pytest.raises(ValueError, match="^a scheme needs at least one level$"):
            BlockScheme([])

    def test_lengths_must_be_positive(self):
        with pytest.raises(ValueError):
            BlockScheme((1, 0, 2))

    def test_counts_length_must_match(self):
        with pytest.raises(ValueError):
            BlockScheme((1, 2), (1, 2, 3))

    def test_stagger_ratio(self):
        # offsets 0,1,3,13: ratios are J_1/j_2 = 1/2 and J_2/j_3 = 3/10
        s = BlockScheme((1, 2, 10), (1, 1, 1))
        assert s.stagger_ratio() == pytest.approx(0.5)
        assert BlockScheme((4,), (2,)).stagger_ratio() is None

    def test_equality(self):
        assert BlockScheme((1, 2)) == BlockScheme((1, 2), (1, 2))
        assert BlockScheme((1, 2)) != BlockScheme((1, 3))

    def test_overflow_rejected(self):
        with pytest.raises(SchemeOverflowError):
            BlockScheme((2**62, 2**62), (2, 2))

    def test_overflow_boundary(self):
        # 2 * (2**62 - 1) + 1 is the largest signed 64-bit index; one more is refused
        assert BlockScheme((2**62 - 1, 1), (2, 1)).total_support == 2**63 - 1
        with pytest.raises(SchemeOverflowError,
                           match=f"^scheme support {2**63} exceeds the 64-bit index range$"):
            BlockScheme((2**62 - 1, 2), (2, 1))


class TestCorollaryScheme:
    def test_small_levels(self):
        s = corollary_scheme(5)
        assert s.lengths == (1, 1, 3, 12, 60)
        assert s.offsets == (0, 1, 3, 12, 60, 360)
        assert s.counts == (1, 2, 3, 4, 5)

    def test_each_length_equals_previous_support(self):
        s = corollary_scheme(8)
        for k in range(2, 9):
            assert s.lengths[k - 1] == s.offsets[k - 1]

    def test_cumulative_support_is_half_factorial(self):
        import math

        s = corollary_scheme(6)
        assert s.offsets[6] == math.factorial(7) // 2 == 2520

    def test_stagger_ratio_exactly_one(self):
        assert corollary_scheme(10).stagger_ratio() == 1.0

    def test_single_level(self):
        s = corollary_scheme(1)
        assert s.lengths == (1,)
        assert s.total_support == 1

    def test_overflow_boundary(self):
        s = corollary_scheme(19)
        assert s.offsets[-1] == 1216451004088320000  # 20!/2 fits in int64
        with pytest.raises(SchemeOverflowError):
            corollary_scheme(20)

    @pytest.mark.parametrize("levels", [20, 25])
    def test_overflow_is_named_at_level_20(self, levels):
        # however many levels are asked for, and not as a bad-levels ValueError
        with pytest.raises(SchemeOverflowError,
                           match="^inductive scheme overflows 64-bit indices at level 20$"):
            corollary_scheme(levels)

    def test_bad_levels(self):
        with pytest.raises(ValueError):
            corollary_scheme(0)


class TestBlockVector:
    def test_normalization(self):
        w = WeightSequence(0.5)
        v = block_vector(w, 2.0, i=1, k=4)
        assert list(v.indices) == [1, 2, 3, 4]
        # constant-coefficient block has unit Lorentz norm
        params = SpaceParams(p=2.0, weights=w)
        assert lorentz_norm(v, params) == pytest.approx(1.0, rel=1e-14)

    def test_placement(self):
        w = WeightSequence(0.5)
        v = block_vector(w, 1.0, i=3, k=2, offset=5)
        # indices offset + (i-1)k + 1 .. offset + ik
        assert list(v.indices) == [10, 11]

    def test_unit_norm_any_p(self):
        w = WeightSequence(0.25)
        for p in [1.0, 1.5, 3.0]:
            v = block_vector(w, p, i=2, k=7)
            assert lorentz_norm(v, SpaceParams(p=p, weights=w)) == pytest.approx(
                1.0, rel=1e-14
            )


class TestStaggeredFamily:
    def test_supports_disjoint_and_contiguous(self):
        w = WeightSequence(0.5)
        s = corollary_scheme(4)
        family = staggered_family(w, 1.0, s)
        assert [len(level) for level in family] == [1, 2, 3, 4]
        flat = [v for level in family for v in level]
        for a in range(len(flat)):
            for b in range(a + 1, len(flat)):
                assert disjoint_supports(flat[a], flat[b])
        covered = np.concatenate([v.indices for v in flat])
        assert sorted(covered) == list(range(1, s.total_support + 1))

    def test_level_three_supports(self):
        # lengths (1,1,3): level 3 blocks sit at 4..6, 7..9, 10..12
        w = WeightSequence(0.5)
        s = corollary_scheme(3)
        family = staggered_family(w, 1.0, s)
        bounds = [(v.indices[0], v.indices[-1]) for v in family[2]]
        assert bounds == [(4, 6), (7, 9), (10, 12)]


class TestExpand:
    # corollary K=4: level k holds k blocks, so whole-level rows have 1, 3, 6
    # or 10 coefficients, and the blocks have lengths 1 | 1 1 | 3 3 3 | 12 x4
    @pytest.fixture
    def setting(self):
        w = WeightSequence(0.5)
        return w, corollary_scheme(4), SpaceParams(p=1.0, weights=w)

    def test_single_unit_coefficient(self, setting):
        w, scheme, params = setting
        x = expand(np.array([1.0]), scheme, w, 1.0)
        assert lorentz_norm(x, params) == pytest.approx(1.0, rel=1e-14)

    def test_linear_combination_matches_manual(self, setting):
        # coefficients attach to the scheme's blocks level by level
        w, scheme, params = setting
        row = np.array([0.0, 1.0, -2.0, 0.5, 0.0, 0.0])
        x = expand(row, scheme, w, 1.0)
        family = staggered_family(w, 1.0, scheme)
        manual = FiniteVector.empty()
        for block, c in ((family[1][0], 1.0), (family[1][1], -2.0), (family[2][0], 0.5)):
            manual = oracle.vector_sum(manual, FiniteVector(block.indices, c * block.values))
        assert x == manual

    def test_too_many_levels_rejected(self, setting):
        w, scheme, params = setting
        for fn in (expand, expand_runlength):
            with pytest.raises(ValueError):
                fn(np.ones(11), scheme, w, 1.0)

    def test_too_many_blocks_in_level_rejected(self, setting):
        # a row must end at a level's last block
        w, scheme, params = setting
        for size in (0, 2, 4, 5, 9):
            for fn in (expand, expand_runlength):
                with pytest.raises(ValueError, match="whole levels"):
                    fn(np.ones(size), scheme, w, 1.0)
            with pytest.raises(ValueError, match="whole levels"):
                expand_runlength(np.ones((3, size)), scheme, w, 1.0)

    def test_too_many_coefficients_rejected(self, setting):
        # level 2 holds two blocks: a row giving it a third coefficient is
        # rejected, not truncated or carried into level 3
        w, scheme, params = setting
        row = np.array([1.0, 1.0, 1.0, 1.0])
        for fn in (expand, expand_runlength):
            with pytest.raises(ValueError, match="whole levels"):
                fn(row, scheme, w, 1.0)
        with pytest.raises(ValueError, match="whole levels"):
            expand_runlength(np.tile(row, (2, 1)), scheme, w, 1.0)

    def test_nonfinite_rejected(self, setting):
        w, scheme, params = setting
        for bad in (np.inf, np.nan):
            row = np.array([1.0, bad, 0.0])
            with pytest.raises(ValueError, match="finite"):
                expand(row, scheme, w, 1.0)
            with pytest.raises(ValueError, match="finite"):
                lorentz_pnorm_pow_runlength(*expand_runlength(row, scheme, w, 1.0), params)

    def test_expand_takes_one_row(self, setting):
        w, scheme, params = setting
        with pytest.raises(ValueError, match="one coefficient row"):
            expand(np.ones((2, 3)), scheme, w, 1.0)

    def test_runlength_agrees_with_materialized(self, setting):
        w, scheme, _ = setting
        full = np.array([0.7, 1.0, 0.0, -3.0, 2.0, 0.0, 0.25, -0.5, 0.0, 4.0])
        for p, size in itertools.product([1.0, 1.5, 3.0], [1, 3, 6, 10]):
            params = SpaceParams(p=p, weights=w)
            row = full[:size]
            values, lengths = expand_runlength(row, scheme, w, p)
            # zero blocks keep their place and their length
            assert values.shape == lengths.shape == row.shape
            assert np.array_equal(values == 0.0, row == 0.0)
            assert lengths.tolist() == [1, 1, 1, 3, 3, 3, 12, 12, 12, 12][: row.size]
            want = lorentz_pnorm_pow(expand(row, scheme, w, p), params)
            got = lorentz_pnorm_pow_runlength(values, lengths, params)
            assert abs(got - want) <= 4 * np.spacing(want)

    def test_zero_row(self, setting):
        w, scheme, params = setting
        row = np.zeros(6)
        assert expand(row, scheme, w, 1.0) == FiniteVector.empty()
        values, lengths = expand_runlength(row, scheme, w, 1.0)
        assert values.tolist() == [0.0] * 6 and lengths.tolist() == [1, 1, 1, 3, 3, 3]
        assert lorentz_pnorm_pow_runlength(values, lengths, params) == 0.0

    def test_batch_rows_match_single_calls(self, setting):
        w, scheme, _ = setting
        params = SpaceParams(p=1.5, weights=w)
        rng = np.random.default_rng(4)
        batch = rng.standard_normal((9, 10))
        batch[rng.random(batch.shape) < 0.3] = 0.0
        batch[4] = 0.0
        values, lengths = expand_runlength(batch, scheme, w, 1.5)
        single = [expand_runlength(row, scheme, w, 1.5) for row in batch]
        assert values.tobytes() == np.array([v for v, _ in single]).tobytes()
        assert all(np.array_equal(lengths, l) for _, l in single)
        got = lorentz_pnorm_pow_runlength(values, lengths, params)
        want = [lorentz_pnorm_pow_runlength(v, l, params) for v, l in single]
        assert got.tolist() == want
        dense = [lorentz_pnorm_pow(expand(row, scheme, w, 1.5), params) for row in batch]
        assert np.all(np.abs(got - dense) <= 4 * np.spacing(dense))
