import math

import mpmath
import numpy as np
import pytest

from lorentzkit.constants import (
    GrowthCutoffError,
    averaged_norm_descriptor,
    domination_constant,
    equiv_to_lp_exact,
    lorentz_norm_descriptor,
    lp_norm_descriptor,
    section_ratio,
    select_block_counts,
)
from lorentzkit.weights import WeightSequence

import _oracles as oracle


@pytest.fixture(scope="module")
def half():
    return WeightSequence(0.5)


class TestDescriptors:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_evaluate_rejects_non_finite_values(self, half, bad):
        for d in (lp_norm_descriptor(1.5), lorentz_norm_descriptor(half, 1.5),
                  averaged_norm_descriptor(half, 1.5, 2)):
            with pytest.raises(ValueError, match="^coefficients must be finite$"):
                d.evaluate(np.array([bad, 1.0]))

    def test_lp_descriptor_evaluates(self):
        d = lp_norm_descriptor(2.0)
        assert d.evaluate(np.array([3.0, -4.0])) == pytest.approx(5.0, rel=1e-15)

    def test_lorentz_descriptor_evaluates(self, half):
        d = lorentz_norm_descriptor(half, 1.0)
        got = d.evaluate(np.array([3.0, 1.0, 2.0]))
        assert got == pytest.approx(4.991563831562721, rel=1e-14)

    def test_averaged_descriptor_uses_averaged_weights(self, half):
        d = averaged_norm_descriptor(half, 1.0, 2)
        got = d.evaluate(np.array([1.0, 1.0]))
        want = half.averaged_weight(1, 2) + half.averaged_weight(2, 2)
        assert got == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_evaluate_is_scaled(self, half, scale):
        values = np.array([3.0, 1.0, 2.0])
        for d in (lp_norm_descriptor(3.0), averaged_norm_descriptor(half, 2.0, 2)):
            got = d.evaluate(values * scale)
            assert got == pytest.approx(scale * d.evaluate(values), rel=1e-14)

    def test_weight_vector_shapes(self, half):
        assert lp_norm_descriptor(1.0).weight_vector(5).tolist() == [1.0] * 5
        wv = lorentz_norm_descriptor(half, 1.0).weight_vector(4)
        assert wv[0] == 1.0 and wv.shape == (4,)

    def test_averaged_window_is_at_least_one(self, half):
        assert averaged_norm_descriptor(half, 1.0, 1).k == 1
        with pytest.raises(ValueError, match="^k must be >= 1, got 0$"):
            averaged_norm_descriptor(half, 1.0, 0)

    def test_labels_carry_parameters(self, half):
        assert "0.5" in lorentz_norm_descriptor(half, 2.0).label
        assert "k=3" in averaged_norm_descriptor(half, 1.0, 3).label


class TestExactEquivalence:
    def test_closed_form(self, half):
        assert equiv_to_lp_exact(half, 1.0, 2) == pytest.approx(
            1.17157287525381, rel=1e-15
        )
        assert equiv_to_lp_exact(half, 2.0, 4) == pytest.approx(
            1.1985598737278693, rel=1e-15
        )

    def test_nondecreasing_in_dimension(self, half):
        vals = [equiv_to_lp_exact(half, 2.0, n) for n in range(1, 40)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_matches_oracle_other_theta(self):
        w = WeightSequence(0.25)
        assert equiv_to_lp_exact(w, 2.0, 6) == pytest.approx(
            1.1401584198857901, rel=1e-14
        )


class TestDominationConstant:
    def test_lp_pair_hits_closed_form_exactly(self, half):
        # the constant vector is the last step vector
        for n in [1, 2, 3, 4]:
            est = domination_constant(
                lp_norm_descriptor(1.0), lorentz_norm_descriptor(half, 1.0), n
            )
            want = equiv_to_lp_exact(half, 1.0, n)
            assert est.estimate == pytest.approx(want, abs=1e-12)
            assert est.lower == pytest.approx(want, abs=1e-12)

    def test_lp_pair_p2(self, half):
        est = domination_constant(
            lp_norm_descriptor(2.0), lorentz_norm_descriptor(half, 2.0), 4
        )
        assert est.estimate == pytest.approx(1.1985598737278693, abs=1e-12)

    def test_same_norm_gives_one(self, half):
        d = lorentz_norm_descriptor(half, 2.0)
        est = domination_constant(d, d, 5)
        assert est.estimate == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("theta", [0.1, 0.5, 0.9])
    def test_matches_fsum_closed_form(self, theta, p):
        w = WeightSequence(theta)
        pairs = [
            ("d-vs-lp", 1, lp_norm_descriptor(p), lorentz_norm_descriptor(w, p)),
            ("d-vs-d", 1, lorentz_norm_descriptor(w, p), lorentz_norm_descriptor(w, p)),
            ("dk-vs-d", 2, averaged_norm_descriptor(w, p, 2), lorentz_norm_descriptor(w, p)),
            ("dk-vs-d", 5, averaged_norm_descriptor(w, p, 5), lorentz_norm_descriptor(w, p)),
        ]
        for pair, k, norm_a, norm_b in pairs:
            for n in [1, 3, 8, 64, 500, 4096]:
                want, m = oracle.step_vector_constant(pair, n, theta, p, k)
                est = domination_constant(norm_a, norm_b, n)
                assert abs(est.estimate - want) <= 1e-15 * want, (pair, k, n)
                assert est.witness.shape == (n,), (pair, k, n)
                assert int(est.witness.sum()) == m + 1, (pair, k, n)

    def test_deterministic(self, half):
        a = domination_constant(
            lp_norm_descriptor(2.0), lorentz_norm_descriptor(half, 2.0), 6
        )
        b = domination_constant(
            lp_norm_descriptor(2.0), lorentz_norm_descriptor(half, 2.0), 6
        )
        assert a.estimate == b.estimate
        assert a.lower == b.lower
        assert np.array_equal(a.witness, b.witness)

    def test_witness_in_cone(self, half):
        est = domination_constant(
            lp_norm_descriptor(2.0), lorentz_norm_descriptor(half, 2.0), 6
        )
        wit = est.witness
        assert wit[0] == 1.0
        assert np.all(np.diff(wit) <= 1e-12)
        assert np.all(wit >= -1e-15)

    def test_mixed_exponents_rejected(self, half):
        with pytest.raises(ValueError, match="different exponents"):
            domination_constant(
                lp_norm_descriptor(2.0), lorentz_norm_descriptor(half, 1.0), 4
            )

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_matches_cone_grid_oracle(self, p):
        # brute force over an 11-level grid of the decreasing cone; the step
        # vectors lie on the grid, so the two maxima coincide
        theta, k = 0.5, 3
        grid = np.linspace(0.0, 1.0, 11)
        for n in range(1, 7):
            u_num = np.array([oracle.averaged_weight(i, k, theta) for i in range(1, n + 1)])
            u_den = np.array([oracle.weight(i, theta) for i in range(1, n + 1)])

            def ratio(block):
                powed = block**p
                return ((powed @ u_num) / (powed @ u_den)) ** (1.0 / p)

            brute, _ = oracle.cone_grid_max(n, ratio, grid)
            w = WeightSequence(theta)
            est = domination_constant(
                averaged_norm_descriptor(w, p, k), lorentz_norm_descriptor(w, p), n
            )
            assert est.estimate == pytest.approx(brute, rel=1e-14)
            assert est.lower == pytest.approx(brute, rel=1e-14)

    def test_witness_is_first_maximising_step_vector(self, half):
        # equal norms tie on every step vector: the first one, the spike, wins
        d = lorentz_norm_descriptor(half, 2.0)
        assert domination_constant(d, d, 6).witness.tolist() == [1.0] + [0.0] * 5
        # no pair of power-law profiles peaks strictly inside 1..N; the scan
        # of an interior maximum is tested on synthetic sums in test_kernels

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_averaged_profile_past_dense_limit(self, half, p):
        # the averaged profile reaches index 2000 * 20000 = 4e7 > 2**25
        est = domination_constant(
            lorentz_norm_descriptor(half, p), averaged_norm_descriptor(half, p, 20000), 2000
        )
        assert est.lower == pytest.approx(est.estimate, rel=1e-14)

    def test_dk_vs_d_within_band(self, half):
        lo_c, hi_c = oracle.band_constants(0.5)
        est = domination_constant(
            averaged_norm_descriptor(half, 1.0, 2),
            lorentz_norm_descriptor(half, 1.0),
            4,
        )
        assert est.estimate <= hi_c + 1e-12


class TestSectionRatio:
    def test_p1_formula(self, half):
        # N * W_k / W_{Nk}, all exact partial sums
        got = section_ratio(half, 1.0, 2, 3)
        want = 3 * oracle.partial_sum(2, 0.5) / oracle.partial_sum(6, 0.5)
        assert got == pytest.approx(want, rel=1e-14)

    def test_root_form_for_p2(self, half):
        got = section_ratio(half, 2.0, 2, 3)
        want = (3 * oracle.partial_sum(2, 0.5) / oracle.partial_sum(6, 0.5)) ** 0.5
        assert got == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("p", [0.0, -1.0, 0.5, math.nan, math.inf])
    def test_refuses_p_below_one_or_not_finite(self, half, p):
        # p = 0 divided by zero; the others returned 0.445, 5.05, nan and 1.0
        with pytest.raises(ValueError, match=r"^p must be a finite real >= 1, got "):
            section_ratio(half, p, 2, 3)


class TestSelectBlockCounts:
    def test_first_count_at_half(self, half):
        sel = select_block_counts(half, 1.0, 1)
        assert sel.counts == (2,)

    def test_strictly_increasing_and_witnessed(self, half):
        sel = select_block_counts(half, 1.0, 6)
        assert all(b > a for a, b in zip(sel.counts, sel.counts[1:]))
        for k, (n, ratio) in enumerate(zip(sel.counts, sel.ratios), start=1):
            assert ratio > k
            assert section_ratio(half, 1.0, k, n) == ratio
            # minimality: one step earlier the criterion fails (or the
            # nondecreasing clamp was binding)
            if k == 1 or n > sel.counts[k - 2] + 1:
                assert section_ratio(half, 1.0, k, n - 1) <= k

    def test_not_proxy_at_p1(self, half):
        assert select_block_counts(half, 1.0, 2).proxy is False

    def test_proxy_at_p2(self, half):
        sel = select_block_counts(half, 2.0, 2)
        assert sel.proxy is True
        assert all(r > k for k, r in enumerate(sel.ratios, start=1))

    def test_growth_cutoff(self):
        # level 2 escapes only near N = 2**100, past the cutoff 2**53 // 2
        with pytest.raises(GrowthCutoffError, match="level 2: .* cutoff 4503599627370496"):
            select_block_counts(WeightSequence(0.01), 1.0, 2)

    def test_target_beyond_float64_is_a_growth_cutoff(self, half):
        # 2**1e6 raised OverflowError out of the selection
        message = r"^level 2: k\*\*p = 2\*\*1000000\.0 overflows float64, so no section below"
        with pytest.raises(GrowthCutoffError, match=message):
            select_block_counts(half, 1e6, 2)

    def test_default_cutoff_reaches_level_six(self):
        # the default cutoff is the index limit, so K = 6 at theta = 1/4,
        # p = 2 escapes near 2.5e6; check minimality with Hurwitz zeta sums
        theta, p, levels = 0.25, 2.0, 6
        sel = select_block_counts(WeightSequence(theta), p, levels)
        n = sel.counts[-1]
        assert n == 2526568

        def ratio_pow(m):
            with mpmath.workdps(40):
                zeta = mpmath.zeta(theta)
                w_k = zeta - mpmath.zeta(theta, levels + 1)
                w_mk = zeta - mpmath.zeta(theta, m * levels + 1)
                return m * w_k / w_mk

        assert ratio_pow(n) > levels**p
        assert ratio_pow(n - 1) <= levels**p

    @pytest.mark.xfail(strict=True, reason=(
        "past N ~ 1.7e15 float64 cannot order neighbouring section ratios: "
        "the exact smallest escaping N at theta = 0.02, p = 1, level 2 is "
        "2183530988063891, the selection stops some 60 below it (ROADMAP "
        "items 10 and 15)"))
    def test_deep_count_is_the_exact_first_escape(self):
        theta, k = 0.02, 2
        n = select_block_counts(WeightSequence(theta), 1.0, k).counts[-1]

        def ratio_pow(m):
            with mpmath.workdps(60):
                zeta = mpmath.zeta(theta)
                return m * (zeta - mpmath.zeta(theta, k + 1)) / (zeta - mpmath.zeta(theta, m * k + 1))

        assert ratio_pow(n) > k
        assert ratio_pow(n - 1) <= k


def _selected(weights, p, levels):
    selection = select_block_counts(weights, p, levels)
    return selection.counts, selection.ratios


def _outcome(select, theta, p, levels):
    """``select``'s ``(counts, ratios)``, or its refusal's type and message."""
    try:
        return select(WeightSequence(theta), p, levels)
    except GrowthCutoffError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("theta", [0.01, 0.05, 0.25, 0.5, 0.75, 0.99])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 1100.0])
def test_select_block_counts_matches_the_scalar_search(theta, p):
    # the array probes and the scalar search's one midpoint at a time find
    # the same counts, ratios (bit for bit) and refusals, at every K <= 6;
    # p = 1100 overflows k**p on level 2
    for levels in range(1, 7):
        want = _outcome(oracle.select_block_counts, theta, p, levels)
        assert _outcome(_selected, theta, p, levels) == want


# Array probes (``partial_sums_at`` calls) per level, up to the refusing
# level, that the five-step bisection trees made on the scalar-search grid;
# the fan-out narrowing must make no more.
TREE_PROBES = {
    (0.01, 1.0): (1, 1), (0.01, 1.5): (1, 1), (0.01, 2.0): (1, 1),
    (0.01, 3.0): (1, 1), (0.01, 1100.0): (1, 0),
    (0.05, 1.0): (1, 5, 8, 9, 11, 1), (0.05, 1.5): (1, 7, 11, 1),
    (0.05, 2.0): (1, 9, 1), (0.05, 3.0): (1, 1), (0.05, 1100.0): (1, 0),
    (0.25, 1.0): (1, 2, 3, 3, 3, 3), (0.25, 1.5): (1, 3, 3, 4, 4, 5),
    (0.25, 2.0): (1, 3, 4, 5, 5, 6), (0.25, 3.0): (1, 4, 5, 6, 7, 8),
    (0.25, 1100.0): (1, 0),
    (0.5, 1.0): (1, 2, 2, 2, 2, 2), (0.5, 1.5): (1, 2, 2, 3, 3, 3),
    (0.5, 2.0): (1, 2, 3, 3, 3, 4), (0.5, 3.0): (1, 3, 3, 4, 4, 5),
    (0.5, 1100.0): (1, 0),
    (0.75, 1.0): (1, 2, 2, 2, 2, 2), (0.75, 1.5): (1, 2, 2, 2, 2, 3),
    (0.75, 2.0): (1, 2, 2, 3, 3, 3), (0.75, 3.0): (1, 2, 3, 3, 3, 4),
    (0.75, 1100.0): (1, 0),
    (0.99, 1.0): (1, 2, 2, 2, 2, 2), (0.99, 1.5): (1, 2, 2, 2, 2, 2),
    (0.99, 2.0): (1, 2, 2, 2, 3, 3), (0.99, 3.0): (1, 2, 3, 3, 3, 3),
    (0.99, 1100.0): (1, 0),
}


@pytest.fixture
def probes(monkeypatch):
    """A list that grows by one entry per ``partial_sums_at`` call."""
    calls = []
    partial_sums_at = WeightSequence.partial_sums_at

    def counted(self, ns):
        calls.append(len(ns))
        return partial_sums_at(self, ns)

    monkeypatch.setattr(WeightSequence, "partial_sums_at", counted)
    return calls


def test_benchmark_selection_makes_18_array_probes(probes):
    select_block_counts(WeightSequence(0.25), 2.0, 5)
    assert len(probes) == 18


@pytest.mark.parametrize("theta, p", sorted(TREE_PROBES))
def test_select_block_counts_probes_no_more_than_the_trees(theta, p, probes):
    for levels in range(1, 7):
        probes.clear()
        _outcome(_selected, theta, p, levels)
        assert len(probes) <= sum(TREE_PROBES[theta, p][:levels])


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_each_unclamped_count_is_the_first_escape(p):
    # the search's contract, read through the array sums it probes with:
    # N_k escapes and N_k - 1 does not, up to K = 6 or the refusing level
    thetas = [t / 100 for t in range(1, 100, 2)] + [0.02, 0.04, 0.06]
    for theta in thetas:
        weights = WeightSequence(theta)
        counts = ()
        for levels in range(1, 7):
            try:
                counts = select_block_counts(weights, p, levels).counts
            except GrowthCutoffError:
                break
        for k, n in enumerate(counts, start=1):
            if k > 1 and n == counts[k - 2]:
                continue  # possibly clamped
            target = float(k) ** p
            s_k = weights.partial_sum(k)
            escapes = [m * s_k / w > target
                       for m, w in zip((n, n - 1), weights.partial_sums_at([n * k, (n - 1) * k]))]
            assert escapes[0], (theta, k, n)
            assert n == 1 or not escapes[1], (theta, k, n)
