"""Acceptance gate: one test per criterion, tolerances pinned.

Each test prints a single ``ACCEPTANCE`` line (visible with ``pytest -s``)
summarizing the criterion outcome; the pass/fail status is the test result
itself.
"""

import json
import time

import numpy as np
import pytest

from lorentzkit.blocks import corollary_scheme
from lorentzkit.cli import main as cli_main
from lorentzkit.constants import (
    domination_constant,
    equiv_to_lp_exact,
    lorentz_norm_descriptor,
    lp_norm_descriptor,
    section_ratio,
    select_block_counts,
)
from lorentzkit.space import FiniteVector, SpaceParams, lorentz_norm, lp_norm
from lorentzkit.verify import check_theorem_3_5, run_grid
from lorentzkit.weights import WeightSequence

import _oracles as oracle

SLACK_TOL = 1e-12
THETA_GRID = [round(0.05 * t, 2) for t in range(1, 20)]


def _announce(number, label, detail):
    print(f"ACCEPTANCE criterion {number} ({label}): PASS — {detail}")


class TestCriterion1:
    def test_criterion_1_sandwich_grid(self):
        t0 = time.perf_counter()
        report = run_grid("lemma-3-1", None)
        elapsed = time.perf_counter() - t0
        assert report.grid["theta_values"] == THETA_GRID
        assert report.grid["j_max"] == 1000
        k_values = report.grid["k_values"]
        assert len(k_values) >= 60
        assert k_values[0] == 1 and k_values[-1] == 1000
        assert report.instances == 19 * 1001 * len(k_values)
        assert report.min_slack > -SLACK_TOL
        assert not report.violations
        assert elapsed < 60.0
        _announce(
            1, "window-sum sandwich grid",
            f"{report.instances} instances, min_slack={report.min_slack:.3e}, "
            f"{elapsed:.1f}s",
        )


class TestCriterion2:
    def test_criterion_2_averaged_weight_band(self):
        t0 = time.perf_counter()
        report = run_grid("lemma-3-2", None)
        elapsed = time.perf_counter() - t0
        assert report.grid["theta_values"] == THETA_GRID
        assert report.grid["i_max"] == 1000 and report.grid["k_max"] == 1000
        assert report.instances == 19 * 1000 * 1000  # includes i = 1, k = 1 rows
        assert report.min_slack > -SLACK_TOL
        assert not report.violations
        assert elapsed < 60.0
        _announce(
            2, "averaged-weight band grid",
            f"{report.instances} instances, min_slack={report.min_slack:.3e}, "
            f"{elapsed:.1f}s",
        )


class TestCriterion3:
    def test_criterion_3_disjoint_superadditivity(self):
        report = run_grid("remark-3-3", None)
        assert report.grid["p_values"] == [1.0, 1.5, 2.0, 3.0]
        assert report.grid["theta_values"] == [0.25, 0.5, 0.75]
        assert report.grid["trials"] == 10_000
        assert report.seed == 42
        assert report.instances == 12 * 10_000
        assert report.min_slack >= -SLACK_TOL
        assert not report.violations
        # seed-fixed reproducibility: an identical rerun is byte-identical
        rerun = run_grid("remark-3-3", None)
        assert rerun.to_json() == report.to_json()
        _announce(
            3, "disjoint-support superadditivity",
            f"{report.instances} trials, min_slack={report.min_slack:.3e}, "
            "rerun byte-identical",
        )


class TestCriterion4:
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_criterion_4_chebyshev_oracle(self, p):
        theta = 0.5
        w = WeightSequence(theta)
        grid = np.linspace(0.0, 1.0, 21)
        worst_rel = 0.0
        for n in range(1, 9):
            closed = oracle.equivalence_constant(n, theta, p)
            brute, _ = oracle.cone_grid_max(
                n, oracle.lp_over_lorentz_batch(theta, p), grid
            )
            rel = abs(brute - closed) / closed
            worst_rel = max(worst_rel, rel)
            assert rel <= 1e-6, (n, p, brute, closed)
            # the library's search agrees with the closed form too
            est = domination_constant(
                lp_norm_descriptor(p), lorentz_norm_descriptor(w, p), n
            )
            assert abs(est.estimate - closed) / closed <= 1e-6
            # the constant vector attains the constant to near machine level
            ones = FiniteVector.from_dense(np.ones(n))
            attained = lp_norm(ones, p) / lorentz_norm(
                ones, SpaceParams(p=p, weights=w)
            )
            assert attained == pytest.approx(closed, rel=1e-12)
        _announce(
            4, f"cone maximization vs closed form (p={p})",
            f"N<=8, worst relative gap {worst_rel:.2e}",
        )


class TestCriterion5:
    def test_criterion_5_staggered_equivalence(self):
        t0 = time.perf_counter()
        scheme = corollary_scheme(10)
        assert scheme.stagger_ratio() == 1.0  # M is exactly one
        summaries = []
        for theta in (0.25, 0.5, 0.75):
            weights = WeightSequence(theta)
            for p in (1.0, 2.0):
                report = check_theorem_3_5(
                    scheme, weights, p, trials=1000, seed=42
                )
                assert report.config["A"] == pytest.approx(
                    (2.0 - 2.0**theta) / (2.0 ** (1.0 - theta) - 1.0), rel=1e-15
                )
                assert report.config["B"] == pytest.approx(
                    (1.0 - theta) / 2.0 * 0.5**theta, rel=1e-15
                )
                assert report.instances == 2 * 55 + 1000
                assert not report.violations
                assert report.min_slack > -SLACK_TOL
                summaries.append(f"θ={theta},p={p}:{report.min_slack:.2e}")
            del weights  # one θ's weights at a time
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0
        _announce(
            5, "staggered-family norm equivalence",
            f"K=10, min_slack per run [{'; '.join(summaries)}], {elapsed:.1f}s",
        )


class TestCriterion6:
    @pytest.mark.parametrize("theta", [0.25, 0.5, 0.75])
    def test_criterion_6_section_selection(self, theta):
        w = WeightSequence(theta)
        selection = select_block_counts(w, 1.0, 8)
        counts = selection.counts
        assert len(counts) == 8
        assert all(b > a for a, b in zip(counts, counts[1:]))
        for k, n in enumerate(counts, start=1):
            ratio = section_ratio(w, 1.0, k, n)
            assert ratio > k
            # minimality: the previous candidate fails the criterion unless
            # the monotonicity clamp forced the step past it
            if n - 1 >= 1 and (k == 1 or n - 1 > counts[k - 2]):
                assert section_ratio(w, 1.0, k, n - 1) <= k
        if theta == 0.5:
            assert counts[0] == 2
        _announce(
            6, f"escape-section selection (θ={theta})",
            f"counts {counts}",
        )


class TestCriterion7:
    TRIALS = 10_000

    def test_criterion_7_norm_engine_sanity(self):
        rng = np.random.default_rng(42)
        w = WeightSequence(0.5)
        thetas = {0.25: WeightSequence(0.25), 0.5: w, 0.75: WeightSequence(0.75)}
        t0 = time.perf_counter()
        for trial in range(self.TRIALS):
            theta = (0.25, 0.5, 0.75)[trial % 3]
            p = (1.0, 1.5, 2.0, 3.0)[trial % 4]
            params = SpaceParams(p=p, weights=thetas[theta])
            n = int(rng.integers(1, 24))
            vals = rng.standard_normal(n)

            # permutation + sign invariance
            x = FiniteVector.from_dense(vals)
            shuffled = vals[rng.permutation(n)] * rng.choice([-1.0, 1.0], size=n)
            y = FiniteVector.from_dense(shuffled)
            nx = lorentz_norm(x, params)
            assert lorentz_norm(y, params) == pytest.approx(
                nx, rel=SLACK_TOL, abs=1e-300
            )

            # triangle inequality on a random disjoint-or-not pair
            other = FiniteVector.from_dense(rng.standard_normal(n))
            lhs = lorentz_norm(oracle.vector_sum(x, other), params)
            rhs = nx + lorentz_norm(other, params)
            assert lhs <= rhs * (1.0 + SLACK_TOL) + 1e-300

            # constant-vector identity
            m = int(rng.integers(1, 400))
            c = float(rng.uniform(0.1, 10.0))
            const = FiniteVector.from_dense(np.full(m, c))
            want = c * thetas[theta].partial_sum(m) ** (1.0 / p)
            assert lorentz_norm(const, params) == pytest.approx(want, rel=SLACK_TOL)
        elapsed = time.perf_counter() - t0
        _announce(
            7, "norm engine sanity",
            f"{self.TRIALS} trials x 3 properties, {elapsed:.1f}s",
        )


class TestCriterion8:
    def test_criterion_8_cli_byte_determinism(self, tmp_path):
        verify_args = [
            "verify", "remark-3-3",
            "--trials", "2000", "--seed", "7",
            "--theta-grid", "0.25,0.75", "--p-grid", "1,2",
        ]
        equiv_args = [
            "equiv", "--pair", "dk-vs-d", "--theta", "0.5",
            "--N", "6", "--k", "3", "--seed", "21",
        ]
        pairs = []
        for name, args in (("verify", verify_args), ("equiv", equiv_args)):
            a = tmp_path / f"{name}_a.json"
            b = tmp_path / f"{name}_b.json"
            assert cli_main(args + ["--out", str(a)]) == 0
            assert cli_main(args + ["--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes(), name
            json.loads(a.read_text())  # well-formed JSON documents
            pairs.append(name)
        _announce(
            8, "CLI report determinism",
            f"byte-identical reruns for {', '.join(pairs)}",
        )
