"""Inequality checkers and grid verification with deterministic reports.

Statement catalog.  The identifiers below are the library's stable keys for
the inequality families it can check; the CLI accepts the same strings.
Throughout, ``w_n = n**(-theta)``, ``W_k = w_1 + ... + w_k``, ``e = 1 -
theta``, and ``w_i^(k)`` is the block-averaged weight
``(w_{(i-1)k+1} + ... + w_{ik}) / W_k``.

``lemma-3-1``
    Shifted power-sum ratio sandwich:
    ``((j+1)/k + 1)^e - ((j+1)/k)^e
    <= (sum_{n=j+1}^{j+k} n^-theta) / W_k
    <= ((j/k + 1)^e - (j/k)^e) / (2^e - 1)``.

``lemma-3-2``
    Averaged weights stay within a constant band of the raw weights:
    ``(1-theta)/2 * w_i <= w_i^(k) <= (2 - 2^theta)/(2^(1-theta) - 1) * w_i``.

``remark-3-3``
    Disjointly supported vectors are p-superadditive in the Lorentz norm:
    ``||x + y||^p <= ||x||^p + ||y||^p``.

``lemma-3-4``
    Block-scheme conditions: with lengths ``j_k`` and offsets ``J_k``, for all
    levels ``k`` and block positions ``i``,
    (upper) ``w_i^(j_k) <= A * w_i`` and
    (lower) ``B * w_i <= (w_{J_{k-1}+(i-1)j_k+1} + ... + w_{J_{k-1}+i*j_k}) / W_{j_k}``.

``theorem-3-5``
    With ``M = max(1, sup_k J_{k-1}/j_k)``, the constants
    ``A = (2 - 2^theta)/(2^(1-theta) - 1)`` and
    ``B = (1-theta)/2 * (M+1)^(-theta)`` satisfy the lemma-3-4 conditions, and
    every coefficient family obeys the two-sided norm bound
    ``B * ||y||^p <= ||expand(y)||^p <= A^p * ||y||^p``.

Reports are plain dataclasses with canonical JSON output: keys sorted, grid
aggregation in grid order, and no wall-clock fields unless explicitly
requested, so a fixed seed yields byte-identical files run after run.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import _kernels
from .blocks import BlockScheme, corollary_scheme
from .space import (
    FiniteVector,
    SpaceParams,
    decreasing_rearrangement,
    disjoint_supports,
    lorentz_pnorm_pow,
    lorentz_pnorm_pow_runlength,
)
from .weights import WeightSequence, _check_int

STATEMENT_IDS = (
    "lemma-3-1",
    "lemma-3-2",
    "remark-3-3",
    "lemma-3-4",
    "theorem-3-5",
)

DEFAULT_TOLERANCE = 1e-12


# ---------------------------------------------------------------------------
# Report data model.
# ---------------------------------------------------------------------------


def _py(value):
    """Recursively convert numpy scalars/arrays for JSON serialisation."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_py(v) for v in value]
    if isinstance(value, dict):
        return {k: _py(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_py(v) for v in value]
    return value


@dataclass
class InequalityInstance:
    """One checked grid point: the inequality sides and the final slack.

    ``lhs <= mid <= rhs`` is the general shape; statements without a third
    side leave the unused field as None.  ``slack`` is the smallest margin,
    negative on violation.  Every weight sum is evaluated to near full
    precision (see :mod:`lorentzkit.weights`), so ``approximate`` is always
    False; the field, like the report's ``approximate_instances`` (always 0),
    stays in the schema for stability.
    """

    name: str
    params: Dict
    lhs: Optional[float]
    mid: Optional[float]
    rhs: Optional[float]
    slack: float
    approximate: bool = False

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "params": _py(self.params),
            "lhs": _py(self.lhs),
            "mid": _py(self.mid),
            "rhs": _py(self.rhs),
            "slack": _py(self.slack),
            "approximate": self.approximate,
        }


@dataclass
class VerificationReport:
    """Outcome of a verification run over one statement's grid."""

    statement: str
    grid: Dict
    tolerance: float
    seed: Optional[int]
    instances: int
    violations: List[InequalityInstance]
    min_slack: float
    min_slack_instance: Optional[InequalityInstance]
    approximate_instances: int = 0
    runtime_ms: Optional[float] = None
    config: Optional[Dict] = None

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self, include_timing: bool = False) -> Dict:
        doc = {
            "statement": self.statement,
            "grid": _py(self.grid),
            "tolerance": _py(self.tolerance),
            "seed": _py(self.seed),
            "instances": int(self.instances),
            "violations": [v.to_dict() for v in self.violations],
            "min_slack": _py(self.min_slack),
            "min_slack_instance": (
                self.min_slack_instance.to_dict() if self.min_slack_instance else None
            ),
            "approximate_instances": int(self.approximate_instances),
            "passed": self.passed,
            "config": _py(self.config),
            # wall time varies run to run; it is nulled by default so that
            # repeated runs with one config stay byte-identical
            "runtime_ms": _py(self.runtime_ms) if include_timing else None,
        }
        return doc

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(self.to_dict(include_timing), sort_keys=True, indent=2) + "\n"

    def write_json(self, path, include_timing: bool = False) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json(include_timing))

    def write_csv(self, path) -> None:
        """Flat one-row-per-violation table (header always present)."""
        import csv

        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["statement", "name", "slack", "lhs", "mid", "rhs", "approximate", "params"]
            )
            for v in self.violations:
                writer.writerow(
                    [
                        self.statement,
                        v.name,
                        repr(_py(v.slack)),
                        "" if v.lhs is None else repr(_py(v.lhs)),
                        "" if v.mid is None else repr(_py(v.mid)),
                        "" if v.rhs is None else repr(_py(v.rhs)),
                        v.approximate,
                        json.dumps(_py(v.params), sort_keys=True),
                    ]
                )


# ---------------------------------------------------------------------------
# Shared numeric helpers.
# ---------------------------------------------------------------------------


def _power_gap(x, e):
    """``(x+1)**e - x**e`` without cancellation for large ``x`` (x >= 0)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.ones_like(x)
    pos = x > 0.0
    xp = x[pos]
    out[pos] = xp ** e * np.expm1(e * np.log1p(1.0 / xp))
    if out.ndim == 0:
        return float(out)
    return out


def _band_constants(theta: float) -> Tuple[float, float]:
    """Lower/upper factors of the averaged-weight band for ``w_n = n^-theta``."""
    lower = (1.0 - theta) / 2.0
    upper = (2.0 - 2.0 ** theta) / (2.0 ** (1.0 - theta) - 1.0)
    return lower, upper


def theorem_constants(
    theta: float, stagger: Optional[float]
) -> Tuple[float, float]:
    """Two-sided equivalence constants for a scheme with stagger ratio ``M``.

    Returns ``(A, B)`` with ``A = (2 - 2^theta)/(2^(1-theta) - 1)`` and
    ``B = (1-theta)/2 * (M+1)^(-theta)``; ``M`` is clamped to at least 1,
    and ``None`` (single-level schemes) is treated as 1.
    """
    m = 1.0 if stagger is None else max(1.0, float(stagger))
    _, upper = _band_constants(theta)
    return upper, (1.0 - theta) / 2.0 * (m + 1.0) ** (-theta)


def _log_sampled_ints(k_max: int, minimum: int) -> np.ndarray:
    """Deterministic log-spaced integers in ``[1, k_max]`` (>= minimum values)."""
    k_max = _check_int("k_max", k_max, 1)
    minimum = _check_int("minimum", minimum, 1)
    if k_max <= minimum:
        return np.arange(1, k_max + 1, dtype=np.int64)
    num = minimum
    while True:
        raw = np.logspace(0.0, math.log10(k_max), num)
        vals = np.unique(np.round(raw).astype(np.int64))
        vals = vals[(vals >= 1) & (vals <= k_max)]
        if vals.size >= minimum:
            return vals
        num = int(math.ceil(num * 1.3)) + 1


# ---------------------------------------------------------------------------
# Scalar checkers.
# ---------------------------------------------------------------------------


def check_lemma_3_1(theta: float, j: int, k: int) -> InequalityInstance:
    """Check the shifted power-sum ratio sandwich at one ``(theta, j, k)``."""
    j = _check_int("j", j, 0)
    k = _check_int("k", k, 1)
    w = WeightSequence(theta)
    e = 1.0 - w.theta
    mid = w.window_sum(j, k) / w.partial_sum(k)
    lhs = _power_gap((j + 1.0) / k, e)
    rhs = _power_gap(j / float(k), e) / (2.0 ** e - 1.0)
    return InequalityInstance(
        name="lemma-3-1",
        params={"theta": w.theta, "j": j, "k": k},
        lhs=float(lhs),
        mid=float(mid),
        rhs=float(rhs),
        slack=float(min(mid - lhs, rhs - mid)),
    )


def check_lemma_3_2(theta: float, i: int, k: int) -> InequalityInstance:
    """Check the averaged-weight band at one ``(theta, i, k)``."""
    i = _check_int("i", i, 1)
    k = _check_int("k", k, 1)
    w = WeightSequence(theta)
    lower_c, upper_c = _band_constants(w.theta)
    w_i = w.weight(i)
    mid = w.averaged_weight(i, k)
    lhs = lower_c * w_i
    rhs = upper_c * w_i
    return InequalityInstance(
        name="lemma-3-2",
        params={"theta": w.theta, "i": i, "k": k},
        lhs=float(lhs),
        mid=float(mid),
        rhs=float(rhs),
        slack=float(min(mid - lhs, rhs - mid)),
    )


def check_remark_3_3(
    x: FiniteVector, y: FiniteVector, params: SpaceParams
) -> InequalityInstance:
    """Check ``||x+y||^p <= ||x||^p + ||y||^p`` for disjointly supported x, y."""
    if not disjoint_supports(x, y):
        raise ValueError("x and y must have disjoint supports")
    p_x = lorentz_pnorm_pow(x, params)
    p_y = lorentz_pnorm_pow(y, params)
    p_xy = lorentz_pnorm_pow(x + y, params)
    return InequalityInstance(
        name="remark-3-3",
        params={
            "p": params.p,
            "theta": params.weights.theta,
            "support_x": len(x),
            "support_y": len(y),
        },
        lhs=float(p_xy),
        mid=None,
        rhs=float(p_x + p_y),
        slack=float(p_x + p_y - p_xy),
    )


def check_lemma_3_4_conditions(
    scheme: BlockScheme,
    weights: WeightSequence,
    bound_upper: Optional[float] = None,
    bound_lower: Optional[float] = None,
    levels: Optional[int] = None,
) -> List[InequalityInstance]:
    """Check the block-scheme conditions for all ``k <= levels``, ``i <= counts_k``.

    Produces one instance per (level, block, condition); the upper condition
    compares the plain averaged weight against ``bound_upper * w_i``, the
    lower one compares the offset-window average against ``bound_lower * w_i``.
    Omitted bounds default to the scheme's own band constants (see
    :func:`theorem_constants`).
    """
    if levels is None:
        levels = scheme.levels
    levels = _check_int("levels", levels, 1)
    if levels > scheme.levels:
        raise ValueError(f"levels={levels} exceeds the scheme's {scheme.levels}")
    if bound_upper is None or bound_lower is None:
        default_a, default_b = theorem_constants(
            weights.theta, scheme.stagger_ratio()
        )
        bound_upper = default_a if bound_upper is None else bound_upper
        bound_lower = default_b if bound_lower is None else bound_lower
    a = float(bound_upper)
    b = float(bound_lower)
    if not (np.isfinite(a) and np.isfinite(b)) or a <= 0.0 or b <= 0.0:
        raise ValueError("bounds must be finite and positive")
    instances: List[InequalityInstance] = []
    for k in range(1, levels + 1):
        j_k = scheme.lengths[k - 1]
        base = scheme.offsets[k - 1]
        c_k = scheme.counts[k - 1]
        w_jk = weights.partial_sum(j_k)
        i = np.arange(1, c_k + 1, dtype=np.int64)
        w_i = weights.weight_values(c_k)
        avg_plain = weights.window_sums((i - 1) * j_k, j_k) / w_jk
        avg_shifted = weights.window_sums(base + (i - 1) * j_k, j_k) / w_jk
        for pos in range(c_k):
            instances.append(
                InequalityInstance(
                    name="lemma-3-4",
                    params={
                        "k": k,
                        "i": int(i[pos]),
                        "condition": "averaged-upper",
                    },
                    lhs=None,
                    mid=float(avg_plain[pos]),
                    rhs=float(a * w_i[pos]),
                    slack=float(a * w_i[pos] - avg_plain[pos]),
                )
            )
            instances.append(
                InequalityInstance(
                    name="lemma-3-4",
                    params={
                        "k": k,
                        "i": int(i[pos]),
                        "condition": "staggered-lower",
                    },
                    lhs=float(b * w_i[pos]),
                    mid=float(avg_shifted[pos]),
                    rhs=None,
                    slack=float(avg_shifted[pos] - b * w_i[pos]),
                )
            )
    return instances


# ---------------------------------------------------------------------------
# Grid runners.
# ---------------------------------------------------------------------------


def _run_lemma_3_1(grid: Dict, tolerance: float):
    thetas = [float(t) for t in grid["theta_values"]]
    j_max = _check_int("j_max", grid["j_max"], 0)
    k_max = _check_int("k_max", grid["k_max"], 1)
    k_values = _log_sampled_ints(k_max, int(grid["k_samples"]))
    j = np.arange(0, j_max + 1, dtype=np.int64)
    violations: List[InequalityInstance] = []
    min_slack = math.inf
    min_inst: Optional[InequalityInstance] = None

    def build(theta, jj, kk, lhs, mid, rhs, slack):
        return InequalityInstance(
            name="lemma-3-1",
            params={"theta": theta, "j": int(jj), "k": int(kk)},
            lhs=float(lhs),
            mid=float(mid),
            rhs=float(rhs),
            slack=float(slack),
        )

    for theta in thetas:
        w = WeightSequence(theta)
        e = 1.0 - theta
        sums = w.partial_sums(j_max + k_max)
        num = sums[j[:, None] + k_values[None, :]] - sums[j[:, None]]
        ones = k_values == 1
        if np.any(ones):
            w_vals = w.weight_values(j_max + 1)
            num[:, ones] = w_vals[j][:, None]
        ratio = num / sums[k_values][None, :]
        lhs = _power_gap((j[:, None] + 1.0) / k_values[None, :], e)
        rhs = _power_gap(j[:, None] / k_values[None, :].astype(np.float64), e) / (
            2.0 ** e - 1.0
        )
        slack = np.minimum(ratio - lhs, rhs - ratio)
        flat = int(np.argmin(slack))
        r, c = np.unravel_index(flat, slack.shape)
        if slack[r, c] < min_slack:
            min_slack = float(slack[r, c])
            min_inst = build(
                theta, j[r], k_values[c], lhs[r, c], ratio[r, c], rhs[r, c], slack[r, c]
            )
        bad = np.argwhere(slack < -tolerance)
        for r, c in bad:
            violations.append(
                build(
                    theta,
                    j[r],
                    k_values[c],
                    lhs[r, c],
                    ratio[r, c],
                    rhs[r, c],
                    slack[r, c],
                )
            )
    desc = {
        "theta_values": thetas,
        "j_max": j_max,
        "k_values": [int(v) for v in k_values],
    }
    count = len(thetas) * (j_max + 1) * int(k_values.size)
    return desc, count, violations, min_slack, min_inst, 0, None


def _run_lemma_3_2(grid: Dict, tolerance: float):
    thetas = [float(t) for t in grid["theta_values"]]
    i_max = _check_int("i_max", grid["i_max"], 1)
    k_max = _check_int("k_max", grid["k_max"], 1)
    i = np.arange(1, i_max + 1, dtype=np.int64)
    k = np.arange(1, k_max + 1, dtype=np.int64)
    violations: List[InequalityInstance] = []
    min_slack = math.inf
    min_inst: Optional[InequalityInstance] = None

    def build(theta, ii, kk, lhs, mid, rhs, slack):
        return InequalityInstance(
            name="lemma-3-2",
            params={"theta": theta, "i": int(ii), "k": int(kk)},
            lhs=float(lhs),
            mid=float(mid),
            rhs=float(rhs),
            slack=float(slack),
        )

    for theta in thetas:
        w = WeightSequence(theta)
        lower_c, upper_c = _band_constants(theta)
        sums = w.partial_sums(i_max * k_max)
        w_i = w.weight_values(i_max)
        ik = i[:, None] * k[None, :]
        averaged = (sums[ik] - sums[ik - k[None, :]]) / sums[k][None, :]
        averaged[:, 0] = w_i / sums[1]  # k = 1 windows are single exact terms
        lhs = lower_c * w_i[:, None]
        rhs = upper_c * w_i[:, None]
        slack = np.minimum(averaged - lhs, rhs - averaged)
        flat = int(np.argmin(slack))
        r, c = np.unravel_index(flat, slack.shape)
        if slack[r, c] < min_slack:
            min_slack = float(slack[r, c])
            min_inst = build(
                theta, i[r], k[c], lhs[r, 0], averaged[r, c], rhs[r, 0], slack[r, c]
            )
        bad = np.argwhere(slack < -tolerance)
        for r, c in bad:
            violations.append(
                build(
                    theta, i[r], k[c], lhs[r, 0], averaged[r, c], rhs[r, 0], slack[r, c]
                )
            )
    desc = {"theta_values": thetas, "i_max": i_max, "k_max": k_max}
    count = len(thetas) * i_max * k_max
    return desc, count, violations, min_slack, min_inst, 0, None


def _run_remark_3_3(grid: Dict, tolerance: float):
    thetas = [float(t) for t in grid["theta_values"]]
    ps = [float(p) for p in grid["p_values"]]
    trials = _check_int("trials", grid["trials"], 1)
    seed = _check_int("seed", grid["seed"], 0)
    max_support = _check_int("max_support", grid["max_support"], 1)
    violations: List[InequalityInstance] = []
    min_slack = math.inf
    min_inst: Optional[InequalityInstance] = None
    cols = np.arange(max_support)

    for ti, theta in enumerate(thetas):
        w = WeightSequence(theta)
        w_vals = w.weight_values(2 * max_support)
        for pi, p in enumerate(ps):
            rng = np.random.default_rng([seed, ti, pi])
            size_x = rng.integers(1, max_support + 1, size=trials)
            size_y = rng.integers(1, max_support + 1, size=trials)
            x = np.abs(rng.standard_normal((trials, max_support)))
            y = np.abs(rng.standard_normal((trials, max_support)))
            x *= cols[None, :] < size_x[:, None]
            y *= cols[None, :] < size_y[:, None]
            union = np.ascontiguousarray(np.concatenate([x, y], axis=1))
            pow_x = _kernels.batch_sorted_pow_sums(np.ascontiguousarray(x), w_vals, p)
            pow_y = _kernels.batch_sorted_pow_sums(np.ascontiguousarray(y), w_vals, p)
            pow_u = _kernels.batch_sorted_pow_sums(union, w_vals, p)
            slack = pow_x + pow_y - pow_u

            def build(t):
                return InequalityInstance(
                    name="remark-3-3",
                    params={
                        "theta": theta,
                        "p": p,
                        "trial": int(t),
                        "support_x": int(size_x[t]),
                        "support_y": int(size_y[t]),
                    },
                    lhs=float(pow_u[t]),
                    mid=None,
                    rhs=float(pow_x[t] + pow_y[t]),
                    slack=float(slack[t]),
                )

            t_min = int(np.argmin(slack))
            if slack[t_min] < min_slack:
                min_slack = float(slack[t_min])
                min_inst = build(t_min)
            for t in np.flatnonzero(slack < -tolerance):
                violations.append(build(t))
    desc = {
        "theta_values": thetas,
        "p_values": ps,
        "trials": trials,
        "max_support": max_support,
    }
    count = len(thetas) * len(ps) * trials
    return desc, count, violations, min_slack, min_inst, 0, seed


def _scheme_from_grid(grid: Dict) -> BlockScheme:
    if grid.get("lengths") is not None:
        return BlockScheme(grid["lengths"], grid.get("counts"))
    return corollary_scheme(_check_int("corollary_levels", grid["corollary_levels"], 1))


def _run_lemma_3_4(grid: Dict, tolerance: float):
    scheme = _scheme_from_grid(grid)
    theta = float(grid["theta"])
    w = WeightSequence(theta)
    stagger = scheme.stagger_ratio()
    stagger = 1.0 if stagger is None else max(1.0, stagger)
    a_default, b_default = theorem_constants(theta, stagger)
    a = float(grid["A"]) if grid.get("A") is not None else a_default
    b = float(grid["B"]) if grid.get("B") is not None else b_default
    levels = grid.get("levels")
    instances = check_lemma_3_4_conditions(scheme, w, a, b, levels)
    violations = [inst for inst in instances if inst.slack < -tolerance]
    min_inst = min(instances, key=lambda inst: inst.slack)
    desc = {
        "theta": theta,
        "levels": levels if levels is not None else scheme.levels,
        "lengths": list(scheme.lengths),
        "counts": list(scheme.counts),
        "stagger_ratio": stagger,
        "A": a,
        "B": b,
    }
    return desc, len(instances), violations, min_inst.slack, min_inst, 0, None


_TRIAL_DISTRIBUTIONS = ("uniform", "geometric", "spike")


#: theorem-3-5 trials are drawn and evaluated in chunks of about this many
#: coefficients, so memory stays bounded however many trials are asked for
_TRIAL_CHUNK_ENTRIES = 1 << 18


def _draw_trial_coefficients(rng, counts, first: int, stop: int) -> np.ndarray:
    """Coefficients of trials ``first, ..., stop - 1``: one row per trial,
    level blocks side by side.

    Trial ``t`` follows ``_TRIAL_DISTRIBUTIONS[t % 3]``: uniform draws,
    a geometric decay ``amp * r**i`` per level, or ``1e-3``-scale noise with a
    single unit spike.  Draws come off ``rng`` trial by trial in a fixed order
    (per level: ``r`` then ``amp`` for the geometric shape), so a seed pins
    every coefficient, and consecutive chunks drawn from one generator give
    the same rows as one call for all trials.
    """
    levels = len(counts)
    total = sum(counts)
    starts = np.cumsum((0,) + tuple(counts[:-1]))
    coeffs = np.empty((stop - first, total))
    geometric, draws = [], []
    for row, t in enumerate(range(first, stop)):
        dist = _TRIAL_DISTRIBUTIONS[t % 3]
        if dist == "uniform":
            coeffs[row] = rng.random(total)
        elif dist == "geometric":
            geometric.append(row)
            draws.append(rng.random(2 * levels))
        else:
            k_star = int(rng.integers(0, levels))
            i_star = int(rng.integers(0, counts[k_star]))
            coeffs[row] = 1e-3 * rng.random(total)
            coeffs[row, starts[k_star] + i_star] = 1.0
    if geometric:
        draws = np.array(draws)
        level_of = np.repeat(np.arange(levels), counts)
        position = np.arange(total) - starts[level_of]
        ratio = 0.3 + 0.6 * draws[:, 0::2]
        amplitude = 0.5 + draws[:, 1::2]
        coeffs[geometric] = amplitude[:, level_of] * ratio[:, level_of] ** position
    return coeffs


def check_theorem_3_5(
    scheme: BlockScheme,
    weights: WeightSequence,
    p: float,
    trials: int = 1000,
    seed: int = 42,
    levels: Optional[int] = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """Full staggered-equivalence check on one scheme.

    Computes the stagger ratio ``M``, derives the constants ``(A, B)``, checks
    the lemma-3-4 conditions, and then stress-tests the two-sided norm bound
    ``B * ||y||^p <= ||expand(y)||^p <= A^p * ||y||^p`` on ``trials`` random
    coefficient families (cycling uniform, geometric-decay and single-spike
    shapes).  The expanded norms are evaluated through the run-length path,
    a chunk of trials at a time, so factorial schemes stay cheap and memory
    does not grow with ``trials``.
    """
    start = time.perf_counter()
    p = float(p)
    if not np.isfinite(p) or p < 1.0:
        raise ValueError(f"p must be a finite real >= 1, got {p}")
    trials = _check_int("trials", trials, 1)
    seed = _check_int("seed", seed, 0)
    if levels is None:
        levels = scheme.levels
    levels = _check_int("levels", levels, 1)
    if levels > scheme.levels:
        raise ValueError(f"levels={levels} exceeds the scheme's {scheme.levels}")

    theta = weights.theta
    stagger = scheme.stagger_ratio()
    stagger = 1.0 if stagger is None else max(1.0, stagger)
    a, b = theorem_constants(theta, stagger)
    instances = check_lemma_3_4_conditions(scheme, weights, a, b, levels)
    violations = [inst for inst in instances if inst.slack < -tolerance]
    min_inst = min(instances, key=lambda inst: inst.slack)
    min_slack = min_inst.slack
    count = len(instances)

    params = SpaceParams(p=p, weights=weights)
    lengths = scheme.lengths[:levels]
    counts = scheme.counts[:levels]
    edges = np.cumsum((0,) + counts)
    level_weights = [weights.weight_values(c) for c in counts]
    scales = np.repeat([weights.partial_sum(j) ** (-1.0 / p) for j in lengths], counts)
    block_lengths = np.repeat(np.array(lengths, dtype=np.int64), counts)
    a_pow = a ** p
    rng = np.random.default_rng([seed])
    chunk = max(1, _TRIAL_CHUNK_ENTRIES // int(edges[-1]))
    for first in range(0, trials, chunk):
        coeffs = _draw_trial_coefficients(rng, counts, first, min(first + chunk, trials))
        y_pow = sum(
            _kernels.batch_sorted_pow_sums(
                np.ascontiguousarray(coeffs[:, edges[k] : edges[k + 1]]),
                level_weights[k],
                p,
            )
            for k in range(levels)
        )
        x_pow = lorentz_pnorm_pow_runlength(coeffs * scales, block_lengths, params)
        lhs = b * y_pow
        rhs = a_pow * y_pow
        slack = np.minimum(x_pow - lhs, rhs - x_pow)

        def build(row):
            t = first + int(row)
            return InequalityInstance(
                name="theorem-3-5",
                params={"trial": t, "distribution": _TRIAL_DISTRIBUTIONS[t % 3]},
                lhs=float(lhs[row]),
                mid=float(x_pow[row]),
                rhs=float(rhs[row]),
                slack=float(slack[row]),
            )

        violations.extend(build(row) for row in np.flatnonzero(slack < -tolerance))
        row_min = int(np.argmin(slack))
        if slack[row_min] < min_slack:
            min_slack = float(slack[row_min])
            min_inst = build(row_min)
    count += trials

    desc = {
        "theta": theta,
        "p": p,
        "levels": levels,
        "lengths": list(lengths),
        "counts": list(counts),
        "stagger_ratio": stagger,
        "A": a,
        "B": b,
        "trials": trials,
        "distributions": list(_TRIAL_DISTRIBUTIONS),
    }
    runtime = (time.perf_counter() - start) * 1e3
    return VerificationReport(
        statement="theorem-3-5",
        grid=desc,
        tolerance=tolerance,
        seed=seed,
        instances=count,
        violations=violations,
        min_slack=float(min_slack),
        min_slack_instance=min_inst,
        approximate_instances=0,
        runtime_ms=runtime,
        config={"statement": "theorem-3-5", "tolerance": tolerance, **_py(desc)},
    )


def _run_theorem_3_5(grid: Dict, tolerance: float):
    scheme = _scheme_from_grid(grid)
    w = WeightSequence(float(grid["theta"]))
    report = check_theorem_3_5(
        scheme,
        w,
        float(grid["p"]),
        trials=grid["trials"],
        seed=grid["seed"],
        levels=grid.get("levels"),
        tolerance=tolerance,
    )
    return (
        report.grid,
        report.instances,
        report.violations,
        report.min_slack,
        report.min_slack_instance,
        report.approximate_instances,
        report.seed,
    )


# ---------------------------------------------------------------------------
# Dispatch.
# ---------------------------------------------------------------------------

_DEFAULT_THETAS = [round(0.05 * i, 2) for i in range(1, 20)]

STATEMENTS = {
    "lemma-3-1": {
        "runner": _run_lemma_3_1,
        "defaults": {
            "theta_values": _DEFAULT_THETAS,
            "j_max": 1000,
            "k_max": 1000,
            "k_samples": 60,
        },
    },
    "lemma-3-2": {
        "runner": _run_lemma_3_2,
        "defaults": {"theta_values": _DEFAULT_THETAS, "i_max": 1000, "k_max": 1000},
    },
    "remark-3-3": {
        "runner": _run_remark_3_3,
        "defaults": {
            "theta_values": [0.25, 0.5, 0.75],
            "p_values": [1.0, 1.5, 2.0, 3.0],
            "trials": 10000,
            "seed": 42,
            "max_support": 40,
        },
    },
    "lemma-3-4": {
        "runner": _run_lemma_3_4,
        "defaults": {
            "corollary_levels": 8,
            "lengths": None,
            "counts": None,
            "theta": 0.5,
            "A": None,
            "B": None,
            "levels": None,
        },
    },
    "theorem-3-5": {
        "runner": _run_theorem_3_5,
        "defaults": {
            "corollary_levels": 8,
            "lengths": None,
            "counts": None,
            "theta": 0.5,
            "p": 1.0,
            "trials": 1000,
            "seed": 42,
            "levels": None,
        },
    },
}


def run_grid(
    statement: str,
    grid: Optional[Dict] = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """Verify one statement over a parameter grid and report the outcome.

    ``grid`` overrides the statement's default grid key by key; unknown keys
    are rejected.  Aggregation follows grid order, so reports are
    deterministic (byte-identical JSON for equal inputs and seeds).
    """
    if statement not in STATEMENTS:
        raise ValueError(
            f"unknown statement {statement!r}; expected one of {', '.join(STATEMENT_IDS)}"
        )
    tolerance = float(tolerance)
    if not np.isfinite(tolerance) or tolerance < 0.0:
        raise ValueError(f"tolerance must be a finite nonnegative real: {tolerance}")
    spec = STATEMENTS[statement]
    resolved = dict(spec["defaults"])
    for key, value in (grid or {}).items():
        if key not in resolved:
            raise ValueError(f"unknown grid key {key!r} for {statement}")
        if value is not None:
            resolved[key] = value
    start = time.perf_counter()
    desc, count, violations, min_slack, min_inst, approx, seed = spec["runner"](
        resolved, tolerance
    )
    runtime = (time.perf_counter() - start) * 1e3
    return VerificationReport(
        statement=statement,
        grid=desc,
        tolerance=tolerance,
        seed=seed,
        instances=count,
        violations=violations,
        min_slack=float(min_slack),
        min_slack_instance=min_inst,
        approximate_instances=approx,
        runtime_ms=runtime,
        config={"statement": statement, "tolerance": tolerance, **_py(desc)},
    )
