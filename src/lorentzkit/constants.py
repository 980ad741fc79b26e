"""Equivalence constants between sequence norms on finite sections.

Two exact facts anchor this module.  First, on ``N`` coordinates the Lorentz
norm and ``l_p`` compare as

    ||x||_{w,p} <= ||x||_p <= (N / W_N)^(1/p) * ||x||_{w,p},

with the left bound attained at a single spike and the right one (a
Chebyshev sum inequality) at the constant vector, so the equivalence constant
``(N / W_N)^(1/p)`` is closed form.  Second, for pairs with no closed form a
deterministic search over the decreasing cone

    { 1 = a_1 >= a_2 >= ... >= a_N >= 0 }

(grid enumeration in low dimension, seeded random samples above, coordinate
ascent refinement either way) produces a certified lower estimate of the
domination constant ``sup ||x||_A / ||x||_B`` together with the witness
vector.  Both norms are symmetric and 1-unconditional, so restricting to the
cone with ``a_1 = 1`` loses nothing.

The module also selects, per block length ``k``, the smallest section
dimension on which the averaged-weight space escapes ``k``-equivalence with
``l_p`` — the quantity that drives staggered block constructions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from . import _kernels
from .weights import WeightSequence, _check_int


class GrowthCutoffError(RuntimeError):
    """Block-count selection exceeded the configured growth cutoff."""


class NonFiniteNormError(FloatingPointError):
    """A norm evaluation produced a non-finite value during a search."""


# ---------------------------------------------------------------------------
# Norm descriptors: weighted p-sums of the decreasing rearrangement.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormDescriptor:
    """A symmetric norm of the form ``(sum a_n^p u_n)^(1/p)``.

    ``kind`` picks the weight profile ``u``: all ones (``lp``), the raw
    weights (``lorentz``), or block-averaged weights with window ``k``
    (``averaged``).
    """

    label: str
    kind: str
    p: float
    weights: Optional[WeightSequence] = None
    k: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("lp", "lorentz", "averaged"):
            raise ValueError(f"unknown norm kind {self.kind!r}")
        p = float(self.p)
        if not np.isfinite(p) or p < 1.0:
            raise ValueError(f"p must be a finite real >= 1, got {self.p}")
        object.__setattr__(self, "p", p)
        if self.kind != "lp" and not isinstance(self.weights, WeightSequence):
            raise TypeError(f"{self.kind} norm needs a WeightSequence")
        if self.kind == "averaged":
            object.__setattr__(self, "k", _check_int("k", self.k, 1))

    def weight_vector(self, n: int) -> np.ndarray:
        n = _check_int("n", n, 1)
        if self.kind == "lp":
            return np.ones(n)
        if self.kind == "lorentz":
            return self.weights.weight_values(n)
        return self.weights.averaged_weight_values(n, self.k)

    def evaluate(self, values) -> float:
        """Norm of the value multiset ``values``."""
        vals = np.sort(np.abs(np.asarray(values, dtype=np.float64).ravel()))[::-1]
        vals = np.ascontiguousarray(vals[vals > 0.0])
        if vals.shape[0] == 0:
            return 0.0
        u = self.weight_vector(vals.shape[0])
        power = float(_kernels.weighted_pow_sum(vals, u, self.p))
        return power ** (1.0 / self.p)


def lp_norm_descriptor(p: float) -> NormDescriptor:
    return NormDescriptor(label=f"lp(p={p})", kind="lp", p=p)


def lorentz_norm_descriptor(weights: WeightSequence, p: float) -> NormDescriptor:
    return NormDescriptor(
        label=f"lorentz(theta={weights.theta}, p={p})",
        kind="lorentz",
        p=p,
        weights=weights,
    )


def averaged_norm_descriptor(
    weights: WeightSequence, p: float, k: int
) -> NormDescriptor:
    return NormDescriptor(
        label=f"averaged(theta={weights.theta}, p={p}, k={k})",
        kind="averaged",
        p=p,
        weights=weights,
        k=k,
    )


# ---------------------------------------------------------------------------
# Closed form for the l_p pair.
# ---------------------------------------------------------------------------


def equiv_to_lp_exact(weights: WeightSequence, p: float, n: int) -> float:
    """Exact equivalence constant ``(N / W_N)^(1/p)`` on ``N`` coordinates."""
    p = float(p)
    if not np.isfinite(p) or p < 1.0:
        raise ValueError(f"p must be a finite real >= 1, got {p}")
    n = _check_int("n", n, 1)
    return (n / weights.partial_sum(n)) ** (1.0 / p)


# ---------------------------------------------------------------------------
# Search over the decreasing cone.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the cone search; fixed seed means fixed output."""

    seed: int = 42
    grid_points: int = 32
    samples: int = 2000
    sweeps: int = 200
    line_points: int = 33
    max_dimension: int = 4096
    growth_cutoff: int = 10 ** 6
    grid_dimension_limit: int = 4


@dataclass(frozen=True)
class EquivEstimate:
    """Search outcome: certified lower bound, best estimate, witness."""

    lower: float
    estimate: float
    witness: np.ndarray
    iterations: int

    def __post_init__(self):
        w = np.asarray(self.witness, dtype=np.float64)
        w.setflags(write=False)
        object.__setattr__(self, "witness", w)


def _cone_grid(n: int, grid_points: int) -> np.ndarray:
    """Every nonincreasing vector on the grid with leading entry 1."""
    levels = np.linspace(0.0, 1.0, grid_points)
    rows: List[List[float]] = []

    def extend(partial: List[float], bound: float):
        if len(partial) == n:
            rows.append(partial.copy())
            return
        for t in levels[levels <= bound]:
            partial.append(float(t))
            extend(partial, float(t))
            partial.pop()

    extend([1.0], 1.0)
    return np.asarray(rows)


def _step_vectors(n: int) -> np.ndarray:
    """Indicator vectors of initial segments: the classic extremiser family."""
    return np.tril(np.ones((n, n)))


def _random_cone_samples(n: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, n])
    raw = rng.random((count, n))
    raw.sort(axis=1)
    samples = raw[:, ::-1].copy()
    lead = samples[:, 0].copy()
    lead[lead == 0.0] = 1.0  # measure-zero guard
    return samples / lead[:, None]


def domination_constant(
    norm_a: NormDescriptor,
    norm_b: NormDescriptor,
    n: int,
    config: Optional[SearchConfig] = None,
) -> EquivEstimate:
    """Estimate ``sup ||x||_A / ||x||_B`` over ``N`` coordinates.

    Deterministic for a fixed config: candidates are scanned in a fixed
    order, ties resolved towards the lexicographically smallest witness, and
    the certified ``lower`` is the ratio re-evaluated on the witness through
    the public norm path.
    """
    cfg = config or SearchConfig()
    n = _check_int("n", n, 1)
    if n > cfg.max_dimension:
        raise ValueError(
            f"dimension {n} exceeds the search cutoff {cfg.max_dimension}"
        )
    u_a = np.ascontiguousarray(norm_a.weight_vector(n))
    u_b = np.ascontiguousarray(norm_b.weight_vector(n))

    parts = [_step_vectors(n)]
    if n <= cfg.grid_dimension_limit:
        parts.append(_cone_grid(n, cfg.grid_points))
    else:
        parts.append(_random_cone_samples(n, cfg.samples, cfg.seed))
    candidates = np.ascontiguousarray(np.vstack(parts))

    best_idx, best_ratio = _kernels.ratio_scan(
        candidates, u_a, norm_a.p, u_b, norm_b.p
    )
    witness, ratio, sweeps = _kernels.ascent(
        np.ascontiguousarray(candidates[best_idx]),
        u_a,
        norm_a.p,
        u_b,
        norm_b.p,
        cfg.line_points,
        cfg.sweeps,
    )
    if not (np.isfinite(best_ratio) and np.isfinite(ratio)):
        raise NonFiniteNormError(
            f"non-finite ratio while comparing {norm_a.label} against "
            f"{norm_b.label} in dimension {n}"
        )
    if ratio < best_ratio:  # ascent never loses, but keep the better one
        witness, ratio = candidates[best_idx], best_ratio

    denom = norm_b.evaluate(witness)
    numer = norm_a.evaluate(witness)
    if denom == 0.0 or not (np.isfinite(numer) and np.isfinite(denom)):
        raise NonFiniteNormError(
            f"degenerate witness while comparing {norm_a.label} against "
            f"{norm_b.label} in dimension {n}"
        )
    lower = float(numer / denom)
    iterations = candidates.shape[0] + sweeps * (n - 1) * cfg.line_points
    return EquivEstimate(
        lower=lower,
        estimate=float(max(float(ratio), lower)),
        witness=witness,
        iterations=int(iterations),
    )


# ---------------------------------------------------------------------------
# Per-level section dimensions.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockCountSelection:
    """Selected section dimensions ``N_k`` with their witness ratios.

    ``proxy`` flags that ``p > 1``: the selection rule compares the
    norm-equivalence constant ``(N / W_N^(k))^(1/p)`` against ``k``, which for
    ``p = 1`` is exactly the failure of ``k``-equivalence with ``l_1`` and for
    ``p > 1`` serves as a computable stand-in for a criterion with no finite
    certificate.
    """

    counts: Tuple[int, ...]
    ratios: Tuple[float, ...]
    p: float
    proxy: bool = field(default=False)


def section_ratio(weights: WeightSequence, p: float, k: int, n: int) -> float:
    """``(N / W_N^(k))^(1/p)`` where ``W_N^(k) = sum_{i<=N} w_i^(k)``.

    Uses ``W_N^(k) = W_{Nk} / W_k``, so it needs one prefix-sum lookup.
    """
    p = float(p)
    k = _check_int("k", k, 1)
    n = _check_int("n", n, 1)
    s_k = weights.partial_sum(k)
    s_nk = weights.partial_sum(n * k)
    return (n * s_k / s_nk) ** (1.0 / p)


def select_block_counts(
    weights: WeightSequence,
    p: float,
    levels: int,
    config: Optional[SearchConfig] = None,
) -> BlockCountSelection:
    """Smallest ``N_k`` with ``(N / W_N^(k))^(1/p) > k`` for ``k = 1..levels``.

    ``N * W_k / W_{Nk}`` increases with ``N`` (block averages of a decreasing
    sequence decrease), so each level gallops ``N = 1, 2, 4, ...`` to a
    bracket and bisects it: O(log N_k) partial sums per level.  The minimal
    values are clamped to be nondecreasing in ``k`` (for power-law weights
    they come out strictly increasing already).  Raises
    :class:`GrowthCutoffError` when no section up to the configured cutoff
    escapes, which signals a weight sequence that is too close to summable
    for this construction.
    """
    cfg = config or SearchConfig()
    p = float(p)
    if not np.isfinite(p) or p < 1.0:
        raise ValueError(f"p must be a finite real >= 1, got {p}")
    levels = _check_int("levels", levels, 1)
    counts: List[int] = []
    ratios: List[float] = []
    for k in range(1, levels + 1):
        s_k = weights.partial_sum(k)
        target = float(k) ** p

        def ratio_pow(n: int) -> float:
            return n * s_k / weights.partial_sum(n * k)

        low, n = 0, 1  # ratio_pow(low) <= target < ratio_pow(n) once bracketed
        while not ratio_pow(n) > target:
            if n >= cfg.growth_cutoff:
                raise GrowthCutoffError(
                    f"level {k}: no section below the growth cutoff "
                    f"{cfg.growth_cutoff} escapes {k}-equivalence; the weights "
                    "decay too slowly for this selection"
                )
            low, n = n, min(2 * n, cfg.growth_cutoff)
        while n - low > 1:
            mid = (low + n) // 2
            if ratio_pow(mid) > target:
                n = mid
            else:
                low = mid
        if counts and n < counts[-1]:
            n = counts[-1]
        counts.append(n)
        ratios.append(ratio_pow(n) ** (1.0 / p))
    return BlockCountSelection(
        counts=tuple(counts), ratios=tuple(ratios), p=p, proxy=(p != 1.0)
    )
