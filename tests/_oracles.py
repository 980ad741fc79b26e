"""Independent reference implementations used to pin expected test values.

Everything here is written the slow, obvious way — ``math.fsum`` over
explicit generators, exhaustive enumeration — and deliberately avoids the
library's own numeric paths.  Tests freeze values produced by these
functions and then require the fast implementations to agree.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Sequence, Tuple

import numpy as np


def weight(n: int, theta: float) -> float:
    return float(n) ** (-theta)


def partial_sum(k: int, theta: float) -> float:
    return math.fsum(weight(n, theta) for n in range(1, k + 1))


def window_sum(j: int, k: int, theta: float) -> float:
    return math.fsum(weight(n, theta) for n in range(j + 1, j + k + 1))


def averaged_weight(i: int, k: int, theta: float, offset: int = 0) -> float:
    return window_sum(offset + (i - 1) * k, k, theta) / partial_sum(k, theta)


def lorentz_norm(values: Iterable[float], theta: float, p: float) -> float:
    mags = sorted((abs(v) for v in values), reverse=True)
    total = math.fsum(
        m**p * weight(n, theta) for n, m in enumerate(mags, 1) if m > 0.0
    )
    return total ** (1.0 / p)


def lp_norm(values: Iterable[float], p: float) -> float:
    return math.fsum(abs(v) ** p for v in values) ** (1.0 / p)


def sandwich_lower(j: int, k: int, theta: float) -> float:
    e = 1.0 - theta
    x = (j + 1) / k
    return (x + 1.0) ** e - x**e


def sandwich_upper(j: int, k: int, theta: float) -> float:
    e = 1.0 - theta
    x = j / k
    return ((x + 1.0) ** e - x**e) / (2.0**e - 1.0)


def band_constants(theta: float) -> Tuple[float, float]:
    lower = (1.0 - theta) / 2.0
    upper = (2.0 - 2.0**theta) / (2.0 ** (1.0 - theta) - 1.0)
    return lower, upper


def equivalence_constant(n: int, theta: float, p: float) -> float:
    return (n / partial_sum(n, theta)) ** (1.0 / p)


def running_fsums(terms: Iterable[float]) -> list:
    """Correctly rounded prefix sums: ``math.fsum(terms[:m])`` for every m.

    Keeps Shewchuk's exact partials (the algorithm behind ``math.fsum``)
    across the prefixes, so the whole list costs one pass.
    """
    partials: list = []
    out = []
    for x in terms:
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]
        out.append(math.fsum(partials))
    return out


def step_vector_constant(
    pair: str, n: int, theta: float, p: float, k: int = 1
) -> Tuple[float, int]:
    """``max_m (U_m / V_m)^(1/p)`` and the first maximising ``m`` (0-based).

    ``U`` and ``V`` are the fsum prefix sums of the numerator and the
    denominator weight profiles of ``pair``: ``d-vs-lp`` (ones over
    ``n^-theta``), ``d-vs-d`` (``n^-theta`` over itself) or ``dk-vs-d``
    (``W_{mk} / W_k`` over ``W_m``).
    """
    w = running_fsums(weight(j, theta) for j in range(1, k * n + 1))
    den = w[:n]
    if pair == "d-vs-lp":
        num = [float(m) for m in range(1, n + 1)]
    elif pair == "d-vs-d":
        num = den
    elif pair == "dk-vs-d":
        num = [w[m * k - 1] / w[k - 1] for m in range(1, n + 1)]
    else:
        raise ValueError(pair)
    ratios = [a / b for a, b in zip(num, den)]
    best = max(range(n), key=ratios.__getitem__)
    return ratios[best] ** (1.0 / p), best


def factorial_scheme(levels: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Lengths and cumulative supports of the inductive scheme: j_1 = 1 and
    each later length equals everything placed before it."""
    lengths = [1]
    offsets = [0]
    for k in range(1, levels + 1):
        offsets.append(offsets[-1] + k * lengths[-1])
        if k < levels:
            lengths.append(offsets[-1])
    return tuple(lengths), tuple(offsets[1:])


def cone_grid_max(
    n: int,
    ratio_batch: Callable[[np.ndarray], np.ndarray],
    grid: Sequence[float],
    chunk: int = 65536,
) -> Tuple[float, np.ndarray]:
    """Exhaustive grid search over the decreasing cone, lead pinned to 1.

    ``ratio_batch`` maps a (rows, n) array of nonincreasing vectors to the
    ratio being maximized; candidate tails are every nonincreasing
    combination of ``grid`` values.  Returns (best ratio, best vector).
    """
    grid_desc = sorted(set(float(g) for g in grid), reverse=True)
    best_ratio = -math.inf
    best_vec: np.ndarray | None = None
    combos = itertools.combinations_with_replacement(grid_desc, n - 1)
    while True:
        rows = list(itertools.islice(combos, chunk))
        if not rows:
            break
        block = np.ones((len(rows), n))
        block[:, 1:] = np.asarray(rows)
        ratios = ratio_batch(block)
        idx = int(np.argmax(ratios))
        if float(ratios[idx]) > best_ratio:
            best_ratio = float(ratios[idx])
            best_vec = block[idx].copy()
    assert best_vec is not None
    return best_ratio, best_vec


def lp_over_lorentz_batch(theta: float, p: float) -> Callable[[np.ndarray], np.ndarray]:
    """Batch ratio ||x||_p / ||x||_{d(w,p)} for nonincreasing rows."""

    def ratio(block: np.ndarray) -> np.ndarray:
        w = np.arange(1, block.shape[1] + 1, dtype=float) ** (-theta)
        powed = block**p
        num = powed.sum(axis=1)
        den = powed @ w
        return (num / den) ** (1.0 / p)

    return ratio


def theorem_3_5_trial_coefficients(counts: Sequence[int], trials: int, seed: int) -> np.ndarray:
    """Theorem-3-5 trial coefficients drawn level by level, one trial at a time.

    Trial ``t`` cycles uniform, geometric-decay and single-spike shapes; the
    draws come off one generator in exactly this order.
    """
    rng = np.random.default_rng([seed])
    rows = []
    for t in range(trials):
        shape = t % 3
        if shape == 2:
            k_star = int(rng.integers(0, len(counts)))
            i_star = int(rng.integers(0, counts[k_star]))
        levels = []
        for k, c in enumerate(counts):
            if shape == 0:
                arr = rng.random(c)
            elif shape == 1:
                r = 0.3 + 0.6 * rng.random()
                arr = (0.5 + rng.random()) * r ** np.arange(c)
            else:
                arr = 1e-3 * rng.random(c)
                if k == k_star:
                    arr[i_star] = 1.0
            levels.append(arr)
        rows.append(np.concatenate(levels))
    return np.array(rows)


def remark_3_3_trials(
    seed: int, theta_index: int, p_index: int, trials: int, max_support: int
) -> list:
    """Trial by trial ``(size_x, size_y, x, y)`` of one remark-3-3 grid cell.

    The cell's generator draws every x support size, then every y size, then
    per trial ``size_x`` normals, x's magnitudes, and ``size_y`` more, y's.
    x fills the start of the left half of a ``2 * max_support`` vector and y
    the start of the right half of another, so their supports are disjoint.
    """
    rng = np.random.default_rng([seed, theta_index, p_index])
    sizes_x = rng.integers(1, max_support + 1, size=trials)
    sizes_y = rng.integers(1, max_support + 1, size=trials)
    out = []
    for size_x, size_y in zip(sizes_x, sizes_y):
        x = np.zeros(2 * max_support)
        y = np.zeros(2 * max_support)
        x[:size_x] = np.abs(rng.standard_normal(size_x))
        y[max_support : max_support + size_y] = np.abs(rng.standard_normal(size_y))
        out.append((int(size_x), int(size_y), x, y))
    return out


# The dense lemma-3-1/3-2 grids as the library first built them: its prefix
# sums and weights, but two power-gap passes, two gathers per window and the
# k = 1 column patched by a mask.  Unlike the functions above these repeat the
# library's float operations on purpose, so its grids must match them bit for
# bit; they pin the window arithmetic, not the sums.


def _power_gap(x, e):
    x = np.asarray(x, dtype=np.float64)
    out = np.ones_like(x)
    pos = x > 0.0
    out[pos] = x[pos] ** e * np.expm1(e * np.log1p(1.0 / x[pos]))
    return out


def lemma_3_1_grid(theta: float, j_max: int, k_max: int, k_values: np.ndarray):
    """``(lhs, mid, rhs, slack)`` of the lemma-3-1 grid over ``j = 0..j_max``
    (rows) and ``k_values`` (columns)."""
    from lorentzkit.weights import WeightSequence

    w = WeightSequence(theta)
    sums = w.partial_sums(j_max + k_max)
    j = np.arange(0, j_max + 1, dtype=np.int64)
    ratio = sums[j[:, None] + k_values[None, :]] - sums[j[:, None]]
    ones = k_values == 1
    if np.any(ones):
        ratio[:, ones] = w.weight_values(j_max + 1)[j][:, None]
    ratio /= sums[k_values][None, :]
    e = 1.0 - theta
    lhs = _power_gap((j[:, None] + 1.0) / k_values[None, :], e)
    rhs = _power_gap(j[:, None] / k_values[None, :], e) / (2.0**e - 1.0)
    return lhs, ratio, rhs, np.minimum(ratio - lhs, rhs - ratio)


def lemma_3_2_grid(theta: float, i_max: int, k_max: int):
    """``(lhs, mid, rhs, slack)`` of the lemma-3-2 grid over ``i = 1..i_max``
    (rows) and ``k = 1..k_max`` (columns)."""
    from lorentzkit.weights import WeightSequence

    w = WeightSequence(theta)
    sums = w.partial_sums(i_max * k_max)
    i = np.arange(1, i_max + 1, dtype=np.int64)
    k = np.arange(1, k_max + 1, dtype=np.int64)
    ik = i[:, None] * k[None, :]
    w_i = w.weight_values(i_max)[:, None]
    averaged = sums[ik] - sums[ik - k[None, :]]
    averaged[:, 0] = w_i[:, 0]
    averaged /= sums[k][None, :]
    lower, upper = band_constants(theta)
    lhs, rhs = lower * w_i, upper * w_i
    return lhs, averaged, rhs, np.minimum(averaged - lhs, rhs - averaged)


def select_block_counts(weights, p: float, levels: int):
    """``(counts, ratios)`` of the section selection by one scalar weight sum
    per probe: each level gallops ``N = 1, 2, 4, ...`` up to the growth
    cutoff, then bisects the bracket one midpoint at a time.  It reads the
    library's scalar sums, so the library's array probes must agree with it
    bit for bit; its refusals carry the library's messages."""
    from lorentzkit.constants import GrowthCutoffError, section_ratio
    from lorentzkit.weights import INDEX_LIMIT

    counts, ratios = [], []
    for k in range(1, levels + 1):
        s_k = weights.partial_sum(k)
        cutoff = INDEX_LIMIT // k
        try:
            target = float(k) ** p
        except OverflowError:
            raise GrowthCutoffError(f"level {k}: k**p = {k}**{p} overflows float64, so no section "
                                    f"below the growth cutoff {cutoff} escapes") from None

        def ratio_pow(n: int) -> float:
            return n * s_k / weights.partial_sum(n * k)

        low, n = 0, 1  # ratio_pow(low) <= target < ratio_pow(n) once bracketed
        while not ratio_pow(n) > target:
            if n >= cutoff:
                raise GrowthCutoffError(
                    f"level {k}: no section below the growth cutoff "
                    f"{cutoff} escapes {k}-equivalence; the weights "
                    "decay too slowly for this selection"
                )
            low, n = n, min(2 * n, cutoff)
        while n - low > 1:
            mid = (low + n) // 2
            if ratio_pow(mid) > target:
                n = mid
            else:
                low = mid
        if counts and n < counts[-1]:
            n = counts[-1]
        counts.append(n)
        ratios.append(section_ratio(weights, p, k, n))
    return tuple(counts), tuple(ratios)
