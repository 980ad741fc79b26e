"""Numerical kernels, most with a numba-compiled and a pure-numpy implementation.

``ratio_scan`` is a single numpy pass with no compiled twin.  ``ascent``
(coordinate ascent on the decreasing cone) is no longer called by the
library, whose domination constants are closed form.  Paths are selected at import time, per kernel: compiled loops where the
work is sequential, vectorized numpy where BLAS wins (``_PREFER_NUMBA``
records the choices).  Setting the environment variable
``LORENTZKIT_DISABLE_NUMBA=1`` (before the first import) forces the
pure-numpy fallbacks everywhere; the same happens automatically when numba
is not installed.  Both paths implement identical math and agree to ~1e-15
relative; they are *not* guaranteed bit-identical to each other because the
summation orders differ.  Within one path every kernel is deterministic.

``benchmarks/bench_kernels.py`` times the two paths side by side.
"""

from __future__ import annotations

import os

import numpy as np

DISABLE_ENV_VAR = "LORENTZKIT_DISABLE_NUMBA"


def _env_disabled() -> bool:
    return os.environ.get(DISABLE_ENV_VAR, "").strip().lower() in {"1", "true", "yes"}


NUMBA_IMPORTABLE = False
_njit = None
if not _env_disabled():
    try:
        from numba import njit as _njit  # type: ignore

        NUMBA_IMPORTABLE = True
    except ImportError:  # pragma: no cover - exercised via subprocess test
        NUMBA_IMPORTABLE = False


# ---------------------------------------------------------------------------
# Loop implementations (numba-compilable source).
# ---------------------------------------------------------------------------


def _weighted_pow_sum_loop(values, weights, p):
    # values assumed nonnegative, sorted in decreasing order; accumulating
    # left to right therefore adds the largest terms first.
    acc = 0.0
    for i in range(values.shape[0]):
        acc += values[i] ** p * weights[i]
    return acc


def _batch_sorted_pow_sums_loop(mat, weights, p):
    n_rows, width = mat.shape
    out = np.empty(n_rows)
    for t in range(n_rows):
        row = np.sort(mat[t])  # ascending; walk it backwards
        acc = 0.0
        for i in range(width):
            v = row[width - 1 - i]
            if v == 0.0:
                break
            acc += v ** p * weights[i]
        out[t] = acc
    return out


def _ascent_loop(v0, u_num, p_num, u_den, p_den, n_points, max_sweeps):
    # Coordinate ascent over the decreasing cone {1 = v[0] >= ... >= v[-1] >= 0}
    # maximising the norm ratio.  Coordinate 0 stays pinned at 1, every other
    # coordinate is line-searched over n_points equispaced values between its
    # neighbours, so monotonicity is preserved by construction.
    v = v0.copy()
    dim = v.shape[0]
    sweeps_used = 0
    for sweep in range(max_sweeps):
        changed = False
        s_num = 0.0
        s_den = 0.0
        for i in range(dim):
            s_num += v[i] ** p_num * u_num[i]
            s_den += v[i] ** p_den * u_den[i]
        for n in range(1, dim):
            lo = v[n + 1] if n + 1 < dim else 0.0
            hi = v[n - 1]
            base_num = s_num - v[n] ** p_num * u_num[n]
            base_den = s_den - v[n] ** p_den * u_den[n]
            best_t = v[n]
            best_r = (base_num + best_t ** p_num * u_num[n]) ** (1.0 / p_num) / (
                base_den + best_t ** p_den * u_den[n]
            ) ** (1.0 / p_den)
            for q in range(n_points):
                if n_points > 1:
                    t = lo + (hi - lo) * q / (n_points - 1)
                else:
                    t = lo
                r = (base_num + t ** p_num * u_num[n]) ** (1.0 / p_num) / (
                    base_den + t ** p_den * u_den[n]
                ) ** (1.0 / p_den)
                if r > best_r:
                    best_r = r
                    best_t = t
                    changed = True
            v[n] = best_t
            s_num = base_num + best_t ** p_num * u_num[n]
            s_den = base_den + best_t ** p_den * u_den[n]
        sweeps_used = sweep + 1
        if not changed:
            break
    final_num = 0.0
    final_den = 0.0
    for i in range(dim):
        final_num += v[i] ** p_num * u_num[i]
        final_den += v[i] ** p_den * u_den[i]
    ratio = final_num ** (1.0 / p_num) / final_den ** (1.0 / p_den)
    return v, ratio, sweeps_used


def _kahan_cumsum_loop(x):
    out = np.empty(x.shape[0])
    s = 0.0
    c = 0.0
    for i in range(x.shape[0]):
        y = x[i] - c
        t = s + y
        c = (t - s) - y
        s = t
        out[i] = s
    return out


# ---------------------------------------------------------------------------
# Pure-numpy fallbacks (vectorised where it pays off).
# ---------------------------------------------------------------------------


def weighted_pow_sum_numpy(values, weights, p):
    if values.shape[0] == 0:
        return 0.0
    return float(np.sum(values ** p * weights[: values.shape[0]]))


def batch_sorted_pow_sums_numpy(mat, weights, p):
    if mat.shape[0] == 0:
        return np.empty(0)
    desc = np.sort(mat, axis=1)[:, ::-1]
    return (desc ** p) @ weights[: mat.shape[1]]


def ascent_numpy(v0, u_num, p_num, u_den, p_den, n_points, max_sweeps):
    # Same algorithm as the compiled loop; the incremental update keeps the
    # pure-python sweep cheap enough without vectorisation tricks.
    return _ascent_loop(v0, u_num, p_num, u_den, p_den, n_points, max_sweeps)


def kahan_cumsum_numpy(x):
    return _kahan_cumsum_loop(x)


def ratio_scan(num_sums, den_sums):
    """First index of the largest ``num_sums / den_sums`` and that ratio.

    The arguments are the prefix sums ``U_1..U_N`` and ``V_1..V_N`` of two
    weight profiles, so index ``m`` stands for the step vector with ``m + 1``
    leading ones; the first maximum is the one with the fewest.
    """
    ratios = num_sums / den_sums
    m = int(np.argmax(ratios))
    return m, float(ratios[m])


# ---------------------------------------------------------------------------
# Path selection.
# ---------------------------------------------------------------------------

if NUMBA_IMPORTABLE:
    weighted_pow_sum_numba = _njit(cache=True)(_weighted_pow_sum_loop)
    batch_sorted_pow_sums_numba = _njit(cache=True)(_batch_sorted_pow_sums_loop)
    ascent_numba = _njit(cache=True)(_ascent_loop)
    kahan_cumsum_numba = _njit(cache=True)(_kahan_cumsum_loop)
else:  # pragma: no cover - depends on environment
    weighted_pow_sum_numba = None
    batch_sorted_pow_sums_numba = None
    ascent_numba = None
    kahan_cumsum_numba = None

USING_NUMBA = NUMBA_IMPORTABLE

# Compiled loops win where the work is inherently sequential (compensated
# summation, coordinate ascent); vectorized numpy wins where BLAS and the
# C sort dominate (see benchmarks/bench_kernels.py).  The env flag still
# forces everything onto the numpy path.
_PREFER_NUMBA = {
    "weighted_pow_sum": True,
    "batch_sorted_pow_sums": False,
    "ascent": True,
    "kahan_cumsum": True,
}

if USING_NUMBA:
    weighted_pow_sum = weighted_pow_sum_numba
    batch_sorted_pow_sums = batch_sorted_pow_sums_numpy
    ascent = ascent_numba
    kahan_cumsum = kahan_cumsum_numba
else:
    weighted_pow_sum = weighted_pow_sum_numpy
    batch_sorted_pow_sums = batch_sorted_pow_sums_numpy
    ascent = ascent_numpy
    kahan_cumsum = kahan_cumsum_numpy

#: name -> (numpy implementation, numba implementation or None); used by the
#: benchmark script and the cross-path agreement tests.
VARIANTS = {
    "weighted_pow_sum": (weighted_pow_sum_numpy, weighted_pow_sum_numba),
    "batch_sorted_pow_sums": (batch_sorted_pow_sums_numpy, batch_sorted_pow_sums_numba),
    "ascent": (ascent_numpy, ascent_numba),
    "kahan_cumsum": (kahan_cumsum_numpy, kahan_cumsum_numba),
}

