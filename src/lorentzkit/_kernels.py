"""Numerical kernels, in numpy.

``weighted_sum`` is the reduction behind the p-th norm powers, for one
vector or a (rows x n) batch of powered terms; ``weighted_pow_sum`` powers in
front of it, ``batch_sorted_pow_sums`` (the one sort-and-sum kernel) powers
and sorts.  ``ratio_scan`` is the step-vector scan behind the closed-form
domination constants.  Every kernel is deterministic, which the
byte-reproducible reports rely on.
"""

from __future__ import annotations

import numpy as np

# The benchmark's provenance and tracing (perfbench/run.py, perfbench/tracing.py)
# look up USING_NUMBA and ``ascent`` by name; both stay until it drops them.
USING_NUMBA = False


def weighted_sum(terms, weights):
    """``sum_i terms[..., i] * weights[..., i]``: a float, or one per row.

    ``terms``, a C-contiguous vector or (rows x n) batch, is scratch: it is
    weighted in place and each row is summed along its own contiguous run, so
    a row's bits do not depend on the other rows.
    """
    terms *= weights
    total = terms.sum(axis=-1)
    return float(total) if terms.ndim == 1 else total


def weighted_pow_sum(values, weights, p):
    """:func:`weighted_sum` of ``values**p``, powered in place."""
    values **= p
    return weighted_sum(values, weights)


def batch_sorted_pow_sums(mat, weights, p):
    """:func:`weighted_sum` of each row of ``mat**p`` sorted in decreasing order
    (``mat`` is left as it is): the fresh powers, sorted ascending in place,
    against the reversed weights.  Powering before the sort gives the bits of
    powering after it, as ``t -> t**p`` is monotone on ``t >= 0``."""
    terms = mat ** p
    terms.sort(axis=-1)
    return weighted_sum(terms, weights[: terms.shape[-1]][::-1])


def ascent(v0, u_num, p_num, u_den, p_den, n_points, max_sweeps):
    """Coordinate ascent of a norm ratio over the decreasing cone; no longer
    called by the library, whose domination constants are closed form.

    Works over ``{1 = v[0] >= ... >= v[-1] >= 0}``: coordinate 0 stays pinned
    at 1, every other coordinate is line-searched over ``n_points``
    equispaced values between its neighbours, so monotonicity is preserved by
    construction.  Returns ``(v, ratio, sweeps_used)``.
    """
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


def ratio_scan(num_sums, den_sums):
    """First index of the largest ``num_sums / den_sums`` and that ratio.

    The arguments are the prefix sums ``U_1..U_N`` and ``V_1..V_N`` of two
    weight profiles, so index ``m`` stands for the step vector with ``m + 1``
    leading ones; the first maximum is the one with the fewest.
    """
    ratios = num_sums / den_sums
    m = int(np.argmax(ratios))
    return m, float(ratios[m])
