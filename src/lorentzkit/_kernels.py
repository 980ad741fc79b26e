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

# The benchmark's provenance (perfbench/run.py) reads USING_NUMBA and its trace
# table (perfbench/tracing.py) wraps the ``ascent`` stub; both go with them.
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


def ascent(*args, **kwargs):
    """The retired coordinate ascent, whose constants are now closed form.  The
    name stays only because the trace table of perfbench/tracing.py wraps it;
    it goes once ROADMAP item 7 drops that row."""
    raise NotImplementedError("the coordinate ascent is retired; see lorentzkit.constants")


def ratio_scan(num_sums, den_sums):
    """First index of the largest ``num_sums / den_sums`` and that ratio.

    The arguments are the prefix sums ``U_1..U_N`` and ``V_1..V_N`` of two
    weight profiles, so index ``m`` stands for the step vector with ``m + 1``
    leading ones; the first maximum is the one with the fewest.
    """
    ratios = num_sums / den_sums
    m = int(np.argmax(ratios))
    return m, float(ratios[m])
