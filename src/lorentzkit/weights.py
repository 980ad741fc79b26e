"""Power-law weights ``w_n = n**(-theta)`` for Lorentz sequence spaces.

The weights are nonincreasing and strictly positive with ``w_1 = 1``, tend to
zero and are not summable, for ``theta`` in ``[0.01, 0.99]``: the weights
for which the paper's lemmas and Theorem 3.5's constants are stated.

Window sums ``w_{j+1} + ... + w_{j+k}`` and partial sums ``W_k`` need no
cache.  The first ``HEAD = 64`` weights are summed left to right from each
window's start; one table built with the sequence holds every such window.
Past them the tail ``f(n) = n**(-theta)`` is summed
over ``a <= n < a + k`` by Euler–Maclaurin with four Bernoulli terms (DLMF
§2.10): ``integral + (f(a) - f(a+k))/2 + sum_i B_2i/(2i)! (f^(2i-1)(a+k) -
f^(2i-1)(a))``, with the integral ``a^e * expm1(e * log1p(k/a)) / e`` (``e =
1 - theta``), or ``((a+k)^e - a^e) / e`` once ``e * log1p(k/a) > 1``, so
nothing cancels.  Every derivative of ``f`` has a fixed sign, so the
remainder is below the first omitted term, under ``4e-19 * f(a)`` for ``a >
64``; rounding leaves a few units of ``2**-52`` relative (tested to 2e-15
against mpmath's Hurwitz zeta).  Indices stop at ``INDEX_LIMIT = 2**53``,
beyond which float64 misses integers.  The scalar sums are the array sums
on one element, so the two agree bit for bit.  Averaged weights ``w_i^(k)``
are window sums at the block starts over ``W_k``, one element or many.
Only :meth:`WeightSequence.partial_sums` builds a dense array, one
cumulative sum capped at ``PREFIX_CACHE_LIMIT`` entries, for the grids that
need every index.
"""

from __future__ import annotations

import numpy as np


THETA_MIN = 0.01
THETA_MAX = 0.99

#: largest dense prefix-sum array :meth:`WeightSequence.partial_sums` builds
PREFIX_CACHE_LIMIT = 1 << 25
#: largest index a weight sum is evaluated at (float64 is exact up to here)
INDEX_LIMIT = 1 << 53
#: power-law weights summed term by term before Euler–Maclaurin takes over
HEAD = 64
#: array evaluations (Euler–Maclaurin tails here, run-length norm batches in
#: :mod:`lorentzkit.space`) run in blocks of this many entries to bound
#: their temporaries
_EM_BLOCK = 1 << 12

# B_2i / (2i)! for i = 1..4
_BERNOULLI_TERMS = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0)


def _check_int(name: str, value, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    if value > (1 << 62):
        raise ValueError(f"{name} is too large to index safely: {value}")
    return value


def _check_theta(theta) -> float:
    theta = float(theta)
    if not (THETA_MIN <= theta <= THETA_MAX):
        raise ValueError(f"theta must lie in [{THETA_MIN}, {THETA_MAX}], got {theta}")
    return theta


def _check_p(p) -> float:
    p = float(p)
    if not np.isfinite(p) or p < 1.0:
        raise ValueError(f"p must be a finite real >= 1, got {p}")
    return p


def _check_index_limit(largest: int) -> None:
    if largest > INDEX_LIMIT:
        raise ValueError(
            f"weight sums reach index {largest}, beyond the limit 2**53 = "
            f"{INDEX_LIMIT} up to which float64 holds every index exactly"
        )


def _index_array(name: str, values) -> np.ndarray:
    arr = np.asarray(values)
    if arr.size == 0:
        return arr.astype(np.int64)
    if arr.dtype.kind not in "iu":
        raise TypeError(f"{name} must be integers, got dtype {arr.dtype}")
    if arr.min() < 0:
        raise ValueError(f"{name} must be >= 0")
    _check_index_limit(int(arr.max()))
    return arr.astype(np.int64, copy=False)


class WeightSequence:
    """Power-law weights ``w_n = n**(-theta)`` and their sums.

    Parameters
    ----------
    theta : float
        Decay exponent, restricted to ``[0.01, 0.99]``.
    """

    def __init__(self, theta: float):
        self.theta = theta = _check_theta(theta)
        # row s, column e: w_{s+1} + ... + w_e summed left to right from
        # w_{s+1} (the zeros before it add exactly), 0 for e <= s
        terms = np.triu(np.broadcast_to(self.weight_values(HEAD), (HEAD + 1, HEAD)))
        self._head_windows = np.zeros((HEAD + 1, HEAD + 1))
        np.cumsum(terms, axis=1, out=self._head_windows[:, 1:])
        # B_2i/(2i)! times the constant of f^(2i-1)(x) = c * x**(-theta-2i+1)
        self._em_terms = []
        c = -theta
        for m, bernoulli in zip((1, 3, 5, 7), _BERNOULLI_TERMS):
            self._em_terms.append(bernoulli * c)
            c *= (-theta - m) * (-theta - m - 1)

    # -- element access -----------------------------------------------------

    def _weights_at(self, n: np.ndarray) -> np.ndarray:
        """``w_n`` at a float64 array of integral indices ``n >= 1``."""
        return n ** np.float64(-self.theta)

    def weight(self, n) -> float:
        """``w_n``, equal to ``weight_values(n)[n-1]``."""
        n = _check_int("n", n, 1)
        return float(self._weights_at(np.array([n], dtype=np.float64))[0])

    def weight_values(self, n_max) -> np.ndarray:
        """Array ``[w_1, ..., w_n_max]``."""
        n_max = _check_int("n_max", n_max, 0)
        return self._weights_at(np.arange(1, n_max + 1, dtype=np.float64))

    # -- sums -------------------------------------------------------------------

    def _em(self, a, k):
        """``sum_{n=a}^{a+k-1} n**-theta`` for ``a > HEAD``, elementwise in floats."""
        e = 1.0 - self.theta
        log_ratio = np.log1p(k / a)
        f_a = np.power(a, -self.theta)
        drop = np.expm1(-self.theta * log_ratio)  # f(a+k)/f(a) - 1
        a_e = a * f_a
        growth = e * log_ratio
        # the expm1 form loses e*log_ratio ulps once that is large; a plain
        # difference of powers no longer cancels there
        near = a_e * np.expm1(growth)
        far = np.power(a + k, e) - a_e
        total = np.where(growth > 1.0, far, near) / e - 0.5 * f_a * drop
        f_b = f_a + f_a * drop
        return total + (self._em_derivatives(a + k, f_b) - self._em_derivatives(a, f_a))

    def _em_derivatives(self, x, f_x):
        """``sum_i B_2i/(2i)! * f^(2i-1)(x)`` by Horner's rule in ``1/x**2``."""
        t1, t2, t3, t4 = self._em_terms
        u = 1.0 / x
        u2 = u * u
        return f_x * u * (t1 + u2 * (t2 + u2 * (t3 + u2 * t4)))

    def window_sum(self, j, k) -> float:
        """``w_{j+1} + ... + w_{j+k}``; :meth:`window_sums` on one window."""
        j = _check_int("j", j, 0)
        k = _check_int("k", k, 0)
        return float(self.window_sums(j, k))

    def window_sums(self, starts, lengths) -> np.ndarray:
        """``w_{j+1} + ... + w_{j+k}`` over broadcast arrays of starts and lengths.

        Single terms (``k == 1``) are read off directly, never summed.
        """
        j, k = np.broadcast_arrays(
            _index_array("starts", starts), _index_array("lengths", lengths)
        )
        end = j + k
        _check_index_limit(int(end.max(initial=0)))
        head = np.minimum(j, HEAD) * (HEAD + 1) + np.minimum(end, HEAD)  # flat table index
        out = np.asarray(np.take(self._head_windows, head))  # asarray: a scalar on scalar input
        start = np.maximum(j, HEAD).ravel()
        count = end.ravel() - start
        single = k == 1
        tail = np.flatnonzero((count > 0) & ~single.ravel())
        flat = out.reshape(-1)
        for lo in range(0, tail.size, _EM_BLOCK):  # blocks bound the temporaries
            part = tail[lo : lo + _EM_BLOCK]
            flat[part] += self._em(start[part] + 1.0, count[part].astype(np.float64))
        out[single] = self._weights_at(end[single].astype(np.float64))
        return out

    def partial_sum(self, k) -> float:
        """``W_k`` (``W_0 = 0``)."""
        return self.window_sum(0, k)

    def partial_sums_at(self, ns) -> np.ndarray:
        """``W_n`` over an integer array ``ns``."""
        return self.window_sums(0, ns)

    def partial_sums(self, n_max) -> np.ndarray:
        """Dense read-only ``[W_0, W_1, ..., W_n_max]`` (one cumulative sum).

        For grids that need every index; scattered indices are cheaper
        through :meth:`partial_sums_at`.
        """
        n_max = _check_int("n_max", n_max, 0)
        if n_max > PREFIX_CACHE_LIMIT:
            raise ValueError(
                f"partial-sum arrays are limited to {PREFIX_CACHE_LIMIT} entries"
            )
        # filled in place: the indices become the weights, then their sums
        sums = np.arange(n_max + 1, dtype=np.float64)
        terms = sums[1:]
        np.power(terms, np.float64(-self.theta), out=terms)  # as in _weights_at
        np.cumsum(terms, out=terms)
        sums.setflags(write=False)
        return sums

    # -- averaged weights -------------------------------------------------------

    def averaged_weight(self, i, k) -> float:
        """Averaged weight ``w_i^(k) = (w_{(i-1)k+1} + ... + w_{ik}) / W_k``;
        the path of :meth:`averaged_weight_values` on one block."""
        i = _check_int("i", i, 1)
        k = _check_int("k", k, 1)
        _check_index_limit(i * k)
        return float(self._averaged((i - 1) * k, k))

    def averaged_weight_values(self, n_max, k) -> np.ndarray:
        """Array ``[w_1^(k), ..., w_n_max^(k)]``."""
        n_max = _check_int("n_max", n_max, 1)
        k = _check_int("k", k, 1)
        _check_index_limit(n_max * k)
        return self._averaged(np.arange(n_max, dtype=np.int64) * k, k)

    def _averaged(self, starts, k: int) -> np.ndarray:
        """``(w_{j+1} + ... + w_{j+k}) / W_k`` at each window start ``j``."""
        return self.window_sums(starts, k) / self.window_sums(0, k)

    # -- misc -----------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WeightSequence(theta={self.theta})"
