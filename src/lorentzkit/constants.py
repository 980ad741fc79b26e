"""Equivalence constants between sequence norms on finite sections.

Every norm here has the form ``(sum_n a_n^p u_n)^(1/p)`` on the decreasing
rearrangement ``a`` of ``|x|``, with a nonincreasing weight profile ``u``
(all ones for ``l_p``).  Both norms of a pair are symmetric and
1-unconditional, so their domination constant ``sup ||x||_A / ||x||_B`` on
``N`` coordinates is a supremum over the decreasing cone

    { 1 = a_1 >= a_2 >= ... >= a_N >= 0 }.

With one exponent ``p`` and ``b = a^p`` the ratio's ``p``-th power
``sum b_n u_n / sum b_n v_n`` is linear-fractional over the order polytope
``{1 = b_1 >= ... >= b_N >= 0}``, so (Charnes–Cooper 1962) it is largest at
a vertex.  The vertices are the step vectors ``(1, ..., 1, 0, ..., 0)``,
hence the constant is exactly

    max_m (U_m / V_m)^(1/p),   U_m = u_1 + ... + u_m,  V_m = v_1 + ... + v_m,

found by one scan over ``m``.  For ``l_p`` against the Lorentz norm the
maximum sits at ``m = N``: ``(N / W_N)^(1/p)``, the Chebyshev sum
inequality.  The prefix sums come from the certified weight sums of
:mod:`lorentzkit.weights`, not from a running float sum of the profile.

The module also selects, per block length ``k``, the smallest section
dimension on which the averaged-weight space escapes ``k``-equivalence with
``l_p`` — the quantity that drives staggered block constructions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from . import _kernels
from .space import _weighted_norm, decreasing_rearrangement
from .weights import INDEX_LIMIT, WeightSequence, _check_int, _check_p


class GrowthCutoffError(RuntimeError, ValueError):
    """No section up to the index limit escapes in block-count selection."""


# ---------------------------------------------------------------------------
# Norm descriptors: weighted p-sums of the decreasing rearrangement.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormDescriptor:
    """A symmetric norm of the form ``(sum a_n^p u_n)^(1/p)``.

    ``kind`` picks the weight profile ``u``: all ones (``lp``), or
    block-averaged weights with window ``k`` (``averaged``), whose ``k = 1``
    profile is the raw weights.
    """

    label: str
    kind: str
    p: float
    weights: Optional[WeightSequence] = None
    k: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("lp", "averaged"):
            raise ValueError(f"unknown norm kind {self.kind!r}")
        object.__setattr__(self, "p", _check_p(self.p))
        if self.kind != "lp" and not isinstance(self.weights, WeightSequence):
            raise TypeError(f"{self.kind} norm needs a WeightSequence")
        if self.kind == "averaged":
            object.__setattr__(self, "k", _check_int("k", self.k, 1))

    def weight_vector(self, n: int) -> np.ndarray:
        n = _check_int("n", n, 1)
        if self.kind == "lp":
            return np.ones(n)
        return self.weights.averaged_weight_values(n, self.k)

    def prefix_sums(self, n: int) -> np.ndarray:
        """``[U_1, ..., U_n]``, the running sums of :meth:`weight_vector`.

        Read off the weight sums ``W_{mk} / W_k`` of the averaged profile
        (``W_m`` at ``k = 1``), which stay within a few ulps; ``np.cumsum`` of
        the profile drifted to 3.4e-15 relative by ``n = 2000``.
        """
        n = _check_int("n", n, 1)
        m = np.arange(1, n + 1, dtype=np.int64)
        if self.kind == "lp":
            return m.astype(np.float64)
        return self.weights.partial_sums_at(m * self.k) / self.weights.partial_sum(self.k)

    def evaluate(self, values) -> float:
        """Norm of the value multiset ``values``."""
        vals = decreasing_rearrangement(values)
        if vals.shape[0] == 0:
            return 0.0
        weights = self.weight_vector(vals.shape[0])
        return _weighted_norm(vals, weights, self.p, f"{self.label} norm")


def lp_norm_descriptor(p: float) -> NormDescriptor:
    return NormDescriptor(label=f"lp(p={p})", kind="lp", p=p)


def lorentz_norm_descriptor(weights: WeightSequence, p: float) -> NormDescriptor:
    return NormDescriptor(
        label=f"lorentz(theta={weights.theta}, p={p})",
        kind="averaged",
        p=p,
        weights=weights,
        k=1,
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
    p = _check_p(p)
    n = _check_int("n", n, 1)
    return (n / weights.partial_sum(n)) ** (1.0 / p)


# ---------------------------------------------------------------------------
# Domination constants: a scan over the step vectors.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquivEstimate:
    """Domination constant, its re-evaluation on the witness, the witness."""

    lower: float
    estimate: float
    witness: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.witness, dtype=np.float64)
        w.setflags(write=False)
        object.__setattr__(self, "witness", w)


def domination_constant(
    norm_a: NormDescriptor, norm_b: NormDescriptor, n: int
) -> EquivEstimate:
    """``sup ||x||_A / ||x||_B`` over ``N`` coordinates, in closed form.

    With one exponent ``p`` the ratio's ``p``-th power is linear-fractional
    in ``b = a^p`` over the order polytope, so its maximum sits at a step
    vector and equals ``max_m U_m / V_m`` (see the module docstring).  The
    witness is the first maximising step vector, the one with the fewest
    ones; ``lower`` is the ratio re-evaluated on it through
    :meth:`NormDescriptor.evaluate`.  Norms with different exponents raise
    ``ValueError``: their maximum need not sit at a vertex.
    """
    n = _check_int("n", n, 1)
    if norm_a.p != norm_b.p:
        raise ValueError(
            f"{norm_a.label} and {norm_b.label} have different exponents; "
            "the step-vector closed form needs one p"
        )
    m, ratio = _kernels.ratio_scan(norm_a.prefix_sums(n), norm_b.prefix_sums(n))
    witness = np.zeros(n)
    witness[: m + 1] = 1.0
    return EquivEstimate(
        lower=float(norm_a.evaluate(witness) / norm_b.evaluate(witness)),
        estimate=float(ratio ** (1.0 / norm_a.p)),
        witness=witness,
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
    p = _check_p(p)
    k = _check_int("k", k, 1)
    n = _check_int("n", n, 1)
    s_k = weights.partial_sum(k)
    s_nk = weights.partial_sum(n * k)
    return (n * s_k / s_nk) ** (1.0 / p)


#: probes per narrowing step; each step cuts the bracket to at most 1/32
_FANOUT = 32


def select_block_counts(
    weights: WeightSequence, p: float, levels: int
) -> BlockCountSelection:
    """Smallest ``N_k`` with ``(N / W_N^(k))^(1/p) > k`` for ``k = 1..levels``.

    ``N * W_k / W_{Nk}`` increases with ``N`` (block averages of a decreasing
    sequence decrease), so each level brackets its ``N_k`` and narrows the
    bracket.  Every probe is one array of partial sums, read by
    ``first_escape``: the first ``N`` of an ascending list that escapes.  The
    gallop probes ``N = 1, 2, 4, ...`` up to the cutoff at once; each
    narrowing step probes the :data:`_FANOUT` points that cut the bracket
    ``(low, n]`` into equal parts, and the probe before the first escape
    becomes ``low``.  So ``low`` never escapes and ``n`` does, and a level
    makes at most 12 array probes (a bracket is at most ``2**52`` wide),
    besides ``W_k`` and the two sums of its :func:`section_ratio`.  The
    minimal values are clamped to be nondecreasing in ``k`` (for power-law
    weights they come out strictly increasing already).  Level ``k``
    searches up to ``INDEX_LIMIT // k``, the largest ``N`` whose ``W_{Nk}``
    is still evaluated.  Raises :class:`GrowthCutoffError` when no section
    up to that cutoff escapes (always so when ``k**p`` is beyond float64),
    which signals a weight sequence that is too close to summable for this
    construction (``theta = 0.01`` at ``p = 1`` fails on level 2).
    """
    p = _check_p(p)
    levels = _check_int("levels", levels, 1)
    counts: List[int] = []
    ratios: List[float] = []
    for k in range(1, levels + 1):
        s_k = weights.partial_sum(k)
        cutoff = INDEX_LIMIT // k
        try:
            target = float(k) ** p
        except OverflowError:
            raise GrowthCutoffError(f"level {k}: k**p = {k}**{p} overflows float64, so no section "
                                    f"below the growth cutoff {cutoff} escapes") from None

        def first_escape(ns: List[int]) -> Optional[int]:
            """Index of the first ``N`` in ``ns`` with ``N * W_k / W_{Nk} > k**p``."""
            sums = weights.partial_sums_at([n * k for n in ns])
            escaped = np.flatnonzero(np.array(ns, dtype=np.float64) * s_k / sums > target)
            return int(escaped[0]) if escaped.size else None

        gallop = [1]
        while gallop[-1] < cutoff:
            gallop.append(min(2 * gallop[-1], cutoff))
        first = first_escape(gallop)
        if first is None:
            raise GrowthCutoffError(
                f"level {k}: no section below the growth cutoff "
                f"{cutoff} escapes {k}-equivalence; the weights "
                "decay too slowly for this selection"
            )
        low, n = (gallop[first - 1] if first else 0), gallop[first]
        while n - low > 1:
            probes = sorted({low + (n - low) * i // _FANOUT for i in range(1, _FANOUT + 1)} - {low})
            first = first_escape(probes)
            low, n = (probes[first - 1] if first else low), probes[first]
        if counts and n < counts[-1]:
            n = counts[-1]
        counts.append(n)
        ratios.append(section_ratio(weights, p, k, n))
    return BlockCountSelection(
        counts=tuple(counts), ratios=tuple(ratios), p=p, proxy=(p != 1.0)
    )
