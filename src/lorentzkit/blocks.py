"""Constant-coefficient block vectors and staggered block schemes.

A block of length ``k`` placed after an offset ``J`` is the normalised vector
with coefficient ``W_k**(-1/p)`` on the ``k`` consecutive indices
``J + (i-1)k + 1 .. J + ik``; its Lorentz norm is 1 wherever it sits.  A
*scheme* stacks levels of such blocks left to right: level ``k`` contributes
``counts[k]`` blocks of length ``lengths[k]``, so the level offsets satisfy
``J_k = J_{k-1} + counts_k * lengths_k`` and the supports tile an initial
segment of the index line with no gaps.

The inductive scheme with ``j_1 = 1`` and ``j_{k+1} = J_k`` (each new block as
long as everything placed so far) gives ``J_k = (k+1)!/2`` and keeps the
offset-to-length ratio pinned at 1; it is the canonical input for the
staggered-equivalence checks in :mod:`lorentzkit.verify`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .space import FiniteVector, YVector
from .weights import WeightSequence, _check_int, _check_p

_INT64_MAX = (1 << 63) - 1


class SchemeOverflowError(OverflowError):
    """Scheme offsets would exceed the signed 64-bit index range."""


class BlockScheme:
    """Lengths, per-level block counts and cumulative offsets of a scheme.

    Parameters
    ----------
    lengths : sequence of int
        Block length ``j_k`` per level, ``k = 1..K``.
    counts : sequence of int, optional
        Blocks per level.  Defaults to ``counts[k] = k``, the staggered
        family in which level ``k`` carries ``k`` blocks.
    """

    __slots__ = ("lengths", "counts", "offsets")

    def __init__(self, lengths: Sequence[int], counts: Optional[Sequence[int]] = None):
        lens = tuple(_check_int(f"lengths[{i}]", v, 1) for i, v in enumerate(lengths))
        if not lens:
            raise ValueError("a scheme needs at least one level")
        if counts is None:
            cnts = tuple(range(1, len(lens) + 1))
        else:
            cnts = tuple(_check_int(f"counts[{i}]", v, 1) for i, v in enumerate(counts))
            if len(cnts) != len(lens):
                raise ValueError("counts must match lengths level for level")
        offsets = [0]
        for j, c in zip(lens, cnts):
            nxt = offsets[-1] + c * j  # exact python ints
            if nxt > _INT64_MAX:
                raise SchemeOverflowError(
                    f"scheme support {nxt} exceeds the 64-bit index range"
                )
            offsets.append(nxt)
        self.lengths = lens
        self.counts = cnts
        self.offsets = tuple(offsets)

    @property
    def levels(self) -> int:
        return len(self.lengths)

    @property
    def total_support(self) -> int:
        return self.offsets[-1]

    def support_bounds(self, k: int, i: int) -> tuple:
        """1-based inclusive index range of block ``i`` on level ``k``."""
        k = _check_int("k", k, 1)
        if k > self.levels:
            raise ValueError(f"level {k} out of range (K={self.levels})")
        i = _check_int("i", i, 1)
        if i > self.counts[k - 1]:
            raise ValueError(f"block {i} out of range on level {k}")
        start = self.offsets[k - 1] + (i - 1) * self.lengths[k - 1] + 1
        return start, start + self.lengths[k - 1] - 1

    def stagger_ratio(self) -> Optional[float]:
        """``max_{k>=2} J_{k-1} / j_k`` — how far blocks sit past their length.

        Returns None for single-level schemes.
        """
        if self.levels < 2:
            return None
        return max(
            self.offsets[k - 1] / self.lengths[k - 1]
            for k in range(2, self.levels + 1)
        )

    def __eq__(self, other):
        if not isinstance(other, BlockScheme):
            return NotImplemented
        return self.lengths == other.lengths and self.counts == other.counts

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BlockScheme(lengths={self.lengths}, counts={self.counts})"


def corollary_scheme(levels: int) -> BlockScheme:
    """Inductive scheme ``j_1 = 1``, ``j_{k+1} = J_k`` with default counts.

    Offsets grow factorially (``J_k = (k+1)!/2``), so only ``levels <= 19``
    fits in 64-bit indices; larger requests raise
    :class:`SchemeOverflowError`.  Weight sums stop at index
    ``2**53`` (:data:`lorentzkit.weights.INDEX_LIMIT`), so norms and the
    lemma-3-4/theorem-3-5 checks run for ``levels <= 17``; at 18 and 19 they
    raise a ``ValueError`` that names the limit.
    """
    levels = _check_int("levels", levels, 1)
    lengths = [1]
    offset = 1  # J_1 = 1 * 1
    for k in range(2, levels + 1):
        lengths.append(offset)
        offset = offset + k * lengths[-1]
        if offset > _INT64_MAX:
            raise SchemeOverflowError(
                f"inductive scheme overflows 64-bit indices at level {k}"
            )
    return BlockScheme(lengths)


def block_vector(
    weights: WeightSequence, p: float, i: int, k: int, offset: int = 0
) -> FiniteVector:
    """Normalised constant block ``i`` of length ``k`` after ``offset``.

    Coefficient ``W_k**(-1/p)`` on indices ``offset+(i-1)k+1 .. offset+ik``;
    unit Lorentz norm regardless of the offset.
    """
    p = _check_p(p)
    i = _check_int("i", i, 1)
    k = _check_int("k", k, 1)
    offset = _check_int("offset", offset, 0)
    start = offset + (i - 1) * k + 1
    if start + k - 1 > _INT64_MAX:
        raise SchemeOverflowError("block support exceeds the 64-bit index range")
    coeff = weights.partial_sum(k) ** (-1.0 / p)
    indices = np.arange(start, start + k, dtype=np.int64)
    return FiniteVector(indices, np.full(k, coeff))


def staggered_family(
    weights: WeightSequence, p: float, scheme: BlockScheme
) -> List[List[FiniteVector]]:
    """All blocks of a scheme, level by level, materialised as vectors.

    ``result[k-1][i-1]`` is block ``i`` of level ``k``.  The supports are
    pairwise disjoint and tile ``1..scheme.total_support`` with no gaps.
    """
    family: List[List[FiniteVector]] = []
    for k in range(1, scheme.levels + 1):
        j_k = scheme.lengths[k - 1]
        base = scheme.offsets[k - 1]
        level = [
            block_vector(weights, p, i, j_k, base)
            for i in range(1, scheme.counts[k - 1] + 1)
        ]
        family.append(level)
    return family


def block_scales(
    scheme: BlockScheme, weights: WeightSequence, p: float, levels: Optional[int] = None
):
    """Per-block scale ``W_{j_k}**(-1/p)`` and length ``j_k``: ``(scales, lengths)``.

    One entry per block of the first ``levels`` levels (all by default),
    level by level, so consecutive entries tile ``1..J_levels``.
    """
    p = _check_p(p)
    levels = scheme.levels if levels is None else levels
    lengths = np.array(scheme.lengths[:levels], dtype=np.int64)
    counts = scheme.counts[:levels]
    scales = [float(w) ** (-1.0 / p) for w in weights.partial_sums_at(lengths)]
    return np.repeat(scales, counts), np.repeat(lengths, counts)


def _block_coefficients(y: YVector, scheme: BlockScheme) -> np.ndarray:
    """``y``'s coefficient per block of its ``len(y)`` levels, level by level;
    zero for the blocks a component leaves out."""
    if len(y) > scheme.levels:
        raise ValueError(
            f"y has {len(y)} components but the scheme has {scheme.levels} levels"
        )
    out = np.zeros(sum(scheme.counts[: len(y)]))
    first = 0
    for k, (dim, coeffs) in enumerate(y, start=1):
        cap = scheme.counts[k - 1]
        if dim > cap or coeffs.shape[0] > cap:
            raise ValueError(
                f"component {k} carries {max(dim, coeffs.shape[0])} slots but "
                f"level {k} has only {cap} blocks"
            )
        out[first : first + coeffs.shape[0]] = coeffs
        first += cap
    return out


def expand(
    y: YVector, scheme: BlockScheme, weights: WeightSequence, p: float
) -> FiniteVector:
    """Linear combination ``sum_k sum_i a_i^(k) * block(i, k)`` as a vector.

    Materialises every coefficient; fine for small schemes, but for factorial
    schemes prefer :func:`expand_runlength` plus the run-length norm path.
    """
    scales, lengths = block_scales(scheme, weights, p, len(y))
    coeffs = _block_coefficients(y, scheme)
    ends = np.cumsum(lengths)
    blocks = np.flatnonzero(coeffs)
    if blocks.size == 0:
        return FiniteVector.empty()
    indices = np.concatenate([np.arange(end - length, end) + 1
                              for end, length in zip(ends[blocks], lengths[blocks])])
    return FiniteVector(indices, np.repeat(coeffs[blocks] * scales[blocks], lengths[blocks]))


def expand_runlength(
    y: YVector, scheme: BlockScheme, weights: WeightSequence, p: float
):
    """Run-length form of :func:`expand`: ``(values, lengths)`` arrays.

    One entry per nonzero block; feed the pair to
    :func:`lorentzkit.space.lorentz_pnorm_pow_runlength` to evaluate the norm
    without materialising the support.
    """
    scales, lengths = block_scales(scheme, weights, p, len(y))
    coeffs = _block_coefficients(y, scheme)
    blocks = np.flatnonzero(coeffs)
    return coeffs[blocks] * scales[blocks], lengths[blocks]
