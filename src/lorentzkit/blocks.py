"""Constant-coefficient block vectors and staggered block schemes.

A block of length ``k`` placed after an offset ``J`` is the normalised vector
with coefficient ``W_k**(-1/p)`` on the ``k`` consecutive indices
``J + (i-1)k + 1 .. J + ik``; its Lorentz norm is 1 wherever it sits.  A
*scheme* stacks levels of such blocks left to right: level ``k`` contributes
``counts[k]`` blocks of length ``lengths[k]``, so the level offsets satisfy
``J_k = J_{k-1} + counts_k * lengths_k`` and the supports tile an initial
segment of the index line with no gaps.

A vector of ``Y = (⊕_k d(w,p)^{n_k})_p``, ``n_k = counts[k]``, is a
*coefficient row*: one coefficient ``a_i^(k)`` per block of the scheme's
first ``L`` levels, level by level, so its length is ``counts[1] + ... +
counts[L]``.  :func:`expand` turns a row into the vector ``sum_k sum_i
a_i^(k) * block(i, k)``, and :func:`expand_runlength` turns a row, or a batch
of rows, into the ``(values, lengths)`` pair that the run-length norm reads.

The inductive scheme with ``j_1 = 1`` and ``j_{k+1} = J_k`` (each new block as
long as everything placed so far) gives ``J_k = (k+1)!/2`` and keeps the
offset-to-length ratio pinned at 1; it is the canonical input for the
staggered-equivalence checks in :mod:`lorentzkit.verify`.
"""

from __future__ import annotations

from itertools import accumulate
from math import factorial
from typing import List, Optional, Sequence

import numpy as np

from .space import FiniteVector
from .weights import WeightSequence, _check_int, _check_p

_INT64_MAX = (1 << 63) - 1


class SchemeOverflowError(OverflowError, ValueError):
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
        self.lengths = lens
        self.counts = cnts
        self.offsets = tuple(accumulate((c * j for j, c in zip(lens, cnts)), initial=0))
        if self.total_support > _INT64_MAX:  # exact python ints; the total is the largest offset
            raise SchemeOverflowError(
                f"scheme support {self.total_support} exceeds the 64-bit index range"
            )

    @property
    def levels(self) -> int:
        return len(self.lengths)

    @property
    def total_support(self) -> int:
        return self.offsets[-1]

    def stagger_ratio(self) -> Optional[float]:
        """``max_{k>=2} J_{k-1} / j_k`` — how far blocks sit past their length.

        Returns None for single-level schemes.
        """
        return max((J / j for J, j in zip(self.offsets[1:-1], self.lengths[1:])), default=None)

    def __eq__(self, other):
        if not isinstance(other, BlockScheme):
            return NotImplemented
        return self.lengths == other.lengths and self.counts == other.counts

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BlockScheme(lengths={self.lengths}, counts={self.counts})"


def corollary_scheme(levels: int) -> BlockScheme:
    """Inductive scheme ``j_1 = 1``, ``j_{k+1} = J_k`` with default counts.

    In closed form ``j_k = k!/2`` for ``k >= 2`` and ``J_k = (k+1)!/2``, so
    only ``levels <= 19`` fits in 64-bit indices (``21!/2 > 2**63``); larger
    requests raise :class:`SchemeOverflowError`.  Weight sums stop at index
    ``2**53`` (:data:`lorentzkit.weights.INDEX_LIMIT`), so norms and the
    lemma-3-4/theorem-3-5 checks run for ``levels <= 17``; at 18 and 19 they
    raise a ``ValueError`` that names the limit.
    """
    levels = _check_int("levels", levels, 1)
    if levels > 19:
        raise SchemeOverflowError("inductive scheme overflows 64-bit indices at level 20")
    return BlockScheme([1] + [factorial(k) // 2 for k in range(2, levels + 1)])


def _scheme_from_grid(grid) -> BlockScheme:
    """The scheme of a resolved grid: its ``lengths`` (and ``counts``), else
    the corollary scheme of ``corollary_levels`` levels."""
    if grid.get("lengths") is not None:
        return BlockScheme(grid["lengths"], grid.get("counts"))
    return corollary_scheme(_check_int("corollary_levels", grid["corollary_levels"], 1))


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


def expand_runlength(coeffs, scheme: BlockScheme, weights: WeightSequence, p: float):
    """Run-length form of coefficient rows: ``(values, lengths)`` arrays.

    ``coeffs`` is one coefficient row or a (rows x blocks) batch of them.
    ``values`` has its shape and holds each coefficient times its block's
    scale ``W_{j_k}**(-1/p)``; ``lengths`` holds each block's ``j_k``, shared
    by every row.  Zero blocks stay, since the run-length norm gives them no
    length.  Feed the pair to
    :func:`lorentzkit.space.lorentz_pnorm_pow_runlength` to evaluate the
    norms without materialising the supports.
    """
    p = _check_p(p)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    ends = np.cumsum(scheme.counts).tolist()
    if coeffs.ndim not in (1, 2) or coeffs.shape[-1] not in ends:
        raise ValueError(
            f"coefficient rows need one entry per block of whole levels "
            f"(a length in {ends}), got shape {coeffs.shape}"
        )
    levels = ends.index(coeffs.shape[-1]) + 1
    lengths = np.array(scheme.lengths[:levels], dtype=np.int64)
    counts = scheme.counts[:levels]
    scales = [float(w) ** (-1.0 / p) for w in weights.partial_sums_at(lengths)]
    return coeffs * np.repeat(scales, counts), np.repeat(lengths, counts)


def expand(coeffs, scheme: BlockScheme, weights: WeightSequence, p: float) -> FiniteVector:
    """One coefficient row as the vector ``sum_k sum_i a_i^(k) * block(i, k)``.

    Materialises every coefficient of the nonzero blocks; fine for small
    schemes, but for factorial schemes prefer :func:`expand_runlength` plus
    the run-length norm path.
    """
    if np.ndim(coeffs) != 1:
        raise ValueError("expand takes one coefficient row")
    values, lengths = expand_runlength(coeffs, scheme, weights, p)
    ends = np.cumsum(lengths)
    blocks = np.flatnonzero(values)
    if blocks.size == 0:
        return FiniteVector.empty()
    indices = np.concatenate([np.arange(end - length, end) + 1
                              for end, length in zip(ends[blocks], lengths[blocks])])
    return FiniteVector(indices, np.repeat(values[blocks], lengths[blocks]))
