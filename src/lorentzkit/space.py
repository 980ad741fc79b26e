"""Finitely supported vectors and the weighted rearrangement norms on them.

The central quantity is the Lorentz-type norm

    ||x||_{w,p} = ( sum_n  a_n^p * w_n )^(1/p),

where ``(a_n)`` is the decreasing rearrangement of ``|x|`` and ``w`` is a
weight sequence from :mod:`lorentzkit.weights`.  Alongside it live the plain
``l_p`` norm and a run-length evaluation path for vectors that are constant
on large blocks (those show up in staggered block constructions, where
materialising tens of millions of equal coefficients would be wasteful); a
plain vector's p-th power is summed against ``w_n`` directly, with the bits
of that path's one row whose blocks are each one index long.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import _kernels
from .weights import _EM_BLOCK, WeightSequence, _check_p


@dataclass(frozen=True)
class SpaceParams:
    """Exponent and weight sequence pinning down one Lorentz sequence space."""

    p: float
    weights: WeightSequence

    def __post_init__(self):
        object.__setattr__(self, "p", _check_p(self.p))
        if not isinstance(self.weights, WeightSequence):
            raise TypeError("weights must be a WeightSequence")


class FiniteVector:
    """Finitely supported sequence: a canonical map ``index -> coefficient``.

    Indices are 1-based positive integers; zero coefficients are dropped on
    construction, indices are stored sorted, and duplicates are rejected, so
    two equal vectors always have identical internal arrays.
    """

    __slots__ = ("indices", "values")

    def __init__(self, indices, values):
        idx = np.asarray(indices, dtype=np.int64).ravel()
        val = np.asarray(values, dtype=np.float64).ravel()
        if idx.shape[0] != val.shape[0]:
            raise ValueError("indices and values must have equal length")
        if idx.size and idx.min() < 1:
            raise ValueError("indices must be >= 1")
        if not np.all(np.isfinite(val)):
            raise ValueError("coefficients must be finite")
        order = np.argsort(idx, kind="stable")
        idx = idx[order]
        val = val[order]
        if idx.size > 1 and np.any(np.diff(idx) == 0):
            raise ValueError("duplicate indices are not allowed")
        keep = val != 0.0
        idx = np.ascontiguousarray(idx[keep])
        val = np.ascontiguousarray(val[keep])
        idx.setflags(write=False)
        val.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)

    # construction conveniences ------------------------------------------------

    @classmethod
    def from_dense(cls, coefficients) -> "FiniteVector":
        """Vector with coefficients on indices ``1..len(coefficients)``."""
        coeff = np.asarray(coefficients, dtype=np.float64).ravel()
        return cls(np.arange(1, coeff.shape[0] + 1, dtype=np.int64), coeff)

    @classmethod
    def from_pairs(cls, pairs) -> "FiniteVector":
        """Vector from ``{index: value}`` or an iterable of ``(index, value)``."""
        if isinstance(pairs, dict):
            items = sorted(pairs.items())
        else:
            items = list(pairs)
        if not items:
            return cls([], [])
        idx, val = zip(*items)
        return cls(idx, val)

    @classmethod
    def empty(cls) -> "FiniteVector":
        return cls([], [])

    # inspection ------------------------------------------------------------------

    def __len__(self) -> int:
        return int(self.indices.shape[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteVector):
            return NotImplemented
        return np.array_equal(self.indices, other.indices) and np.array_equal(
            self.values, other.values
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        pairs = ", ".join(
            f"{int(i)}: {v:g}" for i, v in zip(self.indices[:6], self.values[:6])
        )
        suffix = ", ..." if len(self) > 6 else ""
        return f"FiniteVector({{{pairs}{suffix}}})"


def disjoint_supports(x: FiniteVector, y: FiniteVector) -> bool:
    return np.intersect1d(x.indices, y.indices, assume_unique=True).size == 0


# -----------------------------------------------------------------------------
# Rearrangement and norms.
# -----------------------------------------------------------------------------


def decreasing_rearrangement(x: Union[FiniteVector, Sequence[float]]) -> np.ndarray:
    """Absolute values sorted in decreasing order (zeros dropped).

    A plain sequence holding NaN or an infinity is refused, as
    :class:`FiniteVector` refuses it.
    """
    if isinstance(x, FiniteVector):
        vals = x.values
    else:
        vals = np.asarray(x, dtype=np.float64).ravel()
        if not np.all(np.isfinite(vals)):
            raise ValueError("coefficients must be finite")
        vals = vals[vals != 0.0]
    return np.ascontiguousarray(np.sort(np.abs(vals))[::-1])


def lorentz_pnorm_pow(x: Union[FiniteVector, Sequence[float]], params: SpaceParams) -> float:
    """``sum_n a_n^p w_n`` — the p-th power of the Lorentz norm, refused beyond
    float64 or below its normal range for a nonzero ``x`` (:func:`check_norm_powers`).
    Its bits are those of :func:`lorentz_pnorm_pow_runlength` of ``a`` with every
    block one index long."""
    vals = decreasing_rearrangement(x)  # fresh and zero-free: powered in place
    with np.errstate(over="ignore"):  # refused below
        power = _kernels.weighted_pow_sum(vals, params.weights.weight_values(vals.size), params.p)
    check_norm_powers(power, np.asarray(vals.size), params.p, params.weights.theta)
    return power


def _weighted_norm(values_desc: np.ndarray, weights: np.ndarray, p: float, name: str) -> float:
    """``(sum_n a_n^p w_n)^(1/p)`` for positive ``a`` sorted decreasing.

    Evaluated on ``a / 2^e`` with ``2^(e-1) <= a_1 < 2^e`` and rescaled by
    ``2^e`` afterwards (Blue 1978, as in LAPACK's ``dnrm2``), so ``a_n^p``
    cannot overflow.  Scaling by a power of two is exact: wherever the
    unscaled sum stays in range the result is the same for ``p`` = 1 and 2,
    and within a few ulps otherwise.  As ``w_1 = 1`` the scaled sum is at
    least ``2^-p``, a normal float64 for ``p <= 1022``; a norm beyond float64,
    or a scaled sum that is subnormal (bits lost) or 0.0, raises a
    ``ValueError`` that names the norm (``name``) and ``p``.
    """
    if values_desc.shape[0] == 0:
        return 0.0
    _, e = np.frexp(values_desc[0])
    power = _kernels.weighted_pow_sum(np.ldexp(values_desc, -e), weights, p)
    if power < np.finfo(np.float64).tiny:
        raise ValueError(f"{name} cannot be evaluated in float64 at p={p}: "
                         "its scaled power sum underflows")
    with np.errstate(over="ignore"):
        norm = np.ldexp(power ** (1.0 / p), e)
    if not np.isfinite(norm):
        raise ValueError(f"{name} overflows float64 at p={p}")
    return float(norm)


def lorentz_norm(x: Union[FiniteVector, Sequence[float]], params: SpaceParams) -> float:
    """Weighted decreasing-rearrangement norm ``||x||_{w,p}``, scaled."""
    vals = decreasing_rearrangement(x)
    return _weighted_norm(vals, params.weights.weight_values(vals.shape[0]), params.p,
                          "Lorentz norm")


def lp_norm(x: Union[FiniteVector, Sequence[float]], p: float) -> float:
    """Plain ``l_p`` norm, accumulated largest term first, scaled."""
    vals = decreasing_rearrangement(x)
    return _weighted_norm(vals, np.ones(vals.shape[0]), _check_p(p), "lp norm")


# -----------------------------------------------------------------------------
# Run-length path for block-constant vectors.
# -----------------------------------------------------------------------------


def _block_masses(weights: WeightSequence, lengths) -> np.ndarray:
    """``w_{c+1} + ... + w_{c+l}`` for each block of ``l = lengths[..., m]``
    indices after the cut ``c`` at the end of the blocks before it in its row:
    window sums, which no difference of partial sums can cancel."""
    cuts = np.cumsum(lengths, axis=-1)
    return weights.window_sums(cuts - lengths, lengths)


def check_norm_powers(powers, entries, p: float, theta: float) -> None:
    """Refuse p-th norm powers outside float64's range at ``(p, theta)``.

    A power that is not finite overflowed.  A power below the smallest normal
    float64 underflowed when its vector is nonzero: row ``i`` of ``entries``
    holds the entries of the vector of ``powers[i]``, or one flag that is
    nonzero exactly when they are, for a zero vector's 0.0 is exact.  Either
    raises ``ValueError("Lorentz norm power overflows|underflows float64 at
    p=..., theta=...")``, an overflow first.
    """
    over = not np.isfinite(powers).all()
    if over or np.any(entries[powers < np.finfo(np.float64).tiny] != 0.0):
        raise ValueError(f"Lorentz norm power {'overflows' if over else 'underflows'} float64 "
                         f"at p={p}, theta={theta}")


def lorentz_pnorm_pow_runlength(values, lengths, params: SpaceParams):
    """p-th norm power of vectors that are constant on disjoint blocks.

    ``values[..., m]`` is the coefficient repeated on ``lengths[..., m]``
    consecutive indices (block placement is irrelevant: the norm only sees
    the multiset).  A 1-D ``values`` is one vector and gives a float; a
    (rows x blocks) ``values`` is a batch of vectors and gives one norm power
    per row, with ``lengths`` either per row or shared by all rows.  A power
    beyond float64, or below its normal range for a nonzero row, is refused
    (:func:`check_norm_powers`).  The cost is independent of the support size: a
    batch is evaluated in row blocks of about :data:`~lorentzkit.weights._EM_BLOCK`
    entries, each with one sort of the values, one unstable argsort that orders the
    lengths alike (a row in which equal positive values of unequal length meet
    takes the stable order, as there tie order moves a cut), one cumulative sum of
    lengths and one window-sum lookup of every block's weight mass.
    Every step is row-local, so a row's bits do not depend on the block it falls in,
    and no temporary grows with the number of rows.
    """
    vals = np.asarray(values, dtype=np.float64)
    rows = np.atleast_2d(vals)
    lens = np.asarray(lengths, dtype=np.int64)
    if (rows.ndim != 2 or lens.shape[-1:] != rows.shape[-1:]
            or lens.shape[:-1] not in ((), (1,), rows.shape[:1])):
        raise ValueError("values and lengths must have equal length")
    if lens.size and lens.min() < 1:
        raise ValueError("block lengths must be >= 1")
    lens = np.broadcast_to(lens, rows.shape) if lens.ndim == 2 else lens
    power = np.empty(rows.shape[0])
    step = max(1, _EM_BLOCK // max(1, rows.shape[1]))
    for lo in range(0, rows.shape[0], step):
        mags = np.abs(rows[lo : lo + step])
        if not np.all(np.isfinite(mags)):
            raise ValueError("block values must be finite")
        part = lens if lens.ndim == 1 else lens[lo : lo + step]
        block = np.sort(mags, axis=1)[:, ::-1].copy()
        order = np.argsort(mags, axis=1)[:, ::-1]
        sorted_lens = (np.take(part, order) if part.ndim == 1
                       else np.take_along_axis(part, order, axis=1))
        tied = ((block[:, 1:] == block[:, :-1]) & (block[:, 1:] > 0.0)
                & (sorted_lens[:, 1:] != sorted_lens[:, :-1])).any(axis=1)
        if tied.any():
            order = np.argsort(-mags[tied], axis=1, kind="stable")
            rows_lens = np.broadcast_to(part, mags.shape)[tied]
            sorted_lens[tied] = np.take_along_axis(rows_lens, order, axis=1)
        # zero blocks sort last; giving them no length keeps them out of the cuts
        masses = _block_masses(params.weights, np.where(block > 0.0, sorted_lens, 0))
        with np.errstate(over="ignore"):  # refused below
            power[lo : lo + step] = _kernels.weighted_pow_sum(block, masses, params.p)
    check_norm_powers(power, rows, params.p, params.weights.theta)
    return float(power[0]) if vals.ndim <= 1 else power
