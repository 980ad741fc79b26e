"""Finitely supported vectors and the weighted rearrangement norms on them.

The central quantity is the Lorentz-type norm

    ||x||_{w,p} = ( sum_n  a_n^p * w_n )^(1/p),

where ``(a_n)`` is the decreasing rearrangement of ``|x|`` and ``w`` is a
weight sequence from :mod:`lorentzkit.weights`.  Alongside it live the plain
``l_p`` norm, the direct-sum norm on stacks of finite components, and a
run-length evaluation path for vectors that are constant on large blocks
(those show up in staggered block constructions, where materialising tens of
millions of equal coefficients would be wasteful).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple, Union

import numpy as np

from . import _kernels
from .weights import WeightSequence, _check_int, _check_p


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

    # algebra -------------------------------------------------------------------

    def __add__(self, other: "FiniteVector") -> "FiniteVector":
        if not isinstance(other, FiniteVector):
            return NotImplemented
        idx = np.concatenate([self.indices, other.indices])
        val = np.concatenate([self.values, other.values])
        uniq, inverse = np.unique(idx, return_inverse=True)
        acc = np.zeros(uniq.shape[0])
        np.add.at(acc, inverse, val)
        return FiniteVector(uniq, acc)

    def scaled(self, c: float) -> "FiniteVector":
        return FiniteVector(self.indices, self.values * float(c))

    def __mul__(self, c):
        return self.scaled(c)

    __rmul__ = __mul__

    # inspection ------------------------------------------------------------------

    @property
    def support(self) -> np.ndarray:
        return self.indices

    def __len__(self) -> int:
        return int(self.indices.shape[0])

    def get(self, index: int) -> float:
        pos = np.searchsorted(self.indices, index)
        if pos < self.indices.shape[0] and self.indices[pos] == index:
            return float(self.values[pos])
        return 0.0

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteVector):
            return NotImplemented
        return np.array_equal(self.indices, other.indices) and np.array_equal(
            self.values, other.values
        )

    def __hash__(self):
        return hash((self.indices.tobytes(), self.values.tobytes()))

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

    Ties between equal absolute values are broken by index, which does not
    change the returned array but keeps downstream reports deterministic.
    """
    if isinstance(x, FiniteVector):
        vals = x.values
    else:
        vals = np.asarray(x, dtype=np.float64).ravel()
        vals = vals[vals != 0.0]
    return np.ascontiguousarray(np.sort(np.abs(vals))[::-1])


def lorentz_pnorm_pow(x: Union[FiniteVector, Sequence[float]], params: SpaceParams) -> float:
    """``sum_n a_n^p w_n`` — the p-th power of the Lorentz norm."""
    vals = decreasing_rearrangement(x)
    return _kernels.weighted_pow_sum(vals, params.weights.weight_values(vals.shape[0]), params.p)


def _weighted_norm(values_desc: np.ndarray, weights: np.ndarray, p: float) -> float:
    """``(sum_n a_n^p w_n)^(1/p)`` for positive ``a`` sorted decreasing.

    Evaluated on ``a / 2^e`` with ``2^(e-1) <= a_1 < 2^e`` and rescaled by
    ``2^e`` afterwards (Blue 1978, as in LAPACK's ``dnrm2``), so ``a_n^p``
    can neither overflow nor underflow to zero unless the norm itself is out
    of range.  Scaling by a power of two is exact: wherever the unscaled sum
    stays in range the result is the same for ``p`` = 1 and 2, and within a
    few ulps otherwise.
    """
    if values_desc.shape[0] == 0:
        return 0.0
    _, e = np.frexp(values_desc[0])
    power = _kernels.weighted_pow_sum(np.ldexp(values_desc, -e), weights, p)
    return float(np.ldexp(power ** (1.0 / p), e))


def lorentz_norm(x: Union[FiniteVector, Sequence[float]], params: SpaceParams) -> float:
    """Weighted decreasing-rearrangement norm ``||x||_{w,p}``, scaled."""
    vals = decreasing_rearrangement(x)
    return _weighted_norm(vals, params.weights.weight_values(vals.shape[0]), params.p)


def lp_norm(x: Union[FiniteVector, Sequence[float]], p: float) -> float:
    """Plain ``l_p`` norm, accumulated largest term first, scaled."""
    vals = decreasing_rearrangement(x)
    return _weighted_norm(vals, np.ones(vals.shape[0]), _check_p(p))


# -----------------------------------------------------------------------------
# Direct sums of finite components.
# -----------------------------------------------------------------------------


class YVector:
    """Element of a p-direct sum of finite Lorentz spaces.

    Holds a stack of components; component ``k`` lives in a space of declared
    dimension ``N_k`` and carries at most ``N_k`` coefficients.  The norm is

        ( sum_k ||component_k||_{w,p}^p )^(1/p).
    """

    __slots__ = ("components",)

    def __init__(self, components: Iterable[Tuple[int, Sequence[float]]]):
        cleaned = []
        for level, (dim, coeffs) in enumerate(components, start=1):
            dim = _check_int(f"component {level} dimension", dim, 1)
            arr = np.asarray(coeffs, dtype=np.float64).ravel()
            if arr.shape[0] > dim:
                raise ValueError(
                    f"component {level} has {arr.shape[0]} coefficients but "
                    f"declared dimension {dim}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"component {level} has non-finite coefficients")
            arr = arr.copy()
            arr.setflags(write=False)
            cleaned.append((dim, arr))
        self.components = tuple(cleaned)

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dims = ", ".join(str(d) for d, _ in self.components)
        return f"YVector(dims=[{dims}])"


def y_pnorm_pow(y: YVector, params: SpaceParams) -> float:
    """p-th power of the direct-sum norm of ``y``."""
    return sum((lorentz_pnorm_pow(coeffs, params) for _, coeffs in y), 0.0)


def y_norm(y: YVector, params: SpaceParams) -> float:
    return y_pnorm_pow(y, params) ** (1.0 / params.p)


# -----------------------------------------------------------------------------
# Run-length path for block-constant vectors.
# -----------------------------------------------------------------------------


def lorentz_pnorm_pow_runlength(values, lengths, params: SpaceParams):
    """p-th norm power of vectors that are constant on disjoint blocks.

    ``values[..., m]`` is the coefficient repeated on ``lengths[..., m]``
    consecutive indices (block placement is irrelevant: the norm only sees
    the multiset).  A 1-D ``values`` is one vector and gives a float; a
    (rows x blocks) ``values`` is a batch of vectors and gives one norm power
    per row, with ``lengths`` either per row or shared by all rows.  The cost
    is one sort, one cumulative sum of lengths and one vectorized partial-sum
    lookup for the whole batch, independent of the support size.
    """
    vals = np.abs(np.asarray(values, dtype=np.float64))
    single = vals.ndim <= 1
    vals = vals.reshape(1, -1) if single else vals
    lens = np.asarray(lengths, dtype=np.int64)
    if vals.ndim != 2 or lens.shape[-1:] != vals.shape[-1:] or lens.ndim > 2:
        raise ValueError("values and lengths must have equal length")
    if not np.all(np.isfinite(vals)):
        raise ValueError("block values must be finite")
    if lens.size and lens.min() < 1:
        raise ValueError("block lengths must be >= 1")
    lens = np.broadcast_to(lens, vals.shape)
    order = np.argsort(-vals, axis=1, kind="stable")
    vals = np.take_along_axis(vals, order, axis=1)
    # zero blocks sort last; giving them no length keeps them out of the cuts
    lens = np.where(vals > 0.0, np.take_along_axis(lens, order, axis=1), 0)
    sums = params.weights.partial_sums_at(np.cumsum(lens, axis=1))
    masses = np.diff(sums, axis=1, prepend=0.0)
    out = _kernels.weighted_pow_sum(vals, masses, params.p)
    return float(out[0]) if single else out


def lorentz_norm_runlength(values, lengths, params: SpaceParams) -> float:
    return lorentz_pnorm_pow_runlength(values, lengths, params) ** (1.0 / params.p)
