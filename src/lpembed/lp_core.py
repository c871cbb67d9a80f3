"""Dense lp vector arithmetic with strict numeric contracts.

All norms go through one zero-guarded power kernel and exact compensated
summation (math.fsum), so that unit-sphere membership, triangle inequalities
and scaling identities hold to 1e-12 even at dimension 10^4+. Batch helpers
(row_pnorms, pairwise_pnorm_all) trade the exact accumulator for numpy's
pairwise summation, which stays far below the tolerances used by any caller of
the batch paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "PExponent",
    "LpVector",
    "BlockVector",
    "as_exponent",
    "abs_power",
    "norm_p",
    "distance_p",
    "normalize",
    "block_norm_p",
    "block_distance_p",
    "row_pnorms",
    "pairwise_pnorm_all",
    "pairwise_power_sums_all",
    "pair_subset_power_sums",
]

ExponentLike = Union["PExponent", float, int]


@dataclass(frozen=True)
class PExponent:
    """Norm exponent p with 1 <= p < inf enforced at construction."""

    value: float

    def __post_init__(self) -> None:
        v = float(self.value)
        if not math.isfinite(v) or v < 1.0:
            raise ValueError(f"norm exponent must satisfy 1 <= p < inf, got {self.value!r}")
        object.__setattr__(self, "value", v)

    def __float__(self) -> float:
        return self.value


def as_exponent(p: ExponentLike) -> PExponent:
    """Coerce a float/int into a validated PExponent (identity on PExponent)."""
    if isinstance(p, PExponent):
        return p
    return PExponent(float(p))


def _as_coeff_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"coefficients must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("coefficient sequence must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("coefficients must all be finite (no NaN/inf)")
    return arr


@dataclass(frozen=True, eq=False)
class LpVector:
    """Finite real coefficient sequence; the concrete stand-in for a point of lp.

    The zero vector is representable; unit-sphere membership is checked by the
    operations that require it, not by the type.
    """

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_coeff_array(self.coeffs).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def __len__(self) -> int:
        return self.coeffs.size

    def __sub__(self, other: "LpVector") -> "LpVector":
        if not isinstance(other, LpVector):
            return NotImplemented
        if len(self) != len(other):
            raise ValueError(f"length mismatch: {len(self)} vs {len(other)}")
        return LpVector(self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "LpVector":
        return LpVector(self.coeffs * float(scalar))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return bool(np.all(self.coeffs == 0.0))


@dataclass(frozen=True, eq=False)
class BlockVector:
    """Element of a p-direct sum: an ordered list of lp blocks.

    The p-norm of the whole is (sum_n ||block_n||_p^p)^(1/p); block boundaries
    are preserved so per-level contributions stay inspectable.
    """

    blocks: tuple

    def __post_init__(self) -> None:
        blocks = tuple(self.blocks)
        if not blocks:
            raise ValueError("a block vector needs at least one block")
        for b in blocks:
            if not isinstance(b, LpVector):
                raise TypeError(f"blocks must be LpVector, got {type(b).__name__}")
        object.__setattr__(self, "blocks", blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def __sub__(self, other: "BlockVector") -> "BlockVector":
        if not isinstance(other, BlockVector):
            return NotImplemented
        if len(self) != len(other):
            raise ValueError(f"block count mismatch: {len(self)} vs {len(other)}")
        return BlockVector(tuple(a - b for a, b in zip(self.blocks, other.blocks)))


# ---------------------------------------------------------------------------
# power kernel
# ---------------------------------------------------------------------------

def _abs_power_inplace(buf: np.ndarray, p: float) -> np.ndarray:
    """Overwrite buf with |buf|**p and return it; the one exponent ladder.

    Fractional exponents use exp(p*log|v|) on the nonzero entries only, so the
    behaviour of pow at 0 never enters. Integer and half-integer exponents take
    exact multiply/sqrt shortcuts.
    """
    np.abs(buf, out=buf)
    if p == 1.0:
        return buf
    if p == 2.0:
        return np.multiply(buf, buf, out=buf)
    if p == float(int(p)):
        buf **= int(p)
        return buf
    if 2.0 * p == float(int(2.0 * p)):
        # p = k + 0.5: |v|^k * sqrt(|v|), exact up to rounding
        k = int(p - 0.5)
        if not k:
            return np.sqrt(buf, out=buf)
        root = np.sqrt(buf)
        buf **= k
        return np.multiply(buf, root, out=buf)
    nz = buf > 0.0
    np.log(buf, out=buf, where=nz)
    buf *= p
    np.exp(buf, out=buf, where=nz)
    return buf


def abs_power(values: np.ndarray, p: float) -> np.ndarray:
    """Elementwise |v|**p with an explicit zero guard, on a float64 copy."""
    return _abs_power_inplace(np.array(values, dtype=np.float64), p)


# ---------------------------------------------------------------------------
# contract operations (exact accumulation)
# ---------------------------------------------------------------------------

def norm_p(x: LpVector, p: ExponentLike) -> float:
    """(sum_i |x_i|^p)^(1/p); zero exactly on the zero vector.

    The sum is taken over coefficients rescaled by max|x_i|, so the result
    neither underflows to zero on a nonzero input nor overflows on a finite
    one: the largest coordinate always contributes exactly 1.
    """
    pv = as_exponent(p).value
    scale = float(np.abs(x.coeffs).max())
    if scale == 0.0:
        return 0.0
    total = math.fsum(abs_power(x.coeffs / scale, pv).tolist())
    return scale * total ** (1.0 / pv)


def distance_p(x: LpVector, y: LpVector, p: ExponentLike) -> float:
    """p-norm of x - y; raises on length mismatch."""
    return norm_p(x - y, p)


def normalize(x: LpVector, p: ExponentLike) -> LpVector:
    """Project onto the unit sphere of lp; the zero vector has no direction."""
    n = norm_p(x, p)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return LpVector(x.coeffs / n)


def block_norm_p(x: BlockVector, p: ExponentLike) -> float:
    """p-norm of a block vector: (sum_n ||block_n||_p^p)^(1/p).

    Equals norm_p of the concatenated coefficients, which is how it is computed.
    """
    return norm_p(LpVector(np.concatenate([b.coeffs for b in x.blocks])), p)


def block_distance_p(x: BlockVector, y: BlockVector, p: ExponentLike) -> float:
    return block_norm_p(x - y, p)


# ---------------------------------------------------------------------------
# batch helpers (numpy pairwise summation)
# ---------------------------------------------------------------------------

def row_pnorms(rows: np.ndarray, p: ExponentLike) -> np.ndarray:
    """p-norm of every row of a 2-D array."""
    pv = as_exponent(p).value
    sums = abs_power(rows, pv).sum(axis=1)
    if pv == 1.0:
        return sums
    return sums ** (1.0 / pv)


def pairwise_power_sums_all(rows: np.ndarray, p: ExponentLike) -> np.ndarray:
    """sum_k |rows[i,k] - rows[j,k]|^p over all pairs i < j, condensed order.

    The output matches np.triu_indices(n, 1): (0,1), (0,2), ..., (1,2), ...
    A row-at-a-time broadcast keeps this an order of magnitude faster than
    fancy-indexed gathers at desk scale.
    """
    pv = as_exponent(p).value
    n = rows.shape[0]
    out = np.empty(n * (n - 1) // 2, dtype=np.float64)
    buf = np.empty((max(n - 1, 1), rows.shape[1]), dtype=np.float64)
    pos = 0
    for i in range(n - 1):
        m = n - 1 - i
        b = buf[:m]
        np.subtract(rows[i + 1:], rows[i], out=b)
        out[pos:pos + m] = _abs_power_inplace(b, pv).sum(axis=1)
        pos += m
    return out


# floats per gathered block of pair_subset_power_sums, whatever the row width
PAIR_BLOCK_ELEMS = 1 << 16


def pair_subset_power_sums(
    rows: np.ndarray, ii: np.ndarray, jj: np.ndarray, p: ExponentLike
) -> np.ndarray:
    """sum_k |rows[jj[m],k] - rows[ii[m],k]|^p for each listed pair m.

    Pairs are gathered in blocks into a contiguous buffer as wide as the rows
    and reduced as pairwise_power_sums_all reduces its row broadcasts, so each
    sum equals that scan's entry for the pair (i, j), i < j, bit for bit.
    """
    pv = as_exponent(p).value
    ii = np.asarray(ii, dtype=np.intp)
    jj = np.asarray(jj, dtype=np.intp)
    out = np.empty(ii.size, dtype=np.float64)
    step = max(1, PAIR_BLOCK_ELEMS // max(rows.shape[1], 1))
    buf = np.empty((min(step, ii.size), rows.shape[1]), dtype=np.float64)
    lhs = np.empty_like(buf)
    for start in range(0, ii.size, step):
        stop = min(start + step, ii.size)
        b = buf[:stop - start]
        a = lhs[:stop - start]
        np.take(rows, jj[start:stop], axis=0, out=b)
        np.take(rows, ii[start:stop], axis=0, out=a)
        np.subtract(b, a, out=b)
        out[start:stop] = _abs_power_inplace(b, pv).sum(axis=1)
    return out


def pairwise_pnorm_all(rows: np.ndarray, p: ExponentLike) -> np.ndarray:
    """p-distance over all row pairs i < j, condensed order."""
    pv = as_exponent(p).value
    sums = pairwise_power_sums_all(rows, pv)
    if pv == 1.0:
        return sums
    return sums ** (1.0 / pv)
