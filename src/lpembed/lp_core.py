"""lp norms of float64 arrays: one power kernel and the row and pair scans built on it.

Every norm lpembed computes is the p-norm of a row or of a row difference.
All go through one power kernel (_abs_power_inplace), whose fractional
exponents run log and exp over the whole buffer with 0 mapped to +0.0 exactly,
and numpy's pairwise summation of each contiguous row: row_pnorms for rows,
pairwise_power_sums_all and pairwise_pnorm_all for all row pairs in blocks of
consecutive rows, pair_subset_power_sums for listed pairs. Every norm is
taken from its power sum by one root, pth_root.
No max-rescaling is applied: the rows lpembed passes hold entries of order
one (unit-sphere images, their differences and stacks, Gaussian samples),
far from float64 underflow and overflow.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "PExponent",
    "abs_power",
    "row_pnorms",
    "pairwise_pnorm_all",
]

ExponentLike = Union["PExponent", float, int]


def _is_index(value) -> bool:
    """An int or numpy integer, and not a bool: a point index, a count or a seed."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _number(value, name: str, integer: bool = False):
    """A real int or float as float (an int as int if integer); float() and int() would also read bools and strings."""
    if not (_is_index(value) or (not integer and isinstance(value, (float, np.floating)))):
        raise ValueError(f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")
    return int(value) if integer else float(value)


@dataclass(frozen=True)
class PExponent:
    """Norm exponent p, a real int or float with 1 <= p < 1024, enforced at construction.

    The envelopes and the tail bound take 2^p, which overflows float64 from
    p = 1024 on (its largest binary exponent, np.finfo(np.float64).maxexp).
    """

    value: float

    def __post_init__(self) -> None:
        v = _number(self.value, "norm exponent")
        if not 1.0 <= v < np.finfo(np.float64).maxexp:
            raise ValueError(f"norm exponent must satisfy 1 <= p < 1024, got {self.value!r}")
        object.__setattr__(self, "value", v)

    def __float__(self) -> float:
        return self.value


def as_exponent(p: ExponentLike) -> PExponent:
    """A validated PExponent from a real int or float (identity on PExponent)."""
    if isinstance(p, PExponent):
        return p
    return PExponent(p)


# ---------------------------------------------------------------------------
# power kernel
# ---------------------------------------------------------------------------

def _abs_power_inplace(buf: np.ndarray, p: float) -> np.ndarray:
    """Overwrite buf with |buf|**p and return it; the one exponent ladder.

    Fractional exponents use exp(p*log|v|) over the whole buffer: log 0 = -inf
    and exp(-inf) = +0.0 exactly, so zeros need no mask (a masked where= call
    leaves numpy's SIMD loops), and the behaviour of pow at 0 never enters.
    p = 2 is one multiply, and p = k + 0.5 is |v|^k * sqrt(|v|). Integer
    powers from 3 on (and the |v|^k of k >= 3) go through pow, about twice
    the time of (v*v)*v; that product differs from pow in the last bit on
    about a quarter of the entries, so the bits stay pow's.
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
        if k > 1:
            buf **= k
        return np.multiply(buf, root, out=buf)
    with np.errstate(divide="ignore"):
        np.log(buf, out=buf)
    buf *= p
    return np.exp(buf, out=buf)


def abs_power(values: np.ndarray, p: float) -> np.ndarray:
    """Elementwise |v|**p on a float64 copy; |0|**p is +0.0."""
    return _abs_power_inplace(np.array(values, dtype=np.float64), p)


# ---------------------------------------------------------------------------
# row and pair scans (numpy pairwise summation)
# ---------------------------------------------------------------------------

def pth_root(sums: np.ndarray, p: float) -> np.ndarray:
    """sums ** (1/p), the p-norms of p-th-power sums; sums itself at p = 1, where ** 1.0 is exact."""
    return sums if p == 1.0 else sums ** (1.0 / p)


def row_pnorms(rows: np.ndarray, p: ExponentLike) -> np.ndarray:
    """p-norm of every row of a 2-D array."""
    pv = as_exponent(p).value
    return pth_root(abs_power(rows, pv).sum(axis=1), pv)


# floats per pair block of pairwise_power_sums_all and pair_subset_power_sums,
# whatever the row width
PAIR_BLOCK_ELEMS = 1 << 16


def pairwise_power_sums_all(rows: np.ndarray, p: ExponentLike) -> np.ndarray:
    """sum_k |rows[i,k] - rows[j,k]|^p over all pairs i < j, condensed order.

    The output matches np.triu_indices(n, 1): (0,1), (0,2), ..., (1,2), ...
    Consecutive rows i broadcast their differences rows[i+1:] - rows[i] into
    one contiguous buffer of at most PAIR_BLOCK_ELEMS floats (or one row i's,
    if wider), which takes one power call and one row sum per block. Each pair
    is still reduced as one contiguous row, so its sum has the bits of a
    row-at-a-time scan and of pair_subset_power_sums.
    """
    pv = as_exponent(p).value
    n, width = rows.shape
    # starts[i]: condensed offset of row i's pairs; starts[n - 1] is the total
    starts = [i * (2 * n - 1 - i) // 2 for i in range(n)]
    out = np.empty(n * (n - 1) // 2, dtype=np.float64)
    cap = max(PAIR_BLOCK_ELEMS // max(width, 1), 1)
    buf = np.empty((min(max(cap, n - 1), out.size), width), dtype=np.float64)
    i = 0
    while i < n - 1:
        stop = max(bisect.bisect_right(starts, starts[i] + cap) - 1, i + 1)
        lo = starts[i]
        block = buf[:starts[stop] - lo]
        for k in range(i, stop):
            np.subtract(rows[k + 1:], rows[k], out=block[starts[k] - lo:starts[k + 1] - lo])
        out[lo:starts[stop]] = _abs_power_inplace(block, pv).sum(axis=1)
        i = stop
    return out


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
    return pth_root(pairwise_power_sums_all(rows, pv), pv)
