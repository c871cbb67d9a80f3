"""The Mazur map between unit spheres of lp spaces, with its distance envelopes.

M maps S(lp) -> S(lq) by raising each coordinate to the power p/q while keeping
its sign. It is a uniform homeomorphism with two-sided estimates: for p < q and
unit vectors x, y

    (p/q) * ||x - y||_p  <=  ||M(x) - M(y)||_q  <=  C * ||x - y||_p^(p/q)

with C = 2^(1 - p/q), and the mirrored estimates for p > q (M_{p,q} is the
inverse of M_{q,p}). The concrete C comes from the sign-split pointwise bound
|a^t - b^t| <= 2^(1-t) |a - b|^t for t in (0, 1]; `sample_ratio_extremes` is
the brute-force oracle that validates it empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .lp_core import ExponentLike, _abs_power_inplace, _number, abs_power, as_exponent, pth_root, row_pnorms

__all__ = [
    "MAX_SAMPLE_DIM",
    "mazur_map_rows",
    "MazurBounds",
    "mazur_bounds",
    "RatioSample",
    "sample_ratio_extremes",
]

# inputs further than this from the unit sphere are rejected; closer ones are
# renormalized so upstream factorization error does not cascade into failures
SPHERE_TOL = 1e-9

# sample_ratio_extremes draws and maps its pairs in batches of at most this
# many floats (2 * pairs * dim, 256 KiB, so a batch and its images stay in
# cache): 256 pairs at dim 64 and 16 at MAX_SAMPLE_DIM, so its memory does
# not grow with dim
SAMPLE_BATCH_FLOATS = 1 << 15
# input bound on the sample dimension
MAX_SAMPLE_DIM = 1024


def signed_power(values: np.ndarray, theta: float) -> np.ndarray:
    """Elementwise |v|**theta * sign(v), the coordinate map of M."""
    return abs_power(values, theta) * np.sign(values)


def mazur_map_rows(rows: np.ndarray, p: ExponentLike, q: ExponentLike) -> np.ndarray:
    """Map each row, a unit vector of lp, onto the unit sphere of lq.

    Every row must have ||x||_p = 1 within SPHERE_TOL (a NaN norm fails too);
    rows are renormalized before the coordinate powers are applied, so the
    images land on S(lq) to 1e-12.
    """
    pe, qe = as_exponent(p), as_exponent(q)
    norms = row_pnorms(rows, pe)
    off = np.abs(norms - 1.0)
    if not np.all(off <= SPHERE_TOL):
        worst = float(off.max())  # nan when a row's norm is nan
        raise ValueError(f"rows are off the unit sphere of l_{pe.value:g} by up to {worst:.3e}")
    unit = rows / norms[:, None]
    if pe.value == qe.value:
        return unit
    return signed_power(unit, pe.value / qe.value)


@dataclass(frozen=True)
class MazurBounds:
    """Two-sided distance envelope of M_{p,q} on unit-sphere pairs.

    lower(d) <= ||M(x) - M(y)||_q <= upper(d) whenever ||x - y||_p = d, for
    all d in [0, 2]. For p = q both collapse to the identity.
    """

    p: float
    q: float
    constant_c: float

    def lower(self, d):
        d = np.asarray(d, dtype=np.float64)
        if self.p == self.q:
            out = d
        elif self.p < self.q:
            out = (self.p / self.q) * d
        else:
            out = (d / self.constant_c) ** (self.p / self.q)
        return out if out.ndim else float(out)

    def upper(self, d):
        d = np.asarray(d, dtype=np.float64)
        if self.p == self.q:
            out = d
        elif self.p < self.q:
            out = self.constant_c * d ** (self.p / self.q)
        else:
            out = (self.p / self.q) * d
        return out if out.ndim else float(out)


def mazur_bounds(p: ExponentLike, q: ExponentLike) -> MazurBounds:
    """Envelope pair for M_{p,q} with C = 2^(1 - min(p,q)/max(p,q))."""
    pv, qv = as_exponent(p).value, as_exponent(q).value
    if pv == qv:
        return MazurBounds(p=pv, q=qv, constant_c=1.0)
    ratio = min(pv, qv) / max(pv, qv)
    return MazurBounds(p=pv, q=qv, constant_c=2.0 ** (1.0 - ratio))


# ---------------------------------------------------------------------------
# sampling oracle for the envelope constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatioSample:
    """Worst-case envelope margins over a random sample of unit-vector pairs.

    max_lower_excess / max_upper_excess are how far any pair stepped outside
    [lower(d), upper(d)] (negative values mean the inequality held with room).
    max_constant_ratio is the empirical version of the constant C: the largest
    ||M(x)-M(y)||_q / ||x-y||_p^(p/q) for p < q (roles swapped for p > q).
    """

    p: float
    q: float
    dim: int
    pairs: int
    seed: int
    max_lower_excess: float
    max_upper_excess: float
    max_constant_ratio: float
    constant_c: float


def _scaled_pnorms(rows: np.ndarray, p: float) -> np.ndarray:
    """p-norm of every row, taken as m * ||rows / m||_p with m the row's largest |entry|.

    With the largest |entry| 1, no |entry|^p overflows and the power sum is
    at least 1, so a norm underflows only where the norm itself would; a
    term (|entry| / m)^p below 2^-1074 vanishes. A zero row's norm is 0.
    """
    scaled = np.abs(rows)
    m = scaled.max(axis=1)
    scaled /= np.where(m > 0, m, 1.0)[:, None]
    return m * pth_root(_abs_power_inplace(scaled, p).sum(axis=1), p)


def sample_ratio_extremes(
    p: ExponentLike,
    q: ExponentLike,
    dim: int,
    pairs: int,
    seed: int,
) -> RatioSample:
    """Maximize the Mazur envelope ratios over seeded random sphere pairs; dim, pairs and seed are integers.

    Every sample row and every pair difference is measured with its largest
    |entry| factored out, so neither |x|^p of a sample nor an l_q distance
    of images under- or overflows anywhere in 1 <= p, q < 1024; the
    constant ratio is taken over pairs whose distance it divides by is
    positive.
    """
    pe, qe = as_exponent(p), as_exponent(q)
    dim = _number(dim, "dim", integer=True)
    pairs = _number(pairs, "pairs", integer=True)
    seed = _number(seed, "seed", integer=True)
    if dim < 1 or pairs < 1:
        raise ValueError("dim and pairs must be positive")
    if dim > MAX_SAMPLE_DIM:
        raise ValueError(f"dim must be at most {MAX_SAMPLE_DIM}, got {dim}")
    bounds = mazur_bounds(pe, qe)
    rng = np.random.default_rng(seed)
    lower_excess = -math.inf
    upper_excess = -math.inf
    const_ratio = 0.0
    batch = max(1, SAMPLE_BATCH_FLOATS // (2 * dim))
    done = 0
    while done < pairs:
        m = min(batch, pairs - done)
        raw = rng.standard_normal((2 * m, dim))
        raw /= _scaled_pnorms(raw, pe.value)[:, None]
        # pair k is rows (2k, 2k+1)
        d_src = _scaled_pnorms(raw[0::2] - raw[1::2], pe.value)
        mapped = mazur_map_rows(raw, pe, qe)
        d_img = _scaled_pnorms(mapped[0::2] - mapped[1::2], qe.value)
        nz = d_src > 0
        d_src, d_img = d_src[nz], d_img[nz]
        lower_excess = max(lower_excess, float((bounds.lower(d_src) - d_img).max()))
        upper_excess = max(upper_excess, float((d_img - bounds.upper(d_src)).max()))
        if pe.value < qe.value:
            const_ratio = max(const_ratio, float((d_img / d_src ** (pe.value / qe.value)).max()))
        elif pe.value > qe.value:
            # over pairs whose image distance is positive, as nz keeps the source's
            ratio = np.divide(d_src, d_img ** (qe.value / pe.value), out=np.zeros_like(d_src), where=d_img > 0)
            const_ratio = max(const_ratio, float(ratio.max()))
        else:
            const_ratio = max(const_ratio, float((d_img / d_src).max()))
        done += m
    return RatioSample(
        p=pe.value,
        q=qe.value,
        dim=dim,
        pairs=pairs,
        seed=seed,
        max_lower_excess=lower_excess,
        max_upper_excess=upper_excess,
        max_constant_ratio=const_ratio,
        constant_c=bounds.constant_c,
    )
