"""Unit-sphere maps from positive-semidefinite kernels, calibrated per level.

A kernel K(x,y) = exp(-t d(x,y)) (laplacian) or exp(-t d(x,y)^2) (gaussian) on
a finite metric space factors as K = U diag(w) U^T, giving unit vectors
v_x = row_x(U sqrt(w)) with <v_x, v_y> = K(x,y), hence

    ||v_x - v_y||_2 = sqrt(2 (1 - K(x,y))).

Level n wants a sphere map into l_p whose image distances are at most 2^-n on
pairs with d <= n, while staying at least delta/2 apart beyond some threshold
S_n. `calibrate_level` finds the largest bandwidth t meeting the closeness
target (measured exactly after Mazur transport of the l_2 factors to l_p) and
then scans the sorted distinct distances of the space for the smallest valid
S_n. Levels whose separation target is out of reach on the bounded space are
marked saturated (S_n = inf); they still contribute blocks downstream, just no
certified separation.

The bandwidth search needs only the sup over close pairs, and it finds that
sup without summing most pairs at full width. `eigh` returns eigenvalues in
ascending order, so the leading image columns carry little row mass, and for
p >= 1

    |a - b|^p <= 2^(p-1) (|a|^p + |b|^p)

bounds what those light columns can add to any pair's p-th-power sum. A pair
is summed at full width only where its heavy-column sum plus that bound
reaches the largest exact sum among the close pairs of largest source
distance. The others cannot hold the maximum, and the pairs that are summed
go through the same kernel as the all-pairs scan, so the sup is that scan's,
bit for bit. All pairs are scanned once per level, on the accepted images,
and not at all where a level accepts the previous level's images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .lp_core import (
    ExponentLike,
    PExponent,
    abs_power,
    as_exponent,
    pair_subset_power_sums,
    pairwise_pnorm_all,
    row_pnorms,
)
from .mazur import mazur_bounds, mazur_map_rows
from .metric_spaces import FiniteMetricSpace

__all__ = [
    "KERNEL_KINDS",
    "NotNegativeType",
    "CalibrationError",
    "SphereMapLevel",
    "SphereMapFamily",
    "kernel_matrix",
    "build_sphere_map",
    "measure_conditions",
    "calibrate_level",
    "build_level_family",
    "verify_family",
]

KERNEL_KINDS = ("gaussian", "laplacian")

# relative eigenvalue floor separating genuine non-PSD kernels from roundoff
EIG_REL_TOL = 1e-8

# bandwidth cap; exp(-t d) underflows to an identity-like kernel long before
T_CAP = 1e8

UNIT_TOL = 1e-9

# Split sup of the close pairs (see _split_close_sup): the light columns may
# add at most this share of the lower bound to any pair
SPLIT_LIGHT_SHARE = 1e-2
# relative slack on both sides of the bound test; the rounding of the partial
# sums, the cumulative row masses and the power kernel stays below 1e-12
BOUND_SLACK = 1e-9


class NotNegativeType(Exception):
    """The kernel matrix is not positive semidefinite beyond roundoff."""


class CalibrationError(Exception):
    """A level's closeness/separation targets cannot be met."""


def _check_kernel_kind(kernel_kind: str) -> str:
    if kernel_kind not in KERNEL_KINDS:
        raise ValueError(f"kernel_kind must be one of {KERNEL_KINDS}, got {kernel_kind!r}")
    return kernel_kind


def kernel_matrix(space: FiniteMetricSpace, t: float, kernel_kind: str) -> np.ndarray:
    _check_kernel_kind(kernel_kind)
    if not (t > 0) or not math.isfinite(t):
        raise ValueError(f"bandwidth t must be positive and finite, got {t!r}")
    if kernel_kind == "gaussian":
        return np.exp(-t * space.dist * space.dist)
    return np.exp(-t * space.dist)


def build_sphere_map(space: FiniteMetricSpace, t: float, kernel_kind: str) -> np.ndarray:
    """Factor the kernel into per-point unit vectors of l_2^{|X|}.

    Returns an (n, n) array whose rows are the images. Eigenvalues in
    [-EIG_REL_TOL * lambda_max, 0) are clipped to zero; anything more negative
    raises NotNegativeType. Rows are renormalized to exact unit length after
    clipping, so the Gram matrix is reproduced entrywise to 1e-8.
    """
    K = kernel_matrix(space, t, kernel_kind)
    w, U = np.linalg.eigh(K)
    lam_max = float(w[-1])
    floor = -EIG_REL_TOL * lam_max
    lam_min = float(w[0])
    if lam_min < floor:
        raise NotNegativeType(
            f"{kernel_kind} kernel at t={t:g} is not of negative type on this space: "
            f"eigenvalue {lam_min:.6e} < {floor:.3e}"
        )
    V = U * np.sqrt(np.clip(w, 0.0, None))
    V /= row_pnorms(V, 2.0)[:, None]
    return V


def measure_conditions(
    images: np.ndarray,
    space: FiniteMetricSpace,
    R: float,
    S: float,
    p: ExponentLike,
) -> tuple:
    """Exact (sup over pairs with d <= R, inf over pairs with d >= S).

    Conventions: sup over an empty pair set is 0, inf over an empty set is
    +inf. The diagonal contributes nothing either way.
    """
    pe = as_exponent(p)
    if space.n < 2:
        return 0.0, math.inf
    ii, jj = space.pair_indices()
    d = space.dist[ii, jj]
    if not ((d <= R).any() or (d >= S).any()):
        return 0.0, math.inf
    return _conditions(pairwise_pnorm_all(images, pe), d, R, S)


def _conditions(pair_d: np.ndarray, d: np.ndarray, R: float, S: float) -> tuple:
    """measure_conditions on pair distances already scanned (condensed order)."""
    close = d <= R
    far = d >= S
    sup_close = float(pair_d[close].max()) if close.any() else 0.0
    inf_far = float(pair_d[far].min()) if far.any() else math.inf
    return sup_close, inf_far


@dataclass(frozen=True, eq=False)
class SphereMapLevel:
    """One calibrated map into S(l_p) with its certified parameters.

    epsilon_n certifies sup{||phi(x)-phi(y)||_p : d(x,y) <= level_n} and s_n
    the threshold from which pairs stay the family's delta/2 apart (vacuous
    when saturated, s_n = inf), both measured on the images after Mazur
    transport. pair_distances is that measurement, kept read-only, over all
    pairs i < j in condensed (np.triu_indices) order; the embedding's
    verification and profile reuse it instead of rescanning. A level read
    back from JSON carries neither array, and neither enters the repr.
    """

    level_n: int
    exponent: PExponent
    epsilon_n: float
    s_n: float
    bandwidth_t: float
    kernel_kind: str
    images: Optional[np.ndarray] = field(default=None, repr=False)
    pair_distances: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def saturated(self) -> bool:
        return math.isinf(self.s_n)


@dataclass(frozen=True, eq=False)
class SphereMapFamily:
    """The level sequence phi_1, phi_2, ... over one space at one exponent and delta."""

    levels: tuple
    exponent: PExponent
    delta: float
    space: FiniteMetricSpace

    def __post_init__(self) -> None:
        if not (math.isfinite(self.delta) and self.delta > 0):
            # a vacuous lower envelope would certify any images
            raise ValueError(f"delta must be finite and positive, got {self.delta!r}")
        if any(level.exponent.value != self.exponent.value for level in self.levels):
            # the family's exponent is the one its pair distances are summed at
            raise ValueError(f"every level must be calibrated at the family's p = {self.exponent.value:g}")


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def _distance_ceiling(p: PExponent) -> float:
    """Guaranteed-reachable separation at l_p for kernel images.

    l_2 factor distances approach sqrt(2) as the kernel decays; transporting
    through the Mazur lower envelope rescales that ceiling.
    """
    return float(mazur_bounds(2.0, p).lower(math.sqrt(2.0)))


def _transported_images(space: FiniteMetricSpace, t: float, kernel_kind: str, p: PExponent) -> np.ndarray:
    V = build_sphere_map(space, t, kernel_kind)
    if p.value == 2.0:
        return V
    return mazur_map_rows(V, 2.0, p)


def _split_close_sup(
    images: np.ndarray, p: PExponent, ci: np.ndarray, cj: np.ndarray, top: int
) -> float:
    """Exact max of ||images[i] - images[j]||_p over the pairs (ci, cj).

    The pairs come in ascending source distance. The last `top` of them are
    summed at full width, and their largest power sum is a lower bound L on
    the sup. The columns come in ascending eigenvalue order, so row i's mass
    c_i = sum_{k<k0} |a_ik|^p in the leading (light) columns is small; with
    |a-b|^p <= 2^(p-1)(|a|^p + |b|^p) for p >= 1, a pair's power sum is at most
    its sum over the heavy columns k >= k0 plus 2^(p-1)(c_i + c_j). Only pairs
    whose bound reaches L are summed at full width, with the same kernel as
    the all-pairs scan, so the max is that scan's max bit for bit.
    """
    pv = p.value
    top_sums = pair_subset_power_sums(images, ci[-top:], cj[-top:], pv)
    low = float(top_sums.max())
    mass = np.cumsum(abs_power(images, pv), axis=1)
    # k0 = the most leading columns that add at most SPLIT_LIGHT_SHARE * L to
    # any pair, as 2^(p-1)(c_i + c_j) <= 2^p max_i c_i; that max grows with k
    k0 = int(np.searchsorted(2.0 ** pv * mass.max(axis=0), SPLIT_LIGHT_SHARE * low, side="right"))
    ri, rj = ci[:-top], cj[:-top]
    sums = pair_subset_power_sums(images[:, k0:], ri, rj, pv)
    if k0:
        # partial sums: rescan at full width the pairs whose bound reaches L
        light = 2.0 ** (pv - 1.0) * mass[:, k0 - 1]
        bound = (sums + light[ri] + light[rj]) * (1.0 + BOUND_SLACK)
        hit = np.nonzero(bound >= low * (1.0 - BOUND_SLACK))[0]
        sums = pair_subset_power_sums(images, ri[hit], rj[hit], pv)
    sums = np.concatenate([top_sums, sums])
    # the conversion of pairwise_pnorm_all, so each distance has its bits
    return float((sums if pv == 1.0 else sums ** (1.0 / pv)).max())


def _feasible_start(
    eps: float, p: PExponent, d_max_close: float, kernel_kind: str
) -> float:
    """Bandwidth guaranteed to meet the closeness target via the envelopes.

    At l_2 the largest close-pair image distance is s(t) = sqrt(2(1 - K(t, d)))
    at the largest close source distance d (the kernel is monotone). Pushing s
    through the Mazur upper envelope and solving for t gives a start point that
    cannot overshoot; the search then only has to grow t.
    """
    if p.value > 2.0:
        b = mazur_bounds(2.0, p)
        s_target = (eps / b.constant_c) ** (p.value / 2.0)
    else:
        s_target = p.value * eps / 2.0
    if s_target * s_target >= 2.0:
        return T_CAP
    g = d_max_close * d_max_close if kernel_kind == "gaussian" else d_max_close
    return min(T_CAP, -math.log1p(-s_target * s_target / 2.0) / g)


def _same_kernel(kernel: np.ndarray, earlier: np.ndarray) -> bool:
    """Whether `kernel` equals `earlier` bit for bit.

    A level's images are a function of its kernel matrix alone, so a kernel
    equal to one already measured has that one's images, pair distances and
    close-pair sup, bit for bit.
    """
    return np.array_equal(kernel.view(np.uint64), earlier.view(np.uint64))


def _separation_threshold(
    d_sorted: np.ndarray, pair_d_sorted: np.ndarray, delta_half: float, s_floor: float
) -> float:
    """Smallest distinct distance above s_floor beyond which every pair stays delta/2 apart.

    Both arrays are in ascending source distance. The suffix infimum is
    monotone in the threshold; +inf where no distance qualifies (saturated).
    """
    if not d_sorted.size:
        return math.inf
    suffix_inf = np.minimum.accumulate(pair_d_sorted[::-1])[::-1]
    starts = np.nonzero(np.r_[True, d_sorted[1:] != d_sorted[:-1]])[0]
    ok = (d_sorted[starts] > s_floor) & (suffix_inf[starts] >= delta_half)
    first = int(np.argmax(ok))
    return float(d_sorted[starts[first]]) if ok[first] else math.inf


def calibrate_level(
    space: FiniteMetricSpace,
    n: int,
    p_target: ExponentLike,
    delta: float,
    kernel_kind: str,
    *,
    previous: Optional[SphereMapLevel] = None,
    s_floor: float = 0.0,
) -> SphereMapLevel:
    """Calibrate level n: largest bandwidth meeting sup_{d<=n} <= 2^-n, then S_n.

    The closeness certificate is the exactly measured post-transport sup, not
    the envelope bound. previous (level n-1 of this space, exponent and
    kernel) and s_floor (exclusive lower bound on S_n, for strictly
    increasing schedules) are search accelerators for family construction:
    previous.bandwidth_t caps the search, since later levels have tighter
    targets over larger radii.

    No kernel is factored twice. Each bandwidth tried computes its kernel
    matrix first; where that matrix equals, bit for bit, the previous level's
    accepted kernel or the one this level factored last, the images and sup
    measured for it are reused (for the previous level's, the sup is the max
    of its pair distances over this level's close pairs).
    The images are a function of the kernel matrix alone, so the reused
    results are those a new factorization would give, bit for bit. This is
    common where t*d falls below float64 resolution and exp(-t d) is 1.0
    everywhere, so that halving t leaves the kernel unchanged.

    Each bandwidth that is factored measures that sup exactly but sums only
    the close pairs that can hold it at full width (see _split_close_sup): a
    pair's power sum exceeds its sum over the heavy columns by at most
    2^(p-1)(c_i + c_j), the light-column masses of its two rows, so a pair
    whose bound stays under an exact lower bound L of the sup cannot be the
    maximum. A relative slack of 1e-9 on both sides of that test covers the
    rounding of the bound, which is far below it. The search path is
    therefore the one an all-pairs scan per bandwidth gives. All pairs are
    scanned once, on the accepted images, for S_n and pair_distances; a level
    that accepts the previous level's images takes its pair distances.
    """
    p = as_exponent(p_target)
    _check_kernel_kind(kernel_kind)
    if n < 1:
        raise ValueError(f"level index must be >= 1, got {n}")
    if not (delta > 0):
        raise ValueError(f"delta must be positive, got {delta!r}")
    if previous is not None and (
        previous.pair_distances is None
        or previous.exponent.value != p.value
        or previous.kernel_kind != kernel_kind
        or previous.pair_distances.shape != (space.n * (space.n - 1) // 2,)
    ):
        raise ValueError("previous level must carry its images and come from the same space, exponent and kernel")
    ceiling = _distance_ceiling(p)
    if delta / 2.0 > ceiling:
        raise CalibrationError(
            f"separation target delta/2 = {delta / 2.0:g} exceeds the reachable "
            f"ceiling {ceiling:g} at p = {p.value:g}"
        )

    eps = 2.0 ** (-n)
    ii, jj = space.pair_indices()
    d_pairs = space.dist[ii, jj]
    close = d_pairs <= n
    # pairs in ascending source distance; the close pairs are a prefix
    order = np.argsort(d_pairs, kind="stable")
    close_order = order[: int(np.count_nonzero(close))]
    ci, cj = ii[close_order], jj[close_order]

    # (kernel, (sup, images)) already measured: the previous level's accepted
    # kernel, then the one this level factored last
    measured = []
    if previous is not None:
        prev_sup = float(previous.pair_distances[close].max()) if ci.size else 0.0
        measured.append((
            kernel_matrix(space, previous.bandwidth_t, kernel_kind),
            (prev_sup, previous.images),
        ))
    last = len(measured)

    def evaluate(t: float) -> tuple:
        K = kernel_matrix(space, t, kernel_kind)
        for kernel, result in measured:
            if _same_kernel(K, kernel):
                return result
        images = _transported_images(space, t, kernel_kind, p)
        sup = _split_close_sup(images, p, ci, cj, min(space.n, ci.size)) if ci.size else 0.0
        measured[last:] = [(K, (sup, images))]
        return sup, images

    t_cap = min(previous.bandwidth_t, T_CAP) if previous is not None else T_CAP
    # with no close pair there is no closeness constraint at this radius: the
    # cap maxes out the separation, and the loops below leave it in place
    t_best = t_cap
    if ci.size:
        t_best = min(_feasible_start(eps, p, float(d_pairs[close].max()), kernel_kind), t_cap)
    sup_best, images = evaluate(t_best)
    shrinks = 0
    while sup_best > eps:
        # the envelope start is feasible in exact arithmetic; retreat covers
        # the pathological remainder
        t_best /= 2.0
        shrinks += 1
        if shrinks > 200:
            raise CalibrationError(
                f"cannot meet the 2^-{n} closeness target at any bandwidth "
                f"(space min distance {float(d_pairs.min()):g})"
            )
        sup_best, images = evaluate(t_best)

    # grow toward the largest feasible bandwidth, then sharpen by log-log
    # interpolation on sup(t); every accepted t is exactly verified
    t_bad = None
    sup_bad = None
    while t_bad is None and t_best < t_cap:
        t_try = min(t_best * 8.0, t_cap)
        sup_try, img_try = evaluate(t_try)
        if sup_try <= eps:
            t_best, sup_best, images = t_try, sup_try, img_try
        else:
            t_bad, sup_bad = t_try, sup_try
    if t_bad is not None:
        for _ in range(12):
            if sup_best >= 0.9 * eps or t_bad / t_best <= 1.01:
                break
            if sup_best > 0.0:
                frac = (math.log(0.999 * eps) - math.log(sup_best)) / (
                    math.log(sup_bad) - math.log(sup_best)
                )
                t_try = t_best * (t_bad / t_best) ** min(max(frac, 0.05), 0.95)
            else:
                t_try = math.sqrt(t_best * t_bad)
            sup_try, img_try = evaluate(t_try)
            if sup_try <= eps:
                t_best, sup_best, images = t_try, sup_try, img_try
            else:
                t_bad, sup_bad = t_try, sup_try

    if previous is not None and images is previous.images:
        all_img = previous.pair_distances
    else:
        # the search measured only close-pair sups; one scan of the accepted images
        all_img = pairwise_pnorm_all(images, p)
    s_n = _separation_threshold(d_pairs[order], all_img[order], delta / 2.0, s_floor)

    all_img.setflags(write=False)
    return SphereMapLevel(
        level_n=n,
        exponent=p,
        epsilon_n=sup_best,
        s_n=s_n,
        bandwidth_t=t_best,
        kernel_kind=kernel_kind,
        images=images,
        pair_distances=all_img,
    )


def build_level_family(
    space: FiniteMetricSpace,
    level_count: int,
    p_target: ExponentLike,
    delta: float,
    kernel_kind: str,
) -> SphereMapFamily:
    """Calibrate levels 1..level_count with strictly increasing S_n.

    Later levels have tighter closeness targets over larger radii, so each
    level's bandwidth brackets the next one's search; saturated levels keep
    their blocks but add no separation threshold.
    """
    p = as_exponent(p_target)
    levels = []
    s_floor = 0.0
    for n in range(1, level_count + 1):
        level = calibrate_level(
            space, n, p, delta, kernel_kind,
            previous=levels[-1] if levels else None, s_floor=s_floor,
        )
        levels.append(level)
        if not level.saturated:
            s_floor = level.s_n
    return SphereMapFamily(levels=tuple(levels), exponent=p, delta=delta, space=space)


def verify_family(family: SphereMapFamily) -> list:
    """Re-measure every certificate and epsilon_n <= 2^-n; returns human-readable violations.

    Each level's pairs are scanned once; the sup, the inf and the largest
    image distance all come from that scan. A family read back from JSON has
    no images to measure: ValueError.
    """
    if any(level.images is None for level in family.levels):
        raise ValueError("family levels carry no images to verify (read back from JSON?)")
    delta_half = family.delta / 2.0
    problems: list = []
    prev_s = 0.0
    ii, jj = family.space.pair_indices()
    d = family.space.dist[ii, jj]
    for level in family.levels:
        norms = row_pnorms(level.images, level.exponent)
        worst = float(np.abs(norms - 1.0).max())
        if worst > UNIT_TOL:
            problems.append(f"level {level.level_n}: image off unit sphere by {worst:.3e}")
        pair_d = pairwise_pnorm_all(level.images, level.exponent)
        sup_close, inf_far = _conditions(pair_d, d, level.level_n, level.s_n)
        if sup_close > level.epsilon_n:
            problems.append(
                f"level {level.level_n}: measured sup {sup_close!r} exceeds certificate {level.epsilon_n!r}"
            )
        if inf_far < delta_half:
            problems.append(
                f"level {level.level_n}: measured inf {inf_far!r} below certificate {delta_half!r}"
            )
        if level.epsilon_n > 2.0 ** (-level.level_n):
            problems.append(
                f"level {level.level_n}: epsilon {level.epsilon_n!r} above 2^-{level.level_n}"
            )
        if not level.saturated:
            if level.s_n <= prev_s:
                problems.append(
                    f"level {level.level_n}: S_n {level.s_n!r} not above previous {prev_s!r}"
                )
            prev_s = level.s_n
        if pair_d.size:
            max_pair = float(pair_d.max())
            if max_pair > 2.0 + 1e-9:
                problems.append(f"level {level.level_n}: image distance {max_pair!r} above 2")
    return problems
