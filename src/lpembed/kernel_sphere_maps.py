"""Unit-sphere maps from positive-semidefinite kernels, calibrated per level.

A kernel K(x,y) = exp(-t d(x,y)^beta) on a finite metric space factors as
K = U diag(w) U^T, giving unit vectors v_x = row_x(U sqrt(w)) with
<v_x, v_y> = K(x,y), hence

    ||v_x - v_y||_2 = sqrt(2 (1 - K(x,y))).

The kernel follows from the distances. By Schoenberg's theorem,
exp(-t d^beta) is positive semidefinite at every t exactly when d^beta is of
negative type, so a build takes beta = 2 where d^2 is, else beta = 1 where d
is, and refuses a space where neither is (NotNegativeType) before it factors
any kernel.

Only the r eigenpairs above eigh's backward error n * eps * lambda_max are
kept, so each level's images are (n, r), r the kernel's numerical rank, and
the Mazur map, the pair scans and the JSON blocks all work at that width.
Where t * d^beta falls below float64 resolution, K is all-ones plus noise and
factors to one column: the constant map, which meets any closeness target
exactly.

Calibration keeps within float64's resolution by one bound: the factor
reproduces each Gram entry to within 2 n^2 eps (eigh's backward error and
the dropped eigenpairs, lambda_max <= n), against 1 - K ~ t g at a close pair
(g = d^beta). Below that floor at every close pair, a level takes the
constant map with no factorization; the envelope start aims under the target
by the same error relative to 1 - K; and a try
whose kernel entry at the largest close pair is below 2^-53 is known
infeasible without a factorization (the identity end).

Level n wants a sphere map into l_p whose image distances are at most 2^-n on
pairs with d <= n, while staying at least delta/2 apart beyond some threshold
S_n. `calibrate_level` finds the largest bandwidth t meeting the closeness
target (measured exactly after Mazur transport of the l_2 factors to l_p);
S_n is then the smallest source distance above s_floor and above every pair
the images leave closer than delta/2. Levels with no such distance are
marked saturated (S_n = inf) and add nothing to rho1. Where the distances
alone show that a level cannot separate any pair beyond s_floor (the
separation end: s_floor is past the diameter, every pair is close under a
target below delta/2, or, at any p, the Mazur envelopes keep the farthest
pair under delta/2 at the largest bandwidth the closeness target admits),
a level that does not accept its cap takes the constant map unfactored,
before any try, and every later level accepts it free. Once a level
leaves every pair at distance 0, every later level is that level, with no
search and nothing added to the sums. The S_n schedule, and so rho1 and
rho2, are those the search would give, and each level before the first
constant one keeps its bits. The constant map is one column of ones at a t
where the kernel is all-ones in float64, but for a largest d^beta past
about 2^1019, where t is 2^-1074 and the kernel is not quite all-ones.

Every level runs one bandwidth search over one bracket: good, the largest
feasible bandwidth measured, and bad, the smallest infeasible one. The
previous level's bandwidth caps it (level 1's cap is T_CAP), and the max of
its pair distances over this level's close pairs is the sup there, free: a
cap that meets 2^-n is accepted with the previous level's images and pair
distances and no factorization, and one that misses is bad. The next try is:

- without good, the model step t (0.95 2^-n / sup)^p from bad, or the
  envelope start where nothing is measured (the model is sup ~ t^(1/p): the
  l_2 sup grows like sqrt(t d) at small t, and the Mazur map raises it to
  the power 2/p). The first try is never below the envelope start, and from
  the third on each try is at most half of bad's t;
- without bad, the model step from good, up to the cap, or the cap where
  good's sup is 0;
- with both, log-log interpolation on sup(t) aimed at 0.999 2^-n, kept
  within 5-95% of the bracket's log width, or the bracket's geometric
  midpoint where good's sup is 0.

Before each try the search stops once good's sup is at least 0.9 2^-n,
good's t is the cap, bad's t / good's t <= 1.01, or 12 tries have followed
the first feasible one; each accepted t is measured exactly. Tries outside
float64's resolution are not factored:

- Floor: a try whose t g at the largest close pair is under the Gram error
  resolves no close pair. The level takes the constant map instead: one
  column of ones, sup 0, every pair distance 0, saturated, at
  min(cap, 2^-55 / g_max), g_max over all pairs, where the kernel is
  all-ones in float64, so its images are the factor of its kernel and later
  levels accept that bandwidth free at their cap (past g_max ~ 2^1019 no
  positive t makes the kernel all-ones, and t is 2^-1074, the least
  positive float64). Since the shrinks halve t from the third on, every
  level ends at a feasible try, at this floor or at the separation end.
- Identity end: a try with t g > 53 ln 2 puts K at that pair below 2^-53,
  so its l_2 images are sqrt(2) apart and, through the Mazur lower
  envelope, at least the ceiling > 1/2 >= 2^-n apart in l_p. It counts as a
  try and sets bad to (53 ln 2 / g, the ceiling) unfactored.

The bandwidth search needs only the sup over close pairs (d <= n), a set
that grows with n until it holds every pair, so each try builds its kernel
once and is measured one way: its close pairs are gathered and summed at
full width (where every pair is close, through the build's own pair index
arrays), and the accepted images are scanned once for the level's pair
distances. The gather and the all-pairs scan are one pair kernel, so the
sup has that scan's bits, and the search path is the one an all-pairs scan
per try gives. No images are scanned twice, and a level that accepts the
previous level's images scans nothing. A build holds no level's pair
distances but the latest one's, which the next level's search reads, and
the embedding's pair power sums; a try holds none.
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
    pth_root,
    row_pnorms,
)
from .mazur import mazur_bounds, mazur_map_rows
from .metric_spaces import FiniteMetricSpace

__all__ = [
    "NotNegativeType",
    "CalibrationError",
    "SphereMapLevel",
    "measure_conditions",
]

_BETAS = (2.0, 1.0)  # the exponents of the kernel exp(-t d^beta), in the order a build tries them

# relative eigenvalue floor separating genuine non-PSD kernels from roundoff
EIG_REL_TOL = 1e-8

# bandwidth cap; exp(-t d) underflows to an identity-like kernel long before
T_CAP = 1e8

# float64 machine epsilon, the unit of every resolution bound below
EPS64 = float(np.finfo(np.float64).eps)
# exp(-x) < 2^-53 beyond this: a kernel entry below float64 resolution beside
# the diagonal's 1.0, as from an identity kernel
IDENTITY_EXPONENT = 53.0 * math.log(2.0)
# exp(-x) is 1.0 in float64 up to x = 2^-55, a quarter of the ulp below 1.0,
# which leaves room for the rounding of t * g and of exp
ALL_ONES_EXPONENT = 2.0 ** -55


class NotNegativeType(Exception):
    """The distances are not of negative type, or a kernel matrix not positive semidefinite, beyond roundoff."""


class CalibrationError(Exception):
    """A level's closeness/separation targets cannot be met."""


def kernel_matrix(space: FiniteMetricSpace, t: float, beta: float) -> np.ndarray:
    # -t d^beta as (-t d), times d once more at beta = 2, in place: pow's d^2
    # differs from d d in the last bit on some entries; _kernel_g forms g alike.
    # It overflows to -inf past float64's maximum (from d ~ 1.8e300 on at
    # t = T_CAP), where exp(-inf) = 0 is the kernel entry
    with np.errstate(over="ignore"):
        exponent = -t * space.dist
        if beta == 2.0:
            exponent *= space.dist
    return np.exp(exponent, out=exponent)


def _negative_type_gram(dist: np.ndarray, beta: float) -> np.ndarray:
    """G_ij = (F_i0 + F_j0 - F_ij) / 2 over the points i, j >= 1, with F = d^beta.

    d^beta is of negative type exactly when G is positive semidefinite. F is
    halved before the sums, so G is finite wherever F is; d^2 overflows to
    inf from d ~ 1.3e154 on, and then G holds inf and NaN.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        half = dist ** beta
        half *= 0.5
        gram = half[1:, :1] + half[:1, 1:]
        gram -= half[1:, 1:]
    return gram


def _admits(dist: np.ndarray, beta: float) -> bool:
    """Whether d^beta is of negative type beyond roundoff.

    The test is a Cholesky of G + EIG_REL_TOL * trace(G) / (n - 1) I, G as in
    _negative_type_gram; a G that is not finite admits nothing, since its
    kernel is not finite either. The trace is summed on G scaled by 2^-k,
    k the exponent of G's largest diagonal entry, and the shift scaled back:
    the scaling is exact, so the shift is finite wherever G is, and keeps
    the unscaled sum's bits wherever that gave a finite normal number.
    """
    gram = _negative_type_gram(dist, beta)
    if not gram.size:
        return True
    diagonal = gram.diagonal()
    k = math.frexp(float(diagonal.max()))[1]  # 0 at inf and NaN, which the finiteness test refuses
    with np.errstate(over="ignore", invalid="ignore"):
        shift = math.ldexp(EIG_REL_TOL * np.ldexp(diagonal, -k).sum() / len(gram), k)
        gram[np.diag_indices_from(gram)] += shift
    if not np.isfinite(gram).all():
        return False
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def _kernel_for(space: FiniteMetricSpace) -> float:
    """The beta of the kernel exp(-t d^beta) that is positive semidefinite at every t on this space.

    By Schoenberg's theorem that holds exactly when d^beta is of negative
    type: beta = 2 where d^2 is, else beta = 1 where d is. Where neither is,
    raises NotNegativeType with the smallest eigenvalue of beta = 1's G as
    the witness, before any kernel is factored.
    """
    for beta in _BETAS:
        if _admits(space.dist, beta):
            return beta
    lam_min = float(np.linalg.eigvalsh(_negative_type_gram(space.dist, 1.0))[0])
    raise NotNegativeType(
        f"the distances are not of negative type (beta = 1), so no kernel exp(-t d^beta) with "
        f"beta >= 1 is positive semidefinite at every t: G = (d_i0 + d_j0 - d_ij) / 2 has "
        f"eigenvalue {lam_min:.6e}"
    )


def build_sphere_map(space: FiniteMetricSpace, t: float, beta: float) -> np.ndarray:
    """Factor the kernel into per-point unit vectors of l_2^r, r its numerical rank.

    Returns an (n, r) array whose rows are the images: one column per
    eigenvalue above the floor n * eps * lambda_max (eps the float64 machine
    epsilon), which is the backward error of `eigh`, so the eigenvalues at or
    below it carry no information about K. An eigenvalue below
    -EIG_REL_TOL * lambda_max raises NotNegativeType. The dropped eigenpairs
    together move each Gram entry by at most the largest dropped
    |eigenvalue|, at most max(n * eps, EIG_REL_TOL) * lambda_max; with the
    rows renormalized to exact unit length, the Gram matrix is reproduced
    entrywise to 1e-8. A kernel below the floor everywhere but its top
    eigenvalue (t * d^beta under float64 resolution, K = 1.0) factors to one
    column and the constant map.
    """
    K = kernel_matrix(space, t, beta)
    w, U = np.linalg.eigh(K)
    lam_max = float(w[-1])
    floor = -EIG_REL_TOL * lam_max
    lam_min = float(w[0])
    if lam_min < floor:
        raise NotNegativeType(
            f"kernel exp(-t d^{beta:g}) at t={t:g} is not of negative type on this space: "
            f"eigenvalue {lam_min:.6e} < {floor:.3e}"
        )
    # eigh returns w ascending, so the kept eigenpairs are its last r
    first = int(np.searchsorted(w, space.n * EPS64 * lam_max, side="right"))
    V = U[:, first:] * np.sqrt(w[first:])
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
    ii, jj = space.pair_indices()
    pair_d, d = pairwise_pnorm_all(images, p), space.dist[ii, jj]
    # empty sets give 0 and +inf; distances are >= 0, so initial=0 moves no max
    sup_close = float(pair_d.max(where=d <= R, initial=0.0))
    return sup_close, float(pair_d.min(where=d >= S, initial=math.inf))


@dataclass(frozen=True, eq=False)
class SphereMapLevel:
    """What one level's search measured: its images in S(l_p), one row per point, and certified parameters.

    Its number n (its position in the schedule), p and kernel exp(-t d^beta)
    are the embedding's. epsilon_n (finite, >= 0) certifies
    sup{||phi(x)-phi(y)||_p : d(x,y) <= n} and s_n the threshold from which
    pairs stay the embedding's delta/2 apart (vacuous when saturated,
    s_n = inf), both measured on the images after Mazur transport;
    bandwidth_t, finite and > 0, is the t they factor. images, a finite
    (points, width) array, is required, built or read back from JSON, and
    does not enter the repr. The level keeps no pair distances: the
    embedding holds the sum of their p-th powers over its levels.
    """

    epsilon_n: float
    s_n: float
    bandwidth_t: float
    images: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon_n) and self.epsilon_n >= 0):
            raise ValueError(f"eps must be finite and nonnegative, got {self.epsilon_n!r}")
        if not (math.isfinite(self.bandwidth_t) and self.bandwidth_t > 0):
            raise ValueError(f"t must be finite and positive, got {self.bandwidth_t!r}")
        if np.ndim(self.images) != 2:  # None has ndim 0
            raise ValueError("images must be a (points, width) array")
        if not np.isfinite(self.images).all():
            # a NaN image makes NaN distances, which pass every certificate comparison
            raise ValueError("images must be finite (no NaN/inf)")

    @property
    def saturated(self) -> bool:
        return math.isinf(self.s_n)


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def _distance_ceiling(p: PExponent) -> float:
    """Guaranteed-reachable separation at l_p for kernel images.

    l_2 factor distances approach sqrt(2) as the kernel decays; transporting
    through the Mazur lower envelope rescales that ceiling.
    """
    return float(mazur_bounds(2.0, p).lower(math.sqrt(2.0)))


def _gram_error(n_points: int) -> float:
    """Bound on |(V V^T - K)_xy| for build_sphere_map's factor V of an n-point kernel.

    eigh's backward error n * eps * lambda_max, and as much again for the
    eigenpairs dropped at or below it (they move an entry by at most the
    largest dropped |eigenvalue|), with lambda_max <= trace K = n. A kernel
    with an eigenvalue between -EIG_REL_TOL * lambda_max and
    -n * eps * lambda_max, which build_sphere_map admits, can exceed it;
    calibration uses the bound to aim and to cut short its search, and the
    separation end's proof takes it as its slack (see _separates_nothing);
    every level that is searched is measured.
    """
    return 2.0 * n_points * n_points * EPS64


def _kernel_g(d: float, beta: float) -> float:
    """The g = d^beta of K = exp(-t g) at source distance d, as kernel_matrix forms it: d d at beta = 2."""
    return d * d if beta == 2.0 else d


def _transported_images(space: FiniteMetricSpace, t: float, beta: float, p: PExponent) -> np.ndarray:
    V = build_sphere_map(space, t, beta)
    if p.value == 2.0:
        return V
    return mazur_map_rows(V, 2.0, p)


def _close_pair_sup(images: np.ndarray, p: PExponent, ci: np.ndarray, cj: np.ndarray) -> float:
    """Exact max of ||images[i] - images[j]||_p over the pairs (ci, cj).

    Every pair is summed at full width with the all-pairs scan's kernel and
    converted as pairwise_pnorm_all converts, so each distance has that
    scan's bits, and so does the max.
    """
    return float(pth_root(pair_subset_power_sums(images, ci, cj, p.value), p.value).max())


def _l2_target(eps: float, p: PExponent) -> float:
    """The l_2 image distance whose Mazur upper envelope at p is eps."""
    if p.value > 2.0:
        return (eps / mazur_bounds(2.0, p).constant_c) ** (p.value / 2.0)
    return p.value * eps / 2.0


def _feasible_start(eps: float, p: PExponent, g_close: float, gram_error: float) -> float:
    """Bandwidth guaranteed to meet the closeness target via the envelopes.

    At l_2 the largest close-pair image distance is s(t) = sqrt(2(1 - K)) at
    the largest close g = d^beta, where the kernel
    is smallest. Pushing s through the Mazur upper envelope and solving for t
    gives a start point that cannot overshoot.

    At p = 2 the envelope is the identity and that t is the exact optimum, so
    the measured sup lands on the target up to the factorization's error and
    can round above it (cycle(8), level 1: 0.5000000000000006). The images
    reproduce each Gram entry to within gram_error (see _gram_error), against
    1 - K = s^2 / 2 at that pair: the squared sup is off by at most that
    ratio relative, and the sup by half of it. So the start aims
    max(1e-9, gram_error / (1 - K)) under the target: 1e-9 at level 1 of a
    small space, but 1.4e-4 at path(48)'s level 13 at p = 2, where
    1 - K = 7.5e-9. Where that ratio reaches 1, the start is 0, below the
    floor; so it is where s * s = (eps / C)^p underflows to 0, about
    2^-((n + 1) p) at eps = 2^-n (at p = 200, from level 5 on).

    The l_2 target s is at most 1/2, since eps = 2^-n <= 1/2: it is p eps / 2
    for p <= 2, and (eps / C)^(p/2) with C >= 1 for p > 2. So 1 - s^2 / 2 is
    at least 7/8, and the start is finite.
    """
    s = _l2_target(eps, p)
    if s * s <= 2.0 * gram_error:
        # the target is within the Gram error, or s * s underflows to 0 (at
        # large p): no factor resolves it
        return 0.0
    margin = max(1e-9, 2.0 * gram_error / (s * s))
    s = _l2_target(eps * (1.0 - margin), p)
    return min(T_CAP, -math.log1p(-s * s / 2.0) / g_close)


def _model_step(t: float, sup: float, eps: float, p: PExponent) -> float:
    """Bandwidth where sup(t) would reach 0.95 eps, from one infeasible measurement.

    The model is sup ~ t^(1/p): at small t the l_2 sup grows like sqrt(t d),
    and the Mazur map raises it to the power 2/p. It only aims the next try;
    that try is measured exactly.
    """
    return t * (0.95 * eps / sup) ** p.value


def _constant_map(n_points: int, pair_count: int, g_max: float, t_cap: float) -> tuple:
    """The constant map as a level's ((t, sup, images), pair distances).

    One column of ones, sup 0 and every pair distance 0, at min(cap,
    2^-55 / g_max), g_max over all pairs, where the kernel is all-ones in
    float64: its images are the factor of its kernel, and every later level
    accepts that bandwidth free at its cap. Past g_max ~ 2^1019 that t is
    below the least positive float64, 2^-1074, and no positive t makes the
    kernel all-ones; t is then 2^-1074, since a level's t must be positive.
    """
    t = max(math.ulp(0.0), min(t_cap, ALL_ONES_EXPONENT / g_max)) if g_max > 0.0 else t_cap
    return (t, 0.0, np.ones((n_points, 1))), np.zeros(pair_count)


def _l2_bound(eps: float, p: PExponent) -> float:
    """The largest l_2 image distance whose Mazur lower envelope at p is at most eps: eps at p = 2."""
    if p.value > 2.0:
        return p.value * eps / 2.0
    if p.value < 2.0:
        return mazur_bounds(2.0, p).constant_c * eps ** (p.value / 2.0)
    return eps


def _separates_nothing(
    p: PExponent,
    eps: float,
    delta_half: float,
    s_floor: float,
    all_close: bool,
    d_max: float,
    g_close: Optional[float],
    g_far: float,
    t_cap: float,
    gram_error: float,
) -> bool:
    """Whether, from the distances alone, no image this level accepts leaves a pair beyond s_floor delta/2 apart.

    (a) s_floor >= diam: there is no pair beyond s_floor. (b) Every pair is
    close and 2^-n < delta/2: the closeness target itself keeps every pair
    under delta/2. (c) The Mazur envelopes L <= ||M(x) - M(y)||_p <= U of
    mazur_bounds(2, p), at l_2 distance d: an accepted l_p sup of at most
    eps = 2^-n at the largest close pair g_close (g = d^beta) puts that
    pair's l_2 distance at most s = L^-1(eps) (eps at p = 2, C eps^(p/2)
    below 2, p eps / 2 above), so 1 - exp(-t g_close) is at most
    s^2 / 2 + gram_error, and t at most -log1p(-(s^2 / 2 + gram_error)) /
    g_close; where s^2 / 2 + gram_error >= 1 that bounds nothing, and (c)
    does not decide. The cap bounds t too, and every later level's t is at
    most this one's. At that t, every pair's l_2 distance is at most
    f = sqrt(2 (1 - exp(-t g_far)) + 2 gram_error), g_far the farthest
    pair's, and its l_p distance at most U(f); under delta/2, no pair ends
    delta/2 apart, at this level or a later one. At p = 2 both envelopes are
    the identity and s is eps, bit for bit.

    The proof's slack is the factor's: Gram entries within gram_error of
    the kernel (see _gram_error), and rows at exact unit length before the
    Mazur map, which the envelopes assume; build_sphere_map and
    mazur_map_rows renormalize each row to rounding.
    """
    if s_floor >= d_max or (all_close and eps < delta_half):
        return True
    t = t_cap
    if g_close is not None:
        s = _l2_bound(eps, p)
        gap = s * s / 2.0 + gram_error
        if gap >= 1.0:
            return False
        t = min(t_cap, -math.log1p(-gap) / g_close)
    far = math.sqrt(-2.0 * math.expm1(-t * g_far) + 2.0 * gram_error)
    return mazur_bounds(2.0, p).upper(far) < delta_half


def _separation_threshold(
    d_pairs: np.ndarray, pair_d: np.ndarray, delta_half: float, s_floor: float
) -> float:
    """Smallest source distance above s_floor beyond which every pair stays delta/2 apart.

    The arrays hold each pair's source and image distance, in any one order.
    S_n is the smallest distance above s_floor and above every pair left
    closer than delta/2; +inf where there is none (saturated).
    """
    floor = d_pairs.max(where=pair_d < delta_half, initial=s_floor)
    return float(d_pairs.min(where=d_pairs > floor, initial=math.inf))


def _pair_layout(space: FiniteMetricSpace) -> tuple:
    """(ii, jj, d): every pair i < j in condensed order, with its source distance."""
    ii, jj = space.pair_indices()
    return ii, jj, space.dist[ii, jj]


def calibrate_level(
    space: FiniteMetricSpace,
    n: int,
    p_target: ExponentLike,
    delta: float,
    beta: float,
    *,
    previous: Optional[tuple] = None,
    s_floor: float = 0.0,
    _pairs: Optional[tuple] = None,
) -> tuple:
    """Calibrate level n: largest bandwidth meeting sup_{d<=n} <= 2^-n, then S_n.

    Returns (level, pair distances): the SphereMapLevel and its images'
    l_p distance over every pair i < j in condensed (np.triu_indices)
    order, read-only. The closeness certificate is the exactly measured
    post-transport sup, not the envelope bound. previous, level n-1's
    (level, pair distances), caps the search at its bandwidth, since later
    levels have tighter targets over larger radii, and its distances give
    the sup at that cap; level 1's cap is T_CAP. s_floor is an exclusive
    lower bound on S_n, for strictly increasing schedules. The search, its
    stopping rule and its ends are described in the module docstring.

    The inputs are build_level_family's and are not checked again: n >= 1,
    beta in _BETAS, delta finite and positive with delta/2 within reach at
    p, and previous made by the same build, at this p and beta, which a
    level does not record. _pairs is internal: build_level_family lays out
    the pairs and their source distances once and passes them to every
    level.
    """
    p = as_exponent(p_target)
    ceiling = _distance_ceiling(p)
    eps = 2.0 ** (-n)
    ii, jj, d_pairs = _pair_layout(space) if _pairs is None else _pairs
    close = d_pairs <= n
    close_count = int(np.count_nonzero(close))
    # where every pair is close, the layout's own index arrays
    ci, cj = (ii, jj) if close_count == d_pairs.size else (ii[close], jj[close])

    t_cap = T_CAP if previous is None else previous[0].bandwidth_t
    # with no close pair there is no closeness constraint at this radius, and
    # the cap maxes out the separation
    start = t_cap
    # float64 resolution at the largest close g: below t_floor, 1 - K ~ t g
    # is within the Gram error at every close pair, and from t_identity on,
    # K at that pair is below 2^-53
    t_floor, t_identity = 0.0, math.inf
    g_close, gram_error = None, _gram_error(space.n)
    if close_count:
        g_close = _kernel_g(float(d_pairs[close].max()), beta)
        start = min(_feasible_start(eps, p, g_close, gram_error), t_cap)
        t_floor, t_identity = gram_error / g_close, IDENTITY_EXPONENT / g_close
    # good: the largest feasible bandwidth measured, (t, sup, images); bad:
    # the smallest infeasible one, (t, sup); pair_d: the pair distances of
    # good's images, known before the search ends only where it accepts the
    # previous level's images or the constant map
    good = bad = pair_d = None
    if previous is not None:
        # the previous level's sup over these close pairs is the measurement
        # at the cap, free
        prev_sup = float(previous[1][close].max()) if close_count else 0.0
        if prev_sup <= eps:
            good, pair_d = (t_cap, prev_sup, previous[0].images), previous[1]
        else:
            bad = (t_cap, prev_sup)
    d_max = float(d_pairs.max(initial=0.0))
    g_max = _kernel_g(d_max, beta)
    # the separation end: where no bandwidth this level may accept leaves a
    # pair beyond s_floor delta/2 apart, a search would only refine images
    # that add nothing to rho1
    separates_nothing = _separates_nothing(
        p, eps, delta / 2.0, s_floor, close_count == d_pairs.size, d_max, g_close, g_max, t_cap, gram_error
    )
    tries = 0
    found_at = 0
    while good is None or not (
        good[1] >= 0.9 * eps
        or good[0] == t_cap
        or (bad is not None and bad[0] / good[0] <= 1.01)
        or tries - found_at >= 12
    ):
        if good is None:
            t = start
            if bad is not None:
                # the first two shrinks take the model step, the first never
                # below the envelope start; every later one at least halves t
                t = _model_step(*bad, eps, p)
                if tries == 0:
                    t = max(t, start)
                elif tries > 1:
                    t = min(t, bad[0] / 2.0)
            if separates_nothing or t < t_floor:
                # no separation to gain, or no factor resolves the close pairs
                # at t: the level takes the constant map, the factor of the
                # all-ones kernel, before it factors anything more
                good, pair_d = _constant_map(space.n, d_pairs.size, g_max, t_cap)
                break
        elif bad is None:
            t = t_cap if good[1] == 0.0 else min(t_cap, _model_step(*good[:2], eps, p))
        elif good[1] > 0.0:
            # log-log interpolation on sup(t), aimed just under the target
            frac = (math.log(0.999 * eps) - math.log(good[1])) / (math.log(bad[1]) - math.log(good[1]))
            t = good[0] * (bad[0] / good[0]) ** min(max(frac, 0.05), 0.95)
        else:
            t = math.sqrt(good[0] * bad[0])
        if t > t_identity:
            # the largest close pair's images are sqrt(2) apart in l_2, and at
            # least the ceiling > 1/2 >= 2^-n apart in l_p: infeasible from
            # t_identity on, with no factorization
            tries += 1
            bad = (t_identity, ceiling)
            continue
        images = _transported_images(space, t, beta, p)
        sup = _close_pair_sup(images, p, ci, cj) if close_count else 0.0
        tries += 1
        if sup > eps:
            bad = (t, sup)
        else:
            if good is None:
                found_at = tries
            good = (t, sup, images)
    t_best, sup_best, images = good

    if pair_d is None:
        # the search measured only close-pair sups; one scan of the accepted images
        pair_d = pairwise_pnorm_all(images, p)
    s_n = _separation_threshold(d_pairs, pair_d, delta / 2.0, s_floor)

    pair_d.setflags(write=False)
    return SphereMapLevel(epsilon_n=sup_best, s_n=s_n, bandwidth_t=t_best, images=images), pair_d


def build_level_family(
    space: FiniteMetricSpace,
    level_count: int,
    p_target: ExponentLike,
    delta: float,
    beta: float,
) -> tuple:
    """Calibrate levels 1..level_count with strictly increasing S_n; (the levels in order, pair power sums).

    Later levels have tighter closeness targets over larger radii, so each
    level's bandwidth brackets the next one's search; saturated levels add no
    separation threshold, and those known saturated before their search
    take the constant map. delta and its reach are checked once, before
    level 1: a delta that is not finite and positive is a ValueError, and a
    delta/2 beyond the separation l_p images can be guaranteed at p a
    CalibrationError. The pairs and their source distances are laid out
    once, for every level of this build. Only the latest level's pair
    distances are held: they go to the next level's search, and their p-th
    powers are added, in level order, to the pair power sums, one per pair
    i < j in condensed order and read-only. Once a level leaves every pair
    at distance 0, every later level is that level, with no search and
    nothing added to the sums.
    """
    p = as_exponent(p_target)
    if not (math.isfinite(delta) and delta > 0):
        # the embedding's rule, applied before the ceiling check below
        raise ValueError(f"delta must be finite and positive, got {delta!r}")
    ceiling = _distance_ceiling(p)
    if delta / 2.0 > ceiling:
        raise CalibrationError(
            f"separation target delta/2 = {delta / 2.0:g} exceeds the reachable "
            f"ceiling {ceiling:g} at p = {p.value:g}"
        )
    pairs = _pair_layout(space)
    levels, sums = [], np.zeros(pairs[0].size)
    previous, s_floor = None, 0.0
    for n in range(1, level_count + 1):
        level, pair_d = calibrate_level(space, n, p, delta, beta, previous=previous, s_floor=s_floor, _pairs=pairs)
        sums += abs_power(pair_d, p.value)
        levels.append(level)
        if not pair_d.any():
            # the fixed point: the next level would accept this one free at
            # its cap (sup 0), with eps 0 and S = inf, add +0.0 to every sum,
            # and be the fixed point in turn
            levels += [level] * (level_count - n)
            break
        previous = (level, pair_d)
        if not level.saturated:
            s_floor = level.s_n
    sums.setflags(write=False)
    return tuple(levels), sums
