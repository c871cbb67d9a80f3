"""Unit-sphere maps from positive-semidefinite kernels, calibrated per level.

A kernel K(x,y) = exp(-t d(x,y)) (laplacian) or exp(-t d(x,y)^2) (gaussian) on
a finite metric space factors as K = U diag(w) U^T, giving unit vectors
v_x = row_x(U sqrt(w)) with <v_x, v_y> = K(x,y), hence

    ||v_x - v_y||_2 = sqrt(2 (1 - K(x,y))).

The kernel follows from the distances. By Schoenberg's theorem,
exp(-t d^beta) is positive semidefinite at every t exactly when d^beta is of
negative type, so a build takes the gaussian kernel where d^2 is, else the
laplacian kernel where d is, and refuses a space where neither is
(NotNegativeType) before it factors any kernel.

Only the r eigenpairs above eigh's backward error n * eps * lambda_max are
kept, so each level's images are (n, r), r the kernel's numerical rank, and
the Mazur map, the pair scans and the JSON blocks all work at that width.
Where t * d falls below float64 resolution, K is all-ones plus noise and
factors to one column: the constant map, which meets any closeness target
exactly.

Calibration keeps within float64's resolution by one bound: the factor
reproduces each Gram entry to within 2 n^2 eps (eigh's backward error and
the dropped eigenpairs, lambda_max <= n), against 1 - K ~ t g at a close pair
(g = d, or d^2 for the gaussian kernel). Below that floor at every close
pair, a level takes the constant map with no factorization; the envelope
start aims under the target by the same error relative to 1 - K; and a try
whose kernel entry at the largest close pair is below 2^-53 is known
infeasible without a factorization (the identity end).

Level n wants a sphere map into l_p whose image distances are at most 2^-n on
pairs with d <= n, while staying at least delta/2 apart beyond some threshold
S_n. `calibrate_level` finds the largest bandwidth t meeting the closeness
target (measured exactly after Mazur transport of the l_2 factors to l_p);
S_n is then the smallest source distance above s_floor and above every pair
the images leave closer than delta/2. Levels with no such distance are
marked saturated (S_n = inf); they still contribute blocks downstream, just no
certified separation.

Every level runs one bandwidth search over one bracket: the largest feasible
bandwidth measured and the smallest infeasible one. The previous level's
bandwidth caps it, and the max of its pair distances over this level's close
pairs is the sup there, free: a cap that meets 2^-n is accepted with no
factorization, and one that misses is the bracket's upper end. Each next try
takes the model step t (0.95 2^-n / sup)^p while a side of the bracket is
missing (the model is sup ~ t^(1/p): the l_2 sup grows like sqrt(t d) at
small t, and the Mazur map raises it to the power 2/p), and log-log
interpolation once both are known. The search stops once the accepted sup is
at least 0.9 2^-n, t is the cap, the bracket is within a factor 1.01, or a
try falls below the floor; each accepted t is measured exactly.

The bandwidth search needs only the sup over close pairs (d <= n), a set
that grows with n until it holds every pair, so each try is measured in one
of two ways, chosen once per level from the source distances:

- At least half of all pairs close: one all-pairs scan, and the sup is its
  max over the close pairs. A gather reads two image rows per close pair
  where the scan reads one per pair, so it would move at least as many
  floats, and a try that is accepted keeps its scan as the level's pair
  distances.
- Fewer close pairs: the close pairs alone are gathered and summed at full
  width, and the accepted images are scanned once for the level's pair
  distances.

The gathered pairs go through the same kernel as the all-pairs scan, so both
ways give that scan's sup, bit for bit. A level that accepts the previous
level's images scans nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .lp_core import (
    ExponentLike,
    PExponent,
    as_exponent,
    pair_subset_power_sums,
    pairwise_pnorm_all,
    row_pnorms,
)
from .mazur import mazur_bounds, mazur_map_rows
from .metric_spaces import FiniteMetricSpace

__all__ = [
    "NotNegativeType",
    "CalibrationError",
    "SphereMapLevel",
    "SphereMapFamily",
    "build_sphere_map",
    "measure_conditions",
    "calibrate_level",
    "build_level_family",
]

KERNEL_KINDS = ("gaussian", "laplacian")

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
    kernel is not finite either.
    """
    gram = _negative_type_gram(dist, beta)
    if not gram.size:
        return True
    with np.errstate(over="ignore", invalid="ignore"):
        gram[np.diag_indices_from(gram)] += EIG_REL_TOL * np.trace(gram) / len(gram)
    if not np.isfinite(gram).all():
        return False
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def _kernel_for(space: FiniteMetricSpace) -> str:
    """The kernel exp(-t d^beta) that is positive semidefinite at every t on this space.

    By Schoenberg's theorem that holds exactly when d^beta is of negative
    type: gaussian (beta = 2) where d^2 is, else laplacian (beta = 1) where d
    is. Where neither is, raises NotNegativeType with the smallest eigenvalue
    of beta = 1's G as the witness, before any kernel is factored.
    """
    if _admits(space.dist, 2.0):
        return "gaussian"
    if _admits(space.dist, 1.0):
        return "laplacian"
    lam_min = float(np.linalg.eigvalsh(_negative_type_gram(space.dist, 1.0))[0])
    raise NotNegativeType(
        f"the distances are not of negative type (beta = 1), so no kernel exp(-t d^beta) with "
        f"beta >= 1 is positive semidefinite at every t: G = (d_i0 + d_j0 - d_ij) / 2 has "
        f"eigenvalue {lam_min:.6e}"
    )


def build_sphere_map(space: FiniteMetricSpace, t: float, kernel_kind: str) -> np.ndarray:
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
    eigenvalue (t * d under float64 resolution, exp(-t d) = 1.0) factors to
    one column and the constant map.
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
    """One calibrated map into S(l_p): its images, one row per point, and certified parameters.

    epsilon_n (finite, >= 0) certifies sup{||phi(x)-phi(y)||_p : d(x,y) <= level_n}
    and s_n the threshold from which pairs stay the family's delta/2 apart
    (vacuous when saturated, s_n = inf), both measured on the images after
    Mazur transport; bandwidth_t is finite and > 0. pair_distances is that
    measurement, kept read-only, over all pairs i < j in condensed
    (np.triu_indices) order; the embedding's verification and profile sum
    it instead of rescanning. Both arrays are required, built or read back
    from JSON: images (points, width) and pair_distances 1-D. Neither enters
    the repr, and both must be finite.
    """

    level_n: int
    exponent: PExponent
    epsilon_n: float
    s_n: float
    bandwidth_t: float
    kernel_kind: str
    images: np.ndarray = field(repr=False)
    pair_distances: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        _check_kernel_kind(self.kernel_kind)
        if not (math.isfinite(self.epsilon_n) and self.epsilon_n >= 0):
            raise ValueError(f"level {self.level_n}: eps must be finite and nonnegative, got {self.epsilon_n!r}")
        if not (math.isfinite(self.bandwidth_t) and self.bandwidth_t > 0):
            raise ValueError(f"level {self.level_n}: t must be finite and positive, got {self.bandwidth_t!r}")
        if np.ndim(self.images) != 2:  # None has ndim 0
            raise ValueError(f"level {self.level_n}: images must be a (points, width) array")
        if np.ndim(self.pair_distances) != 1:
            raise ValueError(f"level {self.level_n}: pair_distances must be a 1-D array")
        for name in ("images", "pair_distances"):
            if not np.isfinite(getattr(self, name)).all():
                # a NaN distance would pass every certificate comparison
                raise ValueError(f"level {self.level_n}: {name} must be finite (no NaN/inf)")

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
        numbers = [level.level_n for level in self.levels]
        if numbers != list(range(1, len(numbers) + 1)):
            raise ValueError(f"level numbers n must run 1..{len(numbers)} in order, got {numbers}")
        if any(level.images.shape[0] != self.space.n for level in self.levels):
            raise ValueError(f"every level's images must hold one row per point, {self.space.n} rows")
        pairs = self.space.n * (self.space.n - 1) // 2
        if any(level.pair_distances.shape != (pairs,) for level in self.levels):
            raise ValueError(f"every level must carry one distance per point pair, {pairs} distances")
        if any(level.exponent.value != self.exponent.value for level in self.levels):
            # the family's exponent is the one its pair distances are summed at
            raise ValueError(f"every level must be calibrated at the family's p = {self.exponent.value:g}")
        kinds = {level.kernel_kind for level in self.levels}
        if len(kinds) > 1:
            # a build calibrates every level with one kernel, each from the last
            raise ValueError(f"every level must use one kernel kind, got {sorted(kinds)}")


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
    calibration uses the bound only to aim and to cut short its search,
    and measures every level it accepts.
    """
    return 2.0 * n_points * n_points * EPS64


def _kernel_g(d: float, kernel_kind: str) -> float:
    """The g of K = exp(-t g) at source distance d: d, or d^2 for the gaussian kernel."""
    return d * d if kernel_kind == "gaussian" else d


def _transported_images(space: FiniteMetricSpace, t: float, kernel_kind: str, p: PExponent) -> np.ndarray:
    V = build_sphere_map(space, t, kernel_kind)
    if p.value == 2.0:
        return V
    return mazur_map_rows(V, 2.0, p)


def _close_pair_sup(images: np.ndarray, p: PExponent, ci: np.ndarray, cj: np.ndarray) -> float:
    """Exact max of ||images[i] - images[j]||_p over the pairs (ci, cj).

    Every pair is summed at full width with the all-pairs scan's kernel and
    converted as pairwise_pnorm_all converts, so each distance has that
    scan's bits, and so does the max.
    """
    pv = p.value
    sums = pair_subset_power_sums(images, ci, cj, pv)
    return float((sums if pv == 1.0 else sums ** (1.0 / pv)).max())


def _l2_target(eps: float, p: PExponent) -> float:
    """The l_2 image distance whose Mazur upper envelope at p is eps."""
    if p.value > 2.0:
        return (eps / mazur_bounds(2.0, p).constant_c) ** (p.value / 2.0)
    return p.value * eps / 2.0


def _feasible_start(eps: float, p: PExponent, g_close: float, gram_error: float) -> float:
    """Bandwidth guaranteed to meet the closeness target via the envelopes.

    At l_2 the largest close-pair image distance is s(t) = sqrt(2(1 - K)) at
    the largest close g (d, or d^2 for the gaussian kernel), where the kernel
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
    floor.
    """
    s = _l2_target(eps, p)
    margin = max(1e-9, 2.0 * gram_error / (s * s))
    if margin >= 1.0:
        # the target is within the Gram error: no factor resolves it
        return 0.0
    s = _l2_target(eps * (1.0 - margin), p)
    if s * s >= 2.0:
        return T_CAP
    return min(T_CAP, -math.log1p(-s * s / 2.0) / g_close)


def _model_step(t: float, sup: float, eps: float, p: PExponent) -> float:
    """Bandwidth where sup(t) would reach 0.95 eps, from one infeasible measurement.

    The model is sup ~ t^(1/p): at small t the l_2 sup grows like sqrt(t d),
    and the Mazur map raises it to the power 2/p. It only aims the next try;
    that try is measured exactly.
    """
    return t * (0.95 * eps / sup) ** p.value


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


def _scans_every_try(close_count: int, pair_count: int) -> bool:
    """Whether a level measures each try by one all-pairs scan.

    A gather of the close pairs reads two image rows per pair, and the scan
    reads one row per pair; from half the pairs close on, the gather moves at
    least as many floats, and the scan of an accepted try is the level's pair
    distances besides.
    """
    return 2 * close_count >= pair_count


def calibrate_level(
    space: FiniteMetricSpace,
    n: int,
    p_target: ExponentLike,
    delta: float,
    kernel_kind: str,
    *,
    previous: Optional[SphereMapLevel] = None,
    s_floor: float = 0.0,
    _pairs: Optional[tuple] = None,
) -> SphereMapLevel:
    """Calibrate level n: largest bandwidth meeting sup_{d<=n} <= 2^-n, then S_n.

    The closeness certificate is the exactly measured post-transport sup, not
    the envelope bound. previous (level n-1 of this space, exponent and
    kernel) caps the search at its bandwidth, since later levels have
    tighter targets over larger radii; level 1's cap is T_CAP. s_floor is an
    exclusive lower bound on S_n, for strictly increasing schedules.

    One loop serves every level. good is the largest feasible bandwidth
    measured, as (t, sup, images, pair distances or None), and bad the
    smallest infeasible one, as (t, sup). previous's pair distances give the
    sup at the cap without a factorization; a cap that meets 2^-n is taken
    with previous's images and pair distances, and one that misses is bad.
    Before each try the loop stops once good's sup is at least 0.9 * 2^-n,
    good's t is the cap, bad.t / good.t <= 1.01, or 12 tries have followed
    the first feasible one. Without good, the next t is the model step from
    bad (the envelope start where nothing is measured): on the first try
    never below the envelope start, and from the third on at most bad.t / 2.
    Without bad, it is the model step from good, up to the cap. With both,
    it is log-log interpolation on sup(t), aimed at 0.999 * 2^-n.

    Tries outside float64's resolution are not factored. With g = d, or d^2
    for the gaussian kernel, at the largest close pair, 1 - K ~ t g there is
    the largest 1 - K among the close pairs, and the factor reproduces each
    Gram entry only to within _gram_error(n) = 2 n^2 eps.
    - Floor: a try with t g under that error resolves no close pair. The
      level takes the constant map instead: one column of ones, sup 0, every
      pair distance 0, saturated. It records min(cap, 2^-55 / g_max), g_max
      over all pairs, where the kernel is all-ones in float64, so its images
      are the factor of its kernel, and later levels accept that bandwidth
      free at their cap. Since the shrinks halve t from the third on, every
      level ends at a feasible try or at this floor.
    - Identity end: a try with t g > 53 ln 2 puts K at that pair below
      2^-53, so its l_2 images are sqrt(2) apart and, through the Mazur
      lower envelope, at least the ceiling > 1/2 >= 2^-n apart in l_p. It
      counts as a try and sets bad to (53 ln 2 / g, the ceiling) unfactored.

    Each try builds its kernel once and measures the close-pair sup exactly,
    so the search path is the one an all-pairs scan per try gives. Where at
    least half of all pairs are close, the try is that scan, and good keeps
    it as pair_distances. Otherwise the close pairs alone are gathered at
    full width (_close_pair_sup), and the accepted images are scanned once
    at the end. So no images are scanned twice. A kept scan is held while
    later tries run: besides previous's pair distances, good's and the
    current try's, two arrays of n(n-1)/2 floats (about 67 MB each at
    n = 4096), where a gathered try holds none. S_n is the smallest source
    distance above s_floor and above every pair the accepted images leave
    closer than delta/2 (+inf, a saturated level, where there is none).

    _pairs is internal: build_level_family lays out the pairs and their
    source distances once and passes them to every level.
    """
    p = as_exponent(p_target)
    _check_kernel_kind(kernel_kind)
    if n < 1:
        raise ValueError(f"level index must be >= 1, got {n}")
    if not (math.isfinite(delta) and delta > 0):
        # the family's rule, applied before the ceiling check below
        raise ValueError(f"delta must be finite and positive, got {delta!r}")
    if previous is not None and (
        previous.exponent.value != p.value
        or previous.kernel_kind != kernel_kind
        or previous.pair_distances.shape != (space.n * (space.n - 1) // 2,)
    ):
        raise ValueError("previous level must come from the same space, exponent and kernel")
    ceiling = _distance_ceiling(p)
    if delta / 2.0 > ceiling:
        raise CalibrationError(
            f"separation target delta/2 = {delta / 2.0:g} exceeds the reachable "
            f"ceiling {ceiling:g} at p = {p.value:g}"
        )

    eps = 2.0 ** (-n)
    ii, jj, d_pairs = _pair_layout(space) if _pairs is None else _pairs
    close = d_pairs <= n
    close_count = int(np.count_nonzero(close))
    scan_tries = _scans_every_try(close_count, d_pairs.size)
    if not scan_tries:
        ci, cj = ii[close], jj[close]

    t_cap = T_CAP if previous is None else previous.bandwidth_t
    # with no close pair there is no closeness constraint at this radius, and
    # the cap maxes out the separation
    start = t_cap
    # float64 resolution at the largest close g: below t_floor, 1 - K ~ t g
    # is within the Gram error at every close pair, and from t_identity on,
    # K at that pair is below 2^-53
    t_floor, t_identity = 0.0, math.inf
    if close_count:
        g_close = _kernel_g(float(d_pairs[close].max()), kernel_kind)
        gram_error = _gram_error(space.n)
        start = min(_feasible_start(eps, p, g_close, gram_error), t_cap)
        t_floor, t_identity = gram_error / g_close, IDENTITY_EXPONENT / g_close
    # good: the largest feasible bandwidth measured, (t, sup, images, its
    # all-pairs scan or None); bad: the smallest infeasible one, (t, sup)
    good = bad = None
    if previous is not None:
        # the previous level's sup over these close pairs is the measurement
        # at the cap, free
        prev_sup = float(previous.pair_distances[close].max()) if close_count else 0.0
        if prev_sup <= eps:
            good = (t_cap, prev_sup, previous.images, previous.pair_distances)
        else:
            bad = (t_cap, prev_sup)
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
            if t < t_floor:
                # no factor resolves the close pairs at t: the level takes the
                # constant map, the factor of the all-ones kernel, at a
                # bandwidth where the kernel is all-ones
                t_ones = ALL_ONES_EXPONENT / _kernel_g(float(d_pairs.max()), kernel_kind)
                good = (min(t_cap, t_ones), 0.0, np.ones((space.n, 1)), np.zeros(d_pairs.size))
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
        images = _transported_images(space, t, kernel_kind, p)
        scan = None
        if scan_tries:
            scan = pairwise_pnorm_all(images, p)
            # distances are >= 0, so initial=0 moves no max
            sup = float(scan.max(where=close, initial=0.0))
        else:
            sup = _close_pair_sup(images, p, ci, cj) if close_count else 0.0
        tries += 1
        if sup > eps:
            bad = (t, sup)
        else:
            if good is None:
                found_at = tries
            good = (t, sup, images, scan)
    t_best, sup_best, images, all_img = good

    if all_img is None:
        # the search measured only close-pair sups; one scan of the accepted images
        all_img = pairwise_pnorm_all(images, p)
    s_n = _separation_threshold(d_pairs, all_img, delta / 2.0, s_floor)

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
    their blocks but add no separation threshold. The pairs and their source
    distances are laid out once, for every level of this build.
    """
    p = as_exponent(p_target)
    pairs = _pair_layout(space)
    levels = []
    s_floor = 0.0
    for n in range(1, level_count + 1):
        level = calibrate_level(
            space, n, p, delta, kernel_kind,
            previous=levels[-1] if levels else None, s_floor=s_floor, _pairs=pairs,
        )
        levels.append(level)
        if not level.saturated:
            s_floor = level.s_n
    return SphereMapFamily(levels=tuple(levels), exponent=p, delta=delta, space=space)
